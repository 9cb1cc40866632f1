"""The bit-plane engine that cell netlists and reversible circuits share.

A netlist is compiled once into one step per cell or gate, in netlist order,
and a step is data: the element's program and the state rows it reads and
writes: fresh rows for a cell's outputs, distinct rows for a gate. The
program is a factored AND/XOR form of a truth table: each output bit starts
as its algebraic normal form, an XOR of AND terms, and XORs that several
terms share become registers of their own (:func:`anf_program`). On a plan's
first run its steps become straight-line Python, SEGMENT_STEPS steps to a
generated function. The state is a list of Python-int bit planes, bit v of
a plane holding vector v's value, so every AND and XOR works on a whole
chunk of CHUNK_VECTORS vectors; a scalar is a batch of one. One collector,
:func:`run_rows`, gives Python ints for a call of integer scalars, run
without numpy, and otherwise a read-only array that keeps its bit planes:
handed back for a plan that loads every row in order, as a round trip's
line values are, it loads them with no check and no packing.

The read-out costs what the planes hold, not how many rows there are. A
plan that loads rows 0..k-1 in order, as every cell plan and every inverse
plan does, loads them with one slice assignment; a run that reads every row
hands its state list over as it is; and one decoder, :func:`_decoded`,
turns the planes of any number of chunks into one array, with no join,
and, when most rows are zero in every chunk, as each ancilla an inverse
run returns to 0 is, decodes only the others.

:mod:`cifm.bitcore` imports it on a cell plan's first compile or run and
:mod:`cifm.revlogic` on load, so the block datapath never loads it. Of cifm
it imports only bitcore's operand rules and CHUNK_VECTORS.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import Counter
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .bitcore import CHUNK_VECTORS, _scalar_call, uint_rows, uint_value


def _program_cost(sums: Sequence[set]) -> int:
    """The ANDs and XORs that ``sums`` take: an XOR fewer than its terms per
    sum, and an AND per distinct prefix, two registers or longer, of the
    terms' register chains (a term ANDs its registers in ascending order)."""
    chains = {t[:k] for s in sums for t in map(tuple, map(sorted, s))
              for k in range(2, len(t) + 1)}
    return len(chains) + sum(max(len(s) - 1, 0) for s in sums)


def _draw_out(sums: Sequence[set], pair: frozenset, reg: int) -> list[set]:
    """``sums`` with every two terms ``base&x ^ base&y`` that ``pair`` =
    {x, y} divides replaced by the one term ``base&reg``, where the new
    register ``reg`` is ``x ^ y``."""
    x, y = sorted(pair, key=sorted)
    out = []
    for s in sums:
        s = set(s)
        for term in sorted(s, key=sorted):
            base = term - x
            if term in s and x <= term and not base & y and base | y in s:
                s -= {term, base | y}
                s ^= {base | {reg}}
        out.append(s)
    return out


@functools.lru_cache(maxsize=None)
def anf_program(table: tuple[int, ...], n_in: int, n_out: int) -> tuple:
    """A factored straight-line AND/XOR program for a truth table.

    Each output bit starts in algebraic normal form, an XOR of AND terms
    over the inputs, by the Moebius transform of its column. Then XORs are
    drawn out greedily. Two terms of one sum that share a factor,
    ``base&x ^ base&y``, give the candidate ``x ^ y``: a register of its
    own, which every sum holding such a pair, whatever its ``base``, reads
    as ``base & reg`` in place of the two terms. Each round tries the
    candidates in order of how many pairs of terms give them, and takes
    the first that cuts the program's ANDs and XORs; the rounds stop when
    none does. The FA's sum ``a^b^c`` and carry ``ab ^ ac ^ bc`` take 7
    operations as ANFs and 5 once ``t = a^b`` is drawn out: sum ``t ^ c``,
    carry ``(c & t) ^ (a & b)``. A term ANDs its registers in ascending
    order, so terms with a common prefix share it. Every register drawn out
    is a new one: a pair drawn again would get a register of its own, which
    is exact but wastes an XOR; no cell or gate table meets that case.

    Registers 0..n_in-1 hold the inputs. ``ops`` lists ``(a, op, b)``, op
    ``"&"`` or ``"^"``, whose result becomes the next register. ``outputs``
    gives per output bit ``(invert, registers)``: the XOR of the registers,
    complemented when the ANF has the constant term.
    """
    sums: list[set] = []
    inverts = []
    for j in range(n_out):
        coef = [(v >> (n_out - 1 - j)) & 1 for v in table]
        for b in range(n_in):
            for i in range(len(coef)):
                if i >> b & 1:
                    coef[i] ^= coef[i ^ (1 << b)]
        inverts.append(bool(coef[0]))
        sums.append({frozenset(k for k in range(n_in) if s >> (n_in - 1 - k) & 1)
                     for s in range(1, len(coef)) if coef[s]})

    # symbol n_in + d is the XOR of the terms in sums[n_out + d]
    cost = _program_cost(sums)
    while True:
        sites = Counter()
        for s in sums:
            terms = sorted(s, key=sorted)
            for i, p in enumerate(terms):
                for q in terms[i + 1:]:
                    if p - q and q - p:
                        sites[frozenset((p - q, q - p))] += 1
        # a pair found once saves no XOR, as its register costs the one it
        # saves; leaving such pairs out keeps the rounds short for wide tables
        for pair in sorted((pair for pair, k in sites.items() if k > 1),
                           key=lambda pair: (-sites[pair], sorted(map(sorted, pair)))):
            trial = _draw_out(sums, pair, n_in + len(sums) - n_out) + [set(pair)]
            trial_cost = _program_cost(trial)
            if trial_cost < cost:
                cost, sums = trial_cost, trial
                break
        else:
            break

    ops: list[tuple[int, str, int]] = []
    made: dict = {}

    def op(a: int, sign: str, b: int) -> int:
        ops.append((a, sign, b))
        return n_in + len(ops) - 1

    def symbol(r: int) -> int:
        if r < n_in:
            return r
        if r not in made:
            regs = [chain(tuple(sorted(t))) for t in sorted(sums[n_out + r - n_in], key=sorted)]
            made[r] = functools.reduce(lambda a, b: op(a, "^", b), regs)
        return made[r]

    def chain(t: tuple[int, ...]) -> int:
        if len(t) == 1:
            return symbol(t[0])
        if t not in made:
            made[t] = op(chain(t[:-1]), "&", symbol(t[-1]))
        return made[t]

    outputs = tuple(
        (invert, tuple(chain(tuple(sorted(t))) for t in sorted(s, key=sorted)))
        for invert, s in zip(inverts, sums[:n_out]))
    return tuple(ops), outputs


@functools.lru_cache(maxsize=None)
def element_program(table: tuple[int, ...], n_in: int, n_out: int, in_place: bool) -> tuple:
    """One element's work as data: ``(n_in, ops, writes)``.

    ``ops`` is the :func:`anf_program` of ``table``, whose registers
    0..n_in-1 hold the element's input rows. ``writes`` holds one
    ``(k, invert, registers)`` per output written back, in output order, to
    the element's k-th row: output j goes to row n_in + j, after the
    inputs, unless ``in_place``. In place, output j goes to input j's row
    and is left out when it passes that input through unchanged, which is
    exact because an in-place element's rows are distinct.
    """
    ops, outputs = anf_program(table, n_in, n_out)
    if in_place:
        writes = tuple((j, *out) for j, out in enumerate(outputs) if out != (False, (j,)))
    else:
        writes = tuple((n_in + j, *out) for j, out in enumerate(outputs))
    return n_in, ops, writes


@functools.lru_cache(maxsize=None)
def _step_template(program: tuple) -> str:
    """Python lines that run ``program`` on the state list ``s``, as a
    ``str.format`` template whose field k stands for the element's row k.

    A register read once is written inline, an op as ``(x & y)`` or
    ``(x ^ y)`` and an input as ``s[row]`` as long as no earlier write of
    the step replaces that row. Every other register is a local ``r<k>``,
    computed before the first write, so every input is read before any
    write to its row. The element's rows must be distinct, or fresh where
    written, as a cell's outputs are.
    """
    n_in, ops, writes = program
    users: dict[int, list[int]] = {}       # register -> ops (>= 0), writes (< 0)
    for m, (a, _, b) in enumerate(ops):
        for r in (a, b):
            users.setdefault(r, []).append(n_in + m)
    for j, (_, _, regs) in enumerate(writes):
        for r in regs:
            users.setdefault(r, []).append(-1 - j)
    site: dict[int, int] = {}              # inlined register -> write that reads it
    for r in reversed(range(n_in + len(ops))):
        use = users.get(r, ())
        if len(use) != 1:
            continue
        j = -1 - use[0] if use[0] < 0 else site.get(use[0], -1)
        if r < n_in and any(w[0] == r for w in writes[:max(j, 0)]):
            continue
        site[r] = j

    def term(r: int) -> str:
        if r not in site:
            return f"r{r}"
        if r < n_in:
            return f"s[{{{r}}}]"
        a, sign, b = ops[r - n_in]
        return f"({term(a)} {sign} {term(b)})"

    lines = [f"r{k} = s[{{{k}}}]" for k in range(n_in) if k in users and k not in site]
    lines += [f"r{n_in + m} = {term(a)} {sign} {term(b)}"
              for m, (a, sign, b) in enumerate(ops) if n_in + m not in site]
    for target, invert, regs in writes:
        expr = [term(r) for r in regs] + ["ONES"] * invert
        lines.append(f"s[{{{target}}}] = {' ^ '.join(expr) or '0'}")
    return "\n    ".join(lines)


# Steps per generated function. Compiling a whole mul24 plan as one
# function takes tens of MB of compiler memory; 64-step functions keep
# what the generated code costs in memory to a few MB for all of a
# workload's plans, and still run about twice as fast as a call per step.
SEGMENT_STEPS = 64


def _segments(steps: Sequence[tuple]) -> tuple[Callable, ...]:
    """``steps`` as straight-line functions ``f(s, ONES)``, SEGMENT_STEPS
    steps each, to be called in order."""
    segments = []
    for lo in range(0, len(steps), SEGMENT_STEPS):
        body = "\n    ".join(
            _step_template(program).format(*rows)
            for program, rows in steps[lo : lo + SEGMENT_STEPS])
        namespace: dict = {}
        # ``pass`` keeps the body valid where no step writes a row: a gate
        # may change no line
        exec(compile(f"def segment(s, ONES):\n    pass\n    {body}\n", f"<plan steps {lo}..>",
                     "exec"), namespace)
        segments.append(namespace["segment"])
    return tuple(segments)


class Plan:
    """A netlist compiled for :func:`run_planes`.

    The state is a list of ``rows`` bit planes, ints whose bit v is vector
    v's value. State row ``load_rows[i]`` starts as bit ``load_shift[i]``
    (bit 0 when ``load_shift`` is None) of operand row ``load_src[i]``;
    rows in ``ones`` start all ones and every other row zero. ``load_src``
    is a tuple of operand rows or a slice. Only a tuple's load of an array
    is a copy, so only a plan with a tuple may have a ``load_shift``, which
    shifts that copy in place. ``steps`` holds one ``(program, rows)``
    pair per element in netlist order: an :func:`element_program` and the
    element's state rows. ``depth[r]`` counts the elements on the longest
    chain that ends at the last element touching row r, 0 if none does.

    The steps run as Python generated from them (:func:`_segments`), made
    on the plan's first run and kept with it. Nothing else generates it. A
    plan pickles without it and makes it again on its first run after
    loading, so a netlist that has run pickles too. ``_load_slice`` is
    ``slice(0, k)`` when ``load_rows`` is 0..k-1 in order, so that
    :func:`run_planes` loads the k planes with one slice assignment, and
    None when it is not; it is derived from ``load_rows`` when the plan is
    made, a loaded one included.
    """

    __slots__ = ("rows", "steps", "load_rows", "load_src", "load_shift", "ones", "depth",
                 "_load_slice", "_segments")

    def __init__(self, rows: int, steps: tuple, load_rows: tuple[int, ...],
                 load_src: tuple[int, ...] | slice, load_shift: tuple[int, ...] | None,
                 ones: tuple[int, ...], depth: tuple[int, ...]) -> None:
        self.rows, self.steps, self.depth = rows, steps, depth
        self.load_rows, self.load_src, self.load_shift = load_rows, load_src, load_shift
        self.ones = ones
        k = len(load_rows)
        self._load_slice = slice(0, k) if load_rows == tuple(range(k)) else None
        self._segments: tuple[Callable, ...] | None = None

    def segments(self) -> tuple[Callable, ...]:
        """The generated functions of :attr:`steps`, made on first call."""
        if self._segments is None:
            self._segments = _segments(self.steps)
        return self._segments

    def __reduce__(self):
        # generated functions do not pickle: a loaded plan makes its own
        return Plan, (self.rows, self.steps, self.load_rows, self.load_src, self.load_shift,
                      self.ones, self.depth)


def run_planes(plan: Plan, planes: Iterable[int], n: int) -> list[int]:
    """Every state row's final bit plane after ``plan`` runs on ``n`` vectors.

    ``planes`` holds the starting plane of each of ``plan.load_rows``, in
    that order: bit v of a plane is vector v's value. The result is a new
    list; ``planes`` is left as it was.
    """
    state = [0] * plan.rows
    if plan._load_slice is not None:
        state[plan._load_slice] = planes
    else:
        for row, plane in zip(plan.load_rows, planes):
            state[row] = plane
    ones = (1 << n) - 1
    for row in plan.ones:
        state[row] = ones
    for segment in plan.segments():
        segment(state, ones)
    return state


def _to_planes(bits: np.ndarray) -> list[int]:
    """Bit planes of the 0/1 rows of ``bits`` [rows x n]: column v is bit v.

    The columns are packed as uint8 bytes, which ``np.packbits`` handles an
    order of magnitude faster than wider integers. The packed buffer is
    split into its rows by ``struct.iter_unpack``, so no Python code runs
    per row; it takes no zero-length format, so ``n`` must be at least 1.
    """
    import numpy as np

    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=1, bitorder="little")
    rows = struct.iter_unpack(f"{packed.shape[1]}s", packed.tobytes())
    return list(map(int.from_bytes, map(itemgetter(0), rows), repeat("little")))


def _decoded(chunks: Sequence[tuple], count: int, n: int) -> np.ndarray:
    """The inverse of :func:`_to_planes`: uint8 [count x n] from the
    ``(lo, hi, planes)`` of consecutive chunks covering n vectors, each
    holding ``count`` planes.

    Each plane becomes as many bytes as the first chunk's planes fill. Every
    chunk but the last holds CHUNK_VECTORS vectors, a whole number of bytes,
    so a row's bytes, chunk after chunk, hold its bits in vector order, the
    last chunk's padded with zeros past n, and one unpacking call decodes
    every row at full length. A lone chunk's planes are its rows as they
    are. A row zero in every chunk needs no work: when at least half the
    rows are such, as in an inverse run's final state, where every ancilla
    is back at 0, the rows start as one zeroed array and only the others are
    converted, unpacked and written into their rows. A mostly nonzero list
    is decoded in one buffer, which spares that scatter.
    """
    import numpy as np

    size = -(-(chunks[0][1] - chunks[0][0]) // 8) if chunks else 0
    if len(chunks) == 1:
        rows = flags = chunks[0][2]
        planes_of = iter
    else:
        rows = list(zip(*(planes for _, _, planes in chunks))) or [()] * count
        flags = list(map(any, rows))
        planes_of = chain.from_iterable

    def unpacked(kept: Iterable, k: int) -> np.ndarray:
        data = b"".join(map(int.to_bytes, planes_of(kept), repeat(size), repeat("little")))
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(k, size * len(chunks)),
                             axis=1, bitorder="little", count=n)

    if 2 * flags.count(0) <= count:
        return unpacked(rows, count)
    out = np.zeros((count, n), dtype=np.uint8)
    nonzero = list(compress(range(count), flags))
    if nonzero:
        out[nonzero] = unpacked(map(rows.__getitem__, nonzero), len(nonzero))
    return out


class _Planes:
    """The memory of a uint8 array decoded from bit planes, as numpy sees it
    through ``__array_interface__``, kept with those planes.

    ``chunks`` holds one ``(lo, hi, planes)`` per engine pass: the planes of
    the array's rows for its columns lo..hi-1. ``np.asarray`` of a holder
    is called once, by :func:`run_rows`, so the array it makes is the only
    one whose ``base`` is the holder: a view, reshape or copy of it has
    another base. The array is read-only and cannot be made writeable, so
    its contents stay those its planes decode to.
    """

    __slots__ = ("__array_interface__", "memory", "chunks")

    def __init__(self, memory: np.ndarray, chunks: tuple, shape: tuple) -> None:
        self.memory, self.chunks = memory, chunks
        interface = memory.__array_interface__
        self.__array_interface__ = dict(interface, shape=shape, data=(interface["data"][0], True))


def run_kernels(plan: Plan, values: np.ndarray | _Planes, read: Sequence[int]):
    """Evaluate ``plan`` on the vectors of ``values``, CHUNK_VECTORS at a time.

    ``values`` is [operand rows x vectors] of integers, each row in range
    for the bits the plan loads from it, or the :class:`_Planes` of a
    :func:`run_rows` result whose rows the plan loads as they are: its
    planes load the state as they were kept. Yields ``(lo, hi, planes)``:
    the final bit planes of state rows ``read`` for vectors lo..hi-1, bit v
    of a plane holding vector lo + v. The caller decodes what it needs.
    When ``read`` is ``range(plan.rows)``, every row, ``planes`` is the
    state list that :func:`run_planes` made, not a copy of it.
    """
    loads = values.chunks if type(values) is _Planes else _loads(plan, values)
    every = read == range(plan.rows)
    for lo, hi, planes in loads:
        state = run_planes(plan, planes, hi - lo)
        yield lo, hi, state if every else [state[row] for row in read]


def _loads(plan: Plan, values: np.ndarray):
    """``(lo, hi, planes)`` per CHUNK_VECTORS vectors of ``values``: the
    starting planes of ``plan.load_rows``, as :func:`run_kernels` takes them.

    The loaded bits are staged in the narrowest unsigned dtype that holds
    every bit the plan loads (uint16 for 12-bit buses, uint8 for 0/1
    lines), so the copy and the shifts move as few bytes as they can.
    """
    import numpy as np

    src, shift = plan.load_src, plan.load_shift
    if not isinstance(src, slice):
        src = np.array(src, dtype=np.intp)
    width = 1 + max(shift) if shift else 1          # bits loaded per operand, at most
    dtype = np.min_scalar_type((1 << min(width, 64)) - 1)
    if shift is not None:
        shift = np.array(shift, dtype=dtype)[:, None]
    for lo in range(0, values.shape[1], CHUNK_VECTORS):
        hi = min(values.shape[1], lo + CHUNK_VECTORS)
        # an index-array load is a copy, the only kind shifted in place;
        # a slice load is a view of ``values``, or of its narrow copy
        block = values[:, lo:hi].astype(dtype, copy=False)[src]
        if shift is not None:
            block >>= shift
            block &= 1
        yield lo, hi, _to_planes(block)


def run_rows(
    plan: Plan, values: Sequence, widths: Sequence[int], name: Callable[[int], str]
) -> list[int] | np.ndarray:
    """Every state row's final value after ``plan`` runs on ``values``.

    A call whose values are all integer scalars (ints, or numpy integers
    once numpy is loaded) runs as one vector without numpy: each value is
    range-checked with :func:`uint_value`, its bits load the state directly,
    and the result is a list of Python ints. Any other call, a 0-d array
    or one numpy array as ``values`` included, is an array call:
    ``values`` and the ValueError it may raise are as in :func:`uint_rows`,
    and the result is one uint8 array [plan.rows x *shape] for the
    broadcast shape of the values. Its chunks, however many, are decoded
    into one array by :func:`_decoded`, and an empty batch gives
    [plan.rows x 0].

    An array result is read-only, and setting its ``writeable`` flag
    raises: ``.copy()`` gives one to change, and keeps only the values. Its
    base is the :class:`_Planes` holder, built here, that keeps the final
    bit planes it was decoded from. Handed back as ``values``, that same
    array object, not a view, reshape or copy of it, loads those planes as
    they are, with no range check and no packing, when ``plan`` loads every
    operand row in order (a full slice, unshifted) and no width is 0. Every
    other input is stacked and packed as above.
    """
    if _scalar_call(values):
        ints = [uint_value(v, w, name(i)) for i, (v, w) in enumerate(zip(values, widths))]
        src = plan.load_src
        loaded = ints[src] if isinstance(src, slice) else [ints[i] for i in src]
        if plan.load_shift is not None:
            loaded = [v >> k & 1 for v, k in zip(loaded, plan.load_shift)]
        return run_planes(plan, loaded, 1)
    import numpy as np

    kept = values.base if type(values) is np.ndarray else None
    if (type(kept) is _Planes and plan.load_src == slice(None) and plan.load_shift is None
            and len(values) == len(widths) and 0 not in widths):
        # the planes hold bits, which every nonzero width admits
        rows, shape = kept, values.shape[1:]
    else:
        rows, shape = uint_rows(values, widths, name)
    chunks = tuple(run_kernels(plan, rows, range(plan.rows)))
    memory = _decoded(chunks, plan.rows, math.prod(shape))
    return np.asarray(_Planes(memory, chunks, (plan.rows,) + shape))
