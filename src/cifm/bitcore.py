"""Fixed-width bit vectors and gate-level netlists.

Everything downstream, from the block multiplier to the reversible
expansion, is built on the two abstractions in this module:

* :class:`BitVec` -- an immutable unsigned integer with an explicit width.
* :class:`CellNetlist` -- an ordered list of AND / half-adder / full-adder
  cells over named nets, evaluable bit by bit.

It also holds the evaluation engine that cell netlists and reversible
circuits share. A netlist is compiled once into one step per cell or gate,
in netlist order, and a step is data: the element's program and the state
rows it reads and writes: fresh rows for a cell's outputs, distinct rows
for a gate. The program is a factored AND/XOR form of a truth table: each
output bit starts as its algebraic normal form, an XOR of AND terms, and
XORs that several terms share become registers of their own
(:func:`anf_program`). On a plan's first run its steps become
straight-line Python, each step's ANDs and XORs written out on its rows,
SEGMENT_STEPS steps to a generated function; later runs call those
functions in order. The state is a list of Python-int bit planes, bit v of
a plane holding vector v's value (bitslicing), so every AND and XOR works
on a whole chunk of vectors. Batches run CHUNK_VECTORS vectors at a time;
a scalar is a batch of one. Netlist evaluation accepts integer scalars or
numpy integer arrays for every input, so a single netlist can be swept over
many operand pairs at once; an array call stages the operand bits it loads
in the narrowest unsigned dtype that holds them. Every module checks
integers with :func:`as_int`, flags with :func:`as_flag`, scalar operands
with :func:`uint_value`, named operands with :func:`named_values` and
operand arrays with :func:`uint_rows`. Cell netlists and reversible circuits alike
get their results from one collector, :func:`run_rows`: a call whose
operands are all integer scalars runs as one vector without numpy and gives
Python ints, and any other call gives a read-only array that keeps the
bit planes :func:`run_kernels` yielded. Handed back to :func:`run_rows`
for a plan that loads every row in order, as a round trip's line values
are, such an array loads those planes with no check and no packing.
:func:`uint_rows` checks an operand stack's range in one pass, and row by
row only to name the operand that fails it. :meth:`CellNetlist.evaluate_nets`
gives the collector's state as a read-only mapping through the plan's net
index, not a dict built per call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BitVec",
    "CellKind",
    "Cell",
    "CellNetlist",
    "NetlistBuilder",
    "CHUNK_VECTORS",
]


def as_int(x, name: str) -> int:
    """``x`` as a Python int: an int or a numpy integer scalar, never a bool.
    ValueError for anything else. The type only: callers check the range.

    While numpy is not loaded, no value can be a numpy scalar, so numpy's
    types are looked at only once something else has imported it.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.integer):
        return int(x)
    raise ValueError(f"{name} must be an int, got {type(x).__name__}")


def as_flag(x, name: str) -> bool:
    """``x`` as a Python bool. ValueError unless a bool: "yes" is not true.
    A numpy bool passes too, once numpy is loaded."""
    if isinstance(x, bool):
        return x
    np = sys.modules.get("numpy")
    if np is None or not isinstance(x, np.bool_):
        raise ValueError(f"{name} must be a bool, got {x!r}")
    return bool(x)


def _scalar_call(values: Iterable) -> bool:
    """True when :func:`as_int` accepts every value: a call that runs as one
    vector, without numpy, and gives Python ints. One array never is."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray):
        return False
    ints = int if np is None else (int, np.integer)
    return all(type(v) is int or isinstance(v, ints) and not isinstance(v, bool)
               for v in values)


def named_values(values: Mapping, names: Sequence[str], what: str) -> list:
    """``values[name]`` for each of ``names``, in order. ValueError unless
    ``values`` is a mapping that holds every name; ``what`` names it."""
    if not isinstance(values, Mapping):
        raise ValueError(f"{what} must be a mapping, got {type(values).__name__}")
    for name in names:
        if name not in values:
            raise ValueError(f"missing {name!r} in {what}")
    return [values[name] for name in names]


class _FirstRead:
    """One field of a deferred record: its first read fills in every field."""

    __slots__ = ("name", "build", "defaults")

    def __init__(self, name: str, build: Callable, defaults: dict) -> None:
        self.name, self.build, self.defaults = name, build, defaults

    def __get__(self, record, owner=None):
        if record is None:
            return self
        fields = record.__dict__        # later reads find the field here
        fields.update(self.defaults)
        fields.update(self.build(*fields["_inputs"]))
        return fields[self.name]


def deferred_record(record: type, build: Callable) -> Callable:
    """A maker of ``record`` instances, for a frozen dataclass, built on first read.

    ``make(*inputs)`` returns an instance of a subclass of ``record`` that
    keeps only ``inputs``. The first read of any field fills in every field
    at once: ``build(*inputs)`` returns them as a dict, which may leave out
    those that have a plain default. Every later read is a plain attribute
    lookup. An instance compares equal to a ``record`` with the same
    fields, either way round, hashes, prints, copies and pickles as that
    record, and cannot be assigned to.
    """
    fields = dataclasses.fields(record)
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}

    def values(r) -> tuple:
        return tuple(getattr(r, name) for name in names)

    def __eq__(self, other):
        return values(self) == values(other) if isinstance(other, record) else NotImplemented

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return record, values(self)

    namespace = {name: _FirstRead(name, build, defaults) for name in names}
    namespace.update(
        __eq__=__eq__, __hash__=record.__hash__, __setattr__=__setattr__,
        __delattr__=__delattr__, __reduce__=__reduce__, __doc__=record.__doc__,
        __module__=record.__module__, __qualname__=record.__qualname__,
    )
    deferred = type(record.__name__, (record,), namespace)

    def make(*inputs):
        instance = object.__new__(deferred)
        object.__setattr__(instance, "_inputs", inputs)
        return instance

    return make


@dataclass(frozen=True, init=False)
class BitVec:
    """An unsigned integer constrained to a fixed bit width.

    Both fields are stored as Python ints. The constructor is written out,
    not generated, so that it stores them without the frozen per-field
    setter; equality, hashing, ``repr``, ``dataclasses.replace`` and
    pickling are the generated ones.
    """

    value: int
    width: int

    def __init__(self, value: int, width: int) -> None:
        if type(value) is not int or type(width) is not int:
            value = as_int(value, "value")
            width = as_int(width, "width")
        if width <= 0:
            raise ValueError(f"width must be a positive int, got {width!r}")
        # by bit length, so that a huge width builds no huge int
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        fields = self.__dict__
        fields["value"] = value
        fields["width"] = width

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value:#0{2 + (self.width + 3) // 4}x}/{self.width}"


# ---------------------------------------------------------------------------
# Bit-plane evaluation
# ---------------------------------------------------------------------------

# Vectors per engine pass: bounds the bit planes (one int of CHUNK_VECTORS
# bits per net or line) and the packing temporaries for any batch size.
CHUNK_VECTORS = 1 << 13


def truth_table(fn, n_in: int, n_out: int) -> tuple[int, ...]:
    """Entry i is the output pattern of ``fn`` for input pattern i.

    The first input (and the first output) is the most significant bit,
    the convention of :class:`cifm.revlogic.RevGate` mappings.
    """
    table = []
    for i in range(1 << n_in):
        bits = tuple((i >> (n_in - 1 - k)) & 1 for k in range(n_in))
        out = fn(*bits)
        table.append(sum(v << (n_out - 1 - k) for k, v in enumerate(out)))
    return tuple(table)


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
    loading, so a netlist that has run pickles too.
    """

    __slots__ = ("rows", "steps", "load_rows", "load_src", "load_shift", "ones", "depth",
                 "_segments")

    def __init__(self, rows: int, steps: tuple, load_rows: tuple[int, ...],
                 load_src: tuple[int, ...] | slice, load_shift: tuple[int, ...] | None,
                 ones: tuple[int, ...], depth: tuple[int, ...]) -> None:
        self.rows, self.steps, self.depth = rows, steps, depth
        self.load_rows, self.load_src, self.load_shift = load_rows, load_src, load_shift
        self.ones = ones
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
    that order: bit v of a plane is vector v's value.
    """
    state = [0] * plan.rows
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


def _from_planes(planes: Sequence[int], n: int) -> np.ndarray:
    """The inverse of :func:`_to_planes`: uint8 [len(planes) x n]."""
    import numpy as np

    size = -(-n // 8)
    data = b"".join(map(int.to_bytes, planes, repeat(size), repeat("little")))
    return np.unpackbits(
        np.frombuffer(data, dtype=np.uint8).reshape(len(planes), size),
        axis=1, bitorder="little", count=n,
    )


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
    """
    loads = values.chunks if type(values) is _Planes else _loads(plan, values)
    for lo, hi, planes in loads:
        state = run_planes(plan, planes, hi - lo)
        yield lo, hi, [state[row] for row in read]


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


def cached(owner, attr: str, key: tuple, build):
    """What ``build()`` makes from ``owner``, kept on it under ``attr`` as a
    ``(key, value)`` pair and built again once ``key`` changes.

    Netlists only grow by appending, so their element counts tell whether
    what was built from them is still current.
    """
    kept = owner.__dict__.get(attr)
    if kept is None or kept[0] != key:
        kept = (key, build())
        setattr(owner, attr, kept)
    return kept[1]


def uint_value(x: BitVec | int, width: int, name: str) -> int:
    """The value of one scalar operand: a ``width``-bit BitVec, or an int
    (:func:`as_int`) in 0..2**width-1. ValueError for anything else."""
    if type(x) is not int:
        if isinstance(x, BitVec):
            if x.width != width:
                raise ValueError(f"{name} must be {width} bits wide, got {x.width}")
            return x.value
        x = as_int(x, name)
    if not 0 <= x < 1 << width:
        raise ValueError(f"{name}={x:#x} does not fit in {width} bits")
    return x


def uint_rows(
    values: Sequence, widths: Sequence[int], name: Callable[[int], str]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stack integer operands into one int64 array [len(values) x vectors].

    Returns it with the operands' broadcast shape. Raises ValueError unless
    every operand is an int or an integer array (an empty array of any
    dtype passes), the shapes broadcast, and every element of row i lies in
    0..2**widths[i]-1; ``name(i)`` names operand i in the message. The range
    check runs once over the whole stack, and row by row only when it fails
    (a uint64 element of 2**63 or more wraps negative, so it fails too).

    ``values`` may also be one integer array whose first axis holds the
    operands: it is reshaped, not copied row by row, and its dtype is kept.
    """
    import numpy as np

    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu"
            and values.ndim and len(values) == len(widths)):
        shape = values.shape[1:]
        return _checked(values.reshape(len(values), math.prod(shape)), widths, name), shape
    arrs = [np.asarray(v) for v in values]
    seen = {(a.dtype, a.shape) for a in arrs}
    if any(d.kind not in "iu" and 0 not in shape for d, shape in seen):
        i = next(i for i, a in enumerate(arrs) if a.size and a.dtype.kind not in "iu")
        raise ValueError(f"{name(i)} must hold integers, got dtype {arrs[i].dtype}")
    shapes = {shape for _, shape in seen}
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise ValueError(f"operand shapes do not broadcast: {sorted(shapes)}") from None
    rows = np.empty((len(arrs),) + shape, dtype=np.int64)
    for i, arr in enumerate(arrs):
        rows[i] = arr
    return _checked(rows.reshape(len(arrs), math.prod(shape)), widths, name), shape


def _checked(flat: np.ndarray, widths: Sequence[int], name: Callable[[int], str]) -> np.ndarray:
    """``flat`` [operands x vectors], after checking that every element of
    row i lies in 0..2**widths[i]-1.

    One check over the whole stack settles the common case: no element is
    negative and none exceeds the narrowest row's limit. Only a stack that
    fails it is checked row by row, to name the first operand at fault. An
    unsigned stack takes no minimum, since none of its elements can be
    negative, so its check is one reduction.
    """
    import numpy as np

    signed = flat.dtype.kind != "u"
    if flat.size and not ((not signed or int(flat.min()) >= 0)
                          and int(flat.max()) < 1 << min(min(widths), 63)):
        limits = np.left_shift(1, np.minimum(widths, 63), dtype=np.int64) - 1
        bad = flat.max(axis=1) > limits
        if signed and flat.min() < 0:
            bad |= flat.min(axis=1) < 0
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name(i)} has elements outside 0..2**{widths[i]}-1")
    return flat


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
    broadcast shape of the values. A batch of one chunk is returned as it
    was decoded, longer batches are joined, and an empty one gives
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
    parts = [_from_planes(planes, hi - lo) for lo, hi, planes in chunks]
    memory = parts[0] if len(parts) == 1 else np.concatenate(
        parts or [np.empty((plan.rows, 0), dtype=np.uint8)], axis=1)
    return np.asarray(_Planes(memory, chunks, (plan.rows,) + shape))


class CellKind(Enum):
    AND = "AND"
    HA = "HA"
    FA = "FA"


_CELL_ARITY = {CellKind.AND: (2, 1), CellKind.HA: (2, 2), CellKind.FA: (3, 2)}


def _arity(kind: CellKind) -> tuple[int, int]:
    """The input and output counts of ``kind``; ValueError unless a CellKind."""
    if not isinstance(kind, CellKind):
        raise ValueError(f"kind must be a CellKind, got {kind!r}")
    return _CELL_ARITY[kind]


# What each cell computes; HA and FA outputs are (sum, carry), in the rows
# that follow the cell's input rows.
_CELL_FUNCTIONS = {
    CellKind.AND: lambda a, b: (a & b,),
    CellKind.HA: lambda a, b: (a ^ b, a & b),
    CellKind.FA: lambda a, b, c: (a ^ b ^ c, (a & b) | (a & c) | (b & c)),
}


@functools.cache
def _cell_program(kind: CellKind) -> tuple:
    """The step program of a ``kind`` cell, made by the first compile that
    needs it, so that importing the module runs no factoring search."""
    n_in, n_out = _CELL_ARITY[kind]
    return element_program(truth_table(_CELL_FUNCTIONS[kind], n_in, n_out), n_in, n_out, False)


@dataclass(frozen=True)
class Cell:
    """One gate instance.

    HA and FA outputs are ordered (sum, carry). ``level`` tags the pipeline
    stage inside a 4x4 block (1..3); composition adders outside any block
    use level 0. ``module_id`` is the owning 4x4 block's id string, or None
    for shared logic.
    """

    kind: CellKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    level: int = 0
    module_id: str | None = None

    def __post_init__(self) -> None:
        n_in, n_out = _arity(self.kind)
        object.__setattr__(self, "level", as_int(self.level, "level"))
        if not (type(self.inputs) is tuple and type(self.outputs) is tuple
                and all(isinstance(net, str) for net in self.inputs + self.outputs)):
            raise ValueError(f"cell nets must be tuples of str, got "
                             f"{self.inputs!r} -> {self.outputs!r}")
        if len(self.inputs) != n_in or len(self.outputs) != n_out:
            raise ValueError(
                f"{self.kind.value} cell needs {n_in} inputs and {n_out} outputs, "
                f"got {len(self.inputs)}/{len(self.outputs)}"
            )
        if self.module_id is not None and not isinstance(self.module_id, str):
            raise ValueError(f"cell module_id must be None or a str, got {self.module_id!r}")


class _CompiledCells(NamedTuple):
    plan: Plan
    nets: dict[str, int]        # every net in definition order -> its state row, i for net i
    outputs: tuple[int, ...]    # state row per output bit, LSB first


class _NetValues(Mapping):
    """Every net's value after one :meth:`CellNetlist.evaluate_nets` call, a
    read-only view of the engine's state: net -> row from the compiled plan,
    row -> value from the call's result. Iterates in net definition order.

    A plan's net index is built once and never changed, so a view taken
    before its netlist gains a cell keeps the nets and values it had.
    """

    __slots__ = ("_rows", "_values")

    def __init__(self, rows: dict[str, int], values: list[int] | np.ndarray) -> None:
        self._rows, self._values = rows, values

    def __getitem__(self, net: str):
        return self._values[self._rows[net]]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass
class CellNetlist:
    """An ordered, single-driver netlist of AND/HA/FA cells.

    inputs:  list of (bus name, list of net names), LSB first
    cells:   topologically ordered cell list
    outputs: list of (bit name, net name), LSB first
    """

    inputs: list[tuple[str, list[str]]] = field(default_factory=list)
    cells: list[Cell] = field(default_factory=list)
    outputs: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on the first hit.

        Bus names are distinct strs, and so are output names. A bus's nets
        are an iterable of names, never one str. Every cell is a
        :class:`Cell`. Every net is a str, driven once, and before any cell
        or output reads it.
        """
        for what, names in (("bus", [name for name, _ in self.inputs]),
                            ("output", [name for name, _ in self.outputs])):
            seen: set[str] = set()
            for name in names:
                if not isinstance(name, str):
                    raise ValueError(f"{what} name must be a str, got {name!r}")
                if name in seen:
                    raise ValueError(f"{what} name {name} repeats")
                seen.add(name)
        defined: set[str] = set()
        for bus, nets in self.inputs:
            if isinstance(nets, str):
                # a str would be split into one-character nets
                raise ValueError(
                    f"bus {bus} nets must be an iterable of net names, got {nets!r}"
                )
            for n in nets:
                if not isinstance(n, str):
                    raise ValueError(f"bus {bus} net must be a str, got {n!r}")
                if n in defined:
                    raise ValueError(f"net {n} driven twice (input)")
                defined.add(n)
        for idx, cell in enumerate(self.cells):
            if not isinstance(cell, Cell):
                raise ValueError(f"cell {idx} must be a Cell, got {cell!r}")
            for n in cell.inputs:
                if n not in defined:
                    raise ValueError(
                        f"cell {idx} ({cell.kind.value}) reads undriven net {n}"
                    )
            for n in cell.outputs:
                if n in defined:
                    raise ValueError(f"net {n} driven twice (cell {idx})")
                defined.add(n)
        for name, net in self.outputs:
            if not isinstance(net, str):
                raise ValueError(f"output {name} net must be a str, got {net!r}")
            if net not in defined:
                raise ValueError(f"output {name} reads undriven net {net}")

    def _compiled(self) -> "_CompiledCells":
        key = (len(self.inputs), len(self.cells), len(self.outputs))
        return cached(self, "_plan", key, self._compile)

    def _compile(self) -> "_CompiledCells":
        """One step per cell in cell order; net i of definition order gets
        state row i."""
        self.validate()
        row: dict[str, int] = {}
        src, shift = [], []
        for bus, (_, nets) in enumerate(self.inputs):
            for k, net in enumerate(nets):
                row[net] = len(row)
                src.append(bus)
                shift.append(k)
        depth = [0] * len(row)
        steps = []
        for cell in self.cells:
            ins = tuple(map(row.__getitem__, cell.inputs))
            outs = tuple(range(len(row), len(row) + len(cell.outputs)))
            row.update(zip(cell.outputs, outs))
            depth += [1 + max(map(depth.__getitem__, ins))] * len(outs)
            steps.append((_cell_program(cell.kind), ins + outs))
        plan = Plan(
            rows=len(row),
            steps=tuple(steps),
            load_rows=tuple(range(len(src))),
            load_src=tuple(src),
            load_shift=tuple(shift),
            ones=(),
            depth=tuple(depth),
        )
        return _CompiledCells(plan, row, tuple(row[net] for _, net in self.outputs))

    def _operands(self, operands: Mapping) -> tuple[list, list[int], Callable]:
        """The operand buses' values in bus order, their widths, and their
        names by index: the arguments of :func:`uint_rows`."""
        names = [name for name, _ in self.inputs]
        values = named_values(operands, names, "operands")
        return values, [len(nets) for _, nets in self.inputs], names.__getitem__

    def evaluate_nets(self, operands: Mapping[str, int | np.ndarray]) -> Mapping:
        """Evaluate every net. Operand values are ints or int arrays.

        Returns a read-only mapping from net name to bit value, in net
        definition order: Python ints when every operand is an integer
        scalar, else int64 arrays of the broadcast operand shape. It is a
        view of the engine's state, not a dict built per call: ``dict()`` of
        it gives one, which can be changed or written as JSON. Raises
        ValueError for a missing operand, a non-integer one, or an element
        outside its bus width.
        """
        compiled = self._compiled()
        values = run_rows(compiled.plan, *self._operands(operands))
        if type(values) is not list:
            values = values.astype("int64")
        return _NetValues(compiled.nets, values)

    def evaluate(self, operands: Mapping[str, int | np.ndarray]) -> int | np.ndarray:
        """Evaluate and assemble the output bits into one integer (or int64 array).

        Output k is bit k of the result. A scalar call gives an exact Python
        int for any number of outputs. An array call gives int64, so it
        takes at most 63 outputs and raises ValueError for more; read wider
        netlists per net with :meth:`evaluate_nets`.
        """
        compiled = self._compiled()
        values, widths, name = self._operands(operands)
        if _scalar_call(values):
            state = run_rows(compiled.plan, values, widths, name)
            return sum(state[row] << k for k, row in enumerate(compiled.outputs))
        if len(compiled.outputs) > 63:
            raise ValueError(
                f"evaluate on arrays gives int64, which holds at most 63 outputs; "
                f"this netlist has {len(compiled.outputs)}: use evaluate_nets"
            )
        import numpy as np

        rows, shape = uint_rows(values, widths, name)
        # a float64 matmul runs in BLAS, and is exact while each sum stays
        # below 2**53: outputs are summed 53 at a time, each group ORed in
        n_out = len(compiled.outputs)
        weights = 2.0 ** np.arange(min(n_out, 53))
        total = np.zeros(rows.shape[1], dtype=np.int64)
        for lo, hi, planes in run_kernels(compiled.plan, rows, compiled.outputs):
            bits = _from_planes(planes, hi - lo)
            for k in range(0, n_out, 53):
                total[lo:hi] |= (weights[:n_out - k] @ bits[k : k + 53]).astype(np.int64) << k
        return total.reshape(shape)

    def cell_count(self) -> int:
        return len(self.cells)

    def unit_delay(self) -> int:
        """Longest cell chain from any input to any output, one per cell."""
        compiled = self._compiled()
        return max((compiled.plan.depth[r] for r in compiled.outputs), default=0)

    def to_json(self) -> dict:
        """Deterministic JSON-ready form."""
        return {
            "inputs": [
                {"name": name, "width": len(nets), "nets": list(nets)}
                for name, nets in self.inputs
            ],
            "cells": [
                {
                    "kind": c.kind.value,
                    "ins": list(c.inputs),
                    "outs": list(c.outputs),
                    "level": c.level,
                    "module_id": c.module_id,
                }
                for c in self.cells
            ],
            "outputs": [{"name": name, "net": net} for name, net in self.outputs],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "CellNetlist":
        """The netlist :meth:`to_json` wrote; ValueError for a malformed document."""

        def names(value) -> list:
            # a str would be split into one-character nets
            if isinstance(value, str):
                raise ValueError(f"expected a list of net names, got {value!r}")
            return list(value)

        try:
            if any(d["width"] != len(d["nets"]) for d in doc["inputs"]):
                raise ValueError("an input bus's width is not its number of nets")
            nl = cls(
                inputs=[(d["name"], names(d["nets"])) for d in doc["inputs"]],
                cells=[
                    Cell(
                        kind=CellKind(d["kind"]),
                        inputs=tuple(names(d["ins"])),
                        outputs=tuple(names(d["outs"])),
                        level=d["level"],
                        module_id=d["module_id"],
                    )
                    for d in doc["cells"]
                ],
                outputs=[(d["name"], d["net"]) for d in doc["outputs"]],
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed netlist document: {exc!r}") from None
        nl.validate()
        return nl


class NetlistBuilder:
    """Incremental construction helper guaranteeing fresh net names."""

    def __init__(self) -> None:
        self._n = 0
        self.netlist = CellNetlist()

    def new_net(self) -> str:
        name = f"n{self._n}"
        self._n += 1
        return name

    def input_bus(self, name: str, width: int) -> list[str]:
        width = as_int(width, "width")
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        nets = [self.new_net() for _ in range(width)]
        self.netlist.inputs.append((name, nets))
        return nets

    def cell(
        self,
        kind: CellKind,
        ins: Iterable[str],
        level: int = 0,
        module_id: str | None = None,
    ) -> tuple[str, ...]:
        n_out = _arity(kind)[1]
        if isinstance(ins, str):
            # a str would be split into one-character nets
            raise ValueError(f"cell inputs must be an iterable of net names, got {ins!r}")
        outs = tuple(self.new_net() for _ in range(n_out))
        self.netlist.cells.append(Cell(kind, tuple(ins), outs, level, module_id))
        return outs

    def and2(self, a: str, b: str, level: int = 0, module_id: str | None = None) -> str:
        return self.cell(CellKind.AND, (a, b), level, module_id)[0]

    def ha(self, a: str, b: str, level: int = 0, module_id: str | None = None):
        return self.cell(CellKind.HA, (a, b), level, module_id)

    def fa(self, a: str, b: str, c: str, level: int = 0, module_id: str | None = None):
        return self.cell(CellKind.FA, (a, b, c), level, module_id)

    def set_outputs(self, prefix: str, nets: Sequence[str]) -> None:
        for k, net in enumerate(nets):
            self.netlist.outputs.append((f"{prefix}{k}", net))

    def build(self) -> CellNetlist:
        self.netlist.validate()
        return self.netlist
