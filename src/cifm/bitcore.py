"""Fixed-width bit vectors and gate-level netlists.

Everything downstream, from the block multiplier to the reversible
expansion, is built on the two abstractions in this module:

* :class:`BitVec` -- an immutable unsigned integer with an explicit width.
* :class:`CellNetlist` -- an ordered list of AND / half-adder / full-adder
  cells over named nets, evaluable bit by bit.

It also holds the evaluation engine that cell netlists and reversible
circuits share. A netlist is compiled once into one step per cell or gate,
in netlist order: a small kernel for the element's function and the state
rows it reads and writes. Each output bit of the function is an XOR of AND
monomials (its algebraic normal form), derived from a truth table, and one
kernel is generated per distinct form. The state is a list of Python-int
bit planes, bit v of a plane holding vector v's value (bitslicing), so
every AND and XOR in a kernel works on a whole chunk of vectors. Batches
run CHUNK_VECTORS vectors at a time; a scalar is a batch of one. Netlist
evaluation accepts plain ints or numpy integer arrays for every input, so
a single netlist can be swept over many operand pairs at once. Every module
checks integers with :func:`as_int`, named operands with :func:`named_values`
and operand arrays with :func:`uint_rows`. Cell netlists and reversible
circuits alike get their results from one collector, :func:`run_rows`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
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


@dataclass(frozen=True)
class BitVec:
    """An unsigned integer constrained to a fixed bit width."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if type(self.value) is not int or type(self.width) is not int:
            object.__setattr__(self, "value", as_int(self.value, "value"))
            object.__setattr__(self, "width", as_int(self.width, "width"))
        if self.width <= 0:
            raise ValueError(f"width must be a positive int, got {self.width!r}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value:#x} does not fit in {self.width} bits"
            )

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


@functools.lru_cache(maxsize=None)
def anf_program(table: tuple[int, ...], n_in: int, n_out: int) -> tuple:
    """A straight-line AND/XOR program for a truth table, from its ANF.

    Each output bit is written in algebraic normal form, an XOR of AND
    monomials over the inputs, by the Moebius transform of its column.
    Registers 0..n_in-1 hold the inputs. ``products`` lists register pairs
    whose AND becomes the next register, so every monomial of degree two
    or more is one AND of a shorter monomial and an input. ``outputs``
    gives per output bit ``(invert, registers)``: the XOR of the registers,
    complemented when the ANF has the constant term.
    """
    regs = {(k,): k for k in range(n_in)}
    products: list[tuple[int, int]] = []

    def reg(mono: tuple[int, ...]) -> int:
        if mono not in regs:
            products.append((reg(mono[:-1]), mono[-1]))
            regs[mono] = n_in + len(products) - 1
        return regs[mono]

    outputs = []
    for j in range(n_out):
        coef = [(v >> (n_out - 1 - j)) & 1 for v in table]
        for b in range(n_in):
            for i in range(len(coef)):
                if i >> b & 1:
                    coef[i] ^= coef[i ^ (1 << b)]
        monos = [
            tuple(k for k in range(n_in) if s >> (n_in - 1 - k) & 1)
            for s in range(1, len(coef)) if coef[s]
        ]
        outputs.append((bool(coef[0]), tuple(reg(m) for m in monos)))
    return tuple(products), tuple(outputs)


@functools.lru_cache(maxsize=None)
def kernel(n_in: int, products: tuple, outputs: tuple, targets: tuple) -> Callable:
    """One element's work as a function ``k(s, ONES, rows)``.

    The kernel reads bit planes ``s[rows[0]]``..``s[rows[n_in - 1]]`` into
    the registers of an :func:`anf_program` (``products``, ``outputs``),
    then writes output j to ``s[rows[targets[j]]]``. Every input is read
    before any output is written, so an output may go to an input's row.
    ``ONES`` has a one bit per vector.
    """
    names = [f"x{k}" for k in range(max((n_in, *(t + 1 for t in targets))))]
    body = [f"{', '.join(names)}, = rows"]
    body += [f"r{k} = s[x{k}]" for k in range(n_in)]
    body += [f"r{n_in + m} = r{a} & r{b}" for m, (a, b) in enumerate(products)]
    for t, (invert, terms) in zip(targets, outputs):
        expr = [f"r{i}" for i in terms] + ["ONES"] * invert
        body.append(f"s[x{t}] = {' ^ '.join(expr) or '0'}")
    namespace: dict = {}
    exec("def k(s, ONES, rows):\n    " + "\n    ".join(body), namespace)
    return namespace["k"]


class KernelPlan(NamedTuple):
    """A netlist compiled for :func:`run_planes`.

    The state is a list of ``rows`` bit planes, ints whose bit v is vector
    v's value. State row ``load_rows[i]`` starts as bit ``load_shift[i]``
    (bit 0 when ``load_shift`` is None) of operand row ``load_src[i]``;
    rows in ``ones`` start all ones and every other row zero. ``load_src``
    is a tuple of operand rows or a slice. Only a tuple's load of an array
    is a copy, so only a plan with a tuple may have a ``load_shift``, which
    shifts that copy in place. ``steps`` holds one ``(kernel, rows)`` pair
    per element in netlist order, run as ``kernel(state, ONES, rows)``.
    ``depth[r]`` counts the elements on the longest chain that ends at the
    last element touching row r, 0 if none does.
    """

    rows: int
    steps: tuple[tuple[Callable, tuple[int, ...]], ...]
    load_rows: tuple[int, ...]
    load_src: tuple[int, ...] | slice
    load_shift: tuple[int, ...] | None
    ones: tuple[int, ...]
    depth: tuple[int, ...]


def run_planes(plan: KernelPlan, planes: Iterable[int], n: int) -> list[int]:
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
    for k, rows in plan.steps:
        k(state, ones, rows)
    return state


def _to_planes(bits: np.ndarray) -> list[int]:
    """Bit planes of the 0/1 rows of ``bits`` [rows x n]: column v is bit v.

    Up to 63 columns are summed as int64 words; more are packed as uint8
    bytes, which ``np.packbits`` handles an order of magnitude faster than
    wider integers.
    """
    import numpy as np

    n = bits.shape[1]
    if n < 64:
        return (bits.astype(np.int64, copy=False) << np.arange(n)).sum(axis=1).tolist()
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=1, bitorder="little")
    size = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i * size : (i + 1) * size], "little")
            for i in range(len(packed))]


def _from_planes(planes: Sequence[int], n: int) -> np.ndarray:
    """The inverse of :func:`_to_planes`: uint8 [len(planes) x n]."""
    import numpy as np

    if n < 64:
        words = np.array(planes, dtype=np.int64).reshape(len(planes), 1)
        return ((words >> np.arange(n)) & 1).astype(np.uint8)
    size = -(-n // 8)
    data = b"".join(map(int.to_bytes, planes, repeat(size), repeat("little")))
    return np.unpackbits(
        np.frombuffer(data, dtype=np.uint8).reshape(len(planes), size),
        axis=1, bitorder="little", count=n,
    )


def run_kernels(plan: KernelPlan, values: np.ndarray, read: Sequence[int]):
    """Evaluate ``plan`` on the vectors of ``values``, CHUNK_VECTORS at a time.

    ``values`` is [operand rows x vectors] of integers. Yields
    ``(lo, hi, bits)``: bits is a uint8 array [len(read) x (hi - lo)] with
    the final 0/1 values of state rows ``read`` for vectors lo..hi-1.
    """
    import numpy as np

    src, shift = plan.load_src, plan.load_shift
    if not isinstance(src, slice):
        src = np.array(src, dtype=np.intp)
    if shift is not None:
        shift = np.array(shift, dtype=np.int64)[:, None]
    for lo in range(0, values.shape[1], CHUNK_VECTORS):
        hi = min(values.shape[1], lo + CHUNK_VECTORS)
        # an index-array load is a copy, the only kind shifted in place;
        # a slice load is a view of ``values``
        block = values[src, lo:hi]
        if shift is not None:
            block >>= shift
            block &= 1
        state = run_planes(plan, _to_planes(block), hi - lo)
        yield lo, hi, _from_planes([state[row] for row in read], hi - lo)


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
    check runs once over the whole stack (a uint64 element of 2**63 or more
    wraps negative, so it fails too).

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
    row i lies in 0..2**widths[i]-1."""
    import numpy as np

    if flat.size:
        limits = np.left_shift(1, np.minimum(widths, 63), dtype=np.int64) - 1
        bad = flat.max(axis=1) > limits
        if flat.min() < 0:
            bad |= flat.min(axis=1) < 0
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name(i)} has elements outside 0..2**{widths[i]}-1")
    return flat


def all_ints(values: Iterable) -> bool:
    """True when every value is a plain int: a call that runs without numpy."""
    return all(type(v) is int for v in values)


def is_scalar_call(values: Iterable) -> bool:
    """True when no operand is an array or sequence: results are Python ints."""
    import numpy as np

    return all(
        type(v) is int or (np.ndim(v) == 0 and not isinstance(v, np.ndarray))
        for v in values
    )


def run_rows(
    plan: KernelPlan, values: Sequence, widths: Sequence[int], name: Callable[[int], str]
) -> list[int] | np.ndarray:
    """Every state row's final value after ``plan`` runs on ``values``.

    ``values`` and the ValueError it may raise are as in :func:`uint_rows`.
    Returns a list of Python ints when every value is an int, else one
    uint8 array [plan.rows x *shape] for the broadcast shape of the values:
    a batch of one chunk is returned as the engine made it, longer batches
    are joined, and an empty one gives [plan.rows x 0].

    A call whose values are all plain ints runs as one vector without
    numpy: each value is range-checked with :func:`uint_value` and its bits
    load the state directly.
    """
    if all_ints(values):
        ints = [uint_value(v, w, name(i)) for i, (v, w) in enumerate(zip(values, widths))]
        src = plan.load_src
        loaded = ints[src] if isinstance(src, slice) else [ints[i] for i in src]
        if plan.load_shift is not None:
            loaded = [v >> k & 1 for v, k in zip(loaded, plan.load_shift)]
        return run_planes(plan, loaded, 1)
    import numpy as np

    rows, shape = uint_rows(values, widths, name)
    chunks = [bits for _, _, bits in run_kernels(plan, rows, range(plan.rows))]
    chunks = chunks or [np.empty((plan.rows, 0), dtype=np.uint8)]
    out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
    if is_scalar_call(values):
        return out[:, 0].tolist()
    return out.reshape((plan.rows,) + shape)


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


def _cell_kernel(kind: CellKind, fn) -> Callable:
    """The kernel of a cell computing ``fn``; its output rows follow its
    input rows."""
    n_in, n_out = _CELL_ARITY[kind]
    products, outputs = anf_program(truth_table(fn, n_in, n_out), n_in, n_out)
    return kernel(n_in, products, outputs, tuple(range(n_in, n_in + n_out)))


# What each cell computes; HA and FA outputs are (sum, carry).
_CELL_KERNELS = {
    kind: _cell_kernel(kind, fn)
    for kind, fn in (
        (CellKind.AND, lambda a, b: (a & b,)),
        (CellKind.HA, lambda a, b: (a ^ b, a & b)),
        (CellKind.FA, lambda a, b, c: (a ^ b ^ c, (a & b) | (a & c) | (b & c))),
    )
}


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
        if len(self.inputs) != n_in or len(self.outputs) != n_out:
            raise ValueError(
                f"{self.kind.value} cell needs {n_in} inputs and {n_out} outputs, "
                f"got {len(self.inputs)}/{len(self.outputs)}"
            )


class _CompiledCells(NamedTuple):
    plan: KernelPlan
    nets: tuple[str, ...]       # every net in definition order, net i in row i
    outputs: tuple[int, ...]    # state row per output bit, LSB first


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
        """Check the structural invariants; raises ValueError on the first hit."""
        defined: set[str] = set()
        for _, nets in self.inputs:
            for n in nets:
                if n in defined:
                    raise ValueError(f"net {n} driven twice (input)")
                defined.add(n)
        for idx, cell in enumerate(self.cells):
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
            steps.append((_CELL_KERNELS[cell.kind], ins + outs))
        plan = KernelPlan(
            rows=len(row),
            steps=tuple(steps),
            load_rows=tuple(range(len(src))),
            load_src=tuple(src),
            load_shift=tuple(shift),
            ones=(),
            depth=tuple(depth),
        )
        return _CompiledCells(plan, tuple(row), tuple(row[net] for _, net in self.outputs))

    def _operands(self, operands: Mapping) -> tuple[list, list[int], Callable]:
        """The operand buses' values in bus order, their widths, and their
        names by index: the arguments of :func:`uint_rows`."""
        names = [name for name, _ in self.inputs]
        values = named_values(operands, names, "operands")
        return values, [len(nets) for _, nets in self.inputs], names.__getitem__

    def evaluate_nets(self, operands: Mapping[str, int | np.ndarray]) -> dict:
        """Evaluate every net. Operand values are ints or int arrays.

        Returns a dict mapping net name to bit value: Python ints when every
        operand is an int, else int64 arrays of the broadcast operand shape.
        Raises ValueError for a missing operand, a non-integer one, or an
        element outside its bus width.
        """
        compiled = self._compiled()
        values = run_rows(compiled.plan, *self._operands(operands))
        if type(values) is not list:
            values = values.astype("int64")
        return dict(zip(compiled.nets, values))

    def evaluate(self, operands: Mapping[str, int | np.ndarray]) -> int | np.ndarray:
        """Evaluate and assemble the output bits into one integer (or int64 array)."""
        compiled = self._compiled()
        values, widths, name = self._operands(operands)
        if all_ints(values):
            state = run_rows(compiled.plan, values, widths, name)
            return sum(state[row] << k for k, row in enumerate(compiled.outputs))
        import numpy as np

        rows, shape = uint_rows(values, widths, name)
        weights = np.left_shift(1, np.arange(len(compiled.outputs), dtype=np.int64))
        total = np.zeros(rows.shape[1], dtype=np.int64)
        for lo, hi, bits in run_kernels(compiled.plan, rows, compiled.outputs):
            total[lo:hi] = weights @ bits
        return int(total[0]) if is_scalar_call(values) else total.reshape(shape)

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
        try:
            if any(d["width"] != len(d["nets"]) for d in doc["inputs"]):
                raise ValueError("an input bus's width is not its number of nets")
            nl = cls(
                inputs=[(d["name"], list(d["nets"])) for d in doc["inputs"]],
                cells=[
                    Cell(
                        kind=CellKind(d["kind"]),
                        inputs=tuple(d["ins"]),
                        outputs=tuple(d["outs"]),
                        level=d["level"],
                        module_id=d["module_id"],
                    )
                    for d in doc["cells"]
                ],
                outputs=[(d["name"], d["net"]) for d in doc["outputs"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
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
