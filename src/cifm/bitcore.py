"""Fixed-width bit vectors and gate-level netlists.

Everything downstream, from the block multiplier to the reversible
expansion, is built on the two abstractions in this module:

* :class:`BitVec` -- an immutable unsigned integer with an explicit width.
* :class:`CellNetlist` -- an ordered list of AND / half-adder / full-adder
  cells over named nets, evaluable bit by bit.

Every module checks integers with :func:`as_int`, flags with
:func:`as_flag`, scalar operands with :func:`uint_value`, named operands
with :func:`named_values` and operand arrays with :func:`uint_rows`, which
checks a stack's range in one pass, and row by row only to name the operand
that fails it. Netlist evaluation accepts integer scalars or numpy integer
arrays for every input, so one netlist can be swept over many operand pairs
at once. It runs on the compiled bit-plane engine, :mod:`cifm._plans`, which
the first plan compiled or run imports: work that runs no netlist, the
block datapath included, never loads it. :meth:`CellNetlist.evaluate_nets`
gives the engine's state as a read-only mapping through the plan's net
index, not a dict built per call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

    from ._plans import Plan

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


def _net_names(nets, what: str) -> tuple:
    """``nets`` as a tuple. ValueError, naming ``what``, unless an iterable
    other than a str, which would be split into one-character nets."""
    if not isinstance(nets, str):
        try:
            return tuple(nets)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an iterable of net names, got {nets!r}")


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


_PADDED_WIDTH = 1 << 16     # widest BitVec whose str pads its value to the width


@dataclass(frozen=True, init=False)
class BitVec:
    """An unsigned integer constrained to a fixed bit width.

    Both fields are stored as Python ints. The constructor is written out,
    not generated, so that it stores them without the frozen per-field
    setter; equality, hashing, ``repr``, ``dataclasses.replace`` and
    pickling are the generated ones. ``str`` gives ``0x<hex>/<width>``,
    zero-padded to the width up to :data:`_PADDED_WIDTH` bits; a wider one
    prints the value's own digits, where padding would build a huge str.
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
        digits = (self.width + 3) // 4 if self.width <= _PADDED_WIDTH else 0
        return f"{self.value:#0{2 + digits}x}/{self.width}"


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


_plans = None       # cifm._plans, once _engine has imported it


def _engine():
    """The plan engine, :mod:`cifm._plans`, imported by the first plan
    compiled or run, so that work that runs no netlist never loads it."""
    global _plans
    if _plans is None:
        from . import _plans
    return _plans


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
    table = truth_table(_CELL_FUNCTIONS[kind], n_in, n_out)
    return _engine().element_program(table, n_in, n_out, False)


@dataclass(frozen=True, init=False)
class Cell:
    """One gate instance.

    HA and FA outputs are ordered (sum, carry). ``level`` tags the pipeline
    stage inside a 4x4 block (1..3); composition adders outside any block
    use level 0, and it is stored as a Python int. ``module_id`` is the
    owning 4x4 block's id string, or None for shared logic.

    The constructor is written out, as :class:`BitVec`'s is, so that it
    checks the arguments, not the stored fields, and runs no
    ``__post_init__``. It stores each field with ``object.__setattr__``,
    not through ``__dict__`` as ``BitVec`` does: that would give each of a
    netlist's thousands of cells a dict of its own, 64 bytes more.
    """

    kind: CellKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    level: int = 0
    module_id: str | None = None

    def __init__(
        self,
        kind: CellKind,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        level: int = 0,
        module_id: str | None = None,
    ) -> None:
        self._fill(_arity(kind), kind, inputs, outputs, level, module_id)

    def _fill(self, arity: tuple[int, int], kind, inputs, outputs, level, module_id) -> None:
        """Check and store the fields of a ``kind`` cell, whose input and
        output counts :func:`_arity` gave as ``arity``."""
        if type(level) is not int:
            level = as_int(level, "level")
        if not (type(inputs) is tuple and type(outputs) is tuple
                and all(isinstance(net, str) for net in inputs + outputs)):
            raise ValueError(f"cell nets must be tuples of str, got "
                             f"{inputs!r} -> {outputs!r}")
        n_in, n_out = arity
        if len(inputs) != n_in or len(outputs) != n_out:
            raise ValueError(
                f"{kind.value} cell needs {n_in} inputs and {n_out} outputs, "
                f"got {len(inputs)}/{len(outputs)}"
            )
        if module_id is not None and not isinstance(module_id, str):
            raise ValueError(f"cell module_id must be None or a str, got {module_id!r}")
        store = object.__setattr__
        store(self, "kind", kind)
        store(self, "inputs", inputs)
        store(self, "outputs", outputs)
        store(self, "level", level)
        store(self, "module_id", module_id)


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
            for n in _net_names(nets, f"bus {bus} nets"):
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
        plan = _engine().Plan(
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
        values = _engine().run_rows(compiled.plan, *self._operands(operands))
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
        engine = _engine()
        values, widths, name = self._operands(operands)
        if _scalar_call(values):
            state = engine.run_rows(compiled.plan, values, widths, name)
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
        for lo, hi, planes in engine.run_kernels(compiled.plan, rows, compiled.outputs):
            bits = engine._decoded(((lo, hi, planes),), n_out, hi - lo)
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
        """Deterministic JSON-ready form; ValueError as :meth:`validate` raises."""
        self.validate()
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
        arity = _arity(kind)
        ins = _net_names(ins, "ins")
        outs = tuple(self.new_net() for _ in range(arity[1]))
        cell = object.__new__(Cell)
        cell._fill(arity, kind, ins, outs, level, module_id)
        self.netlist.cells.append(cell)
        return outs

    def and2(self, a: str, b: str, level: int = 0, module_id: str | None = None) -> str:
        return self.cell(CellKind.AND, (a, b), level, module_id)[0]

    def ha(self, a: str, b: str, level: int = 0, module_id: str | None = None):
        return self.cell(CellKind.HA, (a, b), level, module_id)

    def fa(self, a: str, b: str, c: str, level: int = 0, module_id: str | None = None):
        return self.cell(CellKind.FA, (a, b, c), level, module_id)

    def set_outputs(self, prefix: str, nets: Sequence[str]) -> None:
        for k, net in enumerate(_net_names(nets, "nets")):
            self.netlist.outputs.append((f"{prefix}{k}", net))

    def build(self) -> CellNetlist:
        self.netlist.validate()
        return self.netlist
