"""Reversible-logic gates, netlists, metrics, and classical-netlist expansion.

A reversible gate is a bijection on the 2**k value patterns of the k lines
it touches; bijectivity is checked exhaustively at construction. Circuits
are straight-line sequences of gate applications over a fixed set of lines,
so inverse simulation is just the inverse permutations in reverse order.
An application touches ``arity`` distinct lines: :meth:`RevNetlist.apply`
and every compile check each one by that one rule.

The gate library is the classics plus the two compound gates this design
is built from:

* TSG, 4 lines: P = A, Q = (A'C') xor B', R = Q xor D,
  S = (Q and D) xor (AB xor C). With C tied to 0 it is a full adder:
  R = sum, S = carry, two garbage lines.
* New Gate (NG), 3 lines: P = A, Q = AB xor C, R = (A'C') xor B'. With C
  tied to 0 it is a half adder: Q = carry, R = sum, one garbage line.

:func:`expand` rewrites any AND/HA/FA cell netlist into reversible form:
Toffoli per AND, NG per HA, TSG per FA, and a Feynman copy per extra
consumer of a net. Simulation accepts ints or numpy arrays per input line,
so exhaustive and bulk random equivalence sweeps stay fast: the circuit
runs on the bit-plane engine in :mod:`cifm._plans`. Each gate application
is one step, a factored AND/XOR program of its mapping on its lines (or of
the inverse mapping, with the gates in reverse order), and each direction's
steps become generated Python on that direction's first run. The forward
plan knows which lines still hold a constant: ancillas not yet written, or
written only with a constant. It restricts each gate's mapping to the other
lines, so ``expand``'s gates onto fresh 0-ancillas become their adders
(TSG: ``t = a^b``, sum ``t ^ cin``, carry ``(cin & t) ^ (a & b)``; a Feynman
copy: one assignment) and writes only the lines a gate changes. The
inverse plan knows nothing of its input, any final state, and folds
nothing. Its collector,
:func:`cifm._plans.run_rows`, checks the line values and returns them all.
Batch results are read-only uint8 arrays that keep the bit planes they were
decoded from, so :func:`simulate_inverse` of a :func:`simulate` batch's own
``line_values`` loads those planes and neither checks nor packs the lines.
A circuit keeps its primary outputs until it gains a line or
:meth:`RevNetlist.set_output` relabels one, so :func:`simulate` and
:func:`metrics_of` do not rescan ``output_roles``; :func:`metrics_of` counts
the ancillas as the lines its forward plan does not load.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import or_
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from ._plans import Plan, element_program, run_rows
from .bitcore import CellKind, CellNetlist, as_int, cached, named_values, truth_table, uint_value

__all__ = [
    "RevGate",
    "LineTag",
    "OutputRole",
    "RevLine",
    "GateApp",
    "RevNetlist",
    "SimResult",
    "simulate",
    "simulate_inverse",
    "FullAdderVariant",
    "build_full_adder",
    "expand",
    "gate_library",
    "Metrics",
    "metrics_of",
]


@dataclass(frozen=True)
class RevGate:
    """A named bijection over the 2**arity patterns of its lines.

    ``mapping[i]`` is the output pattern for input pattern i, with the
    first line as the most significant bit.
    """

    name: str
    arity: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"gate name must be a str, got {self.name!r}")
        arity = as_int(self.arity, "arity")
        try:
            mapping = tuple(as_int(o, f"gate {self.name} mapping entry") for o in self.mapping)
        except TypeError:
            raise ValueError(f"gate {self.name} mapping must be a sequence of ints, "
                             f"got {type(self.mapping).__name__}") from None
        # Stored as Python ints, so a list or numpy entries give the same gate.
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "mapping", mapping)
        size = len(mapping)
        # the bit length first, so that a huge arity builds no huge int
        if not (0 <= arity == size.bit_length() - 1 and size == 1 << arity
                and sorted(mapping) == list(range(size))):
            raise ValueError(f"gate {self.name} mapping is not a bijection")

    def inverse_mapping(self) -> tuple[int, ...]:
        inv = [0] * len(self.mapping)
        for i, o in enumerate(self.mapping):
            inv[o] = i
        return tuple(inv)


def _tsg(a, b, c, d):
    q = ((1 - a) & (1 - c)) ^ (1 - b)
    return (a, q, q ^ d, (q & d) ^ ((a & b) ^ c))


# name -> (arity, bit function); each gate's mapping is its truth table
_GATE_FUNCTIONS = {
    "NOT": (1, lambda a: (1 - a,)),
    "FEYNMAN": (2, lambda a, b: (a, a ^ b)),
    "TOFFOLI": (3, lambda a, b, c: (a, b, (a & b) ^ c)),
    "FREDKIN": (3, lambda a, b, c: (a, c if a else b, b if a else c)),
    "NG": (3, lambda a, b, c: (a, (a & b) ^ c, ((1 - a) & (1 - c)) ^ (1 - b))),
    "TSG": (4, _tsg),
}

_GATES = {
    name: RevGate(name, arity, truth_table(fn, arity, arity))
    for name, (arity, fn) in _GATE_FUNCTIONS.items()
}


def gate_library() -> dict[str, RevGate]:
    """The six library gates by name: a fresh dict the caller may change."""
    return dict(_GATES)


class LineTag(Enum):
    PRIMARY_INPUT = "input"
    ANCILLA = "ancilla"


class OutputRole(Enum):
    PRIMARY_OUTPUT = "output"
    GARBAGE = "garbage"


@dataclass(frozen=True)
class RevLine:
    tag: LineTag
    name: str | None = None          # for primary inputs
    const: int | None = None         # for ancillas, 0 or 1, stored as an int

    def __post_init__(self) -> None:
        if not isinstance(self.tag, LineTag):
            raise ValueError(f"line tag must be a LineTag, got {self.tag!r}")
        if self.tag is LineTag.PRIMARY_INPUT and not isinstance(self.name, str):
            raise ValueError(f"primary input line needs a str name, got {self.name!r}")
        if self.tag is LineTag.ANCILLA:
            const = uint_value(self.const, 1, "ancilla constant")
            object.__setattr__(self, "const", const)


# The record of every ancilla line, by constant: what add_ancilla appends.
_ANCILLAS = (RevLine(LineTag.ANCILLA, const=0), RevLine(LineTag.ANCILLA, const=1))


@dataclass(frozen=True, init=False)
class GateApp:
    """One gate application: ``gate`` on ``lines``, first line first.

    The constructor is written out, as :class:`~cifm.bitcore.BitVec`'s is,
    and stores each field with ``object.__setattr__``, as
    :class:`~cifm.bitcore.Cell`'s does. It checks nothing:
    :meth:`RevNetlist.apply` checks what it appends, and every compile and
    ``to_json`` checks each entry of ``gates``.
    """

    gate: RevGate
    lines: tuple[int, ...]

    def __init__(self, gate: RevGate, lines: tuple[int, ...]) -> None:
        store = object.__setattr__
        store(self, "gate", gate)
        store(self, "lines", lines)


@dataclass
class RevNetlist:
    """Straight-line reversible circuit over a fixed line set."""

    lines: list[RevLine] = field(default_factory=list)
    gates: list[GateApp] = field(default_factory=list)
    # role per line, parallel to ``lines``; None until assigned
    output_roles: list[tuple[OutputRole, str | None]] = field(default_factory=list)

    def add_input(self, name: str) -> int:
        self.lines.append(RevLine(LineTag.PRIMARY_INPUT, name=name))
        self.output_roles.append((OutputRole.GARBAGE, None))
        return len(self.lines) - 1

    def add_ancilla(self, const: int) -> int:
        """Append a line that starts at ``const``, 0 or 1, as ``RevLine``
        checks it. Every ancilla line of one constant is the same frozen
        record, so none is built per line."""
        self.lines.append(_ANCILLAS[uint_value(const, 1, "ancilla constant")])
        self.output_roles.append((OutputRole.GARBAGE, None))
        return len(self.lines) - 1

    def _line(self, line: int) -> int:
        """``line`` as an index into ``lines``; ValueError unless an int in range."""
        if type(line) is not int:
            line = as_int(line, "line index")
        if not 0 <= line < len(self.lines):
            raise ValueError(f"line index {line} out of range")
        return line

    def apply(self, gate: RevGate, *line_ids: int) -> None:
        """Append ``gate`` on ``line_ids``. ValueError unless it is a RevGate
        on ``arity`` distinct lines in range: the rule that every compile
        checks again, for each application in ``gates``."""
        self.gates.append(GateApp(gate, self._gate_lines(gate, line_ids)))

    def _gate_lines(self, gate: RevGate, line_ids) -> tuple[int, ...]:
        """``line_ids`` as a tuple of ints, checked by :meth:`apply`'s rule."""
        if not isinstance(gate, RevGate):
            raise ValueError(f"gate must be a RevGate, got {type(gate).__name__}")
        try:
            lines = tuple(map(self._line, line_ids))
        except TypeError:               # line_ids is not iterable
            raise ValueError(
                f"{gate.name} lines must be line indices, got {line_ids!r}"
            ) from None
        if len(lines) != gate.arity or len(set(lines)) != gate.arity:
            raise ValueError(
                f"{gate.name} touches {gate.arity} distinct lines, got {lines}"
            )
        return lines

    def _applications(self):
        """``(gate, lines)`` per entry of ``gates``, in order, each checked by
        :meth:`apply`'s rule; ValueError for an entry that is not a GateApp."""
        for k, app in enumerate(self.gates):
            if not isinstance(app, GateApp):
                raise ValueError(f"gates[{k}] must be a GateApp, got {app!r}")
            lines = self._gate_lines(app.gate, app.lines)
            yield app.gate, app.lines if lines == app.lines else lines  # apply's tuple, not a copy

    def set_output(self, line: int, name: str) -> None:
        if not isinstance(name, str):
            raise ValueError(f"output name must be a str, got {name!r}")
        self.output_roles[self._line(line)] = (OutputRole.PRIMARY_OUTPUT, name)
        self._relabels = self.__dict__.get("_relabels", 0) + 1

    def outputs(self) -> list[tuple[str, int]]:
        """``(name, line)`` of every primary output, in line order."""
        return list(self._output_rows())

    def _output_rows(self) -> tuple[tuple[str, int], ...]:
        """:meth:`outputs` as a tuple, kept on this circuit (never on the
        plan it may share with other copies) until it gains a line or a
        :meth:`set_output` call relabels one."""
        key = (len(self.output_roles), self.__dict__.get("_relabels", 0))
        return cached(self, "_outputs", key, self._scan_outputs)

    def _scan_outputs(self) -> tuple[tuple[str, int], ...]:
        primary = OutputRole.PRIMARY_OUTPUT
        return tuple(
            (name, i)
            for i, (role, name) in enumerate(self.output_roles)
            if role is primary
        )

    def to_json(self) -> dict:
        """JSON-ready form; ValueError as :meth:`_applications` raises."""
        lines = []
        for l in self.lines:
            if l.tag is LineTag.PRIMARY_INPUT:
                lines.append({"tag": l.tag.value, "name": l.name})
            else:
                lines.append({"tag": l.tag.value, "const": l.const})
        return {
            "lines": lines,
            "gates": [
                {"name": gate.name, "lines": list(lines), "ordinal": i}
                for i, (gate, lines) in enumerate(self._applications())
            ],
            "output_roles": [
                {"line": i, "role": role.value, "name": name}
                for i, (role, name) in enumerate(self.output_roles)
            ],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "RevNetlist":
        """The circuit :meth:`to_json` wrote; ValueError for a malformed document."""
        lib = _GATES
        n = cls()
        try:
            for d in doc["lines"]:
                if LineTag(d["tag"]) is LineTag.PRIMARY_INPUT:
                    n.add_input(d["name"])
                else:
                    n.add_ancilla(d["const"])
            for d in sorted(doc["gates"], key=lambda g: g["ordinal"]):
                if d["name"] not in lib:
                    raise ValueError(f"unknown gate {d['name']!r}; choose from {sorted(lib)}")
                n.apply(lib[d["name"]], *d["lines"])
            for d in doc["output_roles"]:
                if OutputRole(d["role"]) is OutputRole.PRIMARY_OUTPUT:
                    n.set_output(d["line"], d.get("name"))
                else:
                    n.output_roles[n._line(d["line"])] = (OutputRole.GARBAGE, d.get("name"))
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed circuit document: {exc!r}") from None
        return n


@dataclass(frozen=True)
class SimResult:
    """What :func:`simulate` gives: every line's final value, and the
    primary outputs' values by name.

    ``line_values`` is a tuple of ints for a scalar call, else one
    read-only uint8 array [lines x *shape], and each output is then a
    read-only row of it; ``.copy()`` gives an array to change. Handed whole
    to :func:`simulate_inverse`, the array loads the bit planes it was
    decoded from.
    """

    line_values: tuple[int, ...] | np.ndarray
    outputs: dict


@functools.lru_cache(maxsize=None)
def _forward_program(gate: RevGate, held: tuple[int | None, ...]) -> tuple:
    """The gate's forward program where its k-th line is known to hold the
    constant ``held[k]`` (0 or 1), or anything where that is None.

    The mapping is restricted to the lines not held: every input pattern
    reads as if the held lines held their constants, so the program reads
    no held line. A held line that the gate leaves at its constant reads
    as passed through, so it is not written, and neither is a line the
    gate passes through.
    """
    top = gate.arity - 1
    mask = sum(1 << top - k for k, c in enumerate(held) if c is not None)
    fixed = sum(c << top - k for k, c in enumerate(held) if c)
    table = [gate.mapping[i & ~mask | fixed] for i in range(len(gate.mapping))]
    # the held lines whose output is their constant for every input
    kept = mask & ~functools.reduce(or_, (out ^ fixed for out in table))
    table = tuple(out & ~kept | i & kept for i, out in enumerate(table))
    return element_program(table, gate.arity, gate.arity, True)


@functools.lru_cache(maxsize=None)
def _inverse_program(gate: RevGate) -> tuple:
    """The gate's inverse program: its line values may be any final state,
    so none is known."""
    return element_program(gate.inverse_mapping(), gate.arity, gate.arity, True)


class _CompiledRev(NamedTuple):
    forward: Plan
    inverse: Plan
    names: tuple[str, ...]      # distinct input line names, first use first


def _compiled(n: RevNetlist) -> _CompiledRev:
    """The plan of the template ``n`` was copied from while ``n`` has as
    many lines and gates as it, else ``n``'s own. ValueError unless ``n``
    is a RevNetlist."""
    if not isinstance(n, RevNetlist):
        raise ValueError(f"circuit must be a RevNetlist, got {type(n).__name__}")
    key = (len(n.lines), len(n.gates))
    owner = getattr(n, "_source", n)
    if (len(owner.lines), len(owner.gates)) != key:
        owner = n
    return cached(owner, "_plan", key, lambda: _compile(owner))


def _compile(n: RevNetlist) -> _CompiledRev:
    """One step per gate application, both directions; line i is state row i.

    The forward plan tracks the lines that hold a known constant: every
    ancilla to begin with, and a line while the writes to it are constant.
    Each gate gets the :func:`_forward_program` of what it knows of its
    lines. The inverse runs the gates backwards with each gate's inverse
    mapping, unfolded. Each application, one appended past ``apply``
    included, is checked by :meth:`RevNetlist._applications`, so a step's
    rows are distinct.
    """
    depth = [0] * len(n.lines)
    # line -> the constant it holds, while the forward run is known to hold one
    known = {i: l.const for i, l in enumerate(n.lines) if l.tag is LineTag.ANCILLA}
    forward, inverse = [], []
    for gate, lines in n._applications():
        level = 1 + max(map(depth.__getitem__, lines))
        for l in lines:
            depth[l] = level
        program = _forward_program(gate, tuple(map(known.get, lines)))
        for k, invert, regs in program[2]:
            if regs:
                known.pop(lines[k], None)
            else:
                known[lines[k]] = int(invert)
        forward.append((program, lines))
        inverse.append((_inverse_program(gate), lines))
    inverse.reverse()

    inputs = [(i, l.name) for i, l in enumerate(n.lines) if l.tag is LineTag.PRIMARY_INPUT]
    names = tuple(dict.fromkeys(name for _, name in inputs))
    index = {name: k for k, name in enumerate(names)}
    fwd = Plan(
        rows=len(n.lines),
        steps=tuple(forward),
        load_rows=tuple(i for i, _ in inputs),
        load_src=tuple(index[name] for _, name in inputs),
        load_shift=None,
        ones=tuple(i for i, l in enumerate(n.lines)
                   if l.tag is LineTag.ANCILLA and l.const == 1),
        depth=tuple(depth),
    )
    # every row in order: the load is a view of the final values, not a copy
    inv = Plan(rows=fwd.rows, steps=tuple(inverse), load_rows=tuple(range(fwd.rows)),
               load_src=slice(None), load_shift=None, ones=(), depth=fwd.depth)
    return _CompiledRev(fwd, inv, names)


def simulate(n: RevNetlist, inputs: Mapping) -> SimResult:
    """Run the circuit forward. Input values may be ints or int arrays of 0/1.

    Line values are a tuple of Python ints when every input is an integer
    scalar, else one read-only uint8 array [lines x *shape] for the
    broadcast input shape, row i holding line i: index, iterate or zip it
    as the rows it holds, or hand it to :func:`simulate_inverse` whole,
    which then runs on the bit planes it keeps (``.copy()`` keeps only the
    values). Raises ValueError for a circuit that is not a RevNetlist, a
    gate application that ``apply`` refuses, a missing input or a value
    other than 0 or 1.
    """
    compiled = _compiled(n)
    names = compiled.names
    values = run_rows(compiled.forward, named_values(inputs, names, "inputs"),
                      [1] * len(names), names.__getitem__)
    outputs = {name: values[i] for name, i in n._output_rows()}
    return SimResult(tuple(values) if type(values) is list else values, outputs)


def simulate_inverse(
    n: RevNetlist, final_values: Sequence | np.ndarray
) -> list[int] | np.ndarray:
    """Run the circuit backward from a complete final line assignment.

    ``final_values`` holds one value per line: ints or 0/1 int arrays, or
    one integer array whose first axis is the lines, such as the
    ``line_values`` of a :func:`simulate` batch. Returns a list of ints
    when every value is an integer scalar, else, one array of any shape
    included, one read-only uint8 array [lines x *shape]. A circuit that is
    not a RevNetlist, a gate application that ``apply`` refuses, a wrong
    number of lines or a value other than 0 or 1 raises ValueError.

    The array result of :func:`simulate` or :func:`simulate_inverse`, that
    very object, loads the bit planes it was decoded from: it is neither
    checked nor packed again. Any other array, a view, reshape or copy of
    one included, is checked and packed. The planes are taken as the final
    state of this circuit's lines, whatever circuit made them.
    """
    compiled = _compiled(n)
    try:
        count = len(final_values)
    except TypeError:                   # an int, None, a 0-d array, a generator
        count = type(final_values).__name__
    if count != len(n.lines):
        raise ValueError(f"final_values must hold {len(n.lines)} line values, got {count}")
    return run_rows(compiled.inverse, final_values, [1] * count, "line {}".format)


# ---------------------------------------------------------------------------
# The four full-adder constructions
# ---------------------------------------------------------------------------

class FullAdderVariant(Enum):
    TSG = "fa-tsg"
    NG_NG_FEYNMAN = "fa-ng2"
    NG_TOFFOLI_FEYNMAN = "fa-ng-toffoli"
    FREDKIN5 = "fa-fredkin5"


def build_full_adder(variant: FullAdderVariant) -> RevNetlist:
    """One-bit full adder (inputs a, b, cin; outputs sum, carry)."""
    lib = _GATES
    n = RevNetlist()
    a = n.add_input("a")
    b = n.add_input("b")
    if variant is FullAdderVariant.TSG:
        z = n.add_ancilla(0)
        cin = n.add_input("cin")
        n.apply(lib["TSG"], a, b, z, cin)
        n.set_output(z, "sum")
        n.set_output(cin, "carry")
    elif variant is FullAdderVariant.NG_NG_FEYNMAN:
        # NG half-adds a,b; a second NG half-adds (a xor b) with cin; a
        # Feynman folds the two part-carries together.
        z0 = n.add_ancilla(0)
        cin = n.add_input("cin")
        z1 = n.add_ancilla(0)
        n.apply(lib["NG"], a, b, z0)        # b <- ab, z0 <- a^b
        n.apply(lib["NG"], z0, cin, z1)     # cin <- (a^b)cin, z1 <- sum
        n.apply(lib["FEYNMAN"], cin, b)     # b <- ab ^ (a^b)cin = carry
        n.set_output(z1, "sum")
        n.set_output(b, "carry")
    elif variant is FullAdderVariant.NG_TOFFOLI_FEYNMAN:
        # NG half-adds a,b; a Toffoli accumulates the carry; a Feynman
        # finishes the sum.
        z = n.add_ancilla(0)
        cin = n.add_input("cin")
        n.apply(lib["NG"], a, b, z)         # b <- ab, z <- a^b
        n.apply(lib["TOFFOLI"], z, cin, b)  # b <- ab ^ (a^b)cin = carry
        n.apply(lib["FEYNMAN"], z, cin)     # cin <- sum
        n.set_output(cin, "sum")
        n.set_output(b, "carry")
    elif variant is FullAdderVariant.FREDKIN5:
        # Serial five-gate conservative-logic chain: build (a^b, (a^b)'),
        # fork a working copy of that pair, fold in cin for the sum, then
        # select the carry with the pair as control.
        cin = n.add_input("cin")
        z0 = n.add_ancilla(0)
        z1 = n.add_ancilla(1)
        z2 = n.add_ancilla(0)
        z3 = n.add_ancilla(1)
        f = lib["FREDKIN"]
        n.apply(f, a, z0, z1)       # z0 <- a, z1 <- a'
        n.apply(f, b, z0, z1)       # z0 <- a^b, z1 <- (a^b)'
        n.apply(f, z0, z2, z3)      # z2 <- a^b, z3 <- (a^b)'
        n.apply(f, cin, z2, z3)     # z2 <- sum, z3 <- sum'
        n.apply(f, z0, a, cin)      # a <- (a^b) ? cin : a = carry
        n.set_output(z2, "sum")
        n.set_output(a, "carry")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return n


# ---------------------------------------------------------------------------
# Classical-to-reversible expansion
# ---------------------------------------------------------------------------

def expand(netlist: CellNetlist) -> RevNetlist:
    """Rewrite an AND/HA/FA cell netlist as a reversible circuit.

    Mapping: AND -> Toffoli onto a fresh 0-ancilla; HA -> New Gate with a
    0-ancilla third line (carry appears on the second input's line, sum on
    the ancilla); FA -> TSG with a 0-ancilla third line (sum on the
    ancilla, carry on the carry-in's line). A net consumed by n places gets
    n-1 Feynman copies onto fresh 0-ancillas, made while the producing line
    still holds the value; each primary output counts as one more consumer,
    so it gets a line of its own that is never handed to a gate. Anything
    but a CellNetlist, and a netlist that fails ``validate``, raises
    ValueError.

    The circuit is built once per netlist and kept on it, keyed on the
    netlist's input, cell and output counts as its plan is, so appending a
    bus, cell or output builds it again. Each call returns a copy with its
    own ``lines``, ``gates`` and ``output_roles`` lists: appending to one
    copy leaves later expansions alone. Each copy points at the circuit it
    was copied from, and simulates with that circuit's plan until it grows,
    so the first simulation of any copy compiles the plan, and generates
    its code, for all. A copy's primary outputs are its own: they start as
    the template's, and ``set_output`` on the copy changes only the copy's.

    The template's ancilla lines are the two frozen records that
    :meth:`RevNetlist.add_ancilla` shares, one per constant. Its gates are
    ``GateApp``s, whose constructor is written out as ``BitVec``'s is,
    appended to ``gates`` on lines the build made, not through ``apply``:
    like any appended application, each is checked by the compile and by
    ``to_json``, and not also when it is appended.
    """
    if not isinstance(netlist, CellNetlist):
        raise ValueError(f"netlist must be a CellNetlist, got {type(netlist).__name__}")
    key = (len(netlist.inputs), len(netlist.cells), len(netlist.outputs))
    template = cached(netlist, "_expansion", key, lambda: _build_expansion(netlist))
    rev = RevNetlist(
        list(template.lines), list(template.gates), list(template.output_roles)
    )
    rev._source = template
    # the copy starts with its template's outputs, and keeps its own from
    # its first set_output or new line on
    cached(rev, "_outputs", (len(rev.output_roles), 0), template._output_rows)
    return rev


def _build_expansion(netlist: CellNetlist) -> RevNetlist:
    netlist.validate()
    lib = _GATES
    rev = RevNetlist()
    gates = rev.gates

    # every use of a net, as a cell input or as an output, is one consumer
    consumers = Counter(net for cell in netlist.cells for net in cell.inputs)
    consumers.update(net for _, net in netlist.outputs)

    # per net: list of line ids, one per consumer (outputs last)
    slots: dict[str, list[int]] = {}
    taken: dict[str, int] = {}

    def provision(net: str, home: int) -> None:
        lines = [home]
        for _ in range(max(consumers[net], 1) - 1):
            copy = rev.add_ancilla(0)
            gates.append(GateApp(lib["FEYNMAN"], (home, copy)))
            lines.append(copy)
        slots[net] = lines
        taken[net] = 0

    def claim(net: str) -> int:
        line = slots[net][taken[net]]
        taken[net] += 1
        return line

    for name, nets in netlist.inputs:
        for k, net in enumerate(nets):
            provision(net, rev.add_input(f"{name}{k}"))

    for cell in netlist.cells:
        in_lines = [claim(net) for net in cell.inputs]
        if cell.kind is CellKind.AND:
            target = rev.add_ancilla(0)
            gates.append(GateApp(lib["TOFFOLI"], (in_lines[0], in_lines[1], target)))
            provision(cell.outputs[0], target)
        elif cell.kind is CellKind.HA:
            z = rev.add_ancilla(0)
            gates.append(GateApp(lib["NG"], (in_lines[0], in_lines[1], z)))
            provision(cell.outputs[0], z)             # sum
            provision(cell.outputs[1], in_lines[1])   # carry
        else:
            z = rev.add_ancilla(0)
            gates.append(GateApp(lib["TSG"], (in_lines[0], in_lines[1], z, in_lines[2])))
            provision(cell.outputs[0], z)             # sum
            provision(cell.outputs[1], in_lines[2])   # carry

    for name, net in netlist.outputs:
        rev.set_output(claim(net), name)
    return rev


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    gate_count: int
    garbage_count: int
    ancilla_count: int
    unit_delay: int

    def to_json(self) -> dict:
        return {
            "gates": self.gate_count,
            "garbage_outputs": self.garbage_count,
            "ancilla": self.ancilla_count,
            "unit_delay": self.unit_delay,
        }


def metrics_of(n: RevNetlist) -> Metrics:
    """Gate, garbage, ancilla and critical-path counts for a circuit.

    Unit delay charges one per gate along the longest chain of touched
    lines ending at a primary output; a gate depends on every line it
    touches, control or data. ValueError unless ``n`` is a RevNetlist
    whose gate applications ``apply`` would take.
    """
    forward = _compiled(n).forward
    outputs = n._output_rows()
    delay = max((forward.depth[i] for _, i in outputs), default=0)
    # every line is a primary output or garbage, and a primary input, which
    # the forward plan loads, or an ancilla: so neither list is scanned
    garbage = len(n.output_roles) - len(outputs)
    ancilla = len(n.lines) - len(forward.load_rows)
    return Metrics(len(n.gates), garbage, ancilla, delay)
