"""Fixed-width bit vectors, the width classifier and gate-level netlists.

Everything downstream, from the block multiplier to the reversible
expansion, is built on the two abstractions in this module:

* :class:`BitVec` -- an immutable unsigned integer with an explicit width.
* :class:`CellNetlist` -- an ordered list of AND / half-adder / full-adder
  cells over named nets, evaluable bit by bit.

Netlist evaluation accepts plain ints or numpy integer arrays for every
input, so a single netlist can be swept over many operand pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BitVec",
    "classify_width",
    "CellKind",
    "Cell",
    "CellNetlist",
    "NetlistBuilder",
]


@dataclass(frozen=True)
class BitVec:
    """An unsigned integer constrained to a fixed bit width."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value:#x} does not fit in {self.width} bits"
            )

    def bit(self, i: int) -> int:
        """Bit i, LSB first."""
        if not 0 <= i < self.width:
            raise ValueError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> i) & 1

    def bits(self) -> tuple[int, ...]:
        """All bits, LSB first."""
        return tuple((self.value >> i) & 1 for i in range(self.width))

    def truncate(self, width: int) -> "BitVec":
        """Keep the low ``width`` bits. Truncation is always deliberate."""
        return BitVec(self.value & ((1 << width) - 1), width)

    def split(self, group_width: int) -> tuple["BitVec", ...]:
        """Split into equal groups, least significant group first."""
        if self.width % group_width != 0:
            raise ValueError(
                f"width {self.width} is not a multiple of group width {group_width}"
            )
        mask = (1 << group_width) - 1
        return tuple(
            BitVec((self.value >> (k * group_width)) & mask, group_width)
            for k in range(self.width // group_width)
        )

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value:#0{2 + (self.width + 3) // 4}x}/{self.width}"


def classify_width(x: BitVec, classes: Sequence[int]) -> int:
    """Smallest class c in ``classes`` with x < 2**c.

    ``classes`` must be ascending. A value of zero classifies as the
    smallest class; values between class boundaries round up. Values at or
    above the largest class are out of range.
    """
    if not classes:
        raise ValueError("classes must be non-empty")
    if list(classes) != sorted(set(classes)):
        raise ValueError(f"classes must be strictly ascending, got {classes!r}")
    for c in classes:
        if x.value < (1 << c):
            return c
    raise ValueError(
        f"value {x.value:#x} exceeds the largest width class {classes[-1]}"
    )


class CellKind(Enum):
    AND = "AND"
    HA = "HA"
    FA = "FA"


_CELL_ARITY = {CellKind.AND: (2, 1), CellKind.HA: (2, 2), CellKind.FA: (3, 2)}


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
        n_in, n_out = _CELL_ARITY[self.kind]
        if len(self.inputs) != n_in or len(self.outputs) != n_out:
            raise ValueError(
                f"{self.kind.value} cell needs {n_in} inputs and {n_out} outputs, "
                f"got {len(self.inputs)}/{len(self.outputs)}"
            )


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

    def evaluate_nets(self, operands: Mapping[str, int | np.ndarray]) -> dict:
        """Evaluate every net. Operand values are ints or int arrays.

        Returns a dict mapping net name to bit value (int or array).
        """
        values: dict = {}
        for name, nets in self.inputs:
            if name not in operands:
                raise ValueError(f"missing operand {name!r}")
            v = operands[name]
            if isinstance(v, np.ndarray):
                v = v.astype(np.int64, copy=False)
            for k, net in enumerate(nets):
                values[net] = (v >> k) & 1
        for cell in self.cells:
            ins = [values[n] for n in cell.inputs]
            if cell.kind is CellKind.AND:
                values[cell.outputs[0]] = ins[0] & ins[1]
            elif cell.kind is CellKind.HA:
                a, b = ins
                values[cell.outputs[0]] = a ^ b
                values[cell.outputs[1]] = a & b
            else:
                a, b, c = ins
                values[cell.outputs[0]] = a ^ b ^ c
                values[cell.outputs[1]] = (a & b) | (a & c) | (b & c)
        return values

    def evaluate(self, operands: Mapping[str, int | np.ndarray]) -> int | np.ndarray:
        """Evaluate and assemble the output bits into one integer (or array)."""
        values = self.evaluate_nets(operands)
        total = 0
        for k, (_, net) in enumerate(self.outputs):
            total = total + (values[net] << k)
        return total

    def cell_count(self) -> int:
        return len(self.cells)

    def unit_delay(self) -> int:
        """Longest cell chain from any input to any output, one per cell."""
        ready: dict[str, int] = {}
        for _, nets in self.inputs:
            for n in nets:
                ready[n] = 0
        for cell in self.cells:
            t = 1 + max((ready[n] for n in cell.inputs), default=0)
            for n in cell.outputs:
                ready[n] = t
        return max((ready[net] for _, net in self.outputs), default=0)

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
        n_out = _CELL_ARITY[kind][1]
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
