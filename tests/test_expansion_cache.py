"""expand builds each netlist's circuit once and hands out copies that
callers may extend without touching later expansions."""

import numpy as np
import pytest

from cifm import revlogic
from cifm.bitcore import Cell, CellKind, CellNetlist
from cifm.multiplier import export_netlist
from cifm.revlogic import expand, gate_library, simulate, simulate_inverse


def _bit_inputs(a, b, width):
    ins = {f"a{k}": (a >> k) & 1 for k in range(width)}
    ins |= {f"b{k}": (b >> k) & 1 for k in range(width)}
    return ins


def _product(rev, a, b, width):
    out = simulate(rev, _bit_inputs(a, b, width)).outputs
    return sum(out[f"p{k}"].astype(np.int64) << k for k in range(2 * width))


def _mul4_copy() -> CellNetlist:
    """A private mul4 netlist, so edits do not reach the shared one."""
    return CellNetlist.from_json(export_netlist("mul4").to_json())


@pytest.mark.parametrize("level", ["mul4", "mul12", "mul24"])
def test_each_call_is_a_fresh_copy_of_one_circuit(level):
    nl = export_netlist(level)
    first, second = expand(nl), expand(nl)
    assert first is not second
    assert first.lines is not second.lines
    assert first.gates is not second.gates
    assert first.output_roles is not second.output_roles
    rebuilt = expand(CellNetlist.from_json(nl.to_json()))
    assert first.to_json() == second.to_json() == rebuilt.to_json()


def test_editing_an_expansion_leaves_the_next_alone():
    nl = _mul4_copy()
    want = expand(nl).to_json()
    lib = gate_library()

    edited = expand(nl)
    line = edited.add_ancilla(1)
    edited.apply(lib["FEYNMAN"], line, dict(edited.outputs())["p0"])
    edited.set_output(line, "extra")
    assert edited.to_json() != want

    again = expand(nl)
    assert again.to_json() == want
    idx = np.arange(256, dtype=np.int64)
    a, b = idx & 0xF, idx >> 4
    assert np.array_equal(_product(again, a, b, 4), a * b)
    # the edited copy runs its own plan: p0 is flipped by the 1-ancilla
    assert np.array_equal(_product(edited, a, b, 4), (a * b) ^ 1)


def test_growing_the_netlist_rebuilds_its_expansion():
    nl = _mul4_copy()
    before = expand(nl)
    want_before = before.to_json()
    simulate(before, _bit_inputs(np.arange(16), np.arange(16), 4))
    p0, p1 = dict(nl.outputs)["p0"], dict(nl.outputs)["p1"]
    nl.cells.append(Cell(CellKind.AND, (p0, p1), ("p0_and_p1",)))
    nl.outputs.append(("both", "p0_and_p1"))

    after = expand(nl)
    assert len(after.gates) > len(before.gates)
    assert after.gates[-1].gate.name == "TOFFOLI"
    assert after.to_json() == expand(CellNetlist.from_json(nl.to_json())).to_json()
    idx = np.arange(256, dtype=np.int64)
    a, b = idx & 0xF, idx >> 4
    res = simulate(after, _bit_inputs(a, b, 4))
    p = a * b
    assert np.array_equal(res.outputs["both"], p & (p >> 1) & 1)
    assert np.array_equal(_product(after, a, b, 4), a * b)
    back = simulate_inverse(after, res.line_values)
    assert all(np.all(back[i] == line.const) for i, line in enumerate(after.lines)
               if line.name is None)
    # the expansion made before the append still holds the old circuit
    assert before.to_json() == want_before


def test_expansions_of_one_netlist_compile_one_plan(monkeypatch):
    nl = _mul4_copy()
    calls = []
    real = revlogic._compile

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(revlogic, "_compile", counted)
    a = b = np.arange(16, dtype=np.int64)
    for _ in range(3):
        assert np.array_equal(_product(expand(nl), a, b, 4), a * b)
    assert len(calls) == 1

    # a copy that grows compiles a plan of its own, and only for itself
    grown = expand(nl)
    grown.apply(gate_library()["NOT"], grown.add_ancilla(0))
    revlogic.metrics_of(grown)
    revlogic.metrics_of(expand(nl))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "cells, outputs",
    [
        ([Cell(CellKind.AND, ("a0", "undriven"), ("o",))], [("p0", "o")]),
        ([], [("p0", "undriven")]),
        ([Cell(CellKind.AND, ("a0", "a0"), ("a0",))], [("p0", "a0")]),
    ],
    ids=["cell-reads-undriven-net", "output-reads-undriven-net", "net-driven-twice"],
)
def test_invalid_netlist_is_value_error(cells, outputs):
    nl = CellNetlist(inputs=[("a", ["a0"])], cells=cells, outputs=outputs)
    for _ in range(2):                  # nothing is cached for a bad netlist
        with pytest.raises(ValueError):
            expand(nl)
