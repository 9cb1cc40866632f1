"""The bit-sliced engine against a cell-by-cell, gate-by-gate reference.

The reference below runs on Python ints and knows nothing of the engine:
cells use their textbook formulas and gates look their output up in
``mapping``.
"""

import json
import random

import numpy as np
import pytest

from cifm.bitcore import (
    CHUNK_VECTORS,
    Cell,
    CellKind,
    NetlistBuilder,
    _from_planes,
    _to_planes,
)
from cifm.multiplier import export_netlist
from cifm.revlogic import (
    RevNetlist,
    gate_library,
    metrics_of,
    simulate,
    simulate_inverse,
)


CELL_FUNCTIONS = {
    CellKind.AND: lambda a, b: (a & b,),
    CellKind.HA: lambda a, b: (a ^ b, a & b),
    CellKind.FA: lambda a, b, c: (a ^ b ^ c, (a & b) | (a & c) | (b & c)),
}


def ref_cells(nl, operands):
    """Every net's bit and the unit delay, one cell at a time."""
    nets, ready = {}, {}
    for name, bus in nl.inputs:
        for k, net in enumerate(bus):
            nets[net], ready[net] = (operands[name] >> k) & 1, 0
    for c in nl.cells:
        t = 1 + max(ready[n] for n in c.inputs)
        for n, bit in zip(c.outputs, CELL_FUNCTIONS[c.kind](*(nets[i] for i in c.inputs))):
            nets[n], ready[n] = bit, t
    return nets, max((ready[n] for _, n in nl.outputs), default=0)


def ref_gates(n, values, inverse=False):
    """Final line values and per-line depth, one gate at a time."""
    values, ready = list(values), [0] * len(values)
    for app in (reversed(n.gates) if inverse else n.gates):
        table = app.gate.mapping
        if inverse:
            table = {o: i for i, o in enumerate(table)}
        width = len(app.lines)
        idx = sum(values[l] << (width - 1 - k) for k, l in enumerate(app.lines))
        t = 1 + max(ready[l] for l in app.lines)
        for k, l in enumerate(app.lines):
            values[l], ready[l] = (table[idx] >> (width - 1 - k)) & 1, t
    return values, ready


def random_cells(rng: random.Random, n_cells: int = 40):
    b = NetlistBuilder()
    nets = b.input_bus("a", rng.randint(1, 5)) + b.input_bus("b", rng.randint(1, 5))
    for _ in range(n_cells):
        kind = rng.choice(list(CellKind))
        ins = rng.sample(nets, 3 if kind is CellKind.FA else 2)
        nets += b.cell(kind, ins, level=0)
    b.set_outputs("p", rng.sample(nets, 8))
    return b


def random_circuit(rng: random.Random, n_gates: int = 30) -> RevNetlist:
    n = RevNetlist()
    for k in range(3):
        n.add_input(f"x{k}")
    for _ in range(3):
        n.add_ancilla(rng.randint(0, 1))
    gates = list(gate_library().values())
    for _ in range(n_gates):
        g = rng.choice(gates)
        n.apply(g, *rng.sample(range(len(n.lines)), g.arity))
    for line in rng.sample(range(len(n.lines)), 3):
        n.set_output(line, f"y{line}")
    return n


@pytest.mark.parametrize("seed", range(6))
def test_random_cell_netlists(seed):
    rng = random.Random(seed)
    nl = random_cells(rng).build()
    ops = {name: np.array([rng.randrange(1 << len(bus)) for _ in range(200)])
           for name, bus in nl.inputs}
    nets = nl.evaluate_nets(ops)
    total = nl.evaluate(ops)
    for v in range(200):
        one = {name: int(x[v]) for name, x in ops.items()}
        want, delay = ref_cells(nl, one)
        assert {net: int(bits[v]) for net, bits in nets.items()} == want
        assert int(total[v]) == sum(want[net] << k for k, (_, net) in enumerate(nl.outputs))
        if v < 20:      # a call on plain ints runs as one vector, without numpy
            assert nl.evaluate_nets(one) == want
            assert nl.evaluate(one) == int(total[v])
    assert nl.unit_delay() == delay


@pytest.mark.parametrize("level", ["mul4", "mul12", "mul24"])
def test_unit_delay_matches_reference(level):
    nl = export_netlist(level)
    assert nl.unit_delay() == ref_cells(nl, {"a": 0, "b": 0})[1]


@pytest.mark.parametrize("name", sorted(gate_library()))
def test_every_library_gate_both_ways(name):
    gate = gate_library()[name]
    n = RevNetlist()
    for k in range(gate.arity):
        n.add_input(f"x{k}")
    n.apply(gate, *range(gate.arity))
    pats = np.arange(1 << gate.arity)
    ins = {f"x{k}": (pats >> (gate.arity - 1 - k)) & 1 for k in range(gate.arity)}
    fwd = simulate(n, ins).line_values
    got = sum(fwd[k].astype(np.int64) << (gate.arity - 1 - k) for k in range(gate.arity))
    assert got.tolist() == list(gate.mapping)
    back = simulate_inverse(n, fwd)
    assert all(np.array_equal(back[k], ins[f"x{k}"]) for k in range(gate.arity))
    inverse = sorted(pats.tolist(), key=gate.mapping.__getitem__)
    assert gate.inverse_mapping() == tuple(inverse)


@pytest.mark.parametrize("seed", range(6))
def test_random_circuits_both_ways(seed):
    rng = random.Random(seed)
    n = random_circuit(rng)
    pats = np.arange(8)
    ins = {f"x{k}": (pats >> k) & 1 for k in range(3)}
    res = simulate(n, ins)
    back = simulate_inverse(n, res.line_values)
    for v in range(8):
        start = [ins[l.name][v] if l.name else l.const for l in n.lines]
        want, ready = ref_gates(n, start)
        assert [int(x[v]) for x in res.line_values] == want
        one = simulate(n, {name: int(x[v]) for name, x in ins.items()})
        assert list(one.line_values) == want
        assert simulate_inverse(n, list(one.line_values)) == [int(x) for x in start]
        assert {k: int(x[v]) for k, x in res.outputs.items()} == {
            name: want[i] for name, i in n.outputs()}
        assert [int(x[v]) for x in back] == start
        assert ref_gates(n, want, inverse=True)[0] == start
    assert metrics_of(n).unit_delay == max(ready[i] for _, i in n.outputs())


@pytest.mark.parametrize(
    "size", [0, 1, 63, 64, 65, 1000, CHUNK_VECTORS - 1, CHUNK_VECTORS, CHUNK_VECTORS + 1])
def test_batch_size_does_not_matter(size):
    rng = np.random.default_rng(size)
    nl = export_netlist("mul4")
    a = rng.integers(0, 16, size)
    b = rng.integers(0, 16, size)
    got = nl.evaluate({"a": a, "b": b})
    assert got.dtype == np.int64 and got.shape == (size,)
    assert np.array_equal(got, a * b)
    n = random_circuit(random.Random(size))
    ins = {f"x{k}": rng.integers(0, 2, size) for k in range(3)}
    res = simulate(n, ins)
    for v in range(0, size, max(1, size // 7)):
        start = [int(ins[l.name][v]) if l.name else l.const for l in n.lines]
        assert [int(x[v]) for x in res.line_values] == ref_gates(n, start)[0]
    back = simulate_inverse(n, res.line_values)
    for i, line in enumerate(n.lines):
        if line.name:
            assert np.array_equal(back[i], ins[line.name])


def test_shapes_and_scalars():
    nl = export_netlist("mul12")
    a = np.arange(12).reshape(3, 4) * 300
    got = nl.evaluate({"a": a, "b": 77})
    assert got.shape == (3, 4) and np.array_equal(got, a * 77)
    col = np.array([[5], [6]])
    assert np.array_equal(nl.evaluate({"a": col, "b": np.array([1, 2, 3])}),
                          col * np.array([1, 2, 3]))
    nets = nl.evaluate_nets({"a": a, "b": 77})
    assert all(v.shape == (3, 4) for v in nets.values())
    assert type(nl.evaluate({"a": 4095, "b": np.int64(4095)})) is int
    assert all(type(v) is int for v in nl.evaluate_nets({"a": 3, "b": 5}).values())
    n = random_circuit(random.Random(9))
    res = simulate(n, {"x0": 1, "x1": np.array([[0, 1], [1, 0]]), "x2": 0})
    assert all(v.shape == (2, 2) for v in res.line_values)
    one = simulate(n, {"x0": 1, "x1": 0, "x2": 1})
    assert all(type(v) is int for v in one.line_values)
    assert all(type(v) is int for v in simulate_inverse(n, one.line_values))
    assert json.dumps(one.outputs)


def test_appending_after_a_first_evaluation_recompiles():
    b = NetlistBuilder()
    x, y = b.input_bus("a", 1) + b.input_bus("b", 1)
    b.set_outputs("p", [b.and2(x, y)])
    nl = b.build()
    assert nl.evaluate({"a": 1, "b": 1}) == 1 and nl.unit_delay() == 1
    s, c = b.ha(x, y)
    b.set_outputs("q", [s, c])
    assert nl.evaluate({"a": 1, "b": 1}) == 1 | (1 << 2)
    assert nl.evaluate_nets({"a": 1, "b": 0})[s] == 1

    lib = gate_library()
    n = RevNetlist()
    u, v = n.add_input("u"), n.add_input("v")
    n.set_output(v, "out")
    assert simulate(n, {"u": 1, "v": 0}).outputs["out"] == 0
    assert metrics_of(n).unit_delay == 0
    n.apply(lib["FEYNMAN"], u, v)
    assert simulate(n, {"u": 1, "v": 0}).outputs["out"] == 1
    assert simulate_inverse(n, [1, 1]) == [1, 0]
    assert metrics_of(n).unit_delay == 1
    z = n.add_ancilla(1)
    n.apply(lib["TOFFOLI"], u, z, v)
    assert simulate(n, {"u": 1, "v": 0}).outputs["out"] == 0


@pytest.mark.parametrize("bad", [1.5, "3", None, True, 16, -1, 2**70,
                                 np.array([1.0, 2.0]), np.array([3, 16]),
                                 np.array([-1, 3]), np.array(["a"]), "AND"])
def test_cell_operands_are_checked(bad):
    nl = export_netlist("mul4")
    with pytest.raises(ValueError):
        nl.evaluate({"a": bad, "b": 1})
    with pytest.raises(ValueError):
        nl.evaluate_nets({"a": 1, "b": bad})
    # none of them is an operand mapping or a cell kind either
    with pytest.raises(ValueError, match="operands"):
        nl.evaluate(bad)
    with pytest.raises(ValueError, match="operands"):
        nl.evaluate_nets(bad)
    with pytest.raises(ValueError, match="kind"):
        Cell(bad, ("a", "b"), ("c",))


def test_cell_operand_shapes_and_presence_are_checked():
    nl = export_netlist("mul4")
    with pytest.raises(ValueError, match="broadcast"):
        nl.evaluate({"a": np.arange(3), "b": np.arange(4)})
    with pytest.raises(ValueError, match="missing"):
        nl.evaluate({"a": 1})


@pytest.mark.parametrize("bad", [2, 1.0, -1, None, True,
                                 np.array([0, 2]), np.array([0.0, 1.0]), np.array([1, -1]),
                                 5, 3.0, np.array(5), (v for v in (0, 1))])
def test_line_values_are_checked(bad):
    n = random_circuit(random.Random(3))
    with pytest.raises(ValueError):
        simulate(n, {"x0": 1, "x1": bad, "x2": 0})
    final = [0] * len(n.lines)
    final[4] = bad
    with pytest.raises(ValueError):
        simulate_inverse(n, final)
    # nor is any of them a whole input mapping or final line assignment
    with pytest.raises(ValueError, match="inputs"):
        simulate(n, bad)
    with pytest.raises(ValueError, match="final_values"):
        simulate_inverse(n, bad)


@pytest.mark.parametrize("shape", [(5,), (2, 3), (CHUNK_VECTORS + 1,)])
def test_batch_line_values_are_one_uint8_array(shape):
    rng = np.random.default_rng(len(shape))
    n = random_circuit(random.Random(11))
    ins = {f"x{k}": rng.integers(0, 2, shape) for k in range(3)}
    res = simulate(n, ins)
    lines = res.line_values
    assert type(lines) is np.ndarray and lines.dtype == np.uint8
    assert lines.shape == (len(n.lines), *shape)
    flat = lines.reshape(len(n.lines), -1)
    for v in range(0, flat.shape[1], max(1, flat.shape[1] // 5)):
        start = [int(ins[l.name].flat[v]) if l.name else l.const for l in n.lines]
        assert flat[:, v].tolist() == ref_gates(n, start)[0]
    for name, i in n.outputs():
        assert np.array_equal(res.outputs[name], lines[i])


def test_inverse_takes_one_array_or_rows():
    rng = np.random.default_rng(4)
    n = random_circuit(random.Random(12))
    res = simulate(n, {f"x{k}": rng.integers(0, 2, (3, 4)) for k in range(3)})
    whole = simulate_inverse(n, res.line_values)
    assert type(whole) is np.ndarray and whole.dtype == np.uint8
    assert whole.shape == res.line_values.shape
    for rows in (list(res.line_values), [r.astype(np.int64) for r in res.line_values]):
        assert np.array_equal(np.array(simulate_inverse(n, rows)), whole)
    assert np.array_equal(simulate_inverse(n, res.line_values.astype(np.int64)), whole)


@pytest.mark.parametrize("bad", ["two", "minus one", "float", "bool", "short", "long"])
def test_array_line_values_are_checked(bad):
    n = random_circuit(random.Random(3))
    final = np.zeros((len(n.lines), 4), dtype=np.int64)
    if bad == "two":
        final[4, 1] = 2
    elif bad == "minus one":
        final[4, 1] = -1
    elif bad == "float":
        final = final.astype(np.float64)
    elif bad == "bool":
        final = final.astype(bool)
    else:
        final = final[:-1] if bad == "short" else np.vstack([final, final[:1]])
    with pytest.raises(ValueError):
        simulate_inverse(n, final)


@pytest.mark.parametrize("n", [63, 64, 65, CHUNK_VECTORS + 1])
def test_planes_do_not_depend_on_dtype(n):
    bits = np.random.default_rng(n).integers(0, 2, (5, n))
    planes = _to_planes(bits)
    assert planes == _to_planes(bits.astype(np.uint8))
    assert planes[0] == sum(int(b) << v for v, b in enumerate(bits[0]))
    assert np.array_equal(_from_planes(planes, n), bits)
