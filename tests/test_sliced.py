"""The bit-sliced engine against a cell-by-cell, gate-by-gate reference.

The reference below runs on Python ints and knows nothing of the engine:
cells use their textbook formulas and gates look their output up in
``mapping``.
"""

import json
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from cifm import _plans, bitcore
from cifm._plans import SEGMENT_STEPS, _decoded, _to_planes, run_kernels, run_planes
from cifm.bitcore import CHUNK_VECTORS, Cell, CellKind, CellNetlist, NetlistBuilder
from cifm.multiplier import export_netlist
from cifm.revlogic import (
    GateApp,
    RevGate,
    RevNetlist,
    _compiled,
    _forward_program,
    expand,
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


def random_cells(rng: random.Random, n_cells: int = 40, repeats: int = 0):
    """Random cells over buses a and b of 1-5 bits, and 8 outputs: distinct
    nets, then ``repeats`` more drawn again from them."""
    b = NetlistBuilder()
    nets = b.input_bus("a", rng.randint(1, 5)) + b.input_bus("b", rng.randint(1, 5))
    for _ in range(n_cells):
        kind = rng.choice(list(CellKind))
        ins = rng.sample(nets, 3 if kind is CellKind.FA else 2)
        nets += b.cell(kind, ins, level=0)
    picks = rng.sample(nets, 8 - repeats)
    b.set_outputs("p", picks + rng.choices(picks, k=repeats))
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


@pytest.mark.parametrize("level", ["mul4", "mul12", "mul24", "random"])
def test_evaluate_nets_is_a_read_only_view_in_definition_order(level):
    """A scalar call gives the reference's nets as ints, a batch gives each
    net's bits per vector, both in net definition order and read-only. A view
    taken before the netlist gains a cell keeps the nets and values it had."""
    rng = random.Random(level)
    if level == "random":
        nl = random_cells(rng).build()
    else:   # a copy: the library netlist is shared and must not grow
        nl = CellNetlist.from_json(export_netlist(level).to_json())
    order = [net for _, bus in nl.inputs for net in bus]
    order += [net for cell in nl.cells for net in cell.outputs]
    ops = [{name: rng.randrange(1 << len(bus)) for name, bus in nl.inputs} for _ in range(3)]
    refs = [ref_cells(nl, one)[0] for one in ops]
    scalar = nl.evaluate_nets(ops[0])
    batch = nl.evaluate_nets({name: np.array([one[name] for one in ops])
                              for name, _ in nl.inputs})
    want = {net: [ref[net] for ref in refs] for net in order}

    def batch_bits(nets):
        return {net: bits.tolist() for net, bits in nets.items()}

    assert dict(scalar) == refs[0] and type(dict(scalar)) is dict
    assert all(type(v) is int for v in scalar.values())
    assert batch_bits(batch) == want
    assert all(v.dtype == np.int64 for v in batch.values())
    for nets in (scalar, batch):
        assert list(nets) == order and len(nets) == len(order)
        with pytest.raises(KeyError):
            nets["no such net"]
        with pytest.raises(TypeError):
            nets[order[0]] = 1
    nl.cells.append(Cell(CellKind.AND, (order[0], order[-1]), ("grown",)))
    grown = nl.evaluate_nets(ops[0])
    assert list(grown) == order + ["grown"]
    assert grown["grown"] == refs[0][order[0]] & refs[0][order[-1]]
    assert "grown" not in scalar and "grown" not in batch
    assert list(scalar) == order and dict(scalar) == refs[0]
    assert list(batch) == order and batch_bits(batch) == want


@pytest.mark.parametrize("seed", range(6))
def test_random_expansions_keep_outputs_that_share_a_net(seed):
    """Three of the eight outputs repeat a net. Each output of the expansion,
    for every operand value, is its net's bit in the reference, and the
    inverse run recovers every line."""
    rng = random.Random(seed)
    nl = random_cells(rng, repeats=3).build()
    rev = expand(nl)
    assert sorted(name for name, _ in rev.outputs()) == sorted(name for name, _ in nl.outputs)
    wa, wb = (len(bus) for _, bus in nl.inputs)
    v = np.arange(1 << wa + wb)
    ops = {"a": v & (1 << wa) - 1, "b": v >> wa}
    ins = {f"{name}{k}": ops[name] >> k & 1 for name, bus in nl.inputs for k in range(len(bus))}
    res = simulate(rev, ins)
    for u in v.tolist():
        want, _ = ref_cells(nl, {"a": u & (1 << wa) - 1, "b": u >> wa})
        assert {name: int(bits[u]) for name, bits in res.outputs.items()} == \
            {name: want[net] for name, net in nl.outputs}
    back = simulate_inverse(rev, res.line_values)
    for line, values in zip(rev.lines, back):
        assert np.all(values == (ins[line.name] if line.name is not None else line.const))


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


def _no_arrays(*args):
    raise AssertionError("a scalar call reached uint_rows")


@pytest.mark.parametrize("kinds", [(np.int64, np.int64), (np.uint8, int), (int, np.uint8),
                                   (np.int64, np.uint8)], ids=lambda k: [t.__name__ for t in k])
def test_numpy_integer_scalars_are_a_batch_of_one(kinds, monkeypatch):
    """Numpy integer scalars, alone or mixed with ints, run as the int call
    does: one vector, no arrays, and the same values as Python ints."""
    nl = export_netlist("mul4")
    n = random_circuit(random.Random(5))
    want = nl.evaluate({"a": 11, "b": 6}), nl.evaluate_nets({"a": 11, "b": 6})
    want_fwd = simulate(n, {"x0": 1, "x1": 0, "x2": 1})
    want_back = simulate_inverse(n, want_fwd.line_values)
    monkeypatch.setattr(bitcore, "uint_rows", _no_arrays)
    monkeypatch.setattr(_plans, "uint_rows", _no_arrays)

    def mixed(values):
        return [kinds[k % 2](v) for k, v in enumerate(values)]

    got = nl.evaluate(dict(zip("ab", mixed((11, 6)))))
    assert type(got) is int and got == want[0] == 66
    nets = nl.evaluate_nets(dict(zip("ab", mixed((11, 6)))))
    assert nets == want[1] and {type(v) for v in nets.values()} == {int}
    fwd = simulate(n, dict(zip(("x0", "x1", "x2"), mixed((1, 0, 1)))))
    assert fwd == want_fwd
    assert {type(v) for v in (*fwd.line_values, *fwd.outputs.values())} == {int}
    back = simulate_inverse(n, mixed(want_fwd.line_values))
    assert back == want_back and {type(v) for v in back} == {int}
    # out of range is uint_value's ValueError, not a trip into the array path
    for bad in (np.uint8(16), np.int64(-1), np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match="does not fit"):
            nl.evaluate({"a": bad, "b": kinds[1](6)})
        with pytest.raises(ValueError, match="does not fit"):
            nl.evaluate_nets({"a": kinds[0](11), "b": bad})
    with pytest.raises(ValueError, match="does not fit"):
        simulate(n, {"x0": kinds[0](1), "x1": np.uint8(2), "x2": 0})
    with pytest.raises(ValueError, match="does not fit"):
        simulate_inverse(n, [np.int64(-1)] + mixed(want_fwd.line_values[1:]))


def _and_outputs(n_out: int, width: int = 40) -> CellNetlist:
    """Buses a and b of ``width`` bits; output k is a_j & b_j for j = k % width."""
    b = NetlistBuilder()
    x, y = b.input_bus("a", width), b.input_bus("b", width)
    b.set_outputs("p", [b.and2(x[k % width], y[k % width]) for k in range(n_out)])
    return b.build()


@pytest.mark.parametrize("n_out", [53, 54, 63, 64, 80])
def test_array_evaluate_takes_at_most_63_outputs(n_out):
    """An int64 result holds output bits 0-62: an array call on a wider
    netlist raises, and a scalar call stays exact. Up to 63 outputs, the
    top one set, sum exactly, past the 53 bits a float64 holds."""
    nl = _and_outputs(n_out)
    x = 2**39 | 2**30 | 2**22 | 2**13 | 2**12 | 1
    want = sum((x >> k % 40 & 1) << k for k in range(n_out))
    assert nl.evaluate({"a": x, "b": x}) == want
    a = np.array([x, x >> 1, 2**40 - 1])
    if n_out <= 63:
        assert want >> n_out - 1 & 1
        got = nl.evaluate({"a": a, "b": a})
        assert got.dtype == np.int64 and got.tolist() == [
            nl.evaluate({"a": v, "b": v}) for v in a.tolist()]
        return
    with pytest.raises(ValueError, match=f"{n_out}.*evaluate_nets"):
        nl.evaluate({"a": a, "b": a})
    nets = nl.evaluate_nets({"a": a, "b": a})
    assert sum(int(nets[net][0]) << k for k, (_, net) in enumerate(nl.outputs)) == want
    if n_out == 80:
        assert nl.evaluate({"a": 2**39 | 2**30 | 1, "b": 2**39 | 2**30 | 1}) == (
            0x80400000018040000001)


def test_a_0d_array_operand_is_an_array_call():
    nl = export_netlist("mul4")
    got = nl.evaluate({"a": np.array(11), "b": np.int64(6)})
    assert type(got) is np.ndarray and got.shape == () and got == 66
    nets = nl.evaluate_nets({"a": 11, "b": np.array(6, dtype=np.uint8)})
    assert all(v.dtype == np.int64 and np.ndim(v) == 0 for v in nets.values())


# Element counts that end inside a segment, just past one and on a boundary
LONG = [2 * SEGMENT_STEPS + 1, 3 * SEGMENT_STEPS - 1, 3 * SEGMENT_STEPS + 17]


@pytest.mark.parametrize("n_cells", LONG)
def test_cell_netlists_longer_than_two_segments(n_cells):
    rng = random.Random(n_cells)
    nl = random_cells(rng, n_cells).build()
    ops = {name: np.array([rng.randrange(1 << len(bus)) for _ in range(50)])
           for name, bus in nl.inputs}
    nets = nl.evaluate_nets(ops)
    for v in range(50):
        one = {name: int(x[v]) for name, x in ops.items()}
        want, delay = ref_cells(nl, one)
        assert {net: int(bits[v]) for net, bits in nets.items()} == want
        if v < 5:
            assert nl.evaluate_nets(one) == want
    assert len(nl._compiled().plan.segments()) == -(-n_cells // SEGMENT_STEPS)
    assert nl.unit_delay() == delay


@pytest.mark.parametrize("n_gates", LONG)
def test_circuits_longer_than_two_segments_both_ways(n_gates):
    rng = random.Random(n_gates)
    n = random_circuit(rng, n_gates)
    pats = np.arange(8)
    ins = {f"x{k}": (pats >> k) & 1 for k in range(3)}
    res = simulate(n, ins)
    back = simulate_inverse(n, res.line_values)
    for v in range(8):
        start = [ins[l.name][v] if l.name else l.const for l in n.lines]
        want, _ = ref_gates(n, start)
        assert [int(x[v]) for x in res.line_values] == want
        assert list(simulate(n, {name: int(x[v]) for name, x in ins.items()}).line_values) == want
        assert [int(x[v]) for x in back] == start
    compiled = _compiled(n)
    segments = -(-n_gates // SEGMENT_STEPS)
    assert len(compiled.forward.segments()) == len(compiled.inverse.segments()) == segments


@pytest.mark.parametrize("seed", range(6))
def test_random_circuits_with_constant_ancillas(seed):
    """Ancillas of 0 and 1, several read as controls before their first
    write: the forward plan folds in what it knows of them and still gives
    the reference's line values, gate by gate from ``mapping``."""
    rng = random.Random(seed)
    lib = gate_library()
    n = RevNetlist()
    xs = [n.add_input(f"x{k}") for k in range(3)]
    anc = [n.add_ancilla(c) for c in (1, 0, 1, 1, 0, 0, 1)]
    anc += [n.add_ancilla(rng.randint(0, 1)) for _ in range(4)]
    n.apply(lib["TOFFOLI"], anc[0], xs[0], anc[1])      # a 1-control: a copy of x0
    n.apply(lib["FREDKIN"], anc[2], anc[4], xs[1])      # a 1-control swaps x1 in
    n.apply(lib["NG"], anc[3], anc[5], xs[2])
    n.apply(lib["TSG"], anc[6], anc[4], anc[5], xs[0])
    n.apply(lib["FEYNMAN"], anc[1], anc[0])             # a line the fold wrote
    gates = list(lib.values())
    for _ in range(40):
        g = rng.choice(gates)
        n.apply(g, *rng.sample(range(len(n.lines)), g.arity))
    for line in rng.sample(range(len(n.lines)), 4):
        n.set_output(line, f"y{line}")
    pats = np.arange(8)
    ins = {f"x{k}": (pats >> k) & 1 for k in range(3)}
    res = simulate(n, ins)
    back = simulate_inverse(n, res.line_values)
    for v in range(8):
        start = [ins[l.name][v] if l.name else l.const for l in n.lines]
        want = ref_gates(n, start)[0]
        assert [int(x[v]) for x in res.line_values] == want
        assert list(simulate(n, {name: int(x[v]) for name, x in ins.items()}).line_values) == want
        assert [int(x[v]) for x in back] == start
    first = _compiled(n).forward.steps[0][0]
    assert first == _forward_program(lib["TOFFOLI"], (1, None, 0))


def test_any_bijection_both_ways():
    """Gates beyond the library, SWAP among them: an output may move an
    input to another line, so a later output must still read the old value."""
    rng = random.Random(7)
    gates = [RevGate("SWAP", 2, (0, 2, 1, 3))] + [
        RevGate(f"G{k}", arity, tuple(rng.sample(range(1 << arity), 1 << arity)))
        for k, arity in enumerate([1, 2, 3, 3, 4, 4])]
    n = RevNetlist()
    for k in range(4):
        n.add_input(f"x{k}")
    for _ in range(2):
        n.add_ancilla(0)
    for _ in range(SEGMENT_STEPS + 9):
        g = rng.choice(gates)
        n.apply(g, *rng.sample(range(len(n.lines)), g.arity))
    for v in range(16):
        ins = {f"x{k}": v >> k & 1 for k in range(4)}
        start = [ins[l.name] if l.name else l.const for l in n.lines]
        want = ref_gates(n, start)[0]
        assert list(simulate(n, ins).line_values) == want
        assert simulate_inverse(n, want) == start
    idle = RevNetlist()                 # a gate that changes no line writes nothing
    idle.apply(RevGate("ID", 1, (0, 1)), idle.add_input("x"))
    assert simulate(idle, {"x": 1}).line_values == (1,)
    assert simulate_inverse(idle, [0]) == [0]


@pytest.mark.parametrize("bad", ["repeated", "short", "out_of_range", "not_a_gate"])
@pytest.mark.parametrize("circuit", ["built", "expansion"])
def test_a_hand_appended_application_is_checked(bad, circuit):
    """An application appended to ``gates`` past ``apply`` meets apply's
    check when the circuit compiles: simulate, simulate_inverse and
    metrics_of raise apply's ValueError, never an IndexError."""
    if circuit == "built":
        n = random_circuit(random.Random(26))
    else:
        n = expand(export_netlist("mul4"))
        metrics_of(n)                   # the template's plan is compiled first
    size = len(n.lines)
    toffoli = gate_library()["TOFFOLI"]
    gate, lines = {"repeated": (toffoli, (0, 1, 0)),
                   "short": (toffoli, (0, 1)),
                   "out_of_range": (toffoli, (0, 1, size)),
                   "not_a_gate": ("TOFFOLI", (0, 1, 2))}[bad]
    with pytest.raises(ValueError) as raised:
        n.apply(gate, *lines)
    n.gates.append(GateApp(gate, lines))
    names = {l.name for l in n.lines if l.name is not None}
    calls = [lambda: simulate(n, dict.fromkeys(names, 1)),
             lambda: simulate(n, dict.fromkeys(names, np.array([0, 1]))),
             lambda: simulate_inverse(n, [0] * size),
             lambda: simulate_inverse(n, np.zeros((size, 2), dtype=np.uint8)),
             lambda: metrics_of(n)]
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(raised.value)


@pytest.mark.parametrize("entry", ["tuple", "int_lines", "no_lines"])
def test_a_hand_appended_entry_of_the_wrong_type_is_value_error(entry):
    """An entry of ``gates`` that is not a GateApp, or whose lines are not
    line indices, makes every call that compiles raise a ValueError that
    names it, never an AttributeError or a TypeError."""
    n = expand(export_netlist("mul4"))
    feynman = gate_library()["FEYNMAN"]
    bad = {"tuple": (feynman, (0, 1)),
           "int_lines": GateApp(feynman, 5),
           "no_lines": GateApp(feynman, None)}[entry]
    n.gates.append(bad)
    size = len(n.lines)
    names = {l.name for l in n.lines if l.name is not None}
    calls = [lambda: simulate(n, dict.fromkeys(names, 1)),
             lambda: simulate(n, dict.fromkeys(names, np.array([0, 1]))),
             lambda: simulate_inverse(n, [0] * size),
             lambda: simulate_inverse(n, np.zeros((size, 2), dtype=np.uint8)),
             lambda: metrics_of(n)]
    want = (f"gates[{len(n.gates) - 1}] must be a GateApp, got {bad!r}" if entry == "tuple"
            else f"FEYNMAN lines must be line indices, got {bad.lines!r}")
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == want


def test_a_hand_appended_cell_of_the_wrong_type_is_value_error():
    template = export_netlist("mul4")
    nl = CellNetlist(list(template.inputs), list(template.cells), list(template.outputs))
    bad = ("AND", ("a0", "b0"), ("x",))
    nl.cells.append(bad)
    want = f"cell {len(nl.cells) - 1} must be a Cell, got {bad!r}"
    for call in (nl.validate, lambda: nl.evaluate({"a": 3, "b": 5}),
                 lambda: nl.evaluate({"a": np.array([3, 1]), "b": np.array([5, 2])}),
                 lambda: expand(nl)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == want


@pytest.mark.parametrize("entry", ["tuple", "int_lines", "repeated_lines"])
def test_to_json_raises_the_compiles_error_for_a_hand_appended_entry(entry):
    """to_json writes no entry that every compile, and so from_json,
    refuses: it raises the compile's own ValueError."""
    n = expand(export_netlist("mul4"))
    feynman = gate_library()["FEYNMAN"]
    n.gates.append({"tuple": (feynman, (0, 1)), "int_lines": GateApp(feynman, 5),
                    "repeated_lines": GateApp(feynman, (0, 0))}[entry])
    with pytest.raises(ValueError) as compiled:
        metrics_of(n)
    with pytest.raises(ValueError) as written:
        n.to_json()
    assert str(written.value) == str(compiled.value)


def test_cell_to_json_raises_the_compiles_error_for_a_hand_appended_cell():
    template = export_netlist("mul4")
    nl = CellNetlist(list(template.inputs), list(template.cells), list(template.outputs))
    nl.cells.append(("AND", ("a0", "b0"), ("x",)))
    with pytest.raises(ValueError) as compiled:
        nl.evaluate({"a": 3, "b": 5})
    with pytest.raises(ValueError) as written:
        nl.to_json()
    assert str(written.value) == str(compiled.value)


def test_cells_that_read_one_net_twice():
    b = NetlistBuilder()
    x, y = b.input_bus("a", 2)
    outs = [b.and2(x, x)] + list(b.ha(y, y)) + list(b.fa(x, x, y)) + list(b.fa(y, x, y))
    b.set_outputs("p", outs)
    nl = b.build()
    for a in range(4):
        want, _ = ref_cells(nl, {"a": a})
        assert nl.evaluate_nets({"a": a}) == want
        assert nl.evaluate_nets({"a": np.array([a])}) == {k: [v] for k, v in want.items()}


def test_growing_across_a_segment_boundary_after_a_first_run():
    rng = random.Random(5)
    b = random_cells(rng, SEGMENT_STEPS - 1)
    nl = b.build()
    one = {"a": 1, "b": 1}
    assert nl.evaluate_nets(one) == ref_cells(nl, one)[0]
    assert len(nl._compiled().plan.segments()) == 1
    nets = [net for _, bus in nl.inputs for net in bus]
    for _ in range(3):
        nets += b.cell(CellKind.FA, rng.sample(nets, 3))
    assert nl.evaluate_nets(one) == ref_cells(nl, one)[0]
    assert len(nl._compiled().plan.segments()) == 2

    n = random_circuit(rng, SEGMENT_STEPS - 1)
    ins = {"x0": 1, "x1": 0, "x2": 1}
    start = [ins[l.name] if l.name else l.const for l in n.lines]
    assert list(simulate(n, ins).line_values) == ref_gates(n, start)[0]
    gates = list(gate_library().values())
    for _ in range(3):
        g = rng.choice(gates)
        n.apply(g, *rng.sample(range(len(n.lines)), g.arity))
    final = ref_gates(n, start)[0]
    assert list(simulate(n, ins).line_values) == final
    assert simulate_inverse(n, final) == start
    assert len(_compiled(n).forward.segments()) == len(_compiled(n).inverse.segments()) == 2


# Runs in a fresh interpreter, where no plan has run yet: everything that
# only reads a netlist's structure, then the plans, before and after a run.
LAZY_SCRIPT = """
import contextlib, io, json
from cifm import cost_report, export_netlist
from cifm.cli import main
from cifm.revlogic import _compiled, expand, metrics_of

nl = export_netlist("mul24")
rev = expand(nl)
metrics_of(rev), metrics_of(expand(nl)), nl.unit_delay(), nl.cell_count()
cost_report("mul24"), cost_report("mul24", with_features=True)
with contextlib.redirect_stdout(io.StringIO()):
    for args in (["netlist", "mul24"], ["netlist", "cifm-rev"], ["metrics", "cifm-rev"],
                 ["metrics", "mul24"]):
        main(args)
plans = [nl._compiled().plan, _compiled(rev).forward, _compiled(rev).inverse]
before = [plan._segments is not None for plan in plans]
nl.evaluate({"a": 3, "b": 5})
after = [plan._segments is not None for plan in plans]
print(json.dumps([before, after, plans[0].depth == nl._compiled().plan.depth]))
"""


def test_reading_structure_generates_no_code():
    out = subprocess.run([sys.executable, "-c", LAZY_SCRIPT], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[False, False, False], [True, False, False], True]


def test_set_output_after_a_simulation_takes_effect():
    lib = gate_library()
    n = RevNetlist()
    u, v = n.add_input("u"), n.add_input("v")
    n.apply(lib["FEYNMAN"], u, v)
    n.set_output(v, "out")
    assert simulate(n, {"u": 1, "v": 0}).outputs == {"out": 1}
    assert metrics_of(n).unit_delay == 1
    n.set_output(u, "out")
    assert n.outputs() == [("out", 0), ("out", 1)]
    assert simulate(n, {"u": 0, "v": 1}).outputs == {"out": 1}
    n.set_output(v, "w")
    assert simulate(n, {"u": 0, "v": 1}).outputs == {"out": 0, "w": 1}
    n.outputs().clear()                 # a list of the caller's own
    assert n.outputs() == [("out", 0), ("w", 1)]


def test_set_output_on_one_expansion_leaves_the_others_alone():
    nl = export_netlist("mul4")
    template_outputs = expand(nl).outputs()
    first, second = expand(nl), expand(nl)
    ins = {f"{x}{k}": 1 for x in "ab" for k in range(4)}
    assert simulate(first, ins).outputs == simulate(second, ins).outputs
    first.set_output(0, "a0_out")
    assert simulate(first, ins).outputs["a0_out"] == 1
    assert "a0_out" not in simulate(second, ins).outputs
    assert second.outputs() == expand(nl).outputs() == template_outputs
    assert metrics_of(second) == metrics_of(expand(nl))


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


def _count_packs(monkeypatch) -> list:
    """Monkeypatch ``_to_planes`` to count its calls, in the list returned."""
    calls = []
    real = _plans._to_planes

    def counted(bits):
        calls.append(bits.shape)
        return real(bits)

    monkeypatch.setattr(_plans, "_to_planes", counted)
    return calls


@pytest.mark.parametrize("shape", [(1,), (63,), (64,), (65,), (CHUNK_VECTORS + 1,), (2, 3),
                                   "cifm-rev"])
def test_a_round_trip_hands_the_planes_over(shape, monkeypatch):
    """The inverse of simulate's own line values loads the planes they were
    decoded from, packing nothing, and equals the inverse of a packed copy."""
    rng = np.random.default_rng(7)
    if shape == "cifm-rev":
        n, shape = expand(export_netlist("mul24")), (100,)
    else:
        n = random_circuit(random.Random(21))
    ins = {l.name: rng.integers(0, 2, shape) for l in n.lines if l.name is not None}
    fwd = simulate(n, ins)
    calls = _count_packs(monkeypatch)
    packed = simulate_inverse(n, np.array(fwd.line_values))
    # the patch sees the packed call, which packs every vector
    assert sum(cols for _, cols in calls) == fwd.line_values[0].size
    calls.clear()
    back = simulate_inverse(n, fwd.line_values)
    again = simulate_inverse(n, back)       # an inverse's result is handed over too
    assert calls == []
    assert type(back) is np.ndarray and back.dtype == np.uint8
    assert np.array_equal(back, packed) and back.shape == (len(n.lines), *shape)
    for i, line in enumerate(n.lines):
        assert (back[i] == (ins[line.name] if line.name is not None else line.const)).all()
    assert np.array_equal(again, simulate_inverse(n, np.array(back)))


def test_a_round_trip_of_0d_inputs_hands_the_planes_over(monkeypatch):
    """0-d inputs give line values of shape (lines,): one array, which the
    inverse takes as an array call, not as a scalar per line."""
    n = random_circuit(random.Random(27))
    ins = {f"x{k}": np.array(k & 1) for k in range(3)}
    lines = simulate(n, ins).line_values
    calls = _count_packs(monkeypatch)
    assert simulate_inverse(n, np.array(lines)).tolist() == simulate_inverse(n, lines).tolist()
    assert calls == [(len(n.lines), 1)]         # the patch sees the packed call only
    calls.clear()
    back = simulate_inverse(n, lines)
    assert calls == []
    assert type(back) is np.ndarray and back.shape == (len(n.lines),)
    assert not back.flags.writeable
    assert back.tolist() == [int(ins[l.name]) if l.name else l.const for l in n.lines]


def test_batch_results_are_read_only():
    n = random_circuit(random.Random(22))
    res = simulate(n, {f"x{k}": np.array([0, 1, 1]) for k in range(3)})
    back = simulate_inverse(n, res.line_values)
    name = n.outputs()[0][0]
    for result in (res.line_values, back, res.outputs[name]):
        with pytest.raises(ValueError, match="read-only"):
            result[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            result += 1
        with pytest.raises(ValueError):
            result.flags.writeable = True
        edited = result.copy()
        edited[0] ^= 1
        assert not np.array_equal(edited, result)


@pytest.mark.parametrize("how", ["slice", "reshape", "view", "astype", "copy", "list"])
def test_anything_but_the_result_itself_is_packed(how, monkeypatch):
    rng = np.random.default_rng(8)
    n = random_circuit(random.Random(23))
    lines = simulate(n, {f"x{k}": rng.integers(0, 2, (4, 5)) for k in range(3)}).line_values
    want = simulate_inverse(n, lines)
    given = {"slice": lambda: lines[:],
             "reshape": lambda: lines.reshape(lines.shape),
             "view": lines.view,
             "astype": lambda: lines.astype(np.uint8),
             "copy": lines.copy,
             "list": lambda: list(lines)}[how]()
    calls = _count_packs(monkeypatch)
    assert np.array_equal(simulate_inverse(n, given), want)
    assert calls == [(len(n.lines), 20)]


def test_a_plan_that_loads_rows_out_of_order_packs_them(monkeypatch):
    two = RevNetlist()
    two.add_input("p")
    two.add_input("q")
    lines = simulate(two, {"p": np.array([1, 0]), "q": np.array([0, 1])}).line_values
    n = RevNetlist()
    for name in ("b", "a", "b"):
        n.add_input(name)
    plan = _compiled(n).forward             # operand 0 loads rows 0 and 2
    calls = _count_packs(monkeypatch)
    got = _plans.run_rows(plan, lines, [1, 1], "line {}".format)
    assert calls == [(3, 2)] and got.tolist() == [[1, 0], [0, 1], [1, 0]]


def test_line_values_handed_to_another_circuit():
    """Another circuit with as many lines takes them as its final state."""
    rng = np.random.default_rng(9)
    n, other = random_circuit(random.Random(24)), random_circuit(random.Random(25))
    assert len(n.lines) == len(other.lines) and n.gates != other.gates
    lines = simulate(n, {f"x{k}": rng.integers(0, 2, 50) for k in range(3)}).line_values
    got = simulate_inverse(other, lines)
    assert np.array_equal(got, simulate_inverse(other, np.array(lines)))
    for v in range(50):
        assert got[:, v].tolist() == ref_gates(other, lines[:, v].tolist(), inverse=True)[0]
    assert not np.array_equal(got, simulate_inverse(n, lines))


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


@pytest.mark.parametrize("n", [1, 7, 9, 63, 64, 65, CHUNK_VECTORS + 1])
def test_planes_do_not_depend_on_dtype(n):
    bits = np.random.default_rng(n).integers(0, 2, (5, n))
    planes = _to_planes(bits)
    assert planes == _to_planes(bits.astype(np.uint8))
    assert planes[0] == sum(int(b) << v for v, b in enumerate(bits[0]))
    assert np.array_equal(_decoded([(0, n, planes)], 5, n), bits)


def ref_decode(planes, n):
    """uint8 [len(planes) x n], bit v of plane k in row k, column v."""
    return np.array([[p >> v & 1 for v in range(n)] for p in planes], dtype=np.uint8).reshape(
        len(planes), n)


ZERO_MIXES = {           # which of 8 planes are zero
    "all-zero": [1] * 8,
    "no-zero": [0] * 8,
    "one-nonzero": [1] * 7 + [0],
    "mostly-zero": [1, 0, 1, 1, 0, 1, 1, 1],
    "half-zero": [0, 1] * 4,
    "mostly-nonzero": [0, 1, 0, 0, 0, 1, 0, 0],
}


def _decodes_as_the_reference(sizes, mix):
    """Chunks of ``sizes`` vectors, 8 planes each, decode into one uint8
    array equal to :func:`ref_decode` of the joined planes, which it packs
    back to, whether the rows are decoded from one buffer or from a zeroed
    array. A row of ``mix`` is zero in every chunk, or with several chunks
    and "half-zero", zero in every chunk but the first: a row zero in some
    chunks only. Every nonzero plane, its top bit and an all-ones plane
    included, lands in its own row."""
    rng = random.Random(sum(sizes))
    some = mix == "half-zero" and len(sizes) > 1
    chunks, joined, lo = [], [0] * 8, 0
    for k, size in enumerate(sizes):
        nonzero = [(1 << size) - 1, 1, 1 << size - 1]
        nonzero += [rng.randrange(1, 1 << size) for _ in range(5)]
        planes = [0 if zero and (k or not some) else nonzero[j]
                  for j, zero in enumerate(ZERO_MIXES[mix])]
        chunks.append((lo, lo + size, planes))
        joined = [p | q << lo for p, q in zip(joined, planes)]
        lo += size
    got = _decoded(chunks, 8, lo)
    assert got.dtype == np.uint8 and got.shape == (8, lo)
    assert np.array_equal(got, ref_decode(joined, lo))
    if lo:                              # _to_planes takes at least one vector
        assert _to_planes(got) == joined


# The decoder's one check, run by two tests: a lone chunk of any length, and
# three chunks, the last of ``last`` vectors, or none at all.
@pytest.mark.parametrize("mix", ZERO_MIXES)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, CHUNK_VECTORS + 1])
def test_zero_planes_decode_as_the_reference(n, mix):
    _decodes_as_the_reference([n], mix)


@pytest.mark.parametrize("mix", ZERO_MIXES)
@pytest.mark.parametrize("last", [1, 7, 8, 9, CHUNK_VECTORS, None])
def test_chunks_decode_into_one_array_as_their_joined_decodes(last, mix):
    sizes = [] if last is None else [CHUNK_VECTORS, CHUNK_VECTORS, last]
    _decodes_as_the_reference(sizes, mix)


def test_a_long_round_trip_decodes_into_one_array(monkeypatch):
    """A 2**16-vector round trip of the mul12 expansion: line values and the
    inverse's result equal their chunks decoded one by one, are read-only
    uint8 and hand their planes over, and no array is joined."""
    rng = np.random.default_rng(34)
    rev = expand(export_netlist("mul12"))
    n = 1 << 16
    ins = {l.name: rng.integers(0, 2, n) for l in rev.lines if l.name is not None}
    joins = []
    real = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *args, **kw: joins.append(1) or real(*args, **kw))
    lines = simulate(rev, ins).line_values
    back = simulate_inverse(rev, lines)
    assert joins == []
    monkeypatch.undo()
    calls = _count_packs(monkeypatch)
    again = simulate_inverse(rev, back)
    assert calls == []
    for result in (lines, back, again):
        assert type(result) is np.ndarray and result.dtype == np.uint8
        assert result.shape == (len(rev.lines), n) and not result.flags.writeable
        with pytest.raises(ValueError):
            result.flags.writeable = True
        assert len(result.base.chunks) == n // CHUNK_VECTORS
        assert np.array_equal(result, np.concatenate(
            [_decoded([chunk], len(rev.lines), chunk[1] - chunk[0])
             for chunk in result.base.chunks], axis=1))
    assert _mostly_zero(back)
    for i, line in enumerate(rev.lines):
        assert np.array_equal(back[i], np.broadcast_to(
            ins[line.name] if line.name is not None else line.const, n))
    assert np.array_equal(again, simulate_inverse(rev, np.array(back)))


def _mostly_zero(array) -> bool:
    """Whether the planes an engine result keeps are mostly zero in every
    chunk, so the result was decoded from a zeroed array."""
    return all(2 * planes.count(0) > len(planes) for _, _, planes in array.base.chunks)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, CHUNK_VECTORS + 1, (), 0])
def test_an_inverse_decodes_its_zero_ancillas(n):
    """An inverse run returns every ancilla of an expansion to 0, so most of
    its final planes are zero; the result still holds every line's start
    value, read-only, in the shape of the inputs."""
    rng = np.random.default_rng(31)
    rev = expand(export_netlist("mul4"))
    shape = n if n == () else (n,)
    ins = {l.name: rng.integers(0, 2, shape) for l in rev.lines if l.name is not None}
    back = simulate_inverse(rev, simulate(rev, ins).line_values)
    assert back.dtype == np.uint8 and back.shape == (len(rev.lines), *shape)
    assert not back.flags.writeable
    with pytest.raises(ValueError):
        back.flags.writeable = True
    if back.size:
        assert _mostly_zero(back)
    for i, line in enumerate(rev.lines):
        assert np.array_equal(back[i], np.broadcast_to(
            ins[line.name] if line.name is not None else line.const, shape))


def test_a_zero_skipped_inverse_hands_its_planes_over(monkeypatch):
    rng = np.random.default_rng(32)
    rev = expand(export_netlist("mul12"))
    ins = {l.name: rng.integers(0, 2, 300) for l in rev.lines if l.name is not None}
    back = simulate_inverse(rev, simulate(rev, ins).line_values)
    assert _mostly_zero(back)
    calls = _count_packs(monkeypatch)
    packed = simulate_inverse(rev, np.array(back))
    assert calls == [(len(rev.lines), 300)]     # the patch sees the packed call
    calls.clear()
    again = simulate_inverse(rev, back)
    assert calls == []
    assert np.array_equal(again, packed) and not again.flags.writeable


def per_row_load(plan, planes, n):
    """run_planes with every plane loaded into its row one at a time."""
    state = [0] * plan.rows
    for row, plane in zip(plan.load_rows, planes):
        state[row] = plane
    for row in plan.ones:
        state[row] = (1 << n) - 1
    for segment in plan.segments():
        segment(state, (1 << n) - 1)
    return state


def _mul12_plan(which):
    if which == "cells":
        return export_netlist("mul12")._compiled().plan
    compiled = _compiled(expand(export_netlist("mul12")))
    return compiled.forward if which == "forward" else compiled.inverse


@pytest.mark.parametrize("which", ["cells", "forward", "inverse"])
def test_a_slice_load_gives_the_per_row_state(which):
    """Cell and inverse plans load rows 0..k-1 in order, with one slice
    assignment; a forward plan loads scattered input lines one by one. Both
    give the state a per-row load gives, leave the planes handed in as they
    were, and keep their choice through a pickle."""
    plan = _mul12_plan(which)
    k = len(plan.load_rows)
    if which == "forward":
        assert plan._load_slice is None and plan.load_rows != tuple(range(k))
    else:
        assert plan._load_slice == slice(0, k) and plan.load_rows == tuple(range(k))
    rng = random.Random(k)
    n = 100
    planes = [rng.randrange(1 << n) for _ in range(k)]
    given = list(planes)
    want = per_row_load(plan, planes, n)
    assert run_planes(plan, planes, n) == want
    assert planes == given
    loaded = pickle.loads(pickle.dumps(plan))
    assert loaded._load_slice == plan._load_slice
    assert run_planes(loaded, planes, n) == want


def test_reading_every_row_yields_the_state_itself(monkeypatch):
    """A run that reads every row yields the list run_planes made, not a
    copy; a run that reads some rows yields a list of those."""
    plan = _mul12_plan("inverse")
    values = np.random.default_rng(33).integers(0, 2, (plan.rows, 10))
    made = []

    def kept(*args):
        made.append(run_planes(*args))
        return made[-1]

    monkeypatch.setattr(_plans, "run_planes", kept)
    (_, _, every), = run_kernels(plan, values, range(plan.rows))
    (_, _, some), = run_kernels(plan, values, (3, 1))
    assert every is made[0] and some is not made[1] and some == [made[1][3], made[1][1]]
    assert every == made[1] == per_row_load(plan, _to_planes(values), 10)
