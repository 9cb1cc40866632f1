import importlib
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifm.bitcore import Cell, CellKind, CellNetlist, NetlistBuilder
from cifm.multiplier import export_netlist
from cifm.revlogic import (
    FullAdderVariant,
    LineTag,
    Metrics,
    OutputRole,
    RevGate,
    RevLine,
    RevNetlist,
    build_full_adder,
    expand,
    gate_library,
    metrics_of,
    simulate,
    simulate_inverse,
)


def test_every_library_gate_is_a_bijection():
    for gate in gate_library().values():
        assert sorted(gate.mapping) == list(range(1 << gate.arity))


def test_non_bijective_mapping_rejected():
    with pytest.raises(ValueError):
        RevGate("BROKEN", 2, (0, 0, 1, 2))


def test_standard_gate_examples():
    gates = gate_library()
    # pattern index is MSB-first over the line order
    assert gates["TOFFOLI"].mapping[0b110] == 0b111
    assert gates["FREDKIN"].mapping[0b101] == 0b110
    assert gates["FEYNMAN"].mapping[0b11] == 0b10
    assert gates["NOT"].mapping == (1, 0)


def test_compound_gate_mappings_are_frozen():
    lib = gate_library()
    assert list(lib) == ["NOT", "FEYNMAN", "TOFFOLI", "FREDKIN", "NG", "TSG"]
    assert lib["NOT"].mapping == (1, 0)
    assert lib["FEYNMAN"].mapping == (0, 1, 3, 2)
    assert lib["TOFFOLI"].mapping == (0, 1, 2, 3, 4, 5, 7, 6)
    assert lib["FREDKIN"].mapping == (0, 1, 2, 3, 4, 6, 5, 7)
    assert lib["TSG"].mapping == (0, 2, 7, 4, 6, 5, 1, 3, 14, 13, 15, 12, 9, 11, 8, 10)
    assert lib["NG"].mapping == (0, 3, 1, 2, 5, 7, 6, 4)
    assert all(g.name == name for name, g in lib.items())


def test_gate_library_is_the_callers_own():
    nl = export_netlist("mul4")
    want_lib = gate_library()
    want_doc = expand(CellNetlist.from_json(nl.to_json())).to_json()

    lib = gate_library()
    assert lib is not gate_library()
    del lib["TSG"]
    lib["NOT"] = lib["FEYNMAN"]
    lib["EXTRA"] = RevGate("EXTRA", 1, (1, 0))

    assert gate_library() == want_lib
    assert list(gate_library()) == list(want_lib)
    assert expand(CellNetlist.from_json(nl.to_json())).to_json() == want_doc
    assert RevNetlist.from_json(want_doc).to_json() == want_doc
    extra = json.loads(json.dumps(want_doc))
    extra["gates"][0]["name"] = "EXTRA"
    with pytest.raises(ValueError, match="unknown gate 'EXTRA'"):
        RevNetlist.from_json(extra)


def test_every_exported_name_resolves():
    import cifm

    modules = [cifm] + [
        importlib.import_module(f"cifm.{info.name}")
        for info in pkgutil.iter_modules(cifm.__path__)
        if info.name != "__main__"
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {"cifm", "cifm.bitcore", "cifm.revlogic"} <= {m.__name__ for m in exporting}
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # the package exports every module's public names, once each, and no other
    sources = ("bitcore", "multiplier", "fp32", "softfloat", "revlogic", "verify")
    assert {m.__name__ for m in exporting} == {"cifm", *(f"cifm.{s}" for s in sources)}
    assert len(set(cifm.__all__)) == len(cifm.__all__)
    assert set(cifm.__all__) == {"__version__"}.union(
        *(importlib.import_module(f"cifm.{s}").__all__ for s in sources))


@pytest.mark.parametrize("name", ["fp32", "softfloat", "revlogic", "verify"])
def test_a_lazy_module_loads_by_name(name, monkeypatch):
    import cifm

    module = importlib.import_module(f"cifm.{name}")
    # without the attribute that importing it left, cifm.__getattr__ resolves the name
    monkeypatch.delattr(cifm, name)
    assert name not in vars(cifm)
    assert getattr(cifm, name) is module


def test_test_oracles_are_not_in_the_library():
    # the width classifier is a test oracle (tests/width_oracle.py): the
    # library keeps one classifier per rule
    import cifm
    import cifm.bitcore
    import cifm.fp32
    import cifm.multiplier

    for module in (cifm, cifm.bitcore, cifm.multiplier, cifm.fp32):
        for name in ("classify_width", "INNER_CLASSES", "OUTER_CLASSES", "unpack"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())
    assert not hasattr(cifm.fp32, "_special_codes")
    assert "SUBNORMAL" not in cifm.fp32.Fp32Class.__members__


def test_tsg_embeds_a_full_adder():
    tsg = gate_library()["TSG"]
    for a in (0, 1):
        for b in (0, 1):
            for d in (0, 1):
                out = tsg.mapping[(a << 3) | (b << 2) | (0 << 1) | d]
                r, s = (out >> 1) & 1, out & 1
                assert r == (a + b + d) & 1
                assert s == (a + b + d) >> 1


def test_new_gate_embeds_a_half_adder():
    ng = gate_library()["NG"]
    for a in (0, 1):
        for b in (0, 1):
            out = ng.mapping[(a << 2) | (b << 1)]
            q, r = (out >> 1) & 1, out & 1
            assert q == a & b
            assert r == a ^ b


FA_METRICS = {
    FullAdderVariant.TSG: (1, 2, 1),
    FullAdderVariant.NG_NG_FEYNMAN: (3, 3, 3),
    FullAdderVariant.NG_TOFFOLI_FEYNMAN: (3, 2, 3),
    FullAdderVariant.FREDKIN5: (5, 5, 5),
}


@pytest.mark.parametrize("variant", list(FullAdderVariant), ids=lambda v: v.value)
def test_full_adder_metrics(variant):
    m = metrics_of(build_full_adder(variant))
    assert (m.gate_count, m.garbage_count, m.unit_delay) == FA_METRICS[variant]


@pytest.mark.parametrize("variant", list(FullAdderVariant), ids=lambda v: v.value)
def test_full_adder_truth_table(variant):
    fa = build_full_adder(variant)
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                out = simulate(fa, {"a": a, "b": b, "cin": cin}).outputs
                assert int(out["sum"]) == (a + b + cin) & 1
                assert int(out["carry"]) == (a + b + cin) >> 1


@pytest.mark.parametrize("variant", list(FullAdderVariant), ids=lambda v: v.value)
@given(a=st.integers(0, 1), b=st.integers(0, 1), cin=st.integers(0, 1))
def test_full_adder_roundtrip(variant, a, b, cin):
    fa = build_full_adder(variant)
    fwd = simulate(fa, {"a": a, "b": b, "cin": cin})
    back = simulate_inverse(fa, fwd.line_values)
    want = [
        {"a": a, "b": b, "cin": cin}[l.name] if l.name else l.const
        for l in fa.lines
    ]
    assert [int(v) for v in back] == want


def test_simulate_requires_every_input():
    fa = build_full_adder(FullAdderVariant.TSG)
    with pytest.raises(ValueError, match="missing"):
        simulate(fa, {"a": 1, "b": 0})


def test_feynman_chain_delay_counts_gates():
    lib = gate_library()
    n = RevNetlist()
    x = n.add_input("x")
    y = n.add_input("y")
    for _ in range(6):
        n.apply(lib["FEYNMAN"], x, y)
    n.set_output(y, "out")
    assert metrics_of(n).unit_delay == 6


def test_empty_netlist_is_identity():
    n = RevNetlist()
    x = n.add_input("x")
    n.set_output(x, "out")
    assert int(simulate(n, {"x": 1}).outputs["out"]) == 1
    assert simulate_inverse(n, (1,)) == [1]
    assert metrics_of(n).unit_delay == 0


def test_double_feynman_is_identity():
    lib = gate_library()
    n = RevNetlist()
    x = n.add_input("x")
    y = n.add_input("y")
    n.apply(lib["FEYNMAN"], x, y)
    n.apply(lib["FEYNMAN"], x, y)
    n.set_output(y, "out")
    for vx in (0, 1):
        for vy in (0, 1):
            assert int(simulate(n, {"x": vx, "y": vy}).outputs["out"]) == vy


def test_apply_rejects_repeated_lines():
    lib = gate_library()
    n = RevNetlist()
    x = n.add_input("x")
    with pytest.raises(ValueError):
        n.apply(lib["FEYNMAN"], x, x)


def _expanded_single(kind: CellKind) -> RevNetlist:
    b = NetlistBuilder()
    if kind is CellKind.AND:
        a = b.input_bus("a", 1)
        c = b.input_bus("b", 1)
        out = b.and2(a[0], c[0])
        b.set_outputs("p", [out])
    elif kind is CellKind.HA:
        a = b.input_bus("a", 1)
        c = b.input_bus("b", 1)
        s, cy = b.ha(a[0], c[0])
        b.set_outputs("p", [s, cy])
    else:
        a = b.input_bus("a", 1)
        c = b.input_bus("b", 1)
        d = b.input_bus("c", 1)
        s, cy = b.fa(a[0], c[0], d[0])
        b.set_outputs("p", [s, cy])
    return expand(b.build())


def test_expand_cell_for_cell():
    # one classical cell maps to exactly one reversible gate when nothing
    # fans out
    for kind, garbage in ((CellKind.AND, 2), (CellKind.HA, 1), (CellKind.FA, 2)):
        m = metrics_of(_expanded_single(kind))
        assert m.gate_count == 1
        assert m.garbage_count == garbage


def test_expand_garbage_formula_on_ripple_adder():
    # no-fanout ripple adder: garbage = 2*FA + 1*HA + 2*AND by construction
    b = NetlistBuilder()
    a = b.input_bus("a", 4)
    c = b.input_bus("b", 4)
    s0, carry = b.ha(a[0], c[0])
    outs = [s0]
    for k in (1, 2, 3):
        sk, carry = b.fa(a[k], c[k], carry)
        outs.append(sk)
    outs.append(carry)
    b.set_outputs("s", outs)
    rev = expand(b.build())
    m = metrics_of(rev)
    assert m.gate_count == 4
    assert m.garbage_count == 2 * 3 + 1 * 1 + 2 * 0
    for x in range(16):
        for y in range(16):
            ins = {f"a{k}": (x >> k) & 1 for k in range(4)}
            ins |= {f"b{k}": (y >> k) & 1 for k in range(4)}
            out = simulate(rev, ins).outputs
            got = sum(int(out[f"s{k}"]) << k for k in range(5))
            assert got == x + y


def test_expand_copies_fanned_out_nets():
    # one AND output feeding two HA cells forces a single Feynman copy
    b = NetlistBuilder()
    a = b.input_bus("a", 1)
    c = b.input_bus("b", 1)
    shared = b.and2(a[0], c[0])
    s1, c1 = b.ha(shared, a[0])
    s2, c2 = b.ha(shared, c[0])
    b.set_outputs("p", [s1, c1, s2, c2])
    rev = expand(b.build())
    names = [g.gate.name for g in rev.gates]
    assert names.count("FEYNMAN") == 3  # shared once, each input once
    for x in (0, 1):
        for y in (0, 1):
            out = simulate(rev, {"a0": x, "b0": y}).outputs
            assert int(out["p0"]) == (x & y) ^ x
            assert int(out["p1"]) == (x & y) & x
            assert int(out["p2"]) == (x & y) ^ y
            assert int(out["p3"]) == (x & y) & y


def test_expand_keeps_every_output_on_one_net():
    # p0 and p1 on one net used to share one line, whose second label replaced the first
    nl = CellNetlist(inputs=[("a", ["a0", "a1"])],
                     cells=[Cell(CellKind.AND, ("a0", "a1"), ("c",))],
                     outputs=[("p0", "c"), ("p1", "c"), ("q", "a0")])
    assert nl.evaluate({"a": 3}) == 7
    rev = expand(nl)
    assert [name for name, _ in rev.outputs()] == ["q", "p0", "p1"]
    for a in range(4):
        nets = nl.evaluate_nets({"a": a})
        ins = {"a0": a & 1, "a1": a >> 1}
        res = simulate(rev, ins)
        assert res.outputs == {name: nets[net] for name, net in nl.outputs}
        start = [ins[line.name] if line.name is not None else line.const for line in rev.lines]
        assert simulate_inverse(rev, res.line_values) == start


def test_expanded_mul4_equals_block_datapath():
    rev = expand(export_netlist("mul4"))
    idx = np.arange(256, dtype=np.int64)
    a, b = idx & 0xF, (idx >> 4) & 0xF
    ins = {f"a{k}": (a >> k) & 1 for k in range(4)}
    ins |= {f"b{k}": (b >> k) & 1 for k in range(4)}
    res = simulate(rev, ins)
    got = sum(res.outputs[f"p{k}"].astype(np.int64) << k for k in range(8))
    assert np.array_equal(got, a * b)
    back = simulate_inverse(rev, res.line_values)
    for i, line in enumerate(rev.lines):
        want = ins[line.name] if line.name is not None else line.const
        assert np.all(back[i] == want)


def test_expanded_mul4_metrics_are_stable():
    m1 = metrics_of(expand(export_netlist("mul4")))
    m2 = metrics_of(expand(export_netlist("mul4")))
    assert m1 == m2
    assert m1.gate_count == 57
    assert m1.unit_delay == 12


def scanned_metrics(n: RevNetlist) -> Metrics:
    """metrics_of by scanning the circuit's lists, as a reference: garbage
    counts the GARBAGE roles, ancilla the ANCILLA lines, and the unit delay
    is the deepest primary-output line's chain."""
    depth = [0] * len(n.lines)
    for app in n.gates:
        level = 1 + max(depth[l] for l in app.lines)
        for l in app.lines:
            depth[l] = level
    roles = [role for role, _ in n.output_roles]
    return Metrics(
        len(n.gates),
        roles.count(OutputRole.GARBAGE),
        [line.tag for line in n.lines].count(LineTag.ANCILLA),
        max((depth[i] for i, role in enumerate(roles) if role is OutputRole.PRIMARY_OUTPUT),
            default=0),
    )


SHIPPED = [*(f"fa:{v.value}" for v in FullAdderVariant), "mul4", "mul12", "mul24"]


def shipped(name: str) -> RevNetlist:
    if name.startswith("fa:"):
        return build_full_adder(FullAdderVariant(name[3:]))
    return expand(export_netlist(name))


@pytest.mark.parametrize("name", SHIPPED)
def test_metrics_of_every_shipped_circuit_match_a_scan(name):
    n = shipped(name)
    assert metrics_of(n) == scanned_metrics(n)
    # a circuit read back from its document counts the same
    assert metrics_of(RevNetlist.from_json(n.to_json())) == scanned_metrics(n)


@pytest.mark.parametrize("level", ["mul4", "mul12"])
def test_metrics_of_an_expansion_follow_its_edits(level):
    nl = export_netlist(level)
    template = metrics_of(expand(nl))
    rev = expand(nl)
    metrics_of(rev)                     # the counts are kept before the edits
    garbage = next(i for i, (role, _) in enumerate(rev.output_roles)
                   if role is OutputRole.GARBAGE)
    output = rev.outputs()[0][1]
    for edit in (lambda: rev.set_output(garbage, "extra"),
                 lambda: rev.set_output(output, "renamed"),     # still one output
                 lambda: rev.add_input("z"),
                 lambda: rev.add_ancilla(0),
                 lambda: rev.add_ancilla(1),
                 lambda: rev.apply(gate_library()["FEYNMAN"], 0, len(rev.lines) - 1),
                 lambda: rev.set_output(len(rev.lines) - 2, "z_out")):
        edit()
        assert metrics_of(rev) == scanned_metrics(rev)
    assert metrics_of(rev).garbage_count == template.garbage_count + 3 - 2
    assert metrics_of(rev).ancilla_count == template.ancilla_count + 2
    assert metrics_of(expand(nl)) == template


def test_expanded_mul24_random_spot():
    rev = expand(export_netlist("mul24"))
    rng = np.random.default_rng(5)
    a = rng.integers(0, 1 << 24, size=50, dtype=np.int64)
    b = rng.integers(0, 1 << 24, size=50, dtype=np.int64)
    ins = {f"a{k}": (a >> k) & 1 for k in range(24)}
    ins |= {f"b{k}": (b >> k) & 1 for k in range(24)}
    res = simulate(rev, ins)
    got = sum(res.outputs[f"p{k}"].astype(np.int64) << k for k in range(48))
    assert np.array_equal(got, a * b)


def _small_circuit() -> RevNetlist:
    n = RevNetlist()
    n.add_input("x")
    n.add_ancilla(0)
    return n


def _doc_with_gate(name: str) -> dict:
    doc = _small_circuit().to_json()
    doc["gates"] = [{"name": name, "lines": [0, 1], "ordinal": 0}]
    return doc


@pytest.mark.parametrize(
    "bad",
    [
        lambda n: n.apply(gate_library()["FEYNMAN"], 0.0, 1),
        lambda n: n.apply(gate_library()["FEYNMAN"], True, 0),
        lambda n: n.apply(gate_library()["NOT"], "a"),
        lambda n: n.apply(gate_library()["FEYNMAN"], 0, 2),
        lambda n: n.set_output(2, "p"),
        lambda n: n.set_output(-1, "p"),
        lambda n: n.set_output(0, None),
        lambda n: n.set_output(0, 5),
        lambda n: n.add_ancilla(True),
        lambda n: n.add_ancilla(2),
        lambda n: n.add_ancilla(0.0),
        lambda n: RevNetlist.from_json(_doc_with_gate("SWAP")),
        lambda n: RevNetlist.from_json(
            {"lines": [{"tag": "bogus", "const": 0}], "gates": [], "output_roles": []}),
        lambda n: RevGate("x", 1, 5),
        lambda n: RevGate("x", 1.5, (0, 1)),
        lambda n: RevGate("x", True, (1, 0)),
        lambda n: RevGate("x", 1, (0, "1")),
        lambda n: simulate(n, 5),
        lambda n: simulate(n, ["x"]),
        lambda n: simulate_inverse(n, None),
        lambda n: simulate_inverse(n, np.array(5)),
        lambda n: n.add_input(None),
        lambda n: n.add_input(5),
        lambda n: build_full_adder("fa-tsg"),
    ],
    ids=["float-line", "bool-line", "str-line", "line-out-of-range",
         "output-out-of-range", "output-negative", "output-named-none",
         "output-named-int", "bool-ancilla", "ancilla-2",
         "float-ancilla", "unknown-gate", "unknown-line-tag", "int-mapping",
         "float-arity", "bool-arity", "str-in-mapping", "int-inputs", "list-inputs",
         "none-final-values", "0d-final-values", "input-without-name",
         "input-named-int", "unknown-full-adder-variant"],
)
def test_bad_circuit_input_is_value_error(bad):
    n = _small_circuit()
    before = n.to_json()
    with pytest.raises(ValueError):
        bad(n)
    assert n.to_json() == before


def _without(doc: dict, part: str, key: str) -> dict:
    doc[part][0].pop(key)
    return doc


def _with(doc: dict, part: str, **fields) -> dict:
    doc[part][0].update(fields)
    return doc


@pytest.mark.parametrize(
    "cls, doc",
    [
        (RevNetlist, {"lines": [{"tag": "input"}], "gates": [], "output_roles": []}),
        (CellNetlist, _without(export_netlist("mul4").to_json(), "inputs", "nets")),
        (RevNetlist, _without(_doc_with_gate("FEYNMAN"), "gates", "ordinal")),
        (RevNetlist, []),
        (CellNetlist, []),
        (CellNetlist, _with(export_netlist("mul4").to_json(), "inputs", width=3)),
        (CellNetlist, _with(export_netlist("mul4").to_json(), "cells", level="L")),
        (CellNetlist, _with(export_netlist("mul4").to_json(), "cells", ins=["n0"])),
        (RevNetlist, _with(_small_circuit().to_json(), "output_roles", role="output")),
        (RevNetlist, _with(_small_circuit().to_json(), "output_roles", role="output",
                           name=5)),
    ],
    ids=["line-without-name", "bus-without-nets", "gate-without-ordinal",
         "circuit-list", "netlist-list", "bus-width-not-its-nets", "str-level",
         "cell-with-one-input", "output-named-none", "output-named-int"],
)
def test_malformed_json_is_value_error(cls, doc):
    with pytest.raises(ValueError, match="malformed"):
        cls.from_json(doc)


def test_numpy_ints_are_accepted_as_lines_and_constants():
    n = _small_circuit()
    z = n.add_ancilla(np.int64(1))
    n.apply(gate_library()["FEYNMAN"], np.int64(z), np.intp(0))
    n.set_output(np.int64(0), "x_xor_1")
    assert RevNetlist.from_json(json.loads(json.dumps(n.to_json()))) == n
    assert simulate(n, {"x": 0}).outputs == {"x_xor_1": 1}


def test_ancilla_line_stores_a_numpy_constant_as_an_int():
    # RevLine used to reject a numpy constant that add_ancilla accepted
    for const in (np.uint8(1), np.int64(0)):
        line = RevLine(LineTag.ANCILLA, const=const)
        assert type(line.const) is int and line.const == const
    for bad in (2, True, None, 0.0):
        with pytest.raises(ValueError):
            RevLine(LineTag.ANCILLA, const=bad)


@pytest.mark.parametrize("tag", ["bogus", "ancilla", None, 1], ids=repr)
def test_line_tag_that_is_not_a_line_tag_is_value_error(tag):
    # a bad tag used to be stored, and to_json later raised AttributeError
    with pytest.raises(ValueError, match="tag"):
        RevLine(tag, const=7)
    with pytest.raises(ValueError, match="tag"):
        RevLine(tag, name="x")


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: expand(None), "CellNetlist"),
        (lambda: expand("mul4"), "CellNetlist"),
        (lambda: simulate(None, {}), "RevNetlist"),
        (lambda: simulate(export_netlist("mul4"), {}), "RevNetlist"),
        (lambda: simulate_inverse(None, []), "RevNetlist"),
        (lambda: metrics_of("x"), "RevNetlist"),
        (lambda: metrics_of(export_netlist("mul4")), "RevNetlist"),
        (lambda: RevNetlist().apply(None, 0), "RevGate"),
    ],
    ids=["expand-none", "expand-str", "simulate-none", "simulate-cell-netlist",
         "simulate-inverse-none", "metrics-str", "metrics-cell-netlist", "apply-none"],
)
def test_wrong_typed_circuit_argument_is_value_error(call, expected):
    # each of these used to leak AttributeError
    with pytest.raises(ValueError, match=f"must be a {expected}"):
        call()
