import copy
import dataclasses
import operator
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifm.bitcore import (
    CHUNK_VECTORS,
    BitVec,
    Cell,
    CellKind,
    CellNetlist,
    NetlistBuilder,
    uint_rows,
)
from cifm.fp32 import fp_mul
from cifm.multiplier import (
    GRID_IDS,
    FaultSpec,
    ModuleId,
    MulResult,
    Quadrant,
    RepairConfig,
    mul4,
    mul12,
    mul24,
)
from cifm.revlogic import (
    GateApp,
    LineTag,
    RevGate,
    RevLine,
    RevNetlist,
    gate_library,
    simulate,
    simulate_inverse,
)
from cifm.verify import SUITES, run_suite
from width_oracle import classify_width


def test_bitvec_basics():
    v = BitVec(0b1011, 4)
    assert int(v) == 11
    assert str(v) == "0xb/4"


@pytest.mark.parametrize("width, text", [
    (2**16, "0x" + "abc".zfill(2**14)),
    (2**16 + 1, "0xabc"),
    (2**70, "0xabc"),
], ids=["bound", "past-the-bound", "2**70"])
def test_bitvec_str_pads_to_the_width_up_to_a_bound(width, text):
    # padded to 2**70 bits, the format spec raised "Too many decimal digits"
    assert str(BitVec(0xABC, width)) == f"{text}/{width}"


def test_bitvec_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitVec(16, 4)
    with pytest.raises(ValueError):
        BitVec(-1, 4)


@pytest.mark.parametrize("value", [1.5, True, "1", None], ids=repr)
def test_bitvec_rejects_non_int_values(value):
    with pytest.raises(ValueError):
        BitVec(value, 8)


@pytest.mark.parametrize("value", [np.uint8(255), np.int64(255), np.uint64(255)],
                         ids=repr)
def test_bitvec_stores_a_numpy_value_as_an_int(value):
    # int() and operator.index() used to raise TypeError: __int__ returned non-int
    v = BitVec(value, 8)
    assert type(v.value) is int
    assert int(v) == operator.index(v) == 255
    assert v == BitVec(255, 8)


_RESULT = mul24(0x12, 0x345)
# Per record: its fields by keyword, the same fields built from numpy ints,
# one changed field, and the ValueError message for each bad set of
# positional arguments.
RECORDS = {
    "bitvec": (
        BitVec, dict(value=5, width=8), dict(value=np.uint8(5), width=np.int64(8)),
        dict(value=6),
        [((True, 8), "value must be an int, got bool"),
         ((1, True), "width must be an int, got bool"),
         ((1.0, 8), "value must be an int, got float"),
         ((1, 8.0), "width must be an int, got float"),
         ((-1, 8), "value -0x1 does not fit in 8 bits"),
         ((256, 8), "value 0x100 does not fit in 8 bits"),
         ((0, 0), "width must be a positive int, got 0"),
         ((0, -4), "width must be a positive int, got -4")],
    ),
    "mul-result": (
        MulResult,
        dict(product=_RESULT.product, activity=_RESULT.activity, unrepaired_faults=()),
        dict(product=BitVec(np.uint64(0x12 * 0x345), np.int64(48)), activity=_RESULT.activity,
             unrepaired_faults=()),
        dict(unrepaired_faults=(GRID_IDS[Quadrant.LL][(0, 0)],)),
        [],
    ),
    "cell": (
        Cell,
        dict(kind=CellKind.FA, inputs=("a", "b", "c"), outputs=("s", "co"), level=2,
             module_id="LL.0.1"),
        dict(kind=CellKind.FA, inputs=("a", "b", "c"), outputs=("s", "co"), level=np.int64(2),
             module_id="LL.0.1"),
        dict(level=3),
        [(("AND", ("a", "b"), ("p",)), "kind must be a CellKind, got 'AND'"),
         ((None, ("a", "b"), ("p",)), "kind must be a CellKind, got None"),
         ((CellKind.AND, ["a", "b"], ("p",)),
          "cell nets must be tuples of str, got ['a', 'b'] -> ('p',)"),
         ((CellKind.AND, ("a", "b"), "p"), "cell nets must be tuples of str, got ('a', 'b') -> 'p'"),
         ((CellKind.AND, ("a", 1), ("p",)), "cell nets must be tuples of str, got ('a', 1) -> ('p',)"),
         ((CellKind.HA, ("a", "b"), ("s",)), "HA cell needs 2 inputs and 2 outputs, got 2/1"),
         ((CellKind.FA, ("a", "b"), ("s", "co")), "FA cell needs 3 inputs and 2 outputs, got 2/2"),
         ((CellKind.AND, ("a", "b"), ("p",), True), "level must be an int, got bool"),
         ((CellKind.AND, ("a", "b"), ("p",), "1"), "level must be an int, got str"),
         ((CellKind.AND, ("a", "b"), ("p",), 0, 5), "cell module_id must be None or a str, got 5")],
    ),
    "gate-app": (
        GateApp,
        dict(gate=gate_library()["TOFFOLI"], lines=(0, 1, 2)),
        # a gate built from numpy ints stores Python ints, so it is the library's
        dict(gate=RevGate("TOFFOLI", np.int64(3), np.array(gate_library()["TOFFOLI"].mapping)),
             lines=(0, 1, 2)),
        dict(lines=(2, 1, 0)),
        [],
    ),
}


@pytest.mark.parametrize("record, fields, numpy_fields, change, errors", RECORDS.values(),
                         ids=list(RECORDS))
def test_records_with_written_out_constructors_behave_as_dataclasses(
    record, fields, numpy_fields, change, errors
):
    r = record(**fields)
    assert r == record(*fields.values())
    assert [f.name for f in dataclasses.fields(r)] == list(fields)
    assert {name: getattr(r, name) for name in fields} == fields
    assert repr(r) == f"{record.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    changed = dataclasses.replace(r, **change)
    assert type(changed) is record
    assert changed == record(**{**fields, **change}) != r
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is record
        assert twin == r and hash(twin) == hash(r)
    from_numpy = record(**numpy_fields)
    assert from_numpy == r and hash(from_numpy) == hash(r) and repr(from_numpy) == repr(r)
    for name, value in numpy_fields.items():
        if isinstance(value, np.integer):
            assert type(getattr(from_numpy, name)) is int
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, fields[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
    assert r == record(**fields)
    for args, message in errors:
        with pytest.raises(ValueError) as info:
            record(*args)
        assert str(info.value) == message


HASHED_CALLS = {
    "mul24": lambda: mul24(1, 2),
    "mul24-faulted-repaired": lambda: mul24(
        0xABCDEF, 0xFEDCBA, [FaultSpec(GRID_IDS[Quadrant.HL][(1, 2)], 0x5A)],
        {Quadrant.HL: RepairConfig(True, GRID_IDS[Quadrant.HL][(1, 2)])}),
    "mul12-faulted": lambda: mul12(0xA5C, 0xFFF, [FaultSpec(GRID_IDS[Quadrant.LL][(2, 1)], 0x11)]),
    "mul4": lambda: mul4(0xF, 0xD),
    "fp_mul": lambda: fp_mul(0x3F800000, 0x40000000)[1],
    "fp_mul-special": lambda: fp_mul(0x7F800000, 0)[1],
}


@pytest.mark.parametrize("call", HASHED_CALLS.values(), ids=list(HASHED_CALLS))
def test_results_reports_and_traces_hash_as_the_records_of_their_fields(call):
    # a report's adder_levels_active is a dict: the hash leaves it out, == does not
    result = call()
    for record in (result, result.activity):
        if record is None:                  # a special pair's trace has no activity
            continue
        cls = type(record).__mro__[-2]      # the dataclass under a deferred record
        eager = cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})
        assert type(eager) is cls and record == eager and hash(record) == hash(eager)
    assert len({call(), call()}) == len({call().activity, call().activity}) == 1


@pytest.mark.parametrize("width", [8.5, "8", True, False, None, 0, -1], ids=repr)
def test_bitvec_rejects_widths_that_are_not_positive_ints(width):
    # 8.5 and "8" used to raise TypeError, and True was taken as width 1
    with pytest.raises(ValueError, match="width"):
        BitVec(1, width)


def _three_lines() -> RevNetlist:
    n = RevNetlist()
    for name in "xyz":
        n.add_input(name)
    return n


def _applied_line(x) -> int:
    n = _three_lines()
    n.apply(gate_library()["NOT"], x)
    return n.gates[0].lines[0]


def _output_line(x) -> int:
    n = _three_lines()
    n.set_output(x, "p")
    return n.outputs()[0][1]


def _suite_seed(x) -> int:
    with mock.patch.dict(SUITES, {"seed": lambda seed: seed}):
        return run_suite("seed", x)


# Every entry point that takes one scalar integer: (lowest, highest, a call
# that returns the integer as stored or used).
SCALAR_INTS = {
    "bitvec-value": (0, 255, lambda x: BitVec(x, 8).value),
    "bitvec-width": (1, 100, lambda x: BitVec(1, x).width),
    "mul4-a": (0, 15, lambda x: mul4(x, 1).product.value),
    "mul4-b": (0, 15, lambda x: mul4(1, x).product.value),
    "mul12-a": (0, 2**12 - 1, lambda x: mul12(x, 1).product.value),
    "mul12-b": (0, 2**12 - 1, lambda x: mul12(1, x).product.value),
    "mul24-a": (0, 2**24 - 1, lambda x: mul24(x, 1).product.value),
    "mul24-b": (0, 2**24 - 1, lambda x: mul24(1, x).product.value),
    "fp-mul-a": (0, 2**32 - 1, lambda x: fp_mul(x, 0x3F800000)[0].value),
    "fp-mul-b": (0, 2**32 - 1, lambda x: fp_mul(0x3F800000, x)[0].value),
    "module-id-row": (0, 2, lambda x: ModuleId(Quadrant.LL, x, 0).row),
    "module-id-col": (0, 2, lambda x: ModuleId(Quadrant.LL, 0, x).col),
    "fault-forced-output": (
        0, 255, lambda x: FaultSpec(GRID_IDS[Quadrant.LL][(0, 0)], x).forced_output.value),
    "apply-line": (0, 2, _applied_line),
    "set-output-line": (0, 2, _output_line),
    "ancilla-constant": (0, 1, lambda x: RevLine(LineTag.ANCILLA, const=x).const),
    "gate-arity": (1, 1, lambda x: RevGate("NOT", x, (1, 0)).arity),
    "run-suite-seed": (0, 2**64 - 1, _suite_seed),
}
NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NOT_INTS = (True, np.True_, 1.0, np.float64(1), "1", None, BitVec(1, 3))


@pytest.mark.parametrize("entry", SCALAR_INTS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_every_scalar_int_entry_point_follows_one_rule(entry, data):
    # BitVec(1, np.int64(8)) used to raise while BitVec(np.int64(1), 8) passed
    low, high, call = SCALAR_INTS[entry]
    dtype = data.draw(st.sampled_from(NUMPY_INTS))
    x = dtype(data.draw(st.integers(low, min(high, int(np.iinfo(dtype).max)))))
    got = call(x)
    assert type(got) is int and got == call(int(x))
    for bad in NOT_INTS:
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("dtype", NUMPY_INTS, ids=lambda d: d.__name__)
def test_uint_rows_stacks_a_sequence_as_int64(dtype):
    a = np.array([[0, 1, 100], [127, 5, 6]], dtype=dtype)
    rows, shape = uint_rows((a, dtype(7), np.array(3, dtype)), (8, 3, 2), "abc".__getitem__)
    assert rows.dtype == np.int64 and shape == (2, 3)
    assert rows.tolist() == [[0, 1, 100, 127, 5, 6], [7] * 6, [3] * 6]


@pytest.mark.parametrize("dtype", NUMPY_INTS, ids=lambda d: d.__name__)
def test_uint_rows_keeps_one_stacked_array_as_it_is(dtype):
    stack = np.arange(24, dtype=dtype).reshape(2, 3, 4) & 1
    rows, shape = uint_rows(stack, (1, 1), "line {}".format)
    assert rows.dtype == dtype and shape == (3, 4)
    assert np.shares_memory(rows, stack)
    assert rows.tolist() == stack.reshape(2, 12).tolist()
    rows, shape = uint_rows(stack[:, :0], (1, 1), "line {}".format)
    assert rows.shape == (2, 0) and shape == (0, 4)
    info = np.iinfo(dtype)
    for line, value in ((1, 2), (1, info.max), (0, info.min or 2)):
        bad = stack.copy()
        bad[line, 2, 3] = dtype(value)
        with pytest.raises(ValueError, match=rf"line {line} has elements outside 0\.\.2\*\*1-1"):
            uint_rows(bad, (1, 1), "line {}".format)


def test_uint_rows_stacks_mixed_signed_and_unsigned_operands():
    top = 2**63 - 1
    a = np.array([1, 2], dtype=np.int64)
    b = np.array([top, 0], dtype=np.uint64)
    rows, shape = uint_rows((a, b), (4, 64), "ab".__getitem__)
    assert rows.dtype == np.int64 and shape == (2,)
    assert rows.tolist() == [[1, 2], [top, 0]]
    with pytest.raises(ValueError, match="b has elements outside"):
        uint_rows((a, b + np.uint64(1)), (4, 64), "ab".__getitem__)
    stack = np.array([[0, 1], [2**63, 0]], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"line 1 has elements outside 0\.\.2\*\*64-1"):
        uint_rows(stack, (1, 64), "line {}".format)
    # one check over the stack; only a stack that fails it is checked row by row
    narrow, wide = np.array([0, 1, 1]), np.array([5, 2**24 - 1, 0])
    rows, shape = uint_rows((narrow, wide), (1, 24), "ab".__getitem__)
    assert rows.tolist() == [[0, 1, 1], [5, 2**24 - 1, 0]] and shape == (3,)
    for bad, operand, width in (((narrow + 1, wide), "a", 1), ((narrow, wide + 1), "b", 24),
                                ((narrow - 1, wide), "a", 1), ((narrow, -wide), "b", 24),
                                ((narrow + 1, -wide), "a", 1)):
        message = rf"^{operand} has elements outside 0\.\.2\*\*{width}-1$"
        with pytest.raises(ValueError, match=message):
            uint_rows(bad, (1, 24), "ab".__getitem__)
    rows, shape = uint_rows((np.array([], dtype=np.int64), 5), (4, 2), "ab".__getitem__)
    assert rows.shape == (2, 0) and shape == (0,)


class _NoMin(np.ndarray):
    def min(self, *args, **kwargs):
        raise AssertionError("min of an unsigned stack")


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
def test_an_unsigned_stack_that_passes_takes_only_its_maximum(dtype):
    stack = np.array([[0, 1, 1], [3, 0, 2]], dtype=dtype).view(_NoMin)
    rows, shape = uint_rows(stack, (1, 2), "line {}".format)
    assert rows.tolist() == [[0, 1, 1], [3, 0, 2]] and shape == (3,)
    high = np.array([[0, 1], [0, 2**63]], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"^line 1 has elements outside 0\.\.2\*\*64-1$"):
        uint_rows(high, (1, 64), "line {}".format)


def test_evaluate_nets_gives_int64_arrays_for_any_batch():
    nl = _ripple2().build()
    for size in (0, 1, CHUNK_VECTORS + 3):
        a = np.arange(size) % 4
        nets = nl.evaluate_nets({"a": a, "b": 3})
        assert all(v.dtype == np.int64 and v.shape == (size,) for v in nets.values())
        got = sum(nets[net] << k for k, (_, net) in enumerate(nl.outputs))
        assert np.array_equal(got, a + 3)


def test_net_values_print_as_the_dict_they_stand_for():
    nl = _ripple2().build()
    nets = nl.evaluate_nets({"a": 2, "b": 3})
    assert repr(nets) == f"_NetValues({dict(nets)!r})"


def _with_first(doc: dict, key: str, value) -> dict:
    return {**doc, key: [value, *doc[key][1:]]}


_CELL_DOC = {"inputs": [{"name": "a", "width": 1, "nets": ["a0"]}],
             "cells": [{"kind": "AND", "ins": ["a0", "a0"], "outs": ["c"], "level": 0,
                        "module_id": "LL:0:0"}],
             "outputs": [{"name": "p0", "net": "a0"}, {"name": "p1", "net": "c"}]}
_REV_DOC = {"lines": [{"name": "x", "tag": "input"}], "gates": [],
            "output_roles": []}


def _not_gate_on_one(gate: RevGate) -> bool:
    """True when ``gate`` is NOT, stored as a tuple of ints, and a circuit
    applying it to x=1 runs forward to 0 and back to 1."""
    n = RevNetlist()
    n.apply(gate, n.add_input("x"))
    forward = simulate(n, {"x": 1}).line_values
    return (gate == gate_library()["NOT"] and all(type(o) is int for o in gate.mapping)
            and forward == (0,) and simulate_inverse(n, forward) == [1])


def _str_nets_doc(nets=("x", "y"), ins=("x", "y"), outs=("z",)) -> dict:
    """A one-AND netlist document; given as one str, "nets", "ins" or "outs"
    used to be split into one-character nets and load."""
    return {"inputs": [{"name": "a", "width": 2, "nets": nets}],
            "cells": [{"kind": "AND", "ins": ins, "outs": outs, "level": 0, "module_id": None}],
            "outputs": [{"name": "p", "net": "z"}]}


# Inputs that used to raise OverflowError, MemoryError, IndexError or
# TypeError, or were taken for something else: (call, message), where a
# message of None means the call must succeed and return a true value.
ODD_INPUTS = {
    "bitvec-width-2**70": (lambda: BitVec(1, 2**70).width == 2**70, None),
    "bitvec-width-uint64": (lambda: type(BitVec(1, np.uint64(2**63)).width) is int, None),
    "bitvec-value-2**70": (lambda: BitVec(2**70, 70), "does not fit"),
    "gate-arity-2**70": (lambda: RevGate("g", 2**70, (1, 0)), "not a bijection"),
    "gate-arity-negative": (lambda: RevGate("g", -1, ()), "not a bijection"),
    "cell-doc-0d-array": (lambda: CellNetlist.from_json(np.array(3)), "malformed"),
    "cell-doc-numpy-bus": (
        lambda: CellNetlist.from_json(_with_first(_CELL_DOC, "inputs", np.int64(3))), "malformed"),
    "rev-doc-numpy-float": (lambda: RevNetlist.from_json(np.float64(2)), "malformed"),
    "rev-doc-numpy-line": (
        lambda: RevNetlist.from_json(_with_first(_REV_DOC, "lines", np.int64(3))), "malformed"),
    "cell-inputs-none": (lambda: Cell(CellKind.AND, None, ("c",)), "tuples of str"),
    "cell-inputs-str": (lambda: Cell(CellKind.AND, "ab", ("c",)), "tuples of str"),
    "cell-inputs-list": (lambda: Cell(CellKind.AND, ["a", "b"], ("c",)), "tuples of str"),
    "cell-outputs-int": (lambda: Cell(CellKind.AND, ("a", "b"), (3,)), "tuples of str"),
    "bus-width-none": (lambda: NetlistBuilder().input_bus("a", None), "width must be an int"),
    "bus-width-float": (lambda: NetlistBuilder().input_bus("a", 2.0), "width must be an int"),
    "bus-width-negative": (lambda: NetlistBuilder().input_bus("a", -3), "at least 1"),
    "bus-width-zero": (lambda: NetlistBuilder().input_bus("a", 0), "at least 1"),
    "gate-mapping-float": (lambda: RevGate("g", 1, (1.0, 0.0)), "must be an int, got float"),
    "gate-mapping-bool": (lambda: RevGate("g", 1, (True, False)), "must be an int, got bool"),
    "gate-mapping-list": (lambda: _not_gate_on_one(RevGate("NOT", 1, [1, 0])), None),
    "gate-mapping-numpy": (lambda: _not_gate_on_one(RevGate("NOT", 1, np.array([1, 0]))), None),
    "builder-cell-str": (lambda: NetlistBuilder().cell(CellKind.AND, "n0"), "iterable of net"),
    "builder-cell-list": (lambda: NetlistBuilder().cell(CellKind.AND, ["a", "b"]), None),
    "builder-cell-none": (lambda: NetlistBuilder().cell(CellKind.AND, None),
                          "ins must be an iterable of net names, got None"),
    "builder-cell-int": (lambda: NetlistBuilder().cell(CellKind.AND, 5),
                         "ins must be an iterable of net names, got 5"),
    "builder-outputs-none": (lambda: NetlistBuilder().set_outputs("p", None),
                             "nets must be an iterable of net names, got None"),
    "netlist-bus-repeated": (
        lambda: CellNetlist(inputs=[("a", ["n0"]), ("a", ["n1"])]).validate(), "bus name a repeats"),
    "netlist-bus-int": (lambda: CellNetlist(inputs=[(3, ["n0"])]).validate(), "must be a str"),
    "netlist-output-repeated": (
        lambda: CellNetlist([("a", ["n0", "n1"])], [], [("p", "n0"), ("p", "n1")]).validate(),
        "output name p repeats"),
    "netlist-output-none": (
        lambda: CellNetlist([("a", ["n0"])], [], [(None, "n0")]).validate(), "must be a str"),
    "netlist-output-net-list": (
        lambda: CellNetlist([("a", ["n0"])], [], [("p", ["n0"])]).validate(),
        r"output p net must be a str, got \['n0'\]"),
    "netlist-bus-net-list": (
        lambda: CellNetlist([("a", [["n0"]])]).validate(), "bus a net must be a str"),
    "netlist-nets-int": (
        lambda: CellNetlist([("a", [0, 1])], [], [("p", 0)]).validate(),
        "bus a net must be a str, got 0"),
    "netlist-bus-nets-str": (
        lambda: CellNetlist([("a", "xy")], [], [("p", "x"), ("q", "y")]).validate(),
        "bus a nets must be an iterable of net names, got 'xy'"),
    "netlist-output-net-int": (
        lambda: CellNetlist([("a", ["0"])], [], [("p", 0)]).validate(),
        "output p net must be a str, got 0"),
    "cell-doc-nets-list": (
        lambda: CellNetlist.from_json(_str_nets_doc()).evaluate({"a": 3}) == 1, None),
    "cell-doc-nets-str": (
        lambda: CellNetlist.from_json(_str_nets_doc(nets="xy")), "list of net names, got 'xy'"),
    "cell-doc-ins-str": (
        lambda: CellNetlist.from_json(_str_nets_doc(ins="xy")), "list of net names, got 'xy'"),
    "cell-doc-outs-str": (
        lambda: CellNetlist.from_json(_str_nets_doc(outs="z")), "list of net names, got 'z'"),
    "cell-doc-repeated-bus": (
        lambda: CellNetlist.from_json({**_CELL_DOC, "inputs": _CELL_DOC["inputs"] * 2}),
        "repeats"),
    "cell-doc-repeated-output": (
        lambda: CellNetlist.from_json(
            _with_first(_CELL_DOC, "outputs", {"name": "p1", "net": "a0"})), "repeats"),
    "cell-doc-module-id-int": (
        lambda: CellNetlist.from_json(
            _with_first(_CELL_DOC, "cells", {**_CELL_DOC["cells"][0], "module_id": 5})),
        "module_id must be None or a str"),
    "cell-module-id-list": (
        lambda: Cell(CellKind.AND, ("a", "b"), ("c",), module_id=["x"]), "module_id"),
    "cell-module-id-str": (
        lambda: hash(Cell(CellKind.AND, ("a", "b"), ("c",), module_id="LL:0:0")) or True, None),
    "gate-name-int": (lambda: RevGate(5, 1, (1, 0)), "gate name must be a str"),
}


@pytest.mark.parametrize("case", ODD_INPUTS)
def test_odd_inputs_construct_or_raise_value_error(case):
    call, message = ODD_INPUTS[case]
    if message is None:
        assert call()
    else:
        with pytest.raises(ValueError, match=message):
            call()


def test_the_documents_behind_the_odd_inputs_load():
    nl = CellNetlist.from_json(_CELL_DOC)
    assert [nl.evaluate({"a": a}) for a in (0, 1)] == [0, 3]
    assert nl.to_json() == _CELL_DOC
    assert nl.cells[0].module_id == "LL:0:0"
    assert CellNetlist.from_json({**_CELL_DOC, "cells": [
        {**_CELL_DOC["cells"][0], "module_id": None}]}).cells[0].module_id is None
    assert RevNetlist.from_json(_REV_DOC).lines[0].name == "x"


@pytest.mark.parametrize("kind", ["AND", None, 0], ids=repr)
def test_builder_cell_kind_that_is_not_a_cell_kind_is_value_error(kind):
    # a str kind used to raise KeyError: 'AND'
    with pytest.raises(ValueError, match="kind must be a CellKind"):
        NetlistBuilder().cell(kind, ("a", "b"))


def test_classify_width_table():
    classes = (4, 8, 12)
    cases = {0: 4, 1: 4, 15: 4, 16: 8, 255: 8, 256: 12, 4095: 12}
    for value, expect in cases.items():
        assert classify_width(BitVec(value, 12), classes) == expect


def test_classify_width_rejects_oversize():
    with pytest.raises(ValueError):
        classify_width(BitVec(16, 5), (4,))


@pytest.mark.parametrize("x", [5, 5.0, "5", None, True], ids=repr)
def test_classify_width_rejects_values_that_are_not_bitvecs(x):
    with pytest.raises(ValueError):
        classify_width(x, (4, 8))


@pytest.mark.parametrize(
    "classes",
    [4, None, (), ("a",), (4.0, 8.0), (True, 8), [4, "8"], (8, 4), (4, 4)],
    ids=repr,
)
def test_classify_width_rejects_bad_classes(classes):
    with pytest.raises(ValueError):
        classify_width(BitVec(5, 8), classes)


def test_classify_width_takes_a_list_of_ints():
    assert classify_width(BitVec(5, 8), [4, 8]) == 4
    assert classify_width(BitVec(16, 8), [4, np.int64(8)]) == 8


def _ripple2() -> "NetlistBuilder":
    # two-bit ripple adder: HA then FA
    b = NetlistBuilder()
    a = b.input_bus("a", 2)
    c = b.input_bus("b", 2)
    s0, carry = b.ha(a[0], c[0], level=1)
    s1, carry = b.fa(a[1], c[1], carry, level=2)
    b.set_outputs("s", [s0, s1, carry])
    return b


def test_builder_ripple_adder_evaluates():
    net = _ripple2().build()
    for x in range(4):
        for y in range(4):
            assert net.evaluate({"a": x, "b": y}) == x + y


def test_netlist_counts_and_delay():
    net = _ripple2().build()
    assert net.cell_count() == 2
    assert net.unit_delay() == 2


def test_netlist_rejects_double_driver():
    net = CellNetlist(
        inputs=[("a", ["n0"]), ("b", ["n1"])],
        cells=[
            Cell(CellKind.AND, ("n0", "n1"), ("n2",)),
            Cell(CellKind.AND, ("n1", "n0"), ("n2",)),
        ],
        outputs=[("p0", "n2")],
    )
    with pytest.raises(ValueError, match="driven twice"):
        net.validate()
    with pytest.raises(ValueError, match="driven twice"):
        CellNetlist(inputs=[("a", ["n0"]), ("b", ["n0"])]).validate()


def test_netlist_rejects_use_before_definition():
    b = NetlistBuilder()
    a = b.input_bus("a", 1)
    ghost = b.new_net()
    out = b.and2(a[0], ghost)
    b.set_outputs("p", [out])
    with pytest.raises(ValueError):
        b.build()
