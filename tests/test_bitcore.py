import operator
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
from cifm.multiplier import GRID_IDS, FaultSpec, ModuleId, Quadrant, mul4, mul12, mul24
from cifm.revlogic import LineTag, RevGate, RevLine, RevNetlist, gate_library
from cifm.verify import SUITES, run_suite
from width_oracle import classify_width


def test_bitvec_basics():
    v = BitVec(0b1011, 4)
    assert int(v) == 11
    assert str(v) == "0xb/4"


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


def test_uint_rows_stacks_mixed_signed_and_unsigned_operands():
    top = 2**63 - 1
    a = np.array([1, 2], dtype=np.int64)
    b = np.array([top, 0], dtype=np.uint64)
    rows, shape = uint_rows((a, b), (4, 64), "ab".__getitem__)
    assert rows.dtype == np.int64 and shape == (2,)
    assert rows.tolist() == [[1, 2], [top, 0]]
    with pytest.raises(ValueError, match="b has elements outside"):
        uint_rows((a, b + np.uint64(1)), (4, 64), "ab".__getitem__)


def test_evaluate_nets_gives_int64_arrays_for_any_batch():
    nl = _ripple2().build()
    for size in (0, 1, CHUNK_VECTORS + 3):
        a = np.arange(size) % 4
        nets = nl.evaluate_nets({"a": a, "b": 3})
        assert all(v.dtype == np.int64 and v.shape == (size,) for v in nets.values())
        got = sum(nets[net] << k for k, (_, net) in enumerate(nl.outputs))
        assert np.array_equal(got, a + 3)


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
