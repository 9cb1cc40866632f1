"""Scalar activity reports in chosen scenarios, and the deferred report.

The scenario tests run each plan through ``verify._scalar_plan``, the
``block-paths`` suite's rule: every scalar call must equal the report that
the energised and unrepaired masks of ``mul12_batch``/``mul24_batch`` give.
"""

import dataclasses
import itertools
import operator
import pickle

import numpy as np
import pytest

from cifm import multiplier, verify
from cifm.fp32 import fp_mul
from cifm.multiplier import (
    BLOCK_IDS,
    GRID_IDS,
    SPARE_IDS,
    ActivityReport,
    FaultSpec,
    Quadrant,
    RepairConfig,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)

POSITIONS = [GRID_IDS[q][(i, j)] for q in Quadrant for i in range(3) for j in range(3)]


def _pairs(seed: int, n: int, width: int) -> tuple[list, list]:
    """Corner pairs (zero and non-zero high halves), then random pairs spread
    over the 4-bit magnitude classes."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    corners = [0, 1, 0xF, 0x10, 0xFFF, 0x1000, 0x1001, 0xFFF000, top]
    corners = sorted({c & top for c in corners})
    a = [x for x in corners for _ in corners]
    b = [y for _ in corners for y in corners]
    k = rng.choice(np.arange(0, width + 1, 4), size=(2, n))
    drawn = rng.integers(0, 1 << width, size=(2, n), dtype=np.int64) >> (width - k)
    return a + drawn[0].tolist(), b + drawn[1].tolist()


@pytest.mark.parametrize("gating", [True, False])
def test_fault_free_reports(gating):
    assert verify._scalar_plan(24, *_pairs(1, 150, 24), (), None, gating) == []
    assert verify._scalar_plan(12, *_pairs(2, 100, 12), (), RepairConfig(), gating) == []


@pytest.mark.parametrize("repaired", [False, True], ids=["unrepaired", "repaired"])
def test_every_fault_position(repaired):
    a, b = _pairs(3, 12, 24)
    for n, target in enumerate(POSITIONS):
        faults = [FaultSpec(target, (0xA5, 0x00, 0xFF)[n % 3])]
        repair = {target.quadrant: RepairConfig(True, target)} if repaired else None
        assert verify._scalar_plan(24, a, b, faults, repair, n % 4 != 3) == []


def test_repair_in_a_dark_quadrant():
    target = GRID_IDS[Quadrant.HH][(1, 2)]
    repair = {Quadrant.HH: RepairConfig(True, target)}
    a = [0x000ABC, 0x000ABC, 0xABC000, 0xABCDEF]
    b = [0xABCDEF, 0x000123, 0x000123, 0xFEDCBA]
    assert verify._scalar_plan(24, a, b, [FaultSpec(target, 0x77)], repair, True) == []
    dark = mul24(0x000ABC, 0xABCDEF, repair=repair).activity
    assert target in dark.gated_mul4 and SPARE_IDS[Quadrant.HH] in dark.gated_mul4
    assert not dark.disabled_faulty


def test_repair_of_a_gated_block_in_a_lit_quadrant():
    target = GRID_IDS[Quadrant.LL][(2, 2)]
    repair = {Quadrant.LL: RepairConfig(True, target),
              Quadrant.HL: RepairConfig(True, GRID_IDS[Quadrant.HL][(0, 0)])}
    a = [0x000012, 0x000FFF, 0x001012, 0xFFFFFF]
    b = [0x000034, 0x000005, 0x000FFF, 0xFFFFFF]
    assert verify._scalar_plan(24, a, b, [FaultSpec(target, 0x3C)], repair, True) == []
    report = mul24(0x12, 0x34, repair=repair).activity
    assert report.disabled_faulty == {target}
    assert SPARE_IDS[Quadrant.LL] in report.gated_mul4


@pytest.mark.parametrize("row,col", list(itertools.product(range(3), range(3))))
def test_mul12_with_ll_repairs(row, col):
    target = GRID_IDS[Quadrant.LL][(row, col)]
    a, b = _pairs(10 + 3 * row + col, 20, 12)
    fault = [FaultSpec(target, 0x5A)]
    for repair, gating in ((RepairConfig(True, target), True),
                           (RepairConfig(True, target), False), (RepairConfig(), True)):
        assert verify._scalar_plan(12, a, b, fault, repair, gating) == []


def _pattern_operand(low_groups: int, high_groups: int) -> int:
    """A 24-bit operand whose low half powers ``low_groups`` (1-3) groups and
    whose high half powers ``high_groups`` (0-3)."""
    high = 0 if high_groups == 0 else 1 << 4 * (high_groups - 1)
    return high << 12 | 1 << 4 * (low_groups - 1)


def test_a_report_builds_nothing_until_one_read_fills_every_field():
    operands = [_pattern_operand(lo, hi) for lo in (1, 2, 3) for hi in range(4)]
    reports = []
    for x, y in itertools.product(operands, repeat=2):
        reports.append(mul24(x, y, gating=False).activity)
        for target in POSITIONS:
            repair = {target.quadrant: RepairConfig(True, target)}
            reports.append(mul24(x, y, faults=[FaultSpec(target, 0x11)], repair=repair).activity)
    for x, y in itertools.product(operands[::4], repeat=2):
        for target in POSITIONS[27:]:
            reports.append(mul12(x, y, repair=RepairConfig(True, target)).activity)
    for x, y in itertools.product((0x3F800000, 0x40490FDB, 0x00800000), repeat=2):
        _, trace = fp_mul(x, y)
        assert vars(trace).keys() == {"_inputs"}
        reports.append(trace.activity)
    # a report that is never read holds only the inputs it was made from
    for r in reports:
        assert type(r).active_mul4 is vars(type(r))["active_mul4"]    # a class read
        assert vars(r).keys() == {"_inputs"}
    for k, r in enumerate(reports):
        getattr(r, ("power_proxy", *REPORT_FIELDS)[k % 5])      # one read of any field
        assert vars(r).keys() == {"_inputs", *REPORT_FIELDS}
        assert r == ActivityReport(*(vars(r)[name] for name in REPORT_FIELDS))


# The scalar calls build their reports on first read. The tests below read
# them in different ways and compare with reports built eagerly.

REPORT_FIELDS = ("active_mul4", "gated_mul4", "disabled_faulty", "adder_levels_active")
TWO_SPARES = {Quadrant.HL: RepairConfig(True, GRID_IDS[Quadrant.HL][(1, 2)]),
              Quadrant.LL: RepairConfig(True, GRID_IDS[Quadrant.LL][(0, 0)])}
CALLS = [  # (scalar, a, b, faults, repair, gating)
    (mul24, 0xABCDEF, 0xFEDCBA, (), None, True),
    (mul24, 0x000ABC, 0x00F123, (), None, True),
    (mul24, 0xFFF000, 0xA5C3E1, [FaultSpec(GRID_IDS[Quadrant.HL][(1, 2)], 0x5A)], None, False),
    (mul24, 0xABCDEF, 0xFEDCBA, [FaultSpec(GRID_IDS[Quadrant.HL][(1, 2)], 0x5A)],
     TWO_SPARES, True),
    (mul12, 0xA5C, 0x0F3, (), RepairConfig(), True),
    (mul12, 0xA5C, 0xFFF, [FaultSpec(GRID_IDS[Quadrant.LL][(2, 1)], 0x11)],
     RepairConfig(True, GRID_IDS[Quadrant.LL][(2, 1)]), True),
]
CALL_IDS = ["wide", "narrow", "faulted-ungated", "repaired", "mul12", "mul12-repaired"]


def _call(call):
    scalar, a, b, faults, repair, gating = call
    return scalar(a, b, faults, repair, gating=gating)


def _fields(report) -> tuple:
    return tuple(getattr(report, name) for name in REPORT_FIELDS)


@pytest.mark.parametrize("call", CALLS, ids=CALL_IDS)
def test_deferred_report_equals_the_report_built_from_its_fields(call):
    report = _call(call).activity
    assert isinstance(report, ActivityReport)
    eager = ActivityReport(*_fields(report))
    assert type(eager) is ActivityReport
    assert report == eager and eager == report
    assert not report != eager and not eager != report
    assert report.to_json() == eager.to_json()
    assert report.power_proxy == eager.power_proxy
    other = ActivityReport(eager.active_mul4, eager.gated_mul4, eager.disabled_faulty, {})
    assert report != other and other != report
    assert dataclasses.replace(report, adder_levels_active={}) == other
    assert pickle.loads(pickle.dumps(report)) == eager
    assert report != _call(CALLS[1] if call is CALLS[0] else CALLS[0]).activity


@pytest.mark.parametrize("call", CALLS, ids=CALL_IDS)
def test_fields_read_in_any_order_or_twice_agree(call):
    want = _fields(_call(call).activity)
    for order in itertools.permutations(range(4)):
        report = _call(call).activity
        got = {}
        for k in order + order:
            value = getattr(report, REPORT_FIELDS[k])
            assert got.setdefault(k, value) == value
        assert tuple(got[k] for k in range(4)) == want
    report = _call(call).activity
    assert report.power_proxy == len(want[0])
    assert _fields(report) == want


def test_a_report_read_late_describes_its_own_call():
    want = [_call(call).activity.to_json() for call in CALLS]
    results = [_call(call) for call in CALLS]
    rng = np.random.default_rng(7)
    for n in range(100):
        target = POSITIONS[n % 36]
        repair = {target.quadrant: RepairConfig(True, target)} if n % 2 else None
        a, b = rng.integers(0, 1 << 24, size=2).tolist()
        mul24(a, b, [FaultSpec(target, n)], repair, gating=n % 3 > 0)
        mul12(b & 0xFFF, a & 0xFFF)
    assert [result.activity.to_json() for result in results] == want


@pytest.mark.parametrize("call", CALLS, ids=CALL_IDS)
def test_adder_levels_keep_mask_bit_order_with_the_spares_last(call):
    scalar, a, b, faults, repair, gating = call
    batch = (mul24_batch if scalar is mul24 else mul12_batch)(
        [a], [b], faults, repair, gating=gating
    )
    energised = int(batch.energised[0])
    # ascending mask bits: a repaired target's bit moved to its spare's,
    # and the spares' bits 36-39 come after every grid block's
    want = [m for k, m in enumerate(BLOCK_IDS) if energised >> k & 1]
    assert list(_call(call).activity.adder_levels_active) == want
    report = _call(call).activity
    report.active_mul4
    assert list(report.adder_levels_active) == want


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_setting_a_report_attribute_raises(read_first):
    report = mul24(0xABCDEF, 0xFEDCBA).activity
    if read_first:
        report.to_json()
    for name in REPORT_FIELDS + ("power_proxy", "anything"):
        with pytest.raises(AttributeError):
            setattr(report, name, frozenset())
    with pytest.raises(AttributeError):
        del report.active_mul4
    assert report == mul24(0xABCDEF, 0xFEDCBA).activity


# A fault-free product does not depend on the power pattern, so the scalar
# pass looks it up only for a plan with a live fault, and otherwise leaves it
# to the report's first read.

_FAULT = FaultSpec(GRID_IDS[Quadrant.HL][(1, 2)], 0x5A)
DEFERRED = {  # gated calls whose pattern waits for the report
    "mul12": lambda: mul12(0xABC, 0x987),
    "mul24-wide": lambda: mul24(0xABCDEF, 0x987654),
    "mul24-narrow": lambda: mul24(0xAB, 0x98),
    "mul24-repaired": lambda: mul24(0xABCDEF, 0x987654, [_FAULT],
                                    {Quadrant.HL: RepairConfig(True, _FAULT.target)}),
    "fp_mul": lambda: fp_mul(0x3FC00000, 0x40490FDB),
}


@pytest.fixture
def lookups(monkeypatch):
    """The calls of the pattern helper that the scalar pass and its report share."""
    calls = []
    real = multiplier._power_mask

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multiplier, "_power_mask", counted)
    return calls


def _activity(result):
    return result[1].activity if isinstance(result, tuple) else result.activity


READS = {name: operator.attrgetter(name) for name in ("power_proxy", *REPORT_FIELDS)}
READS["to_json()"] = operator.methodcaller("to_json")


@pytest.mark.parametrize("first", READS.values(), ids=READS.keys())
@pytest.mark.parametrize("call", DEFERRED.values(), ids=DEFERRED.keys())
def test_a_fault_free_call_looks_up_its_pattern_on_first_read(call, first, lookups):
    report = _activity(call())
    assert lookups == []
    first(report)
    assert len(lookups) == 1
    for read in READS.values():
        read(report)
    assert len(lookups) == 1


@pytest.mark.parametrize("x, y, powered", [(0xABCDEF, 0x987654, True), (0xAB, 0x98, False)],
                         ids=["lit", "dark"])
def test_an_unrepaired_fault_looks_up_its_pattern_in_the_call(x, y, powered, lookups):
    result = mul24(x, y, [_FAULT])
    assert len(lookups) == 1
    assert result.unrepaired_faults == ((_FAULT.target,) if powered else ())
    result.activity.to_json()
    assert len(lookups) == 1


@pytest.mark.parametrize("scalar, x, y", [(mul12, 0xABC, 0x987), (mul24, 0xABCDEF, 0x987654)],
                         ids=["mul12", "mul24"])
def test_no_gating_never_looks_up_a_pattern(scalar, x, y, lookups):
    plain = scalar(x, y, gating=False)
    numpy_flag = scalar(x, y, gating=np.bool_(False))
    assert plain.activity == numpy_flag.activity
    assert plain.activity.power_proxy == (9 if scalar is mul12 else 36)
    assert plain.activity.to_json() == numpy_flag.activity.to_json()
    assert lookups == []
