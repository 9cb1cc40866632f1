import dataclasses
import json
import math
import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cifm.bitcore import BitVec
from cifm.fp32 import Fp32Class, FpMulTrace, Rounding, _finish, fp_mul
from cifm.multiplier import GRID_IDS, ActivityReport, FaultSpec, Quadrant, RepairConfig, mul24
from cifm.softfloat import CANONICAL_QNAN, softfloat_mul

INF = 0x7F800000
ONE = 0x3F800000

bits32 = st.integers(0, 2**32 - 1)
normal_bits = st.builds(
    lambda s, e, f: (s << 31) | (e << 23) | f,
    st.integers(0, 1),
    st.integers(1, 254),
    st.integers(0, 2**23 - 1),
)


def as_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


@given(bits32)
def test_unpack_pack_roundtrip(bits):
    _, trace = fp_mul(bits, ONE)
    p = trace.a
    subnormal = (bits >> 23) & 0xFF == 0 and bits & 0x7FFFFF
    # a subnormal operand is recorded as the signed zero it flushes to
    want = bits & 0x80000000 if subnormal else bits
    assert (p.sign << 31) | (p.exponent << 23) | p.fraction.value == want
    assert trace.flushed_inputs == (("a",) if subnormal else ())


def test_classification():
    def cls(bits):
        return fp_mul(bits, ONE)[1].a.cls

    assert cls(0x00000000) is Fp32Class.ZERO
    assert cls(0x80000000) is Fp32Class.ZERO
    assert cls(0x00000001) is Fp32Class.ZERO
    assert fp_mul(0x00000001, ONE)[1].flushed_inputs == ("a",)
    assert cls(ONE) is Fp32Class.NORMAL
    assert cls(INF) is Fp32Class.INF
    assert cls(0x7FC00000) is Fp32Class.NAN
    assert cls(0xFF800001) is Fp32Class.NAN


# (sign, exponent, fraction, class) as the trace records each operand, and
# whether it was flushed; the same in either operand position
OPERAND_RECORDS = {
    0x00000000: (0, 0, "0x000000", "zero", False),
    0x80000000: (1, 0, "0x000000", "zero", False),
    0x00000001: (0, 0, "0x000000", "zero", True),
    0x807FFFFF: (1, 0, "0x000000", "zero", True),
    0x00800000: (0, 1, "0x000000", "normal", False),
    0x7F800000: (0, 255, "0x000000", "inf", False),
    0xFF800000: (1, 255, "0x000000", "inf", False),
    0x7FC00000: (0, 255, "0x400000", "nan", False),
    0x7F800001: (0, 255, "0x000001", "nan", False),
}


@pytest.mark.parametrize("bits", OPERAND_RECORDS, ids="{:#010x}".format)
def test_operand_records_in_both_positions(bits):
    sign, exponent, fraction, cls, flushed = OPERAND_RECORDS[bits]
    want = {"sign": sign, "exponent": exponent, "fraction": fraction, "class": cls}
    one = {"sign": 0, "exponent": 127, "fraction": "0x000000", "class": "normal"}
    a_doc = fp_mul(bits, ONE)[1].to_json()
    b_doc = fp_mul(ONE, bits)[1].to_json()
    assert (a_doc["a"], a_doc["b"]) == (want, one)
    assert (b_doc["a"], b_doc["b"]) == (one, want)
    assert a_doc["flushed_inputs"] == (["a"] if flushed else [])
    assert b_doc["flushed_inputs"] == (["b"] if flushed else [])


def test_known_products():
    assert int(fp_mul(0x3FC00000, 0x40200000)[0]) == 0x40700000  # 1.5 * 2.5
    assert int(fp_mul(ONE, 0x40000000)[0]) == 0x40000000
    assert int(fp_mul(0x40490FDB, ONE)[0]) == 0x40490FDB


def test_specials_table():
    cases = [
        (0x7FC00000, ONE, CANONICAL_QNAN),
        (ONE, 0xFFC00001, CANONICAL_QNAN),
        (INF, 0x00000000, CANONICAL_QNAN),
        (0x80000000, INF, CANONICAL_QNAN),
        (INF, INF, INF),
        (INF, 0xC0000000, 0xFF800000),
        (0x00000000, 0xC1200000, 0x80000000),
        (0x80000000, 0x80000000, 0x00000000),
    ]
    for a, b, want in cases:
        got, trace = fp_mul(a, b)
        assert int(got) == want, f"{a:#010x} * {b:#010x}"
        assert trace.special is not None


def test_subnormal_inputs_flush_to_zero():
    got, trace = fp_mul(0x00000001, ONE)
    assert int(got) == 0
    assert trace.flushed_inputs == ("a",)
    # the flush happens before the specials table is consulted
    got, trace = fp_mul(0x007FFFFF, INF)
    assert int(got) == CANONICAL_QNAN
    assert trace.special == "inf-times-zero"


def test_overflow_rounds_to_infinity():
    got, trace = fp_mul(0x7F7FFFFF, 0x7F7FFFFF)
    assert int(got) == INF
    assert trace.overflow


def test_underflow_flushes_to_signed_zero():
    got, trace = fp_mul(0x00800000, 0x80800000)
    assert int(got) == 0x80000000
    assert trace.underflow


def test_trace_records_rounding():
    # significands of 1.5 * 1.5: product 2.25, exact -> no increment
    _, t = fp_mul(0x3FC00000, 0x3FC00000)
    assert t.rounding_applied == "none"
    assert t.normalized
    # 1.5 encodes as significand 0xC00000: the zero low halves shrink to
    # the narrowest row class while the high halves run full width,
    # 1 + 3 + 3 + 9 blocks
    assert t.activity is not None and t.activity.power_proxy == 16
    _, t = fp_mul(0x40490FDB, 0x40490FDB)
    assert t.activity.power_proxy == 36
    assert t.rounding_applied == "increment"


@given(normal_bits, normal_bits)
@settings(max_examples=300, deadline=None)
def test_matches_softfloat_oracle(a, b):
    want = softfloat_mul(a, b)
    got, _ = fp_mul(a, b)
    assert int(got) == want


@given(normal_bits, normal_bits)
@settings(max_examples=150, deadline=None)
def test_truncate_mode_matches_oracle(a, b):
    want = softfloat_mul(a, b, truncate=True)
    got, _ = fp_mul(a, b, rounding=Rounding.TRUNCATE)
    assert int(got) == want


@given(normal_bits, normal_bits)
@example(0x00800000, 0x3F7FFFFF)  # 2**-126 * (1 - 2**-24): the FPU rounds up to 2**-126
@example(0x00800000, 0x3F800000)  # exactly 2**-126
@settings(max_examples=300, deadline=None)
def test_oracle_agrees_with_hardware_on_normal_results(a, b):
    """The independent soft multiplier against the host FPU."""
    with np.errstate(over="ignore", under="ignore"):
        hw = np.float32(as_float(a)) * np.float32(as_float(b))
    hw_bits = struct.unpack("<I", struct.pack("<f", hw))[0]
    exponent = (hw_bits >> 23) & 0xFF
    assume(0 < exponent < 255)  # flush-to-zero differs near the subnormal edge
    # Two float32 significands multiply exactly in a float64. Tininess is
    # detected before rounding, so an exact product below 2**-126 flushes to
    # a signed zero even where the FPU rounds it up to 0x00800000.
    if abs(as_float(a) * as_float(b)) < 2.0**-126:
        assert hw_bits & 0x7FFFFFFF == 0x00800000
        assert softfloat_mul(a, b) == hw_bits & 0x80000000
    else:
        assert softfloat_mul(a, b) == hw_bits


def test_rejects_oversize_pattern():
    with pytest.raises(ValueError):
        fp_mul(1 << 32, ONE)


@pytest.mark.parametrize("a, b", [(INF, ONE), (ONE, 0x40490FDB)], ids=["inf", "normal"])
def test_numpy_operand_patterns_give_int_results_and_plain_json(a, b):
    # a BitVec holding a numpy value used to leak it into the result and trace
    got, trace = fp_mul(BitVec(np.uint32(a), 32), np.uint32(b))
    want, want_trace = fp_mul(a, b)
    assert type(got.value) is int and int(got) == int(want)
    assert json.dumps(trace.to_json()) == json.dumps(want_trace.to_json())


# fp_mul builds its trace on first read. The tests below read traces in
# different ways and compare with traces built eagerly.

TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(FpMulTrace))
TRACE_CALLS = [  # (a, b, faults, repair)
    (0x3FC01234, 0x40236543, (), None),
    (0x3F918E00, 0x3FE12000, (), None),             # rounds up to the next power of two
    (0x7F000000, 0x40000000, (), None),             # overflow
    (0x007FFFFF, 0x3F800000, (), None),             # flushed a, then the zero special
    (INF, 0x80000000, (), None),                    # inf times zero
    (0x40490FDB, 0x40490FDB, [FaultSpec(GRID_IDS[Quadrant.HH][(2, 2)], 0x5A)], None),
    (0x40490FDB, 0x40490FDB, [FaultSpec(GRID_IDS[Quadrant.HH][(2, 2)], 0x5A)],
     {Quadrant.HH: RepairConfig(True, GRID_IDS[Quadrant.HH][(2, 2)])}),
]
TRACE_IDS = ["normal", "carry", "overflow", "flushed", "inf-times-zero", "faulted", "repaired"]


def _fields(trace) -> tuple:
    return tuple(getattr(trace, name) for name in TRACE_FIELDS)


@pytest.mark.parametrize("call", TRACE_CALLS, ids=TRACE_IDS)
def test_deferred_trace_equals_the_trace_built_from_its_fields(call):
    bits, trace = fp_mul(*call)
    assert isinstance(trace, FpMulTrace)
    assert trace.activity is None or isinstance(trace.activity, ActivityReport)
    eager = FpMulTrace(*_fields(trace))
    assert type(eager) is FpMulTrace
    assert trace == eager and eager == trace
    assert not trace != eager and not eager != trace
    assert json.dumps(trace.to_json()) == json.dumps(eager.to_json())
    other = FpMulTrace(*_fields(eager)[:-2], "changed", eager.activity)
    assert trace != other and other != trace
    assert dataclasses.replace(trace, special="changed") == other
    assert pickle.loads(pickle.dumps(trace)) == eager
    if trace.activity is not None:
        a, b, faults, repair = call
        sig_a, sig_b = trace.significand_a, trace.significand_b
        assert trace.activity == mul24(sig_a, sig_b, faults, repair).activity
        assert trace.raw_product == mul24(sig_a, sig_b, faults, repair).product


@pytest.mark.parametrize("call", TRACE_CALLS, ids=TRACE_IDS)
def test_trace_fields_read_in_any_order_or_twice_agree(call):
    want = _fields(fp_mul(*call)[1])
    for shift in range(len(TRACE_FIELDS)):
        names = TRACE_FIELDS[shift:] + TRACE_FIELDS[:shift]
        trace = fp_mul(*call)[1]
        got = {name: getattr(trace, name) for name in names[::-1] + names}
        assert tuple(got[name] for name in TRACE_FIELDS) == want
        assert _fields(trace) == want


def test_a_trace_read_late_describes_its_own_call():
    want = [json.dumps(fp_mul(*call)[1].to_json()) for call in TRACE_CALLS]
    results = [fp_mul(*call)[1] for call in TRACE_CALLS]
    rng = np.random.default_rng(8)
    for n in range(100):
        target = GRID_IDS[list(Quadrant)[n % 4]][(n % 3, n // 3 % 3)]
        repair = {target.quadrant: RepairConfig(True, target)} if n % 2 else None
        a, b = rng.integers(0, 1 << 32, size=2).tolist()
        fp_mul(a, b, [FaultSpec(target, n)], repair, rounding=list(Rounding)[n % 2])
    assert [json.dumps(trace.to_json()) for trace in results] == want


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_setting_a_trace_attribute_raises(read_first):
    trace = fp_mul(0x3FC01234, 0x40236543)[1]
    if read_first:
        trace.to_json()
    for name in TRACE_FIELDS + ("anything",):
        with pytest.raises(AttributeError):
            setattr(trace, name, None)
    with pytest.raises(AttributeError):
        del trace.raw_product
    assert trace == fp_mul(0x3FC01234, 0x40236543)[1]


def _finish_reference(exponent_sum: int, raw: int, nearest_even: bool) -> tuple:
    """``fp32._finish`` by exact rational arithmetic, sharing none of its code.

    The product of the two significands is the rational
    ``W = raw * 2**(exponent_sum - 127 - 46)``, scaled so that a normal
    result with biased exponent E has 2**E <= W < 2**(E + 1). The datapath
    normalises by at most one position, so E is ``floor(log2(W))`` kept in
    ``exponent_sum - 127 .. exponent_sum - 126``: a ``raw`` below 2**46,
    which only a fault makes, keeps the lower exponent and a significand
    without its hidden bit. The 24-bit significand ``W / 2**E * 2**23`` is
    rounded to nearest, ties to even, or truncated. Tininess is tested
    before rounding: E <= 0 flushes to zero with no rounding. Otherwise a
    rounding carry to 2**24 raises E by one, and E >= 255 saturates to
    infinity.
    """
    w = Fraction(raw) * Fraction(2) ** (exponent_sum - 127 - 46)
    e = exponent_sum - 127
    if w >= Fraction(2) ** (e + 1):
        e += 1
    scaled = w / Fraction(2) ** e * 2**23
    down = math.floor(scaled)
    above = scaled - down
    up = above > Fraction(1, 2) or above == Fraction(1, 2) and down % 2 == 1
    if e <= 0:
        return 0, False, False, True
    if e >= 255:
        return 0xFF << 23, False, True, False
    increment = nearest_even and up
    significand = down + increment
    if significand == 2**24:
        e, significand = e + 1, 2**23
    if e >= 255:
        return 0xFF << 23, increment, True, False
    return e << 23 | significand % 2**23, increment, False, False


def _finish_inputs() -> list[tuple[int, int]]:
    """(exponent_sum, raw) pairs: raws of two normal significands, raws only
    a fault makes (below 2**46, zero among them), exact ties with an odd and
    an even kept significand, roundings that carry to 2**24, and exponent
    sums at the underflow and overflow edges with and without normalising."""
    rng = np.random.default_rng(41)
    raws = [2**46, 2**47, 2**48 - 1, 2**47 - 1, 2**46 + 1]
    raws += [0, 1, 2**23 - 1, 2**23, 0xABCDEF, 2**40 + 2**22, 2**46 - 1, 2**46 - 2**22]
    for kept in (2**23, 2**23 + 1, 2**24 - 2, 2**24 - 1, 0x7FFFFF, 0x5A5A5):
        # a tie at bit 22, unnormalised, and at bit 23 once kept has its hidden bit
        raws += [kept << 23 | 0x400000, kept << 24 | 0x800000]
        raws += [kept << 23 | 0x3FFFFF, kept << 23 | 0x400001,
                 kept << 24 | 0x7FFFFF, kept << 24 | 0x800001]
    raws += [(2**24 - 1) << 23 | 0x7FFFFF, (2**24 - 1) << 24 | 0xFFFFFF]  # carry to 2**24
    raws += rng.integers(2**46, 2**48, 40).tolist() + rng.integers(0, 2**46, 20).tolist()
    raws = [r for r in raws if r < 2**48]
    sums = [2, 100, 125, 126, 127, 128, 129, 254, 300, 379, 380, 381, 382, 383, 508]
    return [(s, r) for s in sums for r in raws]


@pytest.mark.parametrize("rounding", list(Rounding), ids=lambda r: r.value)
def test_finish_rounds_as_exact_rationals_do(rounding):
    """``_finish`` on ints and on int64 arrays against exact rational
    rounding of the raw product, its flags included."""
    nearest_even = rounding is Rounding.NEAREST_EVEN
    cases = _finish_inputs()
    want = [_finish_reference(s, r, nearest_even) for s, r in cases]
    got = [_finish(s, r, nearest_even) for s, r in cases]
    assert [tuple(v if k == 0 else bool(v) for k, v in enumerate(g)) for g in got] == want
    assert all(type(g[0]) is int for g in got)
    sums, raws = np.array(cases, dtype=np.int64).T
    arrays = _finish(sums, raws, nearest_even)
    assert all(a.dtype in (np.int64, np.bool_) for a in arrays)
    assert [tuple(int(a[k]) if i == 0 else bool(a[k]) for i, a in enumerate(arrays))
            for k in range(len(cases))] == want
    # every branch of the reference is reached
    assert {w[1:] for w in want} >= ({(False, False, True), (False, True, False),
                                      (False, False, False)}
                                     | ({(True, False, False), (True, True, False)}
                                        if nearest_even else set()))
