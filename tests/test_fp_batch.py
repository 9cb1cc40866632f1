"""The batched float32 path against scalar ``fp_mul``, and the underflow rule
against numpy's float32 multiply, which underflows gradually and so does not
share the wrapper's flush-to-zero convention."""

import numpy as np
import pytest

from cifm import fp_mul_batch
from cifm.bitcore import BitVec
from cifm.fp32 import Rounding, fp_mul
from cifm.multiplier import CHUNK, GRID_IDS, FaultSpec, Quadrant, RepairConfig
from cifm.softfloat import softfloat_mul

SMALLEST_NORMAL = 0x00800000

# zeros, subnormals, infinities, NaNs (quiet, signalling, negative), one,
# minus two, the smallest normal and the largest finite value
SPECIAL_OPERANDS = (
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000,
    0x7FC00000, 0xFFC00001, 0x7F800001, 0x3F800000, 0xC0000000, 0x00800000,
    0x7F7FFFFF,
)

TARGET = GRID_IDS[Quadrant.HH][(2, 2)]      # carries the significands' top bits
FAULT_CASES = {
    "unrepaired": dict(faults=[FaultSpec(TARGET, 0x00)]),
    "repaired": dict(
        faults=[FaultSpec(TARGET, 0xFF)],
        repair={Quadrant.HH: RepairConfig(enabled=True, target=TARGET)},
    ),
    "truncate-unrepaired": dict(
        faults=[FaultSpec(GRID_IDS[Quadrant.LL][(0, 1)], 0xA5)],
        rounding=Rounding.TRUNCATE,
    ),
}


def _scalar(a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """Scalar ``fp_mul`` pair by pair, the reference for the batch."""
    a, b = np.broadcast_arrays(a, b)
    got = [int(fp_mul(x, y, **kwargs)[0]) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    return np.array(got, dtype=np.int64).reshape(a.shape)


def _random_patterns(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 1 << 32, size=(2, n), dtype=np.int64)
    return a, b


def _band(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs whose exact product lies within a few ulps of 2**-126.

    The exponent fields sum to 127, so a significand product below 2**47
    has value below 2**-126; it is drawn around 2**47 - 2**22, where
    rounding to 24 bits carries into 2**47.
    """
    rng = np.random.default_rng(seed)
    exp_a = rng.integers(1, 127, size=n)
    sig_a = rng.integers(1 << 23, 1 << 24, size=n)
    sig_b = -(-((1 << 47) - (1 << 22)) // sig_a) + rng.integers(-2, 3, size=n)
    sig_b = np.clip(sig_b, 1 << 23, (1 << 24) - 1)
    sign = rng.integers(0, 2, size=(2, n))
    a = (sign[0] << 31) | (exp_a << 23) | (sig_a - (1 << 23))
    b = (sign[1] << 31) | ((127 - exp_a) << 23) | (sig_b - (1 << 23))
    return a, b


@pytest.mark.parametrize("rounding", list(Rounding))
def test_batch_matches_scalar_on_random_patterns(rounding):
    a, b = _random_patterns(1, 2000)
    got = fp_mul_batch(a, b, rounding=rounding)
    assert got.dtype == np.int64
    assert np.array_equal(got, _scalar(a, b, rounding=rounding))


@pytest.mark.parametrize("rounding", list(Rounding))
def test_batch_matches_scalar_just_below_the_smallest_normal(rounding):
    a, b = _band(2, 2000)
    assert np.array_equal(fp_mul_batch(a, b, rounding=rounding), _scalar(a, b, rounding=rounding))


def test_batch_matches_scalar_on_specials_and_subnormals():
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 1 << 23, size=8) | (rng.integers(0, 2, size=8) << 31)
    ops = np.concatenate([SPECIAL_OPERANDS, subnormals])
    a, b = np.meshgrid(ops, ops)
    assert np.array_equal(fp_mul_batch(a, b), _scalar(a, b))


@pytest.mark.parametrize("shape", [(0,), (1,), (3, 4), (CHUNK + 1,)], ids=str)
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_batch_matches_scalar_on_a_faulted_block(case, shape):
    kwargs = FAULT_CASES[case]
    a, b = _random_patterns(4, 2 * int(np.prod(shape)))
    a, b = a[: a.size // 2].reshape(shape), b[b.size // 2 :].reshape(shape)
    got = fp_mul_batch(a, b, **kwargs)
    assert got.shape == shape
    want = _scalar(a, b, **kwargs)
    assert np.array_equal(got, want)
    if case == "repaired":
        assert np.array_equal(got, _scalar(a, b))
    elif got.size > CHUNK:
        assert np.any(got != fp_mul_batch(a, b))        # the fault reaches the result


def test_batch_broadcasts_and_keeps_the_shape():
    one = 0x3F800000
    assert fp_mul_batch(one, 0x40000000).shape == ()
    assert int(fp_mul_batch(one, 0x40000000)) == 0x40000000
    b = np.array([[0x40000000], [0x40400000]], dtype=np.uint32)
    got = fp_mul_batch(np.array([one, 0xBF800000]), b)
    assert got.shape == (2, 2) and got.dtype == np.int64
    assert got.tolist() == [[0x40000000, 0xC0000000], [0x40400000, 0xC0400000]]


def test_empty_batch_of_any_dtype():
    assert fp_mul_batch(np.array([], dtype=np.float64), np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([1.0]), np.array([1])),                   # float array
        (np.array([True]), np.array([1])),                  # bool array
        (np.array([1], dtype=object), np.array([1])),       # object array
        (np.array([-1]), np.array([1])),
        (np.array([1]), np.array([1 << 32])),
        (np.array([1 << 32], dtype=np.uint64), np.array([1])),
        (np.array([1, 2]), np.array([1, 2, 3])),             # shapes do not broadcast
        (5.0, 1),
        ("x", 1),
        (None, 1),
    ],
    ids=["float", "bool", "object", "negative", "wide", "wide-uint64", "shapes",
         "float-scalar", "str", "none"],
)
def test_batch_rejects_bad_operands(a, b):
    with pytest.raises(ValueError):
        fp_mul_batch(a, b)


@pytest.mark.parametrize(
    "bad",
    [5.0, "x", None, True, -1, 1 << 32, BitVec(1, 31), False, np.bool_(True), np.float64(1.0),
     np.int64(-1), np.uint64(1 << 32), BitVec(0x3F800000, 33)],
    ids=repr,
)
def test_scalar_bad_operand_is_value_error(bad):
    # softfloat_mul takes fp_mul's operand forms, so it rejects what fp_mul rejects
    for x, y in ((bad, 0x3F800000), (0x3F800000, bad)):
        with pytest.raises(ValueError):
            fp_mul(x, y)
        with pytest.raises(ValueError):
            softfloat_mul(x, y)


def test_numpy_integer_operands_are_accepted():
    one, two = np.uint32(0x3F800000), np.int64(0x40000000)
    assert int(fp_mul(one, two)[0]) == softfloat_mul(one, two) == 0x40000000
    assert softfloat_mul(np.uint64(0x40000000), np.int16(0)) == 0


BAD_PLANS = {
    "fault-not-a-spec": dict(faults=[1]),
    "faults-not-iterable": dict(faults=5),
    "duplicate-fault": dict(faults=[FaultSpec(TARGET, 0), FaultSpec(TARGET, 1)]),
    "repair-not-a-mapping": dict(repair=[1]),
    "repair-not-a-config": dict(repair={Quadrant.HH: 1}),
    "repair-misfiled": dict(repair={Quadrant.LL: RepairConfig(enabled=True, target=TARGET)}),
}


@pytest.mark.parametrize("special", SPECIAL_OPERANDS[:9] + (0x3F800000,), ids=hex)
@pytest.mark.parametrize("plan", sorted(BAD_PLANS))
def test_bad_faults_or_repair_raise_whatever_the_operands(plan, special):
    """Zeros, subnormals, infinities and NaNs skip the datapath, but not the
    check of its fault and repair arguments, in scalar and batch alike."""
    kwargs = BAD_PLANS[plan]
    with pytest.raises(ValueError):
        fp_mul(special, 0x3F800000, **kwargs)
    with pytest.raises(ValueError):
        fp_mul(0x3F800000, special, **kwargs)
    with pytest.raises(ValueError):
        fp_mul_batch(special, 0x3F800000, **kwargs)


@pytest.mark.parametrize("rounding", ["nearest-even", "truncate", None, True, 0], ids=repr)
def test_rounding_that_is_not_a_rounding_is_value_error(rounding):
    # the enum's own value string used to truncate: 0x3FE38E39, not ...3A
    with pytest.raises(ValueError, match="rounding"):
        fp_mul_batch(0x3FAAAAAB, 0x3FAAAAAB, rounding=rounding)
    with pytest.raises(ValueError, match="rounding"):
        fp_mul(0x3FAAAAAB, 0x3FAAAAAB, rounding=rounding)
    assert int(fp_mul_batch(0x3FAAAAAB, 0x3FAAAAAB)) == softfloat_mul(0x3FAAAAAB, 0x3FAAAAAB)


@pytest.mark.parametrize("truncate", ["no", "", None, 0, 1, 1.0], ids=repr)
def test_truncate_that_is_not_a_bool_is_value_error(truncate):
    # "no" used to truncate: 0x3FE38E39, not the nearest-even 0x3FE38E3A
    with pytest.raises(ValueError, match="truncate"):
        softfloat_mul(0x3FAAAAAB, 0x3FAAAAAB, truncate=truncate)
    assert softfloat_mul(0x3FAAAAAB, 0x3FAAAAAB, truncate=np.False_) == 0x3FE38E3A
    assert softfloat_mul(0x3FAAAAAB, 0x3FAAAAAB, truncate=np.True_) == 0x3FE38E39


def _ties(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs whose significand product lies exactly half-way between two
    24-bit values, normalised by one position or not.

    With b's significand 1.5 (3 * 2**22) the product is 3 * a * 2**22. Below
    2**47 (a < 2**25 / 3) 23 bits are dropped and odd a gives a tie; above
    it 24 bits are dropped and a = 2 mod 4 gives one.
    """
    rng = np.random.default_rng(seed)
    split = (1 << 25) // 3 + 1
    low = rng.integers(1 << 22, split >> 1, size=n) * 2 + 1
    high = rng.integers((split >> 2) + 1, 1 << 22, size=n) * 4 + 2
    sig_a = np.where(np.arange(n) % 2 == 0, low, high)
    exps = rng.integers(64, 190, size=(2, n))
    sign = rng.integers(0, 2, size=(2, n))
    a = (sign[0] << 31) | (exps[0] << 23) | (sig_a - (1 << 23))
    b = (sign[1] << 31) | (exps[1] << 23) | (1 << 22)
    return a, b


def test_ties_round_to_even():
    """Exact ties against numpy float32, which rounds them to even."""
    a, b = _ties(7, 1000)
    got = fp_mul_batch(a, b)
    assert np.array_equal(got, _scalar(a, b))
    assert got.tolist() == [softfloat_mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    hw = (a.astype(np.uint32).view(np.float32) * b.astype(np.uint32).view(np.float32))
    assert np.array_equal(got, hw.view(np.uint32).astype(np.int64))
    truncated = fp_mul_batch(a, b, rounding=Rounding.TRUNCATE)
    rounded_up = got != truncated
    assert 0 < np.count_nonzero(rounded_up) < a.size     # both ways occur
    assert np.all(got & 1 == 0)                          # the even neighbour


def _near_ties(seed: int, per_case: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Pairs whose significand product has low d bits ``2**(d-1) + t``.

    d is the number of bits normalisation drops, 23 or 24, and t is -1, 0
    or 1: one below, on and one above the half-way point. For an odd
    significand ``sa``, ``sb = sa**-1 * (2**(d-1) + t) mod 2**d`` with the
    hidden bit set gives such a product when it normalises by d. Returns
    ``per_case`` pairs of each (d, t, parity of the kept bits), and each
    pair's case. Random pairs reach one about once in 2**23. The exact tie
    with d = 24 is not among them: for odd ``sa`` it needs ``sb`` = 2**23,
    whose product does not normalise. ``_ties`` builds those from even ones.
    """
    rng = np.random.default_rng(seed)
    found: dict[tuple, list] = {}
    while len(found) < 10 or min(map(len, found.values())) < per_case:
        sa = int(rng.integers(1 << 22, 1 << 23)) * 2 + 1
        for d in (23, 24):
            for t in (-1, 0, 1):
                low = (1 << d - 1) + t
                sb = pow(sa, -1, 1 << d) * low % (1 << d) | 1 << 23
                raw = sa * sb
                case = (d, t, raw >> d & 1)
                if raw % (1 << d) == low and raw >> 47 == d - 23:
                    found.setdefault(case, []).append((sa, sb))
    pairs = [(case, sig) for case, sigs in sorted(found.items()) for sig in sigs[:per_case]]
    sig_a, sig_b = np.array([sig for _, sig in pairs]).T
    exps = rng.integers(100, 150, size=(2, len(pairs)))
    sign = rng.integers(0, 2, size=(2, len(pairs)))
    a = (sign[0] << 31) | (exps[0] << 23) | (sig_a - (1 << 23))
    b = (sign[1] << 31) | (exps[1] << 23) | (sig_b - (1 << 23))
    return a, b, [case for case, _ in pairs]


def test_near_ties_round_to_nearest():
    """Products one below, on and one above the half-way point, against the
    soft-float oracle and numpy float32. A rounding rule that forgets the
    lowest dropped bit reads one above as a tie and gets an even kept
    value wrong: 0x3FD92B64 for the first pair below."""
    a, b, cases = _near_ties(10, 6)
    a = np.concatenate([[0x3FC3D859, 0x3FEB9087], a])
    b = np.concatenate([[0x3F8DEFE9, 0x3F883537], b])
    got = fp_mul_batch(a, b)
    assert got[:2].tolist() == [0x3FD92B65, 0x3FFAAB7F]
    assert np.array_equal(got, _scalar(a, b))
    assert got.tolist() == [softfloat_mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    hw = (a.astype(np.uint32).view(np.float32) * b.astype(np.uint32).view(np.float32))
    assert np.array_equal(got, hw.view(np.uint32).astype(np.int64))
    assert len(set(cases)) == 10                         # every d, t and parity
    # off the half-way point, the product rounds up exactly when t is 1
    rounded_up = (got != fp_mul_batch(a, b, rounding=Rounding.TRUNCATE))[2:]
    off = [(up, t) for up, (_, t, _) in zip(rounded_up.tolist(), cases) if t]
    assert all(up == (t > 0) for up, t in off)


def test_underflow_is_detected_before_rounding():
    """Pins the flush rule against numpy float32 in the band below 2**-126.

    Datapath batch, scalar wrapper and soft-float oracle agree on every
    pair. Where the exact product is at least 2**-126 they agree with
    numpy; below it they return a signed zero, where numpy rounds to the
    smallest normal or returns a subnormal.
    """
    a, b = _band(6, 4000)
    got = fp_mul_batch(a, b)
    assert np.array_equal(got, _scalar(a, b))
    oracle = [softfloat_mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert got.tolist() == oracle

    fa = a.astype(np.uint32).view(np.float32)
    fb = b.astype(np.uint32).view(np.float32)
    with np.errstate(under="ignore"):
        hw = (fa * fb).view(np.uint32).astype(np.int64)
    exact = np.abs(fa.astype(np.float64) * fb.astype(np.float64))   # exact: 48 bits
    normal = exact >= 2.0 ** -126
    assert 0 < np.count_nonzero(normal) < a.size
    assert np.array_equal(got[normal], hw[normal])
    sign = ((a ^ b) >> 31) << 31
    assert np.array_equal(got[~normal], sign[~normal])
    # the band is reached: numpy lifts some flushed products to 2**-126
    assert np.any(hw[~normal] & 0x7FFFFFFF == SMALLEST_NORMAL)
