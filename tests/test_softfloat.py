"""The batch soft-float oracle against the scalar one, element for element.

``softfloat_mul`` is the readable reference; ``softfloat_mul_batch`` runs the
same steps on int64 arrays and must give the same pattern for every pair.
"""

import numpy as np
import pytest

from cifm.softfloat import softfloat_mul, softfloat_mul_batch
from test_verify import _boundary_pairs

# +-0, the smallest and largest subnormals, the smallest and largest normals,
# +-1, +-Inf, quiet NaNs and signalling NaNs, each with both signs
SPECIAL_PATTERNS = (
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x00800000, 0x80800000,
    0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000,
    0x7FC00000, 0xFFC00001, 0x7F800001, 0xFFBFFFFF,
)

ONE = 0x3F800000


def edge_pairs(seed: int, n: int) -> np.ndarray:
    """(2, n) float32 patterns that reach every branch of the oracle.

    A third are uniform 32-bit values. The rest have exponent fields in
    1..254 summing to 125-129 (the underflow edge) or 379-383 (where the
    rounding carry overflows). Half of those have significands u << p and
    v << q, with u and v odd and p + q = 22 or 23, so their product is a
    rounding tie at one of its two widths; the second significand is then
    nudged by -1, 0 or +1.
    """
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 32, size=(2, n))
    edge = np.arange(n) % 3 > 0
    tie = np.arange(n) % 3 == 2
    total = rng.choice(np.r_[125:130, 379:384], size=n)
    ex = rng.integers(np.maximum(total - 254, 1), np.minimum(total - 1, 254) + 1)
    exponents = np.stack([ex, total - ex])

    zeros = rng.integers(22, 24, size=n)
    shifts = rng.integers(0, zeros + 1)
    shifts = np.stack([shifts, zeros - shifts])
    odd = rng.integers(1 << (23 - shifts), 1 << (24 - shifts)) | 1
    sig = odd << shifts
    sig[1] = np.clip(sig[1] + rng.integers(-1, 2, size=n), 1 << 23, (1 << 24) - 1)
    fraction = np.where(tie, sig - (1 << 23), bits & 0x7FFFFF)

    at_edge = (bits & (1 << 31)) | (exponents << 23) | fraction
    return np.where(edge, at_edge, bits)


def _scalar(x, y) -> np.ndarray:
    """``softfloat_mul`` pair by pair over the broadcast operands."""
    x, y = np.broadcast_arrays(x, y)
    want = map(softfloat_mul, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(want, dtype=np.int64, count=x.size).reshape(x.shape)


def _assert_pinned(x, y) -> None:
    got = softfloat_mul_batch(x, y)
    want = _scalar(x, y)
    assert got.dtype == np.int64 and got.shape == want.shape
    x, y = np.broadcast_arrays(x, y)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [
        f"x=0x{x.flat[i]:08X} y=0x{y.flat[i]:08X} got=0x{got.flat[i]:08X} "
        f"want=0x{want.flat[i]:08X}" for i in bad[:5]
    ]


def test_every_pair_of_special_patterns():
    patterns = np.array(SPECIAL_PATTERNS)
    _assert_pinned(patterns[:, None], patterns)


def test_boundary_pairs():
    """The tie at 2**47 - 2**22, the underflow edge and the overflow carry."""
    _assert_pinned(*_boundary_pairs())


def test_edge_pairs_reach_ties_and_both_edges():
    x, y = edge_pairs(0, 30_000)
    sig = ((1 << 23) | (x & 0x7FFFFF)) * ((1 << 23) | (y & 0x7FFFFF))
    drop = 23 + (sig >> 47)
    ties = (sig & ((1 << drop) - 1)) == 1 << (drop - 1)
    sums = ((x >> 23) & 0xFF) + ((y >> 23) & 0xFF)
    assert np.count_nonzero(ties) > 1000
    for edge in (range(125, 130), range(379, 384)):
        assert np.count_nonzero(np.isin(sums, edge)) > 2000
    want = _scalar(x, y)
    exponents = (want >> 23) & 0xFF
    for field in (0, 1, 254, 255):
        assert np.count_nonzero(exponents == field) > 100, field


@pytest.mark.parametrize("seed", range(4))
def test_random_and_edge_patterns(seed):
    _assert_pinned(*edge_pairs(seed, 60_000))


@pytest.mark.parametrize(
    "bad", [np.array([1.0]), np.array([True]), np.array([ONE, None], dtype=object),
            np.array([-1]), np.array([1 << 32]), np.array([2**64 - 1], dtype=np.uint64)],
    ids=["float", "bool", "object", "negative", "2**32", "uint64-max"],
)
def test_bad_patterns_raise_value_error_as_the_scalar_does(bad):
    element = bad.tolist()[-1]
    for x, y in ((bad, ONE), (ONE, bad)):
        with pytest.raises(ValueError):
            softfloat_mul_batch(x, y)
    for x, y in ((element, ONE), (ONE, element)):
        with pytest.raises(ValueError):
            softfloat_mul(x, y)


def test_shapes_that_do_not_broadcast_raise_value_error():
    with pytest.raises(ValueError, match="broadcast"):
        softfloat_mul_batch(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.float64, object])
def test_empty_batch(dtype):
    got = softfloat_mul_batch(np.empty((0, 3), dtype=dtype), np.array([ONE, 0, 1]))
    assert got.dtype == np.int64 and got.shape == (0, 3)
