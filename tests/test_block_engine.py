"""The batched block engine against oracles that share none of its code.

Expected products come from Python integers and from a faulted-block
formula written out here; the engine's width classification is checked
against the scalar ``classify_width`` in ``width_oracle``.
"""

import numpy as np
import pytest

from cifm.bitcore import BitVec
from cifm.multiplier import (
    BLOCK_IDS,
    CHUNK,
    GRID_IDS,
    SPARE_IDS,
    FaultSpec,
    Quadrant,
    RepairConfig,
    mul4,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)
from width_oracle import INNER_CLASSES, OUTER_CLASSES, classify_width

# (a half, b half) of each quadrant
HALVES = {"LL": (0, 0), "HL": (1, 0), "LH": (0, 1), "HH": (1, 1)}
POSITIONS = [(q, i, j) for q in HALVES for i in range(3) for j in range(3)]
FORCED = (0xFF, 0x00, 0xA5, 0x5A)


def _operands(seed: int, n: int, width: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Random pairs over every 4-bit magnitude class, corner values first."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    corners = [0, 1, 0xFFF, 0x1000, 0xFFF000, top, 0x1001, top]
    corners = [c & top for c in corners]
    k = rng.choice(np.arange(0, width + 1, 4), size=(2, n))
    drawn = rng.integers(0, 1 << width, size=(2, n), dtype=np.int64) >> (width - k)
    return (np.concatenate([corners, drawn[0]]).astype(np.int64),
            np.concatenate([corners[::-1], drawn[1]]).astype(np.int64))


def _groups(half: int) -> int:
    """Energised 4-bit groups of a 12-bit half: ceil(bit length / 4), at least 1."""
    return max(1, -(-half.bit_length() // 4))


def _halves(x: int, y: int, ha: int, hb: int) -> tuple[int, int]:
    return (x >> 12 * ha) & 0xFFF, (y >> 12 * hb) & 0xFFF


def _block_on(x: int, y: int, ha: int, hb: int, i: int, j: int, gating: bool) -> bool:
    if not gating:
        return True
    xh, yh = _halves(x, y, ha, hb)
    quad_on = (ha == 0 or xh != 0) and (hb == 0 or yh != 0)
    return quad_on and i < _groups(xh) and j < _groups(yh)


def _faulted(x, y, ha, hb, i, j, forced, gating) -> tuple[int, bool]:
    """(product, fault visible) with block (i, j) of quadrant (ha, hb) stuck at
    ``forced``. A quadrant sums its blocks modulo 2**24, the top level sums
    the quadrants modulo 2**48."""
    if not _block_on(x, y, ha, hb, i, j, gating):
        return x * y, False
    xh, yh = _halves(x, y, ha, hb)
    true_block = ((xh >> 4 * i) & 0xF) * ((yh >> 4 * j) & 0xF)
    quad = (xh * yh + ((forced - true_block) << 4 * (i + j))) % 2**24
    return (x * y + ((quad - xh * yh) << 12 * (ha + hb))) % 2**48, True


def _bit(mid) -> int:
    return BLOCK_IDS.index(mid)


def test_block_ids_layout():
    assert len(BLOCK_IDS) == len(set(BLOCK_IDS)) == 40
    for k, q in enumerate(Quadrant):
        for (i, j), mid in GRID_IDS[q].items():
            assert _bit(mid) == 9 * k + 3 * i + j
        assert _bit(SPARE_IDS[q]) == 36 + k


def test_fault_free_products():
    a, b = _operands(1, 3000)
    assert np.array_equal(mul24_batch(a, b).products, a * b)
    assert np.array_equal(mul24_batch(a, b, gating=False).products, a * b)
    a, b = _operands(2, 3000, width=12)
    assert np.array_equal(mul12_batch(a, b).products, a * b)


@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("repaired", [False, True])
def test_every_fault_position(gating, repaired):
    a, b = _operands(3, 150)
    pairs = list(zip(a.tolist(), b.tolist()))
    wraps = 0
    for n, (name, i, j) in enumerate(POSITIONS):
        q = Quadrant(name)
        ha, hb = HALVES[name]
        target = GRID_IDS[q][(i, j)]
        forced = FORCED[n % len(FORCED)]
        repair = {q: RepairConfig(enabled=True, target=target)} if repaired else None
        faults = [FaultSpec(target, forced)]
        r = mul24_batch(a, b, faults=faults, repair=repair, gating=gating)
        for k, (x, y) in enumerate(pairs):
            on = _block_on(x, y, ha, hb, i, j, gating)
            energised = int(r.energised[k])
            assert not energised >> _bit(target) & 1 or not repaired
            if repaired:
                assert int(r.products[k]) == x * y
                assert int(r.unrepaired[k]) == 0
                assert bool(energised >> _bit(SPARE_IDS[q]) & 1) == on
                continue
            want, visible = _faulted(x, y, ha, hb, i, j, forced, gating)
            assert int(r.products[k]) == want, (name, i, j, hex(x), hex(y))
            assert int(r.unrepaired[k]) == (1 << _bit(target) if visible else 0)
            xh, yh = _halves(x, y, ha, hb)
            true_block = ((xh >> 4 * i) & 0xF) * ((yh >> 4 * j) & 0xF)
            overflow = xh * yh + ((forced - true_block) << 4 * (i + j)) >= 2**24
            wraps += visible and overflow
    assert repaired or wraps > 0          # the quadrant's mod-2**24 wrap was exercised


def test_mul12_fault_matches_formula():
    a, b = _operands(4, 300, width=12)
    for (i, j), target in GRID_IDS[Quadrant.LL].items():
        r = mul12_batch(a, b, faults=[FaultSpec(target, 0xFF)])
        for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            want, _ = _faulted(x, y, 0, 0, i, j, 0xFF, True)
            assert int(r.products[k]) == want % 2**24


def test_power_proxy_is_rows_times_cols_of_live_quadrants():
    a, b = _operands(5, 2000)
    r = mul24_batch(a, b)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        want = 0
        for ha, hb in HALVES.values():
            xh, yh = _halves(x, y, ha, hb)
            if (ha == 0 or xh) and (hb == 0 or yh):
                want += _groups(xh) * _groups(yh)
        assert bin(int(r.energised[k])).count("1") == want
    assert np.all(mul24_batch(a, b, gating=False).energised == (1 << 36) - 1)


def test_energised_blocks_follow_classify_width():
    a, b = _operands(6, 500)
    r = mul24_batch(a, b)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        outer_a = classify_width(BitVec(x, 24), OUTER_CLASSES) == 24
        outer_b = classify_width(BitVec(y, 24), OUTER_CLASSES) == 24
        want = 0
        for name, (ha, hb) in HALVES.items():
            if (ha and not outer_a) or (hb and not outer_b):
                continue
            xh, yh = _halves(x, y, ha, hb)
            rows = classify_width(BitVec(xh, 12), INNER_CLASSES) // 4
            cols = classify_width(BitVec(yh, 12), INNER_CLASSES) // 4
            for (i, j), mid in GRID_IDS[Quadrant(name)].items():
                want |= (i < rows and j < cols) << _bit(mid)
        assert int(r.energised[k]) == want


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_batch_size_does_not_matter(n):
    a, b = _operands(7, CHUNK + 1)
    a, b = a[: CHUNK + 1], b[: CHUNK + 1]
    target = GRID_IDS[Quadrant.HL][(0, 1)]
    faults = [FaultSpec(target, 0xFF), FaultSpec(GRID_IDS[Quadrant.LL][(1, 1)], 0x00)]
    repair = {Quadrant.HL: RepairConfig(enabled=True, target=target)}
    full = mul24_batch(a, b, faults=faults, repair=repair)
    part = mul24_batch(a[:n], b[:n], faults=faults, repair=repair)
    for got, want in zip(part, full):
        assert got.dtype == np.int64 and got.shape == (n,)
        assert np.array_equal(got, want[:n])
    for k, (x, y) in enumerate(zip(a[:n].tolist(), b[:n].tolist())):
        assert int(part.products[k]) == _faulted(x, y, 0, 0, 1, 1, 0x00, True)[0]


def test_scalar_is_element_k_of_the_batch():
    a, b = _operands(8, 300)
    target = GRID_IDS[Quadrant.LH][(2, 0)]
    fault = [FaultSpec(target, 0x3C)]
    spare_in = {Quadrant.LH: RepairConfig(enabled=True, target=target)}
    plans = [((), None), (fault, None), (fault, spare_in)]
    for faults, repair in plans:
        for gating in (True, False):
            r = mul24_batch(a, b, faults=faults, repair=repair, gating=gating)
            for k in range(0, a.size, 7):
                x, y = int(a[k]), int(b[k])
                s = mul24(x, y, faults=faults, repair=repair, gating=gating)
                mask = int(r.energised[k])
                assert int(s.product) == int(r.products[k])
                assert s.activity.active_mul4 == {
                    m for n, m in enumerate(BLOCK_IDS) if mask >> n & 1
                }
                assert s.unrepaired_faults == tuple(
                    m for n, m in enumerate(BLOCK_IDS) if int(r.unrepaired[k]) >> n & 1
                )
    r = mul12_batch(a & 0xFFF, b & 0xFFF)
    s = mul12(int(a[9]) & 0xFFF, int(b[9]) & 0xFFF)
    assert s.activity.active_mul4 == {
        m for n, m in enumerate(BLOCK_IDS) if int(r.energised[9]) >> n & 1
    }


def test_batch_keeps_the_operand_shape():
    a = np.arange(12, dtype=np.uint16).reshape(3, 4)
    r = mul24_batch(a, a.T.copy().reshape(3, 4))
    assert r.products.shape == (3, 4)
    assert np.array_equal(r.products, a.astype(np.int64) * a.T.reshape(3, 4))
    assert int(mul24_batch(7, 9).products) == 63


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([5.7]), np.array([1])),           # float: astype would truncate
        (np.array([True]), np.array([1])),
        (np.array([2**70], dtype=object), np.array([1])),
        ([1, "2"], [1, 2]),
        ([-1], [1]),
        ([1 << 24], [1]),
        ([1, 2], [1]),                              # shapes differ
        ([[1, 2]], [1, 2]),
    ],
)
def test_batch_rejects_bad_operands(a, b):
    with pytest.raises(ValueError):
        mul24_batch(a, b)
    with pytest.raises(ValueError):
        mul24_batch(b, a)


def test_mul12_batch_rejects_wide_operands():
    with pytest.raises(ValueError):
        mul12_batch([1 << 12], [1])


@pytest.mark.parametrize("bad", [5.0, True, "3", None, BitVec(3, 5)])
def test_scalar_bad_operand_is_value_error(bad):
    with pytest.raises(ValueError):
        mul24(bad, 1)
    with pytest.raises(ValueError):
        mul12(1, bad)
    with pytest.raises(ValueError):
        mul4(bad, 1)


@pytest.mark.parametrize("gating", ["no", None, 1, 0.0], ids=repr)
def test_gating_that_is_not_a_bool_is_value_error(gating):
    for fn in (mul12, mul24):
        with pytest.raises(ValueError, match="gating"):
            fn(1, 1, gating=gating)
    for fn in (mul12_batch, mul24_batch):
        with pytest.raises(ValueError, match="gating"):
            fn([1], [1], gating=gating)
