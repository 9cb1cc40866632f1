"""The batched block engine against oracles that share none of its code.

Expected products come from Python integers and from a faulted-block
formula written out here; the engine's width classification is checked
against the scalar ``classify_width`` in ``width_oracle``.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from cifm import multiplier
from cifm.bitcore import BitVec
from cifm.multiplier import (
    BLOCK_IDS,
    CHUNK,
    GRID_IDS,
    SPARE_IDS,
    FaultSpec,
    Quadrant,
    RepairConfig,
    _row_sums,
    mul4,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)
from cifm.verify import BOUNDARY_VALUES
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


def _classified(x: int, y: int, width: int = 24) -> int:
    """The energised mask that the paper's width classes give a gated pair."""
    outer_a = width == 12 or classify_width(BitVec(x, 24), OUTER_CLASSES) == 24
    outer_b = width == 12 or classify_width(BitVec(y, 24), OUTER_CLASSES) == 24
    want = 0
    for name, (ha, hb) in HALVES.items() if width == 24 else [("LL", (0, 0))]:
        if (ha and not outer_a) or (hb and not outer_b):
            continue
        xh, yh = _halves(x, y, ha, hb)
        rows = classify_width(BitVec(xh, 12), INNER_CLASSES) // 4
        cols = classify_width(BitVec(yh, 12), INNER_CLASSES) // 4
        for (i, j), mid in GRID_IDS[Quadrant(name)].items():
            want |= (i < rows and j < cols) << _bit(mid)
    return want


def test_energised_blocks_follow_classify_width():
    a, b = _operands(6, 500)
    r = mul24_batch(a, b)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        assert int(r.energised[k]) == _classified(x, y)


def _half_with_groups(rng: np.random.Generator, groups: int) -> int:
    """A random 12-bit half whose top non-zero 4-bit group is ``groups - 1``
    (zero for 0 groups)."""
    if groups == 0:
        return 0
    top = int(rng.integers(1, 16)) << 4 * (groups - 1)
    return top | int(rng.integers(0, 1 << 4 * (groups - 1)))


@pytest.mark.parametrize("width", [24, 12])
def test_every_power_pattern(width):
    """One pair for each count of powered groups (0-3) in each operand half:
    16 x 16 pairs for mul24 and 4 x 4 for mul12. A zero low half powers its
    group 0 like a one-group half, which leaves 144 and 9 power patterns."""
    rng = np.random.default_rng(13)
    halves = width // 12
    counts = list(itertools.product(range(4), repeat=halves))
    operands = []
    for ca, cb in itertools.product(counts, repeat=2):
        x = y = 0
        for h in range(halves):
            x |= _half_with_groups(rng, ca[h]) << 12 * h
            y |= _half_with_groups(rng, cb[h]) << 12 * h
        operands.append((x, y))
    a, b = (np.array(v) for v in zip(*operands))
    scalar, batch = (mul24, mul24_batch) if width == 24 else (mul12, mul12_batch)
    r = batch(a, b)
    for k, (x, y) in enumerate(operands):
        assert int(r.energised[k]) == _classified(x, y, width), (hex(x), hex(y))
        assert int(r.products[k]) == x * y
        assert scalar(x, y).activity.active_mul4 == _ids(int(r.energised[k]))
    assert len(set(r.energised.tolist())) == (144 if width == 24 else 9)
    placed = BLOCK_IDS[:36] if width == 24 else GRID_IDS[Quadrant.LL].values()
    grid = sum(1 << _bit(m) for m in placed)
    assert np.all(batch(a, b, gating=False).energised == grid)


def test_import_builds_no_table():
    code = (
        "import cifm; from cifm import multiplier as m; "
        "print(*(f.cache_info().currsize for f in "
        "(m._mul4_tables, m._row_sums, m._power_tables, m._views)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0", "0", "0"]


def test_row_sums_are_group_times_half():
    """Entry a << 12 | b of the row-sum table is a * b: it is built from the
    mul4 netlist's truth table, so a wrong table would show here."""
    a = np.arange(16)[:, None]
    b = np.arange(1 << 12)[None, :]
    assert np.array_equal(_row_sums(), (a * b).ravel())


def _numpy_row_sums(product: np.ndarray) -> np.ndarray:
    """The row-sum table from the 256-entry mul4 product table (index
    b << 4 | a), as numpy broadcasting builds it: laid out a, b2, b1, b0."""
    block = np.ascontiguousarray(product.reshape(16, 16).T, dtype=np.int32)   # [a, b]
    b2 = block[:, :, None, None] << 8
    b1 = block[:, None, :, None] << 4
    return (b2 + b1 + block[:, None, None, :]).ravel()


def _numpy_power_tables(layout) -> tuple[np.ndarray, np.ndarray]:
    """Group counts per 12-bit half and the energised mask per power pattern,
    from the width rule applied to every pattern at once."""
    x = np.arange(1 << 12)[:, None]
    counts = (x >= 16 ** np.arange(3)).sum(axis=1, dtype=np.uint8)
    weights = 4 ** np.arange(2 * layout.halves)
    patterns = np.arange(1 << 4 * layout.halves)
    groups = (patterns // weights[:, None] & 3).reshape(2, layout.halves, -1)
    groups[:, 0] = np.maximum(groups[:, 0], 1)
    masks = np.zeros(patterns.size, dtype=np.int64)
    for bit, (r, c) in layout.pos.items():
        on = (r % 3 < groups[0, r // 3]) & (c % 3 < groups[1, c // 3])
        masks |= on.astype(np.int64) << bit
    return counts, masks


@pytest.mark.parametrize("layout", [multiplier._MUL24, multiplier._MUL12],
                         ids=["mul24", "mul12"])
def test_tables_equal_their_numpy_builds_and_the_engine_wraps_them(layout):
    product = np.array(multiplier._mul4_tables()[0])
    assert np.array_equal(product, np.arange(256) % 16 * (np.arange(256) // 16))
    row_sums = multiplier._row_sums()
    counts, masks = multiplier._power_tables(layout)
    engine = multiplier._engine(layout)
    want_counts, want_masks = _numpy_power_tables(layout)
    for got, view, want in ((row_sums, engine.sums, _numpy_row_sums(product)),
                            (counts, engine.counts, want_counts),
                            (masks, engine.masks, want_masks)):
        assert got.itemsize == want.itemsize and view.dtype == want.dtype
        assert np.array_equal(np.frombuffer(got, dtype=want.dtype), want)
        # the batch engine reads the scalar pass's buffer, not a copy
        assert np.shares_memory(view, np.frombuffer(got, dtype=want.dtype))
    sums_view, counts_view, masks_view = multiplier._views(layout)
    assert (sums_view.obj, counts_view.obj, masks_view.obj) == (row_sums, counts, masks)


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


def _ids(mask: int) -> set:
    return {m for n, m in enumerate(BLOCK_IDS) if mask >> n & 1}


def test_scalar_is_element_k_of_the_batch():
    """Scalar mul24/mul12 against the batch engine pair by pair, on random and
    boundary pairs: a fault at every position, repaired or not, and no fault,
    with gating on and off. The batch's masks give the product, the three
    activity sets and the unrepaired faults; a repaired target is disabled
    when its quadrant is powered."""
    for width in (24, 12):
        _scalar_matches_batch(width)


def _scalar_matches_batch(width: int) -> None:
    a, b = _operands(8, 300, width)
    edge = [v for v in BOUNDARY_VALUES if v < 1 << width]
    edge_a, edge_b = zip(*itertools.product(edge, repeat=2))
    a = np.concatenate([a[::7], edge_a])
    b = np.concatenate([b[::7], edge_b])
    quads = list(Quadrant) if width == 24 else [Quadrant.LL]
    ids = {m for q in quads for m in (*GRID_IDS[q].values(), SPARE_IDS[q])}
    scalar, batch = (mul24, mul24_batch) if width == 24 else (mul12, mul12_batch)
    plans = [((), None)]
    for n, target in enumerate(t for q in quads for t in GRID_IDS[q].values()):
        fault = [FaultSpec(target, FORCED[n % len(FORCED)])]
        plans += [(fault, None), (fault, target)]
    for faults, fixed in plans:
        if width == 12:
            repair = RepairConfig(enabled=fixed is not None, target=fixed)
        else:
            repair = {fixed.quadrant: RepairConfig(enabled=True, target=fixed)} if fixed else None
        for gating in (True, False):
            r = batch(a, b, faults, repair, gating=gating)
            for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
                s = scalar(x, y, faults, repair, gating=gating)
                active = _ids(int(r.energised[k]))
                disabled = {
                    t for t in [fixed] if t and any(m.quadrant is t.quadrant for m in active)
                }
                assert int(s.product) == int(r.products[k]), (faults, fixed, gating, x, y)
                assert s.activity.active_mul4 == active
                assert s.activity.disabled_faulty == disabled
                assert s.activity.gated_mul4 == ids - active - disabled
                assert s.unrepaired_faults == tuple(
                    m for n, m in enumerate(BLOCK_IDS) if int(r.unrepaired[k]) >> n & 1
                )


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


def _composed(x, y, quads, forced, repaired, gating) -> tuple[int, int, int]:
    """(product, unrepaired mask, quadrant wraps) summed block by block.

    ``forced`` maps (quadrant name, i, j) to a stuck output; the blocks in
    ``repaired`` compute their true product on the spare. Each quadrant sums
    its nine block products modulo 2**24.
    """
    product = unrepaired = wraps = 0
    for name in quads:
        ha, hb = HALVES[name]
        xh, yh = _halves(x, y, ha, hb)
        quad = 0
        for i in range(3):
            for j in range(3):
                block = ((xh >> 4 * i) & 0xF) * ((yh >> 4 * j) & 0xF)
                key = (name, i, j)
                if key in forced and key not in repaired and _block_on(
                    x, y, ha, hb, i, j, gating
                ):
                    block = forced[key]
                    unrepaired |= 1 << _bit(GRID_IDS[Quadrant(name)][(i, j)])
                quad += block << 4 * (i + j)
        wraps += quad >= 2**24
        product += (quad % 2**24) << 12 * (ha + hb)
    return product % 2**48, unrepaired, wraps


# (faults as (quadrant, i, j, forced), the repaired subset of their positions)
COMPOSED = [
    ([("LL", 0, 0, 0xFF), ("LL", 2, 2, 0xFF)], []),
    ([("HH", 1, 1, 0x00), ("HH", 2, 2, 0xFF), ("HH", 2, 0, 0xA5)], [("HH", 2, 2)]),
    ([("LL", 2, 2, 0xFF), ("HL", 1, 2, 0x5A), ("HH", 2, 1, 0xFF)], [("HL", 1, 2)]),
    ([("LH", 2, 2, 0xFF), ("HH", 0, 2, 0x11)], [("LH", 2, 2), ("HH", 0, 2)]),
    ([("LH", 0, 1, 0xFF), ("HL", 2, 2, 0xFF), ("HH", 2, 2, 0xFF)], []),
]


def _plan_of(case):
    faults, repaired = case
    specs = [FaultSpec(GRID_IDS[Quadrant(q)][(i, j)], v) for q, i, j, v in faults]
    repair = {
        Quadrant(q): RepairConfig(enabled=True, target=GRID_IDS[Quadrant(q)][(i, j)])
        for q, i, j in repaired
    }
    forced = {(q, i, j): v for q, i, j, v in faults}
    return specs, repair, forced, set(repaired)


@pytest.mark.parametrize("gating", [True, False])
def test_faults_compose_in_mul24(gating):
    a, b = _operands(11, 400)
    wraps = 0
    for case in COMPOSED:
        specs, repair, forced, repaired = _plan_of(case)
        r = mul24_batch(a, b, faults=specs, repair=repair or None, gating=gating)
        for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            want, mask, wrapped = _composed(x, y, HALVES, forced, repaired, gating)
            wraps += wrapped
            assert int(r.products[k]) == want, (case, hex(x), hex(y))
            assert int(r.unrepaired[k]) == mask
            if k % 10 == 0:
                s = mul24(x, y, faults=specs, repair=repair or None, gating=gating)
                assert int(s.product) == want
                assert s.unrepaired_faults == tuple(
                    m for n, m in enumerate(BLOCK_IDS) if mask >> n & 1
                )
    assert wraps > 0                        # the quadrant's mod-2**24 wrap was exercised


@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("repaired", [None, (0, 0), (2, 2)])
def test_faults_compose_in_mul12(gating, repaired):
    a, b = _operands(12, 400, width=12)
    faults = [("LL", 0, 0, 0x3C), ("LL", 2, 2, 0xFF), ("LL", 1, 2, 0xFF)]
    specs, _, forced, _ = _plan_of((faults, []))
    repair, fixed = RepairConfig(), set()
    if repaired is not None:
        repair = RepairConfig(enabled=True, target=GRID_IDS[Quadrant.LL][repaired])
        fixed = {("LL",) + repaired}
    r = mul12_batch(a, b, faults=specs, repair=repair, gating=gating)
    wraps = 0
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        want, mask, wrapped = _composed(x, y, ["LL"], forced, fixed, gating)
        wraps += wrapped
        assert int(r.products[k]) == want, (hex(x), hex(y))
        assert int(r.unrepaired[k]) == mask
        if k % 10 == 0:
            s = mul12(x, y, faults=specs, repair=repair, gating=gating)
            assert int(s.product) == want
            assert s.unrepaired_faults == tuple(
                m for n, m in enumerate(BLOCK_IDS) if mask >> n & 1
            )
    assert wraps > 0
