"""The batched block engine against oracles that share none of its code.

Expected products come from Python integers and from a faulted-block
formula written out here; the engine's width classification is checked
against the scalar ``classify_width`` in ``width_oracle``.
"""

import itertools
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from cifm import multiplier, verify
from cifm.bitcore import BitVec
from cifm.fp32 import fp_mul, fp_mul_batch
from cifm.multiplier import (
    BLOCK_IDS,
    BlockBatch,
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


@pytest.mark.parametrize("width", [24, 12])
def test_one_lookup_gives_the_same_masks_to_ints_and_arrays(width):
    """For every power pattern, :func:`_power_mask` gives the same masks on
    the record with Python ints as on the engine's views with an int64
    stack: an int for each pair, and one int64 array for the stack."""
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
    layout = multiplier._MUL24 if width == 24 else multiplier._MUL12
    record, engine = multiplier._tables(layout), multiplier._engine(layout)
    ints = [multiplier._power_mask(record, x, y) for x, y in operands]
    assert all(type(mask) is int for mask in ints)
    assert ints == [_classified(x, y, width) for x, y in operands]
    a, b = np.array(operands, dtype=np.int64).T
    masks = multiplier._power_mask(engine, a, b)
    assert masks.dtype == np.int64 and masks.shape == (len(operands),)
    assert masks.tolist() == ints


def test_import_builds_no_table():
    code = (
        "import cifm; from cifm import multiplier as m; "
        "print(*(f.cache_info().currsize for f in "
        "(m._mul4_tables, m._row_sums, m._group_counts, m._tables, m._engine)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0", "0", "0", "0"]


# Block-level work, run in a fresh interpreter: every scalar and batch entry
# point, with a fault and a repair, the netlists' documents, and the block
# commands in-process; then the first netlist evaluation.
BLOCK_WORK = """
import contextlib, io, json, sys
import numpy as np
from cifm import (GRID_IDS, FaultSpec, Quadrant, RepairConfig, export_netlist, fp_mul,
                  fp_mul_batch, mul4, mul12, mul12_batch, mul24, mul24_batch)
from cifm.cli import main

target = GRID_IDS[Quadrant.LL][(1, 2)]
faults = [FaultSpec(target, 0xA5)]
repair = {Quadrant.LL: RepairConfig(True, target)}
mul4(0xF, 0xD)
for args in ((), (faults,), (faults, RepairConfig(True, target))):
    mul12(0xABC, 0x987, *args).activity.power_proxy
    mul12_batch(np.array([0xABC]), np.array([0x987]), *args)
for args in ((), (faults,), (faults, repair)):
    mul24(0xABCDEF, 0x987654, *args).activity.to_json()
    mul24_batch(np.array([0xABCDEF]), np.array([0x987654]), *args)
    fp_mul(0x3FC00000, 0x40490FDB, *args)
    fp_mul_batch(np.array([0x3FC00000]), np.array([0x40490FDB]), *args)
for level in ("mul4", "mul12", "mul24"):
    json.dumps(export_netlist(level).to_json())
for args in (["mul", "0x123", "0x456", "--report"], ["report", "0x123456", "0xFEDCBA"],
             ["fpmul", "0x3FC00000", "0x40200000", "--trace"], ["netlist", "mul24"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
before = "cifm._plans" in sys.modules
export_netlist("mul4").evaluate({"a": 3, "b": 5})
from cifm._plans import anf_program
print(json.dumps([before, anf_program.cache_info().misses]))
"""


def test_block_level_work_never_loads_the_engine():
    out = subprocess.run([sys.executable, "-c", BLOCK_WORK], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    # the first evaluation factors the mul4 netlist's three cell kinds, and
    # nothing before it had factored any
    assert json.loads(out.stdout) == [False, 3]


def test_scalar_calls_read_one_record_per_layout():
    """mul12, mul24 and fp_mul, plain, faulted and repaired, build the one
    record of each layout once, and it holds the engine's own tables."""
    # the engine keeps views of the record's buffers, so it goes with them
    multiplier._tables.cache_clear()
    multiplier._engine.cache_clear()
    target = GRID_IDS[Quadrant.LL][(1, 2)]
    faults = [FaultSpec(target, 0xA5)]
    for gating in (True, False):
        mul12(0xABC, 0x987, gating=gating)
        mul12(0xABC, 0x987, faults, RepairConfig(True, target), gating=gating)
    assert multiplier._tables.cache_info().currsize == 1
    fp_mul(0x3FC00000, 0x40490FDB)
    fp_mul(0x3FC00000, 0x40490FDB, faults)
    for gating in (True, False):
        mul24(0xABCDEF, 0x987654, gating=gating)
        mul24(0xABCDEF, 0x987654, faults, {Quadrant.LL: RepairConfig(True, target)},
              gating=gating)
    info = multiplier._tables.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    for layout in (multiplier._MUL12, multiplier._MUL24):
        record = multiplier._tables(layout)
        engine = multiplier._engine(layout)
        assert record.sums is _row_sums()
        assert record.counts is multiplier._group_counts()
        for buffer, view in ((record.counts, engine.counts), (record.masks, engine.masks)):
            assert np.shares_memory(view, np.frombuffer(buffer, dtype=view.dtype))


def test_datapaths_share_one_group_count_table():
    mul12_record, mul24_record = map(multiplier._tables, (multiplier._MUL12, multiplier._MUL24))
    assert mul12_record.counts is mul24_record.counts
    assert mul12_record.sums is mul24_record.sums
    assert mul12_record.masks is not mul24_record.masks


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
    record = multiplier._tables(layout)
    counts, masks = record.counts, record.masks
    engine = multiplier._engine(layout)
    want_counts, want_masks = _numpy_power_tables(layout)
    for got, view, want in ((row_sums, engine.sums, _numpy_row_sums(product)),
                            (counts, engine.counts, want_counts),
                            (masks, engine.masks, want_masks)):
        assert got.itemsize == want.itemsize and view.dtype == want.dtype
        assert np.array_equal(np.frombuffer(got, dtype=want.dtype), want)
        # the batch engine reads the scalar pass's buffer, not a copy
        assert np.shares_memory(view, np.frombuffer(got, dtype=want.dtype))


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


@pytest.mark.parametrize("shape", [(0,), (1,), (1000,), (CHUNK,), (CHUNK + 1,), (2500,),
                                   (20, 30), (40, 30)], ids=str)
@pytest.mark.parametrize("width", [24, 12])
def test_one_pass_gives_what_separate_calls_give(width, shape):
    """Every plan of one shared engine pass equals its own mul*_batch call,
    in products, energised and unrepaired masks, with gating on and off."""
    rng = np.random.default_rng(width + sum(shape))
    a, b = rng.integers(0, 1 << width, (2, *shape)) >> rng.integers(0, width + 1, (2, *shape))
    for gating in (True, False):
        setups = verify._random_setups(rng, width, 16)
        assert verify._shared_pass(width, a, b, setups, gating) == []
        for r in multiplier._batches(width, a, b, setups, gating):
            for g in r:
                assert g.dtype == np.int64 and g.shape == shape and g.flags.writeable


@pytest.mark.parametrize("n", [1000, 2500])
def test_changing_one_plans_batch_leaves_the_others_alone(n):
    """Plans that could share the pass's arrays (no fault, no repair, or
    only a repaired fault) each get their own: a batch overwritten as soon
    as it comes out, before the next plan runs, changes no later batch."""
    a, b = _operands(13, n)
    a, b = a[:n], b[:n]
    target = GRID_IDS[Quadrant.LH][(1, 1)]
    fault = [FaultSpec(target, 0xFF)]
    repaired = {Quadrant.LH: RepairConfig(True, target)}
    healthy = {Quadrant.LH: RepairConfig(True, GRID_IDS[Quadrant.LH][(0, 2)])}
    setups = [((), None), ((), None), (fault, repaired), (fault, None), (fault, None),
              ((), healthy), (fault, repaired), ((), None)]
    want = [mul24_batch(a, b, faults, repair) for faults, repair in setups]
    for r, w in zip(multiplier._batches(24, a, b, setups), want, strict=True):
        for g, expected in zip(r, w):
            assert np.array_equal(g, expected)
            g[...] = -1


def test_the_largest_sums_are_exact():
    """Every block of mul24 forced to 0xFF on all-ones operands: the largest
    quadrant and top-level sums the engine forms, which its float64 matmuls
    must give exactly."""
    faults = [FaultSpec(t, 0xFF) for t in BLOCK_IDS[:36]]
    quad = sum(0xFF << 4 * (i + j) for i in range(3) for j in range(3))
    assert quad >= 2**24                    # the quadrant wraps
    want = sum((quad % 2**24) << 12 * (ha + hb) for ha, hb in HALVES.values()) % 2**48
    top = (1 << 24) - 1
    r = mul24_batch([top, top - 1], [top, top])
    f = mul24_batch([top, top - 1], [top, top], faults)
    assert r.products.tolist() == [top * top, (top - 1) * top]
    assert f.products.tolist() == [want, want]



# No batch product depends on which blocks are powered but through a live
# fault, so a call looks up its power masks only when a plan has one, and
# otherwise leaves them to the first read of a batch's masks.

@pytest.fixture
def passes(monkeypatch):
    """The batch engine's calls of the pattern lookup, which a call's pass
    and a batch's first read share: one per mask pass over a call's
    operands. Scalar calls, made on the record, are not counted."""
    calls = []
    real = multiplier._power_mask

    def counted(*args):
        if type(args[0]) is multiplier._Engine:
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(multiplier, "_power_mask", counted)
    return calls


_LIVE = FaultSpec(GRID_IDS[Quadrant.LL][(1, 2)], 0xA5)
_SWAP = 1 << _bit(_LIVE.target) | 1 << _bit(SPARE_IDS[Quadrant.LL])
NO_LIVE_FAULT = [(24, False), (24, True), (12, False), (12, True)]
NO_LIVE_IDS = ["mul24", "mul24-repaired", "mul12", "mul12-repaired"]
SIZES = [0, 1, CHUNK, CHUNK + 1]


def _pairs(seed: int, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = _operands(seed, n, width)
    return a[:n], b[:n]


def _no_live_fault(width: int, repaired: bool, a, b, gating: bool = True):
    """A call of ``mul{width}_batch`` with no live fault: plain, or with
    ``_LIVE`` repaired by its quadrant's spare."""
    batch = mul24_batch if width == 24 else mul12_batch
    if not repaired:
        return batch(a, b, gating=gating)
    cfg = RepairConfig(True, _LIVE.target)
    return batch(a, b, [_LIVE], {Quadrant.LL: cfg} if width == 24 else cfg, gating=gating)


def _want_masks(width: int, repaired: bool, a, b) -> list[int]:
    """The energised masks of the width classes, with ``_LIVE``'s bit on its
    spare when it is repaired and powered."""
    want = [_classified(x, y, width) for x, y in zip(a.tolist(), b.tolist())]
    return [m ^ _SWAP if repaired and m >> _bit(_LIVE.target) & 1 else m for m in want]


@pytest.mark.parametrize("n", SIZES)
def test_a_call_with_no_live_fault_makes_no_mask_pass(n, passes):
    for width, repaired in NO_LIVE_FAULT:
        r = _no_live_fault(width, repaired, *_pairs(20, n, width))
        r.products, r.unrepaired
    patterns = 0x3F800000 | np.arange(n, dtype=np.int64) * 0x3FF % (1 << 23)
    repair = {Quadrant.LL: RepairConfig(True, _LIVE.target)}
    fp_mul_batch(patterns, patterns[::-1])
    fp_mul_batch(patterns, patterns[::-1], [_LIVE], repair)
    assert passes == []


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("width, repaired", NO_LIVE_FAULT, ids=NO_LIVE_IDS)
def test_the_first_read_of_the_masks_makes_the_one_pass(width, repaired, n, passes):
    a, b = _pairs(21, n, width)
    r = _no_live_fault(width, repaired, a, b)
    assert passes == []
    masks = r.energised
    assert len(passes) == 1
    assert r.energised is masks
    list(r), repr(r), pickle.dumps(r)
    assert len(passes) == 1
    assert masks.dtype == np.int64 and masks.shape == (n,) and masks.flags.writeable
    assert masks.tolist() == _want_masks(width, repaired, a, b)
    assert np.array_equal(r.unrepaired, np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("n", SIZES)
def test_a_live_fault_makes_the_one_pass_in_the_call(n, passes):
    a, b = _pairs(22, n, 24)
    r = mul24_batch(a, b, [_LIVE])
    assert len(passes) == 1
    masks = r.energised
    assert len(passes) == 1
    assert masks.tolist() == _want_masks(24, False, a, b)
    assert np.array_equal(r.unrepaired, masks & 1 << _bit(_LIVE.target))


@pytest.mark.parametrize("width", [24, 12])
def test_no_gating_keeps_the_all_on_mask_with_no_pass(width, passes):
    a, b = _pairs(23, CHUNK + 1, width)
    placed = BLOCK_IDS[:36] if width == 24 else GRID_IDS[Quadrant.LL].values()
    grid = sum(1 << _bit(m) for m in placed)
    for r in (_no_live_fault(width, False, a, b, gating=False),
              _no_live_fault(width, True, a, b, gating=False),
              (mul24_batch if width == 24 else mul12_batch)(a, b, [_LIVE], gating=False)):
        spare = r.energised >> _bit(SPARE_IDS[Quadrant.LL]) & 1
        assert np.array_equal(r.energised ^ spare * _SWAP, np.full(a.shape, grid))
    assert passes == []


@pytest.mark.parametrize("n", [1000, CHUNK + 1])
@pytest.mark.parametrize("width", [24, 12])
def test_one_pass_serves_every_plan_of_a_shared_call(width, n, passes):
    """24 plans of one _batches call read their masks after one pass: in the
    call when a plan has a live fault, else on the first read. No two of
    their arrays share memory."""
    rng = np.random.default_rng(width + n)
    a, b = rng.integers(0, 1 << width, (2, n)) >> rng.integers(0, width + 1, (2, n))
    drawn = verify._random_setups(rng, width, 24)
    # the same plans with only their repaired faults kept: no fault is live
    repaired = [([f for f in faults if f.target in verify._repaired(repair)], repair)
                for faults, repair in drawn]
    for setups, in_call in ((drawn, 1), (repaired, 0)):
        passes.clear()
        batches = list(multiplier._batches(width, a, b, setups))
        assert len(passes) == in_call
        arrays = [array for r in batches for array in r]
        assert len(passes) == 1
        for one, other in itertools.combinations(arrays, 2):
            assert not np.shares_memory(one, other)
        assert verify._shared_pass(width, a, b, setups, True) == []


@pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("width, repaired", NO_LIVE_FAULT, ids=NO_LIVE_IDS)
def test_masks_read_late_equal_masks_read_at_once(width, repaired, n):
    a, b = _pairs(24, n, width)
    want = _want_masks(width, repaired, a, b)
    eager = _no_live_fault(width, repaired, a, b).energised
    late = _no_live_fault(width, repaired, a, b)
    a[...] = 0
    b[...] = (1 << width) - 1
    assert late.energised.tolist() == eager.tolist() == want


def test_block_batch_keeps_its_record_forms():
    """Built from three arrays or by the engine, a batch unpacks in field
    order, under the field names ``verify._shared_pass`` reads, prints and
    pickles as the record of its arrays, and keeps 0-d and empty shapes."""
    fields = [np.arange(3, dtype=np.int64) << k for k in range(3)]
    batch = BlockBatch(*fields)
    assert BlockBatch._fields == batch._fields == ("products", "energised", "unrepaired")
    assert [getattr(batch, name) for name in batch._fields] == list(batch)
    assert all(got is want for got, want in zip(batch, fields, strict=True))
    products, energised, unrepaired = batch
    assert energised is fields[1]
    assert repr(batch) == ("BlockBatch(products=array([0, 1, 2]), energised=array([0, 2, 4]), "
                           "unrepaired=array([0, 4, 8]))")
    a = np.array([[0xABCDEF, 0xF, 0]])
    engine = [mul24_batch(a, a), mul24_batch(a, a, [_LIVE]), mul24_batch(7, 9),
              mul24_batch(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int)),
              mul12_batch(0xABC, 0x987)]
    for r, shape in zip([batch, *engine], [(3,), (1, 3), (1, 3), (), (0, 2), ()]):
        rebuilt = BlockBatch(*r)
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is BlockBatch
        assert repr(copy) == repr(r) == repr(rebuilt)
        for got, want in zip(copy, r, strict=True):
            assert got.dtype == want.dtype == np.int64 and got.shape == want.shape == shape
            assert np.array_equal(got, want)
    assert int(engine[2].products) == 63 and int(engine[2].energised) == _classified(7, 9)
