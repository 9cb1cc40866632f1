import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cifm.bitcore import BitVec
from cifm.multiplier import (
    GRID_IDS,
    SPARE_IDS,
    Quadrant,
    export_netlist,
    mul4,
    mul12,
    mul24,
)
from width_oracle import INNER_CLASSES, classify_width

word12 = st.integers(0, 2**12 - 1)
word24 = st.integers(0, 2**24 - 1)


def test_known_products():
    assert int(mul12(4095, 4095).product) == 16769025
    assert int(mul12(9, 11).product) == 99
    assert int(mul24(2**24 - 1, 2**24 - 1).product) == 281474943156225
    assert int(mul24(0xABC, 0xDEF).product) == 0x959184


def test_boundary_pairs():
    vals12 = [0, 1, 2**12 - 1]
    for x in vals12:
        for y in vals12:
            assert int(mul12(x, y).product) == x * y
    vals24 = [0, 1, 2**12 - 1, 2**12, 2**24 - 1]
    for x in vals24:
        for y in vals24:
            assert int(mul24(x, y).product) == x * y


def test_random_sweep_seeded():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x, y = (int(v) for v in rng.integers(0, 1 << 24, size=2))
        assert int(mul24(x, y).product) == x * y


@given(word24, word24)
@settings(max_examples=200, deadline=None)
def test_gating_never_changes_the_product(x, y):
    assert (
        int(mul24(x, y, gating=True).product)
        == int(mul24(x, y, gating=False).product)
        == x * y
    )


@given(word12, word12)
@settings(max_examples=200, deadline=None)
def test_mul12_gating_equivalence(x, y):
    assert (
        int(mul12(x, y, gating=True).product)
        == int(mul12(x, y, gating=False).product)
        == x * y
    )


def _expected_proxy(x: int, y: int) -> int:
    """Re-derive the block count straight from the gating rule."""
    ah, al = x >> 12, x & 0xFFF
    bh, bl = y >> 12, y & 0xFFF
    total = 0
    for a_half, b_half, dark in (
        (al, bl, False),
        (ah, bl, ah == 0),
        (al, bh, bh == 0),
        (ah, bh, ah == 0 or bh == 0),
    ):
        if dark:
            continue
        rows_a = classify_width(BitVec(a_half, 12), INNER_CLASSES) // 4
        rows_b = classify_width(BitVec(b_half, 12), INNER_CLASSES) // 4
        total += rows_a * rows_b
    return total


@given(word24, word24)
@settings(max_examples=200, deadline=None)
def test_power_proxy_matches_gating_rule(x, y):
    assert mul24(x, y).activity.power_proxy == _expected_proxy(x, y)


def test_proxy_extremes():
    assert mul24(0xF, 0xF).activity.power_proxy == 1
    assert mul24(2**24 - 1, 2**24 - 1).activity.power_proxy == 36
    # zero still energises the one narrowest block of quadrant LL
    assert mul24(0, 0).activity.power_proxy == 1


def test_gating_off_lights_everything():
    act = mul24(1, 1, gating=False).activity
    assert act.power_proxy == 36
    assert act.gated_mul4 == frozenset(SPARE_IDS.values())


def test_activity_partitions_every_block():
    for x, y in ((0, 0), (1, 1), (0xFFF, 0xFFF), (0xFFFFFF, 0xABC)):
        act = mul24(x, y).activity
        blocks = act.active_mul4 | act.gated_mul4 | act.disabled_faulty
        assert len(blocks) == 40
        assert len(act.active_mul4) + len(act.gated_mul4) + len(
            act.disabled_faulty
        ) == 40


def test_mul12_activity_covers_ten_blocks():
    act = mul12(0xFFF, 0xFFF).activity
    assert len(act.active_mul4 | act.gated_mul4 | act.disabled_faulty) == 10
    assert act.power_proxy == 9
    assert SPARE_IDS[Quadrant.LL] in act.gated_mul4


def test_levels_reported_only_for_active_blocks():
    act = mul24(0xFFF, 0xFFF).activity
    assert set(act.adder_levels_active) == set(act.active_mul4)
    assert all(0 <= v <= 3 for v in act.adder_levels_active.values())


def test_activity_json_carries_adder_levels():
    act = mul24(0xABCDEF, 0x123).activity
    doc = json.loads(json.dumps(act.to_json()))
    assert doc["adder_levels_active"] == [
        {"block": m.to_json(), "levels": act.adder_levels_active[m]}
        for m in sorted(act.active_mul4, key=str)
    ]
    assert set(doc) == {"active", "gated", "disabled_faulty", "power_proxy",
                        "adder_levels_active"}
    text = json.dumps(mul4(15, 15).activity.to_json())
    assert '"adder_levels_active": [{"block": null, "levels": 3}]' in text


def test_quadrant_placement():
    # one hot block in each quadrant: a = b = 2^12 + 1 lights the four
    # least significant blocks of all quadrants
    act = mul24(2**12 + 1, 2**12 + 1).activity
    assert act.power_proxy == 4
    assert {m.quadrant for m in act.active_mul4} == set(Quadrant)
    assert all((m.row, m.col) == (0, 0) for m in act.active_mul4)


def test_netlists_match_native():
    rng = np.random.default_rng(3)
    n12 = export_netlist("mul12")
    n24 = export_netlist("mul24")
    a = rng.integers(0, 1 << 12, size=500, dtype=np.int64)
    b = rng.integers(0, 1 << 12, size=500, dtype=np.int64)
    assert np.array_equal(n12.evaluate({"a": a, "b": b}), a * b)
    a = rng.integers(0, 1 << 24, size=500, dtype=np.int64)
    b = rng.integers(0, 1 << 24, size=500, dtype=np.int64)
    got = n24.evaluate({"a": a, "b": b})
    assert all(int(g) == int(x) * int(y) for g, x, y in zip(got, a, b))


def test_mul24_product_masks_to_48_bits():
    assert mul24(2**24 - 1, 2**24 - 1).product.width == 48
    assert mul12(2**12 - 1, 2**12 - 1).product.width == 24
