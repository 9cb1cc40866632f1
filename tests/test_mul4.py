import numpy as np
import pytest

from cifm import multiplier
from cifm.bitcore import BitVec, CellKind
from cifm.multiplier import export_netlist, mul4


def test_exhaustive_against_native():
    for a in range(16):
        for b in range(16):
            assert int(mul4(a, b).product) == a * b


def test_known_products():
    assert int(mul4(15, 15).product) == 0xE1
    assert int(mul4(7, 6).product) == 42
    assert int(mul4(0, 13).product) == 0


def test_product_is_eight_bits():
    r = mul4(15, 15)
    assert r.product.width == 8


def test_rejects_oversize_operand():
    with pytest.raises(ValueError):
        mul4(16, 1)
    with pytest.raises(ValueError):
        mul4(BitVec(3, 5), 1)


def test_adder_levels_track_work():
    # a 1x1 product flows straight through the AND plane
    assert mul4(1, 1).activity.adder_levels_active[None] == 0
    assert mul4(15, 15).activity.adder_levels_active[None] == 3
    assert mul4(0, 0).activity.adder_levels_active[None] == 0


def test_standalone_block_has_no_grid_identity():
    act = mul4(9, 9).activity
    assert act.active_mul4 == frozenset()
    assert act.power_proxy == 0


def test_netlist_structure_is_frozen():
    net = export_netlist("mul4")
    kinds = [c.kind.value for c in net.cells]
    assert len(kinds) == 33
    assert kinds.count("AND") == 16
    assert net.unit_delay() == 9
    assert [name for name, _ in net.outputs] == [f"p{k}" for k in range(8)]


def test_netlist_matches_native_on_full_index_space():
    net = export_netlist("mul4")
    idx = np.arange(1 << 8, dtype=np.int64)
    a, b = idx & 0xF, idx >> 4
    assert np.array_equal(net.evaluate({"a": a, "b": b}), a * b)


def test_the_block_tables_agree_with_the_engine():
    """The tables mul4 reads come from the cells' functions, not from the
    compiled engine: for every pair, the engine's product and, per adder
    level, the OR of that level's HA/FA input nets give the same values."""
    net = export_netlist("mul4")
    idx = np.arange(1 << 8, dtype=np.int64)
    ops = {"a": idx & 0xF, "b": idx >> 4}
    product, levels = multiplier._mul4_tables()
    assert net.evaluate(ops).tolist() == product
    nets = net.evaluate_nets(ops)
    active = np.zeros(1 << 8, dtype=np.int64)
    for level in (1, 2, 3):
        reads = [nets[n] for c in net.cells if c.level == level and c.kind is not CellKind.AND
                 for n in c.inputs]
        active += np.bitwise_or.reduce(reads)
    assert active.tolist() == levels
