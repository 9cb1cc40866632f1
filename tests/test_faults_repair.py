import json

import numpy as np
import pytest

from cifm import multiplier
from cifm.bitcore import BitVec
from cifm.multiplier import (
    GRID_IDS,
    SPARE_IDS,
    FaultSpec,
    ModuleId,
    Quadrant,
    RepairConfig,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)

LL00 = GRID_IDS[Quadrant.LL][(0, 0)]
LL22 = GRID_IDS[Quadrant.LL][(2, 2)]
HH00 = GRID_IDS[Quadrant.HH][(0, 0)]


def repair_of(target):
    return RepairConfig(enabled=True, target=target)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(SPARE_IDS[Quadrant.LL], 0x00)
    with pytest.raises(ValueError):
        FaultSpec(LL00, forced_output=0x100)
    with pytest.raises(ValueError):
        FaultSpec(LL00, 1.5)
    with pytest.raises(ValueError, match="8 bits wide"):
        FaultSpec(LL00, BitVec(1, 4))
    with pytest.raises(ValueError):
        FaultSpec("LL:0:0", 1)


def test_repair_config_validation():
    with pytest.raises(ValueError):
        RepairConfig(enabled=False, target=LL00)
    with pytest.raises(ValueError):
        RepairConfig(enabled=True, target=None)
    with pytest.raises(ValueError):
        RepairConfig(enabled=True, target=SPARE_IDS[Quadrant.LL])
    with pytest.raises(ValueError):
        RepairConfig(True, "LL:0:0")
    with pytest.raises(ValueError):
        RepairConfig("yes", LL00)


def test_module_id_rejects_non_quadrant():
    with pytest.raises(ValueError):
        ModuleId("LL", 0, 0)


@pytest.mark.parametrize(
    "row, col, redundant",
    [("0", 0, False), (1.0, 0, False), (0, True, False), (0, 0, "yes"),
     (3, 0, False), (-1, 0, False), (0, 3, False), (0, -1, False)],
    ids=["row-str", "row-float", "col-bool", "redundant-str",
         "row-3", "row-minus-1", "col-3", "col-minus-1"],
)
def test_module_id_rejects_non_int_position_and_non_bool_flag(row, col, redundant):
    with pytest.raises(ValueError):
        ModuleId(Quadrant.LL, row, col, redundant)


def test_numpy_positions_and_flags_are_stored_as_python_values():
    # numpy row/col/flags used to be stored as given, so json.dumps failed
    mid = ModuleId(Quadrant.LL, np.int64(0), np.int64(0), np.False_)
    assert (type(mid.row), type(mid.col), type(mid.redundant)) == (int, int, bool)
    assert mid == LL00 and hash(mid) == hash(LL00)
    assert json.dumps(mid.to_json()) == json.dumps(LL00.to_json())
    spare = ModuleId(Quadrant.LL, np.int64(2), np.int64(1), np.True_)
    assert (type(spare.row), type(spare.redundant)) == (int, bool)
    assert spare == SPARE_IDS[Quadrant.LL]
    assert type(RepairConfig(np.True_, LL00).enabled) is bool
    assert type(FaultSpec(LL00, np.uint8(3)).forced_output.value) is int


def test_numpy_fault_and_repair_target_give_plain_activity_json():
    target = ModuleId(Quadrant.LL, np.int64(0), np.int64(0))
    ones = 0xFFFFFF
    got = mul24(ones, ones, [FaultSpec(target, 0)], {Quadrant.LL: repair_of(target)})
    want = mul24(ones, ones, [FaultSpec(LL00, 0)], {Quadrant.LL: repair_of(LL00)})
    assert got.activity.disabled_faulty == {LL00}
    assert json.dumps(got.activity.to_json()) == json.dumps(want.activity.to_json())


def test_module_id_spare_normalised():
    spare = ModuleId.spare(Quadrant.HL)
    assert (spare.row, spare.col, spare.redundant) == (0, 0, True)
    assert str(spare) == "HL:spare"


def test_fault_is_observable():
    clean = int(mul12(0xFFF, 0xFFF).product)
    broken = int(mul12(0xFFF, 0xFFF, faults=[FaultSpec(LL00, 0xFF)]).product)
    assert clean == 0xFFE001
    assert broken == 0xFFE01F
    assert broken != clean


def test_unrepaired_fault_is_reported():
    r = mul12(0xFFF, 0xFFF, faults=[FaultSpec(LL00, 0xFF)])
    assert r.unrepaired_faults == (LL00,)
    assert LL00 in r.activity.active_mul4


def test_repair_restores_the_product():
    r = mul12(0xFFF, 0xFFF, faults=[FaultSpec(LL00, 0xFF)], repair=repair_of(LL00))
    assert int(r.product) == 0xFFE001
    assert r.unrepaired_faults == ()
    assert LL00 in r.activity.disabled_faulty
    assert SPARE_IDS[Quadrant.LL] in r.activity.active_mul4


def test_repair_every_position_random_spot():
    rng = np.random.default_rng(11)
    pairs = [(int(rng.integers(0, 1 << 24)), int(rng.integers(0, 1 << 24)))
             for _ in range(20)]
    for quadrant in Quadrant:
        for target in GRID_IDS[quadrant].values():
            cfg = {quadrant: repair_of(target)}
            for x, y in pairs:
                r = mul24(x, y, faults=[FaultSpec(target, 0xAA)], repair=cfg)
                assert int(r.product) == x * y, f"{target} x={x:#x} y={y:#x}"


def test_repair_of_healthy_block_is_harmless():
    r = mul24(0xFFFFFF, 0xFFFFFF, repair={Quadrant.LL: repair_of(LL00)})
    assert int(r.product) == (2**24 - 1) ** 2
    assert LL00 in r.activity.disabled_faulty
    assert SPARE_IDS[Quadrant.LL] in r.activity.active_mul4
    assert r.activity.power_proxy == 36


def test_spare_mirrors_gated_target():
    # repair aimed at a row the checkers switched off: the spare idles too
    r = mul24(0xF, 0xF, repair={Quadrant.LL: repair_of(LL22)})
    act = r.activity
    assert int(r.product) == 225
    assert LL22 in act.disabled_faulty
    assert SPARE_IDS[Quadrant.LL] in act.gated_mul4
    assert act.power_proxy == 1


def test_gated_quadrant_hides_its_fault():
    # operands with zero high halves never power quadrant HH
    r = mul24(0xFFF, 0xFFF, faults=[FaultSpec(HH00, 0xFF)])
    assert int(r.product) == 0xFFF * 0xFFF
    assert r.unrepaired_faults == ()
    assert HH00 in r.activity.gated_mul4


def test_two_faults_one_spare():
    ll01 = GRID_IDS[Quadrant.LL][(0, 1)]
    faults = [FaultSpec(LL00, 0xFF), FaultSpec(ll01, 0xFF)]
    r = mul12(0xFFF, 0xFFF, faults=faults, repair=repair_of(LL00))
    assert r.unrepaired_faults == (ll01,)
    assert int(r.product) != 0xFFE001


def test_duplicate_fault_target_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        mul12(1, 1, faults=[FaultSpec(LL00, 0x01), FaultSpec(LL00, 0x02)])


@pytest.mark.parametrize("operand", [1, 1 << 20])
def test_duplicate_fault_rejected_whatever_the_operands(operand):
    # 1 x 1 leaves quadrant HH dark, 2**20 x 2**20 powers it: both reject
    faults = [FaultSpec(HH00, 0x01), FaultSpec(HH00, 0x02)]
    with pytest.raises(ValueError, match="duplicate"):
        mul24(operand, operand, faults=faults)
    with pytest.raises(ValueError, match="duplicate"):
        mul24_batch([operand], [operand], faults=faults)


def test_fault_outside_quadrant_rejected():
    with pytest.raises(ValueError, match="outside"):
        mul12(1, 1, faults=[FaultSpec(HH00, 0x01)])
    with pytest.raises(ValueError, match="outside quadrant LL"):
        mul12(1, 1, repair=repair_of(HH00))


BAD_PLANS = {
    "faults-int": (24, dict(faults=5)),
    "faults-spec-bare": (24, dict(faults=FaultSpec(LL00, 1))),
    "faults-of-int": (24, dict(faults=[5])),
    "repair-list": (24, dict(repair=[1])),
    "repair-of-bool": (24, dict(repair={Quadrant.LL: True})),
    "repair-by-name": (24, dict(repair={"LL": repair_of(LL00)})),
    "mul12-repair-none": (12, dict(repair=None)),
    "mul12-repair-map": (12, dict(repair={Quadrant.LL: repair_of(LL00)})),
    "mul12-faults-of-int": (12, dict(faults=[5])),
}


@pytest.mark.parametrize("width, kwargs", BAD_PLANS.values(), ids=list(BAD_PLANS))
def test_bad_fault_or_repair_argument_is_value_error(width, kwargs):
    scalar, batch = (mul12, mul12_batch) if width == 12 else (mul24, mul24_batch)
    with pytest.raises(ValueError):
        scalar(1, 1, **kwargs)
    with pytest.raises(ValueError):
        batch([1], [1], **kwargs)


@pytest.mark.parametrize("faults", [(), []], ids=["tuple", "list"])
def test_calls_without_faults_or_repairs_share_the_plain_plan(faults):
    assert multiplier._plan24(faults, None, True) is multiplier._PLAIN
    assert multiplier._plan24(faults, {Quadrant.LL: RepairConfig()}, False) is multiplier._PLAIN
    assert multiplier._plan12(faults, RepairConfig(), True) is multiplier._PLAIN
    # the shortcut still checks the gating flag
    for gating in ("yes", 1, None):
        with pytest.raises(ValueError, match="gating must be a bool"):
            mul24(1, 1, faults, gating=gating)
        with pytest.raises(ValueError, match="gating must be a bool"):
            mul12(1, 1, faults, gating=gating)


def test_activity_json_hands_out_fresh_dicts():
    act = mul24(0xFFFFFF, 0xFFFFFF, repair={Quadrant.LL: repair_of(LL00)}).activity
    doc = act.to_json()
    want = json.dumps(doc)
    for entry in doc["active"] + doc["gated"]:
        entry["row"] = -1
    for entry in doc["adder_levels_active"]:
        entry["block"]["col"] = -1
    assert json.dumps(act.to_json()) == want
    assert json.dumps(mul24(0xFFFFFF, 0xFFFFFF, repair={Quadrant.LL: repair_of(LL00)})
                      .activity.to_json()) == want


def test_repair_filed_under_wrong_quadrant_rejected():
    with pytest.raises(ValueError):
        mul24(1, 1, repair={Quadrant.HH: repair_of(LL00)})


def test_partition_stays_total_under_repair():
    r = mul24(
        0xFFFFFF,
        0xFFFFFF,
        faults=[FaultSpec(LL00, 0x00)],
        repair={Quadrant.LL: repair_of(LL00)},
    )
    act = r.activity
    assert len(act.active_mul4 | act.gated_mul4 | act.disabled_faulty) == 40
    assert act.active_mul4.isdisjoint(act.disabled_faulty)
    assert act.active_mul4.isdisjoint(act.gated_mul4)
    assert act.gated_mul4.isdisjoint(act.disabled_faulty)


def test_forced_zero_fault_on_zero_block_is_silent():
    # block output already zero: forcing zero changes nothing, repair or not
    target = GRID_IDS[Quadrant.LL][(2, 2)]
    r = mul24(0xF, 0xF, faults=[FaultSpec(target, 0x00)])
    assert int(r.product) == 225
