import hashlib
import json

import numpy as np
import pytest

from cifm import multiplier
from cifm.bitcore import CellNetlist
from cifm.multiplier import cost_report, export_netlist, mul24
from cifm.revlogic import RevNetlist, expand, simulate


def test_classical_json_schema():
    doc = export_netlist("mul4").to_json()
    assert set(doc) == {"inputs", "cells", "outputs"}
    assert doc["inputs"][0]["name"] == "a" and doc["inputs"][0]["width"] == 4
    for cell in doc["cells"]:
        assert set(cell) == {"kind", "ins", "outs", "level", "module_id"}
        assert cell["kind"] in ("AND", "HA", "FA")
        for net in cell["ins"] + cell["outs"]:
            assert net.startswith("n")
    assert [o["name"] for o in doc["outputs"]] == [f"p{k}" for k in range(8)]


def test_classical_json_is_deterministic():
    one = json.dumps(export_netlist("mul24").to_json(), sort_keys=True)
    two = json.dumps(export_netlist("mul24").to_json(), sort_keys=True)
    assert one == two


# sha256 of each `cifm netlist` document as printed: json.dumps(doc, indent=2)
# plus a newline. A builder that reorders cells or renames nets changes it.
NETLIST_SHA256 = {
    "mul4": "bb9e46dcb8b5726f2274e881aa451482bc91b6c4434207e1f90ebd3bbcc96a96",
    "mul12": "1dffb1c9e6c3618954c2a81b1b02da263dcb1b93d5a1e266f3169fd1f7499522",
    "mul24": "b2c6b9fde0789687338ad30b6768af54346f5a44456d847b78fffcecf115b7ec",
    "mul4-rev": "575bc991182532039667fd1bffa657b5f5d4f4a1fea3354a320f5de349330c94",
    "mul12-rev": "d3d0e417d553a569c46b4821bec59cc7bbbfd1594168ebc04cb5a6370eb2f152",
    "cifm-rev": "65dc453c4909b0610ebd974a0c6d1ae23692b27ccf3856d03ba9fdee1056481a",
}
REV_LEVELS = {"mul4-rev": "mul4", "mul12-rev": "mul12", "cifm-rev": "mul24"}


@pytest.mark.parametrize("target", NETLIST_SHA256)
def test_netlist_documents_are_pinned(target):
    if target in REV_LEVELS:
        doc = expand(export_netlist(REV_LEVELS[target])).to_json()
    else:
        doc = export_netlist(target).to_json()
    text = json.dumps(doc, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == NETLIST_SHA256[target]


def test_classical_json_roundtrip_evaluates():
    doc = export_netlist("mul12").to_json()
    clone = CellNetlist.from_json(json.loads(json.dumps(doc)))
    rng = np.random.default_rng(2)
    a = rng.integers(0, 1 << 12, size=200, dtype=np.int64)
    b = rng.integers(0, 1 << 12, size=200, dtype=np.int64)
    assert np.array_equal(clone.evaluate({"a": a, "b": b}), a * b)


def test_rev_json_schema():
    doc = expand(export_netlist("mul4")).to_json()
    assert set(doc) == {"lines", "gates", "output_roles"}
    for gate in doc["gates"]:
        assert set(gate) == {"name", "lines", "ordinal"}
    roles = {r["role"] for r in doc["output_roles"]}
    assert "output" in roles and "garbage" in roles
    named = [r for r in doc["output_roles"] if r["role"] == "output"]
    assert sorted(r["name"] for r in named) == sorted(f"p{k}" for k in range(8))


def test_rev_json_roundtrip_simulates():
    """Re-simulating the serialized big datapath matches the block model."""
    doc = expand(export_netlist("mul24")).to_json()
    clone = RevNetlist.from_json(json.loads(json.dumps(doc)))
    rng = np.random.default_rng(4)
    a = rng.integers(0, 1 << 24, size=100, dtype=np.int64)
    b = rng.integers(0, 1 << 24, size=100, dtype=np.int64)
    ins = {f"a{k}": (a >> k) & 1 for k in range(24)}
    ins |= {f"b{k}": (b >> k) & 1 for k in range(24)}
    res = simulate(clone, ins)
    got = sum(res.outputs[f"p{k}"].astype(np.int64) << k for k in range(48))
    want = np.array(
        [int(mul24(int(x), int(y)).product) for x, y in zip(a, b)], dtype=np.int64
    )
    assert np.array_equal(got, want)


def test_export_levels_cached_but_equal():
    assert export_netlist("mul4") is export_netlist("mul4")
    assert export_netlist("mul4").to_json() == export_netlist("mul4").to_json()


@pytest.mark.parametrize("level", [[], None, {}, "mul8"], ids=repr)
def test_export_rejects_unknown_levels(level):
    with pytest.raises(ValueError, match="unknown netlist level"):
        export_netlist(level)


@pytest.mark.parametrize("flag", ["no", "", None, 0, 1], ids=repr)
def test_cost_report_flag_that_is_not_a_bool_is_value_error(flag):
    # "no" used to count the 24 feature cells of mul4
    with pytest.raises(ValueError, match="with_features"):
        cost_report("mul4", with_features=flag)
    assert cost_report("mul4", with_features=np.False_).feature_cells == 0
    assert cost_report("mul4", with_features=np.True_).feature_cells == 24


def test_feature_constants_follow_the_primitive_counts():
    """The hand-summed feature constants, recomputed from the cost model's
    primitive counts (one cell each)."""

    def zero_detect(bits: int) -> int:
        return (bits - 1) + 1               # (n-1) OR cells + 1 inverter

    checker12 = 2 * zero_detect(4) + 3      # two group detects + 3 class-encode cells
    decode = 9                              # 9-way target decode
    steering = 2 * 4 * 8                    # 2 operands x 4 bits x 8 mux cells
    substitution = 9 * 8                    # 9 blocks x 8 product bits
    enable = 1                              # the repair-enable cell
    repair = decode + steering + substitution + enable
    assert multiplier._ZERO12 == zero_detect(12) == 12
    assert multiplier._CHECKER12 == checker12 == 11
    assert multiplier._REPAIR_PER_QUADRANT == repair == 146
    # one quadrant: an inner checker per operand, a power switch for each of
    # its nine blocks and its spare, the repair logic and the spare itself
    spare = export_netlist("mul4").cell_count()
    want = 2 * checker12 + 10 + repair + spare
    assert cost_report("mul12", with_features=True).feature_cells == want


def test_feature_cost_counts():
    """Pinned with-features costs; each quadrant's spare counts as one mul4 netlist."""
    want = {
        "mul4": (57, 33, 24, 10),
        "mul12": (586, 375, 211, 38),
        "mul24": (2445, 1573, 872, 66),
    }
    for level, (cells, datapath, features, delay) in want.items():
        doc = cost_report(level, with_features=True).to_json()
        assert doc == {"circuit": level, "with_features": True, "cells": cells,
                       "datapath_cells": datapath, "feature_cells": features,
                       "unit_delay": delay}
