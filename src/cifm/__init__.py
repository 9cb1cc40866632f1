"""Bit-accurate model of a block-structured 24x24 multiplier.

The datapath is built from gated 4x4 multiplier blocks with per-quadrant
spares, wrapped by width checkers, a self-repair mux layer, an IEEE-754
single precision front end, and a reversible-logic expansion with gate,
garbage, ancilla, and delay accounting.
"""

import importlib

from .bitcore import (
    BitVec,
    Cell,
    CellKind,
    CellNetlist,
    NetlistBuilder,
)
from .fp32 import (
    Fp32Class,
    Fp32Parts,
    FpMulTrace,
    Rounding,
    fp_mul,
    fp_mul_batch,
)
from .multiplier import (
    BLOCK_IDS,
    CHUNK,
    GRID_IDS,
    SPARE_IDS,
    ActivityReport,
    BlockBatch,
    CostReport,
    FaultSpec,
    ModuleId,
    MulResult,
    Quadrant,
    RepairConfig,
    cost_report,
    export_netlist,
    mul4,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)
from .softfloat import CANONICAL_QNAN, softfloat_mul

# The reversible-logic and verification modules load on first use of one of
# their names (PEP 562), so importing cifm for a scalar call loads neither,
# nor numpy, which verify needs.
_LAZY_MODULES = ("revlogic", "verify")
_LAZY_NAMES = dict.fromkeys(
    (
        "FullAdderVariant",
        "GateApp",
        "LineTag",
        "Metrics",
        "OutputRole",
        "RevGate",
        "RevLine",
        "RevNetlist",
        "build_full_adder",
        "expand",
        "gate_library",
        "metrics_of",
        "simulate",
        "simulate_inverse",
    ),
    "revlogic",
) | dict.fromkeys(("BOUNDARY_VALUES", "SUITES", "SuiteResult", "run_suite"), "verify")

# The names of the verification suites, in run order; cifm.verify.SUITES
# maps each to its function. Kept here so the command line can offer them
# without loading verify.
SUITE_NAMES = (
    "mul4-exhaustive",
    "mul12-random",
    "mul24-random",
    "gating-safety",
    "fp32-oracle",
    "rev-roundtrip",
    "rev-expand",
    "repair-all",
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY_NAMES))


__version__ = "0.1.0"

__all__ = [
    "BitVec",
    "Cell",
    "CellKind",
    "CellNetlist",
    "NetlistBuilder",
    "Fp32Class",
    "Fp32Parts",
    "FpMulTrace",
    "Rounding",
    "fp_mul",
    "fp_mul_batch",
    "BLOCK_IDS",
    "CHUNK",
    "GRID_IDS",
    "SPARE_IDS",
    "ActivityReport",
    "BlockBatch",
    "CostReport",
    "FaultSpec",
    "ModuleId",
    "MulResult",
    "Quadrant",
    "RepairConfig",
    "cost_report",
    "export_netlist",
    "mul4",
    "mul12",
    "mul12_batch",
    "mul24",
    "mul24_batch",
    "FullAdderVariant",
    "GateApp",
    "LineTag",
    "Metrics",
    "OutputRole",
    "RevGate",
    "RevLine",
    "RevNetlist",
    "build_full_adder",
    "expand",
    "gate_library",
    "metrics_of",
    "simulate",
    "simulate_inverse",
    "CANONICAL_QNAN",
    "softfloat_mul",
    "BOUNDARY_VALUES",
    "SUITES",
    "SuiteResult",
    "run_suite",
    "__version__",
]
