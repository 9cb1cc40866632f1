"""Bit-accurate model of a block-structured 24x24 multiplier.

The datapath is built from gated 4x4 multiplier blocks with per-quadrant
spares, wrapped by width checkers, a self-repair mux layer, an IEEE-754
single precision front end, and a reversible-logic expansion with gate,
garbage, ancilla, and delay accounting.
"""

import importlib

from . import bitcore, multiplier
from .bitcore import *  # noqa: F403
from .multiplier import *  # noqa: F403

# The float32, soft-float, reversible-logic and verification modules load on
# first use of one of their names (PEP 562), so importing cifm for an integer
# call loads none of them, nor numpy, which verify needs. A module's names
# cannot be read without loading it, so this map restates each lazy module's
# __all__; tests/test_revlogic.py pins cifm.__all__ to the modules'.
_LAZY_MODULES = ("fp32", "softfloat", "revlogic", "verify")
_LAZY_NAMES = dict.fromkeys(
    ("Fp32Class", "Fp32Parts", "FpMulTrace", "Rounding", "fp_mul", "fp_mul_batch"), "fp32"
) | dict.fromkeys(
    ("CANONICAL_QNAN", "softfloat_mul", "softfloat_mul_batch"), "softfloat"
) | dict.fromkeys(
    (
        "FullAdderVariant",
        "GateApp",
        "LineTag",
        "Metrics",
        "OutputRole",
        "RevGate",
        "RevLine",
        "RevNetlist",
        "SimResult",
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

# Every module's public names: the eager modules', then those that load on
# first use.
__all__ = [*bitcore.__all__, *multiplier.__all__, "__version__", *_LAZY_NAMES]
