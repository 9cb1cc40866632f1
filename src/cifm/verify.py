"""Named verification sweeps.

Each suite is a pure function of a seed that runs a fixed batch of checks
against an independent oracle (native Python integer multiplication, or the
soft-float multiplier in :mod:`cifm.softfloat`) and returns pass/total
counts. The command line front end and the test suite both call these, so
a sweep that fails in CI fails identically at the shell.

The block-level suites compute only what their answer depends on.
``fp32-oracle`` lets numpy pick its 10 000 random pairs with a normal
product in bulk and gets their expected patterns from one call of the batch
soft-float oracle. ``repair-all`` learns whether an unrepaired fault shows
from a 32-pair prefix, running the rest of its 1000 pairs only when the
prefix shows nothing.

Only ``rev-roundtrip`` and ``rev-expand`` use :mod:`cifm.revlogic`, and
they import it when they run, so ``cifm verify`` of a block-level suite
starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import SUITE_NAMES, fp32, softfloat
from .bitcore import as_int
from .multiplier import (  # noqa: F401  (perfbench wraps verify.mul12 by name)
    GRID_IDS,
    FaultSpec,
    Quadrant,
    RepairConfig,
    export_netlist,
    mul4,
    mul12,
    mul12_batch,
    mul24,
    mul24_batch,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "BOUNDARY_VALUES"]

# Corner operands exercised on top of every random integer sweep; values
# that do not fit a narrower width are skipped there.
BOUNDARY_VALUES = (0, 1, 2**12 - 1, 2**12, 2**24 - 1)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        return f"{self.name}: {self.passed}/{self.total} pass"

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "total": self.total,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def _mul4_index_space() -> tuple[np.ndarray, np.ndarray]:
    """All 256 distinct pairs of 4-bit operands."""
    idx = np.arange(1 << 8, dtype=np.int64)
    return idx & 0xF, idx >> 4


def suite_mul4_exhaustive(seed: int = 0) -> SuiteResult:
    """Every pair of 4-bit operands against native multiplication.

    Checks both the compiled engine's evaluation of the gate-level netlist
    and the table mul4 reads, made from the cells' functions without it.
    """
    a, b = _mul4_index_space()
    want = a * b
    net_prod = export_netlist("mul4").evaluate({"a": a, "b": b})
    fast = np.array(
        [int(mul4(x, y).product) for y in range(16) for x in range(16)],
        dtype=np.int64,
    )[(b << 4) | a]
    ok = (net_prod == want) & (fast == want)
    # a failing case shows the netlist's product, or the table's when only
    # that is wrong
    got = np.where(net_prod != want, net_prod, fast)
    notes = _failures(a, b, got, want, ok)
    return SuiteResult("mul4-exhaustive", int(np.count_nonzero(ok)), a.size, notes)


def _random_pairs(rng: np.random.Generator, width: int, n: int) -> np.ndarray:
    """(2, n) random operand pairs spanning every magnitude class.

    Each operand first draws a class k in 0, 4, ..., width, then a value
    below 2**k, so class 0 is zero.
    """
    return rng.integers(0, 1 << rng.choice(np.arange(0, width + 1, 4), size=(2, n)))


def _failures(a, b, got, want, ok: np.ndarray) -> tuple[str, ...]:
    """Up to three failing cases, as notes that reproduce them."""
    return tuple(
        f"a=0x{int(a[i]):X} b=0x{int(b[i]):X} got=0x{int(got[i]):X} want=0x{int(want[i]):X}"
        for i in np.flatnonzero(~ok)[:3].tolist()
    )


def _int_sweep(name: str, width: int, fn, seed: int, n: int) -> SuiteResult:
    a, b = _random_pairs(np.random.default_rng(seed), width, n)
    fits = [v for v in BOUNDARY_VALUES if v < (1 << width)]
    a = np.concatenate([a, np.repeat(fits, len(fits))])
    b = np.concatenate([b, np.tile(fits, len(fits))])
    got, want = fn(a, b).products, a * b
    ok = got == want
    return SuiteResult(name, int(np.count_nonzero(ok)), a.size, _failures(a, b, got, want, ok))


def suite_mul12_random(seed: int = 0) -> SuiteResult:
    return _int_sweep("mul12-random", 12, mul12_batch, seed, 10_000)


def suite_mul24_random(seed: int = 0) -> SuiteResult:
    return _int_sweep("mul24-random", 24, mul24_batch, seed, 10_000)


def suite_gating_safety(seed: int = 0) -> SuiteResult:
    """Width gating must never change the product, only the activity."""
    a, b = _random_pairs(np.random.default_rng(seed), 24, 10_000)
    want = a * b
    gated = mul24_batch(a, b, gating=True).products
    plain = mul24_batch(a, b, gating=False).products
    ok = (gated == plain) & (gated == want)
    passed = int(np.count_nonzero(ok))
    total = a.size
    narrow = mul24(0xF, 0xF).activity.power_proxy
    wide = mul24(2**24 - 1, 2**24 - 1).activity.power_proxy
    passed += (narrow == 1) + (wide == 36)
    total += 2
    # a failing case shows the gated product, or the ungated one when only
    # that is wrong
    got = np.where(gated != want, gated, plain)
    notes = (f"power_proxy narrow={narrow} wide={wide}",) + _failures(a, b, got, want, ok)
    return SuiteResult("gating-safety", passed, total, notes)


def suite_fp32_oracle(seed: int = 0) -> SuiteResult:
    """Round-to-nearest-even datapath against the soft-float oracle.

    Random normal operand pairs are drawn in bulk, and numpy picks the
    first 10 000 whose product is normal (:func:`_normal_product`). One
    call of the batch soft-float oracle gives the kept pairs' expected
    patterns in integer arithmetic; numpy's float32 product never supplies
    one. The special cases are appended, each checked against the scalar
    oracle too, and the datapath runs them all as one batch.
    """
    rng = np.random.default_rng(seed)
    kept, n = [], 10_000
    while n:
        sign = rng.integers(0, 2, size=(2, n))
        exponent = rng.integers(1, 255, size=(2, n))
        fraction = rng.integers(0, 1 << 23, size=(2, n))
        bits = (sign << 31) | (exponent << 23) | fraction
        kept.append(bits[:, _normal_product(bits)])
        n -= kept[-1].shape[1]
    xs, ys = np.concatenate(kept + [_SPECIAL_BITS[:2]], axis=1)
    special = len(_SPECIAL_CASES)
    want = np.concatenate(
        [softfloat.softfloat_mul_batch(xs[:-special], ys[:-special]), _SPECIAL_BITS[2]]
    )
    got = fp32.fp_mul_batch(xs, ys)
    ok = got == want
    # the table's expectations must agree with the scalar oracle as well
    oracle = softfloat.softfloat_mul
    ok[-special:] &= [oracle(x, y) == w for x, y, w in _SPECIAL_CASES]
    notes = _failures(xs, ys, got, want, ok)
    return SuiteResult("fp32-oracle", int(np.count_nonzero(ok)), want.size, notes)


def _normal_product(bits: np.ndarray) -> np.ndarray:
    """Which (2, n) pairs of normal float32 patterns have a normal product.

    The soft-float rule: normal when the exact product is at least 2**-126
    (tininess is detected before rounding) and rounding to nearest even
    stays finite. The float64 product of two float32 normals is exact, and
    numpy's float32 product rounds it to nearest even, overflowing to
    infinity exactly where the oracle does.
    """
    x, y = bits.astype(np.uint32).view(np.float32)
    with np.errstate(over="ignore"):
        rounded = x * y
    return (np.abs(x.astype(np.float64) * y) >= 2.0**-126) & np.isfinite(rounded)


_INF = 0x7F800000
_QNAN = softfloat.CANONICAL_QNAN
_ONE = 0x3F800000

_SPECIAL_CASES = (
    (_QNAN, _ONE, _QNAN),               # NaN propagates
    (_ONE, 0x7F800001, _QNAN),          # signalling NaN operand
    (_INF, 0x00000000, _QNAN),          # Inf x 0
    (0x80000000, _INF, _QNAN),          # -0 x Inf
    (_INF, 0xC0000000, 0xFF800000),     # Inf x -2
    (_INF, _INF, _INF),
    (0x00000000, _ONE, 0x00000000),     # 0 x finite
    (0xBF800000, 0x00000000, 0x80000000),
    (0x00000001, _ONE, 0x00000000),     # subnormal flushes to zero
)
_SPECIAL_BITS = np.array(_SPECIAL_CASES, dtype=np.int64).T     # rows x, y, want


def _rev_cases(seed: int):
    """(level, width, a, b): every mul4 pair, then 1000 random mul24 pairs."""
    rng = np.random.default_rng(seed)
    a24 = rng.integers(0, 1 << 24, size=1000, dtype=np.int64)
    b24 = rng.integers(0, 1 << 24, size=1000, dtype=np.int64)
    return (("mul4", 4) + _mul4_index_space(), ("mul24", 24, a24, b24))


def _bit_inputs(a: np.ndarray, b: np.ndarray, width: int) -> dict[str, np.ndarray]:
    ins = {}
    for k in range(width):
        ins[f"a{k}"] = (a >> k) & 1
        ins[f"b{k}"] = (b >> k) & 1
    return ins


def suite_rev_roundtrip(seed: int = 0) -> SuiteResult:
    """Inverse simulation recovers inputs and ancilla constants exactly.

    A failing pair's note names the first line it does not recover, with
    the recovered value as got and the starting one as want.
    """
    from .revlogic import expand, gate_library, simulate, simulate_inverse

    passed = total = 0
    for gate in gate_library().values():
        total += 1
        passed += sorted(gate.mapping) == list(range(1 << gate.arity))

    notes = []
    for level, width, a, b in _rev_cases(seed):
        rev = expand(export_netlist(level))
        ins = _bit_inputs(a, b, width)
        back = simulate_inverse(rev, simulate(rev, ins).line_values)
        start = np.empty_like(back)
        for i, line in enumerate(rev.lines):
            start[i] = ins[line.name] if line.name is not None else line.const
        bad = back != start
        ok = ~bad.any(axis=0)
        line = bad.argmax(axis=0)
        cols = np.arange(a.size)
        notes += [
            f"line {line[i]} {note}"
            for i, note in zip(np.flatnonzero(~ok).tolist(), _failures(
                a, b, back[line, cols], start[line, cols], ok))
        ]
        passed += int(np.count_nonzero(ok))
        total += a.size
    return SuiteResult("rev-roundtrip", passed, total, tuple(notes[:3]))


def suite_rev_expand(seed: int = 0) -> SuiteResult:
    """Expanded reversible circuits agree with the cell netlists they mirror."""
    from .revlogic import expand, simulate

    passed = total = 0
    notes = []
    for level, width, a, b in _rev_cases(seed):
        res = simulate(expand(export_netlist(level)), _bit_inputs(a, b, width))
        got = sum(res.outputs[f"p{k}"].astype(np.int64) << k for k in range(2 * width))
        want = a * b
        ok = got == want
        notes += _failures(a, b, got, want, ok)
        passed += int(np.count_nonzero(ok))
        total += a.size
    return SuiteResult("rev-expand", passed, total, tuple(notes[:3]))


def suite_repair_all(seed: int = 0) -> SuiteResult:
    """Every block position: repair restores exactness, no repair shows the fault.

    The repaired datapath runs on all 1000 pairs, each pair a case. The
    unrepaired one counts one case per position, passed when any pair's
    product differs from a*b: it runs on the first 32 pairs, and on the
    other 968 only when those show nothing.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 1 << 24, size=(2, 1000))
    want = a * b
    passed = total = 0
    notes, failures = [], []
    for quadrant in Quadrant:
        for position, target in sorted(GRID_IDS[quadrant].items()):
            fault = [FaultSpec(target, 0xFF)]
            repair = {quadrant: RepairConfig(enabled=True, target=target)}
            r = mul24_batch(a, b, faults=fault, repair=repair)
            ok = (r.products == want) & (r.unrepaired == 0)
            passed += int(np.count_nonzero(ok))
            failures += [f"{target} {note}" for note in _failures(a, b, r.products, want, ok)]
            total += a.size + 1
            exposed = any(
                np.any(mul24_batch(a[s], b[s], faults=fault).products != want[s])
                for s in _EXPOSE_SLICES
            )
            passed += exposed
            if not exposed:
                notes.append(f"fault at {target} never observable")
    return SuiteResult("repair-all", passed, total, tuple(notes + failures[:3]))


# A forced 0xFF differs from every 4x4 product, so a fault is hidden only
# where gating darkens its block: the short prefix almost always exposes it.
_EXPOSE_SLICES = (slice(0, 32), slice(32, None))


# Each of the package's SUITE_NAMES, "x-y", runs the function suite_x_y above.
SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run the suite called ``name`` with ``seed``.

    Raises ValueError for a name that is not a key of SUITES and for a
    seed that is not a non-negative int (bools included), before any suite
    runs.
    """
    if not isinstance(name, str) or name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    seed = as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return SUITES[name](seed)
