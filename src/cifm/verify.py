"""Named verification sweeps.

Each suite is a pure function of a seed that runs a fixed batch of checks
against an independent oracle (native Python integer multiplication, or the
soft-float multiplier in :mod:`cifm.softfloat`) and returns pass/total
counts. The command line front end and the test suite both call these, so
a sweep that fails in CI fails identically at the shell.

The block-level suites compute only what their answer depends on.
``fp32-oracle`` lets numpy pick its 10 000 random pairs with a normal
product in bulk and gets their expected patterns from one call of the batch
soft-float oracle. ``repair-all`` and ``fault-values`` run many fault plans
on one operand set, and reach the block engine through one name,
``_batches``: one engine pass serves all of a suite's plans on one width,
so its gathers are made once, not once per plan. ``fault-values`` checks
each unrepaired faulted product and mask against a closed form of the
datapath's spec, :func:`_faulted`, which shares no code with the engine.
``block-paths`` checks the model's two paths against each other. Its
oracle is the batch engine, whose masks give each scalar call's expected
report (:func:`_scalar_plan`) and whose one-plan calls give each plan of a
shared ``_batches`` pass; both paths read one set of tables.

Only ``rev-roundtrip`` and ``rev-expand`` use :mod:`cifm.revlogic`, and
they import it when they run, so ``cifm verify`` of a block-level suite
starts without it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import SUITE_NAMES, fp32, softfloat
from .bitcore import as_int
from .multiplier import (
    BLOCK_IDS,
    CHUNK,
    GRID_IDS,
    SPARE_IDS,
    FaultSpec,
    ModuleId,
    Quadrant,
    RepairConfig,
    _batches,
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


def _with_boundary(a: np.ndarray, b: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` followed by every pair of the BOUNDARY_VALUES that fit ``width``."""
    fits = [v for v in BOUNDARY_VALUES if v < (1 << width)]
    return (np.concatenate([a, np.repeat(fits, len(fits))]),
            np.concatenate([b, np.tile(fits, len(fits))]))


def _int_sweep(name: str, width: int, fn, seed: int, n: int) -> SuiteResult:
    a, b = _with_boundary(*_random_pairs(np.random.default_rng(seed), width, n), width)
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
        kept.append(np.compress(_normal_product(bits), bits, axis=1))
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

    Each of the 36 positions is faulted at 0xFF, once repaired and once
    not, and one engine pass over the 1000 pairs serves all 72 plans. The
    repaired datapath counts each pair as a case. The unrepaired one counts
    one case per position, passed when any pair's product differs from a*b.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 1 << 24, size=(2, 1000))
    want = a * b
    targets = [t for q in Quadrant for _, t in sorted(GRID_IDS[q].items())]
    setups = []
    for target in targets:
        fault = [FaultSpec(target, 0xFF)]
        setups += [(fault, {target.quadrant: RepairConfig(enabled=True, target=target)}),
                   (fault, None)]
    batches = _batches(24, a, b, setups)
    passed = total = 0
    notes, failures = [], []
    # zip draws two batches per position from the one iterator: repaired, then not
    for target, fixed, faulty in zip(targets, batches, batches):
        ok = (fixed.products == want) & (fixed.unrepaired == 0)
        passed += int(np.count_nonzero(ok))
        failures += [f"{target} {note}" for note in _failures(a, b, fixed.products, want, ok)]
        total += a.size + 1
        exposed = bool(np.any(faulty.products != want))
        passed += exposed
        if not exposed:
            notes.append(f"fault at {target} never observable")
    return SuiteResult("repair-all", passed, total, tuple(notes + failures[:3]))


def suite_fault_values(seed: int = 0) -> SuiteResult:
    """Unrepaired faulted products and masks against a closed form of the spec.

    Every block position of mul24 (36) and of mul12 (9) is faulted alone and
    left unrepaired, forced to 0x00, to 0xFF and to one value the seed draws
    per position. Each fault runs on 1000 random pairs of its width, one
    engine pass per width serving all its plans, and each pair is a case:
    passed when both its product and its unrepaired mask equal
    :func:`_faulted`'s. A failing case's note names the width, the block and
    its forced value in front of the pair's products; a note whose products
    agree is a case that failed on its unrepaired mask.
    """
    rng = np.random.default_rng(seed)
    passed = total = 0
    failures = []
    for width, quadrants, no_repair in ((24, tuple(Quadrant), None),
                                        (12, (Quadrant.LL,), RepairConfig())):
        a, b = _random_pairs(rng, width, 1000)
        targets = [t for q in quadrants for _, t in sorted(GRID_IDS[q].items())]
        setups = [([FaultSpec(t, int(v))], no_repair) for t in targets
                  for v in (0x00, 0xFF, rng.integers(256))]
        for (faults, _), r in zip(setups, _batches(width, a, b, setups)):
            (fault,) = faults
            want, shows = _faulted(a, b, width, fault.target, fault.forced_output.value)
            mask = shows * (1 << BLOCK_IDS.index(fault.target))
            ok = (r.products == want) & (r.unrepaired == mask)
            passed += int(np.count_nonzero(ok))
            total += a.size
            failures += [f"mul{width} {fault.target}=0x{fault.forced_output.value:02X} {note}"
                         for note in _failures(a, b, r.products, want, ok)]
    return SuiteResult("fault-values", passed, total, tuple(failures[:3]))


def _faulted(
    x: np.ndarray, y: np.ndarray, width: int, target: ModuleId, forced: int
) -> tuple[np.ndarray, np.ndarray]:
    """(product, fault shows) of each pair with block ``target`` stuck at ``forced``.

    From the datapath's spec. Block (i, j) of a quadrant multiplies 4-bit
    group i of the quadrant's a half by group j of its b half. A 12-bit half
    is in width class 4, 8 or 12, the narrowest that holds it, and powers
    the groups below its class; a high half that is zero is in class 0,
    and its quadrants are dark. A powered faulty block drives its forced
    value in place of its product: its quadrant sums the blocks modulo
    2**24, and the top level sums the quadrants modulo 2**(2*width).
    """
    ha, hb = int(target.quadrant.a_high), int(target.quadrant.b_high)
    i, j = target.row, target.col
    xh, yh = x >> 12 * ha & 0xFFF, y >> 12 * hb & 0xFFF

    def width_class(half, high):
        narrowest = 4 + 4 * (half >= 1 << 4) + 4 * (half >= 1 << 8)
        return np.where(half == 0, 0, narrowest) if high else narrowest

    shows = (4 * i < width_class(xh, ha)) & (4 * j < width_class(yh, hb))
    quad = xh * yh
    block = (xh >> 4 * i & 0xF) * (yh >> 4 * j & 0xF)
    faulty = (quad + ((forced - block) << 4 * (i + j))) % (1 << 24)
    product = (x * y + ((faulty - quad) << 12 * (ha + hb))) % (1 << 2 * width)
    return np.where(shows, product, x * y), shows


def suite_block_paths(seed: int = 0) -> SuiteResult:
    """The scalar pass and shared engine passes against the batch engine.

    Gating is on at even seeds. Per width, each scalar call on 200 drawn
    pairs and the BOUNDARY_VALUES grid, under the fault-free plan and each
    position's fault at a drawn value, unrepaired and repaired, is a case
    (:func:`_scalar_plan`). So is each of 24 drawn plans of a shared pass on
    1000 and on ``CHUNK + 1`` pairs that a fresh generator of the seed draws.
    """
    gating = seed % 2 == 0
    rng = np.random.default_rng(seed)
    total, failures = 0, []             # each note is one failing case
    for width, quads in ((24, tuple(Quadrant)), (12, (Quadrant.LL,))):
        a, b = _with_boundary(*_shifted_pairs(rng, width, 200), width)
        setups = [((), None if width == 24 else RepairConfig())]
        for target in [t for q in quads for t in GRID_IDS[q].values()]:
            fault = [FaultSpec(target, int(rng.integers(256)))]
            for cfg in (RepairConfig(), RepairConfig(True, target)):
                setups.append((fault, cfg if width == 12 else {target.quadrant: cfg}))
        for faults, repair in setups:
            failures += _scalar_plan(width, a, b, faults, repair, gating)
        total += len(setups) * a.size
    rng = np.random.default_rng(seed)
    for width in (24, 12):
        for n in (1000, CHUNK + 1):
            a, b = _shifted_pairs(rng, width, n)
            setups = _random_setups(rng, width, 24)
            failures += _shared_pass(width, a, b, setups, gating)
            total += len(setups)
    return SuiteResult("block-paths", total - len(failures), total, tuple(failures[:3]))


def _shifted_pairs(rng: np.random.Generator, width: int, n: int) -> np.ndarray:
    """(2, n) random ``width``-bit operands, each shifted right by 0 to ``width`` bits."""
    return rng.integers(0, 1 << width, (2, n)) >> rng.integers(0, width + 1, (2, n))


def _random_setups(rng: np.random.Generator, width: int, count: int) -> list[tuple]:
    """``count`` random (faults, repair) arguments of ``mul{width}_batch``.

    Each has 0-3 faults at distinct blocks with random forced values. Each
    quadrant, in turn, repairs a faulty block, a healthy one, or nothing.
    """
    quads = list(Quadrant) if width == 24 else [Quadrant.LL]
    blocks = [t for q in quads for t in GRID_IDS[q].values()]
    setups = []
    for _ in range(count):
        faults = [FaultSpec(blocks[k], int(rng.integers(256)))
                  for k in rng.choice(len(blocks), size=rng.integers(4), replace=False)]
        faulty = {f.target for f in faults}
        targets = []
        for q in quads:
            healthy = [t for t in GRID_IDS[q].values() if t not in faulty]
            kind = rng.integers(3)
            pool = [f.target for f in faults if f.target.quadrant is q] if kind == 1 else healthy
            if kind and pool:
                targets.append(pool[rng.integers(len(pool))])
        if width == 12:
            repair = RepairConfig(bool(targets), targets[0] if targets else None)
        else:
            repair = {t.quadrant: RepairConfig(True, t) for t in targets} or None
        setups.append((faults, repair))
    return setups


def _repaired(repair) -> list[ModuleId]:
    """The repair targets of a ``mul12`` or ``mul24`` repair argument."""
    configs = [repair] if isinstance(repair, RepairConfig) else (repair or {}).values()
    return [c.target for c in configs if c.target is not None]


def _plan_name(width: int, faults, repair, gating: bool) -> str:
    forced = " ".join(f"{f.target}=0x{f.forced_output.value:02X}" for f in faults)
    fixed = " ".join(map(str, _repaired(repair)))
    return (f"mul{width} fault {forced or 'none'} repair {fixed or 'none'} "
            f"gating {'on' if gating else 'off'}")


@functools.lru_cache(maxsize=1024)
def _blocks_of(mask: int) -> tuple[ModuleId, ...]:
    """The blocks of a mask's set bits, in bit order."""
    return tuple(m for n, m in enumerate(BLOCK_IDS) if mask >> n & 1)


@functools.cache
def _mul4_levels() -> list[int]:
    """The adder levels ``mul4`` reports for each operand pair, at ``gb << 4 | ga``."""
    return [mul4(g & 0xF, g >> 4).activity.adder_levels_active[None] for g in range(256)]


_SCALAR_FIELDS = ("product", "active_mul4", "gated_mul4", "disabled_faulty",
                  "adder_levels_active", "power_proxy", "unrepaired_faults")


def _scalar_plan(width: int, a, b, faults, repair, gating: bool) -> list[str]:
    """Notes of the pairs whose ``mul{width}`` call breaks the rule that its
    ``mul{width}_batch`` element sets: the batch's product; the energised
    mask's blocks active, each with the adder levels ``mul4`` gives for the
    groups of the block it stands for (a spare, its repair target's); a
    target disabled when a block of its quadrant is active; every other
    block gated; power_proxy the active count; and the unrepaired mask's
    faults, in bit order. A note names the plan, the pair and the fields.
    """
    scalar, batch = (mul24, mul24_batch) if width == 24 else (mul12, mul12_batch)
    r = batch(a, b, faults, repair, gating=gating)
    repaired = _repaired(repair)
    stands_in = {SPARE_IDS[t.quadrant]: t for t in repaired}
    every = frozenset(m for m in BLOCK_IDS if width == 24 or m.quadrant is Quadrant.LL)
    groups = {}                         # the shifts of the a and b groups a block multiplies
    for m in every:
        t = stands_in.get(m, m)
        groups[m] = (12 * t.quadrant.a_high + 4 * t.row, 12 * t.quadrant.b_high + 4 * t.col)
    table = _mul4_levels()
    plan = _plan_name(width, faults, repair, gating)
    notes = []
    rows = zip(np.asarray(a).tolist(), np.asarray(b).tolist(), *(v.tolist() for v in r))
    for x, y, product, energised, unrepaired in rows:
        s = scalar(x, y, faults, repair, gating=gating)
        report = s.activity
        got = (int(s.product), report.active_mul4, report.gated_mul4, report.disabled_faulty,
               report.adder_levels_active, report.power_proxy, s.unrepaired_faults)
        active = _blocks_of(energised)
        disabled = {t for t in repaired if any(m.quadrant is t.quadrant for m in active)}
        levels = {m: table[(y >> groups[m][1] & 0xF) << 4 | x >> groups[m][0] & 0xF]
                  for m in active}
        want = (product, set(active), every - set(active) - disabled, disabled, levels,
                len(active), _blocks_of(unrepaired))
        if got != want:
            differ = [name for name, g, w in zip(_SCALAR_FIELDS, got, want) if g != w]
            notes.append(f"scalar {plan} a=0x{x:X} b=0x{y:X}: {', '.join(differ)} differ")
    return notes


def _shared_pass(width: int, a, b, setups, gating: bool) -> list[str]:
    """Notes of the plans of one ``_batches`` pass that differ from their own
    ``mul{width}_batch`` call, each at its first differing pair."""
    batch = mul24_batch if width == 24 else mul12_batch
    notes = []
    shared = _batches(width, a, b, setups, gating)
    for k, ((faults, repair), r) in enumerate(zip(setups, shared, strict=True)):
        want = batch(a, b, faults, repair, gating=gating)
        bad = [np.flatnonzero(g != w) for g, w in zip(r, want)]
        if any(at.size for at in bad):
            i = min(int(at[0]) for at in bad if at.size)
            differ = [name for name, at in zip(r._fields, bad) if i in at]
            pair = f"a=0x{int(a.flat[i]):X} b=0x{int(b.flat[i]):X}"
            notes.append(f"shared {_plan_name(width, faults, repair, gating)} n={a.size} "
                         f"plan {k} {pair}: {', '.join(differ)} differ")
    return notes


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
