"""The three workloads: their set-up, request streams, timed loops and checks.

Every workload is a closed loop with one client: the next call starts after
the previous one returned. Only the library call sits inside the timed
region; drawing inputs and checking results happen outside it. Functions
under test are looked up on their modules at call time, so the tracer's
wrappers see the benchmark's calls as well as the library's internal ones.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

import cifm
from cifm import fp32, multiplier, revlogic, verify
from cifm.softfloat import softfloat_mul as _softfloat_oracle

from hostspeed import Sampler, calibrate, scale
from oracles import eval_netlist_json, faulted_mul24, numpy_fp32

QUADRANTS = ("LL", "LH", "HL", "HH")
POSITIONS = [(q, i, j) for q in QUADRANTS for i in range(3) for j in range(3)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Checks:
    """Attempted and failed checks, with the first few failures kept for replay."""

    attempted: int = 0
    failed: int = 0
    first_failures: list = field(default_factory=list)

    def check(self, ok: bool, what) -> None:
        self.batch(1, 0 if ok else 1, what)

    def batch(self, attempted: int, failed: int, what) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.first_failures) < 5:
            self.first_failures.append(what)


@dataclass
class ModelStats:
    """Host-independent statistics of a stream of datapath calls."""

    calls: int = 0
    power_proxy_sum: int = 0            # energised blocks
    spare_in_use: int = 0               # calls that energised a spare block
    unrepaired_faults: int = 0
    _digest: object = field(default_factory=hashlib.sha256)

    def add(self, kind: str, a, b, product: int, activity, unrepaired=()) -> None:
        self.calls += 1
        if activity is not None:
            self.power_proxy_sum += activity.power_proxy
            self.spare_in_use += any(x.redundant for x in activity.active_mul4)
        self.unrepaired_faults += len(unrepaired)
        self._digest.update(f"{kind}:{int(a)}:{int(b)}:{product};".encode())

    def to_json(self) -> dict:
        return {"calls": self.calls, "power_proxy_sum": self.power_proxy_sum,
                "spare_in_use": self.spare_in_use, "unrepaired_faults": self.unrepaired_faults,
                "product_sha256": self._digest.hexdigest()}


def expected_mul24(x: int, y: int, faults, repair) -> tuple[int, tuple]:
    """(product, unrepaired fault ids) that gated ``mul24`` must return with at
    most one fault; a fault is repaired when its quadrant's repair targets it."""
    if not faults:
        return x * y, ()
    (spec,) = faults
    target = spec.target
    cfg = (repair or {}).get(target.quadrant)
    if cfg is not None and cfg.enabled and cfg.target == target:
        return x * y, ()
    want, visible = faulted_mul24(x, y, target.quadrant.value, target.row, target.col,
                                  int(spec.forced_output))
    return want, (target,) if visible else ()


@dataclass
class Segment:
    """What one timed stretch of a workload produced.

    A host-speed calibration runs before the first window of calls,
    gate-level cycle or suite run and after each one; a window is scaled by
    the mean of the two calibrations around it.
    """

    units: int = 0                      # calls, cases or vectors completed
    rates: list = field(default_factory=list)   # units/s per call window or cycle
    cal_s: list = field(default_factory=list)   # calibrations between those
    suite_s: dict = field(default_factory=dict)  # sweep: wall seconds per suite run
    suite_cal_s: dict = field(default_factory=dict)  # sweep: calibration around each
    suite_edge_cal_s: dict = field(default_factory=dict)  # sweep: same, boundaries only

    def window_rate(self, scaled: bool) -> float:
        """Median over windows (or cycles) of units/s, optionally at nominal speed."""
        if not scaled:
            return median(self.rates)
        around = [(a + b) / 2 for a, b in zip(self.cal_s, self.cal_s[1:])]
        return median(r / scale(1.0, c) for r, c in zip(self.rates, around))


def setup(workload: str) -> None:
    """Everything a workload needs before its first timed call."""
    cifm.mul4(0, 0)                     # builds the mul4 truth tables from the netlist
    if workload == "gate-level":
        for level in ("mul12", "mul24"):
            revlogic.expand(multiplier.export_netlist(level))


# ---------------------------------------------------------------------------
# scalar-mix
# ---------------------------------------------------------------------------

MUL24, MUL24_FAULT, MUL12, FP_MUL = range(4)
SCALAR_KINDS = ("mul24", "mul24-fault", "mul12", "fp_mul")
SCALAR_WEIGHTS = (0.40, 0.15, 0.20, 0.25)
SCALAR_BLOCK = 2048                     # requests drawn at a time
SCALAR_WINDOW = 512                     # calls per throughput sample
SCALAR_FINGERPRINT_CALLS = 3000         # prefix every run completes

_FP_SPECIAL_OPERANDS = np.array([
    0x00000000, 0x80000000,             # +-0
    0x00000001, 0x807FFFFF,             # subnormals (flushed)
    0x00800000, 0x7F7FFFFF,             # smallest and largest normal
    0x3F800000, 0xC0000000,             # 1, -2
    0x7F800000, 0xFF800000,             # +-Inf
    0x7FC00000, 0x7F800001,             # quiet and signalling NaN
], dtype=np.int64)


def _class_operands(rng: np.random.Generator, width: int, n: int) -> np.ndarray:
    """Operands spread evenly over the 4-bit magnitude classes 0, 4, ..., width."""
    k = rng.choice(np.arange(0, width + 1, 4), size=n)
    return rng.integers(0, 1 << width, size=n, dtype=np.int64) >> (width - k)


def _fp_operands(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of float32 patterns: 60% random normals, 10% special values, 15%
    products whose exponent lands next to the smallest normal, and 15% products
    in the band just below it that IEEE rounding lifts to 2**-126."""
    style = rng.choice(4, size=n, p=(0.6, 0.1, 0.15, 0.15))
    sign = rng.integers(0, 2, size=(2, n), dtype=np.int64) << 31
    frac = rng.integers(0, 1 << 23, size=(2, n), dtype=np.int64)
    exp = rng.integers(1, 255, size=(2, n), dtype=np.int64)
    # near underflow: exponent fields summing to 125..128 put the product's
    # unbiased exponent at -2..+1 around the smallest normal
    target = np.where(style == 3, 127, rng.integers(125, 129, size=n, dtype=np.int64))
    ea = 1 + rng.integers(0, 1 << 30, size=n, dtype=np.int64) % (target - 1)
    near = style >= 2
    exp[0, near] = ea[near]
    exp[1, near] = target[near] - ea[near]
    # band: significand product at or just above 2**47 - 2**22, which rounds
    # to 2**47 (the smallest normal once the exponent sum is 127)
    band = style == 3
    sig_a = (1 << 23) + 1 + frac[0] % ((1 << 23) - 1)
    sig_b = -(-((1 << 47) - (1 << 22)) // sig_a)
    frac[0, band] = sig_a[band] - (1 << 23)
    frac[1, band] = sig_b[band] - (1 << 23)
    bits = sign | (exp << 23) | frac
    special = style == 1
    picks = rng.integers(0, _FP_SPECIAL_OPERANDS.size, size=(2, n))
    bits[:, special] = _FP_SPECIAL_OPERANDS[picks[:, special]]
    return bits[0], bits[1]


def scalar_requests(seed: int):
    """Endless deterministic stream of (kind, a, b, extra) requests."""
    block = 0
    fault_count = 0
    while True:
        rng = np.random.default_rng((seed, block))
        kinds = rng.choice(len(SCALAR_KINDS), size=SCALAR_BLOCK, p=SCALAR_WEIGHTS)
        a24 = _class_operands(rng, 24, SCALAR_BLOCK).tolist()
        b24 = _class_operands(rng, 24, SCALAR_BLOCK).tolist()
        a12 = _class_operands(rng, 12, SCALAR_BLOCK).tolist()
        b12 = _class_operands(rng, 12, SCALAR_BLOCK).tolist()
        forced = rng.integers(0, 256, size=SCALAR_BLOCK).tolist()
        fa, fb = _fp_operands(rng, SCALAR_BLOCK)
        fnp = numpy_fp32(fa, fb).tolist()
        fa, fb = fa.tolist(), fb.tolist()
        for n, kind in enumerate(kinds.tolist()):
            if kind == MUL24_FAULT:
                q, i, j = POSITIONS[fault_count % 36]
                repaired = (fault_count // 36) % 2 == 0
                fault_count += 1
                target = multiplier.GRID_IDS[multiplier.Quadrant(q)][(i, j)]
                spec = [multiplier.FaultSpec(target, forced[n])]
                repair = (
                    {target.quadrant: multiplier.RepairConfig(enabled=True, target=target)}
                    if repaired else None
                )
                yield kind, a24[n], b24[n], (spec, repair)
            elif kind == MUL24:
                yield kind, a24[n], b24[n], None
            elif kind == MUL12:
                yield kind, a12[n], b12[n], None
            else:
                yield kind, fa[n], fb[n], fnp[n]
        block += 1


class ScalarMix:
    """Interactive library use: one mul24/mul12/fp_mul call at a time."""

    name = "scalar-mix"
    cli_probes = 15

    def __init__(self, seed: int, checks: Checks) -> None:
        self.requests = scalar_requests(seed)
        self.checks = checks
        self.latencies = array("d")
        self.calls = 0
        self.numpy_disagree = 0
        self.stats = ModelStats()           # of the first SCALAR_FINGERPRINT_CALLS calls
        self.fingerprint_disagree = 0

    def fingerprint(self) -> dict:
        return dict(self.stats.to_json(), numpy_disagree=self.fingerprint_disagree)

    def run(self, seconds: float) -> Segment:
        seg = Segment()
        window_busy = 0.0
        window_n = 0
        check = self.checks.check
        start = perf_counter()
        seg.cal_s.append(calibrate())
        while (self.calls < SCALAR_FINGERPRINT_CALLS or seg.units < SCALAR_WINDOW
               or perf_counter() - start < seconds):
            kind, a, b, extra = next(self.requests)
            if kind == MUL24:
                t0 = perf_counter()
                r = multiplier.mul24(a, b)
                dt = perf_counter() - t0
                product, want = int(r.product), a * b
                check(product == want and not r.unrepaired_faults, ("mul24", a, b, product))
            elif kind == MUL24_FAULT:
                spec, repair = extra
                t0 = perf_counter()
                r = multiplier.mul24(a, b, faults=spec, repair=repair)
                dt = perf_counter() - t0
                product = int(r.product)
                want, unrepaired = expected_mul24(a, b, spec, repair)
                check(product == want and r.unrepaired_faults == unrepaired,
                      ("mul24-fault", a, b, spec, repair is not None, product))
            elif kind == MUL12:
                t0 = perf_counter()
                r = multiplier.mul12(a, b)
                dt = perf_counter() - t0
                product = int(r.product)
                check(product == a * b, ("mul12", a, b, product))
            else:
                t0 = perf_counter()
                bits, trace = fp32.fp_mul(a, b)
                dt = perf_counter() - t0
                product = int(bits)
                check(product == _softfloat_oracle(a, b), ("fp_mul", a, b, product))
                r = None
                if extra >= 0 and product != extra:
                    self.numpy_disagree += 1
                    if self.calls < SCALAR_FINGERPRINT_CALLS:
                        self.fingerprint_disagree += 1
            self.latencies.append(dt)
            window_busy += dt
            window_n += 1
            if window_n == SCALAR_WINDOW:
                seg.rates.append(window_n / window_busy)
                seg.cal_s.append(calibrate())
                window_busy = 0.0
                window_n = 0
            if self.calls < SCALAR_FINGERPRINT_CALLS:
                if r is None:
                    self.stats.add(SCALAR_KINDS[kind], a, b, product, trace.activity)
                else:
                    self.stats.add(SCALAR_KINDS[kind], a, b, product, r.activity,
                                   r.unrepaired_faults)
            self.calls += 1
            seg.units += 1
        return seg

    @staticmethod
    def rate(seg: Segment, scaled: bool = True) -> float:
        """calls_per_s: the median over windows of SCALAR_WINDOW calls."""
        return seg.window_rate(scaled)

    def cli_case(self, k: int, rng: np.random.Generator):
        """(arguments of ``python -m cifm``, check of (stdout, exit code))."""
        a, b = (int(x) >> int(s) for x, s in zip(rng.integers(0, 1 << 24, 2), rng.choice(25, 2)))
        return (["mul", f"0x{a:X}", f"0x{b:X}"],
                lambda out, code: code == 0 and out.strip() == f"0x{a * b:X}")

    def named_metrics(self, seg: Segment) -> dict:
        lat = np.frombuffer(self.latencies, dtype=np.float64)
        p50, p99 = np.percentile(lat, [50, 99]) * 1e6
        return {"calls_per_s": metric(self.rate(seg), "1/s"),
                "call_p50_us": metric(float(p50), "us"), "call_p99_us": metric(float(p99), "us"),
                "call_samples": metric(lat.size, "count"),
                "fp32.numpy_disagree": metric(self.numpy_disagree, "count")}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_SUITES = ("mul12-random", "mul24-random", "gating-safety", "fp32-oracle", "repair-all")

# Independent expectations: random pairs plus the boundary-value grid (0, 1,
# 2**12-1 fit 12 bits; all five fit 24), two power checks, nine fp32
# special cases, and 36 positions x (1000 pairs + one exposure check).
SWEEP_TOTALS = {
    "mul12-random": 10_000 + 3 * 3,
    "mul24-random": 10_000 + 5 * 5,
    "gating-safety": 10_000 + 2,
    "fp32-oracle": 10_000 + 9,
    "repair-all": 36 * (1000 + 1),
}
SWEEP_NOTES = {"gating-safety": ["power_proxy narrow=1 wide=36"]}
SWEEP_CAL_PERIOD_S = 0.25               # calibrations inside one suite run


class CheckedDatapath:
    """Checks every product of the datapath functions ``verify`` calls.

    While installed, ``verify.mul24``, ``verify.mul12`` and ``fp32.fp_mul``
    (the names the suites look up) are wrappers that compare each result with
    its oracle and add it to the model statistics. Only the sweep's untimed
    checked pass runs with them; the timed passes call the originals.
    """

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.stats = ModelStats()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "CheckedDatapath":
        mul24, mul12, fp_mul = verify.mul24, verify.mul12, fp32.fp_mul
        check, add = self.checks.check, self.stats.add

        def checked_mul24(a, b, faults=(), repair=None, *rest, **kwargs):
            r = mul24(a, b, faults, repair, *rest, **kwargs)
            product = int(r.product)
            want, unrepaired = expected_mul24(int(a), int(b), faults, repair)
            check(product == want and r.unrepaired_faults == unrepaired,
                  ("verify.mul24", a, b, faults, repair, product))
            add("mul24", a, b, product, r.activity, r.unrepaired_faults)
            return r

        def checked_mul12(a, b, *rest, **kwargs):
            r = mul12(a, b, *rest, **kwargs)
            product = int(r.product)
            check(product == int(a) * int(b) and not r.unrepaired_faults,
                  ("verify.mul12", a, b, product))
            add("mul12", a, b, product, r.activity, r.unrepaired_faults)
            return r

        def checked_fp_mul(a, b, *rest, **kwargs):
            bits, trace = fp_mul(a, b, *rest, **kwargs)
            product = int(bits)
            check(product == _softfloat_oracle(int(a), int(b)), ("fp32.fp_mul", a, b, product))
            add("fp_mul", a, b, product, trace.activity)
            return bits, trace

        for owner, name, wrapper in ((verify, "mul24", checked_mul24),
                                     (verify, "mul12", checked_mul12),
                                     (fp32, "fp_mul", checked_fp_mul)):
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class Sweep:
    """A verification campaign: the block-level suites of ``verify``, by seed."""

    name = "sweep"
    cli_probes = 13

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.passes = 0
        self.model: dict | None = None

    def fingerprint(self) -> dict:
        return self.model

    def checked_pass(self) -> None:
        """One untimed pass with seed ``seed`` that checks every datapath product."""
        with CheckedDatapath(self.checks) as datapath:
            suites = {s: self._check(verify.run_suite(s, seed=self.seed), self.seed)
                      for s in SWEEP_SUITES}
        self.model = {"seed": self.seed, "suites": suites, "datapath": datapath.stats.to_json()}

    def run(self, seconds: float) -> Segment:
        """The checked pass once, then whole timed passes, pass k with seed
        ``seed + 1 + k``; another starts only if it fits ``seconds``."""
        if self.model is None:
            self.checked_pass()
        seg = Segment()
        start = perf_counter()
        cal_before = calibrate()
        while True:
            pass_start = perf_counter()
            for suite in SWEEP_SUITES:
                seed = self.seed + 1 + self.passes
                t0 = perf_counter()
                with Sampler(SWEEP_CAL_PERIOD_S) as sampler:
                    r = verify.run_suite(suite, seed=seed)
                t1 = perf_counter()
                cal_after = calibrate()
                cals = [cal_before, *sampler.cal_s, cal_after]
                seg.suite_s.setdefault(suite, []).append(t1 - t0 - sampler.spent_s)
                seg.suite_cal_s.setdefault(suite, []).append(sum(cals) / len(cals))
                seg.suite_edge_cal_s.setdefault(suite, []).append((cal_before + cal_after) / 2)
                cal_before = cal_after
                self._check(r, seed)
                seg.units += r.total
            self.passes += 1
            elapsed = perf_counter() - start
            if elapsed + (perf_counter() - pass_start) > seconds:
                return seg

    def _check(self, r, seed: int) -> dict:
        doc = r.to_json()
        want = SWEEP_TOTALS[r.name]
        what = (r.name, seed, doc)
        self.checks.batch(r.total, r.total - r.passed, what)
        self.checks.check(
            doc == {"suite": r.name, "passed": want, "total": want, "ok": True,
                    "notes": SWEEP_NOTES.get(r.name, [])},
            what,
        )
        return doc

    def cli_case(self, k: int, rng: np.random.Generator):
        want = SWEEP_TOTALS["mul12-random"]
        doc = {"suite": "mul12-random", "passed": want, "total": want, "ok": True, "notes": []}
        return (["verify", "mul12-random", "--seed", str(self.seed + k)],
                lambda out, code: code == 0 and json.loads(out) == doc)

    def named_metrics(self, seg: Segment) -> dict:
        return {"cases_per_s": metric(self.rate(seg), "1/s"),
                "passes": metric(self.passes, "count")}

    @staticmethod
    def rate(seg: Segment, scaled: bool = True) -> float:
        """cases_per_s: suite totals over the sum of each suite's median wall time."""
        total = sum(SWEEP_TOTALS[s] for s in SWEEP_SUITES)
        wall = 0.0
        for suite in SWEEP_SUITES:
            times = seg.suite_s[suite]
            if scaled:
                times = [scale(t, c) for t, c in zip(times, seg.suite_cal_s[suite])]
            wall += median(times)
        return total / wall


# ---------------------------------------------------------------------------
# gate-level
# ---------------------------------------------------------------------------

CELL_BATCH = {"mul12": 8192, "mul24": 2048}
REV_BATCH = {"mul12": 2048, "mul24": 512}
ONE_VECTOR_CALLS = {"mul12": 8, "mul24": 8}
WIDTH = {"mul12": 12, "mul24": 24}


def _bit_inputs(a: np.ndarray, b: np.ndarray, width: int) -> dict[str, np.ndarray]:
    ins = {}
    for k in range(width):
        ins[f"a{k}"] = (a >> k) & 1
        ins[f"b{k}"] = (b >> k) & 1
    return ins


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def _assemble(bits: list) -> np.ndarray:
    total = np.zeros_like(bits[0], dtype=np.int64)
    for k, v in enumerate(bits):
        total |= np.asarray(v, dtype=np.int64) << k
    return total


class GateLevel:
    """The flat cell netlists and their reversible expansions, mul12 and mul24."""

    name = "gate-level"
    cli_probes = 11

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.cycles = 0
        self.cell_vectors = 0
        self.cell_s = 0.0
        self.rev_vectors = 0
        self.rev_s = 0.0
        self.one_vector = array("d")
        self.model: dict = {}

    def fingerprint(self) -> dict:
        return self.model

    def _cycle(self) -> tuple[int, float]:
        rng = np.random.default_rng((self.seed, self.cycles))
        check = self.checks.check
        vectors, busy = 0, 0.0
        first = self.cycles == 0
        for level in ("mul12", "mul24"):
            width = WIDTH[level]
            nl, dt = _timed(multiplier.export_netlist, level)
            busy += dt

            n = CELL_BATCH[level]
            a = rng.integers(0, 1 << width, size=n, dtype=np.int64)
            b = rng.integers(0, 1 << width, size=n, dtype=np.int64)
            got, dt = _timed(nl.evaluate, {"a": a, "b": b})
            busy += dt
            self.cell_s += dt
            self.cell_vectors += n
            vectors += n
            cell_product = got
            good = got == a * b
            self.checks.batch(n, int(n - good.sum()), (level, "evaluate", self.seed, self.cycles))

            rev, dt = _timed(revlogic.expand, nl)
            busy += dt
            n = REV_BATCH[level]
            a, b = a[:n], b[:n]
            ins = _bit_inputs(a, b, width)
            fwd, dt_f = _timed(revlogic.simulate, rev, ins)
            back, dt_b = _timed(revlogic.simulate_inverse, rev, fwd.line_values)
            busy += dt_f + dt_b
            self.rev_s += dt_f + dt_b
            self.rev_vectors += n
            vectors += n
            product = _assemble([fwd.outputs[f"p{k}"] for k in range(2 * width)])
            good = product == a * b
            for line, value in zip(rev.lines, back):
                good &= value == (ins[line.name] if line.name is not None else line.const)
            self.checks.batch(n, int(n - good.sum()), (level, "rev", self.seed, self.cycles))

            metrics, dt = _timed(revlogic.metrics_of, rev)
            busy += dt
            row = metrics.to_json()
            check(row["gates"] == len(rev.gates), (level, "metrics", row))
            costs = []
            for features in (False, True):
                cost, dt = _timed(multiplier.cost_report, level, features)
                busy += dt
                check(cost.datapath_cells == len(nl.cells), (level, "cost", features))
                costs.append(cost.to_json())

            one_a = rng.integers(0, 1 << width, size=ONE_VECTOR_CALLS[level]).tolist()
            one_b = rng.integers(0, 1 << width, size=ONE_VECTOR_CALLS[level]).tolist()
            for x, y in zip(one_a, one_b):
                nets, dt = _timed(nl.evaluate_nets, {"a": x, "b": y})
                busy += dt
                self.one_vector.append(dt)
                vectors += 1
                got = sum(nets[net] << k for k, (_, net) in enumerate(nl.outputs))
                check(got == x * y, (level, "evaluate_nets", x, y, got))

            if first:
                digest = hashlib.sha256(cell_product.tobytes())
                digest.update(product.tobytes())
                self.model[level] = {
                    "rev_metrics": row,
                    "cost_reports": costs,
                    "product_sha256": digest.hexdigest(),
                }
        return vectors, busy

    @staticmethod
    def rate(seg: Segment, scaled: bool = True) -> float:
        """Vectors per second of busy time, the median over cycles."""
        return seg.window_rate(scaled)

    def cli_case(self, k: int, rng: np.random.Generator):
        pairs = [tuple(int(v) for v in rng.integers(0, 1 << 24, 2)) for _ in range(4)]
        return (["netlist", "mul24"],
                lambda out, code: code == 0 and all(
                    eval_netlist_json(json.loads(out), a, b) == a * b for a, b in pairs))

    def named_metrics(self, seg: Segment) -> dict:
        one = np.frombuffer(self.one_vector, dtype=np.float64)
        return {"cell_vectors_per_s": metric(self.cell_vectors / self.cell_s, "1/s"),
                "rev_vectors_per_s": metric(self.rev_vectors / self.rev_s, "1/s"),
                "one_vector_p50_us": metric(float(np.median(one)) * 1e6, "us"),
                "one_vector_samples": metric(one.size, "count"),
                "cycles": metric(self.cycles, "count")}

    def run(self, seconds: float) -> Segment:
        seg = Segment()
        start = perf_counter()
        seg.cal_s.append(calibrate())
        while not seg.rates or perf_counter() - start < seconds:
            vectors, busy = self._cycle()
            self.cycles += 1
            seg.units += vectors
            seg.rates.append(vectors / busy)
            seg.cal_s.append(calibrate())
        return seg


def netlist_fingerprint() -> dict:
    """Cell count and unit delay of the three netlists, and their reversible rows."""
    out = {}
    for level, rev_name in (("mul4", "mul4-rev"), ("mul12", "mul12-rev"), ("mul24", "cifm-rev")):
        nl = multiplier.export_netlist(level)
        out[level] = {"cells": nl.cell_count(), "unit_delay": nl.unit_delay()}
        out[rev_name] = revlogic.metrics_of(revlogic.expand(nl)).to_json()
    return out


WORKLOADS = {"scalar-mix": ScalarMix, "sweep": Sweep, "gate-level": GateLevel}
