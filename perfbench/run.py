"""cifm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in, never from an installed copy. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run. The line before it is the
full run record: host, source, every named metric with its unit, the raw
samples behind each median, the model fingerprint and any failed checks.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from hostspeed import calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class _OneCpu:
    """Keep this process, and the children it starts, on one CPU meanwhile.

    Child processes then run on the core the parent's calibration measured,
    which halved the spread of scaled probe times in a 2-core sandbox.
    """

    def __enter__(self):
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.saved)})

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.saved)


def _import_cifm() -> None:
    """Import cifm from this checkout's src/, refusing any other copy."""
    if not (SRC / "cifm" / "__init__.py").is_file():
        sys.exit(f"error: no cifm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cifm

    if Path(cifm.__file__).resolve().parent != (SRC / "cifm").resolve():
        sys.exit(f"error: imported cifm from {cifm.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Child-process probes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, count: int, checks) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has set the workload up,
    and the host-speed calibration around each probe."""
    samples, cals = [], []
    for _ in range(count):
        cal = calibrate()
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        checks.check(line == "ready" and code == 0, ("setup probe", workload, line, code))
        samples.append(t1 - t0)
        cals.append((cal + calibrate()) / 2)
    return samples, cals


def probe_cli(workload, ks: range, rng, checks) -> tuple[list[float], list[float]]:
    """Wall seconds of sequential cold ``python -m cifm`` runs of the workload's kind,
    and the host-speed calibration around each."""
    samples, cals = [], []
    for k in ks:
        args, ok = workload.cli_case(k, rng)
        cal = calibrate()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cifm", *args], capture_output=True, text=True,
            env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(perf_counter() - t0)
        cals.append((cal + calibrate()) / 2)
        try:
            good = ok(proc.stdout, proc.returncode)
        except ValueError:              # output that is not the JSON expected
            good = False
        checks.check(good, ("cli", args, proc.returncode))
    return samples, cals


def probe_cli_import() -> list[float]:
    """Seconds to ``import cifm.cli`` in a fresh interpreter, as it measures them."""
    code = ("import time; t = time.perf_counter(); import cifm.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout))
    return out


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cifm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _scaled_median(samples: list[float], cals: list[float]) -> float:
    return median(scale(t, c) for t, c in zip(samples, cals))


def layer_metrics(summary: dict, import_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics from a tracer summary; layers the run never entered read 0."""
    from workloads import SWEEP_SUITES
    from workloads import metric as _m

    out = {}
    for fn in ("mul24", "mul12", "mul4"):
        out[f"multiplier.{fn}.calls"] = _m(summary[f"multiplier.{fn}"]["calls"], "count")
        out[f"multiplier.{fn}.self_s"] = _m(summary[f"multiplier.{fn}"]["self_s"], "s")
    out["multiplier.export_netlist.self_s"] = _m(
        summary["multiplier.export_netlist"]["self_s"], "s")
    verify_self = summary["verify.run_suite"]["self_s"] + sum(
        summary[f"verify.suite.{s}"]["self_s"] for s in SWEEP_SUITES)
    out["verify.run_suite.self_s"] = _m(verify_self, "s")
    for suite in SWEEP_SUITES:
        out[f"verify.{suite}.s"] = _m(summary[f"verify.suite.{suite}"]["s"], "s")
        out[f"verify.{suite}.cases"] = _m(summary[f"verify.suite.{suite}"]["vectors"], "count")
    for key in ("fp32.fp_mul", "softfloat.softfloat_mul"):
        out[f"{key}.calls"] = _m(summary[key]["calls"], "count")
        out[f"{key}.self_s"] = _m(summary[key]["self_s"], "s")
    ev, nets = summary["bitcore.evaluate"], summary["bitcore.evaluate_nets"]
    ev_self = ev["self_s"] + nets["self_s"]
    out["bitcore.evaluate.calls"] = _m(nets["calls"], "count")
    out["bitcore.evaluate.vectors"] = _m(nets["vectors"], "count")
    out["bitcore.evaluate.self_s"] = _m(ev_self, "s")
    out["bitcore.evaluate.ns_per_cell_vector"] = _m(
        ev_self * 1e9 / nets["elem_vectors"] if nets["elem_vectors"] else 0.0, "ns")
    for fn in ("expand", "simulate", "simulate_inverse", "metrics_of"):
        out[f"revlogic.{fn}.self_s"] = _m(summary[f"revlogic.{fn}"]["self_s"], "s")
    sim, inv = summary["revlogic.simulate"], summary["revlogic.simulate_inverse"]
    gate_vectors = sim["elem_vectors"] + inv["elem_vectors"]
    out["revlogic.ns_per_gate_vector"] = _m(
        (sim["self_s"] + inv["self_s"]) * 1e9 / gate_vectors if gate_vectors else 0.0, "ns")
    out["cli.import_s"] = _m(import_s, "s")
    out["trace.overhead_frac"] = _m(overhead_frac, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("scalar-mix", "sweep", "gate-level"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_cifm()
    from tracing import Tracer
    from workloads import WORKLOADS, Checks, netlist_fingerprint, setup
    from workloads import metric as _m

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record()}
    raw: dict = {}

    if args.trace == 0:
        import numpy as np

        setup(args.workload)
        cli_rng = np.random.default_rng((args.seed, 1 << 20))
        for key in ("setup_s", "setup_cal_s", "cli_cold_s", "cli_cal_s"):
            raw[key] = []

        def probe_round(setup_count: int, cli_ks: range) -> None:
            with _OneCpu():
                samples, cals = probe_setup(args.workload, setup_count, checks)
                raw["setup_s"] += samples
                raw["setup_cal_s"] += cals
                samples, cals = probe_cli(workload, cli_ks, cli_rng, checks)
                raw["cli_cold_s"] += samples
                raw["cli_cal_s"] += cals

        # half the probes before the timed loop and half after, so that their
        # medians span the run rather than one moment of it
        n_cli = workload.cli_probes
        probe_round(SETUP_PROBES // 2, range(n_cli // 2))
        seg = workload.run(args.seconds)
        probe_round(SETUP_PROBES - SETUP_PROBES // 2, range(n_cli // 2, n_cli))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": _m(_scaled_median(raw["setup_s"], raw["setup_cal_s"]), "s"),
            "work_per_s": _m(workload.rate(seg), "1/s"),
            "cli_cold_p50_s": _m(_scaled_median(raw["cli_cold_s"], raw["cli_cal_s"]), "s"),
            "peak_rss_mb": _m(rss_mb, "MB"),
        }
        raw["unscaled"] = {"setup_s": median(raw["setup_s"]),
                           "work_per_s": workload.rate(seg, scaled=False),
                           "cli_cold_p50_s": median(raw["cli_cold_s"])}
    else:
        tracer = Tracer()
        tracer.install()
        try:
            setup(args.workload)
        finally:
            tracer.restore()
        plain = workload.run(args.seconds / 2)
        tracer.install()
        try:
            seg = workload.run(args.seconds / 2)
        finally:
            tracer.restore()
        with _OneCpu():
            raw["cli_import_s"] = probe_cli_import()
        raw["untraced_work_per_s"] = workload.rate(plain)
        raw["traced_work_per_s"] = workload.rate(seg)
        metrics = layer_metrics(tracer.summary(), median(raw["cli_import_s"]),
                                raw["untraced_work_per_s"] / raw["traced_work_per_s"] - 1)

    fail_frac = checks.failed / checks.attempted
    raw["units"] = seg.units
    raw["rates"] = seg.rates
    raw["cal_s"] = seg.cal_s
    raw["suite_s"] = seg.suite_s
    raw["suite_cal_s"] = seg.suite_cal_s
    raw["suite_edge_cal_s"] = seg.suite_edge_cal_s
    record["metrics"] = dict(metrics, **workload.named_metrics(seg),
                             fail_frac=_m(fail_frac, "ratio"))
    record["raw"] = raw
    record["fingerprint"] = {"model": workload.fingerprint(), "netlists": netlist_fingerprint()}
    record["fingerprint_sha256"] = hashlib.sha256(
        json.dumps(record["fingerprint"], sort_keys=True).encode()).hexdigest()
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "first_failures": [repr(f) for f in checks.first_failures]}

    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
