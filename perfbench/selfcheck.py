"""Short self-check of the benchmark on every workload (or the ones named).

    python3 perfbench/selfcheck.py [scalar-mix] [sweep] [gate-level]

For each workload it makes two untraced runs with the same seed and one
traced run, and checks that every run exits 0 with no failed check
(fail_frac == 0), that the two same-seed runs give the same model
fingerprint, that the last line carries exactly the metrics BENCHMARK.json
names with their units, and that the run record carries the workload's own
named metrics. A sweep run always completes one pass of its suites, so the
sweep check takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "1"

RECORD_METRICS = {
    "scalar-mix": ("calls_per_s", "call_p50_us", "call_p99_us", "fp32.numpy_disagree"),
    "sweep": ("cases_per_s",),
    "gate-level": ("cell_vectors_per_s", "rev_vectors_per_s", "one_vector_p50_us"),
}
COMMON_RECORD_METRICS = ("fail_frac",)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_units(where: str, got: dict, want: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in want}
    expect(set(got) == set(names), f"{where}: metrics {sorted(set(got) ^ set(names))} differ")
    for name, unit in names.items():
        expect(got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}")
        expect(isinstance(got[name]["value"], (int, float)), f"{where}: {name} not a number")


def check(workload: str, spec: dict) -> None:
    first, last1 = run(workload, 0)
    second, last2 = run(workload, 0)
    traced, last3 = run(workload, 1)
    for tag, rec, last in (("run 1", first, last1), ("run 2", second, last2),
                           ("traced", traced, last3)):
        where = f"{workload} {tag}"
        expect(set(last) == {"correct", "attempted", "failed", "metrics"}, where)
        expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, (
            f"{where}: {rec['checks']}"))
        expect(rec["metrics"]["fail_frac"]["value"] == 0, where)
        for name in RECORD_METRICS[workload] + COMMON_RECORD_METRICS:
            expect("unit" in rec["metrics"][name], f"{where}: record lacks {name}")
    check_units(f"{workload} end_to_end", last1["metrics"], spec["end_to_end"])
    check_units(f"{workload} per_layer", last3["metrics"], spec["per_layer"])
    expect(first["fingerprint"] == second["fingerprint"] == traced["fingerprint"], (
        f"{workload}: fingerprints differ for seed {SEED}"))
    print(f"{workload}: ok, fingerprint {first['fingerprint_sha256'][:16]}")


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in argv or names:
        if workload not in names:
            raise SystemExit(f"unknown workload {workload!r}; choose from {names}")
        check(workload, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
