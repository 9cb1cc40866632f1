"""The block-level and reversible verify suites at many seeds, as one program.

    PYTHONPATH=src python -W error tests/suite_seeds.py

In one process it runs ``mul12-random``, ``mul24-random``,
``gating-safety``, ``fp32-oracle``, ``repair-all``, ``fault-values``,
``rev-roundtrip`` and ``rev-expand`` at seeds 0-49, and ``block-paths``,
which checks the scalar pass and shared engine passes against the batch
engine, at seeds 0-19. Each suite run that is not ok prints its summary,
its seed and its notes; then the count of runs that were ok is printed.
The exit status is 1 when any run is not ok, else 0. The file name does not
start with ``test_``, so pytest does not collect it.
"""

import sys

from cifm.verify import run_suite

SUITES = ("mul12-random", "mul24-random", "gating-safety", "fp32-oracle", "repair-all",
          "fault-values", "rev-roundtrip", "rev-expand")
RUNS = [(name, seed) for seed in range(50) for name in SUITES]
RUNS += [("block-paths", seed) for seed in range(20)]


def main() -> int:
    failed = 0
    for name, seed in RUNS:
        r = run_suite(name, seed)
        if not r.ok:
            failed += 1
            print(f"{r.summary()} at seed {seed}", *r.notes, sep="\n  ")
    print(f"{len(RUNS) - failed}/{len(RUNS)} suite runs ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
