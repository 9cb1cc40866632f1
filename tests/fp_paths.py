"""The fp32 paths checked against each other at seeds 0-9, as one program.

    PYTHONPATH=src python -W error tests/fp_paths.py

It runs two checks, each on patterns from the soft-float edge generator
``test_softfloat.edge_pairs``:

- scalar ``fp_mul`` against ``fp_mul_batch``, 20,000 patterns per seed,
  with no fault and with one fault whose block rotates over the 36
  positions from seed to seed, repaired and not;
- ``softfloat_mul_batch`` against the scalar ``softfloat_mul``, 100,000
  patterns per seed, most at the underflow and overflow exponent sums or
  with a significand product near a tie.

Each check prints up to 10 mismatches and then its count of matches. The
exit status is 1 when either check finds a mismatch, else 0. The file name
does not start with ``test_``, so pytest does not collect it.
"""

import sys

import numpy as np

from cifm.fp32 import fp_mul, fp_mul_batch
from cifm.multiplier import BLOCK_IDS, FaultSpec, RepairConfig
from cifm.softfloat import softfloat_mul, softfloat_mul_batch
from test_softfloat import edge_pairs

SEEDS = range(10)


def scalar_fp_mul_against_the_batch() -> bool:
    checked, bad = 0, []
    for seed in SEEDS:
        x, y = edge_pairs(seed, 20_000)
        target = BLOCK_IDS[7 * seed % 36]
        fault = [FaultSpec(target, int(np.random.default_rng(seed).integers(256)))]
        repaired = {target.quadrant: RepairConfig(True, target)}
        for label, faults, repair in (("no fault", (), None), (f"{target} unrepaired", fault, None),
                                      (f"{target} repaired", fault, repaired)):
            want = fp_mul_batch(x, y, faults, repair).tolist()
            for a, b, w in zip(x.tolist(), y.tolist(), want):
                g = int(fp_mul(a, b, faults, repair)[0])
                checked += 1
                if g != w:
                    bad.append(f"seed {seed} {label} x=0x{a:08X} y=0x{b:08X} "
                               f"scalar=0x{g:08X} batch=0x{w:08X}")
    for line in bad[:10]:
        print(line)
    print(f"{checked - len(bad)}/{checked} scalar fp_mul results match the batch")
    return not bad


def softfloat_batch_against_the_scalar() -> bool:
    checked, bad = 0, []
    for seed in SEEDS:
        x, y = edge_pairs(seed, 100_000)
        got = softfloat_mul_batch(x, y).tolist()
        for a, b, g in zip(x.tolist(), y.tolist(), got):
            w = softfloat_mul(a, b)
            checked += 1
            if g != w:
                bad.append(f"seed {seed} x=0x{a:08X} y=0x{b:08X} got=0x{g:08X} want=0x{w:08X}")
    for line in bad[:10]:
        print(line)
    print(f"{checked - len(bad)}/{checked} batch patterns match the scalar oracle")
    return not bad


def main() -> int:
    ok = [check() for check in (scalar_fp_mul_against_the_batch,
                                softfloat_batch_against_the_scalar)]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
