"""Every scalar record of a fixed call set, pinned by one sha256.

The call set covers ``mul4`` on all 256 pairs; ``mul12``/``mul24`` on corner
operands with gating on and off, fault-free and at every fault position,
repaired and unrepaired; and ``fp_mul`` on every pair of the special
patterns of ``tests/test_softfloat.py`` plus normal pairs that round up,
overflow and underflow, fault-free and faulted. Each call contributes its
product, ``activity.to_json()``, ``power_proxy`` and unrepaired faults, or
for ``fp_mul`` its result pattern and ``trace.to_json()``. A change to how
the records are built must leave every one of them as it was.
"""

import hashlib
import json

from cifm.fp32 import Rounding, fp_mul
from cifm.multiplier import GRID_IDS, FaultSpec, Quadrant, RepairConfig, mul4, mul12, mul24
from test_softfloat import SPECIAL_PATTERNS

# every operand pair of its width's corners runs fault-free; the faulted
# calls take the pairs of the last three, which power most blocks
CORNERS12 = (0x000, 0x001, 0x00F, 0x010, 0x100, 0x01F, 0xA5C, 0xFFF)
CORNERS24 = (0x000000, 0x000001, 0x001000, 0xFFF000, 0x000FFF, 0x00F00F, 0xA5C3E1, 0xFFFFFF)

# (a, b): rounds down; rounds up, with and without normalising; the tie at
# 2**47 - 2**22, rounding up to the next power of two, then the same carry
# overflowing and the same tie flushed though it would round up to the
# smallest normal; overflow and underflow outright
FP_NORMAL_PAIRS = (
    (0x3F800001, 0x3F800001), (0x2618B890, 0xDD9BBB09), (0xA1570476, 0x7778F70C),
    (0x3F918E00, 0x3FE12000), (0x5F118E00, 0x5FE12000), (0x1F918E00, 0x20612000),
    (0x7F000000, 0x40000000), (0x00800000, 0x3F000000),
)

# pinned at the commit before scalar reports were built on first read
DIGEST = "66619bece32ab33a976da8bf2ef7b3edd226fa155c65baddb9bb4ab8bd4ef846"


def _mul_record(result) -> list:
    return [
        int(result.product),
        result.activity.to_json(),
        result.activity.power_proxy,
        [m.to_json() for m in result.unrepaired_faults],
    ]


def _records():
    for a in range(16):
        for b in range(16):
            yield ["mul4", a, b, _mul_record(mul4(a, b))]
    every_repaired = {
        q: RepairConfig(True, GRID_IDS[q][(k % 3, (k + 1) % 3)]) for k, q in enumerate(Quadrant)
    }
    for width, scalar, corners, quads in (
        (12, mul12, CORNERS12, [Quadrant.LL]),
        (24, mul24, CORNERS24, list(Quadrant)),
    ):
        configs = [("plain", (), RepairConfig() if width == 12 else None)]
        if width == 24:
            configs.append(("every spare", (), every_repaired))
        for n, target in enumerate(t for q in quads for t in GRID_IDS[q].values()):
            faults = [FaultSpec(target, (0xA5, 0x00, 0xFF, 0x3C)[n % 4])]
            off, on = RepairConfig(), RepairConfig(True, target)
            if width == 24:
                off, on = None, {target.quadrant: on}
            configs.append((f"{target} unrepaired", faults, off))
            configs.append((f"{target} repaired", faults, on))
        for label, faults, repair in configs:
            operands = corners[-3:] if faults else corners
            for gating in (True, False):
                for a in operands:
                    for b in operands:
                        result = scalar(a, b, faults, repair, gating=gating)
                        yield [f"mul{width}", label, gating, a, b, _mul_record(result)]
    pairs = [(a, b) for a in SPECIAL_PATTERNS for b in SPECIAL_PATTERNS] + list(FP_NORMAL_PAIRS)
    for a, b in pairs:
        for rounding in Rounding:
            bits, trace = fp_mul(a, b, rounding=rounding)
            yield ["fp_mul", a, b, rounding.value, int(bits), trace.to_json()]
    hh = GRID_IDS[Quadrant.HH][(2, 2)]
    ll = GRID_IDS[Quadrant.LL][(0, 0)]
    for a, b in FP_NORMAL_PAIRS:
        faults = [FaultSpec(hh, 0x5A), FaultSpec(ll, 0xFF)]
        for repair in (None, {Quadrant.HH: RepairConfig(True, hh)}):
            bits, trace = fp_mul(a, b, faults, repair)
            yield ["fp_mul faulted", a, b, repair is None, int(bits), trace.to_json()]


def test_scalar_records_are_pinned():
    text = json.dumps(list(_records()))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
