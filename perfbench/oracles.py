"""Reference results computed without the code under test.

Integer products come from Python ``*``; a faulted block is modelled from
the datapath's specification (4-bit operand groups, width classes, a 24-bit
quadrant accumulator and a 48-bit final sum); a dumped cell netlist is
evaluated here with plain ints. Float32 results are checked against
:func:`cifm.softfloat.softfloat_mul`, which shares no code with the ``fp32``
wrapper, and compared to numpy's float32 multiply for information.
"""

from __future__ import annotations

import numpy as np

CANONICAL_QNAN = 0x7FC00000


def _groups(half: int) -> int:
    """Energised 4-bit groups of a 12-bit operand half: max(1, ceil(bitlen/4))."""
    return max(1, -(-half.bit_length() // 4))


def faulted_mul24(x: int, y: int, quadrant: str, i: int, j: int, forced: int):
    """(product, fault visible) of mul24 with block quadrant:i:j stuck at ``forced``.

    ``quadrant`` is the two-letter name, first letter for the a half. The block
    drives its forced value only when it is energised: its quadrant is on and
    row i, column j are inside the operands' width classes. The quadrant sums
    its blocks modulo 2**24 and the top level sums quadrants modulo 2**48.
    """
    a_high, b_high = quadrant[0] == "H", quadrant[1] == "H"
    xh = x >> 12 if a_high else x & 0xFFF
    yh = y >> 12 if b_high else y & 0xFFF
    quad_on = (not a_high or x >> 12) and (not b_high or y >> 12)
    if not (quad_on and i < _groups(xh) and j < _groups(yh)):
        return x * y, False
    true_block = ((xh >> 4 * i) & 0xF) * ((yh >> 4 * j) & 0xF)
    quad_true = xh * yh
    quad_faulty = (quad_true + ((forced - true_block) << 4 * (i + j))) % (1 << 24)
    shift = 12 * (a_high + b_high)
    return (x * y + ((quad_faulty - quad_true) << shift)) % (1 << 48), True


def _is_subnormal(bits: np.ndarray) -> np.ndarray:
    return ((bits >> 23) & 0xFF == 0) & (bits & 0x7FFFFF != 0)


def numpy_fp32(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """numpy float32 products as bit patterns, or -1 where not comparable.

    Subnormal inputs are not comparable (the wrapper flushes them first).
    NaNs are canonicalised and subnormal outputs flushed to signed zero, so
    the only disagreements left are about where underflow is detected.
    """
    a = np.asarray(a_bits, dtype=np.uint32)
    b = np.asarray(b_bits, dtype=np.uint32)
    with np.errstate(all="ignore"):
        prod = a.view(np.float32) * b.view(np.float32)
    bits = prod.view(np.uint32).astype(np.int64)
    bits[np.isnan(prod)] = CANONICAL_QNAN
    sub = _is_subnormal(bits)
    bits[sub] &= 0x80000000
    bits[_is_subnormal(a) | _is_subnormal(b)] = -1
    return bits


def eval_netlist_json(doc: dict, a: int, b: int) -> int:
    """Output value of a cell netlist in its JSON form, for operands a and b."""
    values = {}
    for bus, operand in zip(doc["inputs"], (a, b)):
        for k, net in enumerate(bus["nets"]):
            values[net] = (operand >> k) & 1
    for cell in doc["cells"]:
        ins = [values[n] for n in cell["ins"]]
        if cell["kind"] == "AND":
            outs = [ins[0] & ins[1]]
        else:                           # HA and FA: (sum, carry) of the input bits
            total = sum(ins)
            outs = [total & 1, total >> 1]
        values.update(zip(cell["outs"], outs))
    return sum(values[o["net"]] << k for k, o in enumerate(doc["outputs"]))
