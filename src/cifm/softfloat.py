"""Reference IEEE-754 single-precision multiplier, independent of the datapath.

This module exists to check the hardware-style pipeline in :mod:`cifm.fp32`
against a second implementation that shares no code with it. Significands
are multiplied as plain Python integers and normalised via bit_length;
round-to-nearest-even compares the discarded remainder against the half
point. Subnormal inputs are treated as zero and subnormal results flush
to zero, matching the wrapper's flush-to-zero behaviour.

Tininess is detected before rounding: a product whose exact value lies
below 2**-126 flushes to a signed zero, even when rounding to nearest even
would lift it to the smallest normal, 0x00800000. IEEE 754 arithmetic with
gradual underflow (numpy's float32, for one) returns 0x00800000 or a
subnormal there.

:func:`softfloat_mul` is the readable reference. :func:`softfloat_mul_batch`
runs the same steps, rounding to nearest even, on int64 arrays of patterns:
the bit_length normalisation becomes a shift by 47, and each early return
becomes a mask. It too uses integer arithmetic only, and tests pin it to the
scalar function element for element.
"""

from __future__ import annotations

import sys
from numbers import Integral
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from .bitcore import uint_rows

__all__ = ["softfloat_mul", "softfloat_mul_batch", "CANONICAL_QNAN"]

CANONICAL_QNAN = 0x7FC00000

_EXP_MASK = 0xFF
_FRAC_MASK = 0x7FFFFF


def _parts(bits: int) -> tuple[int, int, int]:
    # a plain int skips the Integral test, which goes through the ABC machinery
    if type(bits) is not int:
        if isinstance(bits, bool) or not isinstance(bits, Integral):
            raise ValueError(f"not a 32-bit pattern: {bits!r}")
        bits = int(bits)
    if not 0 <= bits < (1 << 32):
        raise ValueError(f"not a 32-bit pattern: {bits:#x}")
    return (bits >> 31) & 1, (bits >> 23) & _EXP_MASK, bits & _FRAC_MASK


def softfloat_mul(x: int, y: int, truncate: bool = False) -> int:
    """Multiply two float32 bit patterns, returning the result pattern.

    Rounds to nearest even unless ``truncate`` is set. NaN inputs, and
    Inf times zero, give the canonical quiet NaN. Subnormals count as zero.
    Overflow gives a signed infinity, underflow a signed zero. Underflow
    means an exact product below 2**-126, tested before rounding. Operands
    other than ints in 0..2**32-1 (floats, strings, None, bools) raise
    ValueError, and so does a ``truncate`` that is not a bool.
    """
    if not isinstance(truncate, bool):
        np = sys.modules.get("numpy")     # a numpy bool only once numpy is loaded
        if np is None or not isinstance(truncate, np.bool_):
            raise ValueError(f"truncate must be a bool, got {truncate!r}")
    sx, ex, fx = _parts(x)
    sy, ey, fy = _parts(y)
    sign = sx ^ sy

    x_nan = ex == _EXP_MASK and fx != 0
    y_nan = ey == _EXP_MASK and fy != 0
    if x_nan or y_nan:
        return CANONICAL_QNAN
    x_inf = ex == _EXP_MASK
    y_inf = ey == _EXP_MASK
    # subnormals (exponent 0, fraction nonzero) are flushed to zero here
    x_zero = ex == 0
    y_zero = ey == 0
    if x_inf or y_inf:
        if x_zero or y_zero:
            return CANONICAL_QNAN
        return (sign << 31) | (_EXP_MASK << 23)
    if x_zero or y_zero:
        return sign << 31

    sig = ((1 << 23) | fx) * ((1 << 23) | fy)      # 47 or 48 significant bits
    exp = ex + ey - 127 + (sig.bit_length() - 47)  # +1 when the product hit 2.0

    if exp >= 255:
        return (sign << 31) | (_EXP_MASK << 23)
    if exp <= 0:
        return sign << 31

    drop = sig.bit_length() - 24
    kept = sig >> drop
    if not truncate:
        rem = sig - (kept << drop)
        half = 1 << (drop - 1)
        if rem > half or (rem == half and (kept & 1)):
            kept += 1
            if kept == (1 << 24):
                kept >>= 1
                exp += 1
                if exp >= 255:
                    return (sign << 31) | (_EXP_MASK << 23)

    return (sign << 31) | (exp << 23) | (kept & _FRAC_MASK)


def softfloat_mul_batch(x, y) -> np.ndarray:
    """:func:`softfloat_mul` with rounding to nearest even, over arrays.

    ``x`` and ``y`` are ints or integer arrays whose shapes broadcast; every
    element must lie in 0..2**32-1. Float, bool and object arrays, elements
    out of range and shapes that do not broadcast raise ValueError; an empty
    batch is allowed. Returns the int64 result patterns in the broadcast
    shape.
    """
    import numpy as np

    rows, shape = uint_rows((x, y), (32, 32), "xy".__getitem__)
    x, y = rows
    ex, fx = (x >> 23) & _EXP_MASK, x & _FRAC_MASK
    ey, fy = (y >> 23) & _EXP_MASK, y & _FRAC_MASK
    signed = ((x ^ y) >> 31) << 31
    signed_inf = signed | (_EXP_MASK << 23)

    nan = ((ex == _EXP_MASK) & (fx != 0)) | ((ey == _EXP_MASK) & (fy != 0))
    inf = (ex == _EXP_MASK) | (ey == _EXP_MASK)
    # subnormals (exponent 0, fraction nonzero) are flushed to zero here
    zero = (ex == 0) | (ey == 0)

    sig = ((1 << 23) | fx) * ((1 << 23) | fy)      # below 2**48: fits in int64
    top = sig >> 47                                 # sig.bit_length() - 47
    exp = ex + ey - 127 + top
    underflow = exp <= 0                            # tested before rounding

    drop = 23 + top                                 # sig.bit_length() - 24
    kept = sig >> drop
    rem = sig - (kept << drop)
    half = 1 << (drop - 1)
    kept += (rem > half) | ((rem == half) & (kept & 1 == 1))
    carry = kept >> 24                              # kept == 1 << 24
    kept >>= carry
    exp += carry
    overflow = exp >= 255                           # after the carry

    out = np.select(
        [nan | (inf & zero), inf, zero, overflow, underflow],
        [CANONICAL_QNAN, signed_inf, signed, signed_inf, signed],
        signed | (exp << 23) | (kept & _FRAC_MASK),
    )
    return out.reshape(shape)
