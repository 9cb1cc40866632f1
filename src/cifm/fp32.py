"""IEEE-754 single-precision multiply on top of the 24x24 block datapath.

The significand product is computed by the block engine of
:mod:`cifm.multiplier` on the two 24-bit significands (hidden bit restored),
so fault injection and the gating/repair machinery flow through to float
results. Exponents are added with the bias removed. The 48-bit raw product
is normalised by at most one position and the retained 23 fraction bits are
rounded to nearest even (or truncated on request).

:func:`fp_mul` multiplies one pair through the scalar pass of
:func:`cifm.multiplier.mul24` and returns an :class:`FpMulTrace` of every
pipeline stage, built on first read; :func:`fp_mul_batch` multiplies
arrays of patterns through one :func:`cifm.multiplier.mul24_batch` call.
Both classify operands with :func:`_operand_class`, look pairs up in the
same specials table, and run the same exponent, normalisation, rounding
and range rules (:func:`_finish`), written with operators that Python ints
and int64 arrays share.

Flush-to-zero behaviour: subnormal inputs are treated as zero before the
specials table is consulted. Tininess is detected before rounding: a
product whose exact value lies below 2**-126 (biased exponent 0 or less
after normalisation) flushes to a signed zero, even when rounding to
nearest even would lift it to the smallest normal, 0x00800000. IEEE 754
arithmetic with gradual underflow, numpy's float32 among it, returns
0x00800000 or a subnormal there. Gradual underflow is deliberately out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from .bitcore import BitVec, deferred_record, uint_rows, uint_value
from .multiplier import (
    _MUL24,
    ActivityReport,
    FaultSpec,
    Quadrant,
    RepairConfig,
    _plan24,
    _run_scalar,
    mul24_batch,
)
from .softfloat import CANONICAL_QNAN

__all__ = [
    "Fp32Class",
    "Rounding",
    "Fp32Parts",
    "FpMulTrace",
    "fp_mul",
    "fp_mul_batch",
]


_FRAC_MASK = (1 << 23) - 1
_HIDDEN = 1 << 23


class Fp32Class(Enum):
    NORMAL = "normal"
    ZERO = "zero"
    INF = "inf"
    NAN = "nan"


class Rounding(Enum):
    NEAREST_EVEN = "nearest-even"
    TRUNCATE = "truncate"


@dataclass(frozen=True)
class Fp32Parts:
    sign: int
    exponent: int          # raw biased field
    fraction: BitVec       # 23 stored bits
    cls: Fp32Class


@dataclass(frozen=True)
class FpMulTrace:
    """Everything the pipeline did, for inspection and debugging.

    The trace of :func:`fp_mul` is built on first read, and compares equal
    to a trace built from the same fields.
    """

    a: Fp32Parts
    b: Fp32Parts
    significand_a: BitVec | None = None
    significand_b: BitVec | None = None
    raw_product: BitVec | None = None
    normalized: bool = False
    exponent_pre_bias: int = 0
    exponent_final: int = 0
    rounding_applied: str = "none"      # "none" or "increment"
    flushed_inputs: tuple[str, ...] = ()
    overflow: bool = False
    underflow: bool = False
    special: str | None = None
    activity: ActivityReport | None = None

    def to_json(self) -> dict:
        def parts(p: Fp32Parts) -> dict:
            return {
                "sign": p.sign,
                "exponent": p.exponent,
                "fraction": f"0x{p.fraction.value:06X}",
                "class": p.cls.value,
            }

        def hexed(v: BitVec | None) -> str | None:
            return None if v is None else f"0x{v.value:X}"

        return {
            "a": parts(self.a),
            "b": parts(self.b),
            "significand_a": hexed(self.significand_a),
            "significand_b": hexed(self.significand_b),
            "raw_product": hexed(self.raw_product),
            "normalized": self.normalized,
            "exponent_pre_bias": self.exponent_pre_bias,
            "exponent_final": self.exponent_final,
            "rounding_applied": self.rounding_applied,
            "flushed_inputs": list(self.flushed_inputs),
            "overflow": self.overflow,
            "underflow": self.underflow,
            "special": self.special,
            "activity": None if self.activity is None else self.activity.to_json(),
        }


# The NaN/Inf/zero table. Each operand is first put in one of four classes,
# subnormals flushing to zero: 0 finite nonzero, 1 zero, 2 infinity, 3 NaN.
# A pair's entry is at 4 * class(a) + class(b): its label (None for a pair
# the datapath multiplies), its result pattern, and whether the result
# takes the product's sign.
def _special_entry(ca: int, cb: int) -> tuple[str | None, int, bool]:
    if 3 in (ca, cb):
        return "nan-propagation", CANONICAL_QNAN, False
    if 2 in (ca, cb):
        if 1 in (ca, cb):
            return "inf-times-zero", CANONICAL_QNAN, False
        return "infinity", 0xFF << 23, True
    if 1 in (ca, cb):
        return "zero-operand", 0, True
    return None, 0, False


_SPECIALS = tuple(_special_entry(ca, cb) for ca in range(4) for cb in range(4))


def _operand_class(bits):
    """Class 0-3 of a pattern, or of each in an int64 array, as the table reads it."""
    exponent = (bits >> 23) & 0xFF
    return (exponent == 0) + (exponent == 0xFF) * (2 + ((bits & _FRAC_MASK) != 0))


_CLASSES = (Fp32Class.NORMAL, Fp32Class.ZERO, Fp32Class.INF, Fp32Class.NAN)


def _parts(value: int, code: int) -> Fp32Parts:
    """The trace record of pattern ``value``, whose operand class is ``code``."""
    if code == 1:                           # zero, or a subnormal flushed to zero
        value &= 1 << 31
    fraction = BitVec(value & _FRAC_MASK, 23)
    return Fp32Parts(value >> 31, (value >> 23) & 0xFF, fraction, _CLASSES[code])


def _finish(exponent_sum, raw, nearest_even):
    """The unsigned result pattern of a finite nonzero product, with flags.

    ``exponent_sum`` is the sum of the two biased exponent fields and ``raw``
    the 48-bit product of the two significands. Returns ``(magnitude,
    increment, overflow, underflow)``: the pattern without its sign bit,
    whether rounding added one to the kept significand, and whether the
    result saturated to infinity or flushed to zero.

    Tininess is detected before rounding: the underflow test reads the
    exponent after normalisation and before the rounding carry, so a
    product below 2**-126 flushes even when it would round up to
    0x00800000. Overflow is tested after the carry. Written with operators
    that Python ints and int64 arrays share, so :func:`fp_mul` and
    :func:`fp_mul_batch` run the same rule.
    """
    normalized = raw >> 47
    exponent = exponent_sum - 127 + normalized
    drop = 23 + normalized                  # keep 23 bits below the hidden bit
    kept = raw >> drop
    half = 1 << (drop - 1)
    rest = raw & (2 * half - 1)
    underflow = exponent <= 0
    in_range = (exponent > 0) & (exponent < 255)
    round_up = (rest > half) | ((rest == half) & (kept & 1))
    increment = round_up & in_range & nearest_even
    kept = kept + increment
    carry = kept >> 24                      # rounded up to the next power of two
    exponent = exponent + carry
    overflow = exponent >= 255
    normal = in_range & (exponent < 255)
    field = exponent * normal + 0xFF * overflow
    magnitude = (field << 23) | ((kept >> carry) & _FRAC_MASK) * normal
    return magnitude, increment, overflow, underflow


def _nearest_even(rounding: Rounding) -> bool:
    """Whether ``rounding`` rounds to nearest even; ValueError unless a Rounding."""
    if rounding is Rounding.NEAREST_EVEN:   # the default, settled without isinstance
        return True
    if not isinstance(rounding, Rounding):
        raise ValueError(f"rounding must be a Rounding, got {rounding!r}")
    return False


def _trace(x: int, y: int, ca: int, cb: int, raw: int | None, finished, activity) -> dict:
    """The FpMulTrace fields of one :func:`fp_mul` call, from its checked patterns.

    ``ca`` and ``cb`` are the operand classes. A pair the datapath
    multiplied also has its 48-bit ``raw`` product, the ``finished`` tuple
    of :func:`_finish` and the datapath's ``activity``. A special pair has
    None for all three, and its trace keeps the defaults of the fields not
    returned.
    """
    pa, pb = _parts(x, ca), _parts(y, cb)
    flushed = []
    if ca == 1 and x & _FRAC_MASK:
        flushed.append("a")
    if cb == 1 and y & _FRAC_MASK:
        flushed.append("b")
    if raw is None:
        label = _SPECIALS[4 * ca + cb][0]
        return {"a": pa, "b": pb, "special": label, "flushed_inputs": tuple(flushed)}
    magnitude, increment, overflow, underflow = finished
    return {
        "a": pa,
        "b": pb,
        "significand_a": BitVec(_HIDDEN | pa.fraction.value, 24),
        "significand_b": BitVec(_HIDDEN | pb.fraction.value, 24),
        "raw_product": BitVec(raw, 48),
        "normalized": bool(raw >> 47),
        "exponent_pre_bias": pa.exponent + pb.exponent,
        "exponent_final": magnitude >> 23,
        "rounding_applied": "increment" if increment else "none",
        "flushed_inputs": tuple(flushed),
        "overflow": bool(overflow),
        "underflow": bool(underflow),
        "activity": activity,
    }


# fp_mul's trace: it keeps _trace's inputs and calls it on first read.
_deferred_trace = deferred_record(FpMulTrace, _trace)


def fp_mul(
    a: BitVec | int,
    b: BitVec | int,
    faults: Sequence[FaultSpec] = (),
    repair: Mapping[Quadrant, RepairConfig] | None = None,
    rounding: Rounding = Rounding.NEAREST_EVEN,
) -> tuple[BitVec, FpMulTrace]:
    """Multiply two float32 bit patterns through the block datapath.

    Each operand is a 32-bit BitVec or an int in 0..2**32-1; anything else
    raises ValueError, as do a ``rounding`` that is not a Rounding and
    ``faults`` or ``repair`` that :func:`cifm.multiplier.mul24` rejects,
    whatever the operands' classes. The significands of a finite nonzero
    pair go through the same scalar pass as ``mul24``, with gating on. The
    trace records every stage, and is built when it is first read; for many
    pairs, :func:`fp_mul_batch` gives the same products without traces.
    """
    x = uint_value(a, 32, "a")
    y = uint_value(b, 32, "b")
    nearest_even = _nearest_even(rounding)
    plan = _plan24(faults, repair, True)
    ca, cb = _operand_class(x), _operand_class(y)
    sign = (x ^ y) >> 31
    label, bits, signed = _SPECIALS[4 * ca + cb]
    if label is not None:
        trace = _deferred_trace(x, y, ca, cb, None, None, None)
        return BitVec(bits | (sign << 31) * signed, 32), trace
    sig_a, sig_b = _HIDDEN | x & _FRAC_MASK, _HIDDEN | y & _FRAC_MASK
    raw, activity, _ = _run_scalar(_MUL24, plan, sig_a, sig_b, True)
    finished = _finish((x >> 23 & 0xFF) + (y >> 23 & 0xFF), raw, nearest_even)
    trace = _deferred_trace(x, y, ca, cb, raw, finished, activity)
    return BitVec((sign << 31) | finished[0], 32), trace


def fp_mul_batch(
    a,
    b,
    faults: Sequence[FaultSpec] = (),
    repair: Mapping[Quadrant, RepairConfig] | None = None,
    rounding: Rounding = Rounding.NEAREST_EVEN,
) -> np.ndarray:
    """:func:`fp_mul` over arrays of float32 bit patterns, without traces.

    ``a`` and ``b`` are ints or integer arrays whose shapes broadcast; every
    element must lie in 0..2**32-1. Float, bool and object arrays, elements
    out of range, shapes that do not broadcast and a ``rounding`` that is
    not a Rounding raise ValueError; an empty batch is allowed. Returns the
    int64 result patterns in the broadcast shape. The significands of all
    finite nonzero pairs are multiplied by one
    :func:`cifm.multiplier.mul24_batch` call, with ``faults`` and ``repair``
    passed through.
    """
    import numpy as np

    rows, shape = uint_rows((a, b), (32, 32), "ab".__getitem__)
    nearest_even = _nearest_even(rounding)
    x, y = rows
    sign = (x ^ y) >> 31
    code = 4 * _operand_class(x) + _operand_class(y)
    special_bits, special_signed = np.array([e[1:] for e in _SPECIALS], dtype=np.int64).T
    out = special_bits[code] | (sign << 31) * special_signed[code]
    live = np.flatnonzero(code == 0)
    x, y, sign = x[live], y[live], sign[live]
    raw = mul24_batch(
        _HIDDEN | (x & _FRAC_MASK), _HIDDEN | (y & _FRAC_MASK), faults, repair
    ).products
    exponent_sum = ((x >> 23) & 0xFF) + ((y >> 23) & 0xFF)
    magnitude = _finish(exponent_sum, raw, nearest_even)[0]
    out[live] = (sign << 31) | magnitude
    return out.reshape(shape)
