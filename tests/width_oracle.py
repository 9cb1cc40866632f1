"""Scalar width classifier: the tests' oracle for the datapath's width checkers.

The library gates blocks with its own rule, which lives only where the
power-pattern table is made (``multiplier._tables``); this independent
statement of the paper's width classes checks it.
"""

from typing import Sequence

import numpy as np

from cifm.bitcore import BitVec

INNER_CLASSES = (4, 8, 12)
OUTER_CLASSES = (12, 24)


def classify_width(x: BitVec, classes: Sequence[int]) -> int:
    """Smallest class c in ``classes`` with x < 2**c.

    ``classes`` must be ascending. A value of zero classifies as the
    smallest class; values between class boundaries round up. Values at or
    above the largest class are out of range. Raises ValueError unless ``x``
    is a BitVec and ``classes`` a non-empty sequence of ints (bools are not
    ints), and for a value out of range.
    """
    if not isinstance(x, BitVec):
        raise ValueError(f"x must be a BitVec, got {type(x).__name__}")
    try:
        classes = tuple(classes)
    except TypeError:
        raise ValueError(
            f"classes must be a sequence of ints, got {type(classes).__name__}"
        ) from None
    if not classes:
        raise ValueError("classes must be non-empty")
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in classes):
        raise ValueError(f"classes must hold ints, got {classes!r}")
    if list(classes) != sorted(set(classes)):
        raise ValueError(f"classes must be strictly ascending, got {classes!r}")
    for c in classes:
        if x.value < (1 << c):
            return c
    raise ValueError(
        f"value {x.value:#x} exceeds the largest width class {classes[-1]}"
    )
