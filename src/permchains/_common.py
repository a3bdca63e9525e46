"""Shared numeric helpers and size caps."""
from __future__ import annotations

import math
from fractions import Fraction

# a bias table or league tree fills one entry per ordered label pair
LABEL_CAP = 1_000
# the slow-mixing bias enumerates all C(2n, n) walks of half size n; this is
# n = 12, whose 2,704,156 walks take seconds and about 0.5 GB
WALK_CAP = math.comb(24, 12)


class CapExceeded(ValueError):
    """A size larger than the configured materialization cap."""


def check_label_count(n: int) -> None:
    """Refuse more labels than ``LABEL_CAP``, before any per-pair entry is made."""
    if n > LABEL_CAP:
        raise CapExceeded(f"{n} labels exceed the label cap {LABEL_CAP}")


def check_walk_count(n: int) -> None:
    """Refuse more walks of half size n than ``WALK_CAP``, before any is made."""
    count = math.comb(2 * n, n)
    if count > WALK_CAP:
        raise CapExceeded(f"{count} walks at n={n} exceed the walk cap {WALK_CAP}")


def as_probability(value) -> Fraction:
    """Coerce a probability given as Fraction, int, str, or float to Fraction.

    Floats go through their decimal repr, so 0.7 means exactly 7/10.  All
    internal probability arithmetic is exact; floats appear only at the
    numpy/CSV boundary.
    """
    if isinstance(value, Fraction):
        p = value
    elif isinstance(value, int):
        p = Fraction(value)
    elif isinstance(value, float):
        p = Fraction(str(value))
    elif isinstance(value, str):
        p = Fraction(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a probability")
    if not 0 <= p <= 1:
        raise ValueError(f"probability out of [0, 1]: {value!r}")
    return p
