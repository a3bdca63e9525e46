"""Shared numeric helpers and size caps."""
from __future__ import annotations

from fractions import Fraction

# a bias table or league tree fills one entry per ordered label pair
LABEL_CAP = 1_000


class CapExceeded(ValueError):
    """A size larger than the configured materialization cap."""


def check_label_count(n: int) -> None:
    """Refuse more labels than ``LABEL_CAP``, before any per-pair entry is made."""
    if n > LABEL_CAP:
        raise CapExceeded(f"{n} labels exceed the label cap {LABEL_CAP}")


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
