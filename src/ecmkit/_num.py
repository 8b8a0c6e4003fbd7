"""Exact-rational helpers; model arithmetic stays in Fractions until display."""

from __future__ import annotations

from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce a number to a Fraction, reading floats by their decimal repr.

    Fraction(str(2.3)) is 23/10 rather than the binary expansion of the
    double. Machine and kernel files carry decimal values, so this keeps
    every derived quantity exact until it is formatted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not a number: {value!r}")
