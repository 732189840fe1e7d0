"""Exact rational parsing and formatting.

All timestamps and constraint bounds are `fractions.Fraction`; comparisons
must never go through floats.
"""

from __future__ import annotations

import re
from fractions import Fraction

# An optional sign, then an integer, a decimal or p/q in ASCII digits.  No
# exponent: Fraction would expand "1e999999999" into a 10^e integer.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def parse_rational(text: str) -> Fraction:
    """Parse an integer ("2"), decimal ("0.6") or slash ("3/5") rational
    literal with an optional sign."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as an integer, exact decimal, or p/q string."""
    if value.denominator == 1:
        return str(value.numerator)
    # Prefer a finite decimal when the denominator is of the form 2^a 5^b.
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        scale = 10 ** max(twos, fives)
        digits = abs(value.numerator) * (scale // value.denominator)
        whole, frac = divmod(digits, scale)
        sign = "-" if value < 0 else ""
        return f"{sign}{whole}.{str(frac).rjust(len(str(scale)) - 1, '0')}"
    return f"{value.numerator}/{value.denominator}"
