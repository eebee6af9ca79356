"""Exact rational scalars and their canonical text form.

Every numeric quantity in this package is a ``fractions.Fraction``, or an
integer numerator over an integer denominator; there is no floating
point anywhere. This module holds the canonical ``a/b`` text form used
by the CLI file format, its parser and formatters, and ``as_fraction``,
the one type rule for an exact coefficient argument.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import GermError, LimitExceeded

DIGITS_EXCEEDED = ("a number in the result has more digits than the "
                   "interpreter's integer-to-text conversion limit")

_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rat(text: str) -> Fraction:
    """Parse the canonical form ``a/b``, or ``a`` when the denominator is 1.

    Decimal notation is rejected on purpose: the file format never goes
    through binary floats.
    """
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def format_rat(q: Fraction) -> str:
    """Canonical text form; ``parse_rat`` inverts it exactly.

    Raises LimitExceeded when the numerator or the denominator has more
    digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    try:
        return str(q)
    except ValueError as exc:
        raise LimitExceeded(DIGITS_EXCEEDED) from exc


def format_ratio(num: int, den: int) -> str:
    """``format_rat(Fraction(num, den))`` for den > 0, reduced with one
    gcd and no Fraction. Raises LimitExceeded as format_rat does."""
    g = gcd(num, den)
    try:
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"
    except ValueError as exc:
        raise LimitExceeded(DIGITS_EXCEEDED) from exc


def as_fraction(x, error: type[GermError], what: str) -> Fraction:
    """x, an int or a Fraction, as a Fraction; ``error`` refuses a float, a str or any other type."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise error(f"{what} {x!r} is not an integer or a Fraction")

