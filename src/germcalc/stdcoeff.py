"""Standard-coefficient arithmetic.

The standard set is {(k-1)/k : k >= 2} together with 1. For a fixed
power m >= 2 the working hypothesis admits, besides the standard set,
any coefficient in [1 - 1/m, 1]; under it the bracket bound

    0 <= floor(m c) - (m - 1) c <= c

holds, which is what lets the rounded multiple be rewritten as a
boundary at most the original one. Outside the hypothesis the bound can
fail, and the test suite pins a failing pair found by search.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import FrozenRecord
from .errors import BadParameters
from .rational import as_fraction


class CoeffCheck(FrozenRecord):
    """One coefficient against one power: membership and both bounds."""

    _fields = ("c", "m", "standard", "hypothesis_ok", "bracket_ok")

    def __init__(self, c: Fraction, m: int, standard: bool, hypothesis_ok: bool,
                 bracket_ok: bool):
        self._set(c, m, standard, hypothesis_ok, bracket_ok)


def is_standard(c: Fraction) -> bool:
    """True iff c = 1 or c = (k-1)/k for an integer k >= 2.

    With c = a/b in lowest terms, 1 - c = (b - a)/b is in lowest terms
    too, so the test is a = b, or 0 < a = b - 1.
    """
    c = as_fraction(c, BadParameters, "coefficient")
    return _standard(c.numerator, c.denominator)


def _standard(a: int, b: int) -> bool:
    return a == b or 0 < a == b - 1


def _terms(c: Fraction, m: int) -> tuple[int, int]:
    """(a, b) with c = a/b in lowest terms, after refusing a c that is
    not an int or a Fraction, an m that is not an int, m < 2 and then c
    outside (0, 1]: b > 0, so 0 < c <= 1 is 0 < a <= b."""
    c = as_fraction(c, BadParameters, "coefficient")
    if not isinstance(m, int):
        raise BadParameters(f"m = {m!r} is not an integer")
    if m < 2:
        raise BadParameters("m must be >= 2")
    a, b = c.numerator, c.denominator
    if not 0 < a <= b:
        raise BadParameters(f"coefficient {c} outside (0, 1]")
    return a, b


def vanishing_hypothesis(c: Fraction, m: int) -> bool:
    """Membership in the standard set extended by [1 - 1/m, 1]: for
    c = a/b, c >= 1 - 1/m is a m >= b (m - 1)."""
    return _hypothesis(*_terms(c, m), m)


def _hypothesis(a: int, b: int, m: int) -> bool:
    return _standard(a, b) or a * m >= b * (m - 1)


def bracket_bound_holds(c: Fraction, m: int) -> bool:
    """Exact check of 0 <= floor(m c) - (m - 1) c <= c, scaled by the
    denominator b of c = a/b: 0 <= floor(m a / b) b - (m - 1) a <= a."""
    return _bracket(*_terms(c, m), m)


def _bracket(a: int, b: int, m: int) -> bool:
    return 0 <= (m * a // b) * b - (m - 1) * a <= a


def coeff_check(c: Fraction, m: int) -> CoeffCheck:
    """The three checks on the terms of c, read once."""
    a, b = _terms(c, m)
    return CoeffCheck(c, m, _standard(a, b), _hypothesis(a, b, m), _bracket(a, b, m))
