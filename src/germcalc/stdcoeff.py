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
from .rational import floor_scale


class CoeffCheck(FrozenRecord):
    """One coefficient against one power: membership and both bounds."""

    _fields = ("c", "m", "standard", "hypothesis_ok", "bracket_ok")

    def __init__(self, c: Fraction, m: int, standard: bool, hypothesis_ok: bool,
                 bracket_ok: bool):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "standard", standard)
        object.__setattr__(self, "hypothesis_ok", hypothesis_ok)
        object.__setattr__(self, "bracket_ok", bracket_ok)


def is_standard(c: Fraction) -> bool:
    """True iff c = 1 or c = (k-1)/k for an integer k >= 2."""
    if c == 1:
        return True
    if not 0 < c < 1:
        return False
    r = 1 - c
    return r.numerator == 1 and r.denominator >= 2


def vanishing_hypothesis(c: Fraction, m: int) -> bool:
    """Membership in the standard set extended by [1 - 1/m, 1]."""
    if m < 2:
        raise BadParameters("m must be >= 2")
    if not 0 < c <= 1:
        raise BadParameters(f"coefficient {c} outside (0, 1]")
    return is_standard(c) or c >= 1 - Fraction(1, m)


def bracket_bound_holds(c: Fraction, m: int) -> bool:
    """Exact check of 0 <= floor(m c) - (m - 1) c <= c."""
    if m < 2:
        raise BadParameters("m must be >= 2")
    if not 0 < c <= 1:
        raise BadParameters(f"coefficient {c} outside (0, 1]")
    gap = floor_scale(m, c) - (m - 1) * c
    return 0 <= gap <= c


def coeff_check(c: Fraction, m: int) -> CoeffCheck:
    return CoeffCheck(c, m, is_standard(c), vanishing_hypothesis(c, m),
                      bracket_bound_holds(c, m))

