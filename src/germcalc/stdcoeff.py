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


def coeff_check(c: Fraction, m: int) -> CoeffCheck:
    """The three checks on the terms of c = a/b in lowest terms.

    Refuses a c that is not an int or a Fraction, an m that is not an
    int, m < 2 and then c outside (0, 1]: b > 0, so 0 < c <= 1 is
    0 < a <= b. Then 1 - c = (b - a)/b is in lowest terms too, so c is
    standard iff a = b or 0 < a = b - 1; the hypothesis c >= 1 - 1/m is
    a m >= b (m - 1); and the bracket bound, scaled by b, is
    0 <= floor(m a / b) b - (m - 1) a <= a.
    """
    q = as_fraction(c, BadParameters, "coefficient")
    if not isinstance(m, int):
        raise BadParameters(f"m = {m!r} is not an integer")
    if m < 2:
        raise BadParameters("m must be >= 2")
    a, b = q.numerator, q.denominator
    if not 0 < a <= b:
        raise BadParameters(f"coefficient {q} outside (0, 1]")
    standard = a == b or 0 < a == b - 1
    return CoeffCheck(c, m, standard, standard or a * m >= b * (m - 1),
                      0 <= (m * a // b) * b - (m - 1) * a <= a)
