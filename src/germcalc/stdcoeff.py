"""Standard-coefficient arithmetic.

The standard set is {(k-1)/k : k >= 2} together with 1. For a fixed
power m >= 2 the working hypothesis admits, besides the standard set,
any coefficient in [1 - 1/m, 1]; under it the bracket bound

    0 <= floor(m c) - (m - 1) c <= c

holds, which is what lets the rounded multiple be rewritten as a
boundary at most the original one. Since floor(m c) - (m - 1) c is
c - {m c}, the bound says {m c} <= c, and the hypothesis is sharp:

* the bound holds for every m >= 2 exactly when c is standard;
* for any other c it first fails at m = floor(1/(1 - c)) + 1, the
  first m with c < 1 - 1/m, where the hypothesis first fails;
* at m = 2 it holds exactly when c >= 1/2.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import FrozenRecord
from .errors import BadParameters
from .rational import as_fraction, shown


class CoeffCheck(FrozenRecord):
    """One coefficient against one power: membership and both bounds,
    computed on the terms of c = a/b in lowest terms. c is stored as a
    Fraction, an int c too.

    Refuses a c that is not an int or a Fraction, an m that is not an
    int, m < 2 and then c outside (0, 1]: b > 0, so 0 < c <= 1 is
    0 < a <= b. Then 1 - c = (b - a)/b is in lowest terms too, so c is
    standard iff a = b or 0 < a = b - 1; the hypothesis c >= 1 - 1/m is
    a m >= b (m - 1); and the bracket bound {m c} <= c, scaled by b, is
    m a mod b <= a.
    """

    _fields = ("c", "m", "standard", "hypothesis_ok", "bracket_ok")

    def __init__(self, c: Fraction, m: int):
        q = as_fraction(c, BadParameters, "coefficient")
        if type(m) is not int:
            raise BadParameters(f"m = {shown(m, repr)} is not an integer")
        if m < 2:
            raise BadParameters("m must be >= 2")
        a, b = q.numerator, q.denominator
        if not 0 < a <= b:
            raise BadParameters(f"coefficient {shown(q)} outside (0, 1]")
        standard = a == b or 0 < a == b - 1
        self._set(c=q, m=m, standard=standard,
                  hypothesis_ok=standard or a * m >= b * (m - 1), bracket_ok=m * a % b <= a)


def coeff_check(c: Fraction, m: int) -> CoeffCheck:
    """CoeffCheck(c, m): the three checks of c against m."""
    return CoeffCheck(c, m)
