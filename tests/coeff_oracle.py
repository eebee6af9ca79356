"""The coefficient checks in Fraction arithmetic, the reference for the
integer checks of ``germcalc.stdcoeff.coeff_check`` and of the records'
ranges.

The three predicates are the standard, hypothesis and bracket fields of
``coeff_check`` as Fraction comparisons. The floor of m c is
``math.floor`` of the Fraction product, which is exact, so nothing here
comes from ``germcalc.rational``. The record checks are the range
checks of ``BoundaryBranch``, ``CyclicQuotientGerm`` and ``GermClass``
as they were: every coefficient wrapped in ``Fraction`` and compared
with 0 and 1, after the records' one type rule: a coefficient that is
neither an int nor a Fraction (a float, a str) is refused first. Each
returns the checked values, or raises what the record raises.
"""

from fractions import Fraction
from math import floor, gcd

from germcalc.errors import BadParameters, ValidationError
from germcalc.germs import LC_CENTER_TAGS, GermTag


def fraction_is_standard(c) -> bool:
    """True iff c = 1 or c = (k-1)/k for an integer k >= 2."""
    if c == 1:
        return True
    if not 0 < c < 1:
        return False
    r = 1 - c
    return r.numerator == 1 and r.denominator >= 2


def fraction_vanishing_hypothesis(c, m: int) -> bool:
    """Membership in the standard set extended by [1 - 1/m, 1]."""
    if m < 2:
        raise BadParameters("m must be >= 2")
    if not 0 < c <= 1:
        raise BadParameters(f"coefficient {c} outside (0, 1]")
    return fraction_is_standard(c) or c >= 1 - Fraction(1, m)


def fraction_bracket_bound_holds(c, m: int) -> bool:
    """0 <= floor(m c) - (m - 1) c <= c, compared as Fractions."""
    if m < 2:
        raise BadParameters("m must be >= 2")
    if not 0 < c <= 1:
        raise BadParameters(f"coefficient {c} outside (0, 1]")
    gap = floor(m * c) - (m - 1) * c
    return 0 <= gap <= c


def _exact(x, error, what) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise error(f"{what} {x!r} is not an integer or a Fraction")
    return Fraction(x)


def fraction_branch_coeff(coeff) -> Fraction:
    """BoundaryBranch's coefficient, or its ValidationError."""
    coeff = _exact(coeff, ValidationError, "branch coefficient")
    if not 0 < coeff <= 1:
        raise ValidationError(f"branch coefficient {coeff} outside (0, 1]")
    return coeff


def fraction_quotient_coeffs(n: int, q: int, conductor_coeff, side_coeff):
    """CyclicQuotientGerm's (conductor_coeff, side_coeff), or its
    BadParameters, checked in the constructor's order."""
    conductor_coeff = _exact(conductor_coeff, BadParameters, "conductor coefficient")
    side_coeff = _exact(side_coeff, BadParameters, "side coefficient")
    if n < 1:
        raise BadParameters(f"order n = {n} must be >= 1")
    if not 1 <= q <= n:
        raise BadParameters(f"weight q = {q} outside [1, {n}]")
    if gcd(n, q) != 1:
        raise BadParameters(f"gcd({n}, {q}) != 1")
    if not 0 < conductor_coeff <= 1:
        raise BadParameters(f"conductor coefficient {conductor_coeff} outside (0, 1]")
    if not 0 <= side_coeff <= 1:
        raise BadParameters(f"side coefficient {side_coeff} outside [0, 1]")
    return conductor_coeff, side_coeff


def fraction_class_gamma(tag: GermTag, cartier_index: int, gamma):
    """GermClass's gamma, kept as given, or its BadParameters."""
    if tag is GermTag.PLT_CHAIN:
        if gamma is None or not 0 < gamma <= 1:
            raise BadParameters("plt chain requires gamma in (0, 1]")
    if tag in LC_CENTER_TAGS and 2 % cartier_index != 0:
        raise BadParameters(
            f"lc-center germ with Cartier index {cartier_index} not dividing 2")
    return gamma
