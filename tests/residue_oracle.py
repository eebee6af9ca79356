"""The residue table and the glued restriction in Fraction arithmetic,
the reference for the integer kernel of ``germcalc.residue``.

Each row takes ceil(m g) from ``ceil_scale`` here and floor(m (1 - g))
from ``math.floor`` of the Fraction product, both exact and neither from
``germcalc.rational``, and checks the table's invariants as it goes:
the slope lies in [0, 1], the deficit is not negative, and the
restriction is surjective exactly when the deficit vanishes. The
glued restriction coefficient is the Fraction formula that
``glued_restriction_coeff`` replaced by its integer form, and the
comparison of its two sides is the one ``glue`` prints as ``equal``,
with the refusals that leave it unavailable.
"""

from fractions import Fraction
from math import floor

from germcalc.errors import BadParameters, GlueMismatch
from germcalc.germs import check_slc_glue


def ceil_scale(m: int, q) -> int:
    """Return the smallest integer >= m*q."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return -((-m * q.numerator) // q.denominator)


def fraction_table(gamma, m_max: int) -> list[dict]:
    """Rows m = 1..m_max at the slope gamma, keyed as the CLI prints them."""
    assert 0 <= gamma <= 1
    rows = []
    for m in range(1, m_max + 1):
        source = ceil_scale(m, gamma)
        target = floor(m * (1 - gamma))
        deficit = target - (m - source)
        surjective = deficit == 0
        assert deficit >= 0 and surjective == (m - source == target)
        rows.append({"m": m, "source_exponent": source, "target_exponent": target,
                     "surjective": surjective, "deficit": deficit})
    return rows


def fraction_glued_restriction_coeff(m: int, n: int, c) -> Fraction:
    """m(1 - 1/n) + floor(m(1 - c))/n in Fraction arithmetic, with the
    checks of germcalc.residue.glued_restriction_coeff."""
    if m < 1 or n < 1:
        raise BadParameters("m and n must be >= 1")
    c = Fraction(c)
    if not 0 < c < 1:
        raise BadParameters(f"coefficient {c} outside (0, 1)")
    return m * Fraction(n - 1, n) + Fraction(floor(m * (1 - c)), n)


def fraction_glued_mcartier(m: int, g1, g2) -> bool:
    """Whether the two sides' Fraction glued restriction coefficients
    agree. GlueMismatch refuses a pair outside the 1/n(1,1) model or
    with unequal slopes, and BadParameters a side of 0 or 1: the pairs
    that ``glue`` flags restriction-unavailable."""
    for g in (g1, g2):
        if g.q != 1:
            raise GlueMismatch("restriction formula needs the 1/n(1,1) model (q = 1)")
    if not check_slc_glue(g1, g2):
        raise GlueMismatch("differents disagree, the pair does not glue")
    return (fraction_glued_restriction_coeff(m, g1.n, 1 - g1.side_coeff)
            == fraction_glued_restriction_coeff(m, g2.n, 1 - g2.side_coeff))
