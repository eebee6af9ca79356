"""Degree bookkeeping for restriction of pluri-log-canonical forms.

For a plt chain germ the restriction of the invariant generator of the
m-th pluri-log-canonical sheaf to the conductor has pole order governed
by ceil(m * gamma), while the target sheaf twists by floor(m * (1 -
gamma)); the identity m - ceil(m g) = floor(m (1 - g)) makes the
restriction surjective for every m, so the single-branch table is
determined by gamma and each row is written from ceil(m g) alone. With
several fractional branches through one point the floor of the sum can
exceed the sum of floors, and the first m where it does is the
obstruction this module hunts down. The glued computation records how
the single-branch picture degrades when two components meet along their
conductors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._record import FrozenRecord
from .errors import BadParameters, LimitExceeded, NotApplicable
from .germs import CyclicQuotientGerm
from .rational import as_fraction, shown

# Largest m that find_failure_m tries, and most coefficients it takes.
# Together they bound the steps of one search, not its time: each step
# sums one product per coefficient modulo the common denominator, and a
# product costs more the more digits that denominator has.
FAILURE_SEARCH_LIMIT = 100_000
FAILURE_COEFF_LIMIT = 64


class ResidueReport(FrozenRecord):
    """Exponent comparison for one power m. The last two fields are
    computed: the ``deficit`` target - (m - source), the target capacity
    minus the image capacity, must not be negative, and ``surjective``
    is whether it is 0. The refusal checks exponents passed in by hand;
    single_branch_report's always give deficit 0."""

    _fields = ("m", "source_exponent", "target_exponent", "surjective", "deficit")

    def __init__(self, m: int, source_exponent: int, target_exponent: int):
        deficit = target_exponent - (m - source_exponent)
        if deficit < 0:
            raise BadParameters("negative deficit")
        self._set(m=m, source_exponent=source_exponent, target_exponent=target_exponent,
                  surjective=deficit == 0, deficit=deficit)


def restriction_exponents(m: int, p: int, n: int) -> tuple[int, int]:
    """Source exponent ceil(m g) and target exponent floor(m (1 - g)) in
    degree m >= 1, for the slope g = p/n with n >= 1.

    The target is m minus the source: floor(m - x) = m - ceil(x) for
    every rational x, so the two sides always agree.
    """
    _, source, target = _exponent_rows(p, n, (m,))
    return source, target


def _exponent_rows(p: int, n: int, ms) -> list[int]:
    """m, ceil(m p/n) and m minus that for each m of ms, one after
    another in one flat list, the values of a residue table's rows in
    the order they are written. The one copy of the ceiling formula:
    restriction_exponents reads it for a single m."""
    flat = []
    for m in ms:
        source = -((-m * p) // n)
        flat += m, source, m - source
    return flat


def single_branch_report(m: int, germ: CyclicQuotientGerm) -> ResidueReport:
    """Both sides of the restriction in degree m, as a ResidueReport
    whose deficit is 0 by restriction_exponents' identity."""
    if germ.conductor_coeff != 1:
        raise NotApplicable("restriction taken along a branch of coefficient != 1")
    if m < 1:
        raise BadParameters("m must be >= 1")
    gamma = germ.gamma
    source, target = restriction_exponents(m, gamma.numerator, gamma.denominator)
    return ResidueReport(m, source, target)


class ResidueTable(FrozenRecord):
    """single_branch_report's fields for m = 1..m_max at the slope
    p/n in [0, 1], as one value: ``cli._dumps`` writes every row from
    _exponent_rows in one fill of a row template, with deficit 0 and
    surjective true as constants, so no row is built. Any germ of that
    slope gives the same exponents, so none is kept.
    """

    _fields = ("p", "n", "m_max")

    def __init__(self, p: int, n: int, m_max: int):
        if not all(type(x) is int for x in (p, n, m_max)):
            raise BadParameters(f"p = {shown(p, repr)}, n = {shown(n, repr)} and "
                                f"m_max = {shown(m_max, repr)} must be integers")
        if n < 1 or not 0 <= p <= n:
            raise BadParameters(f"slope {shown(p)}/{shown(n)} outside [0, 1]")
        if m_max < 0:
            raise BadParameters(f"m_max = {shown(m_max)} must be >= 0")
        self._set(p=p, n=n, m_max=m_max)


def multibranch_deficit(m: int, coeffs) -> int:
    """floor(m * sum c_i) - sum floor(m * c_i), always >= 0."""
    coeffs = list(coeffs)
    if m < 1:
        raise BadParameters("m must be >= 1")
    if not coeffs:
        raise BadParameters("at least one coefficient required")
    for c in coeffs:
        if not 0 < c < 1:
            raise BadParameters(f"coefficient {shown(c)} outside (0, 1)")
    total = sum(coeffs, Fraction(0))
    return ((m * total.numerator) // total.denominator
            - sum((m * c.numerator) // c.denominator for c in coeffs))


def _certificate(nums: list[int], den: int) -> int:
    """An m with a positive rounding deficit for the coefficients
    c_i = nums[i] / den, den the lcm of their denominators: with
    sum c_i = p/D in lowest terms, D when some D c_i is not an integer
    (exactly when D < den), else p^-1 mod D. find_failure_m proves it."""
    total = sum(nums)
    g = gcd(den, total)
    D, p = den // g, total // g
    return D if D < den else pow(p, -1, D)


def find_failure_m(coeffs) -> int:
    """Least m with a positive rounding deficit.

    With r >= 2 coefficients c_i in (0, 1) a failure always exists. Let
    sum c_i = p/D in lowest terms; the deficit at m is sum {m c_i} minus
    {m p/D}, an integer. If some D c_i is not an integer, m = D fails:
    {D p/D} = 0 and {D c_i} > 0. Otherwise D >= 2, and m = p^-1 mod D
    fails: m is prime to D, so each residue m (D c_i) mod D is nonzero;
    the residues sum to m p = 1 mod D, and there are at least two of
    them, so their sum is at least D + 1, which makes sum {m c_i} > 1.
    That m is the certificate, so the search ends by it, and by m = D,
    with an answer. It never tries more than FAILURE_SEARCH_LIMIT values:
    when no failure turns up below the limit, the certificate lies
    beyond it, and LimitExceeded is raised naming the certificate, as it
    is for more than FAILURE_COEFF_LIMIT coefficients.

    Each step is integer arithmetic: with c_i = a_i / L over the common
    denominator L, the residues m a_i mod L sum to m sum a_i mod L plus
    L times the deficit, so the deficit at m is positive exactly when
    the residues sum to L or more. One plain loop over the a_i sums
    them, whatever the number of coefficients; the terms of each c_i are
    read once, by as_integer_ratio.
    """
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise BadParameters("need at least two branch coefficients")
    terms = []
    for c in coeffs:
        if type(c) is not Fraction:
            # as_fraction returns an exact Fraction as it is
            as_fraction(c, BadParameters, "coefficient")
        p, d = c.as_integer_ratio()
        # the denominator is positive: 0 < c < 1 on the integers
        if not 0 < p < d:
            raise BadParameters(f"coefficient {shown(c)} outside (0, 1)")
        terms.append((p, d))
    if len(coeffs) > FAILURE_COEFF_LIMIT:
        raise LimitExceeded(f"{len(coeffs)} coefficients exceed the limit "
                            f"{FAILURE_COEFF_LIMIT}")
    den = lcm(*(d for _, d in terms))
    nums = [p * (den // d) for p, d in terms]
    bound = den // gcd(den, sum(nums))
    for m in range(1, min(bound, FAILURE_SEARCH_LIMIT) + 1):
        residues = 0
        for a in nums:
            residues += m * a % den
        if residues >= den:
            return m
    raise LimitExceeded(f"no failure up to the search limit {FAILURE_SEARCH_LIMIT}; "
                        f"m = {shown(_certificate(nums, den))} fails")


def glued_restriction_coeff(m: int, n: int, c: Fraction) -> Fraction:
    """Coefficient of the marked point after restricting
    m*(K + D) + floor(m(1-c))*C to the conductor D, in the 1/n(1,1)
    model: m(1 - 1/n) + floor(m(1-c))/n, which is (mn - ceil(mc))/n
    since floor(m - mc) = m - ceil(mc). Its floor is m - ceil(mc/n),
    the residue table's m minus its source exponent at the slope c/n.

    Only the m = 2 value is pinned by the divisor computation; other m
    extrapolate the same intersection numbers and are flagged as such
    by the CLI.
    """
    c = as_fraction(c, BadParameters, "coefficient")
    if type(m) is not int or type(n) is not int:
        raise BadParameters(f"m = {shown(m, repr)} and n = {shown(n, repr)} must be integers")
    if m < 1 or n < 1:
        raise BadParameters("m and n must be >= 1")
    p, d = c.numerator, c.denominator
    if not 0 < p < d:
        raise BadParameters(f"coefficient {shown(c)} outside (0, 1)")
    # m n - ceil(m p / d), with the ceiling as a negated floor division
    return Fraction(m * n + (-m * p) // d, n)
