import json
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_oracle import (fraction_glued_mcartier,
                            fraction_glued_restriction_coeff, fraction_table)
from toric_oracle import image_pole_order, target_exponent, toric_different
from germcalc import cli
from germcalc.errors import (BadParameters, GlueMismatch, LimitExceeded,
                             NotApplicable)
from germcalc.germs import CyclicQuotientGerm, different_coeff
from germcalc.rational import DIGITS_EXCEEDED
from germcalc.residue import (FAILURE_COEFF_LIMIT, FAILURE_SEARCH_LIMIT,
                              ResidueTable, _certificate, find_failure_m,
                              glued_restriction_coeff, multibranch_deficit,
                              restriction_exponents, single_branch_report)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_single_branch_smooth_case():
    rep = single_branch_report(1, CyclicQuotientGerm(1, 1, 1, 0))
    assert (rep.source_exponent, rep.target_exponent) == (1, 0)
    assert rep.surjective


def test_single_branch_order_three():
    rep = single_branch_report(2, CyclicQuotientGerm(3, 1, 1, HALF))
    assert (rep.source_exponent, rep.target_exponent) == (1, 1)
    assert rep.surjective


def test_single_branch_order_two():
    rep = single_branch_report(5, CyclicQuotientGerm(2, 1, 1, HALF))
    assert (rep.source_exponent, rep.target_exponent) == (2, 3)
    assert rep.surjective and rep.deficit == 0


def test_single_branch_needs_conductor():
    with pytest.raises(NotApplicable):
        single_branch_report(1, CyclicQuotientGerm(2, 1, HALF, 0))


@given(st.integers(1, 400), st.integers(1, 8), st.data())
def test_single_branch_always_surjective(m, n, data):
    side = data.draw(st.fractions(min_value=0, max_value=Fraction(11, 12),
                                  max_denominator=12))
    q = data.draw(st.sampled_from(
        [q for q in range(1, n + 1) if (q < n or n == 1) and gcd(n, q) == 1]))
    assert single_branch_report(m, CyclicQuotientGerm(n, q, 1, side)).surjective


SLOPES = st.integers(1, 200).flatmap(
    lambda n: st.integers(0, n).map(lambda p: Fraction(p, n)))


@settings(max_examples=200, deadline=None)
@given(gamma=SLOPES, m_max=st.integers(1, 500))
def test_the_integer_table_matches_the_fraction_oracle(gamma, m_max):
    expected = fraction_table(gamma, m_max)
    germ = CyclicQuotientGerm(1, 1, 1, 1 - gamma)  # slope gamma
    assert [vars(single_branch_report(m, germ)) for m in range(1, m_max + 1)] == expected


@settings(max_examples=200, deadline=None)
@given(gamma=SLOPES, m_max=st.integers(1, 500))
def test_the_written_table_is_the_text_of_the_fraction_oracle(gamma, m_max):
    table = ResidueTable(gamma.numerator, gamma.denominator, m_max)
    rows = fraction_table(gamma, m_max)
    # at the top level and two objects deep, so that the rows are
    # written at two indents
    for wrap in (lambda t: t, lambda t: {"m_max": m_max, "report": {"residue_table": t}}):
        assert cli._dumps(wrap(table)) == json.dumps(wrap(rows), sort_keys=True, indent=2)


@pytest.mark.parametrize("gamma", [Fraction(-1, 3), Fraction(4, 3)])
def test_the_table_refuses_a_slope_outside_the_unit_interval(gamma):
    with pytest.raises(BadParameters, match=f"slope {gamma} outside"):
        ResidueTable(gamma.numerator, gamma.denominator, 3)


@pytest.mark.parametrize("m, coeffs, expected", [
    (6, [HALF, THIRD], 0),
    (5, [HALF, THIRD], 1),
    (7, [HALF], 0),
])
def test_multibranch_deficit_examples(m, coeffs, expected):
    assert multibranch_deficit(m, coeffs) == expected


@given(st.integers(1, 200),
       st.lists(st.fractions(min_value=Fraction(1, 12),
                             max_value=Fraction(11, 12), max_denominator=12),
                min_size=1, max_size=4))
def test_deficit_nonnegative(m, coeffs):
    assert multibranch_deficit(m, coeffs) >= 0


@given(st.integers(1, 500),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                    max_denominator=20))
def test_single_coefficient_deficit_vanishes(m, c):
    assert multibranch_deficit(m, [c]) == 0


@pytest.mark.parametrize("coeffs, expected", [
    ([HALF, HALF], 1),
    ([HALF, THIRD], 5),
    ([Fraction(2, 3)] * 3, 1),
])
def test_find_failure_m_examples(coeffs, expected):
    assert find_failure_m(coeffs) == expected


def test_find_failure_m_is_minimal():
    coeffs = [HALF, THIRD]
    m = find_failure_m(coeffs)
    assert all(multibranch_deficit(k, coeffs) == 0 for k in range(1, m))
    assert multibranch_deficit(m, coeffs) > 0


def failure_certificate(coeffs) -> int:
    """The m that find_failure_m's docstring proves fails: with the sum
    of the coefficients p/D in lowest terms, D itself unless every D c_i
    is an integer, and then the inverse of p modulo D."""
    total = sum(coeffs, Fraction(0))
    d = total.denominator
    if any((d * c).denominator != 1 for c in coeffs):
        return d
    return pow(total.numerator, -1, d)


@given(st.lists(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30),
                             max_denominator=30),
                min_size=2, max_size=4))
def test_the_failure_certificate_fails_and_bounds_the_search(coeffs):
    m = failure_certificate(coeffs)
    assert multibranch_deficit(m, coeffs) > 0
    assert find_failure_m(coeffs) <= m


def test_find_failure_m_rejects_bad_input():
    with pytest.raises(BadParameters):
        find_failure_m([HALF])
    with pytest.raises(BadParameters):
        find_failure_m([HALF, Fraction(3, 2)])
    with pytest.raises(BadParameters):
        multibranch_deficit(0, [HALF])


def test_find_failure_m_answers_early_past_a_huge_bound():
    # the sum's denominator is about 2e9, but m = 1 already fails
    coeffs = [HALF, Fraction(1_000_000_006, 1_000_000_007)]
    assert sum(coeffs).denominator > FAILURE_SEARCH_LIMIT
    assert find_failure_m(coeffs) == 1


def test_find_failure_m_scans_up_to_the_limit():
    # 1/p + 1/q with p, q coprime and below the failure: the first
    # failure is the least m with m (p + q) >= p q, deep in the scan
    p, q = 100_000, 100_001
    coeffs = [Fraction(1, p), Fraction(1, q)]
    expected = -(-p * q // (p + q))
    assert expected <= FAILURE_SEARCH_LIMIT < sum(coeffs).denominator
    assert find_failure_m(coeffs) == expected


def test_find_failure_m_raises_past_the_limit():
    # the sum is 2000000016 / D over D = 1000000007 * 1000000009, and
    # every D c_i is an integer, so the certificate is 2000000016^-1 mod D
    coeffs = [Fraction(1, 1_000_000_007), Fraction(1, 1_000_000_009)]
    with pytest.raises(LimitExceeded) as info:
        find_failure_m(coeffs)
    assert str(info.value) == ("no failure up to the search limit 100000; "
                               "m = 500000004 fails")
    assert multibranch_deficit(500_000_004, coeffs) > 0


@settings(max_examples=400, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=1 - Fraction(1, 10**6),
                             max_denominator=10**6),
                min_size=2, max_size=5))
def test_the_certificate_has_a_positive_deficit(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    certificate = _certificate([c.numerator * (den // c.denominator) for c in coeffs], den)
    assert 1 <= certificate <= sum(coeffs).denominator
    assert multibranch_deficit(certificate, coeffs) > 0
    if certificate <= FAILURE_SEARCH_LIMIT:
        assert find_failure_m(coeffs) <= certificate


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60),
                             max_denominator=60),
                min_size=2, max_size=5))
def test_the_integer_scan_finds_the_first_positive_deficit(coeffs):
    # the search over a common denominator against the Fraction floors
    m = 1
    while multibranch_deficit(m, coeffs) == 0:
        m += 1
    assert find_failure_m(coeffs) == m


def test_a_certificate_past_the_digit_limit_is_not_printed():
    # three denominators of 2901 digits: the certificate, the denominator
    # of the sum, has about 8700 digits, more than int-to-text converts
    coeffs = [Fraction(1, 10**2900 + k) for k in (1, 3, 7)]
    with pytest.raises(LimitExceeded) as info:
        find_failure_m(coeffs)
    assert str(info.value) == ("no failure up to the search limit 100000; the "
                               f"failing m is too long to print: {DIGITS_EXCEEDED}")


def test_find_failure_m_refuses_more_coefficients_than_the_limit():
    coeffs = [Fraction(1, 1_000_000_007)] * FAILURE_COEFF_LIMIT
    with pytest.raises(LimitExceeded, match="search limit"):
        find_failure_m(coeffs)  # a full scan of the search limit
    with pytest.raises(LimitExceeded, match=f"limit {FAILURE_COEFF_LIMIT}$"):
        find_failure_m(coeffs + [HALF])
    # a coefficient out of range is still reported as such
    with pytest.raises(BadParameters):
        find_failure_m([HALF] * FAILURE_COEFF_LIMIT + [Fraction(3, 2)])


@pytest.mark.parametrize("m, n, c, expected", [
    (2, 2, Fraction(1, 4), Fraction(3, 2)),
    (2, 4, Fraction(1, 4), Fraction(7, 4)),
    (1, 1, HALF, Fraction(0)),
])
def test_glued_restriction_coeff_examples(m, n, c, expected):
    assert glued_restriction_coeff(m, n, c) == expected


def test_glued_restriction_two_is_two_minus_one_over_n():
    for n in range(1, 13):
        for c in (Fraction(1, 5), Fraction(1, 3), Fraction(5, 11)):
            assert glued_restriction_coeff(2, n, c) == 2 - Fraction(1, n)


def test_glued_restriction_rejects_bad_coefficient():
    with pytest.raises(BadParameters):
        glued_restriction_coeff(2, 3, Fraction(0))
    with pytest.raises(BadParameters):
        glued_restriction_coeff(2, 3, Fraction(1))


def germ_1n1(n, c):
    return CyclicQuotientGerm(n, 1, 1, 1 - c)


def glued_text(*germs):
    """The glued file of the germs, each with conductor 1."""
    return json.dumps({"kind": "glued", "components": [
        {"n": g.n, "q": g.q, "side": str(g.side_coeff)} for g in germs]})


@pytest.mark.parametrize("germs, coefficients, equal", [
    # identical germs
    ((germ_1n1(2, Fraction(1, 4)), germ_1n1(2, Fraction(1, 4))), ["3/2", "3/2"], True),
    # matched slope 1/8, distinct orders 2 and 4
    ((germ_1n1(2, Fraction(1, 4)), germ_1n1(4, HALF)), ["3/2", "7/4"], False),
    # unmatched slopes 1/8 and 1/32: the pair does not glue
    ((germ_1n1(2, Fraction(1, 4)), germ_1n1(4, Fraction(1, 8))), None, None),
    # q = 2 on both sides, outside the 1/n(1,1) model
    ((CyclicQuotientGerm(5, 2, 1, HALF),) * 2, None, None),
    # side 0 on both sides, so c = 1 lies outside (0, 1)
    ((germ_1n1(2, Fraction(1)),) * 2, None, None),
], ids=["identical_germs", "distinct_orders", "unmatched_slopes", "q_not_1", "side_0"])
def test_the_glue_restriction_examples(tmp_path, capsys, germs, coefficients, equal):
    path = tmp_path / "glued.json"
    path.write_text(glued_text(*germs), encoding="utf-8")
    assert cli.main(["glue", "--m", "2", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    if coefficients is None:
        assert out["restriction"] is None
        assert "restriction-unavailable" in out["flags"]
    else:
        assert out["restriction"] == {"m": 2, "coefficients": coefficients, "equal": equal}
        assert "restriction-unavailable" not in out["flags"]


def test_the_glue_restriction_is_equal_iff_the_orders_are_on_a_small_grid():
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            gamma = Fraction(1, 2 * max(n1, n2) + 1)
            g1, g2 = germ_1n1(n1, n1 * gamma), germ_1n1(n2, n2 * gamma)
            out = cli._cmd_glue(cli.parse_germ_file(glued_text(g1, g2)), 2)
            assert out["restriction"]["equal"] == (n1 == n2)


def weights(n):
    """Every q of a cyclic quotient germ of order n."""
    return [q for q in range(1, n + 1) if (q < n or n == 1) and gcd(n, q) == 1]


TORIC_SIDES = sorted({Fraction(a, b) for b in range(1, 6) for a in range(b + 1)})


def test_the_toric_scan_is_the_restriction_side():
    # every q for n <= 10, sides a/b with b <= 5, degrees m <= 16
    for n in range(1, 11):
        for q in weights(n):
            for s in TORIC_SIDES:
                germ = CyclicQuotientGerm(n, q, 1, s)
                p, d = germ.gamma.numerator, germ.gamma.denominator
                assert different_coeff(germ) == toric_different(n, s)
                for m in range(1, 17):
                    pole = image_pole_order(m, n, q, s)
                    source, target, deficit = restriction_exponents(m, p, d)
                    assert pole == m - source
                    assert target == target_exponent(m, n, s)
                    assert target == floor(m * different_coeff(germ))
                    assert (pole == target) == (deficit == 0)
                    if 0 < s < 1:
                        assert pole == floor(glued_restriction_coeff(m, n, 1 - s))


def outcome(f, *args):
    """f's value, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


COEFFS = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2),
                      max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(-1, 80), n=st.integers(0, 40), c=COEFFS)
def test_the_glue_coefficient_is_the_fraction_formula(m, n, c):
    assert (outcome(glued_restriction_coeff, m, n, c)
            == outcome(fraction_glued_restriction_coeff, m, n, c))


def oracle_restriction(m, g1, g2):
    """The restriction glue prints for the pair, and whether it flags
    it unavailable, from the Fraction formulas."""
    try:
        equal = fraction_glued_mcartier(m, g1, g2)
    except (GlueMismatch, BadParameters):
        return None, True
    coeffs = [str(fraction_glued_restriction_coeff(m, g.n, 1 - g.side_coeff))
              for g in (g1, g2)]
    return {"m": m, "coefficients": coeffs, "equal": equal}, False


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 80), n1=st.integers(1, 30), n2=st.integers(1, 30),
       gamma=st.fractions(min_value=0, max_value=Fraction(1, 30), max_denominator=60),
       q2=st.sampled_from([1, 1, 1, 2]), skew=st.sampled_from([0, 0, 0, Fraction(1, 61)]))
def test_the_glue_restriction_is_the_fraction_formula(m, n1, n2, gamma, q2, skew):
    # matched slopes gamma, mostly; a skew unmatches them, and q2 = 2
    # leaves the 1/n(1,1) model where n2 allows it
    g1 = CyclicQuotientGerm(n1, 1, 1, 1 - n1 * gamma)
    q2 = q2 if n2 > 2 and gcd(n2, q2) == 1 else 1
    side2 = 1 - n2 * gamma
    g2 = CyclicQuotientGerm(n2, q2, 1, side2 + skew if side2 + skew <= 1 else side2 - skew)
    out = cli._cmd_glue(cli.parse_germ_file(glued_text(g1, g2)), m)
    assert ((out["restriction"], "restriction-unavailable" in out["flags"])
            == oracle_restriction(m, g1, g2))
