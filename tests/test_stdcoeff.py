from fractions import Fraction

import pytest
from coeff_oracle import (fraction_bracket_bound_holds, fraction_is_standard,
                          fraction_vanishing_hypothesis)
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc.cli import GermFile
from germcalc.dualgraph import ResolutionGraph, boundary_coefficients
from germcalc.errors import BadParameters
from germcalc.germs import CyclicQuotientGerm, classify_lc_germ, resolution_graph
from germcalc.rational import parse_rat
from germcalc.stdcoeff import (bracket_bound_holds, coeff_check, is_standard,
                               vanishing_hypothesis)

HALF = Fraction(1, 2)


@pytest.mark.parametrize("c, expected", [
    (HALF, True),
    (Fraction(1), True),
    (Fraction(3, 5), False),
    (Fraction(2, 3), True),
    (Fraction(99, 100), True),
    (Fraction(97, 100), False),
    (Fraction(0), False),
    (Fraction(-1, 2), False),
    (Fraction(7, 5), False),
])
def test_is_standard_examples(c, expected):
    assert is_standard(c) is expected


def test_is_standard_against_denominator_enumeration():
    listed = {Fraction(k - 1, k) for k in range(2, 101)} | {Fraction(1)}
    for q in range(1, 101):
        for p in range(1, q + 1):
            c = Fraction(p, q)
            assert is_standard(c) == (c in listed)


@pytest.mark.parametrize("c, m, expected", [
    (Fraction(3, 5), 2, True),    # 3/5 >= 1 - 1/2
    (Fraction(3, 5), 4, False),   # 3/5 < 3/4 and not standard
    (Fraction(1), 7, True),
])
def test_vanishing_hypothesis_examples(c, m, expected):
    assert vanishing_hypothesis(c, m) is expected


def test_vanishing_hypothesis_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        vanishing_hypothesis(HALF, 1)
    with pytest.raises(BadParameters):
        vanishing_hypothesis(Fraction(0), 2)


@pytest.mark.parametrize("c, m, expected", [
    (HALF, 2, True),
    (Fraction(2, 3), 4, True),
    (Fraction(3, 5), 4, True),
    (Fraction(1, 3), 2, False),
])
def test_bracket_bound_examples(c, m, expected):
    assert bracket_bound_holds(c, m) is expected


@given(st.integers(2, 60), st.integers(2, 60))
def test_standard_coefficients_pass_both_checks(k, m):
    c = Fraction(k - 1, k)
    assert vanishing_hypothesis(c, m)
    assert bracket_bound_holds(c, m)


@given(st.integers(2, 24), st.data())
def test_near_one_interval_passes_bracket_bound(m, data):
    c = data.draw(st.fractions(min_value=1 - Fraction(1, m), max_value=1,
                               max_denominator=48))
    assert bracket_bound_holds(c, m)


def test_bracket_bound_counterexample_found_by_search():
    found = None
    for m in range(2, 9):
        for den in range(2, 13):
            for num in range(1, den):
                c = Fraction(num, den)
                if vanishing_hypothesis(c, m):
                    continue
                if not bracket_bound_holds(c, m):
                    found = (c, m)
                    break
            if found:
                break
        if found:
            break
    assert found == (Fraction(1, 3), 2)


def test_coeff_check_record():
    rec = coeff_check(Fraction(3, 5), 4)
    assert (rec.standard, rec.hypothesis_ok, rec.bracket_ok) == (False, False, True)


def outcome(f, *args):
    """f's value with its type, or the type and text of what it raises."""
    try:
        value = f(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", type(value), value


CHECKS = [(vanishing_hypothesis, fraction_vanishing_hypothesis),
          (bracket_bound_holds, fraction_bracket_bound_holds)]


def test_the_integer_checks_are_the_fraction_checks_on_every_small_coefficient():
    # every c = p/q with q <= 60 and p in -1..q+1, against every m in 0..40
    for q in range(1, 61):
        for p in range(-1, q + 2):
            c = Fraction(p, q)
            assert outcome(is_standard, c) == outcome(fraction_is_standard, c)
            for m in range(41):
                for check, reference in CHECKS:
                    assert outcome(check, c, m) == outcome(reference, c, m), (c, m)


@st.composite
def big_coefficients(draw):
    """(c, m) with m up to 10^30 and c = a/k for k of 1 to 60 digits:
    either a anywhere in -k..2k, or c within two steps of 1/(m k) of
    1 - 1/m, where the hypothesis test turns."""
    m = draw(st.integers(0, 10**30))
    k = draw(st.integers(1, 10**60 - 1))
    if draw(st.booleans()):
        return Fraction(draw(st.integers(-k, 2 * k)), k), m
    return Fraction((m - 1) * k + draw(st.integers(-2, 2)), max(m, 1) * k), m


@settings(max_examples=500, deadline=None)
@given(big_coefficients())
def test_the_integer_checks_are_the_fraction_checks_on_big_numbers(case):
    c, m = case
    assert outcome(is_standard, c) == outcome(fraction_is_standard, c)
    for check, reference in CHECKS:
        assert outcome(check, c, m) == outcome(reference, c, m)


def plt_modification(n, d):
    """(extracted_discrepancy, extracted_coeff) of the order-n plt chain
    with boundary drop d, read from the report's modification fields."""
    germ = CyclicQuotientGerm(n, 1, 1, 1 - Fraction(d))
    mod = GermFile("cyclic_quotient", germ=germ).modification
    return parse_rat(mod["extracted_discrepancy"]), parse_rat(mod["extracted_coeff"])


@pytest.mark.parametrize("n, d, expected", [
    (1, Fraction(1), (Fraction(0), Fraction(0))),
    (2, HALF, (Fraction(-3, 4), Fraction(3, 4))),
    (4, Fraction(1), (Fraction(-3, 4), Fraction(3, 4))),
])
def test_plt_modification_examples(n, d, expected):
    assert plt_modification(n, d) == expected


@given(st.integers(1, 30), st.fractions(min_value=Fraction(1, 12), max_value=1,
                                        max_denominator=12))
def test_plt_modification_outputs_sum_to_zero(n, d):
    disc, coeff = plt_modification(n, d)
    assert disc + coeff == 0


@pytest.mark.parametrize("n, d", [(2, HALF), (3, Fraction(2, 3)), (5, Fraction(1)),
                                  (7, Fraction(3, 4))])
def test_plt_modification_matches_solver_and_taxonomy(n, d):
    disc, coeff = plt_modification(n, d)
    # the order-n single-curve germ with boundary drop d
    branches = [(0, 1)] + ([(0, 1 - d)] if d != 1 else [])
    g = ResolutionGraph.chain([n], branches)
    (b,) = boundary_coefficients(g)
    assert disc == -b
    germ = CyclicQuotientGerm(n, 1, 1, 1 - d)
    gamma = classify_lc_germ(resolution_graph(germ)).gamma
    assert coeff == 1 - gamma
