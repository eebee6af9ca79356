import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germcalc.errors import LimitExceeded
from germcalc.rational import floor_scale, format_rat, format_ratio, parse_rat
from residue_oracle import ceil_scale


def floor_oracle(m, q):
    # brute force the defining inequality k <= m*q < k+1
    prod = m * q
    k = prod.numerator // prod.denominator - 2
    while not (k <= prod < k + 1):
        k += 1
    return k


@pytest.mark.parametrize("m, q, expected", [
    (2, Fraction(1, 2), 1),
    (5, Fraction(1, 3), 1),
    (3, Fraction(-1, 2), -2),
])
def test_floor_scale_examples(m, q, expected):
    assert floor_scale(m, q) == expected
    assert floor_oracle(m, q) == expected


@pytest.mark.parametrize("m, q, expected", [
    (2, Fraction(1, 2), 1),
    (5, Fraction(1, 3), 2),
    (4, Fraction(3, 4), 3),
])
def test_ceil_scale_examples(m, q, expected):
    assert ceil_scale(m, q) == expected


def test_scale_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        floor_scale(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        ceil_scale(-3, Fraction(1, 2))


@given(st.integers(1, 10**6), st.fractions())
def test_complement_identity(m, gamma):
    # m - ceil(m g) = floor(m (1 - g)) for every rational g
    assert m - ceil_scale(m, gamma) == floor_scale(m, 1 - gamma)


@given(st.integers(1, 10**6), st.fractions())
def test_floor_ceil_negation(m, q):
    assert floor_scale(m, q) + ceil_scale(m, -q) == 0


@given(st.integers(1, 1000), st.fractions(max_denominator=50))
def test_floor_scale_matches_oracle(m, q):
    assert floor_scale(m, q) == floor_oracle(m, q)


def test_arithmetic_matches_cross_multiplication_oracle():
    rng = random.Random(20260810)
    for _ in range(10_000):
        a, c = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        b, d = rng.randint(1, 10**9), rng.randint(1, 10**9)
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert x - y == Fraction(a * d - c * b, b * d)
        assert x * y == Fraction(a * c, b * d)
        if c != 0:
            assert x / y == Fraction(a * d, b * c)
        assert (x < y) == (a * d < c * b)
        assert (x == y) == (a * d == c * b)


@given(st.fractions())
def test_parse_format_roundtrip(q):
    assert parse_rat(format_rat(q)) == q


@given(st.integers(), st.integers(min_value=1))
def test_format_ratio_is_format_rat_of_the_fraction(num, den):
    assert format_ratio(num, den) == format_rat(Fraction(num, den))


@pytest.mark.parametrize("num, den", [(10**5000, 3), (-1, 10**5000), (3 * 10**5000, 3)],
                         ids=["numerator", "denominator", "integer"])
def test_format_past_the_digit_limit_is_limit_exceeded(num, den):
    with pytest.raises(LimitExceeded):
        format_ratio(num, den)
    with pytest.raises(LimitExceeded):
        format_rat(Fraction(num, den))


@pytest.mark.parametrize("text, value", [
    ("3/4", Fraction(3, 4)),
    ("-7/2", Fraction(-7, 2)),
    ("5", Fraction(5)),
    ("0", Fraction(0)),
])
def test_parse_rat_accepts_canonical_forms(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("text", ["1.5", "", "a/b", "1/0", "1/-2", "1//2", "+-3"])
def test_parse_rat_rejects_noncanonical_forms(text):
    with pytest.raises(ValueError):
        parse_rat(text)
