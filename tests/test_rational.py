import random
import sys
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germcalc.errors import LimitExceeded
from germcalc.rational import (INPUT_DIGITS_EXCEEDED, TOO_LONG, format_rat, format_ratio,
                               format_ratios, parse_rat, shown)
from residue_oracle import ceil_scale


@pytest.mark.parametrize("m, q, expected", [
    (2, Fraction(1, 2), 1),
    (5, Fraction(1, 3), 2),
    (4, Fraction(3, 4), 3),
])
def test_ceil_scale_examples(m, q, expected):
    assert ceil_scale(m, q) == expected


def test_scale_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        ceil_scale(-3, Fraction(1, 2))


@given(st.integers(1, 10**6), st.fractions())
def test_complement_identity(m, gamma):
    # m - ceil(m g) = floor(m (1 - g)) for every rational g
    assert m - ceil_scale(m, gamma) == floor(m * (1 - gamma))


@given(st.integers(1, 10**6), st.fractions())
def test_floor_ceil_negation(m, q):
    assert floor(m * q) + ceil_scale(m, -q) == 0


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


@given(st.lists(st.integers(-10**6, 10**6) | st.integers(), max_size=40),
       st.sampled_from([1, 2, 12, 720, 10**30 * 6]) | st.integers(min_value=1))
def test_format_ratios_is_format_ratio_of_each(nums, den):
    # small numerators over a den of many divisors share reduced denominators
    assert format_ratios(iter(nums), den) == [format_ratio(x, den) for x in nums]


# values small, huge and negative, each repeated 1-30 times in a row: the
# b = 1 arm of an lc-center germ is one long run of a D-sized numerator.
# Runs take their magnitudes from a pool of a few, each with a sign, so
# that neighbouring runs often share a magnitude or a value.
MAGNITUDES = st.integers(0, 10**6) | st.integers(0) | st.integers(0, 10**60)


@given(st.lists(MAGNITUDES, min_size=1, max_size=3).flatmap(
           lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1, -1]),
                                           st.integers(1, 30)), max_size=12)),
       st.sampled_from([1, 2, 12, 720, 10**30 * 6]) | st.integers(min_value=1))
def test_format_ratios_on_runs_is_format_ratio_of_each(runs, den):
    nums = [sign * x for x, sign, k in runs for _ in range(k)]
    assert format_ratios(iter(nums), den) == [format_ratio(x, den) for x in nums]


@pytest.mark.parametrize("nums", [[10**5000] * 3, [2, 2, 2, 10**5000, 10**5000]],
                         ids=["first", "after-a-run"])
def test_a_run_past_the_digit_limit_is_limit_exceeded(nums):
    # a run is reduced on its first value, so that value still raises,
    # whether it opens the list or follows a run that formats
    with pytest.raises(LimitExceeded):
        format_ratios(iter(nums), 3)


def test_equal_numerators_over_other_denominators_keep_their_own_texts():
    assert format_ratios([6, 6, 6], 4) == ["3/2"] * 3
    assert format_ratios([6, 6, 6], 9) == ["2/3"] * 3
    assert format_ratios([6, 6], 3) == ["2", "2"]


@pytest.mark.parametrize("num, den", [(10**5000, 3), (-1, 10**5000), (3 * 10**5000, 3)],
                         ids=["numerator", "denominator", "integer"])
def test_format_past_the_digit_limit_is_limit_exceeded(num, den):
    with pytest.raises(LimitExceeded):
        format_ratio(num, den)
    with pytest.raises(LimitExceeded):
        format_ratios([0, num], den)
    with pytest.raises(LimitExceeded):
        format_rat(Fraction(num, den))


def test_shown_writes_a_number_past_the_digit_limit_as_fixed_text():
    n = 10**639  # 640 digits
    q = Fraction(n + 1, n + 2)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert shown(n) == str(n) and shown(-n) == str(-n)
        assert shown(q) == f"{n + 1}/{n + 2}"
        assert shown(q, repr) == f"Fraction({n + 1}, {n + 2})"
        # one more digit
        for x in (10 * n, Fraction(1, 10 * n), Fraction(10 * n + 1, 3), [0, 10 * n]):
            assert shown(x) == shown(x, repr) == TOO_LONG
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize("text, value", [
    ("3/4", Fraction(3, 4)),
    ("-7/2", Fraction(-7, 2)),
    ("5", Fraction(5)),
    ("0", Fraction(0)),
    # ASCII whitespace around the literal is padding
    (" 1/2\n", Fraction(1, 2)),
    ("\t-7/2\r\f\v", Fraction(-7, 2)),
])
def test_parse_rat_accepts_canonical_forms(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("text", ["1.5", "", "a/b", "1/0", "1/-2", "1//2", "+-3",
                                  # digits that are decimal but not ASCII
                                  "\u0663/4", "\u0661", "1/1\u0660",
                                  # padding that is whitespace to str.strip but not ASCII
                                  "\u00a01/2", "1/2\u2003", "\u20281/2", "\x1c1/2"])
def test_parse_rat_rejects_noncanonical_forms(text):
    with pytest.raises(ValueError):
        parse_rat(text)


@pytest.mark.parametrize("text", ["1/" + "1" * 5000, "1" * 5000, "-" + "7" * 5000 + "/3"],
                         ids=["denominator", "integer", "numerator"])
def test_parse_rat_past_the_digit_limit_is_limit_exceeded(text):
    # the literal is canonical; only int-from-text refuses it, and the
    # message is the package's, not the interpreter's advice
    with pytest.raises(LimitExceeded) as info:
        parse_rat(text)
    assert str(info.value) == INPUT_DIGITS_EXCEEDED
