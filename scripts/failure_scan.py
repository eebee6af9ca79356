"""Scan coefficient tuples for the first power m where rounding the sum
beats rounding the parts, i.e. floor(m*sum c_i) > sum floor(m*c_i).

Prints a histogram of the first-failure m over all tuples of proper
fractions with bounded denominator, and the fraction of tuples whose
failure sits exactly at the denominator bound.

    python scripts/failure_scan.py --max-den 12 --r 2
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from germcalc import find_failure_m
from germcalc.residue import FAILURE_COEFF_LIMIT


def proper_fractions(max_den):
    return sorted(Fraction(p, q) for q in range(2, max_den + 1)
                  for p in range(1, q) if gcd(p, q) == 1)


def at_least_two(text: str) -> int:
    """An integer argument of 2 or more: a denominator bound below 2 has
    no proper fraction, and a failure needs two branches."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} is below 2")
    return value


def branch_count(text: str) -> int:
    """A branch count of 2 or more and at most the number of
    coefficients find_failure_m takes."""
    value = at_least_two(text)
    if value > FAILURE_COEFF_LIMIT:
        raise argparse.ArgumentTypeError(f"{value} is above the limit {FAILURE_COEFF_LIMIT}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-den", type=at_least_two, default=12)
    ap.add_argument("--r", type=branch_count, default=2, help="branches per tuple")
    args = ap.parse_args()

    hist: Counter = Counter()
    at_bound = 0
    total = 0
    for tup in combinations_with_replacement(proper_fractions(args.max_den), args.r):
        m = find_failure_m(tup)
        bound = sum(tup, Fraction(0)).denominator
        assert m <= bound, f"bound violated for {tup}"
        hist[m] += 1
        at_bound += m == bound
        total += 1

    print(f"{total} tuples, r = {args.r}, denominators <= {args.max_den}")
    width = max(hist.values())
    for m in sorted(hist):
        bar = "#" * max(1, round(40 * hist[m] / width))
        print(f"m = {m:>4}: {hist[m]:>7} {bar}")
    print(f"failure exactly at the denominator bound: {at_bound}/{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
