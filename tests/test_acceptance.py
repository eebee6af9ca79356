"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget. Every check is
exact; the only tolerances are the wall-clock budgets."""

import importlib.util
import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import floor, gcd
from pathlib import Path

import pytest

from germcalc.cli import main
from germcalc.dualgraph import (ResolutionGraph, boundary_coefficients,
                                cartier_index, is_contractible)
from germcalc.germs import (CyclicQuotientGerm, classify_lc_germ, hj_contract,
                            hj_expand, resolution_graph, check_slc_glue)
from germcalc.residue import (find_failure_m, glued_restriction_coeff,
                              multibranch_deficit, single_branch_report)
from germcalc.stdcoeff import coeff_check
from residue_oracle import ceil_scale

HALF = Fraction(1, 2)
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


class Criterion:
    def __init__(self, num, name, budget):
        self.num, self.name, self.budget = num, name, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[acceptance] criterion {self.num} {status} "
              f"({elapsed:.2f}s / {self.budget}s) {self.name}")
        assert elapsed < self.budget, f"criterion {self.num} over time budget"
        return False


def test_criterion_1_closed_form_discrepancy():
    with Criterion(1, "closed-form discrepancy -1 + d/n", 1.0):
        for n in range(1, 13):
            for d in (HALF, Fraction(2, 3), Fraction(3, 4), Fraction(1)):
                branches = [(0, 1)]
                if d != 1:
                    branches.append((0, 1 - d))
                g = ResolutionGraph.chain([n], branches)
                (b,) = boundary_coefficients(g)
                assert -b == -1 + d / n


def _survey_shapes(max_len, max_selfint):
    """scripts/taxonomy_survey.py's shapes(): every cyclic and dihedral
    diagram up to the bounds, each with the tag it is built as."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "taxonomy_survey.py"
    spec = importlib.util.spec_from_file_location("taxonomy_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    yield from survey.shapes(max_len, max_selfint)


def test_criterion_2_taxonomy_cartier_bound():
    with Criterion(2, "cyclic/dihedral shapes keep their tag; Cartier index divides 2",
                   10.0):
        checked = 0
        for g, tag in _survey_shapes(max_len=5, max_selfint=5):
            if not is_contractible(g):
                continue
            assert 2 % cartier_index(g) == 0
            assert classify_lc_germ(g).tag is tag
            checked += 1
        assert checked > 5000


def test_criterion_3_residue_identity():
    with Criterion(3, "m - ceil(m g) = floor(m (1-g)), surjective reports", 5.0):
        rng = random.Random(12345)
        gammas = []
        while len(gammas) < 200:
            den = rng.randint(1, 60)
            num = rng.randint(1, den)
            gammas.append(Fraction(num, den))
        for gamma in gammas:
            n = rng.randint(1, max(1, int(1 / gamma)))
            if n * gamma > 1:
                n = 1
            germ = CyclicQuotientGerm(n, 1, 1, 1 - n * gamma)
            assert germ.gamma == gamma
            for m in range(1, 1001):
                assert m - ceil_scale(m, gamma) == floor(m * (1 - gamma))
                assert single_branch_report(m, germ).surjective


def _proper_fractions(max_den):
    out = []
    for den in range(2, max_den + 1):
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(Fraction(num, den))
    return sorted(out)


def _first_failure_oracle(coeffs, cap):
    # independent integer-arithmetic scan
    nums = [c.numerator for c in coeffs]
    dens = [c.denominator for c in coeffs]
    total = sum(coeffs, Fraction(0))
    tn, td = total.numerator, total.denominator
    for m in range(1, cap + 1):
        if (m * tn) // td - sum((m * p) // q for p, q in zip(nums, dens)) > 0:
            return m
    return None


def test_criterion_4_rounding_obstruction():
    with Criterion(4, "least rounding-failure m exists within the bound", 30.0):
        assert find_failure_m([HALF, Fraction(1, 3)]) == 5
        fracs = _proper_fractions(12)
        for r in (2, 3):
            for tup in combinations_with_replacement(fracs, r):
                bound = sum(tup, Fraction(0)).denominator
                m = find_failure_m(tup)
                assert m <= bound
                assert _first_failure_oracle(tup, bound) == m


def test_criterion_5_gluing_criteria():
    with Criterion(5, "degree-2 descent iff equal orders; glue iff equal slopes", 5.0):
        for n1 in range(1, 13):
            for n2 in range(1, 13):
                gamma = Fraction(1, 2 * max(n1, n2) + 1)
                c1, c2 = n1 * gamma, n2 * gamma
                assert c1 < HALF and c2 < HALF
                assert check_slc_glue(CyclicQuotientGerm(n1, 1, 1, 1 - c1),
                                      CyclicQuotientGerm(n2, 1, 1, 1 - c2))
                assert ((glued_restriction_coeff(2, n1, c1) == glued_restriction_coeff(2, n2, c2))
                        == (n1 == n2))
        cs = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)]
        for n1 in range(1, 13):
            for n2 in range(1, 13):
                for c1 in cs:
                    for c2 in cs:
                        g1 = CyclicQuotientGerm(n1, 1, 1, 1 - c1)
                        g2 = CyclicQuotientGerm(n2, 1, 1, 1 - c2)
                        assert check_slc_glue(g1, g2) == (c1 / n1 == c2 / n2)


def _classification_triple(germ):
    cls = classify_lc_germ(resolution_graph(germ))
    return cls.tag, cls.gamma, cls.cartier_index


def test_criterion_7_hj_roundtrip_and_end_swap():
    with Criterion(7, "HJ roundtrip to n = 200; end-swap invariance", 5.0):
        for n in range(1, 201):
            for q in range(1, n + 1):
                if gcd(n, q) != 1 or (q == n and n > 1):
                    continue
                chain = hj_expand(n, q)
                assert all(c >= 2 for c in chain)
                assert hj_contract(chain) == (n, q)
        for n in range(1, 37):
            for q in range(1, n + 1):
                if gcd(n, q) != 1 or (q == n and n > 1):
                    continue
                q_inv = pow(q, -1, n) if n > 1 else 1
                for side in (Fraction(0), HALF):
                    a = _classification_triple(CyclicQuotientGerm(n, q, 1, side))
                    b = _classification_triple(CyclicQuotientGerm(n, q_inv, 1, side))
                    assert a == b


def test_criterion_8_standard_coefficient_suite():
    with Criterion(8, "standard coefficients pass both bounds; recorded failure", 5.0):
        for k in range(2, 51):
            c = Fraction(k - 1, k)
            for m in range(2, 51):
                rec = coeff_check(c, m)
                assert rec.hypothesis_ok
                assert rec.bracket_ok
        found = None
        for m in range(2, 9):
            for den in range(2, 13):
                for num in range(1, den):
                    c = Fraction(num, den)
                    rec = coeff_check(c, m)
                    if not rec.hypothesis_ok and not rec.bracket_ok:
                        found = (c, m)
                        break
                if found:
                    break
            if found:
                break
        assert found == (Fraction(1, 3), 2)
        assert not coeff_check(Fraction(1, 3), 2).bracket_ok


FIXTURE_NAMES = [
    "plt_chain",
    "cyclic_center",
    "dihedral_fork",
    "dihedral_half_branch",
    "dihedral_two_half",
    "glued_pair",
]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_criterion_9_cli_determinism(name, capsys):
    with Criterion(9, f"byte-identical golden report: {name}", 10.0):
        fixture = FIXTURES / f"{name}.json"
        golden = GOLDEN / f"{name}.report.json"
        assert main(["report", str(fixture)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(fixture)]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert first.encode() == golden.read_bytes()
