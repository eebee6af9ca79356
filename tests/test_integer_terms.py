"""The derived rationals of a report are built from integer terms: each
is held to its Fraction form in ``term_oracle``, and ``report`` and
``glue`` run byte for byte the same with Fraction's arithmetic refused."""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from term_oracle import (fraction_conductor_is_one, fraction_different,
                         fraction_empty_graph_class, fraction_extrapolated,
                         fraction_gamma, fraction_glue_coeffs, fraction_modification)
from germcalc import cli
from germcalc.cli import main, parse_germ_file
from germcalc.dualgraph import BoundaryBranch, ResolutionGraph, log_canonical_class
from germcalc.errors import NotApplicable
from germcalc.germs import (CyclicQuotientGerm, GermTag, check_slc_glue,
                            classify_nonnormal, different_coeff)
from germcalc.rational import format_rat
from germcalc.residue import glued_restriction_coeff

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
HALF = Fraction(1, 2)
# every value in [0, 1] with a denominator up to 24, and the edges and
# the glue's threshold 1/2 drawn often
UNIT = st.integers(1, 24).flatmap(lambda d: st.integers(0, d).map(lambda p: Fraction(p, d)))
SIDES = st.one_of(st.sampled_from([Fraction(0), Fraction(1), HALF]), UNIT)
# conductors in (0, 1]: 1 often, and below 1 too
CONDUCTORS = st.one_of(st.just(Fraction(1)), UNIT.filter(lambda c: c > 0))


@st.composite
def germs(draw, n_max=40):
    n = draw(st.integers(1, n_max))
    q = draw(st.integers(1, n).filter(lambda q: gcd(n, q) == 1))
    return CyclicQuotientGerm(n, q, draw(CONDUCTORS), draw(SIDES))


@given(germs())
def test_gamma_is_the_fraction_form(germ):
    assert germ.gamma == fraction_gamma(germ.n, germ.side_coeff)
    assert type(germ.gamma) is Fraction


@given(germs())
def test_the_different_and_the_conductor_tests_are_the_fraction_forms(germ):
    conductor = germ.conductor_coeff
    if fraction_conductor_is_one(conductor):
        different = different_coeff(germ)
        assert different == fraction_different(germ.n, conductor, germ.side_coeff)
        assert type(different) is Fraction
        assert check_slc_glue(germ, germ)
        classify_nonnormal([germ], True)
    else:
        with pytest.raises(NotApplicable):
            fraction_different(germ.n, conductor, germ.side_coeff)
        with pytest.raises(NotApplicable, match="coefficient != 1"):
            different_coeff(germ)
        with pytest.raises(NotApplicable, match="conductor coefficient 1"):
            check_slc_glue(germ, germ)
        with pytest.raises(NotApplicable, match="marked conductor branch"):
            classify_nonnormal([germ], True)


@given(germs())
def test_the_report_different_and_modification_are_the_fraction_forms(germ):
    gf = cli.GermFile(germ=germ)
    out = cli._cmd_report(gf, 1)
    try:
        cls = gf.classification
    except NotApplicable:
        cls = None
    if fraction_conductor_is_one(germ.conductor_coeff):
        expected = format_rat(fraction_different(germ.n, germ.conductor_coeff, germ.side_coeff))
    elif cls is None or cls.gamma is None:
        expected = None
    else:
        expected = format_rat(1 - cls.gamma)
    assert out["different"] == expected
    if cls is not None and cls.tag is GermTag.PLT_CHAIN:
        assert out["modification"] == fraction_modification(cls.gamma)


def test_a_slope_of_1_has_no_negative_zero():
    # n = 1 with no side: gamma = 1, so both fields are 0
    gf = cli.GermFile(germ=CyclicQuotientGerm(1, 1))
    assert gf.classification.gamma == 1
    assert gf.modification == fraction_modification(Fraction(1)) == {
        "extracted_coeff": "0", "extracted_discrepancy": "0", "perturbed": False}


@st.composite
def glued_pairs(draw):
    """Two components as a glued file's records: q = 1 and conductor 1
    often, and half the pairs with equal slopes, so that glue reaches
    the restriction."""
    comps = []
    for _ in range(2):
        n = draw(st.integers(1, 12))
        q = 1 if draw(st.booleans()) else draw(
            st.integers(1, n).filter(lambda q: gcd(n, q) == 1))
        conductor = Fraction(1) if draw(st.integers(0, 3)) else draw(CONDUCTORS)
        comps.append([n, q, conductor, draw(SIDES)])
    if draw(st.booleans()):
        # sides 1 - n gamma for a gamma in [0, 1/n] for both n
        top, j = max(comp[0] for comp in comps), draw(st.integers(1, 3))
        gamma = Fraction(draw(st.integers(0, j)), top * j)
        for comp in comps:
            comp[3] = 1 - comp[0] * gamma
    return [{"n": n, "q": q, "conductor": str(c), "side": str(s)} for n, q, c, s in comps]


@given(glued_pairs(), st.integers(1, 4))
def test_the_glue_coefficients_and_flag_are_the_fraction_forms(records, m):
    gf = parse_germ_file(json.dumps({"kind": "glued", "components": records}))
    comps = [part.germ for part in gf.parts]
    if not all(fraction_conductor_is_one(g.conductor_coeff) for g in comps):
        with pytest.raises(NotApplicable):
            cli._cmd_glue(gf, m)
        return
    out = cli._cmd_glue(gf, m)
    sides = [g.side_coeff for g in comps]
    assert ("extrapolated" in out["flags"]) == fraction_extrapolated(m, sides)
    cs = fraction_glue_coeffs(sides)
    gammas = [fraction_gamma(g.n, side) for g, side in zip(comps, sides)]
    if (gammas[0] == gammas[1] and comps[0].q == comps[1].q == 1
            and all(0 < c < 1 for c in cs)):
        coeffs = [glued_restriction_coeff(m, g.n, c) for g, c in zip(comps, cs)]
        assert out["restriction"] == {"m": m, "coefficients": [format_rat(c) for c in coeffs],
                                      "equal": coeffs[0] == coeffs[1]}
    else:
        assert out["restriction"] is None
        assert "restriction-unavailable" in out["flags"]


@given(st.lists(st.one_of(st.sampled_from([Fraction(1), HALF, Fraction(1, 3)]),
                          UNIT.filter(lambda c: c > 0)), max_size=4))
def test_the_empty_graph_class_is_the_fraction_form(coeffs):
    g = ResolutionGraph((), (), [BoundaryBranch(None, c) for c in coeffs])
    assert log_canonical_class(g) is fraction_empty_graph_class(coeffs)


# Fraction's arithmetic: +, -, *, /, //, %, **, the unary operators and
# the roundings. A report compares and formats Fractions, and builds them
# from integers, but calls none of these.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
              "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__", "__trunc__", "__floor__", "__ceil__",
              "__round__")
RATS = ["0", "1", "1", "1/2", "1/3", "2/3", "3/4", "1/5", "7/8"]


def _germ_records(rng, count):
    """Seeded cyclic, glued and small dual-graph records, with
    conductors below 1, sides 0 and 1, and glued pairs of equal slopes."""
    def cyclic():
        n = rng.randint(1, 30)
        q = rng.randint(1, n)
        while rng.random() < 0.9 and gcd(n, q) != 1:
            q = rng.randint(1, n)
        return {"kind": "cyclic_quotient", "n": n, "q": q,
                "conductor": "1" if rng.random() < 0.7 else rng.choice(RATS[1:]),
                "side": rng.choice(RATS)}

    records = []
    for i in range(count):
        if i % 3 == 0:
            records.append(cyclic())
        elif i % 3 == 1:
            comps = [cyclic() for _ in range(rng.choice([1, 2, 2, 2]))]
            for comp in comps:
                if rng.random() < 0.7:
                    comp["q"], comp["conductor"] = 1, "1"
            if len(comps) == 2 and rng.random() < 0.5:
                gamma = Fraction(rng.randint(1, 3), 2 * max(c["n"] for c in comps) + 1)
                for comp in comps:
                    comp["side"] = str(1 - comp["n"] * gamma)
            records.append({"kind": "glued", "components": comps})
        else:
            k = rng.randint(0, 3)
            records.append({"kind": "dual_graph", "chain": [rng.randint(2, 4) for _ in range(k)],
                            "branches": [[rng.randint(1, k) if k else 0, rng.choice(RATS[1:])]
                                         for _ in range(rng.randint(0, 3))]})
    return records


def _runs(paths):
    out = []
    for path in paths:
        for command in ("report", "glue"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([command, path])
            out.append((command, path, code, stdout.getvalue()))
    return out


def test_report_and_glue_do_no_fraction_arithmetic(tmp_path, monkeypatch):
    paths = sorted(str(p) for p in FIXTURES.glob("*.json"))
    for i, record in enumerate(_germ_records(random.Random(25), 450)):
        path = tmp_path / f"germ{i}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(str(path))
    expected = _runs(paths)

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"Fraction.{name} called on a report path")
        return refused

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse(name))
    with pytest.raises(AssertionError, match="__rsub__"):
        1 - HALF
    runs = _runs(paths)
    monkeypatch.undo()
    assert runs == expected
    # every exit code is met, and each fixture's report is its golden
    assert {code for _, _, code, _ in runs} == {0, 1}
    for command, path, code, stdout in runs[:12]:
        if command == "report":
            assert stdout.encode() == (GOLDEN / f"{Path(path).stem}.report.json").read_bytes()
