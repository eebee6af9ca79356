"""Seeded inputs for the three workloads, each with its expected output.

Nothing here imports germcalc. A workload is a list of ``Case`` values,
one pass; the runner repeats passes. The seed picks the inputs and their
order; the composition of a pass (how many inputs of each kind and size)
is fixed, so percentiles fall inside the same kind of input on every
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import oracle
from oracle import HALF, ONE, Spec

FIXTURES = ("cyclic_center", "dihedral_fork", "dihedral_half_branch",
            "dihedral_two_half", "glued_pair", "plt_chain")


@dataclass(frozen=True)
class Case:
    """One op. For a CLI op ``data`` is the germ file text and
    ``expected`` the exact stdout (exit 0) or the error type (exit 1).
    For a library op ``data`` holds the call's arguments in the
    benchmark's own types and ``expected`` the result's fields."""

    name: str
    kind: str
    data: object
    expected: object
    rc: int = 0
    vertices: int = 0


def _fractions(max_den: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in range(2, max_den + 1) for p in range(1, q)})


def _stratified(rng: random.Random, strata: dict, count: int) -> list:
    """About ``count`` members, drawn from each stratum in proportion to
    its size, so that every seed draws the same number from each."""
    total = sum(len(members) for members in strata.values())
    out = []
    for members in strata.values():
        out += rng.sample(members, round(count * len(members) / total))
    return out


def _coprime_q(rng: random.Random, n: int) -> int:
    if n == 1:
        return 1
    return rng.choice([q for q in range(1, n) if gcd(n, q) == 1])


def _cq_case(name: str, kind: str, n: int, q: int, conductor: Fraction,
             side: Fraction) -> Case:
    text = json.dumps(oracle.cq_payload(n, q, conductor, side))
    return Case(name, kind, text, oracle.cq_report(n, q, conductor, side),
                vertices=len(oracle.hj_expand(n, q)))


def _graph_case(name: str, kind: str, spec: Spec, tag: str,
                gamma: Fraction | None = None) -> Case:
    text = json.dumps(spec.payload())
    a = oracle.analyse(spec, tag, gamma)
    if a is None:
        return Case(name, kind, text, "NotApplicable", rc=1,
                    vertices=len(spec.selfints))
    return Case(name, kind, text, oracle.graph_report(spec.payload(), a, None),
                vertices=len(spec.selfints))


def _glued_case(name: str, kind: str, comps, glue_ok: bool) -> Case:
    payload = {"kind": "glued", "glue_ok": glue_ok,
               "components": [oracle.cq_payload(n, q, ONE, s) for n, q, s in comps]}
    return Case(name, kind, json.dumps(payload), oracle.glued_report(comps, glue_ok),
                vertices=sum(len(oracle.hj_expand(n, q)) for n, q, _ in comps))


SHAPE_TAGS = {"cyclic": "CYCLIC_NONPLT", "d31": "DIHEDRAL_31",
              "d32": "DIHEDRAL_32", "d33": "DIHEDRAL_33"}


def lc_center_shape(kind: str, chain) -> tuple[Spec, str]:
    """(Spec, tag) of an lc-center shape: the conductor at vertex 0 and,
    at the last chain vertex, a second conductor (cyclic), two -2 prongs
    (d31), a prong and a 1/2 branch (d32) or two 1/2 branches (d33)."""
    end = len(chain) - 1
    branches = {"cyclic": ((0, ONE), (end, ONE)), "d31": ((0, ONE),),
                "d32": ((0, ONE), (end, HALF)),
                "d33": ((0, ONE), (end, HALF), (end, HALF))}[kind]
    forks = {"d31": ((end, 2), (end, 2)), "d32": ((end, 2),)}.get(kind, ())
    return Spec(tuple(chain), forks, branches), SHAPE_TAGS[kind]


# ---------------------------------------------------------------- corpus

# inputs per pass of each kind, besides the six fixtures (the cyclic
# quotient counts are rounded per stratum)
CORPUS_MIX = {"cq_plt": 140, "cq_center": 30, "cq_klt": 30,
              "dg_plt": 30, "dg_cyclic": 20, "dg_d31": 25, "dg_d32": 25, "dg_d33": 20,
              "gl_glue": 25, "gl_q_mismatch": 15, "gl_slope_mismatch": 15,
              "gl_glue_refused": 10, "gl_single": 10, "gl_lc_center": 5}


def _random_chain(rng: random.Random, length: int, low: int = 2) -> list[int]:
    return [rng.randint(2, 5) for _ in range(length - 1)] + [rng.randint(low, 5)]


CQ_MAX_N = 60
CQ_MAX_CURVES = 10


def _cq_strata() -> dict[int, list[tuple[int, int]]]:
    """(n, q) with n <= CQ_MAX_N, by the length of their HJ chain, up to
    CQ_MAX_CURVES curves."""
    strata: dict[int, list] = {}
    for n in range(1, CQ_MAX_N + 1):
        for q in range(1, max(n, 2)):
            length = len(oracle.hj_expand(n, q))
            if gcd(n, q) == 1 and length <= CQ_MAX_CURVES:
                strata.setdefault(length, []).append((n, q))
    return strata


def _corpus_cq(rng: random.Random, name: str, kind: str, n: int, q: int) -> Case:
    """Conductor 1 with a fractional, absent or conductor side (plt,
    center), or a fractional conductor and side (klt)."""
    fracs = _fractions(12)
    if kind == "cq_klt":
        return _cq_case(name, kind, n, q, rng.choice(fracs), rng.choice([Fraction(0)] + fracs))
    side = ONE if kind == "cq_center" else rng.choice([Fraction(0)] + fracs)
    return _cq_case(name, kind, n, q, ONE, side)


def _corpus_graph(rng: random.Random, name: str, kind: str, length: int) -> Case:
    """A chain of ``length`` curves; the fork vertex of d32 and d33 may be
    a -1 curve, which can make the graph non-contractible (exit 1)."""
    if kind == "dg_plt":
        chain = _random_chain(rng, length)
        side = rng.choice([Fraction(0)] + _fractions(12))
        branches = ((0, ONE),) + (((length - 1, side),) if side else ())
        n, _ = oracle.hj_contract(chain)
        return _graph_case(name, kind, Spec(tuple(chain), (), branches),
                           "PLT_CHAIN", (1 - side) / n)
    low = 1 if kind in ("dg_d32", "dg_d33") else 2
    spec, tag = lc_center_shape(kind[3:], _random_chain(rng, length, low))
    return _graph_case(name, kind, spec, tag)


def _corpus_glued(rng: random.Random, name: str, kind: str) -> Case:
    """Pairs that glue, pairs with equal slopes but different weights q,
    pairs whose slopes differ, pairs whose gluing is refused, single
    components, and an lc-center component glued to a plt one."""
    fracs = _fractions(12)

    def plt_comp():
        n = rng.randint(1, 12)
        return n, _coprime_q(rng, n), rng.choice([Fraction(0)] + fracs)

    if kind in ("gl_glue", "gl_q_mismatch"):
        while True:
            n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
            gamma = Fraction(rng.randint(1, 6), 6 * max(n1, n2))
            if kind == "gl_glue":
                q1 = q2 = 1
            else:
                q1, q2 = _coprime_q(rng, n1), _coprime_q(rng, n2)
            if kind == "gl_glue" or q1 != q2:
                return _glued_case(name, kind, [(n1, q1, 1 - gamma * n1),
                                                (n2, q2, 1 - gamma * n2)], True)
    if kind == "gl_slope_mismatch":
        while True:
            comps = [plt_comp(), plt_comp()]
            if (1 - comps[0][2]) / comps[0][0] != (1 - comps[1][2]) / comps[1][0]:
                return _glued_case(name, kind, comps, True)
    if kind == "gl_glue_refused":
        return _glued_case(name, kind, [plt_comp(), plt_comp()], False)
    if kind == "gl_single":
        return _glued_case(name, kind, [plt_comp()], True)
    n = rng.randint(1, 12)
    return _glued_case(name, kind, [(n, _coprime_q(rng, n), ONE), plt_comp()], True)


def corpus_report(seed: int, root: Path) -> list[Case]:
    rng = random.Random(seed)
    cases = [Case(f"fixture:{f}", "fixture",
                  (root / "tests" / "fixtures" / f"{f}.json").read_text(),
                  (root / "tests" / "golden" / f"{f}.report.json").read_text())
             for f in FIXTURES]
    cq_strata = _cq_strata()
    for kind, count in CORPUS_MIX.items():
        if kind.startswith("cq"):
            cases += [_corpus_cq(rng, f"{kind}-{i}", kind, n, q)
                      for i, (n, q) in enumerate(_stratified(rng, cq_strata, count))]
        elif kind.startswith("dg"):
            cases += [_corpus_graph(rng, f"{kind}-{i}", kind, 1 + i % 4) for i in range(count)]
        else:
            cases += [_corpus_glued(rng, f"{kind}-{i}", kind) for i in range(count)]
    rng.shuffle(cases)
    return cases


# ------------------------------------------------------------ long graph

# (vertex count, inputs per pass). A pass of 60 puts the median in the
# middle of the 48-vertex rung (24 inputs lie below it, 24 above) and the
# 90th percentile in the middle of the 192-vertex rung (50 below, 2
# above), not at an edge where an input of another cost begins. Two
# passes leave twelve samples above the 90th percentile.
LADDER = ((24, 12), (32, 12), (48, 12), (64, 6), (96, 4), (128, 4), (192, 8),
          (256, 1), (320, 1))
LADDER_KINDS = ("chain", "hj", "d31", "d32")


def _shuffled(rng: random.Random, pattern: tuple, size: int) -> list[int]:
    """``size`` labels repeating ``pattern``, in a random order: the order
    varies with the seed, the mix of labels does not."""
    labels = [pattern[j % len(pattern)] for j in range(size)]
    rng.shuffle(labels)
    return labels


def _ladder_case(rng: random.Random, size: int, kind: str, i: int) -> Case:
    """n/(n-1) chains, HJ chains of a random n/q, and D31 or D32 forks
    with a long arm, all of ``size`` vertices."""
    name = f"{kind}-{size}-{i}"
    side = rng.choice(_fractions(12))
    if kind == "chain":
        return _cq_case(name, kind, size + 1, size, ONE, side)
    if kind == "hj":
        n, q = oracle.hj_contract(_shuffled(rng, (2, 2, 2, 2, 3, 4, 5), size))
        return _cq_case(name, kind, n, q, ONE, side)
    arm = size - (2 if kind == "d31" else 1)
    spec, tag = lc_center_shape(kind, _shuffled(rng, (2, 2, 2, 3), arm))
    return _graph_case(name, kind, spec, tag)


def long_graph(seed: int, root: Path) -> list[Case]:
    """The kinds rotate through each rung in a fixed order, so a pass
    holds the same sizes and kinds on every seed."""
    rng = random.Random(seed)
    cases = []
    for rung, (size, count) in enumerate(LADDER):
        cases += [_ladder_case(rng, size, LADDER_KINDS[(rung + i) % len(LADDER_KINDS)], i)
                  for i in range(count)]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------- survey sweep

SURVEY_MAX_LEN = 5
SURVEY_MAX_SELFINT = 5
# Shapes per pass (each gives a classify op and a cartier op), then
# failure-m searches and coefficient checks. Shape ops are 80% of a pass,
# so the median and the 90th percentile fall among them.
SURVEY_SHAPES = 300
SURVEY_FAILURE_M = 75
SURVEY_COEFF_CHECK = 75


def survey_shapes(max_len: int, max_selfint: int):
    """The cyclic and dihedral shapes of the taxonomy survey, as
    (Spec, tag, stratum)."""
    rng = range(2, max_selfint + 1)
    yield Spec((), (), ((None, ONE), (None, ONE))), "CYCLIC_NONPLT", "empty"
    yield Spec((), (), ((None, ONE), (None, HALF), (None, HALF))), "DIHEDRAL_33", "empty"
    for length in range(1, max_len + 1):
        for kind in ("cyclic", "d31"):
            for cs in product(rng, repeat=length):
                yield *lc_center_shape(kind, cs), f"{kind}-{length}"
        for kind in ("d32", "d33"):
            for head in product(rng, repeat=length - 1):
                for last in range(1, max_selfint + 1):
                    yield *lc_center_shape(kind, head + (last,)), f"{kind}-{length}"


def survey_sweep(seed: int, root: Path) -> list[Case]:
    """Shapes are drawn from each (kind, length) stratum in proportion to
    its count of contractible shapes (the survey skips the others), so
    every seed draws the same number of shapes of each kind and size."""
    rng = random.Random(seed)
    strata: dict[str, list] = {}
    for spec, tag, stratum in survey_shapes(SURVEY_MAX_LEN, SURVEY_MAX_SELFINT):
        a = oracle.analyse(spec, tag)
        if a is not None:
            strata.setdefault(stratum, []).append(a)
    cases = []
    for a in _stratified(rng, strata, SURVEY_SHAPES):
        n = len(a.spec.selfints)
        name = f"shape:{a.spec.payload()}"
        cases.append(Case(name, "classify", a.spec, (a.tag, a.index, None, None), vertices=n))
        cases.append(Case(name, "cartier", a.spec, a.index, vertices=n))
    pairs = list(combinations_with_replacement(_fractions(12), 2))
    for pair in rng.sample(pairs, SURVEY_FAILURE_M):
        cases.append(Case("failure:" + ",".join(map(str, pair)), "failure_m",
                          list(pair), oracle.first_failure_m(list(pair))))
    grid = [(c, m) for c in _fractions(12) + [ONE] for m in range(2, 13)]
    for c, m in rng.sample(grid, SURVEY_COEFF_CHECK):
        cases.append(Case(f"coeff:{c}@{m}", "coeff_check", (c, m),
                          oracle.coeff_record(c, m)))
    rng.shuffle(cases)
    return cases


WORKLOADS = {"corpus_report": corpus_report, "long_graph": long_graph,
             "survey_sweep": survey_sweep}
