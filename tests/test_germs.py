from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import intersection_matrix
from graph_oracle import continued_fraction
from germcalc.dualgraph import (VERTEX_LIMIT, BoundaryBranch, ResolutionGraph,
                                boundary_coefficients, is_contractible,
                                log_canonical_class, LcClass)
from germcalc.errors import (BadParameters, GlueMismatch, LimitExceeded,
                             NotApplicable)
from germcalc.germs import (ClassGroup, CyclicQuotientGerm, GermClass, GermTag,
                            NonNormalGerm, Trichotomy, check_slc_glue, classify_lc_germ,
                            classify_nonnormal, different_coeff,
                            hj_expand, resolution_graph)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- HJ strings

@pytest.mark.parametrize("n, q, chain", [
    (1, 1, []),
    (5, 2, [3, 2]),
    (4, 1, [4]),
    (4, 3, [2, 2, 2]),
    (7, 3, [3, 2, 2]),
])
def test_hj_expand_examples(n, q, chain):
    assert hj_expand(n, q) == chain


# the examples of the deleted hj_contract, held to the test oracle that
# evaluates a string in its place; the empty string gives 1/0, the
# start of the oracle's recursion
@pytest.mark.parametrize("chain, nq", [
    ([], (1, 0)),
    ([2, 2, 2], (4, 3)),
    ([3, 2], (5, 2)),
])
def test_hj_contract_examples(chain, nq):
    assert continued_fraction(chain) == nq


@pytest.mark.parametrize("n, q", [(4, 2), (6, 3), (5, 0), (5, 5), (1, 2)])
def test_hj_expand_rejects_bad_parameters(n, q):
    with pytest.raises(BadParameters):
        hj_expand(n, q)


# one check of (n, q) serves both: a pair either refuses has the same text
@pytest.mark.parametrize("n, q, message", [
    (1, 2, "weight q = 2 outside [1, 1]"),
    (5, 5, "gcd(5, 5) != 1"),
    (4, 2, "gcd(4, 2) != 1"),
    (5, 0, "weight q = 0 outside [1, 5]"),
    (0, 1, "order n = 0 must be >= 1"),
    (5, 2.0, "order n = 5 and weight q = 2.0 must be integers"),
])
def test_hj_expand_and_the_germ_refuse_a_pair_with_one_text(n, q, message):
    for make in (hj_expand, CyclicQuotientGerm):
        with pytest.raises(BadParameters) as info:
            make(n, q)
        assert str(info.value) == message


def test_hj_expand_stops_at_the_vertex_limit():
    # n/(n-1) expands to n - 1 curves of label 2
    assert hj_expand(VERTEX_LIMIT + 1, VERTEX_LIMIT) == [2] * VERTEX_LIMIT
    with pytest.raises(LimitExceeded, match=str(VERTEX_LIMIT)):
        hj_expand(VERTEX_LIMIT + 2, VERTEX_LIMIT + 1)
    with pytest.raises(LimitExceeded):
        hj_expand(10**8 + 1, 10**8)


@given(st.integers(1, 60), st.data())
def test_hj_roundtrip(n, data):
    qs = [q for q in range(1, n + 1) if gcd(n, q) == 1 and (q < n or n == 1)]
    q = data.draw(st.sampled_from(qs))
    chain = hj_expand(n, q)
    assert all(c >= 2 for c in chain)
    # q % n is q, or 0 for the smooth case n = q = 1
    assert continued_fraction(chain) == (n, q % n)


@st.composite
def hj_strings(draw):
    """Labels 3..9, each after a run of 2s that may be empty, then a last
    run, cut to at most VERTEX_LIMIT entries."""
    chain = []
    for run, c in draw(st.lists(st.tuples(st.integers(0, 3000), st.integers(3, 9)),
                                max_size=6)):
        chain += [2] * run + [c]
    chain += [2] * draw(st.integers(0, 3000))
    return chain[:VERTEX_LIMIT]


@settings(max_examples=60, deadline=None)
@given(hj_strings())
@example([2] * VERTEX_LIMIT)
@example([3] + [2] * (VERTEX_LIMIT - 1))
@example([2] * 5000 + [9] + [2] * 4999)
def test_hj_roundtrip_with_long_runs_of_2s(chain):
    # continued_fraction gives q = 0 for n = 1, which hj_expand takes as q = 1
    n, q = continued_fraction(chain)
    assert hj_expand(n, q or 1) == chain


@pytest.mark.parametrize("head", [[], [5], [2, 7, 3], [4] * 20])
def test_a_string_is_refused_one_entry_past_the_vertex_limit(head):
    # the last run of 2s ends exactly at the limit, then one more entry
    chain = head + [2] * (VERTEX_LIMIT - len(head))
    n, q = continued_fraction(chain)
    assert hj_expand(n, q) == chain
    for longer in (chain + [2], chain + [3], [2] + chain):
        n, q = continued_fraction(longer)
        with pytest.raises(LimitExceeded) as info:
            hj_expand(n, q)
        assert str(info.value) == (f"the string of {n}/{q} has more than "
                                   f"{VERTEX_LIMIT} curves")


# ---------------------------------------------------------- resolution graphs

def test_resolution_graph_smooth_germ():
    g = resolution_graph(CyclicQuotientGerm(1, 1, 1, HALF))
    assert g.n_vertices == 0
    assert sorted(br.coeff for br in g.branches) == [HALF, 1]
    assert all(br.attach is None for br in g.branches)


def test_resolution_graph_plt_chain():
    g = resolution_graph(CyclicQuotientGerm(5, 2, 1, HALF))
    assert g == ResolutionGraph.chain([3, 2], [(0, 1), (1, HALF)])


def test_resolution_graph_omits_zero_side():
    g = resolution_graph(CyclicQuotientGerm(2, 1, 1, 0))
    assert g == ResolutionGraph.chain([2], [(0, 1)])


def test_resolution_graph_is_shared_per_germ_object():
    germ = CyclicQuotientGerm(5, 2, 1, HALF)
    twin = CyclicQuotientGerm(5, 2, 1, HALF)
    g = resolution_graph(germ)
    assert resolution_graph(germ) is g
    # equal germs give equal graphs; the cache is not part of the value
    assert resolution_graph(twin) == g and resolution_graph(twin) is not g
    assert germ == twin and hash(germ) == hash(twin)


def test_germ_validation():
    with pytest.raises(BadParameters):
        CyclicQuotientGerm(4, 2)
    with pytest.raises(BadParameters):
        CyclicQuotientGerm(3, 4)
    with pytest.raises(BadParameters):
        CyclicQuotientGerm(3, 1, 0, 0)
    with pytest.raises(BadParameters):
        CyclicQuotientGerm(3, 1, 1, Fraction(5, 4))


# ----------------------------------------------------------------- taxonomy

def test_classify_plt_chain_example():
    g = ResolutionGraph.chain([3, 2], [(0, 1), (1, Fraction(2, 3))])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.PLT_CHAIN
    assert cls.gamma == Fraction(1, 15)  # (1 - 2/3) / 5


def test_classify_cyclic_example():
    g = ResolutionGraph.chain([2, 2], [(0, 1), (1, 1)])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.CYCLIC_NONPLT
    assert cls.cartier_index == 1


def test_classify_dihedral_31_example():
    g = ResolutionGraph.chain([2], [(0, 1)]).with_fork(0, 2).with_fork(0, 2)
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.DIHEDRAL_31
    assert cls.cartier_index == 2


def test_classify_dihedral_32():
    g = ResolutionGraph.chain([3], [(0, 1), (0, HALF)]).with_fork(0, 2)
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.DIHEDRAL_32
    assert cls.cartier_index == 2


def test_classify_dihedral_32_with_unit_fork_vertex():
    # c_n = 1 at the fork position, contractible configuration
    g = ResolutionGraph.chain([3, 1], [(0, 1), (1, HALF)]).with_fork(1, 2)
    assert is_contractible(g)
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.DIHEDRAL_32
    assert cls.cartier_index == 2


def test_classify_dihedral_33():
    g = ResolutionGraph.chain([2, 2], [(0, 1), (1, HALF), (1, HALF)])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.DIHEDRAL_33
    assert cls.cartier_index == 2


def test_classify_degenerate_dihedral_33_at_smooth_point():
    g = ResolutionGraph.chain([], [(None, 1), (None, HALF), (None, HALF)])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.DIHEDRAL_33


def test_classify_degenerate_cyclic_at_smooth_point():
    g = ResolutionGraph.chain([], [(None, 1), (None, 1)])
    assert classify_lc_germ(g).tag is GermTag.CYCLIC_NONPLT


def test_classify_plt_without_side_branch():
    g = ResolutionGraph.chain([2, 2], [(0, 1)])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.PLT_CHAIN
    assert cls.gamma == Fraction(1, 3)


def test_classify_requires_lc_center_or_plt():
    g = ResolutionGraph.chain([2], [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(NotApplicable):
        classify_lc_germ(g)


def test_classify_requires_a_conductor_branch():
    g = ResolutionGraph.chain([2], [(0, HALF)])
    with pytest.raises(NotApplicable):
        classify_lc_germ(g)


def test_classify_accepts_small_side_coefficient():
    # outside the [1/2, 1) guarantee window, but still a plt chain
    g = ResolutionGraph.chain([3, 2], [(0, 1), (1, Fraction(1, 3))])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.PLT_CHAIN
    assert cls.gamma == Fraction(2, 15)


R = ResolutionGraph
NOT_A_PRONG = "a curve beyond the far end is not a bare -2 prong: "
LABEL_ONE = ("self-intersection label 1 on the arm, allowed only at the far "
             "end of a dihedral 32 or 33 shape")


def test_classify_reports_violation_for_interior_branch():
    # the branch at the middle curve ends the arm; the -3 curve past it
    # is no prong
    g = ResolutionGraph.chain([3, 3, 3], [(0, 1), (1, Fraction(1, 4))])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.UNCLASSIFIED
    assert cls.violation == NOT_A_PRONG + "its label is not 2"


def test_classify_reports_violation_for_shared_end():
    # both branches on the first curve: the arm is that curve alone, with
    # the -2 curve past it as a prong
    g = ResolutionGraph.chain([3, 2], [(0, 1), (0, Fraction(1, 4))])
    cls = classify_lc_germ(g)
    assert cls.tag is GermTag.UNCLASSIFIED
    assert cls.violation == ("no shape or plt chain has prong count 1 and "
                             "far coefficients [1/4]")


@pytest.mark.parametrize("g, violation", [
    # a curve beyond the far end that is not a bare -2 prong: the graph
    # going on past it comes before a branch on it, which comes before
    # its label
    pytest.param(R.chain([2, 2], [(0, 1), (0, Fraction(1, 3))]).with_fork(1, 2),
                 NOT_A_PRONG + "the graph goes on past it", id="goes-on"),
    pytest.param(R.chain([2, 3, 2], [(0, 1), (0, Fraction(1, 5))]),
                 NOT_A_PRONG + "the graph goes on past it", id="goes-on-label-3"),
    pytest.param(R.chain([2, 2, 2], [(0, 1), (0, Fraction(1, 5)), (1, Fraction(1, 5))]),
                 NOT_A_PRONG + "the graph goes on past it", id="goes-on-with-branch"),
    pytest.param(R.chain([2, 2], [(0, 1), (0, Fraction(1, 3)), (1, Fraction(1, 3))]),
                 NOT_A_PRONG + "it carries a branch", id="branch"),
    pytest.param(R.chain([3, 3], [(0, 1), (0, Fraction(1, 7)), (1, Fraction(1, 7))]),
                 NOT_A_PRONG + "it carries a branch", id="branch-label-3"),
    pytest.param(R.chain([2], [(0, 1), (0, Fraction(1, 3))]).with_fork(0, 3),
                 NOT_A_PRONG + "its label is not 2", id="label-3"),
    # prongs and far coefficients that no row of SHAPES and no plt rule take
    pytest.param(R.chain([2], [(0, 1), (0, HALF), (0, Fraction(1, 3))]),
                 "no shape or plt chain has prong count 0 and far coefficients "
                 "[1/3, 1/2]", id="two-far"),
    pytest.param(R.chain([], [(None, 1), (None, HALF), (None, Fraction(1, 3))]),
                 "no shape or plt chain has prong count 0 and far coefficients "
                 "[1/3, 1/2]", id="two-far-empty-graph"),
    pytest.param(R.chain([2, 2, 2], [(0, 1), (1, Fraction(1, 3))]),
                 "no shape or plt chain has prong count 1 and far coefficients "
                 "[1/3]", id="prong-and-third"),
    # a label-1 curve on the arm, away from the far end of a dihedral 32 or 33
    pytest.param(R.chain([1], [(0, 1)]), LABEL_ONE, id="plt"),
    pytest.param(R.chain([3, 1], [(0, 1), (1, 1)]), LABEL_ONE, id="cyclic"),
    pytest.param(R.chain([1, 3], [(0, 1), (1, HALF), (1, HALF)]), LABEL_ONE, id="d33"),
    pytest.param(R.chain([1, 2], [(0, 1), (1, HALF)]).with_fork(1, 2), LABEL_ONE,
                 id="d32"),
])
def test_each_failure_of_the_decomposition_is_its_violation(g, violation):
    cls = classify_lc_germ(g)
    assert (cls.tag, cls.gamma, cls.violation) == (GermTag.UNCLASSIFIED, None, violation)


def shaped_graphs():
    """Small exhaustive sweep over the five diagram shapes."""
    for cs in ([2], [3, 2], [2, 4, 2]):
        yield ResolutionGraph.chain(cs, [(0, 1), (len(cs) - 1, Fraction(3, 4))])
        yield ResolutionGraph.chain(cs, [(0, 1), (len(cs) - 1, 1)])
        yield ResolutionGraph.chain(cs, [(0, 1)]).with_fork(len(cs) - 1, 2) \
                                                 .with_fork(len(cs) - 1, 2)
        yield ResolutionGraph.chain(
            cs, [(0, 1), (len(cs) - 1, HALF)]).with_fork(len(cs) - 1, 2)
        yield ResolutionGraph.chain(
            cs, [(0, 1), (len(cs) - 1, HALF), (len(cs) - 1, HALF)])


def test_taxonomy_covers_all_shapes():
    for g in shaped_graphs():
        assert classify_lc_germ(g).tag is not GermTag.UNCLASSIFIED


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_taxonomy_totality_or_named_violation(data):
    k = data.draw(st.integers(1, 4))
    selfints = [data.draw(st.integers(2, 5)) for _ in range(k)]
    g = ResolutionGraph.chain(selfints)
    if data.draw(st.booleans()):
        g = g.with_fork(data.draw(st.integers(0, k - 1)),
                        data.draw(st.integers(2, 5)))
    attach = st.integers(0, g.n_vertices - 1)
    branches = [BoundaryBranch(data.draw(attach), 1)]
    for _ in range(data.draw(st.integers(0, 2))):
        coeff = data.draw(st.sampled_from([HALF, Fraction(2, 3), Fraction(1)]))
        branches.append(BoundaryBranch(data.draw(attach), coeff))
    g = ResolutionGraph(g.selfints, g.edges, tuple(branches))
    if not is_contractible(g):
        return
    if log_canonical_class(g) not in (LcClass.PLT, LcClass.LC_CENTER):
        return
    cls = classify_lc_germ(g)
    assert cls.tag is not GermTag.UNCLASSIFIED or cls.violation


@st.composite
def near_shapes(draw):
    """(labels, edges, branches) of a plt, cyclic or dihedral shape on a
    random arm from vertex 0, then up to two edits: a leaf or a branch
    added anywhere."""
    k = draw(st.integers(0, 5))
    labels = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    if k and draw(st.booleans()):
        labels[-1] = 1
    edges = [(i, i + 1) for i in range(k - 1)]
    end = k - 1 if k else None
    branches = [(0 if k else None, Fraction(1))]
    kind = draw(st.sampled_from(["plt", "cyclic", "d31", "d32", "d33"]))
    if kind == "plt":
        branches.append((end, draw(st.sampled_from([Fraction(1, 3), HALF]))))
    elif kind == "cyclic":
        branches.append((end, Fraction(1)))
    elif kind == "d33":
        branches += [(end, HALF), (end, HALF)]
    elif k:
        if kind == "d32":
            branches.append((end, HALF))
        for _ in range(2 if kind == "d31" else 1):
            edges.append((end, len(labels)))
            labels.append(2)
    for _ in range(draw(st.integers(0, 2))):
        n = len(labels)
        if n and draw(st.booleans()):
            edges.append((draw(st.integers(0, n - 1)), n))
            labels.append(draw(st.integers(1, 3)))
        else:
            branches.append((draw(st.integers(0, n - 1)) if n else None,
                             draw(st.sampled_from([Fraction(1), HALF, Fraction(1, 3)]))))
    return labels, edges, branches


def class_or_error(labels, edges, branches):
    g = ResolutionGraph(tuple(labels), frozenset(edges),
                        tuple(BoundaryBranch(a, c) for a, c in branches))
    try:
        cls = classify_lc_germ(g)
    except NotApplicable as exc:
        return str(exc)
    return cls.tag, cls.gamma, cls.cartier_index, cls.violation


@settings(max_examples=300, deadline=None)
@given(near_shapes(), st.data())
def test_classification_invariant_under_relabelling(shape, data):
    labels, edges, branches = shape
    perm = data.draw(st.permutations(range(len(labels))))
    moved = [0] * len(labels)
    for v, c in enumerate(labels):
        moved[perm[v]] = c
    assert class_or_error(labels, edges, branches) == class_or_error(
        moved, [(perm[i], perm[j]) for i, j in edges],
        [(None if a is None else perm[a], c) for a, c in branches])


def test_germ_class_is_cached_per_germ_object():
    germ = CyclicQuotientGerm(5, 2, 1, HALF)
    cls = germ.classification
    assert germ.classification is cls
    assert cls == classify_lc_germ(resolution_graph(germ))


def test_a_raising_germ_class_caches_nothing():
    germ = CyclicQuotientGerm(3, 1, HALF, 0)  # klt: no coefficient-1 branch
    for _ in range(2):
        with pytest.raises(NotApplicable, match="KLT, not plt or lc-center"):
            germ.classification
    assert "classification" not in vars(germ)


@pytest.mark.parametrize("g", [
    ResolutionGraph((), (), [BoundaryBranch(None, Fraction(2, 3))] * 3),
    ResolutionGraph.chain([2], [(0, HALF)] * 4),
], ids=["smooth-point", "one-curve"])
def test_an_lc_center_without_a_coefficient_one_branch_is_refused(g):
    assert log_canonical_class(g) is LcClass.LC_CENTER
    with pytest.raises(NotApplicable, match="^no coefficient-1 branch through the point$"):
        classify_lc_germ(g)


# ---------------------------------------------------------------- differents

@pytest.mark.parametrize("n, side, expected", [
    (1, 0, Fraction(0)),
    (3, 0, Fraction(2, 3)),
    (2, HALF, Fraction(3, 4)),
])
def test_different_examples(n, side, expected):
    assert different_coeff(CyclicQuotientGerm(n, 1, 1, side)) == expected


def test_different_requires_conductor():
    with pytest.raises(NotApplicable):
        different_coeff(CyclicQuotientGerm(2, 1, HALF, 0))


def inverse_corner_entry(chain):
    """Corner entry of the inverse of the negated intersection matrix,
    via one exact solve of (-M) x = e_last."""
    g = ResolutionGraph.chain(chain)
    m = intersection_matrix(g)
    k = len(chain)
    cols = [[Fraction(-m[i][j]) for j in range(k)] for i in range(k)]
    x = [Fraction(0)] * k
    rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
    # plain elimination, kept separate from the library solver on purpose
    for col in range(k):
        piv = next(r for r in range(col, k) if cols[r][col] != 0)
        cols[col], cols[piv] = cols[piv], cols[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, k):
            f = cols[r][col] / cols[col][col]
            for c in range(col, k):
                cols[r][c] -= f * cols[col][c]
            rhs[r] -= f * rhs[col]
    for r in range(k - 1, -1, -1):
        s = rhs[r] - sum(cols[r][c] * x[c] for c in range(r + 1, k))
        x[r] = s / cols[r][r]
    return x[0]


@pytest.mark.parametrize("n, q", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 3), (12, 5)])
def test_different_against_inverse_matrix_oracle(n, q):
    germ = CyclicQuotientGerm(n, q, 1, 0)
    chain = hj_expand(n, q)
    assert different_coeff(germ) == 1 - inverse_corner_entry(chain)
    assert different_coeff(germ) == 1 - Fraction(1, n)


@pytest.mark.parametrize("n, q, side", [(5, 2, HALF), (7, 3, Fraction(3, 4)),
                                        (4, 1, 0), (9, 2, Fraction(2, 3))])
def test_different_equals_conductor_end_coefficient(n, q, side):
    germ = CyclicQuotientGerm(n, q, 1, side)
    b = boundary_coefficients(resolution_graph(germ))
    assert different_coeff(germ) == b[0]


def toric_boundary_coefficients(n, q, side):
    """Closed form of the b_j for the chain of n/q with a conductor at
    the left end and a side branch of coefficient ``side`` at the right.

    On the toric fan the rays satisfy v_{j-1} + v_{j+1} = c_j v_j, and
    the log discrepancy is the linear function a with a(v_0) = 1 - 1 = 0
    and a(v_{k+1}) = 1 - side on the two boundary rays. So a(v_j) is a
    multiple of the HJ numerator x_j (x_0 = 0, x_1 = 1,
    x_{j+1} = c_j x_j - x_{j-1}, x_{k+1} = n), and b_j = 1 - a(v_j).
    """
    chain = hj_expand(n, q)
    x = [0, 1]
    for c in chain:
        x.append(c * x[-1] - x[-2])
    assert x[-1] == n
    slope = (1 - side) / n
    return tuple(1 - slope * xj for xj in x[1:-1])


def test_boundary_coefficients_match_toric_closed_form():
    for n in range(1, 201):
        for q in range(1, max(n, 2)):
            if gcd(n, q) != 1:
                continue
            for side in (Fraction(0), HALF):
                g = resolution_graph(CyclicQuotientGerm(n, q, 1, side))
                assert boundary_coefficients(g) == \
                    toric_boundary_coefficients(n, q, side), (n, q, side)


# ------------------------------------------------------------------- gluing

def test_check_slc_glue_examples():
    assert check_slc_glue(CyclicQuotientGerm(2, 1, 1, HALF),
                          CyclicQuotientGerm(2, 1, 1, HALF))
    assert check_slc_glue(CyclicQuotientGerm(2, 1, 1, Fraction(3, 4)),
                          CyclicQuotientGerm(4, 1, 1, HALF))
    assert not check_slc_glue(CyclicQuotientGerm(2, 1, 1, HALF),
                              CyclicQuotientGerm(3, 1, 1, HALF))


@given(st.integers(1, 30), st.data())
def test_check_slc_glue_reflexive(n, data):
    qs = [q for q in range(1, n + 1) if gcd(n, q) == 1 and (q < n or n == 1)]
    q = data.draw(st.sampled_from(qs))
    side = data.draw(st.fractions(min_value=0, max_value=Fraction(7, 8),
                                  max_denominator=8))
    germ = CyclicQuotientGerm(n, q, 1, side)
    assert check_slc_glue(germ, germ)


def test_classify_nonnormal_mismatch():
    with pytest.raises(GlueMismatch):
        classify_nonnormal([CyclicQuotientGerm(2, 1, 1, Fraction(3, 4)),
                            CyclicQuotientGerm(4, 1, 1, Fraction(7, 8))], True)


def test_classify_nonnormal_matched_pair():
    nn = classify_nonnormal([CyclicQuotientGerm(2, 1, 1, Fraction(3, 4)),
                             CyclicQuotientGerm(4, 1, 1, HALF)], True)
    assert nn.trichotomy is Trichotomy.TWO_COMPONENT_PLT
    assert nn.class_group is ClassGroup.RANK_ONE


def test_classify_nonnormal_single_component():
    nn = classify_nonnormal([CyclicQuotientGerm(3, 1, 1, HALF)], True)
    assert nn.trichotomy is Trichotomy.ONE_COMPONENT_PLT
    assert nn.class_group is ClassGroup.TORSION


def test_classify_nonnormal_lc_center_case():
    # side coefficient 1 marks a second conductor branch
    nn = classify_nonnormal([CyclicQuotientGerm(3, 2, 1, 1)], True)
    assert nn.trichotomy is Trichotomy.LC_CENTER_CASE
    assert nn.cartier_index is not None and 2 % nn.cartier_index == 0


@pytest.mark.parametrize("components, trichotomy, group", [
    ([CyclicQuotientGerm(2, 1, 1, Fraction(3, 4)), CyclicQuotientGerm(4, 1, 1, HALF)],
     Trichotomy.TWO_COMPONENT_PLT, ClassGroup.RANK_ONE),
    ([CyclicQuotientGerm(3, 1, 1, HALF)], Trichotomy.ONE_COMPONENT_PLT, ClassGroup.TORSION),
    ([CyclicQuotientGerm(3, 2, 1, 1)], Trichotomy.LC_CENTER_CASE, None),
], ids=["two plt", "one plt", "lc center"])
def test_the_class_group_is_read_off_the_trichotomy(components, trichotomy, group):
    nn = classify_nonnormal(components, True)
    assert (nn.trichotomy, nn.class_group) == (trichotomy, group)
    index = nn.cartier_index
    assert NonNormalGerm(components, trichotomy, index).class_group is group
    # a value computed from the trichotomy, not a field
    assert "class_group" not in repr(nn) and "class_group" not in vars(nn)


@pytest.mark.parametrize("side", [Fraction(0), Fraction(1, 3), HALF, Fraction(2, 3),
                                  Fraction(99, 100), Fraction(1)])
def test_a_component_with_a_conductor_is_a_plt_chain_or_a_cyclic_lc_center(side):
    # so classify_nonnormal meets no other tag among its components
    for n in range(1, 41):
        for q in range(1, n + 1):
            if gcd(n, q) != 1 or (q == n and n > 1):
                continue
            cls = CyclicQuotientGerm(n, q, 1, side).classification
            assert (cls.tag is GermTag.PLT_CHAIN) is (side < 1)
            assert (cls.tag is GermTag.CYCLIC_NONPLT) is (side == 1)


def test_classify_nonnormal_needs_glue_data():
    with pytest.raises(GlueMismatch):
        classify_nonnormal([CyclicQuotientGerm(3, 1, 1, HALF)], False)


def test_classify_nonnormal_lc_center_takes_precedence():
    # a mixed pair is sorted by its lc-center member
    nn = classify_nonnormal([CyclicQuotientGerm(2, 1, 1, HALF),
                             CyclicQuotientGerm(3, 2, 1, 1)], True)
    assert nn.trichotomy is Trichotomy.LC_CENTER_CASE


LC_GERM = CyclicQuotientGerm(3, 2, 1, 1)
LC = Trichotomy.LC_CENTER_CASE


# the last two also fail the component count, but an earlier check's
# message wins: the plt and Cartier-index checks run first
@pytest.mark.parametrize("components, trichotomy, kwargs, message", [
    ((LC_GERM,) * 3, LC, {"cartier_index": 2}, "a non-normal germ has 1 or 2 components"),
    ((), LC, {}, "a non-normal germ has 1 or 2 components"),
    ((), Trichotomy.ONE_COMPONENT_PLT, {},
     "one-component plt germ must have 1 component, torsion class group"),
    ((), LC, {"cartier_index": 0.5}, "Cartier index 0.5 is not an integer >= 1"),
], ids=["three components", "no component", "plt check first", "index check first"])
def test_an_inconsistent_non_normal_record_is_refused(components, trichotomy, kwargs,
                                                       message):
    with pytest.raises(BadParameters) as info:
        NonNormalGerm(components, trichotomy, **kwargs)
    assert str(info.value) == message


PLT_GERM = CyclicQuotientGerm(3, 1, 1, HALF)


# each passes every older check: these run last
@pytest.mark.parametrize("components, trichotomy, kwargs, message", [
    ((PLT_GERM,), "TWO_COMPONENT_PLT", {},
     "trichotomy 'TWO_COMPONENT_PLT' is not a Trichotomy"),
    ((PLT_GERM,), "ONE_COMPONENT_PLT", {},
     "trichotomy 'ONE_COMPONENT_PLT' is not a Trichotomy"),
    ((PLT_GERM,), Trichotomy.ONE_COMPONENT_PLT, {"cartier_index": 5},
     "a plt non-normal germ has no Cartier index"),
    ((PLT_GERM, PLT_GERM), Trichotomy.TWO_COMPONENT_PLT, {"cartier_index": 1},
     "a plt non-normal germ has no Cartier index"),
], ids=["str two-component", "str one-component", "one-component index",
        "two-component index"])
def test_a_non_normal_record_the_classifier_never_makes_is_refused(components, trichotomy,
                                                                   kwargs, message):
    with pytest.raises(BadParameters) as info:
        NonNormalGerm(components, trichotomy, **kwargs)
    assert str(info.value) == message


# a str equal to a member's value, a number and None: none is a GermTag,
# so none can build a record, a plt chain without its gamma included
@pytest.mark.parametrize("tag, index, message", [
    ("PLT_CHAIN", 1, "tag 'PLT_CHAIN' is not a GermTag"),
    (7, 1, "tag 7 is not a GermTag"),
    (None, 3, "tag None is not a GermTag"),
], ids=["str", "int", "None"])
def test_a_germ_class_refuses_a_tag_that_is_no_germ_tag(tag, index, message):
    with pytest.raises(BadParameters) as info:
        GermClass(tag, index)
    assert str(info.value) == message


@given(st.integers(1, 24), st.data())
def test_model_and_graph_routes_agree(n, data):
    # the solved lcm of denominators must reproduce the closed-form
    # slope denominator, and the matched slope the model slope
    qs = [q for q in range(1, n + 1) if gcd(n, q) == 1 and (q < n or n == 1)]
    q = data.draw(st.sampled_from(qs))
    side = data.draw(st.fractions(min_value=0, max_value=Fraction(11, 12),
                                  max_denominator=12))
    germ = CyclicQuotientGerm(n, q, 1, side)
    cls = classify_lc_germ(resolution_graph(germ))
    assert cls.tag is GermTag.PLT_CHAIN
    assert cls.gamma == germ.gamma
    assert cls.cartier_index == germ.gamma.denominator


# ------------------------------------------------------------- end swapping

def swap_invariant_triple(germ):
    cls = classify_lc_germ(resolution_graph(germ))
    return cls.tag, cls.gamma, cls.cartier_index


@pytest.mark.parametrize("n, q, side", [
    (5, 2, HALF), (5, 3, HALF), (7, 2, Fraction(3, 4)), (12, 7, 0),
    (11, 4, Fraction(2, 3)),
])
def test_classification_invariant_under_end_swap(n, q, side):
    q_inv = pow(q, -1, n) if n > 1 else 1
    a = swap_invariant_triple(CyclicQuotientGerm(n, q, 1, side))
    b = swap_invariant_triple(CyclicQuotientGerm(n, q_inv, 1, side))
    assert a == b
