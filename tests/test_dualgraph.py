import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import (dense_boundary_coefficients, dense_cartier_index,
                          dense_log_canonical_class, det_bareiss,
                          intersection_matrix, leading_principal_minors,
                          sylvester_negative_definite)
from germcalc import dualgraph
from germcalc.cli import GermFile
from germcalc.dualgraph import (HADAMARD_BIT_LIMIT, BoundaryBranch, LcClass,
                                ResolutionGraph, boundary_coefficients,
                                cartier_index, is_contractible,
                                log_canonical_class, solved_numerators)
from germcalc.errors import LimitExceeded, NotApplicable, ValidationError
from germcalc.germs import LC_CENTER_TAGS, classify_lc_germ
from germcalc.rational import format_rat

HALF = Fraction(1, 2)


def residual(g, b):
    """Left-hand sides of the defining equations at the solved b, read
    off the graph's raw edges and branches."""
    out = [(c - 2) - c * b[j] for j, c in enumerate(g.selfints)]
    for i, j in g.edges:
        out[i] += b[j]
        out[j] += b[i]
    for br in g.branches:
        out[br.attach] += br.coeff
    return out


def test_intersection_matrix_single_vertex():
    assert intersection_matrix(ResolutionGraph.chain([3])) == [[-3]]


def test_intersection_matrix_chain():
    assert intersection_matrix(ResolutionGraph.chain([2, 2])) == [[-2, 1], [1, -2]]


def test_intersection_matrix_fork():
    g = ResolutionGraph.chain([2, 3]).with_fork(1, 2)
    assert intersection_matrix(g) == [[-2, 1, 0], [1, -3, 1], [0, 1, -2]]


def test_leading_minors_alternate_on_a2_chain():
    # checks the dense oracle itself: the A_3 chain has minors -2, 3, -4
    g = ResolutionGraph.chain([2, 2, 2])
    assert leading_principal_minors(intersection_matrix(g)) == [-2, 3, -4]
    assert sylvester_negative_definite(g)


@pytest.mark.parametrize("selfints", [[2, 2, 2], [1], [5], [2, 3, 2, 4]])
def test_contractible_chains(selfints):
    assert is_contractible(ResolutionGraph.chain(selfints))


def test_not_contractible_with_two_unit_prongs():
    g = ResolutionGraph.chain([2]).with_fork(0, 1).with_fork(0, 1)
    assert not is_contractible(g)


def test_empty_graph_is_vacuously_contractible():
    g = ResolutionGraph.chain([])
    assert is_contractible(g)
    assert intersection_matrix(g) == []
    assert len(boundary_coefficients(g)) == 0


def test_boundary_coefficients_single_vertex():
    g = ResolutionGraph.chain([2], [(0, 1), (0, HALF)])
    assert boundary_coefficients(g) == (Fraction(3, 4),)


def test_boundary_coefficients_cyclic_chain():
    g = ResolutionGraph.chain([2, 2, 2], [(0, 1), (2, 1)])
    assert boundary_coefficients(g) == (1, 1, 1)


def test_boundary_coefficients_dihedral_fork():
    g = ResolutionGraph.chain([2], [(0, 1)]).with_fork(0, 2).with_fork(0, 2)
    assert boundary_coefficients(g) == (1, HALF, HALF)


def test_singular_system_reported():
    # det -M = 0 at the root: not contractible, so nothing is solved
    g = ResolutionGraph.chain([2]).with_fork(0, 1).with_fork(0, 1)
    assert det_bareiss(intersection_matrix(g)) == 0
    with pytest.raises(NotApplicable, match="not contractible"):
        boundary_coefficients(g)


def test_log_canonical_class_plt_chain():
    g = ResolutionGraph.chain([3], [(0, 1), (0, HALF)])
    assert boundary_coefficients(g) == (Fraction(5, 6),)
    assert log_canonical_class(g) is LcClass.PLT


def test_log_canonical_class_center():
    g = ResolutionGraph.chain([2, 2, 2], [(0, 1), (2, 1)])
    assert log_canonical_class(g) is LcClass.LC_CENTER


def test_log_canonical_class_not_lc():
    g = ResolutionGraph.chain([2], [(0, 1), (0, 1), (0, 1)])
    assert boundary_coefficients(g) == (Fraction(3, 2),)
    assert log_canonical_class(g) is LcClass.NOT_LC


def test_log_canonical_class_klt_without_branches():
    assert log_canonical_class(ResolutionGraph.chain([2, 2])) is LcClass.KLT


def test_log_canonical_class_empty_graph():
    classes = [log_canonical_class(ResolutionGraph.chain([], [(None, 1)] * k))
               for k in range(4)]
    assert classes == [LcClass.KLT, LcClass.PLT, LcClass.LC_CENTER, LcClass.NOT_LC]


def test_cartier_index_examples():
    cyclic = ResolutionGraph.chain([2, 2], [(0, 1), (1, 1)])
    assert cartier_index(cyclic) == 1
    dihedral = ResolutionGraph.chain([2], [(0, 1)]).with_fork(0, 2).with_fork(0, 2)
    assert cartier_index(dihedral) == 2
    plt = ResolutionGraph.chain([3], [(0, 1), (0, HALF)])
    assert cartier_index(plt) == 6


def test_cartier_index_requires_lc():
    g = ResolutionGraph.chain([2], [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(NotApplicable):
        cartier_index(g)


def test_closed_form_discrepancy_single_vertex():
    for n in range(1, 13):
        for d in (HALF, Fraction(2, 3), Fraction(3, 4), Fraction(1)):
            branches = [(0, 1)]
            if d != 1:
                branches.append((0, 1 - d))
            g = ResolutionGraph.chain([n], branches)
            (b,) = boundary_coefficients(g)
            assert -b == -1 + d / n


@pytest.mark.parametrize("bad", [
    lambda: ResolutionGraph.chain([0]),
    lambda: ResolutionGraph((2, 2), frozenset(), ()),          # disconnected
    lambda: ResolutionGraph((2,), frozenset({(0, 1)}), ()),    # dangling edge
    lambda: ResolutionGraph.chain([2], [(1, 1)]),              # bad attach
    lambda: ResolutionGraph.chain([2], [(0, Fraction(3, 2))]),  # coeff > 1
    lambda: ResolutionGraph.chain([2], [(0, 0)]),              # coeff 0
    lambda: ResolutionGraph.chain([], [(0, 1)]),               # attach on empty
    # n - 1 edges but no tree: a cycle reachable from vertex 0, which a
    # search that skips only the parent would walk forever, and a triangle;
    # each leaves a vertex isolated
    lambda: ResolutionGraph((2,) * 5, frozenset({(0, 1), (1, 2), (2, 3), (3, 1)})),
    lambda: ResolutionGraph((2,) * 4, frozenset({(0, 1), (1, 2), (0, 2)})),
])
def test_construction_validation(bad):
    with pytest.raises(ValidationError):
        bad()


coeff_strategy = st.fractions(min_value=Fraction(1, 6), max_value=1,
                              max_denominator=6)


@st.composite
def corpus_graphs(draw):
    """Chains and single-fork trees, selfint <= 6, <= 6 vertices,
    branch denominators <= 6."""
    k = draw(st.integers(1, 5))
    selfints = [draw(st.integers(1, 6)) for _ in range(k)]
    g = ResolutionGraph.chain(selfints)
    if k >= 1 and draw(st.booleans()):
        g = g.with_fork(draw(st.integers(0, k - 1)), draw(st.integers(1, 6)))
    n_branches = draw(st.integers(0, 3))
    branches = tuple(BoundaryBranch(draw(st.integers(0, g.n_vertices - 1)),
                                    draw(coeff_strategy))
                     for _ in range(n_branches))
    return ResolutionGraph(g.selfints, g.edges, branches)


@settings(max_examples=200, deadline=None)
@given(corpus_graphs())
def test_solver_satisfies_defining_equations(g):
    if not is_contractible(g):
        return
    b = boundary_coefficients(g)
    assert all(r == 0 for r in residual(g, b))


@settings(max_examples=150, deadline=None)
@given(corpus_graphs(), st.data())
def test_adding_a_branch_never_decreases_coefficients(g, data):
    if not is_contractible(g):
        return
    before = boundary_coefficients(g)
    v = data.draw(st.integers(0, g.n_vertices - 1))
    after = boundary_coefficients(
        ResolutionGraph(g.selfints, g.edges, g.branches + (BoundaryBranch(v, HALF),)))
    assert all(y >= x for x, y in zip(before, after))


@st.composite
def random_trees(draw):
    """Trees on 1..12 vertices with a fork allowed anywhere (each vertex
    joins a random earlier one), labels 1..6, and 0..3 branches. Labels
    down to 1 keep non-contractible trees in the sample."""
    k = draw(st.integers(1, 12))
    selfints = tuple(draw(st.integers(1, 6)) for _ in range(k))
    edges = frozenset((draw(st.integers(0, v - 1)), v) for v in range(1, k))
    branches = tuple(BoundaryBranch(draw(st.integers(0, k - 1)), draw(coeff_strategy))
                     for _ in range(draw(st.integers(0, 3))))
    return ResolutionGraph(selfints, edges, branches)


@settings(max_examples=400, deadline=None)
@given(random_trees())
def test_tree_elimination_matches_dense_oracles(g):
    contractible = sylvester_negative_definite(g)
    assert is_contractible(g) == contractible
    det = det_bareiss(intersection_matrix(g))
    dense = dense_boundary_coefficients(g)
    assert (dense is None) == (det == 0)
    # the solve raises exactly off the contractible graphs
    try:
        solved = boundary_coefficients(g)
    except NotApplicable:
        assert not contractible
    else:
        assert contractible
        assert solved == dense
    lc = dense_log_canonical_class(g)
    index = dense_cartier_index(g)
    for _ in range(2):  # the second round reads the graph's caches
        if lc is None:
            with pytest.raises(NotApplicable, match="not contractible"):
                log_canonical_class(g)
        else:
            assert log_canonical_class(g).value == lc
        if index is None:
            with pytest.raises(NotApplicable):
                cartier_index(g)
        else:
            assert cartier_index(g) == index
    # a raising read caches nothing, so it raises again on the next call
    assert ("_lc_class" in vars(g)) == (lc is not None)
    assert ("_cartier_index" in vars(g)) == (index is not None)


def test_solution_satisfies_every_vertex_equation_on_large_trees():
    # The dense oracles stop at about a dozen vertices; here the subtree
    # determinants run to hundreds of digits, and every exact division of
    # the back-substitution is checked through the equations it solves.
    rng = random.Random(20261018)
    solved = contractible = 0
    longest_den = 0
    for _ in range(120):
        k = rng.randint(1, 400)
        fork_rate = rng.choice([0.02, 0.2, 1.0])  # long paths to bushy trees
        low = rng.choice([1, 2])
        selfints = tuple(rng.randint(low, 9) for _ in range(k))
        edges = frozenset((rng.randrange(v) if rng.random() < fork_rate else v - 1, v)
                          for v in range(1, k))
        branches = []
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(1, 12)
            branches.append(BoundaryBranch(rng.randrange(k),
                                           Fraction(rng.randint(1, d), d)))
        g = ResolutionGraph(selfints, edges, tuple(branches))
        try:
            b = boundary_coefficients(g)
        except NotApplicable:
            continue
        assert all(r == 0 for r in residual(g, b))
        solved += 1
        contractible += is_contractible(g)
        longest_den = max(longest_den, *(x.denominator.bit_length() for x in b))
    assert solved >= 45 and contractible >= 20, (solved, contractible)
    assert longest_den > 500  # bits: far past what the dense sweep reaches


def test_zero_pivot_below_root_is_not_applicable():
    # nonsingular (det = 1) but not contractible; the middle pivot is 0
    g = ResolutionGraph.chain([1, 1, 1])
    assert det_bareiss(intersection_matrix(g)) == 1
    assert not is_contractible(g)
    with pytest.raises(NotApplicable, match="not contractible"):
        boundary_coefficients(g)


def test_one_elimination_per_graph_object(monkeypatch):
    runs = []

    def counting(g):
        runs.append(g)
        return eliminate(g)

    eliminate = dualgraph._eliminate
    monkeypatch.setattr(dualgraph, "_eliminate", counting)
    g = ResolutionGraph.chain([2], [(0, 1)]).with_fork(0, 2).with_fork(0, 2)
    assert is_contractible(g)
    boundary_coefficients(g)
    assert log_canonical_class(g) is LcClass.LC_CENTER
    assert cartier_index(g) == 2
    classify_lc_germ(g)
    assert runs == [g]


BRANCH_COEFFS = st.just(Fraction(1)) | coeff_strategy


@st.composite
def record_trees(draw):
    """Trees on 0..60 vertices, labels 1..9, and 0..4 branches, about
    half of them of coefficient 1. Half are random trees: each
    vertex joins the one before it, or now and then any earlier one, a
    fork. The other half are an arm of labels 2..9 with a coefficient-1
    branch at its first curve and, at its last, a branch of any
    coefficient (a plt chain, or a cyclic lc center when it is 1) or one
    of the dihedral lc-center far ends (two 1/2 branches, a -2 prong and
    a 1/2 branch, two -2 prongs), where the arm's coefficients are all 1
    and the modification extracts them."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 60))
        fork_rate = draw(st.sampled_from([0.0, 0.1, 1.0]))
        selfints = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        edges = frozenset(
            (draw(st.integers(0, v - 1)) if draw(st.floats(0, 1)) < fork_rate else v - 1, v)
            for v in range(1, k))
        attach = st.integers(0, k - 1) if k else st.none()
        branches = draw(st.lists(st.builds(BoundaryBranch, attach, BRANCH_COEFFS),
                                 max_size=4))
        return ResolutionGraph(tuple(selfints), edges, tuple(branches))
    arm = draw(st.lists(st.integers(2, 9), min_size=1, max_size=58))
    end = len(arm) - 1
    far = draw(st.sampled_from(["plt", "cyclic", "d33", "d32", "d31"]))
    g = ResolutionGraph.chain(arm, [(0, 1)] + {
        "plt": [(end, draw(coeff_strategy))], "cyclic": [(end, 1)],
        "d33": [(end, HALF), (end, HALF)], "d32": [(end, HALF)], "d31": []}[far])
    for _ in range({"d32": 1, "d31": 2}.get(far, 0)):
        g = g.with_fork(end, 2)
    return g


@st.composite
def recurrence_trees(draw):
    """Trees that work the back-substitution's two rules apart, with
    shuffled vertex indices, so that the search from vertex 0 may start
    anywhere. Half are bushy: complete trees of fan-out 2 or 3 on 1..30
    vertices, labels 1..9, where most vertices meet three or four curves
    and their children take Cramer's rule. The other half are paths of
    1..40 curves, labels 2..9, one of them raised to a label of up to 40
    digits, where every only child takes the vertex-equation
    recurrence. Each carries 0..3 branches, about half of coefficient 1."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 30))
        fan = draw(st.sampled_from([2, 3]))
        labels = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        edges = [((v - 1) // fan, v) for v in range(1, k)]
    else:
        k = draw(st.integers(1, 40))
        labels = draw(st.lists(st.integers(2, 9), min_size=k, max_size=k))
        labels[draw(st.integers(0, k - 1))] = draw(st.integers(10, 10**40))
        edges = [(v - 1, v) for v in range(1, k)]
    index = draw(st.permutations(range(k)))
    selfints = [0] * k
    for v, c in enumerate(labels):
        selfints[index[v]] = c
    branches = draw(st.lists(st.builds(BoundaryBranch, st.integers(0, k - 1),
                                       BRANCH_COEFFS), max_size=3))
    return ResolutionGraph(tuple(selfints),
                           frozenset((index[i], index[j]) for i, j in edges),
                           tuple(branches))


@settings(max_examples=200, deadline=None)
@given(st.one_of(record_trees(), recurrence_trees()))
@example(ResolutionGraph.chain([1, 1, 2]))  # nonsingular (A_root = -1), not contractible
@example(ResolutionGraph.chain([1, 1, 2], [(0, HALF), (2, 1)]))
@example(ResolutionGraph.chain([], [(None, 1), (None, Fraction(2, 3))]))
def test_the_integer_record_matches_the_dense_oracle(g):
    if g.n_vertices:
        dense = dense_boundary_coefficients(g)
        lc, index = dense_log_canonical_class(g), dense_cartier_index(g)
    else:
        # the virtual curve of the ambient point, coefficient sum - 1
        dense, virtual = (), sum((br.coeff for br in g.branches), Fraction(0)) - 1
        lc = ("NOT_LC" if virtual > 1 else "LC_CENTER" if virtual == 1
              else "PLT" if any(br.coeff == 1 for br in g.branches) else "KLT")
        index = None if lc == "NOT_LC" else lcm(1, *(br.coeff.denominator
                                                     for br in g.branches))
    try:
        numerators, den = solved_numerators(g)
    except NotApplicable:
        assert lc is None
    else:
        assert den > 0
        assert boundary_coefficients(g) == dense
        assert tuple(Fraction(x, den) for x in numerators) == dense
    gf = GermFile(graph=g)
    if index is None:
        with pytest.raises(NotApplicable):
            gf.discrepancy
        return
    assert gf.discrepancy == {"lc_class": lc, "cartier_index": index,
                              "discrepancies": [format_rat(-b) for b in dense]}
    try:
        tag = gf.classification.tag
    except NotApplicable:
        return
    if tag in LC_CENTER_TAGS:
        assert gf.modification["extracted_curves"] == [
            j + 1 for j, b in enumerate(dense) if b == 1]
        assert gf.modification["kept_curves"] == [
            j + 1 for j, b in enumerate(dense) if b != 1]


LIMIT = HADAMARD_BIT_LIMIT


@pytest.mark.parametrize("g, passes", [
    # the bound is the product of c_v + deg_v, times the lcm of the branch
    # denominators; a product of exactly LIMIT bits still passes
    (ResolutionGraph.chain([2**LIMIT - 1]), True),
    (ResolutionGraph.chain([2**LIMIT]), False),
    (ResolutionGraph.chain([2**(LIMIT - 2)], [(0, HALF)]), True),
    (ResolutionGraph.chain([2**(LIMIT - 2)], [(0, Fraction(1, 4))]), False),
    (ResolutionGraph.chain([2**(LIMIT - 1) - 2, 1]), True),
    (ResolutionGraph.chain([2**(LIMIT - 1) - 1, 1]), False),
    # factors 3 and 4 whose bit lengths sum to about 66,000, past LIMIT,
    # in a product of about 44,000 bits, within it
    (ResolutionGraph.chain([2] * 22_000), True),
])
def test_the_size_bound_is_the_exact_hadamard_product(g, passes):
    if passes:
        assert is_contractible(g)
        assert len(boundary_coefficients(g)) == g.n_vertices
        return
    for read in (is_contractible, boundary_coefficients, log_canonical_class,
                 cartier_index, classify_lc_germ):
        with pytest.raises(LimitExceeded, match=f"limit of {LIMIT} bits"):
            read(g)


@st.composite
def contractible_trees(draw):
    """Trees on 1..300 vertices, each vertex joined to the one before it
    or, now and then, to any earlier one. Half carry 0..4 branches
    anywhere, about half of them of coefficient 1, and half a
    coefficient-1 branch at vertex 0 and at most one more at the last
    vertex. A label is max(2, degree) plus 0..3, which makes -M
    diagonally dominant, strictly so at every leaf, so the tree is
    contractible. Now and then a label is one less; a tree that this
    leaves not contractible gets its dominant labels back."""
    k = draw(st.integers(1, 300))
    fork_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    edges = frozenset(
        (draw(st.integers(0, v - 1)) if draw(st.floats(0, 1)) < fork_rate else v - 1, v)
        for v in range(1, k))
    degree = [0] * k
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    base = [max(2, d) for d in degree]
    extra = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, -1]), min_size=k, max_size=k))
    if draw(st.booleans()):
        branches = tuple(draw(st.lists(st.builds(BoundaryBranch, st.integers(0, k - 1),
                                                 BRANCH_COEFFS), max_size=4)))
    else:
        # mostly plt germs and lc centers, not lc-failures
        branches = (BoundaryBranch(0, Fraction(1)),) + tuple(
            draw(st.lists(st.builds(BoundaryBranch, st.just(k - 1), BRANCH_COEFFS),
                          max_size=1)))
    g = ResolutionGraph(tuple(c + e for c, e in zip(base, extra)), edges, branches)
    if is_contractible(g):
        return g
    return ResolutionGraph(tuple(c + max(e, 0) for c, e in zip(base, extra)),
                           edges, branches)


def blow_up(g, kind, pick):
    """One blow-up of the surface at a point of the graph's curves: at a
    node E_i ∩ E_j, at a general point of E_i, or where a branch crosses
    E_i, which then crosses the new curve instead. Every curve through
    the point goes one label up, and the new curve, vertex n, has label
    1. Returns the new graph, the curves through the point, and the
    coefficients of the branches through it."""
    n = g.n_vertices
    labels, edges, branches = list(g.selfints) + [1], set(g.edges), list(g.branches)
    coeffs = ()
    if kind == "node":
        curves = sorted(g.edges)[pick % len(g.edges)]
        edges.remove(curves)
    elif kind == "point":
        curves = (pick % n,)
    else:
        k = pick % len(branches)
        curves, coeffs = (branches[k].attach,), (branches[k].coeff,)
        branches[k] = BoundaryBranch(n, branches[k].coeff)
    for i in curves:
        labels[i] += 1
        edges.add((i, n))
    return ResolutionGraph(tuple(labels), frozenset(edges), tuple(branches)), curves, coeffs


def _lc_and_index(g):
    """(lc class, Cartier index), the index None where it raises."""
    lc = log_canonical_class(g)
    return lc, None if lc is LcClass.NOT_LC else cartier_index(g)


@settings(max_examples=60, deadline=None)
@given(contractible_trees(), st.lists(st.tuples(
    st.sampled_from(["node", "point", "branch"]), st.integers(0, 10**6)),
    min_size=1, max_size=8))
def test_blow_ups_keep_every_coefficient_and_add_the_sum_less_one(g, moves):
    # Kollár-Mori 1998, Lemma 2.29: blowing up a point where divisors of
    # coefficients b_i meet pulls K + sum b_i D_i back to the same sum
    # on the strict transforms plus (sum b_i - 1) E. So the solved b of
    # every old curve stays, the new curve's b is that sum less one, and
    # neither the lc class nor the Cartier index changes.
    numerators, den = solved_numerators(g)
    invariants = _lc_and_index(g)
    for kind, pick in moves:
        if (kind == "node" and not g.edges) or (kind == "branch" and not g.branches):
            kind = "point"
        h, curves, coeffs = blow_up(g, kind, pick)
        assert is_contractible(h)
        new_numerators, new_den = solved_numerators(h)
        assert len(new_numerators) == len(numerators) + 1
        assert all(y * den == x * new_den for x, y in zip(numerators, new_numerators))
        expected = sum((Fraction(numerators[i], den) for i in curves), sum(coeffs)) - 1
        assert Fraction(new_numerators[-1], new_den) == expected
        assert _lc_and_index(h) == invariants
        g, numerators, den = h, new_numerators, new_den
