"""Two exhaustive censuses of small trees, each against an oracle that
shares no code with germcalc's classification.

The first holds the shape decomposition to the paper's hypothesis: on
every minimal plt or lc-center germ whose boundary coefficients are at
least 1/2, one of the shapes of ``germs.SHAPES`` or a plt chain fits.
The second holds ``log_canonical_class`` on trees with no boundary to
the list of log canonical surface singularities of Kollár-Mori 1998,
Theorem 4.7. The third holds a plt chain's gamma, read off the
elimination, to the closed form (1 - c)/n of its continued fraction.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from germcalc.dualgraph import (BoundaryBranch, LcClass, ResolutionGraph, is_contractible,
                                log_canonical_class)
from germcalc.errors import NotApplicable
from germcalc.germs import GermTag, classify_lc_germ
from graph_oracle import continued_fraction


def parent_arrays(k: int):
    """Every tree on k curves as its parent array: parent[i] < i for
    each curve i >= 1, so curve 0 is the root. k = 0 and k = 1 give the
    one empty array."""
    return product(*(range(i) for i in range(1, k)))


def edges_of(parents) -> list[tuple[int, int]]:
    return [(p, i) for i, p in enumerate(parents, 1)]


# the paper's coefficients: 1/2 and up, in the standard set
COEFFS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))


def census_graphs():
    """Trees of up to 3 curves with labels 1..4, one coefficient-1
    branch on any curve (at the smooth point for the empty graph), and
    up to 2 more branches from COEFFS on any curve."""
    for k in range(4):
        places = list(range(k)) or [None]
        others = list(product(places, COEFFS))
        for parents in parent_arrays(k):
            edges = edges_of(parents)
            for selfints in product(range(1, 5), repeat=k):
                for first in places:
                    for count in range(3):
                        for more in combinations_with_replacement(others, count):
                            branches = [BoundaryBranch(a, c) for a, c in [(first, 1), *more]]
                            yield ResolutionGraph(selfints, edges, branches)


def test_every_minimal_plt_or_lc_center_census_germ_fits_a_shape():
    # The paper claims its classification only for coefficients >= 1/2;
    # below 1/2 most minimal germs of such a census fit no shape, so
    # none is drawn.
    total = lc = minimal = 0
    for g in census_graphs():
        total += 1
        try:
            cls = log_canonical_class(g)
        except NotApplicable:
            continue  # not contractible
        if cls not in (LcClass.PLT, LcClass.LC_CENTER):
            continue
        lc += 1
        if 1 in g.selfints:
            continue  # a (-1)-curve: not minimal
        minimal += 1
        found = classify_lc_germ(g)
        assert found.tag is not GermTag.UNCLASSIFIED, (g, found.violation)
    assert (total, lc, minimal) == (36_459, 2_376, 828)


def kollar_mori_class(labels, edges) -> LcClass:
    """The class of a contractible tree with no boundary and labels >= 2
    by Kollár-Mori 1998, Theorem 4.7. A chain is klt. A star with three
    arms of determinants a, b, c is klt when 1/a + 1/b + 1/c > 1 and log
    canonical at its center when the sum is 1. A star of four (-2)-arms,
    and a tree whose two forks each carry two (-2)-leaves, are log
    canonical at their center. Every other tree is not log canonical."""
    adj = [[] for _ in labels]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    forks = [v for v, ws in enumerate(adj) if len(ws) >= 3]
    if not forks:
        return LcClass.KLT

    def is_two_leaf(w):
        return len(adj[w]) == 1 and labels[w] == 2

    if len(forks) == 1 and len(adj[forks[0]]) == 3:
        center = forks[0]
        total = Fraction(0)
        for w in adj[center]:
            arm, prev = [], center
            while True:
                arm.append(labels[w])
                ahead = [x for x in adj[w] if x != prev]
                if not ahead:
                    break
                prev, w = w, ahead[0]
            total += Fraction(1, continued_fraction(arm)[0])
        return (LcClass.KLT if total > 1 else LcClass.LC_CENTER if total == 1
                else LcClass.NOT_LC)
    if len(forks) == 1 and len(adj[forks[0]]) == 4 and all(map(is_two_leaf, adj[forks[0]])):
        return LcClass.LC_CENTER
    if len(forks) == 2 and all(len(adj[v]) == 3 and sum(map(is_two_leaf, adj[v])) == 2
                               for v in forks):
        return LcClass.LC_CENTER
    return LcClass.NOT_LC


def test_log_canonical_class_of_boundary_free_trees_is_kollar_mori_4_7():
    counts = {}
    total = 0
    for k in range(1, 7):
        for parents in parent_arrays(k):
            edges = edges_of(parents)
            for labels in product((2, 3), repeat=k):
                total += 1
                g = ResolutionGraph(labels, edges)
                if not is_contractible(g):
                    continue
                expected = kollar_mori_class(labels, edges)
                assert log_canonical_class(g) is expected, (labels, edges)
                counts[expected] = counts.get(expected, 0) + 1
    assert total == 8_566
    assert counts == {LcClass.KLT: 2_634, LcClass.LC_CENTER: 148, LcClass.NOT_LC: 5_606}


# the coefficient on the far end of a chain: 0 for no branch, or one below 1
FAR_COEFFS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def test_a_plt_chains_gamma_is_one_minus_its_far_coefficient_over_n():
    # chains of 1..5 curves, labels 2..5, the coefficient-1 branch on
    # curve 1 and a branch of coefficient c (0 for none) on the last: a
    # chain whose string is n/q has gamma = (1 - c)/n, with n from the
    # continued fraction alone
    chains = 0
    for k in range(1, 6):
        edges = [(i, i + 1) for i in range(k - 1)]
        for labels in product(range(2, 6), repeat=k):
            n, _ = continued_fraction(labels)
            for c in FAR_COEFFS:
                branches = [BoundaryBranch(0, 1)]
                if c:
                    branches.append(BoundaryBranch(k - 1, c))
                cls = classify_lc_germ(ResolutionGraph(labels, edges, branches))
                if cls.tag is not GermTag.PLT_CHAIN:
                    continue
                chains += 1
                assert cls.gamma == (1 - c) / n, (labels, c)
    assert chains == 6_820
