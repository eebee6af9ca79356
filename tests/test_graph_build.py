"""The one-pass construction of ``ResolutionGraph`` and the arm walk of
``germs._decompose`` against their reference copies in
``graph_oracle``: the same fields, repr and hash, or the same exception
type and message, on every edge collection drawn; and the same
(tag, gamma, violation) on the random trees of ``test_dualgraph`` and
on every small tree of a fixed grid.

Edge indices are drawn as integers, the type the constructor takes. A
non-integer index in range (0.5, say) is refused in the edge walk by a
ValidationError naming the edge, where the reference raised the
TypeError of indexing a list; it has its own test below."""

import importlib.util
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import reference_decompose, reference_graph, reference_order
from germcalc import germs
from germcalc.dualgraph import (BoundaryBranch, LcClass, ResolutionGraph, cartier_index,
                                is_contractible, log_canonical_class, solved_numerators)
from germcalc.errors import GermError, NotApplicable, ValidationError
from germcalc.germs import LC_CENTER_TAGS, GermClass, GermTag, _decompose, classify_lc_germ
from test_dualgraph import random_trees, record_trees, recurrence_trees
from test_germs import LABEL_ONE, NOT_A_PRONG

HALF = Fraction(1, 2)

# labels that are below 1, that operator.index reads (True), or that
# it refuses ("3", 7/2, "x")
ODD_LABELS = st.one_of(st.integers(-2, 0), st.sampled_from(["3", True, Fraction(7, 2), "x"]))
CONTAINERS = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset,
              "iterator": iter}


@st.composite
def graph_inputs(draw):
    """(labels, edge pairs, container name, branches) with every kind of
    fault, often several in one input: labels below 1; edges in either
    orientation, duplicated, self-loops, negative or past the last
    vertex; a tree with an edge dropped (disconnected), or with one
    added (a cycle); the empty graph with or without edges; and branch
    attach indices that are None, negative or past the last vertex."""
    labels = draw(st.lists(st.integers(1, 6), max_size=8))
    n = len(labels)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if labels:
            labels[draw(st.integers(0, n - 1))] = draw(ODD_LABELS)
    pairs = []
    if n and draw(st.integers(0, 3)):
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if pairs and draw(st.integers(0, 3)) == 0:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    index = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    pairs += draw(st.lists(st.tuples(index, index), max_size=draw(st.sampled_from([0, 0, 1, 3]))))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    pairs = [(j, i) if draw(st.booleans()) else (i, j) for i, j in pairs]
    pairs = draw(st.permutations(pairs))
    container = draw(st.sampled_from(sorted(CONTAINERS)))
    attach = st.integers(0, max(n - 1, 0)) if n else st.none()
    if draw(st.integers(0, 3)) == 0:
        attach = st.one_of(attach, st.none(), st.integers(-2, n + 1))
    branches = draw(st.lists(st.builds(BoundaryBranch, attach,
                                       st.sampled_from([Fraction(1), HALF])),
                             max_size=3))
    return labels, pairs, container, branches


def _outcome(build, labels, pairs, container, branches):
    """The fields ``build`` returns, or the exception type and message it
    raises; each call gets a fresh edge collection."""
    try:
        return build(labels, CONTAINERS[container](pairs), branches), None
    except Exception as exc:  # every exception is compared, whatever its type
        return None, (type(exc), str(exc))


def _fields(labels, edges, branches):
    g = ResolutionGraph(labels, edges, branches)
    return g.selfints, g.edges, g.branches


@settings(max_examples=1500, deadline=None)
@given(graph_inputs())
@example(([], [], "list", []))
def test_construction_matches_the_reference_constructor(case):
    expected, expected_error = _outcome(reference_graph, *case)
    fields, error = _outcome(_fields, *case)
    assert error == expected_error
    if expected is None:
        return
    assert fields == expected
    assert [type(x) for x in fields] == [tuple, frozenset, tuple]
    labels, pairs, container, branches = case
    g = ResolutionGraph(labels, CONTAINERS[container](pairs), branches)
    selfints, edges, brs = expected
    # the edges print in the vertex order of the endpoint farther from
    # vertex 0, whatever order they came in
    if edges:
        position = {v: k for k, v in enumerate(reference_order(len(selfints), edges))}
        edges = frozenset(sorted(edges, key=lambda e: max(e, key=position.get)))
    assert repr(g) == (f"ResolutionGraph(selfints={selfints!r}, edges={edges!r}, "
                       f"branches={brs!r})")
    assert hash(g) == hash(expected)
    assert g == ResolutionGraph(selfints, edges, brs)
    assert_spanning_tree(g)


def assert_spanning_tree(g):
    """``g._tree`` is a root-to-leaf order from vertex 0 of a spanning tree
    of exactly the edges of g, and ``g._adj`` their neighbour tuples."""
    n, edges = g.n_vertices, g.edges
    if not n:
        assert g._tree == ((), ()) and g._adj == ()
        return
    order, parent = g._tree
    assert sorted(order) == list(range(n)) and order[0] == 0
    assert parent[0] == -1
    position = {v: k for k, v in enumerate(order)}
    assert all(position[parent[v]] < position[v] for v in order[1:])
    assert {tuple(sorted((parent[v], v))) for v in order[1:]} == edges
    assert [type(nbrs) for nbrs in g._adj] == [tuple] * n
    assert [sorted(nbrs) for nbrs in g._adj] == [
        sorted(w for e in edges if v in e for w in e if w != v) for v in range(n)]


def _results(g):
    """What every invariant gives on g, or the exception that each raises."""
    out = []
    for invariant in (solved_numerators, log_canonical_class, cartier_index,
                      classify_lc_germ):
        try:
            out.append(invariant(g))
        except GermError as exc:
            out.append((type(exc), str(exc)))
    return out


def parent_array(g):
    """The parent array of a tree of test_dualgraph's: in those shapes each
    vertex joins an earlier one, so its one edge to a lower index gives
    its parent."""
    lower = {j: i for i, j in g.edges}
    return [-1] + [lower[v] for v in range(1, g.n_vertices)] if g.n_vertices else []


def tree_graph(parent):
    """The graph of a parent array, labels 3 but 2 on the last curve,
    through the edge form, with a coefficient-1 branch on curve 0 (at
    the point when there is none) and a 1/2 branch on the last curve."""
    n = len(parent)
    return ResolutionGraph([3] * (n - 1) + [2] * (n > 0), zip(parent[1:], range(1, n)),
                           [BoundaryBranch(0 if n else None, Fraction(1)),
                            BoundaryBranch(n - 1 if n else None, HALF)])


# the explicit trees start with a path and go on past it: forks off the
# chain's last curve (so the path runs on through the first), off curve
# 0, three forks on one curve, a fork of a fork; and n = 0, 1 and 2
@settings(max_examples=400, deadline=None)
@given(st.one_of(random_trees(), record_trees()), st.integers(0, 10**6))
@example(tree_graph([-1, 0, 1, 2, 3, 3]), 3)
@example(tree_graph([-1, 0, 1, 2, 0, 0]), 0)
@example(tree_graph([-1, 0, 1, 2, 1, 1, 1]), 1)
@example(tree_graph([-1, 0, 1, 2, 1, 4]), 5)
@example(tree_graph([-1, 0, 0, 2, 3, 2, 5]), 6)
@example(tree_graph([]), 0)
@example(tree_graph([-1]), 0)
@example(tree_graph([-1, 0]), 1)
def test_the_tree_builder_matches_the_edge_form(g, fork):
    n = g.n_vertices
    parent = parent_array(g)
    rooted = ResolutionGraph._rooted(g.selfints, parent, g.branches)
    edge_form = ResolutionGraph(g.selfints, g.edges, g.branches)
    assert rooted == edge_form == g and hash(rooted) == hash(edge_form) == hash(g)
    assert repr(rooted) == repr(edge_form)
    assert (rooted.selfints, rooted.edges, rooted.branches) == (
        edge_form.selfints, edge_form.edges, edge_form.branches)
    assert rooted._tree == (tuple(range(n)), tuple(parent))
    assert_spanning_tree(rooted)
    assert_spanning_tree(edge_form)
    assert _results(rooted) == _results(edge_form)
    if n:
        # a fork of either graph, by the tree builder or by the search
        attach = fork % n
        forked = ResolutionGraph(g.selfints + (2,), g.edges | {(attach, n)}, g.branches)
        for built in (rooted.with_fork(attach, 2), edge_form.with_fork(attach, 2)):
            assert built == forked
            assert_spanning_tree(built)
            assert _results(built) == _results(forked)


@st.composite
def shuffled_edges(draw):
    """A tree of test_dualgraph's and its edges in a drawn order, each in
    a drawn orientation."""
    g = draw(st.one_of(random_trees(), record_trees()))
    pairs = draw(st.permutations(sorted(g.edges)))
    return g, [(j, i) if draw(st.booleans()) else (i, j) for i, j in pairs]


@settings(max_examples=400, deadline=None)
@given(shuffled_edges())
@example((ResolutionGraph.chain([2] * 4), [(2, 3), (1, 2), (0, 1)]))
@example((ResolutionGraph.chain([2] * 15), [(v, v - 1) for v in range(14, 0, -1)]))
@example((tree_graph([-1, 0, 1, 2, 3, 3]), [(3, 5), (4, 3), (2, 3), (1, 2), (0, 1)]))
@example((tree_graph([-1, 0, 1, 2, 0, 0]), [(5, 0), (4, 0), (3, 2), (2, 1), (1, 0)]))
@example((tree_graph([-1, 0, 1, 2, 1, 1, 1]), [(6, 1), (1, 5), (4, 1), (2, 3), (0, 1), (1, 2)]))
@example((tree_graph([-1, 0, 1, 2, 1, 4]), [(4, 5), (1, 4), (2, 3), (1, 2), (0, 1)]))
@example((tree_graph([]), []))
@example((tree_graph([-1]), []))
@example((tree_graph([-1, 0]), [(1, 0)]))
def test_equal_graphs_print_alike(case):
    # the edges in any order, or the parent array: one repr, whichever
    # builder ran
    g, pairs = case
    for built in (ResolutionGraph(g.selfints, pairs, g.branches),
                  ResolutionGraph._rooted(g.selfints, parent_array(g), g.branches)):
        assert built == g and repr(built) == repr(g)


@pytest.mark.parametrize("labels, branches, message", [
    ([2, 0, -1], [(5, 1)], "self-intersection label 0 must be >= 1"),
    ([2, "x"], [], "self-intersection label 'x' is not an integer"),
    ([2, 2], [(2, 1)], "branch attach index 2 out of range"),
    ([2, 2], [(0, 1), (-1, HALF)], "branch attach index -1 out of range"),
    ([2, 2], [(None, 1)], "branch attach index None out of range"),
    ([], [(0, 1)], "branch attach index on an empty graph"),
])
def test_a_faulty_chain_names_its_first_fault(labels, branches, message):
    with pytest.raises(ValidationError) as info:
        ResolutionGraph.chain(labels, branches)
    assert str(info.value) == message


@pytest.mark.parametrize("labels, edges, message", [
    # every fault at once: the first label below 1 is named
    ([2, 0, -1], [(0, 0), (5, 1)], "self-intersection label 0 must be >= 1"),
    ([2, 2], [(1, 1), (0, 1)], "self-loop edge"),
    ([2, 2], [(2, 0)], "edge (0, 2) references a missing vertex"),
    ([2, 2, 2], [(1, 0), (0, 1)], "edge set is not a tree on the vertex set"),
    ([], [(0, 0)], "self-loop edge"),
    ([], [(1, 0)], "edge (0, 1) references a missing vertex"),
])
def test_a_faulty_graph_names_its_first_fault(labels, edges, message):
    for container in CONTAINERS.values():
        with pytest.raises(ValidationError) as info:
            ResolutionGraph(labels, container(edges))
        assert str(info.value) == message


@pytest.mark.parametrize("labels, edges, message", [
    ([2, 2], [(0.5, 1)], "edge (0.5, 1) has an index that is not an integer"),
    ([2, 2], [(1.0, 0)], "edge (0, 1.0) has an index that is not an integer"),
    ([2, 2, 2], [(0, Fraction(1)), (1, 2)],
     "edge (0, 1) has an index that is not an integer"),
])
def test_a_non_integer_edge_index_is_a_validation_error(labels, edges, message):
    with pytest.raises(ValidationError) as info:
        ResolutionGraph(labels, edges)
    assert str(info.value) == message


def test_an_unorderable_edge_pair_keeps_its_type_error():
    with pytest.raises(TypeError):
        ResolutionGraph([2, 2], [("a", 1)])


@pytest.mark.parametrize("graph, attach, message", [
    (ResolutionGraph.chain([]), 0, "fork attach index 0 on an empty graph"),
    (ResolutionGraph.chain([2, 2]), 5, "fork attach index 5 out of range 0..1"),
    (ResolutionGraph.chain([2, 2]), 2, "fork attach index 2 out of range 0..1"),
    (ResolutionGraph.chain([2, 2]), -1, "fork attach index -1 out of range 0..1"),
])
def test_with_fork_names_the_attach_index_it_was_given(graph, attach, message):
    # the attach index is checked before the new curve's label
    for selfint in (2, 0):
        with pytest.raises(ValidationError) as info:
            graph.with_fork(attach, selfint)
        assert str(info.value) == message


def test_with_fork_joins_a_leaf_to_the_attach_curve():
    g = ResolutionGraph.chain([2, 3]).with_fork(1, 2)
    assert g == ResolutionGraph((2, 3, 2), {(0, 1), (1, 2)})
    with pytest.raises(ValidationError, match="label 0"):
        g.with_fork(0, 0)


@st.composite
def renumbered(draw, graphs):
    """A drawn graph with its curves renumbered at random, so that the
    arm may run through vertex 0 and its curves' neighbour lists come in
    any order."""
    g = draw(graphs)
    new = draw(st.permutations(range(g.n_vertices)))
    selfints = [0] * g.n_vertices
    for v, c in enumerate(g.selfints):
        selfints[new[v]] = c
    return ResolutionGraph(selfints, [(new[i], new[j]) for i, j in g.edges],
                           [BoundaryBranch(None if br.attach is None else new[br.attach],
                                           br.coeff) for br in g.branches])


@settings(max_examples=600, deadline=None)
@given(st.one_of(random_trees(), record_trees(), recurrence_trees(),
                 renumbered(record_trees())))
def test_the_arm_walk_matches_the_reference_decomposition(g):
    if not any(br.coeff == 1 for br in g.branches):
        return
    expected = reference_decompose(g)
    assert _decompose(g) == expected
    try:
        cls = classify_lc_germ(g)
    except GermError:
        # not plt or lc center, or an lc-center shape whose index does
        # not divide 2: no class to compare
        return
    assert (cls.tag, cls.gamma, cls.violation) == expected


def grid_graphs():
    """Every tree of at most 4 curves, one parent array (parent[i] < i)
    at a time, with labels 1..3 and a coefficient-1 branch on any curve
    (at the point when there is none), after either no other branch, one
    of 1/3, 1/2, 2/3 or 1 on any curve, or two of 1/2 on one curve. The
    other branches come first, so the walk must look past them for the
    coefficient-1 branch."""
    for n in range(5):
        curves = range(n) if n else [None]
        extras = [()]
        extras += [(BoundaryBranch(a, c),) for a in curves
                   for c in (Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1))]
        extras += [(BoundaryBranch(a, HALF),) * 2 for a in curves]
        ones = [BoundaryBranch(a, Fraction(1)) for a in curves]
        for parents in product(*map(range, range(1, n))):
            edges = frozenset(zip(parents, range(1, n)))
            for labels in product((1, 2, 3), repeat=n):
                for one in ones:
                    for extra in extras:
                        yield ResolutionGraph(labels, edges, extra + (one,))


def test_the_arm_walk_matches_the_reference_decomposition_on_a_grid():
    classes = set()
    count = 0
    for g in grid_graphs():
        count += 1
        expected = reference_decompose(g)
        assert _decompose(g) == expected, g
        try:
            cls = classify_lc_germ(g)
        except GermError:
            continue
        assert (cls.tag, cls.gamma, cls.violation) == expected, g
        classes.add(cls.violation or cls.tag)
    assert count == 43638
    # the grid reaches every tag and every rule of the walk through
    # classify_lc_germ
    rules = [NOT_A_PRONG + "the graph goes on past it", NOT_A_PRONG + "it carries a branch",
             NOT_A_PRONG + "its label is not 2", "no shape or plt chain has", LABEL_ONE]
    assert set(GermTag) - {GermTag.UNCLASSIFIED} <= classes
    for rule in rules:
        assert any(type(c) is str and c.startswith(rule) for c in classes), rule


def reference_class(g):
    """GermClass(tag, cartier_index(g), gamma, violation) from
    reference_decompose, after the refusals classify_lc_germ makes, in
    its order: not contractible, not plt or lc center, no
    coefficient-1 branch."""
    lc = log_canonical_class(g)
    if lc not in (LcClass.PLT, LcClass.LC_CENTER):
        raise NotApplicable(f"germ classifies as {lc.value}, not plt or lc-center")
    if not any(br.coeff == 1 for br in g.branches):
        raise NotApplicable("no coefficient-1 branch through the point")
    tag, gamma, violation = reference_decompose(g)
    return GermClass(tag, cartier_index(g), gamma, violation)


def _class_or_refusal(classify, g):
    try:
        return classify(g), None
    except GermError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=600, deadline=None)
@given(st.one_of(random_trees(), record_trees()))
# a cyclic lc center of index 1 and a dihedral 31 one of index 2
@example(ResolutionGraph.chain([2], [(0, 1), (0, 1)]))
@example(ResolutionGraph.chain([2], [(0, 1)]).with_fork(0, 2).with_fork(0, 2))
def test_a_class_is_the_record_built_from_the_reference_decomposition(g):
    # fresh graphs, so that neither side reads what the other stored
    twin = ResolutionGraph(g.selfints, g.edges, g.branches)
    expected, refusal = _class_or_refusal(reference_class, g)
    cls, got = _class_or_refusal(classify_lc_germ, twin)
    assert got == refusal
    if refusal is not None:
        return
    assert cls == expected
    assert hash(cls) == hash(expected)
    assert repr(cls) == repr(expected)
    if cls.tag in LC_CENTER_TAGS:
        # an lc center's class is a shared record: an equal graph built
        # on its own gets the same object
        assert classify_lc_germ(ResolutionGraph(g.selfints, g.edges, g.branches)) is cls


def survey_shapes():
    """The cyclic and dihedral shapes of scripts/taxonomy_survey.py at
    the bounds the CI compares against the base commit."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "taxonomy_survey.py"
    spec = importlib.util.spec_from_file_location("taxonomy_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    # the survey skips the shapes that are not contractible, and so does this
    return [g for g, _tag in survey.shapes(5, 5) if is_contractible(g)]


def test_classifying_the_survey_shapes_builds_no_class(monkeypatch):
    built = []
    init = GermClass.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GermClass, "__init__", counting)
    classes = {classify_lc_germ(g) for g in survey_shapes()}
    assert built == []
    # the survey's cyclic shapes have index 1 and its dihedral ones 2
    assert {(cls.tag, cls.cartier_index) for cls in classes} == {
        (GermTag.CYCLIC_NONPLT, 1), (GermTag.DIHEDRAL_31, 2),
        (GermTag.DIHEDRAL_32, 2), (GermTag.DIHEDRAL_33, 2)}
    # a plt chain's class is built per call, and counted
    classify_lc_germ(ResolutionGraph.chain([3], [(0, 1)]))
    assert len(built) == 1


def _lines_run(call):
    """The line events that ``call()`` runs in germcalc's own frames,
    comprehensions included, counted by a trace function."""
    package = str(Path(germs.__file__).parent)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(package):
            return None
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("build", [
    lambda k: ResolutionGraph._rooted([2] * k, range(-1, k - 1)),
    lambda k: ResolutionGraph._rooted([2] * k, list(range(-1, k - 1))),
    lambda k: ResolutionGraph._rooted([2] * k, list(range(-1, k - 1)) + [k - 1, k - 1]),
    lambda k: ResolutionGraph.chain([3] * k, [(0, 1)]),
    lambda k: germs.hj_expand(k + 1, k),
    lambda k: germs.CyclicQuotientGerm(k + 1, k)._graph,
], ids=["path-range", "path-list", "path-two-forks", "chain", "hj_expand", "cyclic-graph"])
def test_a_long_path_builds_in_a_number_of_lines_that_does_not_grow(build):
    # a timer-free guard: each per-curve pass runs in C, so the lines
    # that germcalc runs are the same for 10^3 and 10^4 curves
    assert _lines_run(lambda: build(1000)) == _lines_run(lambda: build(10_000))
