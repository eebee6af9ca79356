"""Reference copies of the dual-graph record's construction and of the
shape decomposition's arm walk, as they were before construction
became one pass.

``reference_graph`` builds the three fields the way the constructor
did: every edge put in order by ``min``/``max``, each label and each
edge checked by a loop, the neighbour lists sorted from the edge set
and a breadth-first search over a ``seen`` set. ``reference_decompose``
walks the arm with a list of the vertices ahead at every step, and
looks the shape up in its own copy of the shape table, keyed by
``Fraction`` far coefficients as the table was before its lookup went
over integer pairs. It takes a plt chain's gamma, (1 - c)/n, from its
own continued fraction of the arm, where germcalc reads gamma off the
elimination, so the two routes to gamma share no code. Both are slow
and serve only as oracles for ``germcalc.dualgraph`` and
``germcalc.germs``.
"""

from fractions import Fraction

from germcalc.errors import ValidationError
from germcalc.germs import GermTag

HALF = Fraction(1, 2)
# (prongs, far coefficients) -> (tag, whether the far end may carry label 1)
REFERENCE_SHAPES = {
    (0, (Fraction(1),)): (GermTag.CYCLIC_NONPLT, False),
    (0, (HALF, HALF)): (GermTag.DIHEDRAL_33, True),
    (1, (HALF,)): (GermTag.DIHEDRAL_32, True),
    (2, ()): (GermTag.DIHEDRAL_31, False),
}


def continued_fraction(chain) -> tuple[int, int]:
    """(n, q) with n/q = c_1 - 1/(c_2 - ... - 1/c_k); (1, 0) for the empty chain."""
    num, den = 1, 0
    for c in reversed(chain):
        num, den = c * num - den, num
    return num, den


def reference_adjacency(n: int, edges) -> list[list[int]]:
    """Neighbour lists in sorted edge order."""
    adj = [[] for _ in range(n)]
    for i, j in sorted(edges):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def reference_order(n: int, edges) -> list[int]:
    """Breadth-first order from vertex 0, marking visited vertices in a set."""
    adj = reference_adjacency(n, edges)
    order, seen = [0], {0}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def reference_graph(selfints, edges, branches=()):
    """The fields ``(selfints, edges, branches)`` of
    ``ResolutionGraph(selfints, edges, branches)``, or the exception it
    raises, checked in the constructor's order: conversions (where a
    label that is not an int names the first label at fault, of either
    kind), labels, edges in the iteration order of the edge frozenset,
    the tree, then the branch attach indices."""
    selfints = tuple(selfints)
    if not all(isinstance(c, int) for c in selfints):
        for c in selfints:
            if not isinstance(c, int):
                raise ValidationError(f"self-intersection label {c!r} is not an integer")
            if c < 1:
                raise ValidationError(f"self-intersection label {c} must be >= 1")
    selfints = tuple(int(c) for c in selfints)
    edges = frozenset((min(i, j), max(i, j)) for i, j in edges)
    branches = tuple(branches)
    n = len(selfints)
    for c in selfints:
        if c < 1:
            raise ValidationError(f"self-intersection label {c} must be >= 1")
    for i, j in edges:
        if i == j:
            raise ValidationError("self-loop edge")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"edge ({i}, {j}) references a missing vertex")
    if n == 0:
        if edges:
            raise ValidationError("edges on an empty vertex set")
    elif len(edges) != n - 1 or len(reference_order(n, edges)) != n:
        raise ValidationError("edge set is not a tree on the vertex set")
    for br in branches:
        if n == 0:
            if br.attach is not None:
                raise ValidationError("branch attach index on an empty graph")
        elif br.attach is None or not 0 <= br.attach < n:
            raise ValidationError(f"branch attach index {br.attach} out of range")
    return selfints, edges, branches


def reference_decompose(g):
    """(tag, gamma, violation) of a graph with a coefficient-1 branch,
    by the arm walk that lists the vertices ahead at every step."""
    adj = reference_adjacency(g.n_vertices, g.edges)
    i = next(i for i, br in enumerate(g.branches) if br.coeff == 1)
    rest = g.branches[:i] + g.branches[i + 1:]
    far = tuple(sorted(br.coeff for br in rest))
    arm, ahead = [], []
    if g.n_vertices:
        attached = {br.attach for br in rest}
        arm, prev = [g.branches[i].attach], -1
        while True:
            v = arm[-1]
            ahead = [w for w in adj[v] if w != prev]
            if v in attached or len(ahead) != 1:
                break
            arm.append(ahead[0])
            prev = v
        if any(len(adj[w]) != 1 or g.selfints[w] != 2 or w in attached
               for w in ahead):
            why = ("the graph goes on past it" if any(len(adj[w]) != 1 for w in ahead)
                   else "it carries a branch" if attached.intersection(ahead)
                   else "its label is not 2")
            return (GermTag.UNCLASSIFIED, None,
                    f"a curve beyond the far end is not a bare -2 prong: {why}")
    prongs = len(ahead)
    if prongs == 0 and len(far) <= 1 and 1 not in far:
        tag, unit_end = GermTag.PLT_CHAIN, False
    else:
        tag, unit_end = REFERENCE_SHAPES.get((prongs, far), (None, False))
        if tag is None:
            listed = ", ".join(str(c) for c in far)
            return (GermTag.UNCLASSIFIED, None,
                    f"no shape or plt chain has prong count {prongs} and far "
                    f"coefficients [{listed}]")
    if not all(g.selfints[v] >= 2 for v in (arm[:-1] if unit_end else arm)):
        return (GermTag.UNCLASSIFIED, None, "self-intersection label 1 on the "
                "arm, allowed only at the far end of a dihedral 32 or 33 shape")
    if tag is not GermTag.PLT_CHAIN:
        return tag, None, None
    n, _q = continued_fraction([g.selfints[v] for v in arm])
    return tag, (1 - sum(far, Fraction(0))) / n, None
