"""Resolution dual graphs and their exact numerical invariants.

A graph records the exceptional curves of a resolution (vertices carry
the positive integer c for a curve of self-intersection -c), the tree of
intersections between them, and the boundary branches crossing them.
From that data we compute, in exact arithmetic:

* one elimination of the intersection matrix M, leaf to root along the
  tree (no fill-in, so a number of arithmetic operations linear in the
  vertex count), done on integers without a gcd (Bareiss's
  fraction-free elimination, which on a tree is Neumann's plumbing
  calculus): each vertex v carries A_v, the determinant of -M on the
  subtree below v, B_v, the product of its children's A, and S_v, its
  right-hand side scaled by B_v and by the lcm L of the branch
  denominators; folding a vertex into a parent with B = 1, as before
  its first fold, takes two products fewer. The graph is contractible
  (M negative definite) iff every A_v is positive, and the elimination
  stops at the first A_v that is not. Otherwise back-substitution, by
  the vertex equations along paths and by Cramer's rule below a fork,
  gives the unique coefficients b_j making K + sum b_j E_j + (branches)
  intersect every exceptional curve trivially. The result is one integer record: the
  numerators X_j over the common denominator D = A_root * L > 0, with
  b_j = X_j / D. The discrepancy of E_j is -b_j,
* the log canonical class of the germ (klt / plt / lc center / not lc),
  read off max X_j against D,
* the Cartier index, the least m clearing every denominator: D over
  the gcd of D and every X_j, with the branch denominators.

The elimination, the log canonical class and the Cartier index are each
computed once per graph object and stored on it by ``_record.memoized``;
the graph is frozen, so no cache goes stale. None of them builds a
Fraction or does Fraction arithmetic; ``boundary_coefficients`` builds
one per vertex on each call. Every invariant is defined on contractible
graphs only, as the exceptional curves of a resolution always are
(Mumford 1961, Grauert 1962); on any other graph it raises NotApplicable.
A graph that is not contractible, or not log canonical, stores no class
or index and raises again on every call. Before the elimination runs,
the Hadamard bound of the graph (the product of c_v + deg_v, times L)
must stay within HADAMARD_BIT_LIMIT bits, so the size of every number it
makes is bounded before any work. The sum of the factors' bit lengths
screens it: only a sum past the limit has the exact product built.

All exceptional curves are assumed rational and the graph a tree. The
constructor from an edge set checks the tree by one breadth-first search
from vertex 0; a builder that knows its tree (the chain, a cyclic
quotient's and the dual-graph file's graphs) passes its chain and the
attach curve of each fork, and no search runs. Either way the graph
stores a root-to-leaf order with its parents, and the elimination runs
leaf to root along it, so each graph is traversed once.
Branches meet their attachment curve transversally in one point each,
which is a modeling assumption rather than checked input.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, index

from ._record import FrozenRecord, memoized
from .errors import LimitExceeded, NotApplicable, ValidationError
from .rational import as_fraction, shown

# Most exceptional curves a graph read from input may have: hj_expand and
# the CLI's dual-graph reader stop past it with LimitExceeded.
VERTEX_LIMIT = 10_000
# Most bits the elimination's Hadamard bound, the product of c_v + deg_v
# over the curves times the lcm of the branch denominators, may have;
# _eliminate stops past it with LimitExceeded. The 10^4-curve chain of
# 2s has a bound of about 20,000 bits.
HADAMARD_BIT_LIMIT = 65_536


class BoundaryBranch(FrozenRecord):
    """A boundary branch meeting one exceptional curve transversally.

    ``attach`` is a 0-based vertex index, or None for a branch through
    the ambient smooth point (allowed only when the graph is empty).
    Coefficient 1 encodes a conductor-type branch; coefficients in
    (0, 1) encode fractional boundary branches.
    """

    _fields = ("attach", "coeff")

    def __init__(self, attach: int | None, coeff: Fraction):
        coeff = as_fraction(coeff, ValidationError, "branch coefficient")
        # the denominator is positive: 0 < coeff <= 1 on the integers
        if not 0 < coeff.numerator <= coeff.denominator:
            raise ValidationError(f"branch coefficient {shown(coeff)} outside (0, 1]")
        self._set(attach=attach, coeff=coeff)


def check_label(c: int) -> int:
    """Return c, a self-intersection label, as an int, or raise unless it is an integer >= 1."""
    try:
        c = index(c)
    except TypeError:
        raise ValidationError(
            f"self-intersection label {shown(c, repr)} is not an integer") from None
    if c < 1:
        raise ValidationError(f"self-intersection label {shown(c)} must be >= 1")
    return c


def _labels(selfints) -> tuple[int, ...]:
    """The labels as a tuple of ints, by ``index`` and one ``min``; only on
    a fault does ``check_label`` name the first that is not an integer or
    is below 1."""
    labels = tuple(selfints)
    try:
        labels = tuple(map(index, labels))
    except TypeError:
        labels = tuple(map(check_label, labels))  # raises at the first fault
    if labels and min(labels) < 1:
        for c in labels:
            check_label(c)
    return labels


class ResolutionGraph(FrozenRecord):
    """Tree of exceptional curves plus attached boundary branches.

    Construction is one linear pass. ``edges`` may be any iterable of
    index pairs (a list, a set, either orientation, duplicates merged).
    The ``edges`` field is read off the stored tree, each edge a
    (low, high) pair in curve order: a tree rooted at 0 has one set of
    parents, so equal graphs print alike, however their edges came.
    ``__init__`` checks, in this order, and raises ValidationError at
    the first fault:

    * the labels, by ``index`` and one ``min``; only on a fault does
      ``check_label`` name the first that is not an integer or is below 1;
    * each edge, in the iteration order of the ``edges`` frozenset: a
      self-loop, an index outside 0..n-1, or an index in that range
      that is not an integer (0.5). The same walk fills the neighbour
      tuples ``_adj``;
    * the tree: n - 1 edges, then a breadth-first search from vertex 0
      that reaches all n, kept in ``_tree`` as (order, parent), ((), ()) if empty;
    * each branch attach index, in order.

    ``chain``, a cyclic quotient's graph and the CLI's dual-graph reader
    build through ``_rooted`` from a chain and its forks instead: the
    same record, with the index order as ``_tree``'s order, and only the
    attach checks; each checks its labels first, or has hj_expand's.
    """

    _fields = ("selfints", "edges", "branches")

    def __init__(self, selfints: tuple[int, ...], edges: frozenset[tuple[int, int]],
                 branches: tuple[BoundaryBranch, ...] = ()):
        labels = _labels(selfints)
        # j < i is the comparison min(i, j) makes, so a pair that cannot
        # be ordered raises min's TypeError
        edges = frozenset([(j, i) if j < i else (i, j) for i, j in edges])
        n = len(labels)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in edges:
            # a pair is (low, high), so 0 <= i < j < n is every check
            if not 0 <= i < j < n:
                if i == j:
                    raise ValidationError("self-loop edge")
                raise ValidationError(f"edge ({shown(i)}, {shown(j)}) references a missing vertex")
            try:
                adj[i].append(j)
                adj[j].append(i)
            except TypeError:
                # only an index that is no integer fails to index a list
                raise ValidationError(
                    f"edge ({shown(i)}, {shown(j)}) has an index that is not an integer") from None
        # parent marks each vertex visited, vertex 0 by itself while the search runs
        order, parent = [], [-1] * n
        if n and len(edges) == n - 1:
            order, parent[0] = [0], 0
            for v in order:
                for w in adj[v]:
                    if parent[w] < 0:
                        parent[w] = v
                        order.append(w)
            parent[0] = -1
        if len(order) != n:
            raise ValidationError("edge set is not a tree on the vertex set")
        # tuples: read-only, and smaller than the lists
        self._finish(labels, branches, tuple(map(tuple, adj)), order, parent)

    @classmethod
    def _rooted(cls, selfints, forks=(), branches=()) -> "ResolutionGraph":
        """The graph of a chain of k curves, each meeting the next, and
        of a fork curve k + i meeting curve ``forks[i] < k + i`` for each
        i; ``selfints`` lists the chain's labels, then the forks'. Every
        curve comes after the one it meets, so the index order is a
        root-to-leaf order of the tree and no search is run. The labels,
        ints of at least 1, and the fork attach curves are trusted, not
        checked; the branch attach indices are checked as ``__init__``
        checks them. The chain gets its neighbour tuples from one
        ``zip``; only the forks take a loop step."""
        labels = tuple(selfints)
        n = len(labels)
        k = n - len(forks)
        # one int object per curve, shared by the order, the parents and adj
        ids = tuple(range(n))
        adj = [(1,), *zip(ids[:k - 2], ids[2:k]), (k - 2,)] if k > 1 else [()] * k
        if forks:
            # lists for the forks and the chain curves they hang off
            adj += [[p] for p in forks]
            for p in {p for p in forks if p < k}:
                adj[p] = list(adj[p])
            for v, p in zip(ids[k:], forks):
                adj[p].append(v)
            adj = map(tuple, adj)
        g = cls.__new__(cls)
        # the empty graph has no parents, not (-1,)
        g._finish(labels, branches, tuple(adj), ids, (-1, *ids[:k - 1], *forks)[:n])
        return g

    def _finish(self, labels, branches, adj, order, parent) -> None:
        """Check each branch attach index, in order, and store the record
        with ``adj``, a tuple of neighbour tuples, and its tree."""
        branches = tuple(branches)
        n = len(labels)
        for br in branches:
            if n == 0:
                if br.attach is not None:
                    raise ValidationError("branch attach index on an empty graph")
            elif type(br.attach) is not int or not 0 <= br.attach < n:
                raise ValidationError(f"branch attach index {shown(br.attach, repr)} out of range")
        self.__dict__.update(_adj=adj, _tree=(tuple(order), tuple(parent)))
        self._set(selfints=labels, branches=branches)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The tree's n - 1 edges as (low, high) pairs, in curve order."""
        return frozenset([(p, v) if p < v else (v, p) for v, p in enumerate(self._tree[1]) if v])

    @classmethod
    def chain(cls, selfints, branches=()) -> "ResolutionGraph":
        """Build a path graph; branches as (attach, coeff) pairs."""
        branches = [BoundaryBranch(a, c) for a, c in branches]
        return cls._rooted(_labels(selfints), (), branches)

    def with_fork(self, attach: int, selfint: int) -> "ResolutionGraph":
        """Return the graph with one extra leaf curve joined to ``attach``,
        a 0-based vertex index."""
        k = len(self.selfints)
        if not k:
            raise ValidationError(f"fork attach index {shown(attach)} on an empty graph")
        if type(attach) is not int or not 0 <= attach < k:
            raise ValidationError(
                f"fork attach index {shown(attach, repr)} out of range 0..{k - 1}")
        return ResolutionGraph(self.selfints + (selfint,),
                               self.edges | {(attach, k)},
                               self.branches)

    @property
    def n_vertices(self) -> int:
        return len(self.selfints)

    @memoized
    def _elimination(self):
        """The graph's one run of _eliminate, shared by every invariant."""
        return _eliminate(self)

    @memoized
    def _lc_class(self) -> LcClass:
        """log_canonical_class, read once off the largest numerator."""
        if self.n_vertices:
            numerators, den = solved_numerators(self)
            top = max(numerators)
        else:
            # the virtual curve: the branch coefficients' sum less 1, over their lcm
            den = lcm(1, *(br.coeff.denominator for br in self.branches))
            top = sum([den // b.coeff.denominator * b.coeff.numerator for b in self.branches]) - den
        if top > den:
            return _NOT_LC
        if top == den:
            return _LC_CENTER
        if any(br.coeff.numerator == br.coeff.denominator for br in self.branches):
            return _PLT
        return _KLT

    @memoized
    def _cartier_index(self) -> int:
        """cartier_index, taken once: the least m with every m X_v / D an
        integer is D over the gcd of D and all X_v."""
        if self._lc_class is _NOT_LC:
            raise NotApplicable("germ is not log canonical")
        numerators, den = solved_numerators(self)
        if self._lc_class is _LC_CENTER:
            # a b = 1 curve's numerator is D itself, which leaves gcd(D, ...) as it is
            numerators = [x for x in numerators if x != den]
        return lcm(den // gcd(den, *numerators),
                   *(br.coeff.denominator for br in self.branches))


class LcClass(str, Enum):
    KLT = "KLT"
    PLT = "PLT"
    LC_CENTER = "LC_CENTER"
    NOT_LC = "NOT_LC"


# the members as module names, for the code that reads one on every call:
# a read through the class goes through the enum's metaclass, several
# times the cost of a module name
_KLT, _PLT, _LC_CENTER, _NOT_LC = LcClass.KLT, LcClass.PLT, LcClass.LC_CENTER, LcClass.NOT_LC


def _eliminate(g: ResolutionGraph):
    """Fraction-free leaf-to-root elimination of the zero-intersection
    system M b = r.

    Returns the record ``(numerators, den)`` for a contractible graph,
    and None for any other. Vertices are taken in reverse order of
    ``g._tree``, the root-to-leaf order from vertex 0 that construction
    stored with the tree, so each one is folded into its parent alone and
    the tree makes no fill-in. Every vertex v
    carries three integers: A_v, the determinant of -M on the subtree
    below v (v included); B_v, the product of A_w over the children w of
    v, which is the determinant of that subtree with v removed; and S_v,
    the right-hand side of v's eliminated row scaled by L * B_v, where L
    (``scale``) is the lcm of the branch denominators. The pivot of v is
    -A_v / B_v, minus the continued fraction of the subtree. Folding
    child w into parent p is

        A_p, S_p, B_p = A_p A_w - B_w B_p, S_p A_w + S_w B_p, B_p A_w,

    which at B_p = 1, as before p's first fold, is A_p A_w - B_w,
    S_p A_w + S_w, A_w, two products fewer. There is no gcd: the numbers
    stay the size of subtree determinants (times L for S). The pivots
    of a symmetric elimination without row swaps, in any vertex order,
    are ratios of consecutive principal minors, so M is negative
    definite iff every A_v is positive; the first A_v <= 0 ends the
    elimination with None.

    Otherwise back-substitution from the root gives X_v = b_v A_root L
    (A_root L clears every denominator of the solution), with
    X_root = -S_root. Scaled by A_root L, the zero-intersection equation
    at p is the integer identity

        sum of X_w over the neighbours w of p = c_p X_p + A_root S0_p,

    where S0_p = L (2 - c_p) - L t_p is p's unfolded right-hand side and
    t_p the sum of the branch coefficients at p. So a child v that is
    the only child of p is X_v = c_p X_p + A_root S0_p - X_parent(p)
    (no last term when p is the root), the three-term recurrence of the
    Hirzebruch-Jung continuants, with one small factor in each product
    and no division; along a path no number is divided. A child of a
    vertex with two or more children takes Cramer's rule instead,
    X_v = (B_v X_p - S_v A_root) / A_v, a division that is exact.
    ``numerators`` holds X_v by vertex index and ``den`` is
    A_root L > 0, so that b_v = X_v / den; nothing is reduced, and no
    Fraction is built. The empty graph gives ``((), 1)``.

    Before any of this the Hadamard bound is checked. By Hadamard's
    inequality every subtree determinant is at most the product of
    c_v + deg_v over the subtree, so that product over all curves, times
    L, bounds the size of the numbers the elimination would make before
    it makes them. A product has at most the summed bit lengths of its
    factors, so a sum within HADAMARD_BIT_LIMIT passes at once. Past it,
    the product is built exactly, and as soon as it passes
    HADAMARD_BIT_LIMIT bits LimitExceeded is raised.
    """
    n = g.n_vertices
    if n == 0:
        return (), 1
    adj, labels = g._adj, g.selfints
    scale = lcm(1, *(br.coeff.denominator for br in g.branches))
    factors = list(map(add, labels, map(len, adj)))
    if sum(map(int.bit_length, factors), scale.bit_length()) > HADAMARD_BIT_LIMIT:
        bound = scale
        for f in factors:
            bound *= f
            if bound.bit_length() > HADAMARD_BIT_LIMIT:
                raise LimitExceeded(f"the Hadamard bound of the curves exceeds the "
                                    f"limit of {HADAMARD_BIT_LIMIT} bits")
    order, parent = g._tree
    A = list(labels)
    B = [1] * n
    S = [scale * (2 - c) for c in labels]
    for br in g.branches:
        S[br.attach] -= scale // br.coeff.denominator * br.coeff.numerator
    S0 = S[:]
    for v in reversed(order):
        a = A[v]
        if a <= 0:
            return None
        if v:
            p = parent[v]
            b = B[p]
            if b == 1:
                A[p], S[p], B[p] = A[p] * a - B[v], S[p] * a + S[v], a
            else:
                A[p], S[p], B[p] = A[p] * a - B[v] * b, S[p] * a + S[v] * b, b * a
    root = A[0]
    X = [0] * n
    X[0] = -S[0]
    for v in order[1:]:
        p = parent[v]
        if len(adj[p]) == 2 - (p == 0):
            # v is p's only child: p's vertex equation gives X_v
            X[v] = labels[p] * X[p] + root * S0[p] - (X[parent[p]] if p else 0)
        else:
            X[v] = (B[v] * X[p] - S[v] * root) // A[v]
    return tuple(X), root * scale


def is_contractible(g: ResolutionGraph) -> bool:
    """True iff the intersection matrix is negative definite, checked
    exactly by the elimination: every subtree determinant of -M is
    positive. The empty graph is vacuously contractible. Raises
    LimitExceeded past the size bound (HADAMARD_BIT_LIMIT), as every
    invariant below does.
    """
    return g._elimination is not None


def solved_numerators(g: ResolutionGraph) -> tuple[tuple[int, ...], int]:
    """The solved b_j as integers over one common denominator: ``(X, D)``
    with b_j = X_j / D and D > 0, not reduced. Raises NotApplicable when
    the graph is not contractible, as boundary_coefficients, which is
    this pair with one Fraction built per vertex, does."""
    record = g._elimination
    if record is None:
        raise NotApplicable("exceptional configuration is not contractible")
    return record


def boundary_coefficients(g: ResolutionGraph) -> tuple[Fraction, ...]:
    """Solve for the b_j with zero intersection against every E_j; the
    tuple holds b_j by vertex index.

    The defining equation at vertex j, with c = selfint(j) and t the sum
    of branch coefficients crossing E_j, is

        (c - 2) + sum_{i adjacent to j} b_i - c * b_j + t = 0,

    using adjunction K.E_j = c - 2 for a rational curve of
    self-intersection -c. The discrepancy of E_j is -b_j. The tuple is
    built from solved_numerators on every call, and the graph does not
    keep it; the invariants below read the numerators and never build it.
    """
    numerators, den = solved_numerators(g)
    return tuple(Fraction(x, den) for x in numerators)


def log_canonical_class(g: ResolutionGraph) -> LcClass:
    """Read the singularity class off the solved coefficients.

    NOT_LC when some b_j exceeds 1 (the largest numerator X_j passes
    the common denominator D); LC_CENTER when the maximum solved
    coefficient is exactly 1; otherwise PLT when a coefficient-1 branch
    passes through, else KLT. On the empty graph the branches cross at
    the ambient smooth point itself, so the blowup there plays the role
    of the missing exceptional curve: its solved coefficient would be
    (sum of branch coefficients) - 1, and the same thresholds apply.
    Raises NotApplicable when the graph is not contractible.
    """
    return g._lc_class


def cartier_index(g: ResolutionGraph) -> int:
    """Least m >= 1 such that every m*b_j and m*coeff is an integer.

    Equals the lcm of all denominators. Numerically trivial integral
    divisors descend from the resolution, so this is the Cartier index
    of the log canonical divisor at the germ. Raises NotApplicable when
    the graph is not contractible or the germ is not log canonical.
    """
    return g._cartier_index
