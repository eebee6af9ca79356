"""Germ taxonomy: cyclic-quotient models, chain/fork pattern matching,
differents, and the non-normal trichotomy.

The cyclic quotient germ is the model pair

    (A^2, conductor * (y=0) + side * (x=0)) / (1/n)(1, q),

whose minimal resolution is the Hirzebruch-Jung chain of n/q. Every
classification here is purely combinatorial: a germ is turned into its
decorated dual graph and matched against five diagram shapes, a single
chain with a coefficient-1 branch at one end and either

  1. a fractional branch (or nothing) at the other end   -> plt chain,
  2. a second coefficient-1 branch at the other end       -> cyclic,
  3. a two-pronged fork at the other end, the prongs being bare
     -2 curves or coefficient-1/2 branches                -> dihedral.

The three dihedral variants are distinguished by how many prongs are
curves: two (31), one (32), none (33).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .dualgraph import (LcClass, ResolutionGraph, cartier_index,
                        log_canonical_class)
from .errors import BadParameters, GlueMismatch, NotApplicable

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CyclicQuotientGerm:
    """Parameters of the quotient model.

    ``conductor_coeff`` is the multiplicity of the (y=0) branch, 1 for a
    conductor. ``side_coeff`` is the multiplicity of the (x=0) branch;
    the value 1 marks a second conductor-type branch (the cyclic
    lc-center germ), values in [0, 1) the fractional boundary, and 0 an
    absent branch.
    """

    n: int
    q: int
    conductor_coeff: Fraction = Fraction(1)
    side_coeff: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "conductor_coeff", Fraction(self.conductor_coeff))
        object.__setattr__(self, "side_coeff", Fraction(self.side_coeff))
        if self.n < 1:
            raise BadParameters(f"order n = {self.n} must be >= 1")
        if not 1 <= self.q <= self.n:
            raise BadParameters(f"weight q = {self.q} outside [1, {self.n}]")
        if gcd(self.n, self.q) != 1:
            raise BadParameters(f"gcd({self.n}, {self.q}) != 1")
        if not 0 < self.conductor_coeff <= 1:
            raise BadParameters(f"conductor coefficient {self.conductor_coeff} outside (0, 1]")
        if not 0 <= self.side_coeff <= 1:
            raise BadParameters(f"side coefficient {self.side_coeff} outside [0, 1]")

    @property
    def gamma(self) -> Fraction:
        """The invariant-generator slope (1 - side)/n."""
        return (1 - self.side_coeff) / self.n

    @cached_property
    def _graph(self) -> ResolutionGraph:
        """resolution_graph, built once per germ object."""
        chain = hj_expand(self.n, self.q)
        k = len(chain)
        left = 0 if k else None
        right = k - 1 if k else None
        branches: list[tuple[int | None, Fraction]] = []
        if self.conductor_coeff != 0:
            branches.append((left, self.conductor_coeff))
        if self.side_coeff != 0:
            branches.append((right, self.side_coeff))
        return ResolutionGraph.chain(chain, branches)


class GermTag(str, Enum):
    PLT_CHAIN = "PLT_CHAIN"
    CYCLIC_NONPLT = "CYCLIC_NONPLT"
    DIHEDRAL_31 = "DIHEDRAL_31"
    DIHEDRAL_32 = "DIHEDRAL_32"
    DIHEDRAL_33 = "DIHEDRAL_33"
    UNCLASSIFIED = "UNCLASSIFIED"


LC_CENTER_TAGS = frozenset({GermTag.CYCLIC_NONPLT, GermTag.DIHEDRAL_31,
                            GermTag.DIHEDRAL_32, GermTag.DIHEDRAL_33})


@dataclass(frozen=True)
class GermClass:
    """Taxonomy tag with the derived invariants.

    ``gamma`` is present exactly for plt chains. ``violation`` names the
    diagram constraint that failed when the tag is UNCLASSIFIED.
    """

    tag: GermTag
    cartier_index: int
    gamma: Fraction | None = None
    violation: str | None = None

    def __post_init__(self):
        if self.tag is GermTag.PLT_CHAIN:
            if self.gamma is None or not 0 < self.gamma <= 1:
                raise BadParameters("plt chain requires gamma in (0, 1]")
        if self.tag in LC_CENTER_TAGS and 2 % self.cartier_index != 0:
            raise BadParameters(
                f"lc-center germ with Cartier index {self.cartier_index} not dividing 2")


class Trichotomy(str, Enum):
    LC_CENTER_CASE = "LC_CENTER_CASE"
    TWO_COMPONENT_PLT = "TWO_COMPONENT_PLT"
    ONE_COMPONENT_PLT = "ONE_COMPONENT_PLT"


class ClassGroup(str, Enum):
    RANK_ONE = "RANK_ONE"
    TORSION = "TORSION"


@dataclass(frozen=True)
class NonNormalGerm:
    """One or two plt components glued along their conductors, or an
    lc-center germ. ``class_group`` reports rank 1 against torsion for
    the plt cases; ``cartier_index`` is reported for the lc-center case
    (it always divides 2)."""

    components: tuple[CyclicQuotientGerm, ...]
    trichotomy: Trichotomy
    class_group: ClassGroup | None = None
    cartier_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.trichotomy is Trichotomy.TWO_COMPONENT_PLT:
            if len(self.components) != 2 or self.class_group is not ClassGroup.RANK_ONE:
                raise BadParameters("two-component plt germ must have 2 components, rank-1 class group")
        if self.trichotomy is Trichotomy.ONE_COMPONENT_PLT:
            if len(self.components) != 1 or self.class_group is not ClassGroup.TORSION:
                raise BadParameters("one-component plt germ must have 1 component, torsion class group")


def hj_expand(n: int, q: int) -> list[int]:
    """Continued-fraction string [c_1, ..., c_k] with
    n/q = c_1 - 1/(c_2 - 1/(... - 1/c_k)) and every c_i >= 2.

    The smooth case n = 1 returns the empty string.
    """
    if n < 1:
        raise BadParameters(f"order n = {n} must be >= 1")
    if n == 1:
        if q != 1:
            raise BadParameters("n = 1 requires q = 1")
        return []
    if not 1 <= q < n:
        raise BadParameters(f"weight q = {q} outside [1, {n - 1}]")
    if gcd(n, q) != 1:
        raise BadParameters(f"gcd({n}, {q}) != 1")
    out = []
    while q > 0:
        c = -(-n // q)
        out.append(c)
        n, q = q, c * q - n
    return out


def hj_contract(chain) -> tuple[int, int]:
    """Inverse of hj_expand: evaluate the string back to (n, q)."""
    chain = list(chain)
    if any(c < 2 for c in chain):
        raise BadParameters("continued-fraction entries must be >= 2")
    if not chain:
        return (1, 1)
    num, den = chain[-1], 1
    for c in reversed(chain[:-1]):
        num, den = c * num - den, num
    return (num, den)


def resolution_graph(germ: CyclicQuotientGerm) -> ResolutionGraph:
    """Decorated dual graph of the germ.

    The conductor branch attaches at the left end of the chain and the
    side branch at the right end; both attach at the ambient smooth
    point when the chain is empty. Zero-coefficient branches are
    omitted. The graph is built once per germ object, and every call on
    that object returns it, so the invariants cached on the graph are
    shared too.
    """
    return germ._graph


def _path_order(g: ResolutionGraph, adj: list[list[int]]) -> list[int] | None:
    """Vertices in path order, or None when the tree is not a path."""
    n = g.n_vertices
    if n == 0:
        return []
    if n == 1:
        return [0]
    if any(len(nb) > 2 for nb in adj):
        return None
    start = min(v for v in range(n) if len(adj[v]) == 1)
    order = [start]
    prev = -1
    while len(order) < n:
        nxt = next(w for w in adj[order[-1]] if w != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def _branchless_prongs(g: ResolutionGraph, adj: list[list[int]], f: int) -> list[int]:
    """Leaves adjacent to f that are bare -2 curves."""
    attached = {br.attach for br in g.branches}
    return [v for v in adj[f]
            if len(adj[v]) == 1 and g.selfints[v] == 2 and v not in attached]


def _arm_from(g: ResolutionGraph, adj: list[list[int]], f: int,
              removed: set[int]) -> list[int] | None:
    """Path order of the graph minus ``removed``, starting at f.

    Returns None unless the remainder is a path with f at one end.
    """
    keep = [v for v in range(g.n_vertices) if v not in removed]
    deg = {v: sum(1 for w in adj[v] if w not in removed) for v in keep}
    if any(d > 2 for d in deg.values()) or deg[f] > 1:
        return None
    order = [f]
    prev = -1
    while True:
        nxt = [w for w in adj[order[-1]] if w not in removed and w != prev]
        if not nxt:
            return order
        prev = order[-1]
        order.append(nxt[0])


def _match_cyclic(g: ResolutionGraph, order: list[int]):
    if len(g.branches) != 2 or any(br.coeff != 1 for br in g.branches):
        return None
    ends = sorted((order[0], order[-1]))
    if sorted(br.attach for br in g.branches) != (ends if order[0] != order[-1]
                                                  else [order[0], order[0]]):
        return None
    if len(order) > 1 and g.branches[0].attach == g.branches[1].attach:
        return None
    if any(g.selfints[v] < 2 for v in order):
        return None
    return GermTag.CYCLIC_NONPLT


def _match_plt(g: ResolutionGraph, order: list[int]):
    """Plt chain; returns gamma on success.

    The fractional end branch may carry any coefficient in (0, 1); the
    taxonomy's guarantees only cover [1/2, 1), but the plt chain and its
    slope are well defined below that window too.
    """
    ones = [br for br in g.branches if br.coeff == 1]
    others = [br for br in g.branches if br.coeff != 1]
    if len(ones) != 1 or len(others) > 1:
        return None
    conductor_end = ones[0].attach
    if conductor_end not in (order[0], order[-1]):
        return None
    side = Fraction(0)
    if others:
        far = order[-1] if conductor_end == order[0] else order[0]
        if others[0].attach != far:
            return None
        side = others[0].coeff
    if any(g.selfints[v] < 2 for v in order):
        return None
    oriented = order if conductor_end == order[0] else order[::-1]
    n, _q = hj_contract([g.selfints[v] for v in oriented])
    return GermTag.PLT_CHAIN, (1 - side) / n


def _match_d33(g: ResolutionGraph, order: list[int]):
    ones = [br for br in g.branches if br.coeff == 1]
    halves = [br for br in g.branches if br.coeff == HALF]
    if len(g.branches) != 3 or len(ones) != 1 or len(halves) != 2:
        return None
    fork = halves[0].attach
    if halves[1].attach != fork or fork not in (order[0], order[-1]):
        return None
    far = order[-1] if fork == order[0] else order[0]
    if ones[0].attach != far:
        return None
    # c_n = 1 is tolerated at the fork vertex only
    if any(g.selfints[v] < 2 for v in order if v != fork):
        return None
    return GermTag.DIHEDRAL_33


def _match_d31(g: ResolutionGraph, adj: list[list[int]]):
    if len(g.branches) != 1 or g.branches[0].coeff != 1:
        return None
    conductor = g.branches[0].attach
    for f in range(g.n_vertices):
        for p1, p2 in combinations(_branchless_prongs(g, adj, f), 2):
            arm = _arm_from(g, adj, f, {p1, p2})
            if arm is None or conductor != arm[-1]:
                continue
            if any(g.selfints[v] < 2 for v in arm):
                continue
            return GermTag.DIHEDRAL_31
    return None


def _match_d32(g: ResolutionGraph, adj: list[list[int]]):
    ones = [br for br in g.branches if br.coeff == 1]
    halves = [br for br in g.branches if br.coeff == HALF]
    if len(g.branches) != 2 or len(ones) != 1 or len(halves) != 1:
        return None
    f = halves[0].attach
    if f is None:
        return None
    for p in _branchless_prongs(g, adj, f):
        arm = _arm_from(g, adj, f, {p})
        if arm is None or ones[0].attach != arm[-1]:
            continue
        if any(g.selfints[v] < 2 for v in arm if v != f):
            continue
        return GermTag.DIHEDRAL_32
    return None


def _match_empty(g: ResolutionGraph):
    coeffs = sorted(br.coeff for br in g.branches)
    if coeffs == [1, 1]:
        return GermTag.CYCLIC_NONPLT, None
    if coeffs == [HALF, HALF, 1]:
        return GermTag.DIHEDRAL_33, None
    if coeffs == [1]:
        return GermTag.PLT_CHAIN, Fraction(1)
    if len(coeffs) == 2 and coeffs[1] == 1 and 0 < coeffs[0] < 1:
        return GermTag.PLT_CHAIN, 1 - coeffs[0]
    return None


def _diagnose(g: ResolutionGraph, adj: list[list[int]]) -> str:
    """Name one diagram constraint the graph violates."""
    if any(len(nb) > 3 for nb in adj):
        return "a vertex has more than three chain neighbors"
    if sum(1 for nb in adj if len(nb) == 3) > 1:
        return "more than one fork vertex"
    ones = sum(1 for br in g.branches if br.coeff == 1)
    if ones > 2:
        return "more than two coefficient-1 branches"
    order = _path_order(g, adj)
    if order is not None and g.n_vertices >= 1:
        ends = {order[0], order[-1]}
        for br in g.branches:
            if br.attach not in ends:
                return (f"branch of coefficient {br.coeff} attached to an "
                        "interior chain vertex")
        by_end = {e: g.branch_coeffs_at(e) for e in ends}
        for e, coeffs in by_end.items():
            if len(order) > 1 and len(coeffs) > 1 and 1 in coeffs:
                listed = ", ".join(str(c) for c in coeffs)
                return (f"branches with coefficients {listed} share the chain "
                        "end that carries the coefficient-1 branch")
    fractional = sorted(br.coeff for br in g.branches if br.coeff != 1)
    if len(fractional) >= 2 and any(c != HALF for c in fractional):
        bad = next(c for c in fractional if c != HALF)
        return f"fork branch coefficient {bad} is not 1/2"
    if any(c < 2 for c in g.selfints):
        return "self-intersection label 1 outside the fork position"
    return "does not match any chain or single-fork diagram shape"


def classify_lc_germ(g: ResolutionGraph) -> GermClass:
    """Match the decorated graph against the five diagram shapes.

    Requires a plt or lc-center germ carrying a coefficient-1 branch.
    Graphs outside the shapes come back UNCLASSIFIED with the violated
    constraint spelled out, rather than raising.
    """
    lc = log_canonical_class(g)
    if lc not in (LcClass.PLT, LcClass.LC_CENTER):
        raise NotApplicable(f"germ classifies as {lc.value}, not plt or lc-center")
    if not any(br.coeff == 1 for br in g.branches):
        raise NotApplicable("no coefficient-1 branch through the point")
    index = cartier_index(g)
    adj = g.adjacency()

    if g.n_vertices == 0:
        hit = _match_empty(g)
        if hit is not None:
            tag, gamma = hit
            return GermClass(tag, index, gamma)
        return GermClass(GermTag.UNCLASSIFIED, index, violation=_diagnose(g, adj))

    order = _path_order(g, adj)
    if order is not None:
        if (tag := _match_cyclic(g, order)) is not None:
            return GermClass(tag, index)
        if (hit := _match_plt(g, order)) is not None:
            return GermClass(hit[0], index, hit[1])
        if (tag := _match_d33(g, order)) is not None:
            return GermClass(tag, index)
    if (tag := _match_d31(g, adj)) is not None:
        return GermClass(tag, index)
    if (tag := _match_d32(g, adj)) is not None:
        return GermClass(tag, index)
    return GermClass(GermTag.UNCLASSIFIED, index, violation=_diagnose(g, adj))


def different_coeff(germ: CyclicQuotientGerm) -> Fraction:
    """Coefficient of the marked point in the adjunction different.

    For the model with conductor (y=0) and side coefficient 1 - c on
    (x=0), restricting to the conductor gives the correction

        (1 - 1/n + (1 - c)/n) [s] = (1 - c/n) [s] = (n - c)/n [s].
    """
    if germ.conductor_coeff != 1:
        raise NotApplicable("different along a branch of coefficient != 1")
    c = 1 - germ.side_coeff
    return 1 - c / germ.n


def check_slc_glue(g1: CyclicQuotientGerm, g2: CyclicQuotientGerm) -> bool:
    """True iff the two conductors carry equal differents, i.e.
    (1 - side_1)/n_1 = (1 - side_2)/n_2."""
    for g in (g1, g2):
        if g.conductor_coeff != 1:
            raise NotApplicable("glue check requires conductor coefficient 1")
    return g1.gamma == g2.gamma


def classify_nonnormal(components, glue_ok: bool) -> NonNormalGerm:
    """Sort a non-normal germ into its trichotomy: lc-center case,
    two glued plt components, or one plt component self-glued along an
    involution.

    ``glue_ok`` asserts that a gluing isomorphism (or self-involution
    for one component) of the conductors exists; it is modeling input,
    not something derivable from the combinatorial data.
    """
    components = tuple(components)
    if not 1 <= len(components) <= 2:
        raise BadParameters("a non-normal germ has 1 or 2 components")
    for comp in components:
        if comp.conductor_coeff != 1:
            raise NotApplicable("every component needs a marked conductor branch")
    if not glue_ok:
        raise GlueMismatch("no conductor gluing isomorphism/involution provided")

    classes = [classify_lc_germ(resolution_graph(c)) for c in components]
    if any(cl.tag in LC_CENTER_TAGS for cl in classes):
        index = lcm(*(cl.cartier_index for cl in classes))
        return NonNormalGerm(components, Trichotomy.LC_CENTER_CASE,
                             cartier_index=index)
    for cl in classes:
        if cl.tag is not GermTag.PLT_CHAIN:
            raise NotApplicable(f"component outside the germ taxonomy: {cl.violation}")
    if len(components) == 2:
        d1, d2 = different_coeff(components[0]), different_coeff(components[1])
        if d1 != d2:
            raise GlueMismatch(f"conductor differents disagree: {d1} vs {d2}")
        return NonNormalGerm(components, Trichotomy.TWO_COMPONENT_PLT,
                             class_group=ClassGroup.RANK_ONE)
    return NonNormalGerm(components, Trichotomy.ONE_COMPONENT_PLT,
                         class_group=ClassGroup.TORSION)
