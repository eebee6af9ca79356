"""Germ taxonomy: cyclic-quotient models, the shape decomposition of
decorated dual graphs, differents, and the non-normal trichotomy.

The cyclic quotient germ is the model pair

    (A^2, conductor * (y=0) + side * (x=0)) / (1/n)(1, q),

whose minimal resolution is the Hirzebruch-Jung chain of n/q. Every
classification here is purely combinatorial. A germ is turned into its
decorated dual graph, and one walk splits the graph into

  * the arm, the path of curves from the one carrying a coefficient-1
    branch to the far end, the first curve that carries another branch
    or does not go on in exactly one direction;
  * the prongs, bare -2 leaves hanging off the far end, which must be
    all that lies beyond it;
  * the far coefficients, those of the other branches, which the walk
    has put at the far end.

One table maps (prongs, far coefficients) to the shape:

    (0, (1,))            cyclic lc center
    (0, (1/2, 1/2))      dihedral 33
    (1, (1/2,))          dihedral 32
    (2, ())              dihedral 31
    (0, ()), (0, (c,))   plt chain, c < 1, with gamma = (1 - c)/n
                         for the arm's Hirzebruch-Jung string of n/q

Every arm curve has self-intersection label >= 2, except that the far
end may drop to 1 in the dihedral 32 and 33 shapes. The empty graph is
an empty arm, whose string gives n = 1. A graph that fits no shape is
UNCLASSIFIED, and its violation is the rule the decomposition broke,
in one of three texts that name no vertex:

  * a curve beyond the far end is not a bare -2 prong, because the graph
    goes on past it, else because it carries a branch, else because its
    label is not 2;
  * no shape or plt chain has the prong count and far coefficients;
  * a label-1 curve sits on the arm where the shape allows none.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index

from ._record import FrozenRecord
from .dualgraph import (VERTEX_LIMIT, LcClass, ResolutionGraph, cartier_index,
                        log_canonical_class)
from .errors import BadParameters, GlueMismatch, LimitExceeded, NotApplicable
from .rational import as_fraction

class CyclicQuotientGerm(FrozenRecord):
    """Parameters of the quotient model.

    ``conductor_coeff`` is the multiplicity of the (y=0) branch, 1 for a
    conductor. ``side_coeff`` is the multiplicity of the (x=0) branch;
    the value 1 marks a second conductor-type branch (the cyclic
    lc-center germ), values in [0, 1) the fractional boundary, and 0 an
    absent branch.
    """

    _fields = ("n", "q", "conductor_coeff", "side_coeff")

    def __init__(self, n: int, q: int, conductor_coeff: Fraction = Fraction(1),
                 side_coeff: Fraction = Fraction(0)):
        conductor_coeff = as_fraction(conductor_coeff, BadParameters, "conductor coefficient")
        side_coeff = as_fraction(side_coeff, BadParameters, "side coefficient")
        if not isinstance(n, int) or not isinstance(q, int):
            raise BadParameters(f"order n = {n!r} and weight q = {q!r} must be integers")
        if n < 1:
            raise BadParameters(f"order n = {n} must be >= 1")
        if not 1 <= q <= n:
            raise BadParameters(f"weight q = {q} outside [1, {n}]")
        if gcd(n, q) != 1:
            raise BadParameters(f"gcd({n}, {q}) != 1")
        # each denominator is positive, so the ranges are checked on the
        # numerators against the denominators
        if not 0 < conductor_coeff.numerator <= conductor_coeff.denominator:
            raise BadParameters(f"conductor coefficient {conductor_coeff} outside (0, 1]")
        if not 0 <= side_coeff.numerator <= side_coeff.denominator:
            raise BadParameters(f"side coefficient {side_coeff} outside [0, 1]")
        self._set(n, q, conductor_coeff, side_coeff)

    @cached_property
    def gamma(self) -> Fraction:
        """The invariant-generator slope (1 - side)/n, computed once."""
        return (1 - self.side_coeff) / self.n

    @cached_property
    def _graph(self) -> ResolutionGraph:
        """resolution_graph, built once per germ object."""
        chain = hj_expand(self.n, self.q)
        k = len(chain)
        left = 0 if k else None
        right = k - 1 if k else None
        # __init__ keeps the conductor coefficient in (0, 1]
        branches = [(left, self.conductor_coeff)]
        if self.side_coeff != 0:
            branches.append((right, self.side_coeff))
        return ResolutionGraph.chain(chain, branches)

    @cached_property
    def _class(self) -> GermClass:
        """germ_class, classified once per germ object."""
        return classify_lc_germ(self._graph)


class GermTag(str, Enum):
    PLT_CHAIN = "PLT_CHAIN"
    CYCLIC_NONPLT = "CYCLIC_NONPLT"
    DIHEDRAL_31 = "DIHEDRAL_31"
    DIHEDRAL_32 = "DIHEDRAL_32"
    DIHEDRAL_33 = "DIHEDRAL_33"
    UNCLASSIFIED = "UNCLASSIFIED"


LC_CENTER_TAGS = frozenset({GermTag.CYCLIC_NONPLT, GermTag.DIHEDRAL_31,
                            GermTag.DIHEDRAL_32, GermTag.DIHEDRAL_33})


def _check_index(cartier_index) -> None:
    if not isinstance(cartier_index, int) or cartier_index < 1:
        raise BadParameters(f"Cartier index {cartier_index!r} is not an integer >= 1")


class GermClass(FrozenRecord):
    """Taxonomy tag with the derived invariants.

    ``gamma`` is present exactly for plt chains. ``violation`` names the
    rule of the shape decomposition that failed when the tag is
    UNCLASSIFIED.
    """

    _fields = ("tag", "cartier_index", "gamma", "violation")

    def __init__(self, tag: GermTag, cartier_index: int, gamma: Fraction | None = None,
                 violation: str | None = None):
        if gamma is not None:
            as_fraction(gamma, BadParameters, "gamma")
        if tag is GermTag.PLT_CHAIN:
            if gamma is None or not 0 < gamma.numerator <= gamma.denominator:
                raise BadParameters("plt chain requires gamma in (0, 1]")
        _check_index(cartier_index)
        if tag in LC_CENTER_TAGS and 2 % cartier_index != 0:
            raise BadParameters(
                f"lc-center germ with Cartier index {cartier_index} not dividing 2")
        self._set(tag, cartier_index, gamma, violation)


class Trichotomy(str, Enum):
    LC_CENTER_CASE = "LC_CENTER_CASE"
    TWO_COMPONENT_PLT = "TWO_COMPONENT_PLT"
    ONE_COMPONENT_PLT = "ONE_COMPONENT_PLT"


class ClassGroup(str, Enum):
    RANK_ONE = "RANK_ONE"
    TORSION = "TORSION"


class NonNormalGerm(FrozenRecord):
    """One or two plt components glued along their conductors, or an
    lc-center germ. ``class_group`` reports rank 1 against torsion for
    the plt cases; ``cartier_index`` is reported for the lc-center case
    (it always divides 2)."""

    _fields = ("components", "trichotomy", "class_group", "cartier_index")

    def __init__(self, components: tuple[CyclicQuotientGerm, ...], trichotomy: Trichotomy,
                 class_group: ClassGroup | None = None, cartier_index: int | None = None):
        components = tuple(components)
        if trichotomy is Trichotomy.TWO_COMPONENT_PLT:
            if len(components) != 2 or class_group is not ClassGroup.RANK_ONE:
                raise BadParameters("two-component plt germ must have 2 components, rank-1 class group")
        if trichotomy is Trichotomy.ONE_COMPONENT_PLT:
            if len(components) != 1 or class_group is not ClassGroup.TORSION:
                raise BadParameters("one-component plt germ must have 1 component, torsion class group")
        if cartier_index is not None:
            _check_index(cartier_index)
        if trichotomy is Trichotomy.LC_CENTER_CASE and class_group is not None:
            raise BadParameters("an lc-center germ has no class group")
        if not 1 <= len(components) <= 2:
            raise BadParameters("a non-normal germ has 1 or 2 components")
        self._set(components, trichotomy, class_group, cartier_index)


def hj_expand(n: int, q: int) -> list[int]:
    """Continued-fraction string [c_1, ..., c_k] with
    n/q = c_1 - 1/(c_2 - 1/(... - 1/c_k)) and every c_i >= 2.

    The smooth case n = 1 returns the empty string. A string longer
    than VERTEX_LIMIT raises LimitExceeded as soon as its next entry
    would pass the limit, so n/(n-1), which has n - 1 entries, costs at
    most VERTEX_LIMIT steps whatever n is.
    """
    if not isinstance(n, int) or not isinstance(q, int):
        raise BadParameters(f"order n = {n!r} and weight q = {q!r} must be integers")
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
    n0, q0 = n, q
    while q > 0:
        if len(out) == VERTEX_LIMIT:
            raise LimitExceeded(f"the string of {n0}/{q0} has more than "
                                f"{VERTEX_LIMIT} curves")
        c = -(-n // q)
        out.append(c)
        n, q = q, c * q - n
    return out


def hj_contract(chain) -> tuple[int, int]:
    """Inverse of hj_expand: evaluate the string back to (n, q). Each
    entry is read with operator.index, so a float or a str is refused."""
    try:
        chain = list(map(index, chain))
    except TypeError:
        raise BadParameters("continued-fraction entries must be integers") from None
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


def germ_class(germ: CyclicQuotientGerm) -> GermClass:
    """classify_lc_germ of the germ's graph, once per germ object. A
    classification that raises caches nothing and raises on every call."""
    return germ._class


# (prongs, sorted (numerator, denominator) pairs of the far coefficients)
# -> (tag, whether the far end may carry label 1)
SHAPES = {
    (0, ((1, 1),)): (GermTag.CYCLIC_NONPLT, False),
    (0, ((1, 2), (1, 2))): (GermTag.DIHEDRAL_33, True),
    (1, ((1, 2),)): (GermTag.DIHEDRAL_32, True),
    (2, ()): (GermTag.DIHEDRAL_31, False),
}


def _decompose(g: ResolutionGraph) -> tuple[GermTag, Fraction | None, str | None]:
    """(tag, gamma, violation) of the graph: walk it from the first
    coefficient-1 branch into arm, prongs and far coefficients as the
    module docstring says, and look the shape up in SHAPES. A graph that
    fits no shape is UNCLASSIFIED, with the rule the walk broke. A graph
    with no coefficient-1 branch raises NotApplicable."""
    adj = g._adj
    # a coefficient in (0, 1] is 1 exactly when its terms are equal
    i = next((i for i, br in enumerate(g.branches)
              if br.coeff.numerator == br.coeff.denominator), None)
    if i is None:
        raise NotApplicable("no coefficient-1 branch through the point")
    rest = g.branches[:i] + g.branches[i + 1:]
    # each coefficient as its (numerator, denominator) pair, so that the
    # lookup hashes and compares integers only
    far = tuple(sorted([(br.coeff.numerator, br.coeff.denominator) for br in rest]))
    arm, ahead = [], []
    if g.n_vertices:
        attached = {br.attach for br in rest}
        v, prev = g.branches[i].attach, -1
        arm = [v]
        # step on while v has exactly one neighbour besides prev, which
        # in a tree is v's only neighbour at the start and one of two after
        while v not in attached and len(adj[v]) == (1 if prev < 0 else 2):
            w = adj[v][0]
            if w == prev:
                w = adj[v][1]
            arm.append(w)
            prev, v = v, w
        ahead = [w for w in adj[v] if w != prev]
        if any(len(adj[w]) != 1 or g.selfints[w] != 2 or w in attached
               for w in ahead):
            why = ("the graph goes on past it" if any(len(adj[w]) != 1 for w in ahead)
                   else "it carries a branch" if attached.intersection(ahead)
                   else "its label is not 2")
            return (GermTag.UNCLASSIFIED, None,
                    f"a curve beyond the far end is not a bare -2 prong: {why}")
    prongs = len(ahead)
    if prongs == 0 and len(far) <= 1 and (1, 1) not in far:
        tag, unit_end = GermTag.PLT_CHAIN, False
    else:
        tag, unit_end = SHAPES.get((prongs, far), (None, False))
        if tag is None:
            listed = ", ".join(str(c) for c in sorted(br.coeff for br in rest))
            return (GermTag.UNCLASSIFIED, None,
                    f"no shape or plt chain has prong count {prongs} and far "
                    f"coefficients [{listed}]")
    if not all(g.selfints[v] >= 2 for v in (arm[:-1] if unit_end else arm)):
        return (GermTag.UNCLASSIFIED, None, "self-intersection label 1 on the "
                "arm, allowed only at the far end of a dihedral 32 or 33 shape")
    if tag is not GermTag.PLT_CHAIN:
        return tag, None, None
    n, _q = hj_contract(g.selfints[v] for v in arm)
    # gamma = (1 - p/d)/n for the far coefficient p/d, or 1/n with none
    p, d = far[0] if far else (0, 1)
    return tag, Fraction(d - p, d * n), None


def classify_lc_germ(g: ResolutionGraph) -> GermClass:
    """Decompose the decorated graph and look its shape up in SHAPES.

    Requires a plt or lc-center germ carrying a coefficient-1 branch.
    Graphs outside the shapes come back UNCLASSIFIED with the broken
    rule of the decomposition spelled out, rather than raising.
    """
    lc = log_canonical_class(g)
    if lc not in (LcClass.PLT, LcClass.LC_CENTER):
        raise NotApplicable(f"germ classifies as {lc.value}, not plt or lc-center")
    tag, gamma, violation = _decompose(g)
    # a plt or lc-center graph has its index, so this raises nothing
    return GermClass(tag, cartier_index(g), gamma, violation)


def different_coeff(germ: CyclicQuotientGerm) -> Fraction:
    """Coefficient of the marked point in the adjunction different.

    For the model with conductor (y=0) and side coefficient 1 - c on
    (x=0), restricting to the conductor gives the correction

        (1 - 1/n + (1 - c)/n) [s] = (1 - c/n) [s] = (n - c)/n [s].
    """
    if germ.conductor_coeff != 1:
        raise NotApplicable("different along a branch of coefficient != 1")
    return 1 - germ.gamma


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

    classes = [germ_class(c) for c in components]
    if any(cl.tag in LC_CENTER_TAGS for cl in classes):
        index = lcm(*(cl.cartier_index for cl in classes))
        return NonNormalGerm(components, Trichotomy.LC_CENTER_CASE,
                             cartier_index=index)
    for cl in classes:
        if cl.tag is not GermTag.PLT_CHAIN:
            raise NotApplicable(f"component outside the germ taxonomy: {cl.violation}")
    if len(components) == 2:
        if not check_slc_glue(*components):
            d1, d2 = different_coeff(components[0]), different_coeff(components[1])
            raise GlueMismatch(f"conductor differents disagree: {d1} vs {d2}")
        return NonNormalGerm(components, Trichotomy.TWO_COMPONENT_PLT,
                             class_group=ClassGroup.RANK_ONE)
    return NonNormalGerm(components, Trichotomy.ONE_COMPONENT_PLT,
                         class_group=ClassGroup.TORSION)
