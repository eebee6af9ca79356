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

A plt chain's gamma is read off the elimination as 1 - b at the
conductor's curve, the same number.

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

An lc center has Cartier index 1 or 2, so its class is one of eight
frozen GermClass records, built once at import and shared by every
classify_lc_germ call that returns one; whether two equal classes are
one object is not part of the API. The call finds the record by the
tag's value and the index, and hashes no member. Plt chain and
UNCLASSIFIED classes are built per call.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from ._record import FrozenRecord, memoized
from .dualgraph import _LC_CENTER, _PLT, VERTEX_LIMIT, BoundaryBranch, ResolutionGraph
from .errors import BadParameters, GlueMismatch, LimitExceeded, NotApplicable
from .rational import DIGITS_EXCEEDED, as_fraction


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
        _check_order_weight(n, q)
        # each denominator is positive, so the ranges are checked on the
        # numerators against the denominators
        if not 0 < conductor_coeff.numerator <= conductor_coeff.denominator:
            raise BadParameters(f"conductor coefficient {conductor_coeff} outside (0, 1]")
        if not 0 <= side_coeff.numerator <= side_coeff.denominator:
            raise BadParameters(f"side coefficient {side_coeff} outside [0, 1]")
        self._set(n=n, q=q, conductor_coeff=conductor_coeff, side_coeff=side_coeff)

    @memoized
    def gamma(self) -> Fraction:
        """The invariant-generator slope (1 - side)/n: (d - p)/(d n) for side p/d."""
        p, d = self.side_coeff.numerator, self.side_coeff.denominator
        return Fraction(d - p, d * self.n)

    @memoized
    def classification(self) -> GermClass:
        """classify_lc_germ of the germ's graph, once per germ object. A
        classification that raises stores nothing and raises on every read."""
        return classify_lc_germ(self._graph)

    @memoized
    def _graph(self) -> ResolutionGraph:
        """resolution_graph, built once per germ object."""
        chain = hj_expand(self.n, self.q)
        k = len(chain)
        # __init__ keeps the conductor coefficient in (0, 1]
        branches = [BoundaryBranch(0 if k else None, self.conductor_coeff)]
        if self.side_coeff.numerator:
            branches.append(BoundaryBranch(k - 1 if k else None, self.side_coeff))
        # hj_expand's labels are ints >= 2, so they need no check
        return ResolutionGraph._rooted(chain, range(-1, k - 1), branches)


class GermTag(str, Enum):
    PLT_CHAIN = "PLT_CHAIN"
    CYCLIC_NONPLT = "CYCLIC_NONPLT"
    DIHEDRAL_31 = "DIHEDRAL_31"
    DIHEDRAL_32 = "DIHEDRAL_32"
    DIHEDRAL_33 = "DIHEDRAL_33"
    UNCLASSIFIED = "UNCLASSIFIED"


# the members read on every call, as module names, like dualgraph's
# LcClass names: a read through the class costs several times more
_PLT_CHAIN, _UNCLASSIFIED = GermTag.PLT_CHAIN, GermTag.UNCLASSIFIED


# (prongs, sorted (numerator, denominator) pairs of the far coefficients)
# -> (tag, whether the far end may carry label 1)
SHAPES = {
    (0, ((1, 1),)): (GermTag.CYCLIC_NONPLT, False),
    (0, ((1, 2), (1, 2))): (GermTag.DIHEDRAL_33, True),
    (1, ((1, 2),)): (GermTag.DIHEDRAL_32, True),
    (2, ()): (GermTag.DIHEDRAL_31, False),
}
# the tags of the lc-center shapes; every other tag is plt or UNCLASSIFIED
LC_CENTER_TAGS = frozenset(tag for tag, _ in SHAPES.values())


def _check_index(cartier_index) -> None:
    if type(cartier_index) is not int or cartier_index < 1:
        raise BadParameters(f"Cartier index {cartier_index!r} is not an integer >= 1")


class GermClass(FrozenRecord):
    """Taxonomy tag with the derived invariants.

    ``gamma`` is stored as a Fraction even when given as an int. The
    constructor requires it, in (0, 1], for a plt chain, and takes it
    with any other tag too; ``classify_lc_germ`` gives it exactly for
    plt chains. ``violation`` names the rule of the shape decomposition
    that failed when classify_lc_germ's tag is UNCLASSIFIED.
    """

    _fields = ("tag", "cartier_index", "gamma", "violation")

    def __init__(self, tag: GermTag, cartier_index: int, gamma: Fraction | None = None,
                 violation: str | None = None):
        if gamma is not None:
            gamma = as_fraction(gamma, BadParameters, "gamma")
        # GermTag has members, so it has no subclass: a str equal to a
        # member's value passes == but no is test
        if type(tag) is not GermTag:
            raise BadParameters(f"tag {tag!r} is not a GermTag")
        if tag is _PLT_CHAIN:
            if gamma is None or not 0 < gamma.numerator <= gamma.denominator:
                raise BadParameters("plt chain requires gamma in (0, 1]")
        _check_index(cartier_index)
        # the index test first: it is cheaper than hashing the tag
        if 2 % cartier_index != 0 and tag in LC_CENTER_TAGS:
            raise BadParameters(
                f"lc-center germ with Cartier index {cartier_index} not dividing 2")
        self._set(tag=tag, cartier_index=cartier_index, gamma=gamma, violation=violation)


# every lc center has Cartier index 1 or 2, so its class is one of these
# eight records, shared by every classify_lc_germ call that returns it:
# the records of index 1 and 2 by the tag's value, a str, since a member
# hashes through a Python-level __hash__
_LC_CENTER_CLASSES = {tag._value_: (GermClass(tag, 1), GermClass(tag, 2))
                      for tag in LC_CENTER_TAGS}


class Trichotomy(str, Enum):
    LC_CENTER_CASE = "LC_CENTER_CASE"
    TWO_COMPONENT_PLT = "TWO_COMPONENT_PLT"
    ONE_COMPONENT_PLT = "ONE_COMPONENT_PLT"


class ClassGroup(str, Enum):
    RANK_ONE = "RANK_ONE"
    TORSION = "TORSION"


# Trichotomy's members as module names, as GermTag's are, and the class
# group of each plt case; an lc center's trichotomy is not a key
_LC_CENTER_CASE = Trichotomy.LC_CENTER_CASE
_TWO_COMPONENT_PLT = Trichotomy.TWO_COMPONENT_PLT
_ONE_COMPONENT_PLT = Trichotomy.ONE_COMPONENT_PLT
_CLASS_GROUPS = {_TWO_COMPONENT_PLT: ClassGroup.RANK_ONE,
                 _ONE_COMPONENT_PLT: ClassGroup.TORSION}


class NonNormalGerm(FrozenRecord):
    """One or two plt components glued along their conductors, or an
    lc-center germ. ``class_group``, read off the trichotomy, is rank 1
    or torsion for the plt cases; ``cartier_index`` is reported for the
    lc-center case only. classify_nonnormal gives it the lcm of the
    components' indices, which divides 2 when every component is an lc
    center, but not when an lc-center component is glued to a plt one."""

    _fields = ("components", "trichotomy", "cartier_index")

    def __init__(self, components: tuple[CyclicQuotientGerm, ...], trichotomy: Trichotomy,
                 cartier_index: int | None = None):
        components = tuple(components)
        if trichotomy is _TWO_COMPONENT_PLT and len(components) != 2:
            raise BadParameters("two-component plt germ must have 2 components, rank-1 class group")
        if trichotomy is _ONE_COMPONENT_PLT and len(components) != 1:
            raise BadParameters("one-component plt germ must have 1 component, torsion class group")
        if cartier_index is not None:
            _check_index(cartier_index)
        if not 1 <= len(components) <= 2:
            raise BadParameters("a non-normal germ has 1 or 2 components")
        if not isinstance(trichotomy, Trichotomy):
            # a str equal to a member passes == but none of the is tests
            raise BadParameters(f"trichotomy {trichotomy!r} is not a Trichotomy")
        if cartier_index is not None and trichotomy is not _LC_CENTER_CASE:
            raise BadParameters("a plt non-normal germ has no Cartier index")
        self._set(components=components, trichotomy=trichotomy, cartier_index=cartier_index)

    @property
    def class_group(self) -> ClassGroup | None:
        """RANK_ONE for two plt components, TORSION for one, None for an lc center."""
        return _CLASS_GROUPS.get(self.trichotomy)


def _check_order_weight(n, q) -> None:
    """Refuse an order n and weight q that are not ints with n >= 1,
    1 <= q <= n and gcd(n, q) = 1; q = n passes only at n = 1."""
    if type(n) is not int or type(q) is not int:
        raise BadParameters(f"order n = {n!r} and weight q = {q!r} must be integers")
    if n < 1:
        raise BadParameters(f"order n = {n} must be >= 1")
    if not 1 <= q <= n:
        raise BadParameters(f"weight q = {q} outside [1, {n}]")
    if gcd(n, q) != 1:
        raise BadParameters(f"gcd({n}, {q}) != 1")


def hj_expand(n: int, q: int) -> list[int]:
    """Continued-fraction string [c_1, ..., c_k] with
    n/q = c_1 - 1/(c_2 - 1/(... - 1/c_k)) and every c_i >= 2.

    Refuses the pairs CyclicQuotientGerm refuses, with its texts. The
    smooth case n = 1 returns the empty string. A run of 2s takes one
    step: a 2 takes (n, q) to (q, 2q - n), which keeps d = n - q and
    takes d off q, so the run is q // d entries long. A string longer
    than VERTEX_LIMIT raises LimitExceeded as soon as its next entry
    would pass the limit, so n/(n-1), n - 1 entries of 2, costs one
    step whatever n is.
    """
    _check_order_weight(n, q)
    if n == 1:
        return []
    out = []
    n0, q0 = n, q
    while q:
        d = n - q
        if q >= d:
            run = q // d
            if len(out) + run > VERTEX_LIMIT:
                break
            out += [2] * run
            q -= run * d
            n = q + d
        elif len(out) == VERTEX_LIMIT:
            break
        else:
            c = -(-n // q)
            out.append(c)
            n, q = q, c * q - n
    if q:
        raise LimitExceeded(f"the string of {n0}/{q0} has more than "
                            f"{VERTEX_LIMIT} curves")
    return out


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


def _decompose(g: ResolutionGraph) -> tuple[GermTag, Fraction | None, str | None]:
    """(tag, gamma, violation) of the graph: walk it from the first
    coefficient-1 branch into arm, prongs and far coefficients as the
    module docstring says, and look the shape up in SHAPES. A graph that
    fits no shape is UNCLASSIFIED, with the rule the walk broke. A graph
    with no coefficient-1 branch raises NotApplicable. A plt chain's
    gamma is 1 - b at the arm's first curve, read off the graph's
    elimination. The walk is plain loops: a classification that fits a
    shape creates no generator, reads each coefficient's terms with one
    as_integer_ratio call, and reads no member through GermTag."""
    branches, labels = g.branches, g.selfints
    # one pass: the first coefficient-1 branch, and each other branch's
    # coefficient as its (numerator, denominator) pair, so that the lookup
    # hashes and compares integers only; a coefficient in (0, 1] is 1
    # exactly when its terms are equal
    one = None
    far, attached = [], set()
    for br in branches:
        terms = br.coeff.as_integer_ratio()
        if one is None and terms[0] == terms[1]:
            one = br
        else:
            far.append(terms)
            attached.add(br.attach)
    if one is None:
        raise NotApplicable("no coefficient-1 branch through the point")
    far.sort()
    far = tuple(far)
    arm, ahead = [], ()
    if labels:
        adj = g._adj
        v = one.attach
        arm = [v]
        ahead = adj[v]
        # the first step, when v is a leaf with no other branch
        if v not in attached and len(ahead) == 1:
            prev, v = v, ahead[0]
            arm.append(v)
            ahead = adj[v]
            # step on while v has exactly one neighbour besides prev
            while v not in attached and len(ahead) == 2:
                w = ahead[0]
                if w == prev:
                    w = ahead[1]
                arm.append(w)
                prev, v = v, w
                ahead = adj[v]
            # in a tree prev is v's neighbour once: the rest lie ahead
            ahead = list(ahead)
            ahead.remove(prev)
        for w in ahead:
            if len(adj[w]) != 1 or labels[w] != 2 or w in attached:
                why = ("the graph goes on past it" if any(len(adj[w]) != 1 for w in ahead)
                       else "it carries a branch" if attached.intersection(ahead)
                       else "its label is not 2")
                return (_UNCLASSIFIED, None,
                        f"a curve beyond the far end is not a bare -2 prong: {why}")
    prongs = len(ahead)
    if prongs == 0 and len(far) <= 1 and (1, 1) not in far:
        tag, unit_end = _PLT_CHAIN, False
    else:
        tag, unit_end = SHAPES.get((prongs, far), (None, False))
        if tag is None:
            # by position: one branch object may sit in the tuple twice
            i = branches.index(one)
            rest = branches[:i] + branches[i + 1:]
            listed = ", ".join(str(c) for c in sorted(br.coeff for br in rest))
            return (_UNCLASSIFIED, None,
                    f"no shape or plt chain has prong count {prongs} and far "
                    f"coefficients [{listed}]")
    for v in arm[:-1] if unit_end else arm:
        # labels are ints >= 1, so a label below 2 is a 1
        if labels[v] == 1:
            return (_UNCLASSIFIED, None, "self-intersection label 1 on the "
                    "arm, allowed only at the far end of a dihedral 32 or 33 shape")
    if tag is not _PLT_CHAIN:
        return tag, None, None
    if arm:
        # classify_lc_germ's read of g._lc_class has stored the elimination
        numerators, den = g._elimination
        return tag, Fraction(den - numerators[arm[0]], den), None
    # the empty graph: gamma = 1 - p/d for the far coefficient p/d, or 1 with none
    p, d = far[0] if far else (0, 1)
    return tag, Fraction(d - p, d), None


def classify_lc_germ(g: ResolutionGraph) -> GermClass:
    """Decompose the decorated graph and look its shape up in SHAPES.

    Requires a plt or lc-center germ carrying a coefficient-1 branch.
    Graphs outside the shapes come back UNCLASSIFIED with the broken
    rule of the decomposition spelled out, rather than raising.
    """
    lc = g._lc_class
    if lc is not _PLT and lc is not _LC_CENTER:
        raise NotApplicable(f"germ classifies as {lc.value}, not plt or lc-center")
    tag, gamma, violation = _decompose(g)
    # a plt or lc-center graph has its index, so this raises nothing
    index = g._cartier_index
    shared = _LC_CENTER_CLASSES.get(tag._value_)
    if shared is not None and index <= 2:
        return shared[index - 1]
    # a plt chain, UNCLASSIFIED, or an lc center whose index GermClass refuses
    return GermClass(tag, index, gamma, violation)


def different_coeff(germ: CyclicQuotientGerm) -> Fraction:
    """Coefficient of the marked point in the adjunction different.

    For the model with conductor (y=0) and side coefficient 1 - c on
    (x=0), restricting to the conductor gives the correction

        (1 - 1/n + (1 - c)/n) [s] = (1 - c/n) [s] = (1 - gamma) [s].
    """
    if germ.conductor_coeff.numerator != germ.conductor_coeff.denominator:
        raise NotApplicable("different along a branch of coefficient != 1")
    return Fraction(germ.gamma.denominator - germ.gamma.numerator, germ.gamma.denominator)


def check_slc_glue(g1: CyclicQuotientGerm, g2: CyclicQuotientGerm) -> bool:
    """True iff the two conductors carry equal differents, i.e.
    (1 - side_1)/n_1 = (1 - side_2)/n_2."""
    for g in (g1, g2):
        if g.conductor_coeff.numerator != g.conductor_coeff.denominator:
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
        if comp.conductor_coeff.numerator != comp.conductor_coeff.denominator:
            raise NotApplicable("every component needs a marked conductor branch")
    if not glue_ok:
        raise GlueMismatch("no conductor gluing isomorphism/involution provided")

    # a component with a conductor classifies as CYCLIC_NONPLT at side 1
    # and as PLT_CHAIN below it, so every component is one of the two
    classes = [c.classification for c in components]
    if any(cl.tag in LC_CENTER_TAGS for cl in classes):
        index = lcm(*(cl.cartier_index for cl in classes))
        return NonNormalGerm(components, _LC_CENTER_CASE, cartier_index=index)
    if len(components) == 2:
        if not check_slc_glue(*components):
            d1, d2 = different_coeff(components[0]), different_coeff(components[1])
            try:
                differents = f"{d1} vs {d2}"
            except ValueError:
                # only int-to-text raises it: a different past the digit limit
                differents = f"too long to print: {DIGITS_EXCEEDED}"
            raise GlueMismatch(f"conductor differents disagree: {differents}")
        return NonNormalGerm(components, _TWO_COMPONENT_PLT)
    return NonNormalGerm(components, _ONE_COMPONENT_PLT)
