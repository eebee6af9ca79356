"""Exact operation counts: the graph kernel's arithmetic is linear in the
curve count, and a report's text takes one gcd per run of equal numerators.

``Counted`` is an int whose ``+``, ``-``, ``*``, ``//`` and negation,
reflected forms included, return a Counted and count one operation each;
a product also adds the product of its factors' bit lengths to a bit
cost. Put into a built graph's labels, it spreads through ``_eliminate``,
since a plain int meeting it dispatches to its reflected methods. The
counts need no timer, so they do not move with the host's load.
"""

from fractions import Fraction

import pytest

from germcalc import dualgraph, rational
from germcalc.cli import GermFile
from germcalc.dualgraph import BoundaryBranch, ResolutionGraph

# most operations per curve that one elimination may take, on every rung
OPS_PER_CURVE = 12


class Counted(int):
    ops = 0
    bits = 0

    def __neg__(self):
        Counted.ops += 1
        return Counted(-int(self))


def _counting(name):
    op = getattr(int, name)

    def method(self, other):
        result = op(self, other)
        if result is NotImplemented:
            return result
        Counted.ops += 1
        if name in ("__mul__", "__rmul__"):
            Counted.bits += int.bit_length(self) * int.bit_length(other)
        return Counted(result)
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__floordiv__", "__rfloordiv__"):
    setattr(Counted, _name, _counting(_name))


def _count(g):
    """(operations, bit cost) of one elimination of g with counted labels;
    ``_labels`` turns labels back into plain ints, so they are put in
    through ``__dict__`` after the graph is built."""
    g.__dict__["selfints"] = tuple(map(Counted, g.selfints))
    Counted.ops = Counted.bits = 0
    numerators, den = dualgraph._eliminate(g)
    assert den > 0 and len(numerators) == g.n_vertices
    return Counted.ops, Counted.bits


def _chain(n):
    """A chain of n 2s with a coefficient-1 branch on curve 0."""
    return ResolutionGraph.chain([2] * n, [(0, 1)])


def _fork(n):
    """The dihedral 31 fork of n 2s: a chain of n - 1 and a leaf on its
    last curve but one, with a coefficient-1 branch on curve 0."""
    return ResolutionGraph._rooted([2] * n, (n - 3,), [BoundaryBranch(0, Fraction(1))])


def _caterpillar(k):
    """A chain of k 3s with a prong of label 3 on every other chain curve."""
    forks = tuple(range(1, k, 2))
    return ResolutionGraph._rooted([3] * (k + len(forks)), forks,
                                   [BoundaryBranch(0, Fraction(1))])


# the caterpillar stops at 3 * 10^3 chain curves: its numbers grow
# linearly, so its bit cost is quadratic
@pytest.mark.parametrize("build, sizes", [
    (_chain, (10, 10**2, 10**3, 10**4)),
    (_fork, (10, 10**2, 10**3, 10**4)),
    (_caterpillar, (10, 10**2, 10**3, 3 * 10**3)),
], ids=["chain", "fork", "caterpillar"])
def test_the_elimination_takes_a_bounded_number_of_operations_per_curve(build, sizes):
    for size in sizes:
        g = build(size)
        ops, bits = _count(g)
        n = g.n_vertices
        assert ops <= OPS_PER_CURVE * n, (
            f"{build.__name__}({size}): {ops / n:.2f} operations per curve, "
            f"bit cost {bits}")


@pytest.mark.parametrize("graph, gcds", [
    # a D32 fork: the arm's b = 1 curves share one numerator, the prong has its own
    (ResolutionGraph._rooted([2] * 1000, (998,), [BoundaryBranch(0, Fraction(1)),
                                                  BoundaryBranch(998, Fraction(1, 2))]), 2),
    # a plt chain of 3s: every numerator differs from the one before it
    (ResolutionGraph.chain([3] * 1000, [(0, 1)]), 1000),
], ids=["D32-fork", "chain-of-3s"])
def test_a_discrepancy_takes_one_gcd_per_run_of_equal_numerators(monkeypatch, graph, gcds):
    calls = []
    gcd = rational.gcd
    monkeypatch.setattr(rational, "gcd", lambda *args: calls.append(args) or gcd(*args))
    numerators, _ = dualgraph.solved_numerators(graph)
    runs = 1 + sum(a != b for a, b in zip(numerators, numerators[1:]))
    assert GermFile(graph=graph).discrepancy["lc_class"] in ("PLT", "LC_CENTER")
    assert len(calls) == runs == gcds
