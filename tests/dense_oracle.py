"""Dense reference oracles for the dual-graph kernel.

Plain Gaussian elimination and Bareiss determinants over the full
intersection matrix, built here from the graph's edges, with no use of
the tree structure. They are slow (O(n^3) and O(n^4)) and serve only as
independent checks of ``germcalc.dualgraph``'s leaf-to-root elimination.
"""

from fractions import Fraction
from math import lcm


def intersection_matrix(g) -> list[list[int]]:
    """M[i][i] = -selfint(i); M[i][j] = 1 exactly on edges, read off the
    graph's raw fields."""
    n = g.n_vertices
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -g.selfints[i]
    for i, j in g.edges:
        m[i][j] = m[j][i] = 1
    return m


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def leading_principal_minors(m: list[list[int]]) -> list[int]:
    return [det_bareiss([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def sylvester_negative_definite(g) -> bool:
    """Sylvester's criterion: the k-th leading minor has sign (-1)^k."""
    minors = leading_principal_minors(intersection_matrix(g))
    return all(d * (-1) ** k > 0 for k, d in enumerate(minors, start=1))


def dense_boundary_coefficients(g) -> tuple[Fraction, ...] | None:
    """Solve M b = r by elimination with row swaps; None if M is singular.

    r_j = 2 - selfint(j) - (sum of branch coefficients at j), the
    right-hand side of the zero-intersection equations.
    """
    n = g.n_vertices
    a = [[Fraction(x) for x in row] for row in intersection_matrix(g)]
    b = [Fraction(2 - c) for c in g.selfints]
    for br in g.branches:
        b[br.attach] -= br.coeff
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum((a[r][c] * x[c] for c in range(r + 1, n)), Fraction(0))
        x[r] = s / a[r][r]
    return tuple(x)


def dense_log_canonical_class(g) -> str | None:
    """The lc class's name read off the dense solve of a graph with at
    least one vertex, or None when Sylvester's criterion finds it not
    contractible: NOT_LC if some b_j > 1, else LC_CENTER if some
    b_j = 1, else PLT if a coefficient-1 branch passes, else KLT."""
    if not sylvester_negative_definite(g):
        return None
    solved = dense_boundary_coefficients(g)
    if any(b > 1 for b in solved):
        return "NOT_LC"
    if any(b == 1 for b in solved):
        return "LC_CENTER"
    if any(br.coeff == 1 for br in g.branches):
        return "PLT"
    return "KLT"


def dense_cartier_index(g) -> int | None:
    """lcm of the denominators of the dense solve and of the branch
    coefficients, or None when the germ is not contractible or not lc."""
    if dense_log_canonical_class(g) in (None, "NOT_LC"):
        return None
    dens = [b.denominator for b in dense_boundary_coefficients(g)]
    dens.extend(br.coeff.denominator for br in g.branches)
    return lcm(1, *dens)
