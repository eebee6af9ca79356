"""The conductor restriction of a cyclic quotient germ, read off its
toric model: the independent oracle for the restriction side, that is
the residue table's exponents, the different and the glued restriction
coefficient.

The group mu_n acts on A^2 by x -> e x and y -> e^q y. The conductor is
C = (y = 0), with coefficient 1, and the side branch is D = (x = 0),
with coefficient s in [0, 1]. The sections of omega^[m](mC + floor(ms) D)
are spanned by the invariant monomials x^a y^b (dx ^ dy)^m with
a >= -floor(ms) and b >= -m, where invariant means that the weight
a + q b + m (1 + q) is 0 mod n. The residue along C keeps the terms with
b = -m. On the quotient C / mu_n, with the coordinate u = x^n, the form
x^a (dx)^m is a unit times u^((a + m)/n - m) (du)^m, so the image's pole
order at the marked point is the largest m - (a + m)/n over the kept
terms. The target sheaf on C twists by floor(m Diff), where the
different is Diff = (1 - 1/n) + s (C . D) and C . D = 1/n (Kollar,
Singularities of the MMP, ch. 3-4).

Nothing here reads germcalc: the scan uses only the weights, and the
different only the intersection numbers.
"""

from fractions import Fraction
from math import floor


def image_pole_order(m: int, n: int, q: int, s: Fraction) -> int:
    """Pole order of the image of the degree-m residue along C, by a scan
    of the invariant monomials with b = -m and a from -m up to n - 1,
    which holds a full period of n above the bound -floor(ms) >= -m."""
    b = -m
    orders = []
    for a in range(-m, n):
        if a + m * s < 0:  # for an integer a, a >= -floor(ms) iff a >= -ms
            continue
        if (a + q * b + m * (1 + q)) % n:
            continue
        assert (a + m) % n == 0
        orders.append(m - (a + m) // n)
    return max(orders)


def toric_different(n: int, s: Fraction) -> Fraction:
    """Coefficient of the marked point in Diff_C(sD) = (1 - 1/n + s/n)[0]."""
    return 1 - Fraction(1, n) + Fraction(s) / n


def target_exponent(m: int, n: int, s: Fraction) -> int:
    """floor(m Diff): the twist of the target sheaf on C in degree m."""
    return floor(m * toric_different(n, s))
