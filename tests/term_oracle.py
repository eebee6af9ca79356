"""The derived rationals of a report in Fraction arithmetic, the
reference for the integer-term forms in ``germcalc.germs``,
``germcalc.dualgraph`` and ``germcalc.cli``.

Each function is one expression as the package wrote it with Fraction
+, -, * and /, and with comparisons against the ints 0 and 1 and the
Fraction 1/2: the slope gamma = (1 - side)/n, the different 1 - gamma,
a plt chain's modification fields 1 - gamma and gamma - 1, the glue
coefficient c = 1 - side with its ``extrapolated`` test c >= 1/2, the
conductor-is-1 test, and the log canonical class of the empty graph
from the sum of its branch coefficients less 1. Nothing here reads a
numerator or a denominator.
"""

from fractions import Fraction

from germcalc.dualgraph import LcClass
from germcalc.errors import NotApplicable
from germcalc.rational import format_rat


def fraction_gamma(n: int, side) -> Fraction:
    """CyclicQuotientGerm.gamma: (1 - side)/n."""
    return (1 - side) / n


def fraction_conductor_is_one(conductor) -> bool:
    """The conductor test of different_coeff, check_slc_glue,
    classify_nonnormal and the report's different."""
    return conductor == 1


def fraction_different(n: int, conductor, side) -> Fraction:
    """different_coeff: 1 - gamma, or NotApplicable for a conductor != 1."""
    if not fraction_conductor_is_one(conductor):
        raise NotApplicable("different along a branch of coefficient != 1")
    return 1 - fraction_gamma(n, side)


def fraction_modification(gamma) -> dict:
    """GermFile.modification of a plt chain of slope gamma."""
    return {"extracted_coeff": format_rat(1 - gamma),
            "extracted_discrepancy": format_rat(gamma - 1),
            "perturbed": False}


def fraction_glue_coeffs(sides) -> list:
    """The glue coefficients c = 1 - side of a pair of components."""
    return [1 - side for side in sides]


def fraction_extrapolated(m: int, sides) -> bool:
    """The ``extrapolated`` flag of glue on a pair: m != 2 or some c >= 1/2."""
    return m != 2 or any(c >= Fraction(1, 2) for c in fraction_glue_coeffs(sides))


def fraction_empty_graph_class(coeffs) -> LcClass:
    """log_canonical_class of the empty graph with these branch
    coefficients: the virtual curve's sum less 1 against 1."""
    top = sum(coeffs, Fraction(0)) - 1
    if top > 1:
        return LcClass.NOT_LC
    if top == 1:
        return LcClass.LC_CENTER
    if any(c == 1 for c in coeffs):
        return LcClass.PLT
    return LcClass.KLT
