"""Exact rational scalars and their canonical text form.

Every numeric quantity in this package is a ``fractions.Fraction``, or an
integer numerator over an integer denominator; there is no floating
point anywhere. This module holds the canonical ``a/b`` text form used
by the CLI file format, its parser and formatters, and ``as_fraction``,
the one type rule for an exact coefficient argument. A result that
prints a number past the int-to-text digit limit is LimitExceeded; a
refusal's message writes its numbers by ``shown``, which puts TOO_LONG
in place of such a number, so the refusal keeps its type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import GermError, LimitExceeded

DIGITS_EXCEEDED = ("a number in the result has more digits than the "
                   "interpreter's integer-to-text conversion limit")
INPUT_DIGITS_EXCEEDED = ("a number in the input has more digits than the "
                         "interpreter's text-to-integer conversion limit")
TOO_LONG = "(too long to print)"

# ASCII: \d alone would match any Unicode decimal digit, which int() reads,
# and \s, like str.strip, any Unicode space; padding is [ \t\n\r\f\v] only
_RAT_RE = re.compile(r"\s*(-?\d+)(?:/([1-9]\d*))?\s*", re.ASCII)


def parse_rat(text: str) -> Fraction:
    """Parse the canonical form ``a/b``, or ``a`` when the denominator is 1.

    Decimal notation is rejected on purpose: the file format never goes
    through binary floats. Raises LimitExceeded when a term has more
    digits than the interpreter converts from text (4300 by default).
    """
    m = _RAT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError as exc:
        # the pattern admits only digits, so only the digit limit raises
        raise LimitExceeded(INPUT_DIGITS_EXCEEDED) from exc
    return Fraction(num, den)


def format_rat(q: Fraction) -> str:
    """Canonical text form; ``parse_rat`` inverts it exactly.

    Raises LimitExceeded when the numerator or the denominator has more
    digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    try:
        return str(q)
    except ValueError as exc:
        raise LimitExceeded(DIGITS_EXCEEDED) from exc


def format_ratio(num: int, den: int) -> str:
    """``format_rat(Fraction(num, den))`` for den > 0, reduced with one
    gcd and no Fraction. Raises LimitExceeded as format_rat does."""
    g = gcd(num, den)
    try:
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"
    except ValueError as exc:
        raise LimitExceeded(DIGITS_EXCEEDED) from exc


def format_ratios(numerators, den: int) -> list[str]:
    """``[format_ratio(x, den) for x in numerators]``, with the text of
    each distinct reduced denominator made once, however many numerators
    share it. A run of equal numerators, such as the b = 1 curves of an
    lc-center arm, is reduced once: each numerator equal to the one
    before it reuses that one's text. Raises LimitExceeded as
    format_ratio does."""
    texts, out = {den: ""}, []
    prev = text = None
    try:
        for x in numerators:
            if x != prev:
                g = gcd(x, den)
                tail = texts.get(g)
                if tail is None:
                    tail = texts[g] = f"/{den // g}"
                prev, text = x, f"{x // g}{tail}"
            out.append(text)
    except ValueError as exc:
        raise LimitExceeded(DIGITS_EXCEEDED) from exc
    return out


def shown(x, text=str) -> str:
    """``text(x)``, or TOO_LONG when int-to-text refuses a number of x."""
    try:
        return text(x)
    except ValueError:
        return TOO_LONG


def as_fraction(x, error: type[GermError], what: str) -> Fraction:
    """x, an int or a Fraction, as a Fraction; ``error`` refuses a bool and any other type."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)) and type(x) is not bool:
        return Fraction(x)
    raise error(f"{what} {shown(x, repr)} is not an integer or a Fraction")

