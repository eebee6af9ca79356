"""The residue table in Fraction arithmetic, the reference for the
integer kernel of ``germcalc.residue``.

Each row takes ceil(m g) from ``ceil_scale`` here and floor(m (1 - g))
from ``germcalc.rational.floor_scale``, both Fraction scalings, and
checks the table's invariants as it goes: the slope lies in [0, 1], the
deficit is not negative, and the restriction is surjective exactly when
the deficit vanishes.
"""

from germcalc.rational import floor_scale


def ceil_scale(m: int, q) -> int:
    """Return the smallest integer >= m*q."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return -((-m * q.numerator) // q.denominator)


def fraction_table(gamma, m_max: int) -> list[dict]:
    """Rows m = 1..m_max at the slope gamma, keyed as the CLI prints them."""
    assert 0 <= gamma <= 1
    rows = []
    for m in range(1, m_max + 1):
        source = ceil_scale(m, gamma)
        target = floor_scale(m, 1 - gamma)
        deficit = target - (m - source)
        surjective = deficit == 0
        assert deficit >= 0 and surjective == (m - source == target)
        rows.append({"m": m, "source_exponent": source, "target_exponent": target,
                     "surjective": surjective, "deficit": deficit})
    return rows
