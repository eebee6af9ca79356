"""The residue table in Fraction arithmetic, the reference for the
integer kernel of ``germcalc.residue``.

Each row takes ceil(m g) and floor(m (1 - g)) from the Fraction
scalings of ``germcalc.rational`` and checks the table's invariants as
it goes: the slope lies in [0, 1], the deficit is not negative, and the
restriction is surjective exactly when the deficit vanishes.
"""

from germcalc.rational import ceil_scale, floor_scale


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
