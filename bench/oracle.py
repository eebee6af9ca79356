"""Expected outputs computed without importing germcalc.

Every number here comes from the benchmark's own exact arithmetic:

* Hirzebruch-Jung strings and their inverse, by the continued-fraction
  recursion;
* discrepancies of cyclic quotient germs from the toric closed form: on
  the fan of the cone spanned by u_0 = (0, 1) and u_{k+1} = (n, -q), the
  log discrepancy is the linear function phi with phi(u_0) = 1 - conductor
  and phi(u_{k+1}) = 1 - side, evaluated at the HJ rays u_i, which satisfy
  u_{i+1} = c_i u_i - u_{i-1} from u_0, u_1 = (1, 0);
* discrepancies of other trees from a leaf-to-root elimination that is
  exact and has no fill-in, which also decides negative definiteness;
* residue rows from ceil(m gamma) and floor(m (1 - gamma));
* the first rounding failure by a brute-force scan over one period.

The report builders turn these into the bytes a correct
``germcalc report`` prints: JSON with sorted keys, indent 2, and
canonical ``a/b`` rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ONE = Fraction(1)
HALF = Fraction(1, 2)
M_MAX = 24


def hj_expand(n: int, q: int) -> list[int]:
    """[c_1, ..., c_k] with n/q = c_1 - 1/(c_2 - ...); empty for n = 1."""
    out = []
    while q > 0 and n > 1:
        c = -(-n // q)
        out.append(c)
        n, q = q, c * q - n
    return out


def hj_contract(chain) -> tuple[int, int]:
    num, den = 1, 0
    for c in reversed(chain):
        num, den = c * num - den, num
    return num, den


@dataclass(frozen=True)
class Spec:
    """A decorated dual graph: path ``chain`` (vertices 0..k-1), leaf
    ``forks`` as (attach, selfint), ``branches`` as (attach, coeff).
    Indices are 0-based; attach None is the ambient point of an empty
    graph."""

    chain: tuple[int, ...]
    forks: tuple[tuple[int, int], ...] = ()
    branches: tuple[tuple[int | None, Fraction], ...] = ()

    @property
    def selfints(self) -> list[int]:
        return list(self.chain) + [s for _, s in self.forks]

    def edges(self) -> list[tuple[int, int]]:
        k = len(self.chain)
        return ([(i, i + 1) for i in range(k - 1)]
                + [(a, k + j) for j, (a, _) in enumerate(self.forks)])

    def payload(self) -> dict:
        """The germ file, 1-based as the file format wants."""
        return {"kind": "dual_graph", "chain": list(self.chain),
                "forks": [[a + 1, s] for a, s in self.forks],
                "branches": [[0 if a is None else a + 1, str(c)]
                             for a, c in self.branches]}


def tree_solve(spec: Spec) -> list[Fraction] | None:
    """Solve c_j b_j - sum_{i~j} b_i = c_j - 2 + t_j by eliminating
    leaves towards vertex 0. Returns None unless every pivot is
    positive, i.e. unless the intersection matrix is negative definite."""
    sel = spec.selfints
    n = len(sel)
    if n == 0:
        return []
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in spec.edges():
        adj[i].append(j)
        adj[j].append(i)
    piv = [Fraction(c) for c in sel]
    rhs = [Fraction(c - 2) for c in sel]
    for a, c in spec.branches:
        rhs[a] += c
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    for v in reversed(order[1:]):
        if piv[v] <= 0:
            return None
        p = parent[v]
        piv[p] -= 1 / piv[v]
        rhs[p] += rhs[v] / piv[v]
    if piv[0] <= 0:
        return None
    b = [Fraction(0)] * n
    for v in order:
        up = b[parent[v]] if v else 0
        b[v] = (rhs[v] + up) / piv[v]
    return b


def toric_solve(n: int, q: int, conductor: Fraction, side: Fraction) -> list[Fraction]:
    """Closed form for the chain of n/q with both boundary branches."""
    beta = 1 - conductor
    alpha = (1 - side + beta * q) / n
    b = []
    x0, y0, x1, y1 = 0, 1, 1, 0
    for c in hj_expand(n, q):
        b.append(1 - (alpha * x1 + beta * y1))
        x0, y0, x1, y1 = x1, y1, c * x1 - x0, c * y1 - y0
    return b


def cq_spec(n: int, q: int, conductor: Fraction, side: Fraction) -> Spec:
    chain = tuple(hj_expand(n, q))
    k = len(chain)
    branches = [(0 if k else None, conductor)]
    if side:
        branches.append((k - 1 if k else None, side))
    return Spec(chain, (), tuple(branches))


def lc_class(spec: Spec, b: list[Fraction]) -> str:
    solved = b
    if not spec.chain and spec.branches:
        solved = [sum((c for _, c in spec.branches), Fraction(0)) - 1]
    if any(x > 1 for x in solved):
        return "NOT_LC"
    if any(x == 1 for x in solved):
        return "LC_CENTER"
    if any(c == 1 for _, c in spec.branches):
        return "PLT"
    return "KLT"


def cartier(spec: Spec, b: list[Fraction]) -> int:
    return lcm(1, *(x.denominator for x in b),
               *(c.denominator for _, c in spec.branches))


@dataclass(frozen=True)
class Analysis:
    """What a correct classifier says about one graph whose shape the
    generator chose: ``tag`` is the intended taxonomy tag (None for a
    germ that is not plt or lc-center), ``gamma`` the plt slope."""

    spec: Spec
    b: list[Fraction]
    lc: str
    index: int
    tag: str | None
    gamma: Fraction | None


def analyse(spec: Spec, tag: str | None, gamma: Fraction | None = None,
            b: list[Fraction] | None = None) -> Analysis | None:
    """None when the graph is not contractible."""
    if b is None:
        b = tree_solve(spec)
        if b is None:
            return None
    lc = lc_class(spec, b)
    if lc not in ("PLT", "LC_CENTER"):
        tag = gamma = None
    return Analysis(spec, b, lc, cartier(spec, b), tag, gamma)


def analyse_cq(n: int, q: int, conductor: Fraction, side: Fraction) -> Analysis:
    """A conductor below 1 is only generated with side below 1 (klt)."""
    b = toric_solve(n, q, conductor, side)
    spec = cq_spec(n, q, conductor, side)
    if conductor != 1:
        return analyse(spec, None, b=b)
    if side == 1:
        return analyse(spec, "CYCLIC_NONPLT", b=b)
    return analyse(spec, "PLT_CHAIN", (1 - side) / n, b=b)


def cq_payload(n: int, q: int, conductor: Fraction, side: Fraction) -> dict:
    return {"kind": "cyclic_quotient", "n": n, "q": q,
            "conductor": str(conductor), "side": str(side)}


def residue_rows(gamma: Fraction) -> list[dict]:
    rows = []
    for m in range(1, M_MAX + 1):
        source = -((-m * gamma.numerator) // gamma.denominator)
        target = (m * (1 - gamma).numerator) // (1 - gamma).denominator
        deficit = target - (m - source)
        rows.append({"m": m, "source_exponent": source,
                     "target_exponent": target, "surjective": deficit == 0,
                     "deficit": deficit})
    return rows


def _class_fields(a: Analysis) -> dict:
    return {"tag": a.tag, "gamma": None if a.gamma is None else str(a.gamma),
            "cartier_index": a.index, "violation": None}


def _modification(a: Analysis) -> dict:
    if a.tag == "PLT_CHAIN":
        return {"extracted_coeff": str(1 - a.gamma),
                "extracted_discrepancy": str(a.gamma - 1), "perturbed": False}
    return {"extracted_coeff": "1",
            "extracted_curves": [i + 1 for i, x in enumerate(a.b) if x == 1],
            "kept_curves": [i + 1 for i, x in enumerate(a.b) if x != 1],
            "perturbed": True}


def _discrepancy_fields(a: Analysis) -> dict:
    return {"lc_class": a.lc, "discrepancies": [str(-x) for x in a.b],
            "cartier_index": a.index}


def emit(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def graph_report(payload: dict, a: Analysis, different: Fraction | None) -> str:
    """Report of a cyclic_quotient or dual_graph file. ``different`` is
    the value a cyclic quotient with conductor 1 reports directly."""
    out = {"input": payload, "flags": []}
    out.update(_discrepancy_fields(a))
    if a.tag is None:
        out.update(case=None, classification=None, modification=None)
        out["flags"].append("classification-not-applicable")
    else:
        out.update(case=a.tag, classification=_class_fields(a),
                   modification=_modification(a))
        if a.tag != "PLT_CHAIN":
            out["flags"].append("perturbed")
    if different is None and a.gamma is not None:
        different = 1 - a.gamma
    out["different"] = None if different is None else str(different)
    if a.gamma is not None:
        out["residue_table"] = residue_rows(a.gamma)
    else:
        out["residue_table"] = None
        out["flags"].append("residue-not-applicable")
    return emit(out)


def cq_report(n: int, q: int, conductor: Fraction, side: Fraction) -> str:
    different = 1 - (1 - side) / n if conductor == 1 else None
    return graph_report(cq_payload(n, q, conductor, side),
                        analyse_cq(n, q, conductor, side), different)


def glued_report(comps: list[tuple[int, int, Fraction]], glue_ok: bool) -> str:
    """Report of a glued file whose components all have conductor 1;
    each component is (n, q, side)."""
    payloads = [cq_payload(n, q, ONE, s) for n, q, s in comps]
    gammas = [(1 - s) / n for n, q, s in comps]
    analyses = [analyse_cq(n, q, ONE, s) for n, q, s in comps]
    flags = set()
    restriction = None
    if len(comps) == 2:
        (n1, q1, s1), (n2, q2, s2) = comps
        if q1 != q2:
            flags.add("q-mismatch")
        if any(1 - s >= HALF for _, _, s in comps):
            flags.add("extrapolated")
        # the restriction formula needs the 1/n(1,1) model, equal
        # slopes, and fractional coefficients 1 - side in (0, 1)
        if q1 == q2 == 1 and gammas[0] == gammas[1] and 0 < s1 < 1 and 0 < s2 < 1:
            coeffs = [2 * Fraction(n - 1, n) + Fraction((2 * s.numerator) // s.denominator, n)
                      for n, _, s in comps]
            restriction = {"m": 2, "coefficients": [str(c) for c in coeffs],
                           "equal": coeffs[0] == coeffs[1]}
        else:
            flags.add("restriction-unavailable")
    classification = case = None
    lc_center = [a for a in analyses if a.tag != "PLT_CHAIN"]
    glues = glue_ok and (lc_center or len(comps) == 1 or gammas[0] == gammas[1])
    if not glues:
        flags.add("glue-mismatch")
    else:
        if lc_center:
            case, group, index = "LC_CENTER_CASE", None, lcm(*(a.index for a in analyses))
        elif len(comps) == 2:
            case, group, index = "TWO_COMPONENT_PLT", "RANK_ONE", None
        else:
            case, group, index = "ONE_COMPONENT_PLT", "TORSION", None
        classification = {"trichotomy": case, "class_group": group,
                          "cartier_index": index, "components": payloads}
    details = []
    for payload, a, g in zip(payloads, analyses, gammas):
        detail = {"input": payload}
        detail.update(_class_fields(a))
        detail.update(_discrepancy_fields(a))
        detail["different"] = str(1 - g)
        detail["modification"] = _modification(a)
        details.append(detail)
    out = {"differents": [str(1 - g) for g in gammas],
           "gammas": [str(g) for g in gammas],
           "glue_consistent": len(comps) == 1 or gammas[0] == gammas[1],
           "restriction": restriction, "classification": classification,
           "case": case, "flags": sorted(flags),
           "input": {"kind": "glued", "glue_ok": glue_ok, "components": payloads},
           "components_detail": details}
    return emit(out)


def first_failure_m(coeffs: list[Fraction]) -> int | None:
    """Least m with floor(m sum c) > sum floor(m c), scanning one full
    period (the lcm of the denominators); None if there is none."""
    period = lcm(*(c.denominator for c in coeffs))
    total = sum(coeffs, Fraction(0))
    for m in range(1, period + 1):
        whole = (m * total.numerator) // total.denominator
        if whole > sum((m * c.numerator) // c.denominator for c in coeffs):
            return m
    return None


def coeff_record(c: Fraction, m: int) -> tuple:
    """(c, m, standard, hypothesis_ok, bracket_ok)."""
    standard = c == 1 or (0 < c < 1 and (1 - c).numerator == 1)
    gap = (m * c.numerator) // c.denominator - (m - 1) * c
    return (c, m, standard, standard or c >= 1 - Fraction(1, m), 0 <= gap <= c)
