"""Sweep the cyclic and dihedral diagram shapes and tabulate their
Cartier indices.

Every lc-center shape in the sweep should come out with index 1 or 2;
the script prints the per-shape counts and flags anything else.

    python scripts/taxonomy_survey.py --max-len 5 --max-selfint 5
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from germcalc import (GermTag, ResolutionGraph, cartier_index,
                      classify_lc_germ, is_contractible)

HALF = Fraction(1, 2)


def shapes(max_len, max_selfint):
    """Every cyclic and dihedral diagram with the stated bounds and all
    fractional branches pinned to 1/2, each with the tag it is built as.
    The fork vertex may drop to self-intersection 1 in the half-branch
    shapes."""
    rng = range(2, max_selfint + 1)
    yield ResolutionGraph.chain([], [(None, 1), (None, 1)]), GermTag.CYCLIC_NONPLT
    yield (ResolutionGraph.chain([], [(None, 1), (None, HALF), (None, HALF)]),
           GermTag.DIHEDRAL_33)
    for length in range(1, max_len + 1):
        end = length - 1
        for cs in product(rng, repeat=length):
            yield ResolutionGraph.chain(cs, [(0, 1), (end, 1)]), GermTag.CYCLIC_NONPLT
            yield (ResolutionGraph.chain(cs, [(0, 1)])
                   .with_fork(end, 2).with_fork(end, 2)), GermTag.DIHEDRAL_31
        for head in product(rng, repeat=length - 1):
            for last in range(1, max_selfint + 1):
                cs = head + (last,)
                yield (ResolutionGraph.chain(cs, [(0, 1), (end, HALF)])
                       .with_fork(end, 2)), GermTag.DIHEDRAL_32
                yield (ResolutionGraph.chain(cs, [(0, 1), (end, HALF), (end, HALF)]),
                       GermTag.DIHEDRAL_33)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-len", type=int, default=5)
    ap.add_argument("--max-selfint", type=int, default=5)
    args = ap.parse_args()

    counts: Counter = Counter()
    indices: Counter = Counter()
    skipped = 0
    bad = []
    for g, _tag in shapes(args.max_len, args.max_selfint):
        if not is_contractible(g):
            skipped += 1
            continue
        cls = classify_lc_germ(g)
        idx = cartier_index(g)
        counts[cls.tag.value] += 1
        indices[idx] += 1
        if 2 % idx != 0:
            bad.append((g, cls.tag.value, idx))

    print(f"{'shape':<16} {'count':>8}")
    for tag, n in sorted(counts.items()):
        print(f"{tag:<16} {n:>8}")
    print(f"{'(not contractible)':<16} {skipped:>8}")
    print()
    print("Cartier index distribution:", dict(sorted(indices.items())))
    if bad:
        print(f"FOUND {len(bad)} germs with index not dividing 2:")
        for g, tag, idx in bad[:10]:
            print(f"  {tag} index {idx}: {g}")
        return 1
    print("every lc-center shape has Cartier index dividing 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
