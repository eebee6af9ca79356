"""Timing wrappers installed around germcalc's public functions from
outside the package.

A wrapper replaces the function in every germcalc namespace that binds
it, because ``cli`` and ``germs`` import these functions by name and
``cartier_index`` reaches ``boundary_coefficients`` through its module
globals. Spans nest: a span's self time is its duration minus the
durations of the spans it encloses. ``rational`` is not wrapped; its
leaf calls cost a few hundred ns inside the residue loops, so a wrapper
would distort them, and their cost shows in ``residue``'s self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

TARGETS = {
    "cli": ("main", "parse_germ_file"),
    "germs": ("resolution_graph", "classify_lc_germ", "classify_nonnormal"),
    "dualgraph": ("boundary_coefficients", "is_contractible",
                  "log_canonical_class", "cartier_index"),
    "residue": ("single_branch_report", "find_failure_m", "multibranch_deficit"),
    "stdcoeff": ("coeff_check",),
}
NAMESPACES = ("germcalc", "germcalc.cli", "germcalc.germs", "germcalc.dualgraph",
              "germcalc.residue", "germcalc.stdcoeff")
STATS = ("calls_per_op", "self_share", "us_p50")


class Tracer:
    """Counts, inclusive durations and self time per wrapped function."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.durations: dict[str, list[int]] = {}
        self.under: Counter = Counter()  # (ancestor, descendant) -> calls
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        # Capture every original before patching anything, and match each
        # namespace against those originals: a namespace patched earlier
        # would no longer bind them.
        self._originals = {}
        for mod, names in TARGETS.items():
            module = sys.modules[f"germcalc.{mod}"]
            for name in names:
                key = f"{mod}.{name}"
                self._originals[id(getattr(module, name))] = (key, getattr(module, name))
                self.durations[key] = []
        self._wrappers = {ident: self._wrap(key, fn)
                          for ident, (key, fn) in self._originals.items()}

    def _wrap(self, key, fn):
        stack, calls, self_ns, under = self._stack, self.calls, self.self_ns, self.under
        durations = self.durations[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                calls[key] += 1
                durations.append(elapsed)
                self_ns[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    for parent, _ in stack:
                        under[parent, key] += 1
        return wrapper

    def install(self) -> None:
        for ns_name in NAMESPACES:
            ns = sys.modules[ns_name]
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)][1] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in self._patched:
            setattr(ns, attr, value)
        self._patched.clear()

    def bound_names(self) -> Counter:
        """How many namespaces each wrapped function was installed in."""
        return Counter(self._originals[id(v)][0] for _, _, v in self._patched)

    def metrics(self, ops: int, op_ns: int) -> dict[str, float]:
        out = {}
        for key, durations in self.durations.items():
            out[f"{key}.calls_per_op"] = self.calls[key] / ops
            out[f"{key}.self_share"] = self.self_ns[key] / op_ns
            out[f"{key}.us_p50"] = statistics.median(durations) / 1e3 if durations else 0.0
        return out
