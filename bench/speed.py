"""Timings made steady against a host whose speed changes.

The host this benchmark was written on shares its cores: within one run
the same code runs at one speed for a few seconds and up to 1.8 times
slower for the next few, and process CPU time moves with wall time. A
median over such a run moves with the share of time spent slow. So
every timing is taken next to a reference that belongs to the benchmark
and that a change to germcalc does not change, and is scaled by it:

* ``Scaled``: an in-process op is CPU-bound Python. Its time moves with
  a *probe*, a fixed loop of ``Fraction`` arithmetic, the kind of work
  germcalc does. It is scaled by ``REF_PROBE_NS / probe``, the probe
  being the mean of the probes taken just before and just after it, on
  the same CPU. A scaled time reads as the time at the reference speed,
  at which one probe takes ``REF_PROBE_NS``; on that host the probe took
  0.55 ms at full speed and 1.1 ms when slow.
* ``NextToBare``: starting a process, or importing germcalc afresh and
  warming it up, slows by much less than the probe (by a quarter where
  the probe slows by four fifths), and it also slows when the probe does
  not. It moves with the start of a bare interpreter, so each such step
  runs next to one, the order alternating, and is scaled by
  ``REF_BARE_MS / bare``. On that host a bare interpreter took 37 to
  67 ms.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter_ns

REF_PROBE_NS = 1_000_000
REF_BARE_MS = 50.0
PROBE_REPEATS = 3             # a probe is the fastest of these, to drop interrupts
PROBE_EVERY_NS = 20_000_000   # op time between two probes in a loop


def pin_to_one_cpu() -> str:
    """Run this process, and the processes it starts, on one CPU, so that
    a step and the reference next to it share a core."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return f"pinned to CPU {cpu}"


def _probe_loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return s


def probe() -> int:
    """ns of the fastest of PROBE_REPEATS runs of the probe loop."""
    best = None
    for _ in range(PROBE_REPEATS):
        start = perf_counter_ns()
        _probe_loop()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Scaled:
    """Op times of a loop, scaled. A probe runs once at least
    PROBE_EVERY_NS of op time has passed since the last one; every op
    since then is scaled by that probe and the one before it. Call
    ``flush`` before reading ``values``, and ``restart`` after a pause
    in the loop."""

    def __init__(self):
        self.values: list[float] = []   # scaled ns, in op order
        self.raw: list[int] = []        # wall ns, in op order
        self._pending: list[int] = []
        self._since = 0
        self._last = probe()

    def add(self, ns: int) -> None:
        self._pending.append(ns)
        self._since += ns
        if self._since >= PROBE_EVERY_NS:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = probe()
        scale = 2 * REF_PROBE_NS / (self._last + now)
        self.values += [ns * scale for ns in self._pending]
        self.raw += self._pending
        self._pending, self._since, self._last = [], 0, now

    def restart(self) -> None:
        self.flush()
        self._last = probe()


class NextToBare:
    """Wall ms of steps, each next to a bare interpreter; ``bare()``
    starts one and returns its wall ms."""

    def __init__(self, bare):
        self.wall: list[float] = []
        self.bare: list[float] = []   # next to the step of the same index
        self._bare = bare

    def time(self, fn):
        """``fn()``, timed; the bare interpreter runs first on every
        other step."""
        bare_first = len(self.wall) % 2 == 1
        if bare_first:
            self.bare.append(self._bare())
        start = perf_counter_ns()
        result = fn()
        self.wall.append((perf_counter_ns() - start) / 1e6)
        if not bare_first:
            self.bare.append(self._bare())
        return result

    def scaled(self) -> list[float]:
        return [ms * REF_BARE_MS / bare for ms, bare in zip(self.wall, self.bare)]
