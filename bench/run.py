"""germcalc benchmark: seeded germ inputs through the public entry points,
every output checked against the benchmark's own oracle.

    python3 bench/run.py --workload corpus_report --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run. The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
run record. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed
import workloads
from tracing import STATS, TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MiB", "cold_cli_ms_p50": "ms"}
STAT_UNITS = {"calls_per_op": "count", "self_share": "ratio", "us_p50": "us"}
PER_LAYER = {f"{mod}.{fn}.{stat}": STAT_UNITS[stat]
             for mod, fns in TARGETS.items() for fn in fns for stat in STATS}
PER_LAYER.update({"cli.import_ms": "ms",
                  "dualgraph.boundary_coefficients.peak_mib": "MiB",
                  "trace.overhead": "ratio"})

SETUP_REPEATS = 9          # set-ups per run, one before the loop
MIN_SAMPLES = 100          # ten samples beyond the 90th percentile
CAP_S = 120                # hard limit on the timed loop
BETWEEN_S = 0.25           # loop time between two chances to sample set-up and cold CLI
COLD_SAMPLES = 36          # cold CLI processes, cycling over the fixtures
IMPORT_PAIRS = 7           # bare/import interpreter pairs for cli.import_ms


@dataclass
class Tally:
    """Outcome of the ops of one run."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)   # input name -> reason
    failed: int = 0

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        self.failures.setdefault(name, reason)


def fresh_import():
    """Import germcalc as a new process would, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "germcalc" or m.startswith("germcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("germcalc")
    return package, importlib.import_module("germcalc.cli")


def cli_op(cli, path: Path):
    argv = ["report", str(path)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            start = perf_counter_ns()
            rc = cli.main(argv)
            elapsed = perf_counter_ns() - start
        finally:
            sys.stdout, sys.stderr = saved
        return elapsed, (rc, out.getvalue(), err.getvalue())
    return call


def graph_of(gc, spec):
    g = gc.ResolutionGraph.chain(spec.chain, spec.branches)
    for attach, selfint in spec.forks:
        g = g.with_fork(attach, selfint)
    return g


# op kind -> (call on the package, fields of the result that are checked)
LIBRARY_CALLS = {
    "classify": (lambda gc, g: gc.classify_lc_germ(g),
                 lambda r: (r.tag.value, r.cartier_index, r.gamma, r.violation)),
    "cartier": (lambda gc, g: gc.cartier_index(g), None),
    "failure_m": (lambda gc, coeffs: gc.find_failure_m(coeffs), None),
    "coeff_check": (lambda gc, cm: gc.coeff_check(*cm),
                    lambda r: (r.c, r.m, r.standard, r.hypothesis_ok, r.bracket_ok)),
}


def library_op(gc, case: workloads.Case):
    """The function is looked up on the package at call time, so the
    traced run calls its wrapper."""
    invoke, observe = LIBRARY_CALLS[case.kind]
    arg = graph_of(gc, case.data) if case.kind in ("classify", "cartier") else case.data

    def call():
        start = perf_counter_ns()
        result = invoke(gc, arg)
        elapsed = perf_counter_ns() - start
        return elapsed, result if observe is None else observe(result)
    return call


def check(case: workloads.Case, observed) -> tuple[str | None, str]:
    """(failure reason or None, canonical text of the output)."""
    if case.kind in LIBRARY_CALLS:
        if observed != case.expected:
            return f"got {observed!r}, expected {case.expected!r}", repr(observed)
        if case.kind == "cartier" and 2 % observed:
            return f"Cartier index {observed} does not divide 2", repr(observed)
        return None, repr(observed)
    rc, out, err = observed
    if "Traceback" in err or "Traceback" in out:
        return "printed a traceback", out
    if rc != case.rc:
        return f"exit {rc}, expected {case.rc}", out
    if rc == 0:
        return (None if out == case.expected else "report differs from the oracle"), out
    try:
        kind = json.loads(out)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return "exit 1 without a JSON error object", out
    return (None if kind == case.expected else f"error {kind}, expected {case.expected}"), out


def smallest_of_each_kind(cases) -> list[int]:
    smallest = {}
    for i, case in enumerate(cases):
        if case.kind not in smallest or case.vertices < cases[smallest[case.kind]].vertices:
            smallest[case.kind] = i
    return sorted(smallest.values())


def write_inputs(workload: str, cases, workdir: Path) -> list[Path] | None:
    """The germ files of a CLI workload, written once per run."""
    if workload == "survey_sweep":
        return None
    workdir.mkdir(parents=True)
    paths = []
    for i, case in enumerate(cases):
        paths.append(workdir / f"{i:04d}.json")
        paths[-1].write_text(case.data)
    return paths


def set_up(cases, paths: list[Path] | None):
    """Import germcalc, build the ops and warm up: everything a run does
    before its timed loop, once the inputs are written."""
    gc, cli = fresh_import()
    if paths is None:
        ops = [library_op(gc, case) for case in cases]
    else:
        ops = [cli_op(cli, path) for path in paths]
    for i in smallest_of_each_kind(cases):
        ops[i]()
    return ops, gc, cli


def run_ops(ops, cases, tally: Tally, seconds: float, min_passes: int, each,
            between=None):
    """Whole passes over the inputs, one op at a time, until ``seconds``
    have passed and at least ``min_passes`` passes are done. Ops of those
    passes not started before CAP_S count as failed. ``each(i, call)``
    runs op i and returns its output. ``between(progress)`` runs after
    an op once BETWEEN_S have passed since it last ran, with the share of
    ``seconds`` used so far; its time is left out of the loop's wall
    time. Returns (passes, wall seconds, outputs of the first pass)."""
    first_pass = []
    start = perf_counter()
    paused = 0.0
    passes = 0
    last_between = start
    while passes < min_passes or perf_counter() - start - paused < seconds:
        for i, call in enumerate(ops):
            if perf_counter() - start > CAP_S:
                if passes < min_passes:
                    missed = (min_passes - passes) * len(ops) - i
                    tally.attempted += missed
                    tally.failed += missed
                    tally.failures.setdefault("(cap)", f"{missed} ops not started within {CAP_S} s")
                return passes, perf_counter() - start - paused, first_pass
            tally.attempted += 1
            try:
                observed = each(i, call)
            except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                tally.fail(cases[i].name, f"raised {type(exc).__name__}: {exc}")
                observed = None
            else:
                reason, text = check(cases[i], observed)
                if reason:
                    tally.fail(cases[i].name, reason)
                if passes == 0:
                    first_pass.append(text)
            if between is not None and perf_counter() - last_between >= BETWEEN_S:
                pause = perf_counter()
                between((pause - start - paused) / max(seconds, 1e-9))
                last_between = perf_counter()
                paused += last_between - pause
        passes += 1
    return passes, perf_counter() - start - paused, first_pass


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=60)


def timed_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = run_process(argv)
    return (perf_counter() - start) * 1e3, proc


def bare_ms() -> float:
    """Wall ms of a bare interpreter, `python -c pass`."""
    ms, proc = timed_process(python_cmd("-c", "pass"))
    if proc.returncode != 0:
        raise RuntimeError(f"python -c pass failed: {proc.stderr}")
    return ms


class ColdCli:
    """`python -m germcalc.cli report <fixture>` processes, run one at a
    time between ops of the timed loop, each next to a bare interpreter
    (see speed.NextToBare). Each output is checked against the golden
    report."""

    def __init__(self, tally: Tally, fixtures, total: int):
        self.tally, self.fixtures, self.total = tally, fixtures, total
        self.steps = speed.NextToBare(bare_ms)
        run_process(self._argv(fixtures[0]))   # warms the file cache

    @staticmethod
    def _argv(name: str) -> list[str]:
        return python_cmd("-m", "germcalc.cli", "report", f"tests/fixtures/{name}.json")

    def sample(self) -> None:
        name = self.fixtures[len(self.steps.wall) % len(self.fixtures)]
        proc = self.steps.time(lambda: run_process(self._argv(name)))
        self.tally.attempted += 1
        golden = (ROOT / "tests" / "golden" / f"{name}.report.json").read_text()
        if proc.returncode != 0 or proc.stdout != golden or "Traceback" in proc.stderr:
            self.tally.fail(f"cold:{name}", f"exit {proc.returncode}, report differs or traceback")


def import_ms(pairs: int) -> float:
    """Median `import germcalc.cli` interpreter minus median bare one."""
    bare, loaded = [], []
    for i in range(pairs):
        order = [(bare, "pass"), (loaded, "import germcalc.cli")]
        for sink, code in order if i % 2 == 0 else order[::-1]:
            ms, proc = timed_process(python_cmd("-c", code))
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {proc.stderr}")
            sink.append(ms)
    return statistics.median(loaded) - statistics.median(bare)


def solve_peak_mib(gc, cli, cases, workload: str) -> tuple[float, str]:
    """tracemalloc peak over one boundary_coefficients call on the
    largest single graph of the workload."""
    singles = [c for c in cases if c.kind not in ("failure_m", "coeff_check")
               and not c.kind.startswith("gl_")]
    case = max(singles, key=lambda c: c.vertices)
    if workload == "survey_sweep":
        g = graph_of(gc, case.data)
    else:
        gf = cli.parse_germ_file(case.data)
        g = gf.graph if gf.graph is not None else gc.resolution_graph(gf.germ)
    tracemalloc.start()
    try:
        gc.boundary_coefficients(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, f"{case.name} ({case.vertices} vertices)"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def measure(args, cases, paths: list[Path] | None, tally: Tally) -> dict:
    repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    setups = speed.NextToBare(bare_ms)
    ops, gc, cli = setups.time(lambda: set_up(cases, paths))
    min_passes = 1 if args.smoke else -(-MIN_SAMPLES // len(cases))
    seconds = 0 if args.smoke else args.seconds
    fixtures = workloads.FIXTURES[:1] if args.smoke else workloads.FIXTURES
    if args.trace:
        return measure_traced(args, cases, ops, gc, cli, tally, seconds, min_passes)

    sampled = []
    cold_cli = ColdCli(tally, fixtures, 1 if args.smoke else COLD_SAMPLES)
    scaler = speed.Scaled()

    rss = []

    def each(i, call):
        elapsed, observed = call()
        scaler.add(elapsed)
        sampled.append(i)
        # The peak after the first pass has seen every input once, and it
        # leaves out the sample lists, which grow with the ops' speed.
        if i == len(ops) - 1 and not rss:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return observed

    def between(progress):
        """Cold CLI processes and repeats of the set-up (the loop keeps
        the ops of the first one), spread evenly over the loop."""
        if not rss:   # nothing but the ops runs before the peak RSS is taken
            return
        cold_want = min(cold_cli.total, round(cold_cli.total * progress))
        setup_want = min(repeats, max(1, round(repeats * progress)))
        if len(cold_cli.steps.wall) < cold_want or len(setups.wall) < setup_want:
            scaler.flush()
            while len(cold_cli.steps.wall) < cold_want:
                cold_cli.sample()
            while len(setups.wall) < setup_want:
                setups.time(lambda: set_up(cases, paths))
            scaler.restart()

    passes, wall, outputs = run_ops(ops, cases, tally, seconds, min_passes, each, between)
    if not rss:   # the cap cut the first pass
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    between(1.0)   # a run cut by the cap may not have finished a pass
    scaler.flush()
    samples = [ns / 1e6 for ns in scaler.values]
    raw = [ns / 1e6 for ns in scaler.raw]
    cold = cold_cli.steps.scaled()
    p90 = percentile_90(samples)
    print(f"set-up: {len(setups.wall)} times (one before the loop, the others between ops), "
          f"each next to a bare interpreter, scaled to a {speed.REF_BARE_MS} ms bare start; "
          f"unscaled ms: {[round(ms, 2) for ms in setups.wall]}")
    print(f"timed loop: {passes} passes of {len(cases)} inputs, {len(samples)} samples, "
          f"wall {wall:.3f} s with probes, cap {CAP_S} s")
    print(f"op times scaled to the reference speed (probe {speed.REF_PROBE_NS / 1e6} ms); "
          f"unscaled: p50 {statistics.median(raw):.4f} ms, p90 {percentile_90(raw):.4f} ms, "
          f"{len(raw) / (sum(raw) / 1e3):.6g} ops per s of op time; "
          f"scaled / unscaled op time {sum(samples) / sum(raw):.4f}")
    print(f"op_ms percentiles: p50 = statistics.median, p90 = statistics.quantiles(n=10)[-1]; "
          f"{sum(s > p90 for s in samples)} of {len(samples)} samples lie beyond p90")
    print(f"cold CLI: {len(cold)} processes over {len(fixtures)} fixtures, one at a time "
          f"between ops (not part of the loop's wall time), each next to a bare interpreter, "
          f"scaled to a {speed.REF_BARE_MS} ms bare start; unscaled: cold p50 "
          f"{statistics.median(cold_cli.steps.wall):.4f} ms, bare p50 "
          f"{statistics.median(cold_cli.steps.bare):.4f} ms")
    print(f"reports sha256 (first pass, input order): {sha256(outputs)}")
    if args.workload == "corpus_report":
        fixture_ms = [s for s, i in zip(raw, sampled) if cases[i].kind == "fixture"]
        p50_in, p50_cold = statistics.median(fixture_ms), statistics.median(cold_cli.steps.wall)
        print(f"batch data point, unscaled wall times: fixture report in-process p50 "
              f"{p50_in:.4f} ms over {len(fixture_ms)} samples; cold CLI p50 {p50_cold:.4f} ms "
              f"over {len(cold)} processes; cold / in-process = {p50_cold / p50_in:.2f}")
    return {"setup_s": statistics.median(setups.scaled()) / 1e3,
            "op_ms_p50": statistics.median(samples),
            "op_ms_p90": p90,
            "ops_per_s": len(samples) / (sum(samples) / 1e3),
            "peak_rss_mb": rss[0],
            "cold_cli_ms_p50": statistics.median(cold)}


def measure_traced(args, cases, ops, gc, cli, tally, seconds, min_passes) -> dict:
    """Each op runs twice, once plain and once traced, alternating which
    goes first, so the two totals see the same machine speed."""
    tracer = Tracer()
    tracer.install()
    bound = tracer.bound_names()
    tracer.uninstall()
    totals = {False: 0, True: 0}
    traced_ops = 0
    fixture_counts = {}
    keys = ("dualgraph.boundary_coefficients", "dualgraph.is_contractible")

    def each(i, call):
        nonlocal traced_ops
        observed = None
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            before = [tracer.calls[k] for k in keys]
            if traced:
                tracer.install()
            try:
                elapsed, output = call()
            finally:
                tracer.uninstall()
            totals[traced] += elapsed
            if traced:
                traced_ops += 1
                if cases[i].kind == "fixture":
                    fixture_counts[cases[i].name] = [tracer.calls[k] - b
                                                     for k, b in zip(keys, before)]
            if observed is not None and output != observed:
                tally.fail(cases[i].name, "traced and plain outputs differ")
            observed = output
        return observed

    passes, wall, outputs = run_ops(ops, cases, tally, seconds, min_passes, each)
    metrics = tracer.metrics(traced_ops, totals[True])
    metrics["trace.overhead"] = totals[True] / totals[False]
    metrics["dualgraph.boundary_coefficients.peak_mib"], peak_input = solve_peak_mib(
        gc, cli, cases, args.workload)
    metrics["cli.import_ms"] = import_ms(1 if args.smoke else IMPORT_PAIRS)
    print(f"traced loop: {passes} passes of {len(cases)} inputs, {traced_ops} traced and "
          f"{traced_ops} plain ops, wall {wall:.3f} s, cap {CAP_S} s")
    print("wrapped in namespaces: " + ", ".join(f"{k} x{n}" for k, n in sorted(bound.items())))
    print(f"reports sha256 (first pass, input order): {sha256(outputs)}")
    print(f"solve peak measured on {peak_input}")
    for name, counts in sorted(fixture_counts.items()):
        print(f"{name}: " + ", ".join(f"{k} {n}" for k, n in zip(keys, counts)) + " per report")
    for (parent, child), n in sorted(tracer.under.items()):
        print(f"within {parent}: {child} {n / tracer.calls[parent]:.6g} per call")
    return metrics


def run(args) -> int:
    if not (SRC / "germcalc" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"germcalc sources or golden reports missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pinned = speed.pin_to_one_cpu()
    start = perf_counter()
    cases = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.smoke:
        cases = [cases[i] for i in smallest_of_each_kind(cases)]
    print(f"germcalc benchmark | workload {args.workload} | seed {args.seed} | "
          f"trace {args.trace} | seconds {args.seconds}{' | smoke' if args.smoke else ''}")
    print(f"python {platform.python_version()} | nproc {os.cpu_count()} | "
          f"commit {git_commit()} | {pinned}")
    tally = Tally()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        paths = write_inputs(args.workload, cases, workdir)
        gen_s = perf_counter() - start
        print(f"inputs: {len(cases)} per pass, sha256 "
              f"{sha256(c.name + repr(c.data) for c in cases)}, generated with expected "
              f"outputs and written in {gen_s:.3f} s (not part of setup_s)")
        values = measure(args, cases, paths, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"fail_rate = {tally.failed} / {tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.6g} ratio")
    for name, reason in tally.failures.items():
        print(f"FAIL {name}: {reason}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """The smallest input of each kind per workload, traced and
    untraced, each in its own process. Checks that every metric declared
    in BENCHMARK.json is printed with its unit and that fail_rate is
    computed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    sections = ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER))
    for _, section, names in sections:
        if {m["name"]: m["unit"] for m in declared[section]} != names:
            problems.append(f"{section} in BENCHMARK.json differs from the code")
    for workload in workloads.WORKLOADS:
        for trace, section, _ in sections:
            want = {m["name"]: m["unit"] for m in declared[section]}
            proc = subprocess.run(
                python_cmd(__file__, "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--smoke"),
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.splitlines()
            label = f"{workload} trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} mismatch")
            for name, unit in want.items():
                if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{label}: {name} not printed with unit {unit}")
            if not any(line.startswith("fail_rate = ") for line in lines):
                problems.append(f"{label}: fail_rate not computed")
            print(f"{label}: {len(got)} metrics, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print("SMOKE PROBLEM:", p)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="germcalc benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few ops only; without --workload, check every workload")
    args = ap.parse_args()
    if args.workload is None:
        if not args.smoke:
            ap.error("--workload is required")
        return smoke()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
