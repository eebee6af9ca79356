"""Differential run of the germcalc CLI: two source trees, one set of
seeded random germ files through every file subcommand, and as many
seeded random calls of the argument subcommands.

The germ files are of all three kinds, malformed ones included, and a
few percent of them are large: cyclic quotients with n up to 10^6, and
dual graphs of up to 400 curves, so the runs reach the big integers of
the graph elimination. Most cyclic quotients have a weight prime to
their order, and half the short dual graphs are chains with a
coefficient-1 branch at one end, so that many files are plt chains and
reach the residue table. Many glued files are pairs of q = 1
components with a conductor each and equal slopes, so that ``glue``
reaches the restriction. ``residue`` runs with ``--m-max 6``, with the
default 24, and with a length drawn for each file from the seed in
1..300, so the table is compared at many lengths. ``report`` also
runs with ``--verbose`` before the subcommand, and after the file, where
argparse refuses it. The argument calls
are ``failure-m --coeffs`` and ``stdcoeff --c --m``, with valid,
malformed and out-of-range values. Most have denominators of at most
50. A few percent have big ones: ``stdcoeff`` with 20- to 60-digit
terms, at and one small step off 1 - 1/m, with ``--m`` up to 10^30,
and ``failure-m`` with one big coefficient outside (0, 1), which is
refused before any search. So no failure-m search comes near its
limit. The glued pairs and the big values come from a second generator
seeded from the same seed, so that the first makes every other file
and call as it did before they were added.

Each source tree runs in its own process, which calls ``cli.main`` once
per file and subcommand variant, and once per argument call, and records
the exit code and stdout. The script prints the runs that differ,
grouped by subcommand and by the pair of exit codes, and exits 1 when
any run differs or when any run of the ``--new`` tree ends in a
traceback, since the CLI must be total. A reader that closes stdout
early (``| head``) cuts the summary short but not the exit status.

    python scripts/cli_differential.py --old ../parent/src --new src --files 3200

With both trees set to the same ``src`` it checks that the CLI is
deterministic, and every run must agree.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd
from pathlib import Path

# A word of a variant replaced, for each file, by a table length drawn
# from the run's seed in 1..DRAWN_M_MAX_TOP.
DRAWN = "drawn"
DRAWN_M_MAX_TOP = 300
# The word of a variant replaced by the germ file's path.
FILE = "FILE"
VARIANTS = (
    ("report", FILE),
    ("classify", FILE),
    ("discrepancy", FILE),
    ("residue", FILE, "--m-max", "6"),
    ("residue", FILE, "--m-max", DRAWN),
    ("residue", FILE),
    ("glue", FILE),
    ("glue", FILE, "--m", "3"),
    # the flag before the subcommand, and after the file, where argparse
    # refuses it (exit 2)
    ("--verbose", "report", FILE),
    ("report", FILE, "--verbose"),
)
ARGUMENT_COMMANDS = ("failure-m", "stdcoeff")
RATS = ["1", "1", "1/2", "1/2", "0", "1/3", "2/3", "3/4", "1/5", "7/8", "3/2",
        "-1/2", "1/0", "x", 1]
LABELS = [2, 2, 2, 3, 4, 1, 5]
# Rational arguments outside (0, 1), and ones that are no rational.
ARG_OUT_OF_RANGE = ["0", "1", "3/2", "-1/3", "50/49", "2/2"]
ARG_MALFORMED = ["x", "1/0", "0.5", "", "1/2/3", " 1/3", "1//2", "1e3"]
STDCOEFF_M = ["2", "2", "3", "4", "5", "12", "50", "1", "0", "-3", "x", "2.5"]
# Share of cyclic files with n up to 10^6, and of dual graphs with 20 to
# 400 curves (labels 2..9, now and then one of 21 to 61 digits).
LONG_SHARE = 0.04
# Share of cyclic files, glued components included, whose weight q is
# drawn prime to n, so that the germ is valid; the rest draw any q.
COPRIME_SHARE = 0.8
# Share of the short dual graphs that are conductor-1 chains: labels of
# at least 2, a coefficient-1 branch on the first curve and at most one
# other branch, on the last. Most are plt chains, with a residue table.
PLT_CHAIN_SHARE = 0.5
# Share of glued components that the second generator gives q = 1 and
# conductor 1, and of two-component glued files that it gives equal
# slopes, on top of what the first generator draws.
GLUED_Q1_SHARE = 0.8
GLUED_MATCH_SHARE = 0.8
# Share of argument calls whose values are big numbers: stdcoeff with
# 20- to 60-digit terms and m up to 10^30, and failure-m with one big
# coefficient outside (0, 1).
BIG_SHARE = 0.05


def _rat(rng):
    return rng.choice(RATS)


def _cyclic(rng, kind=True):
    n = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 12, 20, 31, rng.randint(1, 60)])
    if rng.random() < LONG_SHARE:
        n = rng.randint(61, 10**6)
    roll = rng.random()
    if roll < 0.95:
        q = rng.randint(1, n)
        while roll < COPRIME_SHARE and gcd(n, q) != 1:
            q = rng.randint(1, n)
    else:
        q = rng.choice([0, n + 1, "2"])
    rec = {"n": n, "q": q}
    if kind:
        rec["kind"] = "cyclic_quotient"
    if rng.random() < 0.8:
        rec["conductor"] = _rat(rng) if rng.random() < 0.3 else "1"
    if rng.random() < 0.8:
        rec["side"] = _rat(rng)
    if rng.random() < 0.02:
        rec["extra"] = 1
    return rec


def _dual_graph(rng):
    long = rng.random() < LONG_SHARE
    if long:
        # long enough for subtree determinants of hundreds of digits
        k = rng.randint(20, 400)
        chain = [rng.randint(2, 9) for _ in range(k)]
        if rng.random() < 0.25:
            chain[rng.randrange(k)] = 10 ** rng.randint(20, 60)
    else:
        k = rng.randint(0, 6)
        if rng.random() < PLT_CHAIN_SHARE:
            branches = [[1 if k else 0, "1"], [k, _rat(rng)]]
            del branches[rng.randint(1, 2):]
            return {"kind": "dual_graph", "chain": [rng.randint(2, 5) for _ in range(k)],
                    "forks": [], "branches": branches}
        chain = [rng.choice(LABELS) for _ in range(k)]
        if chain and rng.random() < 0.03:
            chain[rng.randrange(k)] = rng.choice([0, -2, "2", True])
    forks = []
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        forks.append([rng.randint(0 if rng.random() < 0.05 else 1, max(1, k + len(forks))),
                      2 if rng.random() < 0.8 else rng.choice(LABELS)])
    n = k + len(forks)
    if long:
        # a conductor at one end and at most one branch at the other, so
        # that most long chains are plt or lc centers, not lc-failures
        branches = [[1, "1"], [k, "1" if rng.random() < 0.3 else _rat(rng)]]
        del branches[rng.randint(0, 2):]
    else:
        branches = []
        for _ in range(rng.randint(0, 4)):
            attach = rng.randint(1, n) if n else 0
            if rng.random() < 0.05:
                attach = rng.choice([-1, n + 1, 0, "1"])
            branches.append([attach, "1" if rng.random() < 0.4 else _rat(rng)])
    rec = {"kind": "dual_graph", "chain": chain, "forks": forks, "branches": branches}
    roll = rng.random()
    if roll < 0.02:
        rec["forks"] = rng.choice([5, None, "12", {}])
    elif roll < 0.04:
        rec["branches"] = rng.choice([3, None, "1"])
    elif roll < 0.06:
        del rec[rng.choice(["chain", "forks", "branches"])]
    return rec


def _match_slopes(comps, rng):
    """Equal slopes (1 - side)/n for a pair of components, so that it glues."""
    n1, n2 = comps[0]["n"], comps[1]["n"]
    gamma = Fraction(rng.choice([1, 1, 2, 3]), 2 * max(n1, n2) + rng.randint(1, 3))
    comps[0]["side"] = str(1 - n1 * gamma)
    comps[1]["side"] = str(1 - n2 * gamma)


def _glued(rng):
    comps = []
    for _ in range(rng.choice([1, 2, 2, 2, 2, 0, 3])):
        comp = _cyclic(rng, kind=rng.random() < 0.3)
        if rng.random() < 0.7:
            comp["q"], comp["conductor"] = 1, "1"
        comps.append(comp)
    if len(comps) == 2 and rng.random() < 0.5:
        _match_slopes(comps, rng)
    rec = {"kind": "glued", "components": comps}
    if rng.random() < 0.9:
        rec["glue_ok"] = rng.random() < 0.85 or rng.choice([False, "yes", None])
    return rec


def _toward_restriction(rec, aux):
    """Give more components of a glued record q = 1 and conductor 1, and
    more of its pairs equal slopes, so that most glued pairs reach the
    restriction. Only aux draws here."""
    comps = rec["components"]
    for comp in comps:
        if aux.random() < GLUED_Q1_SHARE:
            comp["q"], comp["conductor"] = 1, "1"
    if len(comps) == 2 and aux.random() < GLUED_MATCH_SHARE:
        _match_slopes(comps, aux)


def germ_bytes(rng, aux) -> bytes:
    """One random germ file: a record of one of the three kinds, or a
    malformed text. rng draws every file; aux then reworks the glued
    records that are not malformed (``_toward_restriction``), so that
    rng draws as it did before aux was added."""
    roll = rng.random()
    if roll < 0.3:
        rec = _cyclic(rng)
    elif roll < 0.7:
        rec = _dual_graph(rng)
    elif roll < 0.92:
        rec = _glued(rng)
        _toward_restriction(rec, aux)
    else:
        text = json.dumps(rng.choice([_cyclic(rng), _dual_graph(rng), _glued(rng)]))
        return rng.choice([text[:rng.randrange(len(text))], "[]", "null", '"germ"',
                           "{}", '{"kind":"unknown"}', text.replace('"', "'"),
                           "\xff\xfe"]).encode("latin-1")
    return json.dumps(rec).encode()


def _arg_rat(rng) -> str:
    """A rational argument: mostly a/b in (0, 1) with b <= 50, not
    always reduced."""
    roll = rng.random()
    if roll < 0.85:
        den = rng.randint(2, 50)
        return f"{rng.randint(1, den - 1)}/{den}"
    return rng.choice(ARG_OUT_OF_RANGE if roll < 0.93 else ARG_MALFORMED)


def _big(aux) -> int:
    """A positive integer of 20 to 60 digits."""
    digits = aux.randint(20, 60)
    return aux.randrange(10 ** (digits - 1), 10 ** digits)


def _big_coeffs(aux) -> str:
    """Two to four coefficients with 20- to 60-digit terms, one of them
    outside (0, 1), so that failure-m refuses the call before any search."""
    coeffs = []
    for _ in range(aux.randint(1, 3)):
        b = _big(aux)
        coeffs.append(f"{aux.randint(1, b - 1)}/{b}")
    b = _big(aux)
    bad = aux.choice([f"{aux.randint(b, 2 * b)}/{b}", f"-{aux.randint(1, b)}/{b}",
                      f"0/{b}", f"{b}/{b}"])
    coeffs.insert(aux.randint(0, len(coeffs)), bad)
    return ",".join(coeffs)


def _big_stdcoeff(aux) -> tuple[str, str]:
    """(m, c) for stdcoeff: m up to 10^30, and c with 20- to 60-digit
    terms, either anywhere in [-1, 2] or at 1 - 1/m and one step of
    1/(m k) to either side of it, for a big k."""
    m = aux.choice([2, 3, 12, aux.randint(2, 10**30)])
    k = _big(aux)
    if aux.random() < 0.4:
        c = f"{aux.randint(-k, 2 * k)}/{k}"
    else:
        c = f"{(m - 1) * k + aux.choice([-1, 0, 1])}/{m * k}"
    return str(m), c


def argument_words(rng, aux) -> list:
    """One random call of failure-m or stdcoeff, as argument words. rng
    draws every call as it always has; for a share BIG_SHARE of them,
    aux then redraws the values with big numbers."""
    big = aux.random() < BIG_SHARE
    if rng.random() < 0.5:
        option = "--coeffs"
        value = ",".join(_arg_rat(rng) for _ in range(rng.choice([1, 2, 2, 3, 4])))
        words = ["failure-m"]
        if big:
            value = _big_coeffs(aux)
    else:
        option, value = "--c", _arg_rat(rng)
        words = ["stdcoeff", "--m", rng.choice(STDCOEFF_M)]
        if big:
            words[2], value = _big_stdcoeff(aux)
    # a value that starts with "-" is an option to argparse unless joined
    joined = rng.random() < 0.5 or big
    return words + ([f"{option}={value}"] if joined else [option, value])


def _run(cli, argv) -> list:
    """[exit code, stdout sha256] of one in-process call of cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a result too
            code = f"traceback {type(exc).__name__}"
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def worker(src: str, directory: str) -> None:
    """Run every variant on every germ file of ``directory`` and every
    argument call of its ``arguments.json`` with the tree at ``src``; one
    JSON line [input, variant, exit code, stdout sha256] per run, where
    the input is the file path or the numbered argument words. A
    ``FILE`` word takes the file's path, and a ``DRAWN`` word the file's
    value in ``drawn.json``."""
    sys.path.insert(0, src)
    from germcalc import cli
    drawn = json.loads((Path(directory) / "drawn.json").read_text())
    for path in sorted(str(p) for p in (Path(directory) / "germs").iterdir()):
        values = {FILE: path, DRAWN: drawn[Path(path).name]}
        for variant in VARIANTS:
            argv = [values.get(word, word) for word in variant]
            print(json.dumps([path, " ".join(variant), *_run(cli, argv)]))
    calls = json.loads((Path(directory) / "arguments.json").read_text())
    for k, words in enumerate(calls):
        print(json.dumps([f"call {k}: {' '.join(words)}", words[0], *_run(cli, words)]))


def run_tree(src: str, directory: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, "--worker", src, directory],
                          env=env, capture_output=True, text=True, check=True)
    runs = {}
    for line in proc.stdout.splitlines():
        given, variant, code, digest = json.loads(line)
        runs[given, variant] = (code, digest)
    return runs


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", required=True, help="first source tree (a src/ directory)")
    ap.add_argument("--new", required=True, help="second source tree")
    ap.add_argument("--files", type=int, default=200,
                    help="random germ files to run, and as many argument calls")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--show", type=int, default=3, help="example files per group")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # the second generator draws only what the glued files and the big
    # argument calls add, so rng makes every other file and call as it
    # did before they were added
    aux = random.Random(f"aux {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "germs").mkdir()
        for k in range(args.files):
            (Path(tmp) / "germs" / f"germ{k:05d}.json").write_bytes(germ_bytes(rng, aux))
        calls = [argument_words(rng, aux) for _ in range(args.files)]
        (Path(tmp) / "arguments.json").write_text(json.dumps(calls))
        # drawn after the files and the calls, which keep their bytes
        drawn = {f"germ{k:05d}.json": str(rng.randint(1, DRAWN_M_MAX_TOP))
                 for k in range(args.files)}
        (Path(tmp) / "drawn.json").write_text(json.dumps(drawn))
        old = run_tree(str(Path(args.old).resolve()), tmp)
        new = run_tree(str(Path(args.new).resolve()), tmp)
        groups = defaultdict(list)
        for key, result in old.items():
            if new[key] != result:
                groups[key[1], result[0], new[key][0]].append(key[0])
        differing = sum(len(inputs) for inputs in groups.values())
        lines = [f"{args.files} files x {len(VARIANTS)} variants + {len(calls)} "
                 f"argument calls = {len(old)} runs, {differing} differ"]
        names = [" ".join(variant) for variant in VARIANTS] + list(ARGUMENT_COMMANDS)
        for name in names:
            codes = Counter(str(code) for (_, v), (code, _) in old.items() if v == name)
            lines.append(f"  {name}: old exit codes " + ", ".join(
                f"{code} x{count}" for code, count in sorted(codes.items())))
        for (variant, code_old, code_new), inputs in sorted(groups.items(), key=str):
            lines.append(f"  {variant}: exit {code_old} -> {code_new}: {len(inputs)} runs")
            for given in inputs[:args.show]:
                if variant not in ARGUMENT_COMMANDS:
                    text = Path(given).read_bytes().decode("utf-8", "replace")
                    if DRAWN in variant.split():
                        text += f"  ({DRAWN} {drawn[Path(given).name]})"
                    given = text
                lines.append(f"    {given}")
    crashed = Counter(code for code, _ in new.values()
                      if str(code).startswith("traceback"))
    for code, count in sorted(crashed.items()):
        lines.append(f"  new tree: {code} in {count} runs")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader went away (say `| head -1`): print nothing more, and
        # point fd 1 at devnull so that the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
    return 1 if differing or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
