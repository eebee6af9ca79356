"""Germ-file parsing, subcommand dispatch, and JSON report emission.

Input files are JSON with three kinds:

    {"kind": "cyclic_quotient", "n": 5, "q": 2, "conductor": "1", "side": "1/2"}
    {"kind": "dual_graph", "chain": [3, 2], "forks": [[2, 2]],
     "branches": [[1, "1"], [2, "2/3"]]}
    {"kind": "glued", "glue_ok": true, "components": [{...}, {...}]}

All rationals travel as strings "a/b" (or "a"); nothing ever passes
through a binary float. Dual-graph attach indices are 1-based into the
chain-then-forks vertex list; 0 attaches a branch at the ambient smooth
point of an empty graph. Reports are emitted as JSON with sorted keys
and canonical rational printing, so identical inputs give byte-identical
output. Exit status: 0 success, 1 validation failure, 2 parse failure.
Each input is parsed into one record, ``GermFile``, which also carries
its analyses; every subcommand prints fields of that record, and
``report`` prints their union. A glued file's record holds its
components' records, so each value of a report is built once. A report
that stdout cannot take ends in exit 1, with nothing on stderr; a
--verbose summary that stderr cannot take, or a process started without
stderr, drops the summary and keeps the exit status.
The usual call, ``[--verbose] COMMAND FILE`` for a file subcommand, is
read directly; any other argument list goes to an argparse parser, built
and imported only then, which writes help, usage and every refusal.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from operator import neg
from types import SimpleNamespace

from ._record import FrozenRecord, memoized
from .dualgraph import (VERTEX_LIMIT, BoundaryBranch, ResolutionGraph, cartier_index,
                        check_label, log_canonical_class, solved_numerators)
from .errors import (GermError, GlueMismatch, LimitExceeded, NotApplicable,
                     ParseError, ValidationError)
from .germs import (_PLT_CHAIN, LC_CENTER_TAGS, CyclicQuotientGerm, GermClass,
                    classify_lc_germ, classify_nonnormal, different_coeff,
                    resolution_graph)
from .rational import DIGITS_EXCEEDED, format_rat, format_ratio, format_ratios, parse_rat
from .residue import (ResidueTable, _exponent_rows, find_failure_m,
                      glued_restriction_coeff)
from .stdcoeff import coeff_check

DEFAULT_M_MAX = 24
# Largest --m-max accepted by residue: one table row per m.
M_MAX_LIMIT = 10_000

class GermFile(FrozenRecord):
    """One input: the domain object of its kind, the canonical JSON
    payload used for echoing, and the analyses every subcommand reads.
    A cyclic file holds its ``germ``, a dual-graph file its ``graph``,
    and a glued file its components' cyclic-quotient records as
    ``parts``; the payload lists theirs and holds the ``glue_ok`` flag.

    Each analysis is computed on first read and kept; one that raises
    keeps nothing and raises again on the next read.
    """

    _fields = ("germ", "graph", "parts", "payload")

    def __init__(self, germ: CyclicQuotientGerm | None = None,
                 graph: ResolutionGraph | None = None, parts: tuple[GermFile, ...] = (),
                 payload: dict | None = None):
        self._set(germ=germ, graph=graph, parts=parts, payload=payload)

    @property
    def _resolved(self) -> ResolutionGraph:
        """The dual graph, built from the germ for a cyclic file."""
        if self.parts:
            raise NotApplicable("no single dual graph for kind 'glued'")
        return self.graph if self.germ is None else resolution_graph(self.germ)

    @memoized
    def discrepancy(self) -> dict:
        """The lc class, the discrepancies and the Cartier index. The
        index is taken before any text is made, so a germ that is not lc
        is refused as NotApplicable under any digit limit. Each distinct
        reduced denominator of the discrepancies is written once."""
        g = self._resolved
        lc = log_canonical_class(g)
        index = cartier_index(g)
        numerators, den = solved_numerators(g)
        return {"lc_class": lc.value,
                "discrepancies": format_ratios(map(neg, numerators), den),
                "cartier_index": index}

    @memoized
    def classification(self) -> GermClass:
        """The taxonomy class; a germ's is shared with the germ object."""
        if self.germ is not None:
            return self.germ.classification
        return classify_lc_germ(self._resolved)

    @memoized
    def modification(self) -> dict | None:
        """Coefficient bookkeeping for the extraction that makes the
        rounded multiple of the log canonical divisor numerically well
        behaved.

        Plt chains extract the conductor-end curve at its discrepancy
        level; lc-center germs extract every solved-coefficient-1 curve
        with coefficient 1 and keep the half-coefficient prongs, with the
        subsequent shrinking of those coefficients recorded symbolically
        as the "perturbed" flag rather than a concrete rational.
        """
        cls = self.classification
        if cls.tag is _PLT_CHAIN:
            # the conductor-end curve has discrepancy gamma - 1 and enters the
            # boundary at 1 - gamma, the different; gamma = 1 gives "0" twice
            p, d = cls.gamma.numerator, cls.gamma.denominator
            return {"extracted_coeff": format_ratio(d - p, d),
                    "extracted_discrepancy": format_ratio(p - d, d),
                    "perturbed": False}
        if cls.tag in LC_CENTER_TAGS:
            numerators, den = solved_numerators(self._resolved)
            return {"extracted_coeff": "1",
                    "extracted_curves": [i + 1 for i, x in enumerate(numerators)
                                         if x == den],
                    "kept_curves": [i + 1 for i, x in enumerate(numerators)
                                    if x != den],
                    "perturbed": True}
        return None


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"unknown {context} field(s): {', '.join(sorted(unknown))}")


def _rat(text: str) -> Fraction:
    """parse_rat, whose refusal is a ValidationError with its text."""
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _rat_field(obj: dict, key: str, default: str) -> Fraction:
    raw = obj.get(key, default)
    if not isinstance(raw, str):
        raise ValidationError(f"field {key!r} must be a rational string, got {raw!r}")
    return _rat(raw)


def _int_field(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValidationError(f"missing field {key!r}")
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise ValidationError(f"field {key!r} must be an integer, got {val!r}")
    return val


def _germ_file(obj: dict) -> GermFile:
    """A cyclic-quotient file, or one component of a glued file."""
    if not isinstance(obj, dict):
        raise ValidationError(f"germ record must be an object, got {obj!r}")
    if obj.get("kind", "cyclic_quotient") != "cyclic_quotient":
        raise ValidationError("glued components must be cyclic_quotient records")
    _check_keys(obj, {"kind", "n", "q", "conductor", "side"}, "germ")
    germ = CyclicQuotientGerm(_int_field(obj, "n"), _int_field(obj, "q"),
                              _rat_field(obj, "conductor", "1"),
                              _rat_field(obj, "side", "0"))
    return GermFile(germ=germ, payload={
        "kind": "cyclic_quotient", "n": germ.n, "q": germ.q,
        "conductor": format_rat(germ.conductor_coeff),
        "side": format_rat(germ.side_coeff)})


def _graph_file(obj: dict) -> GermFile:
    """A dual-graph file."""
    _check_keys(obj, {"kind", "chain", "forks", "branches"}, "dual_graph")
    chain = obj.get("chain", [])
    forks = obj.get("forks", [])
    branches = obj.get("branches", [])
    # json.loads makes no int subclass but bool, so this exact-type scan
    # refuses what an int-but-not-bool test per entry would
    if not isinstance(chain, list) or not {*map(type, chain)} <= {int}:
        raise ValidationError("'chain' must be a list of integers")
    # Every entry is checked as it is read, so the first fault in file
    # order is the one reported; the graph is built once, at the end.
    if chain and min(chain) < 1:
        for c in chain:
            check_label(c)
    selfints = chain[:]
    if not isinstance(forks, list):
        raise ValidationError("'forks' must be a list of [attach, selfint] entries")
    if len(chain) + len(forks) > VERTEX_LIMIT:
        raise LimitExceeded(f"{len(chain) + len(forks)} curves exceed the "
                            f"limit {VERTEX_LIMIT}")
    # each curve's parent: the one before it on the chain, a fork's attach curve
    parent = list(range(-1, len(chain) - 1))
    for entry in forks:
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise ValidationError(f"fork entry {entry!r} must be [attach, selfint]")
        attach, selfint = entry
        n = len(selfints)
        if not 1 <= attach <= n:
            raise ValidationError(f"fork attach index {attach} out of range 1..{n}")
        selfints.append(check_label(selfint))
        parent.append(attach - 1)
    n = len(selfints)
    if not isinstance(branches, list):
        raise ValidationError("'branches' must be a list of [attach, coeff] entries")
    brs = []
    norm_branches = []
    for entry in branches:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"branch entry {entry!r} must be [attach, coeff]")
        attach, raw = entry
        if not isinstance(attach, int) or isinstance(attach, bool):
            raise ValidationError(f"branch attach {attach!r} must be an integer")
        if not isinstance(raw, str):
            raise ValidationError(f"branch coefficient {raw!r} must be a rational string")
        coeff = _rat(raw)
        if attach == 0 and n:
            raise ValidationError("attach index 0 is only valid on an empty graph")
        if not 0 <= attach <= n:
            raise ValidationError(f"branch attach index {attach} out of range 0..{n}")
        brs.append(BoundaryBranch(attach - 1 if attach else None, coeff))
        norm_branches.append([attach, format_rat(coeff)])
    # chain and forks are echoed as read: every entry is checked to be an int
    return GermFile(graph=ResolutionGraph._rooted(selfints, parent, brs), payload={
        "kind": "dual_graph", "chain": chain, "forks": forks, "branches": norm_branches})


def _glued_file(obj: dict) -> GermFile:
    """A glued file: its components are read as cyclic-quotient files."""
    _check_keys(obj, {"kind", "glue_ok", "components"}, "glued")
    comps_raw = obj.get("components")
    if not isinstance(comps_raw, list) or not 1 <= len(comps_raw) <= 2:
        raise ValidationError("'components' must list 1 or 2 germ records")
    glue_ok = obj.get("glue_ok", True)
    if not isinstance(glue_ok, bool):
        raise ValidationError("'glue_ok' must be a boolean")
    parts = tuple(map(_germ_file, comps_raw))
    return GermFile(parts=parts, payload={
        "kind": "glued", "glue_ok": glue_ok, "components": [part.payload for part in parts]})


# each kind's reader, in the order the refusal of an unknown kind lists them
_READERS = {"cyclic_quotient": _germ_file, "dual_graph": _graph_file, "glued": _glued_file}
KINDS = tuple(_READERS)


def parse_germ_file(text: str) -> GermFile:
    """Parse one germ file. Raises ParseError on malformed JSON and
    ValidationError on schema or constraint violations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno,
                         expected=exc.msg) from exc
    except RecursionError as exc:
        raise ParseError("JSON nesting too deep") from exc
    except ValueError as exc:
        # json.loads raises a bare ValueError only for an integer literal
        # past the interpreter's int-from-text digit limit
        raise ParseError("JSON integer literal has too many digits") from exc
    if not isinstance(raw, dict):
        raise ValidationError("top level must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return _READERS[kind](raw)


def _class_dict(cls: GermClass) -> dict:
    return {"tag": cls.tag.value,
            "gamma": format_rat(cls.gamma) if cls.gamma is not None else None,
            "cartier_index": cls.cartier_index,
            "violation": cls.violation}


def _nonnormal_dict(gf: GermFile) -> dict:
    """The trichotomy fields of a glued file, as classify and glue print
    them."""
    nn = classify_nonnormal([part.germ for part in gf.parts], gf.payload["glue_ok"])
    return {"trichotomy": nn.trichotomy.value,
            "class_group": nn.class_group.value if nn.class_group else None,
            "cartier_index": nn.cartier_index,
            "components": gf.payload["components"]}


def _cmd_classify(gf: GermFile) -> dict:
    if gf.parts:
        out = _nonnormal_dict(gf)
        out["case"] = out["trichotomy"]
    else:
        out = _class_dict(gf.classification)
        out["case"] = gf.classification.tag.value
    out["input"] = gf.payload
    return out


def _cmd_discrepancy(gf: GermFile) -> dict:
    return {**gf.discrepancy, "input": gf.payload}


def _cmd_residue(gf: GermFile, m_max: int) -> dict:
    gamma = gf.classification.gamma
    if gamma is None:
        raise NotApplicable("residue table needs a plt chain with a slope")
    if m_max < 1:
        raise ValidationError(f"--m-max {m_max} must be >= 1")
    if m_max > M_MAX_LIMIT:
        raise LimitExceeded(f"--m-max {m_max} exceeds the limit {M_MAX_LIMIT}")
    return {"input": gf.payload, "m_max": m_max,
            "residue_table": ResidueTable(gamma.numerator, gamma.denominator, m_max)}


def _cmd_glue(gf: GermFile, m: int) -> dict:
    if not gf.parts:
        raise NotApplicable("glue analysis needs a glued germ file")
    if m < 1:
        raise ValidationError(f"--m {m} must be >= 1")
    comps = [part.germ for part in gf.parts]
    flags: set[str] = set()
    differents = [format_rat(different_coeff(c)) for c in comps]
    # a different is 1 - gamma and its text is canonical, so equal texts
    # are equal slopes
    glue_consistent = differents[0] == differents[-1]
    restriction = None
    if len(comps) == 2:
        if comps[0].q != comps[1].q:
            flags.add("q-mismatch")
        cs = [Fraction(g.side_coeff.denominator - g.side_coeff.numerator, g.side_coeff.denominator)
              for g in comps]
        if m != 2 or any(2 * c.numerator >= c.denominator for c in cs):
            flags.add("extrapolated")
        # the restriction formula is the 1/n(1,1) model's, and its two
        # sides meet only where the slopes agree; a side of 0 or 1 leaves
        # its c outside (0, 1), where the formula has no value
        if (glue_consistent and comps[0].q == comps[1].q == 1
                and all(0 < c.numerator < c.denominator for c in cs)):
            coeffs = [glued_restriction_coeff(m, comp.n, c) for comp, c in zip(comps, cs)]
            restriction = {"m": m, "coefficients": [format_rat(c) for c in coeffs],
                           "equal": coeffs[0] == coeffs[1]}
        else:
            flags.add("restriction-unavailable")
    classification = None
    try:
        classification = _nonnormal_dict(gf)
    except GlueMismatch:
        flags.add("glue-mismatch")
    return {"input": gf.payload, "differents": differents,
            "gammas": [format_rat(c.gamma) for c in comps],
            "glue_consistent": glue_consistent,
            "restriction": restriction, "classification": classification,
            "case": None if classification is None else classification["trichotomy"],
            "flags": sorted(flags)}


def _cmd_report(gf: GermFile, m_max: int = DEFAULT_M_MAX) -> dict:
    if gf.parts:
        out = _cmd_glue(gf, 2)
        out["components_detail"] = [
            {"input": part.payload, **_class_dict(part.classification),
             **part.discrepancy, "different": different,
             "modification": part.modification}
            for part, different in zip(gf.parts, out["differents"])]
        return out
    out = {"input": gf.payload, "flags": [], **gf.discrepancy,
           "case": None, "classification": None, "modification": None}
    gamma = None
    try:
        cls = gf.classification
    except NotApplicable:
        out["flags"].append("classification-not-applicable")
    else:
        gamma = cls.gamma
        out.update(case=cls.tag.value, classification=_class_dict(cls),
                   modification=gf.modification)
        if gf.modification and gf.modification["perturbed"]:
            out["flags"].append("perturbed")
    slope, germ = gamma, gf.germ
    if germ is not None and germ.conductor_coeff.numerator == germ.conductor_coeff.denominator:
        slope = germ.gamma  # different_coeff(germ) is 1 - germ.gamma
    out["different"] = (None if slope is None
                        else format_ratio(slope.denominator - slope.numerator, slope.denominator))
    if gamma is None:
        out["residue_table"] = None
        out["flags"].append("residue-not-applicable")
    else:
        out["residue_table"] = ResidueTable(gamma.numerator, gamma.denominator, m_max)
    return out


def _read_input(path: str) -> str:
    """The text of the file at path, or of stdin for "-": its bytes as
    strict UTF-8 with universal newlines, as a file opened in text mode
    reads, so both sources give the same text and the same errors under
    any locale. A path that open() refuses (one with a NUL, or one that
    the file system encoding cannot take) is a ParseError too."""
    try:
        if path == "-":
            if sys.stdin is None:
                # started with fd 0 closed
                raise OSError("stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _styled(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") is not None or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _verbose_summary(payload: dict) -> str:
    parts = []
    for key in ("case", "lc_class", "cartier_index", "gamma", "different", "m"):
        if payload.get(key) is not None:
            parts.append(f"{key}={payload[key]}")
    if payload.get("glue_consistent") is not None:
        word = "consistent" if payload["glue_consistent"] else "mismatch"
        code = "32" if payload["glue_consistent"] else "31"
        parts.append(_styled(f"glue={word}", code))
    if payload.get("flags"):
        parts.append("flags=" + ",".join(payload["flags"]))
    return "  ".join(parts) if parts else "ok"


# Each file subcommand: its handler, its help text, and its int options
# (dest -> default), which the handler takes as keyword arguments.
_FILE_COMMANDS = {
    "classify": (_cmd_classify, "taxonomy tag and derived invariants", {}),
    "discrepancy": (_cmd_discrepancy, "solved discrepancies and Cartier index", {}),
    "report": (_cmd_report, "every applicable analysis", {}),
    "residue": (_cmd_residue, "restriction degree table for m = 1..M",
                {"m_max": DEFAULT_M_MAX}),
    "glue": (_cmd_glue, "conductor gluing analysis", {"m": 2}),
}


@cache
def _build_parser():
    """The one parser of the process; parse_args keeps no state in it.
    argparse is imported here, so a call that _parse_args reads never
    loads it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose refusals end as a ParseError, so main
        prints the error object and exits 2 as for any parse failure. The
        usage line and the reason still go to stderr; --help exits 0."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise ParseError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="germcalc",
        description="Exact invariants of log surface germs from germ files.")
    parser.add_argument("--verbose", action="store_true",
                        help="human-readable summary on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, helptext, options) in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="germ file path, or - for stdin")
        for dest, default in options.items():
            p.add_argument("--" + dest.replace("_", "-"), type=int, default=default)

    p = sub.add_parser("failure-m", help="least m with a rounding deficit")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated rationals in (0,1), e.g. 1/2,1/3")

    p = sub.add_parser("stdcoeff", help="standard-coefficient record")
    p.add_argument("--c", required=True, help="coefficient as a/b")
    p.add_argument("--m", type=int, required=True)
    return parser


def _parse_args(argv):
    """The namespace _build_parser().parse_args(argv) gives, argv being
    sys.argv[1:] when None. ``[--verbose] COMMAND FILE``, for a file
    subcommand and a FILE that is "-" or does not start with "-", is
    read here: argparse takes such a FILE as the subcommand's positional
    and fills the options' defaults. Any other argv goes to the parser,
    which writes help, usage and refusals."""
    argv = sys.argv[1:] if argv is None else list(argv)
    verbose = len(argv) == 3 and argv[0] == "--verbose"
    if len(argv) == 2 + verbose:
        command, file = argv[-2:]
        entry = _FILE_COMMANDS.get(command)
        if (entry is not None and isinstance(file, str)
                and (file == "-" or not file.startswith("-"))):
            return SimpleNamespace(verbose=verbose, command=command, file=file,
                                   **entry[2])
    return _build_parser().parse_args(argv)


def _dispatch(args) -> dict:
    if args.command == "failure-m":
        coeffs = [_rat(part) for part in args.coeffs.split(",")]
        out = {"coeffs": [format_rat(c) for c in coeffs], "m": find_failure_m(coeffs)}
        # summed once the search has refused too many coefficients
        out["search_bound"] = sum(coeffs, Fraction(0)).denominator
        return out
    if args.command == "stdcoeff":
        rec = coeff_check(_rat(args.c), args.m)
        return {"c": format_rat(rec.c), "m": rec.m, "standard": rec.standard,
                "hypothesis_ok": rec.hypothesis_ok, "bracket_ok": rec.bracket_ok}

    handler, _, options = _FILE_COMMANDS[args.command]
    gf = parse_germ_file(_read_input(args.file))
    return handler(gf, **{dest: getattr(args, dest) for dest in options})


# A list of at least _JOIN_MIN items, all exact str or all exact int, is
# written whole, by one join or one "%d" template fill. On a shorter list
# the scan of its types costs more than the single write saves.
_JOIN_MIN = 16
_STRS, _INTS = frozenset({str}), frozenset({int})


def _emit(obj, pad: str, append) -> None:
    """Append the indent-2 JSON text of obj, on a line indented by pad,
    to a list of parts through its append method."""
    kind = type(obj)
    if kind is str:
        append(_quote(obj))
    elif kind is int:
        append(int.__repr__(obj))
    elif kind is dict:
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            append(sep)
            append(_quote(key))
            append(": ")
            _emit(obj[key], inner, append)
            sep = "," + inner
        append(pad + "}" if obj else "{}")
    elif kind is list:
        inner = pad + "  "
        comma = "," + inner
        kinds = frozenset(map(type, obj)) if len(obj) >= _JOIN_MIN else None
        if kinds == _STRS or kinds == _INTS:
            append("[" + inner)
            if kinds == _STRS:
                append(comma.join(map(_quote, obj)))
            else:
                append(comma.join(["%d"] * len(obj)) % tuple(obj))
            append(pad + "]")
            return
        sep = "[" + inner
        for value in obj:
            append(sep)
            item = type(value)
            if item is str:
                append(_quote(value))
            elif item is int:
                append(int.__repr__(value))
            else:
                _emit(value, inner, append)
            sep = comma
        append(pad + "]" if obj else "[]")
    elif obj is None:
        append("null")
    elif kind is bool:
        append("true" if obj else "false")
    elif kind is ResidueTable:
        # the list of row dicts: one row template with its keys in sorted
        # order, repeated and joined, takes every row's values in one %
        if not obj.m_max:
            append("[]")
            return
        inner = pad + "  "
        key = inner + '  "'
        row = ("{" + key + 'deficit": 0,' + key + 'm": %d,' + key + 'source_exponent": %d,'
               + key + 'surjective": true,' + key + 'target_exponent": %d' + inner + "}")
        rows = ("," + inner).join([row] * obj.m_max)
        append("[" + inner)
        append(rows % tuple(_exponent_rows(obj.p, obj.n, range(1, obj.m_max + 1))))
        append(pad + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dumps(payload: dict) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2), written
    directly: with an indent, json runs its pure-Python encoder, and
    _emit gives the same text in one list of parts. Strings are escaped
    by json's own C escaper.

    A payload is built fresh from dicts with str keys, lists, and str,
    int, bool and None leaves, so it holds no cycle and no float. The
    one value that is not JSON it takes is a ``residue.ResidueTable``,
    written as json would write its list of row dicts: one row template,
    repeated m_max times and joined, takes every row's m and two
    exponents from ``residue._exponent_rows`` in a single %, with
    deficit 0 and surjective true as constants, since the exponents
    always agree. The dispatch is on the exact type: any other type, a
    subclass included, raises TypeError. A list of at least _JOIN_MIN
    items that are all exactly str or all exactly int, the bulk of a
    long report, is written whole: its strings by one join, its ints by
    one fill of a "%d" template. Any other list writes its str and int
    items in its own loop by the same exact-type rule, with no call per
    item; its other items (bool, None, dict, list, ``ResidueTable``, or
    a type to refuse) go through the dispatch.
    """
    parts: list[str] = []
    try:
        _emit(payload, "\n", parts.append)
    except ValueError as exc:
        # only int-to-text raises it: an int with more digits than the
        # interpreter's conversion limit
        raise LimitExceeded(DIGITS_EXCEEDED) from exc
    return "".join(parts)


def _to_devnull(fd: int) -> None:
    """Point fd at devnull, so that the flush at exit cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    code = 0
    try:
        args = _parse_args(argv)
        payload = _dispatch(args)
        text = _dumps(payload)
    except ParseError as exc:
        payload = {"error": {"type": "ParseError", "message": str(exc),
                             "line": exc.line, "column": exc.column,
                             "expected": exc.expected}}
        code = 2
    except GermError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 1
    if code:
        text = _dumps(payload)
    try:
        if sys.stdout is None:
            # started with fd 1 closed
            raise OSError("stdout is closed")
        print(text)
        sys.stdout.flush()
    except OSError:
        # stdout takes no report: its reader went away (BrokenPipeError),
        # its device is full, or it is closed. As for a closed pipe in
        # Python's documented recipe, point fd 1 at devnull so the flush
        # at exit cannot fail again, and exit 1.
        _to_devnull(1)
        return 1
    if code == 0 and args.verbose and sys.stderr is not None:
        try:
            print(_verbose_summary(payload), file=sys.stderr, flush=True)
        except OSError:
            # the report is out; a summary stderr cannot take leaves the
            # exit status 0
            _to_devnull(2)
    return code


if __name__ == "__main__":
    sys.exit(main())
