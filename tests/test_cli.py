import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from residue_oracle import fraction_table
from germcalc import cli, dualgraph, germs
from germcalc.cli import M_MAX_LIMIT, main, parse_germ_file
from germcalc.dualgraph import (HADAMARD_BIT_LIMIT, VERTEX_LIMIT, ResolutionGraph,
                                boundary_coefficients, solved_numerators)
from germcalc.errors import LimitExceeded, NotApplicable, ParseError, ValidationError
from germcalc.rational import DIGITS_EXCEEDED, INPUT_DIGITS_EXCEEDED, format_rat, parse_rat
from germcalc.residue import FAILURE_COEFF_LIMIT, ResidueTable

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

PLT_GERM = '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"1","side":"1/2"}'
GRAPH = '{"kind":"dual_graph","chain":[3,2],"branches":[[1,"1"],[2,"2/3"]]}'
GLUED = ('{"kind":"glued","glue_ok":true,"components":['
         '{"n":2,"q":1,"conductor":"1","side":"3/4"},'
         '{"n":4,"q":1,"conductor":"1","side":"1/2"}]}')


def write(tmp_path, text, name="germ.json"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_valid_cyclic_quotient():
    gf = parse_germ_file(PLT_GERM)
    assert gf.payload["kind"] == "cyclic_quotient"
    assert gf.germ.n == 5 and gf.germ.side_coeff == Fraction(1, 2)


def test_parse_rejects_non_coprime():
    with pytest.raises(ValidationError):
        parse_germ_file('{"kind":"cyclic_quotient","n":4,"q":2,"conductor":"1","side":"0"}')


def test_parse_valid_dual_graph():
    gf = parse_germ_file(GRAPH)
    assert gf.payload["kind"] == "dual_graph"
    assert gf.graph == ResolutionGraph.chain([3, 2], [(0, 1), (1, Fraction(2, 3))])


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError) as err:
        parse_germ_file('{"kind": "cyclic_quotient", ')
    assert err.value.line is not None and err.value.column is not None


@pytest.mark.parametrize("text", [PLT_GERM, GRAPH, GLUED])
def test_format_parse_roundtrip(text):
    # the report's echo, reparsed, gives back the parsed file
    gf = parse_germ_file(text)
    assert parse_germ_file(json.dumps(gf.payload)) == gf


def test_classify_command(tmp_path, capsys):
    assert main(["classify", write(tmp_path, PLT_GERM)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "PLT_CHAIN"
    assert out["gamma"] == "1/10"
    assert out["cartier_index"] == 10


def test_discrepancy_command(tmp_path, capsys):
    assert main(["discrepancy", write(tmp_path, GRAPH)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lc_class"] == "PLT"
    assert len(out["discrepancies"]) == 2


def test_residue_command(tmp_path, capsys):
    assert main(["residue", write(tmp_path, PLT_GERM), "--m-max", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["residue_table"]) == 3
    assert all(row["surjective"] for row in out["residue_table"])


def test_glue_command(tmp_path, capsys):
    assert main(["glue", write(tmp_path, GLUED)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["glue_consistent"] is True
    assert out["differents"] == ["7/8", "7/8"]
    assert out["restriction"]["equal"] is False
    assert out["case"] == "TWO_COMPONENT_PLT"


def test_residue_command_on_plt_graph(tmp_path, capsys):
    # slope read off the matched chain: gamma = (1 - 2/3) / 5 = 1/15
    assert main(["residue", write(tmp_path, GRAPH), "--m-max", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["source_exponent"] for row in out["residue_table"]] == [1, 1, 1, 1]
    assert all(row["surjective"] for row in out["residue_table"])


def test_residue_command_rejects_center_graph(tmp_path, capsys):
    cyclic = '{"kind":"dual_graph","chain":[2,2],"branches":[[1,"1"],[2,"1"]]}'
    assert main(["residue", write(tmp_path, cyclic)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotApplicable"


def test_glue_command_flags_extrapolated_degree(tmp_path, capsys):
    assert main(["glue", write(tmp_path, GLUED), "--m", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "extrapolated" in out["flags"]
    assert out["restriction"]["m"] == 3


def test_failure_m_command(capsys):
    assert main(["failure-m", "--coeffs", "1/2,1/3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 5


def test_stdcoeff_command(capsys):
    assert main(["stdcoeff", "--c", "3/5", "--m", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"bracket_ok": True, "c": "3/5", "hypothesis_ok": False,
                   "m": 4, "standard": False}


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(PLT_GERM.encode())))
    assert main(["classify", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["tag"] == "PLT_CHAIN"


@pytest.mark.parametrize("command", ["report", "classify", "discrepancy",
                                     "residue", "glue"])
def test_input_that_is_not_utf8_is_a_parse_failure(tmp_path, capsys, monkeypatch,
                                                   command):
    import io
    path = tmp_path / "germ.json"
    path.write_bytes(b"\xff\xfe")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"),
                                                      encoding="utf-8"))
    for source in (str(path), "-"):
        assert main([command, source]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ParseError"
        assert err["message"].startswith("input is not UTF-8: ")


def test_exit_code_two_on_parse_failure(tmp_path, capsys):
    assert main(["classify", write(tmp_path, "{not json")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ParseError"
    assert err["line"] == 1


def test_exit_code_one_on_validation_failure(tmp_path, capsys):
    bad = '{"kind":"cyclic_quotient","n":4,"q":2,"conductor":"1","side":"0"}'
    assert main(["classify", write(tmp_path, bad)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "BadParameters"


def test_exit_code_one_on_glue_mismatch(tmp_path, capsys):
    bad = ('{"kind":"glued","glue_ok":true,"components":['
           '{"n":2,"q":1,"conductor":"1","side":"3/4"},'
           '{"n":4,"q":1,"conductor":"1","side":"7/8"}]}')
    assert main(["classify", write(tmp_path, bad)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "GlueMismatch"


FUZZ_INPUTS = [
    "",
    "[]",
    "null",
    '"germ"',
    "{}",
    '{"kind":"unknown"}',
    '{"kind":"cyclic_quotient"}',
    '{"kind":"cyclic_quotient","n":"5","q":2}',
    '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"0.5","side":"0"}',
    '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"1","side":"1/0"}',
    '{"kind":"cyclic_quotient","n":-1,"q":1,"conductor":"1","side":"0"}',
    '{"kind":"dual_graph","chain":[3,"2"]}',
    '{"kind":"dual_graph","chain":[3],"branches":[[2,"1"]]}',
    '{"kind":"dual_graph","chain":[3],"branches":[[0,"1"]]}',
    '{"kind":"dual_graph","chain":[3],"forks":[[5,2]]}',
    '{"kind":"dual_graph","chain":[0]}',
    '{"kind":"glued","components":[]}',
    '{"kind":"glued","components":[{"n":2,"q":1}],"glue_ok":"yes"}',
    '{"kind": "cyclic_quotient", "n": 5, "q": 2, ',
    '{"kind":"cyclic_quotient","n":5,"q":2,"conductor_coeff":"1"}',
    '{"kind":"dual_graph","chain":[2],"edges":[[1,2]]}',
]


@pytest.mark.parametrize("text", FUZZ_INPUTS)
def test_fuzzed_malformed_inputs_never_exit_zero(tmp_path, capsys, text):
    code = main(["report", write(tmp_path, text)])
    capsys.readouterr()
    assert code in (1, 2)


# Generated inputs: JSON values from st.recursive whose object keys lean
# to the germ file schema, and records of each kind that carry every
# schema field well typed, or some of them, each well typed or any JSON
# value.
SCHEMA = {"cyclic_quotient": ("n", "q", "conductor", "side"),
          "dual_graph": ("chain", "forks", "branches"),
          "glued": ("glue_ok", "components")}
FRACTIONS = st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 12))
RATIONALS = st.one_of(FRACTIONS,
                      st.builds("{}/{}".format, st.integers(-2, 2), st.integers(0, 2)),
                      st.integers(-2, 3).map(str),
                      st.sampled_from(["", "x", "0.5", "1/2/3", " 1/2 "]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 12), RATIONALS,
              st.sampled_from(sorted(SCHEMA))),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["kind", *sum(SCHEMA.values(), ())])
                        | st.text(max_size=2), kids, max_size=5)),
    max_leaves=10)


def _records(fields, kind=None):
    head = {} if kind is None else {"kind": st.just(kind)}
    return st.fixed_dictionaries({**head, **fields}) | st.fixed_dictionaries(
        head, optional={key: value | JSON_VALUES for key, value in fields.items()})


_CYCLIC = {"n": st.integers(1, 12), "q": st.integers(1, 12),
           "conductor": FRACTIONS, "side": FRACTIONS}
FIELDS = {
    **_CYCLIC,
    "chain": st.lists(st.integers(1, 6), max_size=5),
    "forks": st.lists(st.lists(st.integers(1, 6), min_size=2, max_size=2), max_size=3),
    "branches": st.lists(st.tuples(st.integers(0, 6), FRACTIONS).map(list), max_size=4),
    "glue_ok": st.booleans(),
    "components": st.lists(_records(_CYCLIC), min_size=1, max_size=2),
}
GERM_DOCUMENTS = st.one_of(JSON_VALUES, *(
    _records({key: FIELDS[key] for key in keys}, kind)
    for kind, keys in SCHEMA.items()))


def assert_one_json_object(argv):
    """main(argv) returns 0, 1 or 2, raises nothing, and prints one JSON
    object, which holds "error" exactly when the code is not 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    obj = json.loads(out.getvalue())
    assert isinstance(obj, dict)
    assert ("error" in obj) == (code != 0)


# Option values as argv words: integers and text that is not one, each
# passed as --opt=value or as a separate word (where a value starting
# with "-" reads as an option to argparse).
INT_WORDS = st.integers(-1, 30).map(str) | st.sampled_from(["x", "2.5", "", "-x", "1/2"])


def option(name, value, joined):
    return [f"{name}={value}"] if joined else [name, value]


@settings(max_examples=150, deadline=None)
@given(doc=GERM_DOCUMENTS, m=INT_WORDS, joined=st.booleans())
def test_generated_germ_files_end_in_one_json_object(tmp_path_factory, doc, m, joined):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["report"], ["classify"], ["discrepancy"],
                 ["residue", *option("--m-max", m, joined)],
                 ["glue", *option("--m", m, joined)]):
        assert_one_json_object([*argv, str(path)])


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(RATIONALS, max_size=5).map(",".join), c=RATIONALS,
       m=INT_WORDS, joined=st.booleans())
def test_generated_arguments_end_in_one_json_object(coeffs, c, m, joined):
    assert_one_json_object(["failure-m", *option("--coeffs", coeffs, joined)])
    assert_one_json_object(["stdcoeff", *option("--c", c, joined),
                            *option("--m", m, joined)])


# every file subcommand, with and without its option; FILE goes second
FILE_COMMANDS = [["report"], ["classify"], ["discrepancy"], ["residue"],
                 ["residue", "--m-max", "3"], ["glue"], ["glue", "--m", "3"]]


def assert_every_file_command_ends_in_one_json_object(file):
    for command, *options in FILE_COMMANDS:
        # "-" reads stdin: a glued germ file
        stdin = io.TextIOWrapper(io.BytesIO(GLUED.encode()))
        with mock.patch.object(sys, "stdin", stdin):
            assert_one_json_object([command, file, *options])


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("a\x00b")
@example("\ud800")
@example("")
@example(".")
@example("-")
def test_any_file_word_ends_in_one_json_object(tmp_path_factory, word):
    # any other word that starts with "-" is an option to argparse, and
    # "-h" prints the help
    assume(word == "-" or not word.startswith("-"))
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.getbasetemp())
    try:
        assert_every_file_command_ends_in_one_json_object(word)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("word, reason", [("a\x00b", "embedded null byte"),
                                          ("\ud800", "surrogates not allowed")])
def test_a_file_word_that_open_refuses_is_a_parse_failure(capsys, word, reason):
    assert main(["report", word]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"cannot read {word}: ")
    assert error["message"].endswith(reason)


FIXTURE_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))]
# bytes to insert: JSON syntax, digits, a sign, a slash, an escape, a
# byte that is not UTF-8, or any
INSERTS = st.sampled_from([b"0", b"9", b"-", b'"', b",", b":", b"[", b"]", b"{", b"}",
                           b"/", b"1/2", b"\\u0000", b"\xff"]) | st.binary(min_size=1, max_size=3)


@st.composite
def mutated_fixtures(draw):
    """A fixture's bytes with one to four bit flips, cuts or inserts."""
    data = bytearray(draw(st.sampled_from(FIXTURE_BYTES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["flip", "cut", "insert"]))
        if how == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif how == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            data[at:at] = draw(INSERTS)
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.binary() | mutated_fixtures())
@example(b"")
@example(b"\xff")
def test_any_input_bytes_end_in_one_json_object(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "input.bytes"
    path.write_bytes(data)
    assert_every_file_command_ends_in_one_json_object(str(path))


@pytest.mark.parametrize("argv, message", [
    (["failure-m", "--coeffs", "-1/2,1/3"], "argument --coeffs: expected one argument"),
    (["stdcoeff", "--c", "1/2", "--m", "x"], "argument --m: invalid int value: 'x'"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
    (["report"], "the following arguments are required: file"),
])
def test_an_argument_refusal_is_a_parse_failure(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and message in error["message"]
    assert message in err  # argparse's usage line and reason stay on stderr


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stdcoeff", "--help"])
    assert exc.value.code == 0
    assert "usage: germcalc stdcoeff" in capsys.readouterr().out


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["classify", "/nonexistent/germ.json"]) == 2
    capsys.readouterr()


def test_report_modification_bookkeeping(tmp_path, capsys):
    assert main(["report", write(tmp_path, PLT_GERM)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modification"] == {"extracted_coeff": "9/10",
                                   "extracted_discrepancy": "-9/10",
                                   "perturbed": False}
    fork = ('{"kind":"dual_graph","chain":[2],"forks":[[1,2],[1,2]],'
            '"branches":[[1,"1"]]}')
    assert main(["report", write(tmp_path, fork, "fork.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modification"]["extracted_curves"] == [1]
    assert out["modification"]["kept_curves"] == [2, 3]
    assert out["modification"]["perturbed"] is True
    assert "perturbed" in out["flags"]


def test_a_plt_report_extracts_the_conductor_end_curve(capsys):
    # every cyclic plt germ of order n < 30, with five sides: the curve
    # enters the boundary at the different, at its own discrepancy
    # (curve 1 meets the conductor), and the two sum to zero
    checked = 0
    for n in range(1, 30):
        for q in range(1, n + 1):
            if gcd(n, q) != 1 or (q == n and n > 1):
                continue
            for side in ("0", "1/2", "1/3", "2/3", "3/4"):
                gf = parse_germ_file(json.dumps(
                    {"kind": "cyclic_quotient", "n": n, "q": q, "side": side}))
                report = cli._cmd_report(gf, 1)
                mod = report["modification"]
                assert mod["extracted_coeff"] == report["different"]
                if n > 1:
                    assert mod["extracted_discrepancy"] == report["discrepancies"][0]
                assert parse_rat(mod["extracted_coeff"]) == -parse_rat(
                    mod["extracted_discrepancy"])
                checked += 1
    assert checked == 1350


@pytest.mark.parametrize("text", [
    '{"kind": "cyclic_quotient", "n": 1, "q": 1}',
    '{"kind": "dual_graph", "chain": [], "branches": [[0, "1"]]}',
], ids=["cyclic_order_1", "empty_dual_graph"])
def test_a_plt_slope_of_one_extracts_at_zero_not_minus_zero(tmp_path, capsys, text):
    assert main(["report", write(tmp_path, text)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"]["gamma"] == "1"
    assert out["modification"] == {"extracted_coeff": "0", "extracted_discrepancy": "0",
                                   "perturbed": False}


def test_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, GLUED)
    assert main(["report", path]) == 0
    first = capsys.readouterr().out
    assert main(["report", path]) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_report_echo_reparses_to_input(tmp_path, capsys):
    for text in (PLT_GERM, GRAPH, GLUED):
        path = write(tmp_path, text)
        assert main(["report", path]) == 0
        echoed = json.loads(capsys.readouterr().out)["input"]
        assert parse_germ_file(json.dumps(echoed)) == parse_germ_file(text)


def test_glue_report_flags_q_mismatch(tmp_path, capsys):
    pair = ('{"kind":"glued","glue_ok":true,"components":['
            '{"n":4,"q":1,"conductor":"1","side":"1/2"},'
            '{"n":4,"q":3,"conductor":"1","side":"1/2"}]}')
    assert main(["glue", write(tmp_path, pair)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "TWO_COMPONENT_PLT"
    assert "q-mismatch" in out["flags"]


def test_report_numeric_fields_reproducible(tmp_path, capsys):
    # every numeric field in a report must be recomputable from the echo
    from fractions import Fraction as F

    from germcalc.dualgraph import boundary_coefficients, cartier_index
    from germcalc.germs import classify_lc_germ, resolution_graph

    for text in (PLT_GERM, GRAPH):
        assert main(["report", write(tmp_path, text)]) == 0
        rep = json.loads(capsys.readouterr().out)
        gf = parse_germ_file(json.dumps(rep["input"]))
        g = resolution_graph(gf.germ) if gf.payload["kind"] == "cyclic_quotient" else gf.graph
        assert rep["discrepancies"] == [str(-b) for b in boundary_coefficients(g)]
        assert rep["cartier_index"] == cartier_index(g)
        cls = classify_lc_germ(g)
        assert rep["classification"]["gamma"] == str(cls.gamma)
        assert F(rep["different"]) == 1 - cls.gamma


def lc_center_fork(tag, curves):
    """A D31 or D32 fork of ``curves`` curves whose arm labels cycle 2, 2,
    2, 3: every arm curve has b = 1, so the numerators repeat along it."""
    arm = curves - (2 if tag == "DIHEDRAL_31" else 1)
    chain = [(2, 2, 2, 3)[i % 4] for i in range(arm)]
    if tag == "DIHEDRAL_31":
        return {"kind": "dual_graph", "chain": chain,
                "forks": [[arm, 2], [arm, 2]], "branches": [[1, "1"]]}
    return {"kind": "dual_graph", "chain": chain,
            "forks": [[arm, 2]], "branches": [[1, "1"], [arm, "1/2"]]}


@pytest.mark.parametrize("tag", ["DIHEDRAL_31", "DIHEDRAL_32"])
def test_a_long_lc_center_report_matches_the_fraction_route(tmp_path, capsys, tag):
    # D has 192 digits; Fraction reduces each b on its own, sharing no
    # code with the writer's run of equal numerators
    text = json.dumps(lc_center_fork(tag, 1000))
    g = parse_germ_file(text).graph
    assert len(str(solved_numerators(g)[1])) == 192
    assert main(["report", write(tmp_path, text)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["case"] == tag and rep["cartier_index"] == 2
    bs = boundary_coefficients(g)
    assert rep["discrepancies"] == [format_rat(-b) for b in bs]
    assert rep["modification"]["extracted_curves"] == [
        i + 1 for i, b in enumerate(bs) if b == 1]


def test_verbose_summary_on_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    assert main(["--verbose", "classify", write(tmp_path, PLT_GERM)]) == 0
    captured = capsys.readouterr()
    assert "PLT_CHAIN" in captured.err


def test_residue_rejects_nonpositive_m_max(tmp_path, capsys):
    assert main(["residue", write(tmp_path, PLT_GERM), "--m-max", "-3"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"


def test_residue_table_reaches_the_m_max_limit(tmp_path, capsys):
    assert main(["residue", write(tmp_path, PLT_GERM), "--m-max", str(M_MAX_LIMIT)]) == 0
    table = json.loads(capsys.readouterr().out)["residue_table"]
    assert table == fraction_table(Fraction(1, 10), M_MAX_LIMIT)


@settings(max_examples=60, deadline=None)
@given(gamma=st.integers(1, 200).flatmap(
           lambda n: st.integers(1, n).map(lambda p: Fraction(p, n))),
       m_max=st.integers(1, 500))
def test_residue_rows_match_the_fraction_oracle(tmp_path_factory, gamma, m_max):
    # the order-1 germ with side 1 - gamma has slope gamma
    path = tmp_path_factory.getbasetemp() / "slope.json"
    path.write_text(json.dumps({"kind": "cyclic_quotient", "n": 1, "q": 1,
                                "side": str(1 - gamma)}), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["residue", str(path), "--m-max", str(m_max)]) == 0
    assert json.loads(out.getvalue())["residue_table"] == fraction_table(gamma, m_max)


@pytest.mark.parametrize("m_max", [M_MAX_LIMIT + 1, 1_000_000_000])
def test_residue_m_max_past_the_limit_is_an_error(tmp_path, capsys, m_max):
    assert main(["residue", write(tmp_path, PLT_GERM), "--m-max", str(m_max)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"
    assert str(M_MAX_LIMIT) in err["message"]


def test_failure_m_past_the_search_limit_is_an_error(capsys):
    assert main(["failure-m", "--coeffs", "1/1000000007,1/1000000009"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"


def test_failure_m_past_the_coefficient_limit_is_an_error(capsys):
    coeffs = ",".join(["1/1000000007"] * (FAILURE_COEFF_LIMIT + 1))
    assert main(["failure-m", "--coeffs", coeffs]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"
    assert str(FAILURE_COEFF_LIMIT) in err["message"]


def test_failure_m_with_a_certificate_past_the_digit_limit_is_an_error(capsys):
    # the certificate has about 8700 digits; its message says so, and
    # the run ends in the error object, not in a traceback
    coeffs = ",".join(str(Fraction(1, 10**2900 + k)) for k in (1, 3, 7))
    assert main(["failure-m", "--coeffs", coeffs]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"
    assert err["message"].endswith(f"too long to print: {DIGITS_EXCEEDED}")


@pytest.mark.parametrize("pair, flags", [
    # q = 3 leaves the 1/n(1,1) model: GlueMismatch
    ([{"n": 4, "q": 1, "side": "3/4"}, {"n": 4, "q": 3, "side": "3/4"}],
     ["q-mismatch", "restriction-unavailable"]),
    # side 0 is the coefficient c = 1, outside (0, 1)
    ([{"n": 2, "q": 1, "side": "0"}, {"n": 2, "q": 1, "side": "0"}],
     ["extrapolated", "restriction-unavailable"]),
    # unmatched slopes: GlueMismatch, and no classification either
    ([{"n": 2, "q": 1, "side": "3/4"}, {"n": 3, "q": 1, "side": "3/4"}],
     ["glue-mismatch", "restriction-unavailable"]),
    # side 1 is c = 0, outside (0, 1), on a consistent lc-center pair
    ([{"n": 3, "q": 1, "side": "1"}, {"n": 5, "q": 1, "side": "1"}],
     ["restriction-unavailable"]),
])
def test_a_glue_the_model_refuses_is_flagged(tmp_path, capsys, pair, flags):
    record = {"kind": "glued", "glue_ok": True, "components": pair}
    assert main(["glue", write(tmp_path, json.dumps(record))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["restriction"] is None
    assert out["flags"] == flags


def test_a_glue_coefficient_past_the_digit_limit_is_an_error(tmp_path, capsys):
    # (mn - ceil(m/2))/n for m of 4300 digits has more digits than
    # int-to-text converts: LimitExceeded, not a flag
    comp = {"n": 1000003, "q": 1, "side": "1/2"}
    record = {"kind": "glued", "glue_ok": True, "components": [comp, comp]}
    assert main(["glue", write(tmp_path, json.dumps(record)), "--m", "9" * 4300]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "LimitExceeded", "message": DIGITS_EXCEEDED}


def test_glue_rejects_nonpositive_m(tmp_path, capsys):
    assert main(["glue", write(tmp_path, GLUED), "--m", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"


def test_deeply_nested_json_is_a_parse_failure(tmp_path, capsys):
    deep = "[" * 200_000 + "]" * 200_000
    assert main(["report", write(tmp_path, deep)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def _report_process(*flags, name="glued_pair", **kwargs):
    """``germcalc [flags] report <name>.json`` in a fresh interpreter,
    with the given subprocess.run arguments; stderr is captured unless
    they say otherwise."""
    fixture = FIXTURES / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "germcalc.cli", *flags, "report", str(fixture)],
        env=env, timeout=60, **kwargs)


def test_closed_stdout_exits_one_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = _report_process(stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_a_process_without_stdout_exits_one_without_traceback():
    # as `germcalc report f.json >&-`: fd 1 is closed, so sys.stdout is None
    proc = _report_process(preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == b""


def _c_locale_report(source, **kwargs):
    """``germcalc report <source>`` under the C locale in a fresh
    interpreter, with the given subprocess.run arguments: its exit code
    and its error object, after checking that no traceback is printed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C")
    proc = subprocess.run([sys.executable, "-m", "germcalc.cli", "report", str(source)],
                          capture_output=True, env=env, timeout=60, **kwargs)
    assert b"Traceback" not in proc.stdout + proc.stderr
    return proc.returncode, json.loads(proc.stdout)["error"]


def test_a_closed_stdin_is_a_parse_failure():
    # as `germcalc report - <&-`: fd 0 is closed, so sys.stdin is None
    code, err = _c_locale_report("-", preexec_fn=lambda: os.close(0))
    assert code == 2 and err["type"] == "ParseError"
    assert err["message"].startswith("cannot read -: ")


@pytest.mark.parametrize("data, message, line, column", [
    (b'{"kind": "cyclic_quotient", "n": 5, "q": 2, "side": "1\xff"}',
     "input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 54: "
     "invalid start byte", None, None),
    (b'{\r"kind"\r: x}', "Expecting value", 3, 3),
], ids=["not-utf8", "lone-cr"])
def test_stdin_bytes_read_as_the_same_file_bytes(tmp_path, data, message, line, column):
    # under the C locale Python would read stdin text with surrogateescape
    # and without newline translation; the bytes are decoded as a file's
    path = tmp_path / "germ.json"
    path.write_bytes(data)
    from_file = _c_locale_report(path)
    assert _c_locale_report("-", input=data) == from_file
    code, err = from_file
    assert code == 2 and err["type"] == "ParseError"
    assert (err["message"], err["line"], err["column"]) == (message, line, column)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_stdout_device_exits_one_without_traceback():
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = _report_process(stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _verbose_plt_chain(**kwargs):
    """``germcalc --verbose report plt_chain.json`` with stdout captured,
    checked to be the golden report."""
    proc = _report_process("--verbose", name="plt_chain", stdout=subprocess.PIPE, **kwargs)
    assert proc.stdout == (FIXTURES.parent / "golden" / "plt_chain.report.json").read_bytes()
    return proc


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_summary_a_full_stderr_cannot_take_leaves_exit_zero():
    with open("/dev/full", "wb") as full:
        assert _verbose_plt_chain(stderr=full).returncode == 0


def test_a_summary_a_closed_stderr_cannot_take_leaves_exit_zero():
    # as `germcalc --verbose report f.json 2>&-`
    assert _verbose_plt_chain(preexec_fn=lambda: os.close(2)).returncode == 0


def test_importing_the_cli_leaves_typing_out():
    # nor dataclasses, whose import loads inspect and through it ast, dis
    # and tokenize: the frozen records are built without it
    unused = "{'typing', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    code = f"import sys, germcalc.cli; print(sorted({unused} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call of main."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # subcommand parsers are "germcalc <name>"
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setenv("NO_COLOR", "1")
    path = write(tmp_path, GLUED)
    calls = [["no-such-command", path], ["report", path], ["--verbose", "report", path]]
    try:
        cli._build_parser.cache_clear()
        shared = [_outcome(argv, capsys) for argv in calls]
        assert built.count("germcalc") == 1
        assert cli._build_parser() is cli._build_parser()
        assert built.count("germcalc") == 1
        fresh, builds = [], []
        for argv in calls:
            cli._build_parser.cache_clear()
            before = built.count("germcalc")
            fresh.append(_outcome(argv, capsys))
            builds.append(built.count("germcalc") - before)
        # the refusal builds the parser; the two direct forms build none
        assert builds == [1, 0, 0]
    finally:
        cli._build_parser.cache_clear()
    assert shared == fresh
    assert shared[0][0] == 2 and "invalid choice" in shared[0][2]
    assert shared[1][0] == 0 and shared[1][2] == ""
    assert shared[2][0] == 0 and shared[2][1] == shared[1][1]
    assert "case=TWO_COMPONENT_PLT" in shared[2][2]


# argv words for the direct reader: every subcommand, the flag and an
# abbreviation of it, help, "--", stdin, a FILE that argparse reads as a
# positional although it starts with "-" (a negative number), options of
# the file subcommands with and without values, and a germ file
ARGV_WORDS = st.sampled_from([
    "classify", "discrepancy", "report", "residue", "glue", "failure-m", "stdcoeff",
    "--verbose", "--verb", "-h", "--help", "--", "-", "-5", "", " x", "-x y",
    "--m-max", "--m-max=6", "--m", "--m=3", "--m-m", "3", "--coeffs=1/2,1/3",
    str(FIXTURES / "plt_chain.json")])
WORDS = ARGV_WORDS | st.text(max_size=6)
# any list of words, and lists of the direct form's shape
ARGVS = st.lists(WORDS, max_size=4) | st.builds(
    lambda flag, command, file: [*flag, command, file],
    st.sampled_from([[], ["--verbose"]]), ARGV_WORDS, WORDS)


def _captured(argv, parse):
    """(exit code, stdout, stderr) of main(argv) with cli._parse_args
    set to parse, and a glued germ file on stdin. --help's SystemExit
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(GLUED.encode()))
    with (mock.patch.object(cli, "_parse_args", parse), mock.patch.object(sys, "stdin", stdin),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(ARGVS)
@example(["--verbose", "residue", "-"])
@example(["glue", str(FIXTURES / "glued_pair.json")])
@example(["report", "-5"])
def test_the_direct_reader_agrees_with_argparse(argv):
    # the direct form is the one _parse_args reads with no parser
    with mock.patch.object(cli, "_build_parser", side_effect=LookupError):
        try:
            direct = cli._parse_args(argv)
        except LookupError:
            direct = None
    if direct is not None:
        assert type(direct) is SimpleNamespace
        assert vars(direct) == vars(cli._build_parser().parse_args(argv))
    forced = _captured(argv, lambda words: cli._build_parser().parse_args(words))
    assert _captured(argv, cli._parse_args) == forced


def test_the_direct_form_loads_no_argparse():
    script = """if True:
        import contextlib, io, sys
        from germcalc.cli import main
        for argv in (["report", sys.argv[1]], ["residue", sys.argv[1], "--m-max", "3"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            print(sorted({"argparse", "gettext"} & set(sys.modules)))
    """
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(FIXTURES / "plt_chain.json")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    assert proc.stdout == "[]\n['argparse', 'gettext']\n"


@pytest.mark.parametrize("name, solves", [
    ("plt_chain", 1), ("cyclic_center", 1), ("dihedral_fork", 1),
    ("dihedral_half_branch", 1), ("dihedral_two_half", 1),
    ("glued_pair", 2),  # one per component
])
def test_one_elimination_per_graph_in_a_report(capsys, monkeypatch, name, solves):
    runs = []

    def counting(g):
        runs.append(g)
        return eliminate(g)

    eliminate = dualgraph._eliminate
    monkeypatch.setattr(dualgraph, "_eliminate", counting)
    assert main(["report", str(FIXTURES / f"{name}.json")]) == 0
    capsys.readouterr()
    assert len(runs) == solves


@pytest.mark.parametrize("name, classes", [
    ("plt_chain", 1), ("cyclic_center", 1), ("dihedral_fork", 1),
    ("dihedral_half_branch", 1), ("dihedral_two_half", 1),
    ("glued_pair", 2),  # one per component
])
def test_one_classification_per_germ_in_a_report(capsys, monkeypatch, name, classes):
    runs = []

    def counting(g):
        runs.append(g)
        return classify(g)

    classify = germs.classify_lc_germ
    monkeypatch.setattr(germs, "classify_lc_germ", counting)
    monkeypatch.setattr(cli, "classify_lc_germ", counting)
    assert main(["report", str(FIXTURES / f"{name}.json")]) == 0
    capsys.readouterr()
    assert len(runs) == classes


def test_a_parsed_dual_graph_is_built_once(monkeypatch):
    # a graph built by the edge form or by the tree builder is stored
    # by one call of _finish
    built = []
    finish = dualgraph.ResolutionGraph._finish

    def counting(self, *args):
        finish(self, *args)
        built.append(self)

    monkeypatch.setattr(dualgraph.ResolutionGraph, "_finish", counting)
    gf = parse_germ_file((FIXTURES / "dihedral_fork.json").read_text())
    assert built == [gf.graph]
    assert gf.graph.selfints == (2, 2, 2)
    assert gf.graph.edges == {(0, 1), (0, 2)}


FORKS_NOT_A_LIST = "'forks' must be a list of [attach, selfint] entries"
BRANCHES_NOT_A_LIST = "'branches' must be a list of [attach, coeff] entries"


@pytest.mark.parametrize("record, message", [
    ({"forks": 5}, FORKS_NOT_A_LIST),
    ({"forks": None}, FORKS_NOT_A_LIST),
    ({"chain": [2], "branches": 3}, BRANCHES_NOT_A_LIST),
    ({"chain": [2], "branches": None}, BRANCHES_NOT_A_LIST),
])
def test_non_list_forks_or_branches_exit_one(tmp_path, capsys, record, message):
    path = write(tmp_path, json.dumps({"kind": "dual_graph", **record}))
    for command in ("report", "classify", "discrepancy", "residue"):
        assert main([command, path]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "ValidationError", "message": message}


# json.loads gives a bool, a float, a str or a list where an int belongs;
# the chain's type check refuses each before any label is read
@pytest.mark.parametrize("chain", [[2, True], [2, 2.0], [2, "2"], [2, [2]], "22"],
                         ids=repr)
def test_a_chain_of_anything_but_integers_exits_one(tmp_path, capsys, chain):
    path = write(tmp_path, json.dumps({"kind": "dual_graph", "chain": chain}))
    for command in ("report", "classify", "discrepancy", "residue"):
        assert main([command, path]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "ValidationError",
                       "message": "'chain' must be a list of integers"}


@pytest.mark.parametrize("record, message", [
    # a bad chain label comes before any fork or branch fault
    ({"chain": [2, 0], "forks": [[9, 2]], "branches": [[9, "x"]]},
     "self-intersection label 0 must be >= 1"),
    # fork entries are read in order, each before any branch entry
    ({"chain": [2], "forks": [[1, -1], "x"], "branches": [[9, "1"]]},
     "self-intersection label -1 must be >= 1"),
    ({"chain": [2], "forks": [[1, 2], [3, 2]], "branches": [[1, "3/2"]]},
     "fork attach index 3 out of range 1..2"),
    ({"chain": [2], "forks": [[1, 2], [1, 0]]},
     "self-intersection label 0 must be >= 1"),
    ({"chain": [2], "forks": [[1, 2]], "branches": [[2, "3/2"], [9, "1"]]},
     "branch coefficient 3/2 outside (0, 1]"),
    ({"chain": [2], "forks": [[1, 2]], "branches": [[1, "1"], [3, "1"]]},
     "branch attach index 3 out of range 0..2"),
    ({"chain": [], "branches": [[0, "0"]]}, "branch coefficient 0 outside (0, 1]"),
    ({"chain": [2], "branches": [[0, "3/2"]]},
     "attach index 0 is only valid on an empty graph"),
    # 'forks' and 'branches' must be lists; a string is not one either
    ({"chain": [2, 0], "forks": 5}, "self-intersection label 0 must be >= 1"),
    ({"chain": [2], "forks": "12"}, FORKS_NOT_A_LIST),
    ({"chain": [2], "forks": [[1, 0]], "branches": 3},
     "self-intersection label 0 must be >= 1"),
    ({"chain": [2], "forks": [[3, 2]], "branches": None},
     "fork attach index 3 out of range 1..1"),
    ({"chain": [2], "branches": "1"}, BRANCHES_NOT_A_LIST),
])
def test_dual_graph_reports_its_first_fault_in_file_order(record, message):
    with pytest.raises(ValidationError) as err:
        parse_germ_file(json.dumps({"kind": "dual_graph", **record}))
    assert str(err.value) == message


def _error(kind, message):
    return {"error": {"type": kind, "message": message}}


GLUE_MISMATCH = {"kind": "glued", "glue_ok": True, "components": [
    {"n": 2, "q": 1, "side": "3/4"}, {"n": 4, "q": 1, "side": "1/4"}]}
UNGLUED = {"flags": ["extrapolated", "glue-mismatch", "restriction-unavailable"],
           "case": None, "classification": None}


@pytest.mark.parametrize("record, argv, code, fields", [
    # (germ file or None, argument words, exit code, fields of the output)
    ({"kind": "cyclic_quotient", "q": 1}, ["classify"], 1,
     _error("ValidationError", "missing field 'n'")),
    ({"kind": "cyclic_quotient", "n": 2, "q": 1, "side": 1}, ["report"], 1,
     _error("ValidationError", "field 'side' must be a rational string, got 1")),
    ({"kind": "cyclic_quotient", "n": 2, "q": 1, "side": "x"}, ["report"], 1,
     _error("ValidationError", "not a rational literal: 'x'")),
    ({"kind": "dual_graph", "chain": [2], "branches": [[1, 1]]}, ["report"], 1,
     _error("ValidationError", "branch coefficient 1 must be a rational string")),
    ({"kind": "glued", "components": [5]}, ["classify"], 1,
     _error("ValidationError", "germ record must be an object, got 5")),
    ({"kind": "glued", "components": [{"kind": "dual_graph", "n": 2, "q": 1}]},
     ["glue"], 1,
     _error("ValidationError", "glued components must be cyclic_quotient records")),
    ({"kind": "dual_graph", "chain": [2], "forks": [[1]]}, ["discrepancy"], 1,
     _error("ValidationError", "fork entry [1] must be [attach, selfint]")),
    ({"kind": "dual_graph", "chain": [2], "branches": [[1]]}, ["discrepancy"], 1,
     _error("ValidationError", "branch entry [1] must be [attach, coeff]")),
    ({"kind": "dual_graph", "chain": [2], "branches": [["1", "1"]]}, ["discrepancy"], 1,
     _error("ValidationError", "branch attach '1' must be an integer")),
    ({"kind": "dual_graph", "chain": [2], "branches": [[1, "1/x"]]}, ["discrepancy"], 1,
     _error("ValidationError", "not a rational literal: '1/x'")),
    (None, ["failure-m", "--coeffs", "1/2,x"], 1,
     _error("ValidationError", "not a rational literal: 'x'")),
    (None, ["stdcoeff", "--c", "1/0", "--m", "2"], 1,
     _error("ValidationError", "not a rational literal: '1/0'")),
    # the differents 7/8 and 13/16 disagree: no trichotomy, but a glue record
    (GLUE_MISMATCH, ["glue"], 0, UNGLUED),
    (GLUE_MISMATCH, ["report"], 0, UNGLUED),
    # a -2 curve beyond the far end goes on: UNCLASSIFIED, nothing extracted
    ({"kind": "dual_graph", "chain": [2, 2], "forks": [[2, 2]],
      "branches": [[1, "1"], [1, "1/3"]]}, ["report"], 0,
     {"case": "UNCLASSIFIED", "modification": None,
      "flags": ["residue-not-applicable"]}),
    # a decimal digit that is not ASCII
    ({"kind": "cyclic_quotient", "n": 5, "q": 2, "side": "\u0663/4"}, ["report"], 1,
     _error("ValidationError", "not a rational literal: '\u0663/4'")),
    # padding that is Unicode whitespace but not ASCII
    ({"kind": "cyclic_quotient", "n": 5, "q": 2, "side": "\u00a01/2"}, ["classify"], 1,
     _error("ValidationError", "not a rational literal: '\\xa01/2'")),
])
def test_record_and_argument_faults_keep_their_messages(tmp_path, capsys, record,
                                                        argv, code, fields):
    if record is not None:
        argv = [*argv, write(tmp_path, json.dumps(record))]
    assert main(argv) == code
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in fields} == fields


def test_overlong_integer_literal_is_a_parse_failure(tmp_path, capsys):
    # json.loads refuses integer literals past the interpreter's
    # int-from-str digit limit (4300 digits by default)
    text = '{"kind":"cyclic_quotient","n":' + "7" * 5000 + ',"q":1}'
    assert main(["report", write(tmp_path, text)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ParseError"


HUGE_CHAIN = [10**50] * 100  # numerators and denominators of about 5000 digits


@pytest.mark.parametrize("command", ["report", "discrepancy", "classify"])
def test_rationals_past_the_digit_limit_are_limit_exceeded(tmp_path, capsys, command):
    record = {"kind": "dual_graph", "chain": HUGE_CHAIN, "branches": [[1, "1"]]}
    assert main([command, write(tmp_path, json.dumps(record))]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"


@pytest.mark.parametrize("command", ["report", "discrepancy", "classify", "residue"])
def test_a_graph_past_the_size_bound_stops_before_the_elimination(tmp_path, capsys,
                                                                  command):
    # 1000 labels of 10^50: a Hadamard bound of 166,097 bits. Solved, it
    # took minutes and still ended in LimitExceeded, at emit.
    record = {"kind": "dual_graph", "chain": [10**50] * 1000, "branches": [[1, "1"]]}
    path = write(tmp_path, json.dumps(record))
    start = time.perf_counter()
    assert main([command, path]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "LimitExceeded", "message": "the Hadamard bound of the "
                   f"curves exceeds the limit of {HADAMARD_BIT_LIMIT} bits"}


def test_the_longest_chain_of_2s_reports_under_the_size_bound(tmp_path, capsys):
    # 9,999 curves of label 2: a Hadamard bound of about 20,000 bits,
    # and determinants of at most 5 digits
    record = {"kind": "dual_graph", "chain": [2] * (VERTEX_LIMIT - 1),
              "branches": [[1, "1"]]}
    assert main(["report", write(tmp_path, json.dumps(record))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lc_class"] == "PLT" and report["case"] == "PLT_CHAIN"
    assert report["discrepancies"][-1] == f"-1/{VERTEX_LIMIT}"


def test_the_largest_dihedral_31_fork_reports_its_class(tmp_path, capsys):
    # an arm of 9,998 curves of label 2 with two -2 prongs at its far end:
    # 10^4 curves, every one of solved coefficient 1 but the prongs' 1/2
    arm = VERTEX_LIMIT - 2
    record = {"kind": "dual_graph", "chain": [2] * arm,
              "forks": [[arm, 2], [arm, 2]], "branches": [[1, "1"]]}
    assert main(["report", write(tmp_path, json.dumps(record))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lc_class"] == "LC_CENTER" and report["case"] == "DIHEDRAL_31"
    assert report["classification"]["cartier_index"] == 2
    assert report["discrepancies"][-2:] == ["-1/2", "-1/2"]
    assert report["modification"]["kept_curves"] == [arm + 1, arm + 2]


LONG_DEN = "1/" + "1" * 5000  # a canonical rational whose denominator has 5000 digits


@pytest.mark.parametrize("argv, record", [
    (["report"], {"kind": "cyclic_quotient", "n": 5, "q": 2, "side": LONG_DEN}),
    (["failure-m", "--coeffs", "1/2," + LONG_DEN], None),
    (["stdcoeff", "--c", LONG_DEN, "--m", "2"], None),
], ids=["side", "failure-m", "stdcoeff"])
def test_a_rational_string_past_the_digit_limit_is_limit_exceeded(tmp_path, capsys,
                                                                  argv, record):
    # the error names the package's digit limit, not the interpreter's advice
    if record is not None:
        argv = [*argv, write(tmp_path, json.dumps(record))]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "LimitExceeded", "message": INPUT_DIGITS_EXCEEDED}


def test_an_integer_past_the_digit_limit_is_limit_exceeded(capsys):
    # each coefficient parses, but the search bound, the denominator of
    # their sum, is an int of 4301 digits
    coeffs = "1/2,1/3,1/" + "9" * 4300
    assert main(["failure-m", "--coeffs", coeffs]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"


def test_an_integer_past_a_lowered_digit_limit_is_limit_exceeded(capsys):
    # the writer follows the interpreter's limit as it is set: at the
    # lowest limit the search bound, an int of limit + 1 digits, is refused
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        coeffs = "1/2,1/3,1/" + "9" * sys.get_int_max_str_digits()
        assert main(["failure-m", "--coeffs", coeffs]) == 1
    finally:
        sys.set_int_max_str_digits(old)
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"


def caterpillar(k):
    """A chain of k curves of label 3 with a -2 prong on every other one
    and a coefficient-1 branch on the first: not log canonical."""
    return {"kind": "dual_graph", "chain": [3] * k, "forks": [[i, 2] for i in range(1, k, 2)],
            "branches": [[1, "1"]]}


def test_a_germ_that_is_not_lc_is_refused_before_its_discrepancies_are_formatted(
        tmp_path, capsys, monkeypatch):
    def no_text(*args):
        raise AssertionError("discrepancies formatted for a refused germ")

    monkeypatch.setattr(cli, "format_ratios", no_text)
    path = write(tmp_path, json.dumps(caterpillar(60)))
    for command in ("report", "discrepancy"):
        assert main([command, path]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "NotApplicable", "message": "germ is not log canonical"}


# 45 curves of label 10^100 and three coefficient-1 branches on the
# first, whose b passes 1: D and the numerators have 14,949 bits, past
# 4300 digits
NOTLC_BIG = {"kind": "dual_graph", "chain": [10**100] * 45, "branches": [[1, "1"]] * 3}
# glued components whose differents disagree, with terms of about 8,000
# digits
GLUED_BIG = {"kind": "glued", "glue_ok": True, "components": [
    {"n": 10**4000 + 1, "q": 1, "side": f"1/{10**4000 + 3}"}, {"n": 2, "q": 1}]}


def test_a_germ_that_is_not_lc_with_numbers_past_the_digit_limit_is_not_applicable(
        tmp_path, capsys):
    # the germ is refused before any text is made for it, so its numbers
    # meet no digit limit, whatever the limit is
    path = write(tmp_path, json.dumps(NOTLC_BIG))
    old = sys.get_int_max_str_digits()
    for limit in (old, 0):
        sys.set_int_max_str_digits(limit)
        try:
            for command in ("report", "discrepancy"):
                assert main([command, path]) == 1
                assert json.loads(capsys.readouterr().out)["error"] == {
                    "type": "NotApplicable", "message": "germ is not log canonical"}
        finally:
            sys.set_int_max_str_digits(old)


def _differential():
    """scripts/cli_differential.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_differential.py"
    spec = importlib.util.spec_from_file_location("cli_differential", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_process(argv):
    """(exit code, stdout) of one in-process call of main; an uncaught
    error gives ("traceback", its type and message)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # the CLI is total: this is a fault
            return "traceback", f"{type(exc).__name__}: {exc}"[:200]
    return code, out.getvalue()


def test_a_refusal_does_not_depend_on_the_digit_limit(tmp_path):
    # every file variant of the differential, on the fixtures, on the
    # first 300 files of its seed 17 and on germs whose numbers pass the
    # limit, once with no limit and once at the default. A refusal keeps
    # its type; a success keeps its bytes, or it ends in the digit-limit
    # text when a number it prints is past the limit.
    diff = _differential()
    rng, aux = random.Random(17), random.Random("aux 17")
    texts = [diff.germ_bytes(rng, aux) for _ in range(300)]
    texts += [path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))]
    plt_big = {**NOTLC_BIG, "branches": [[1, "1"]]}  # its answer is past the limit
    texts += [json.dumps(rec).encode()
              for rec in (NOTLC_BIG, caterpillar(60), plt_big, GLUED_BIG)]
    drawn = random.Random("drawn 17")
    runs = []
    for k, text in enumerate(texts):
        path = tmp_path / f"germ{k:03d}.json"
        path.write_bytes(text)
        values = {diff.FILE: str(path),
                  diff.DRAWN: str(drawn.randint(1, diff.DRAWN_M_MAX_TOP))}
        runs += [[values.get(word, word) for word in variant] for variant in diff.VARIANTS]
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        unlimited = [_in_process(argv) for argv in runs]
    finally:
        sys.set_int_max_str_digits(default)
    limit_exceeded = {"type": "LimitExceeded", "message": DIGITS_EXCEEDED}
    faults = []
    for argv, (code, out), (code_at_limit, out_at_limit) in zip(
            runs, unlimited, map(_in_process, runs)):
        if "traceback" in (code, code_at_limit):
            ok = False
        elif code == 0:
            ok = out_at_limit == out or (
                code_at_limit == 1 and json.loads(out_at_limit)["error"] == limit_exceeded)
        else:
            kind = json.loads(out)["error"]["type"]
            ok = kind == "LimitExceeded" or (
                code_at_limit == code and json.loads(out_at_limit)["error"]["type"] == kind)
        if not ok:
            faults.append((argv, code, out[:200], code_at_limit, out_at_limit[:200]))
    assert not faults, "\n".join(map(str, faults))


# JSON trees for the writer: text with every kind of character json
# escapes (quotes, backslashes, controls, non-ASCII, lone surrogates),
# ints of any size below the digit limit, and nested lists and dicts.
TEXT = st.text(st.characters(exclude_categories=())
               | st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
               max_size=8)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
def test_the_report_writer_gives_the_text_of_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


# long lists, as a report's discrepancies and curve lists are: one of
# only str or only int items is one join, and any other writes its str
# and int items in its loop and hands its other items to the dispatch
LONG_LISTS = st.lists(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | TEXT
    | st.lists(st.integers() | TEXT | st.booleans(), max_size=3)
    | st.dictionaries(TEXT, st.integers() | st.none(), max_size=3),
    max_size=300) | st.lists(st.integers(-10**400, 10**400), max_size=300) | st.lists(
        TEXT, max_size=300)


@settings(max_examples=200, deadline=None)
@given(LONG_LISTS)
@example([True, 1, "1", None, [], {}, False, 0])
@example([1] * 20 + [True])
@example([True] + [2] * 15)
@example([0, -1, 2, -3] * 4)
@example([-10**400, 0, 10**400] * 6)
@example(["x"] * 16)
def test_the_report_writer_gives_the_text_of_json_dumps_on_long_lists(items):
    assert cli._dumps(items) == json.dumps(items, sort_keys=True, indent=2)
    assert cli._dumps({"l": [items]}) == json.dumps({"l": [items]}, sort_keys=True,
                                                    indent=2)


def test_an_integer_past_the_digit_limit_deep_in_a_long_list_is_limit_exceeded():
    items = list(range(5000)) + [[["x", 10**sys.get_int_max_str_digits()]]] + ["y"]
    with pytest.raises(LimitExceeded) as info:
        cli._dumps({"discrepancies": items})
    assert str(info.value) == DIGITS_EXCEEDED
    for chain in ([2] * 20 + [10**sys.get_int_max_str_digits()],
                  [10**sys.get_int_max_str_digits()] + [2] * 20):
        with pytest.raises(LimitExceeded):
            cli._dumps({"chain": chain})


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1, 2}, {1: "int key"}, {"nested": [Fraction(1, 2)]},
    germs.GermTag.PLT_CHAIN, ["x", 1, germs.GermTag.PLT_CHAIN], [1, "x", (1, 2)],
    [1, 2, 2.0], [germs.GermTag.PLT_CHAIN] * 20])
def test_the_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_the_report_writer_takes_the_residue_table_by_its_exact_type():
    class Table(ResidueTable):
        pass

    assert cli._dumps([ResidueTable(1, 3, 1)]) == json.dumps(
        [[{"m": 1, "source_exponent": 1, "target_exponent": 0,
           "surjective": True, "deficit": 0}]], sort_keys=True, indent=2)
    assert cli._dumps({"t": ResidueTable(1, 3, 0)}) == '{\n  "t": []\n}'
    with pytest.raises(TypeError):
        cli._dumps({"t": Table(1, 3, 2)})


def test_a_dual_graph_at_the_vertex_limit_parses():
    gf = parse_germ_file(json.dumps({"kind": "dual_graph",
                                     "chain": [2] * VERTEX_LIMIT}))
    assert gf.graph.n_vertices == VERTEX_LIMIT


@pytest.mark.parametrize("record", [
    {"chain": [2] * (VERTEX_LIMIT + 1)},
    {"chain": [2] * VERTEX_LIMIT, "forks": [[1, 2]]},
])
def test_a_dual_graph_past_the_vertex_limit_is_limit_exceeded(tmp_path, capsys, record):
    path = write(tmp_path, json.dumps({"kind": "dual_graph", **record}))
    assert main(["report", path]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"
    assert str(VERTEX_LIMIT) in err["message"]


@pytest.mark.parametrize("command", ["report", "classify", "glue", "residue"])
def test_a_cyclic_germ_past_the_vertex_limit_is_limit_exceeded(tmp_path, capsys,
                                                               command):
    # n/(n-1) expands to n - 1 curves: 10^8 of them here, unless stopped
    germ = {"kind": "cyclic_quotient", "n": 10**8 + 1, "q": 10**8}
    if command == "glue":
        germ = {"kind": "glued", "components": [germ]}
    text = json.dumps(germ)
    assert main([command, write(tmp_path, text)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "LimitExceeded"


def test_report_on_a_fractional_conductor_reads_the_class_slope(tmp_path, capsys):
    # the side branch carries coefficient 1, so the classification walks
    # from it and reads gamma = (1 - 1/2)/5 off the conductor end; the
    # residue table is the one of the same germ written as a dual graph
    germ = '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"1/2","side":"1"}'
    graph = '{"kind":"dual_graph","chain":[3,2],"branches":[[1,"1/2"],[2,"1"]]}'
    assert main(["report", write(tmp_path, germ)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "PLT_CHAIN"
    assert out["classification"]["gamma"] == "1/10"
    assert "residue-not-applicable" not in out["flags"]
    assert main(["residue", write(tmp_path, graph, "graph.json")]) == 0
    table = json.loads(capsys.readouterr().out)["residue_table"]
    assert out["residue_table"] == table
    assert len(table) == 24 and all(row["surjective"] for row in table)


FIXTURE_NAMES = ["plt_chain", "cyclic_center", "dihedral_fork",
                 "dihedral_half_branch", "dihedral_two_half", "glued_pair"]
# cyclic files whose residue table is the classification's, like the report's
EXTRA_INPUTS = {
    "cyclic_lc_center":
        '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"1","side":"1"}',
    "cyclic_half_conductor":
        '{"kind":"cyclic_quotient","n":5,"q":2,"conductor":"1/2","side":"1"}',
}


def _fields(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(EXTRA_INPUTS))
def test_each_subcommand_agrees_with_the_report(tmp_path, capsys, name):
    if name in EXTRA_INPUTS:
        path = write(tmp_path, EXTRA_INPUTS[name])
    else:
        path = str(FIXTURES / f"{name}.json")
    code, report = _fields(["report", path], capsys)
    assert code == 0
    code, classified = _fields(["classify", path], capsys)
    assert code == 0
    assert classified.pop("input") == report["input"]
    assert classified.pop("case") == report["case"]
    assert classified == report["classification"]
    if name == "glued_pair":
        assert _fields(["discrepancy", path], capsys)[0] == 1
        code, glue = _fields(["glue", path], capsys)
        assert code == 0 and glue == {k: report[k] for k in glue}
        # each component's detail is that component's own germ file
        for detail in report["components_detail"]:
            comp = write(tmp_path, json.dumps(detail["input"]), "comp.json")
            fields = {**_fields(["discrepancy", comp], capsys)[1],
                      **_fields(["classify", comp], capsys)[1]}
            del fields["case"]
            assert fields == {key: detail[key] for key in fields}
        return
    code, disc = _fields(["discrepancy", path], capsys)
    assert code == 0 and disc == {k: report[k] for k in disc}
    code, residue = _fields(["residue", path, "--m-max", "24"], capsys)
    if report["residue_table"] is None:
        assert code == 1
    else:
        assert code == 0 and residue["residue_table"] == report["residue_table"]


def test_a_raising_germ_file_analysis_caches_nothing(monkeypatch):
    # three coefficient-1 branches through one -2 curve: not log canonical
    text = '{"kind":"dual_graph","chain":[2],"branches":[[1,"1"],[1,"1"],[1,"1"]]}'
    runs = []

    def counting(g):
        runs.append(g)
        return classify(g)

    classify = cli.classify_lc_germ
    monkeypatch.setattr(cli, "classify_lc_germ", counting)
    gf = parse_germ_file(text)
    for name in ("discrepancy", "classification", "modification"):
        for _ in range(2):
            with pytest.raises(NotApplicable):
                getattr(gf, name)
        assert name not in vars(gf)
    assert len(runs) == 4  # classification and modification read it twice each
    gf = parse_germ_file(PLT_GERM)
    assert gf.modification is gf.modification and gf.discrepancy is gf.discrepancy
    assert {"classification", "modification", "discrepancy"} <= set(vars(gf))
