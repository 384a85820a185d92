"""The command line's own work: its parser, built per call, and its JSON
report writer, which must give json.dumps's bytes."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact import cli
from kontact.cli import build_parser, main

SUBCOMMANDS = ["verify-structure", "reeb", "legendrian", "hddw", "ideal-gas", "bjorken"]


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# the report writer

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
FLOATS = (st.floats() | st.sampled_from(EDGE_FLOATS)
          | st.floats().map(np.float64) | st.sampled_from(EDGE_FLOATS).map(np.float64))
# non-ASCII, quotes, backslashes and control characters all need escapes
TEXT = st.text(st.characters(max_codepoint=0x1F600) | st.sampled_from('"\\\n\t\x00\x1f\x7f'),
               max_size=8)
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
VALUES = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=24)


@given(VALUES)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(value):
    assert cli._json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]],
                                   {"x": [1, (2.5, None)], "y": {"z": True}}])
def test_writer_empty_and_nested_containers(value):
    assert cli._json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [Fraction(1, 3), {"a": [Fraction(1, 3)]}, {1: "a"},
                                   {"a": {2: 0.5}}, np.int64(3), {"a", "b"}])
def test_writer_refuses_what_json_would_not_write(value):
    # json.dumps would turn an int key into a string; a report has str keys only
    with pytest.raises(TypeError):
        cli._json_text(value)


def _section(tmp_path):
    # a constant section on hydro2 solves the H = 0 equations
    path = tmp_path / "sect.json"
    path.write_text(json.dumps({"components": {"xi": "1/3", "V": "1"}}))
    return str(path)


def _kfunction(tmp_path):
    path = tmp_path / "kf.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "I": [1],
                                "F": ["p_1_1*(q_2^2 + 1) - 2", "p_2_1*(q_2^2 + 1) - q_2"]}))
    return str(path)


def _system(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"structure": "thermo", "H": "-(P - V^(-5/3))*V"}))
    return str(path)


X0 = json.dumps({"E": 2, "S": 1, "V": 1, "N": 1, "T": 1.25, "P": 1.25, "mu": -1.25})
RUNS = {
    "verify-structure": lambda tmp: ["verify-structure", "--builtin", "hydro2",
                                     "--points", "4"],
    "reeb": lambda tmp: ["reeb", "--builtin", "thermo"],
    "legendrian": lambda tmp: ["legendrian", _kfunction(tmp)],
    "hddw-section": lambda tmp: ["hddw", "--builtin", "hydro2", "--section", _section(tmp)],
    "hddw-flow": lambda tmp: ["hddw", "--system", _system(tmp), "--x0", X0,
                              "--t-end", "0.05", "--dt", "0.01"],
    "ideal-gas": lambda tmp: ["ideal-gas", "--t-end", "0.01"],
    "bjorken": lambda tmp: ["bjorken", "--gamma", "1/2"],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_equals_json_dumps_of_its_dict(run, tmp_path, monkeypatch, capsys):
    # with wall_time_s, a float the run computes, in the report too
    reports = []

    def spy(report):
        reports.append(report)
        return write(report)

    write = cli._json_text
    monkeypatch.setattr(cli, "_json_text", spy)
    path = tmp_path / "r.json"
    assert main(RUNS[run](tmp_path) + ["--samples", "16", "--json", str(path)]) == 0
    [report] = reports
    assert "wall_time_s" in report
    assert path.read_text(encoding="utf-8") == _dumps(report) + "\n"


def test_report_text_is_built_only_for_json(monkeypatch, capsys):
    def refuse(report):
        raise AssertionError("report text built without --json")

    monkeypatch.setattr(cli, "_json_text", refuse)
    assert main(["reeb", "--builtin", "thermo"]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")


# ---------------------------------------------------------------------------
# the parser: one subparser when argv names its subcommand, all six otherwise

USAGE_ARGVS = ([[], ["-h"], ["--help"], ["bogus"], ["bogus", "--help"]]
               + [[sub, "--help"] for sub in SUBCOMMANDS]
               + [["verify-structure", "--builtin", "hydro2", "a.json", "extra"],
                  ["reeb", "--bad"], ["legendrian"], ["hddw", "--seed", "x"],
                  ["ideal-gas", "--cv", "0/1"], ["bjorken", "--gamma"]])


def _parse(parser, argv, capsys):
    """(the parsed namespace, or the exit code of help or a usage error,
    stdout, stderr)."""
    try:
        parsed = vars(parser.parse_args(argv))
    except SystemExit as err:
        parsed = err.code
    out = capsys.readouterr()
    return parsed, out.out, out.err


@pytest.mark.parametrize("argv", USAGE_ARGVS + [["verify-structure", "--builtin", "hydro2",
                                                 "extra"]], ids=" ".join)
def test_per_call_parser_parses_as_the_full_parser(argv, capsys):
    assert _parse(build_parser(argv), argv, capsys) == _parse(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_help_and_usage_text_is_the_full_parser_text(argv, capsys):
    code, out, err = _parse(build_parser(), argv, capsys)
    assert main(argv) == (0 if code in (0, None) else 2)
    got = capsys.readouterr()
    assert (got.out, got.err) == (out, err)


def test_usage_line_names_every_subcommand(capsys):
    assert main(["verify-structure", "--builtin", "hydro2", "a.json", "extra"]) == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(SUBCOMMANDS) + "}" in err
    assert err.endswith("kontact: error: unrecognized arguments: extra\n")


# ---------------------------------------------------------------------------
# a constant expression that cannot be built is a usage error

@pytest.mark.parametrize("argv, message", [
    (["hddw", "--builtin", "thermo", "--H", "1/0"],
     "0 raised to a negative power (at column 2: '1/0')"),
    (["bjorken", "--gamma", "log(0)"],
     "log of non-positive constant 0 (at column 1: 'log(0)')"),
    (["bjorken", "--I", "1/0"], "0 raised to a negative power (at column 2: '1/0')"),
    (["bjorken", "--T-profile", "tau^(1/0)"],
     "0 raised to a negative power (at column 7: 'tau^(1/0)')"),
])
def test_constant_that_cannot_be_built_is_a_usage_error(argv, message, capsys):
    assert main(argv + ["--samples", "16", "--no-timestamp"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
