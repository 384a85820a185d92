"""Definition files and the command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import os
import sys
import warnings
from pathlib import Path

import pytest

from kontact.cli import main
from kontact.errors import ParseError
from kontact.fileio import (
    load_kfunction_file,
    load_section_file,
    load_structure_file,
    resolve_structure,
)
from kontact.hydro import hydro_chart
from kontact.kcontact import verify_kcontact
from kontact.config import RunConfig

FAST = RunConfig(n_sample_points=16)


CANONICAL_11 = {
    "chart": {"coords": ["s", "q", "p"]},
    "forms": {
        "eta1": {"degree": 1, "coeffs": {"0": "1", "1": "-p"}},
    },
    "eta": ["eta1"],
}


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(CANONICAL_11))
    return str(path)


class TestStructureFiles:
    def test_round_trip(self, structure_file):
        s = load_structure_file(structure_file)
        assert s.k == 1 and s.dim == 3
        assert all(c.verdict == "pass" for c in verify_kcontact(s, n_points=4, config=FAST))

    def test_constraints_and_ranges(self, tmp_path):
        spec = {
            "chart": {"coords": ["V", "w"], "constraints": ["V"],
                      "ranges": {"V": ["1/2", "2"]}},
            "forms": {"f": {"degree": 1, "coeffs": {"0": "1/V"}}},
            "eta": ["f"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        s = load_structure_file(path)
        lo, hi = s.chart.ranges["V"]
        assert (lo, hi) == (0.5, 2)

    def test_malformed_expression(self, tmp_path):
        bad = dict(CANONICAL_11)
        bad["forms"] = {"eta1": {"degree": 1, "coeffs": {"0": "1 +"}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_structure_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_structure_file(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_structure_file(path)

    def test_undefined_eta_name(self, tmp_path):
        bad = dict(CANONICAL_11)
        bad["eta"] = ["nope"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_structure_file(path)


class TestKFunctionFiles:
    def test_load(self, tmp_path):
        path = tmp_path / "kf.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 2, "I": [1], "F": ["p_1_1 * q_2", "p_2_1 * q_2"]}))
        kf = load_kfunction_file(path)
        assert kf.n == 2 and kf.k == 2 and kf.I == (1,)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "kf.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "I": [1]}))
        with pytest.raises(ParseError):
            load_kfunction_file(path)


class TestSectionFiles:
    def test_defaults_to_zero(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"components": {"xi": "t_0"}}))
        chart = hydro_chart(2)
        psi = load_section_file(path, chart, 2)
        assert str(psi.bindings()["xi"]) == "t_0"
        assert str(psi.bindings()["V"]) == "0"

    def test_unknown_coordinate_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"components": {"nope": "1"}}))
        with pytest.raises(ParseError):
            load_section_file(path, hydro_chart(2), 2)


MALFORMED_STRUCTURES = {
    "duplicate_coords": {"chart": {"coords": ["s", "s"]}},
    "top_level_list": [CANONICAL_11],
    "range_not_a_pair": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                   "ranges": {"q": "abc"}}},
    "range_not_rational": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                     "ranges": {"q": ["abc", "1"]}}},
    "key_length": {**CANONICAL_11, "forms": {"eta1": {"degree": 1,
                                                      "coeffs": {"1,0": "1"}}}},
    "bad_expression": {**CANONICAL_11, "forms": {"eta1": {"degree": 1,
                                                          "coeffs": {"0": "1 +"}}}},
    "coeff_a_number": {**CANONICAL_11, "forms": {"eta1": {"degree": 1,
                                                          "coeffs": {"0": 1}}}},
    "constraint_a_number": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                      "constraints": [1]}},
    "degree_a_float": {**CANONICAL_11, "forms": {"eta1": {"degree": 1.7,
                                                          "coeffs": {"0": "1"}}}},
    "range_bound_a_bool": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                     "ranges": {"q": [True, 2]}}},
    # "12" was read as the bounds 1 and 2; [0, 1, 2] ended in "too many
    # values to unpack"; [2, 1] sampled q = 2 only; zz was sampled as a
    # phantom variable; an infinite bound or "1/0" ended in a traceback
    "range_a_string": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                 "ranges": {"q": "12"}}},
    "range_of_three": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                 "ranges": {"q": [0, 1, 2]}}},
    "range_reversed": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                 "ranges": {"q": [2, 1]}}},
    "range_of_no_coordinate": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                         "ranges": {"zz": [0, 1]}}},
    "constraint_of_no_coordinate": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                              "constraints": ["zz"]}},
    "range_bound_infinite": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                       "ranges": {"q": [0, float("inf")]}}},
    "range_bound_over_zero": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                        "ranges": {"q": ["1/0", 1]}}},
    # a string where a list belongs was read character by character: "sqp"
    # ran as the chart (s, q, p), "eta1" as the forms e, t, a, 1
    "coords_a_string": {**CANONICAL_11, "chart": {"coords": "sqp", "constraints": "s"}},
    "constraints_a_string": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                       "constraints": "s"}},
    "eta_a_string": {**CANONICAL_11, "eta": "eta1"},
    "chart_a_list": {**CANONICAL_11, "chart": ["s", "q", "p"]},
    "ranges_a_list": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                "ranges": [["q", 0, 1]]}},
    "forms_a_list": {**CANONICAL_11, "forms": ["eta1"]},
    "form_a_string": {**CANONICAL_11, "forms": {"eta1": "ds - p dq"}},
    "coeffs_a_list": {**CANONICAL_11, "forms": {"eta1": {"degree": 1, "coeffs": ["1", "-p"]}}},
    # a number as a coordinate name ended in a traceback, a list as a form name
    # in "unhashable type"
    "coord_a_number": {**CANONICAL_11, "chart": {"coords": ["s", "q", 3]}},
    "eta_entry_a_list": {**CANONICAL_11, "eta": [["eta1"]]},
    # a constant that cannot be built ended in a DomainError naming no file
    "coeff_over_zero": {**CANONICAL_11, "forms": {"eta1": {"degree": 1,
                                                           "coeffs": {"0": "1", "1": "p/0"}}}},
    "constraint_log_zero": {**CANONICAL_11, "chart": {"coords": ["s", "q", "p"],
                                                      "constraints": ["s + log(0)"]}},
}
MALFORMED_KFUNCTIONS = {
    "n_not_an_integer": {"n": "x", "k": 1, "I": [], "F": ["p_1_1"]},
    "I_out_of_range": {"n": 2, "k": 1, "I": [3], "F": ["p_1_1"]},
    "missing_key": {"n": 2, "I": [1], "F": ["p_1_1"]},
    "F_entry_a_number": {"n": 2, "k": 2, "I": [1], "F": ["p_1_1", 3]},
    "F_entry_null": {"n": 2, "k": 2, "I": [1], "F": ["p_1_1", None]},
    # each of these ran, truncated, as n = 2 or I = [1]
    "n_a_float": {"n": 2.9, "k": 2, "I": [1], "F": ["p_1_1*q_2", "p_2_1*q_2"]},
    "n_a_bool": {"n": True, "k": 1, "I": [], "F": ["q_1"]},
    "I_entry_a_float": {"n": 2, "k": 2, "I": [1.5], "F": ["p_1_1*q_2", "p_2_1*q_2"]},
    # "q_1" was read as the three functions q, _, 1
    "F_a_string": {"n": 1, "k": 1, "I": [], "F": "q_1"},
    "I_a_string": {"n": 2, "k": 1, "I": "1", "F": ["p_1_1"]},
    "F_entry_over_zero": {"n": 2, "k": 2, "I": [1], "F": ["p_1_1*q_2/0", "p_2_1*q_2"]},
}
# the error line of a value of the wrong JSON type names its field
MALFORMED_MESSAGES = {
    "coeff_a_number": "form 'eta1' coeffs \"0\" needs an expression string, got 1",
    "constraint_a_number": "constraints[0] needs an expression string, got 1",
    "degree_a_float": "form 'eta1' degree must be a JSON integer, got 1.7",
    "range_bound_a_bool": "cannot read true as a rational bound",
    "range_not_a_pair": 'ranges "q" must be a JSON list of two bounds, got "abc"',
    "range_not_rational": 'cannot read "abc" as a rational bound',
    "range_a_string": 'ranges "q" must be a JSON list of two bounds, got "12"',
    "range_of_three": 'ranges "q" must be a JSON list of two bounds, got [0, 1, 2]',
    "range_reversed": 'ranges "q" has lower bound 2 above upper bound 1',
    "range_of_no_coordinate": 'ranges "zz" names no chart coordinate',
    "constraint_of_no_coordinate": "constraints[0] names unknown variables ['zz']",
    "range_bound_infinite": "cannot read Infinity as a rational bound",
    "range_bound_over_zero": 'cannot read "1/0" as a rational bound',
    "F_entry_a_number": "F[1] needs an expression string, got 3",
    "F_entry_null": "F[1] needs an expression string, got null",
    "n_a_float": "n must be a JSON integer, got 2.9",
    "n_a_bool": "n must be a JSON integer, got true",
    "I_entry_a_float": "I[0] must be a JSON integer, got 1.5",
    "coords_a_string": 'coords must be a JSON list, got "sqp"',
    "constraints_a_string": 'constraints must be a JSON list, got "s"',
    "eta_a_string": 'eta must be a JSON list, got "eta1"',
    "chart_a_list": 'chart must be a JSON object, got ["s", "q", "p"]',
    "ranges_a_list": 'ranges must be a JSON object, got [["q", 0, 1]]',
    "forms_a_list": 'forms must be a JSON object, got ["eta1"]',
    "form_a_string": 'form \'eta1\' must be a JSON object, got "ds - p dq"',
    "coeffs_a_list": 'form \'eta1\' coeffs must be a JSON object, got ["1", "-p"]',
    "coord_a_number": "coords[2] must be a JSON string, got 3",
    "eta_entry_a_list": 'eta[0] must be a JSON string, got ["eta1"]',
    "F_a_string": 'F must be a JSON list, got "q_1"',
    "I_a_string": 'I must be a JSON list, got "1"',
    "coeff_over_zero": "0 raised to a negative power (at column 2: 'p/0')",
    "constraint_log_zero": "log of non-positive constant 0 (at column 5: 's + log(0)')",
    "F_entry_over_zero": "0 raised to a negative power (at column 10: 'p_1_1*q_2/0')",
}


class TestMalformedFiles:
    """A definition file whose content the builders refuse is a usage error
    naming the file: exit 2, one error line, no report."""

    def _run(self, tmp_path, capsys, content, argv, message=None):
        path = tmp_path / "file.json"
        path.write_text(json.dumps(content))
        assert main([a.replace("FILE", str(path)) for a in argv] + ["--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1
        if message is not None:
            assert out.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name", sorted(MALFORMED_STRUCTURES))
    def test_structure_file(self, tmp_path, capsys, name):
        self._run(tmp_path, capsys, MALFORMED_STRUCTURES[name], ["verify-structure", "FILE"],
                  MALFORMED_MESSAGES.get(name))

    @pytest.mark.parametrize("name", sorted(MALFORMED_KFUNCTIONS))
    def test_kfunction_file(self, tmp_path, capsys, name):
        self._run(tmp_path, capsys, MALFORMED_KFUNCTIONS[name], ["legendrian", "FILE"],
                  MALFORMED_MESSAGES.get(name))

    def test_section_file_that_is_a_list(self, tmp_path, capsys):
        self._run(tmp_path, capsys, [{"xi": "t_0"}],
                  ["hddw", "--builtin", "hydro2", "--section", "FILE"])

    def test_section_component_that_is_a_number(self, tmp_path, capsys):
        self._run(tmp_path, capsys, {"components": {"xi": 5}},
                  ["hddw", "--builtin", "hydro2", "--section", "FILE"],
                  'components "xi" needs an expression string, got 5')

    def test_section_component_over_zero(self, tmp_path, capsys):
        self._run(tmp_path, capsys, {"components": {"xi": "t_0/0"}},
                  ["hddw", "--builtin", "hydro2", "--section", "FILE"],
                  "0 raised to a negative power (at column 4: 't_0/0')")

    @pytest.mark.parametrize("key", ["component", "fields"])
    def test_section_file_without_components(self, tmp_path, capsys, key):
        # a mistyped key, or the old "fields" alias, is not the zero section
        self._run(tmp_path, capsys, {key: {"xi": "t_0"}},
                  ["hddw", "--builtin", "hydro2", "--section", "FILE"])

    @pytest.mark.parametrize("argv", [["verify-structure", "FILE"], ["reeb", "FILE"],
                                      ["hddw", "FILE", "--H", "s"]],
                             ids=["verify-structure", "reeb", "hddw"])
    def test_form_naming_no_coordinate(self, tmp_path, capsys, argv):
        # eta = ds - zz dq on (s, q, p): zz is no coordinate, for every subcommand
        self._run(tmp_path, capsys, {**CANONICAL_11, "forms": {
            "eta1": {"degree": 1, "coeffs": {"0": "1", "1": "-zz"}}}}, argv)
        path = tmp_path / "file.json"
        with pytest.raises(ParseError, match=r"form 'eta1' names unknown variables \['zz'\]"):
            load_structure_file(path)


class TestBuiltins:
    def test_canonical(self):
        s, polarization = resolve_structure("canonical:2,3")
        assert s.dim == 3 + 2 + 6
        assert polarization is not None

    def test_hydro(self):
        s, polarization = resolve_structure("hydro2")
        assert s.dim == 2 * 2 + 4 * 2 + 2
        assert polarization is not None

    def test_thermo(self):
        s, polarization = resolve_structure("thermo")
        assert s.k == 1 and polarization is None

    def test_unknown(self):
        with pytest.raises(ParseError):
            resolve_structure("weird")


class TestCLI:
    def test_verify_structure_pass(self, capsys):
        code = main(["verify-structure", "--builtin", "canonical:1,1",
                     "--points", "4", "--samples", "16", "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_verify_structure_file(self, structure_file, capsys):
        code = main(["verify-structure", structure_file, "--points", "4",
                     "--samples", "16", "--no-timestamp"])
        assert code == 0

    def test_failing_structure_exits_one(self, tmp_path, capsys):
        bad = {
            "chart": {"coords": ["x", "y", "z"]},
            "forms": {"a": {"degree": 1, "coeffs": {"0": "1"}},
                      "b": {"degree": 1, "coeffs": {"0": "1"}}},
            "eta": ["a", "b"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["verify-structure", str(path), "--points", "3",
                     "--samples", "16", "--no-timestamp"])
        assert code == 1

    def test_parse_error_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verify-structure", str(path)]) == 2

    def test_usage_error_exits_two(self):
        assert main(["verify-structure", "--builtin", "nonsense"]) == 2

    def test_reeb_command(self, capsys):
        code = main(["reeb", "--builtin", "thermo", "--samples", "16",
                     "--no-timestamp"])
        assert code == 0
        assert "reeb_commutation: pass" in capsys.readouterr().out

    def test_legendrian_command(self, tmp_path, capsys):
        path = tmp_path / "kf.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 2, "I": [1], "F": ["p_1_1 * q_2", "p_2_1 * q_2"]}))
        code = main(["legendrian", str(path), "--samples", "16", "--no-timestamp"])
        assert code == 0

    def test_legendrian_with_a_momentum_free_term(self, tmp_path):
        # F^a = sum_i p^a_i f^i(q_J) + g^a(q_J): compatibility is one zero
        # test on the momentum partials, exact here
        kf = tmp_path / "kf.json"
        kf.write_text(json.dumps({"n": 3, "k": 2, "I": [1, 3], "F": [
            "p_1_1*(q_2^2 + 1) + p_1_3*q_2 + 3/2*q_2^3 - 2",
            "p_2_1*(q_2^2 + 1) + p_2_3*q_2 - q_2"]}))
        path = tmp_path / "r.json"
        assert main(["legendrian", str(kf), "--samples", "16", "--no-timestamp",
                     "--json", str(path)]) == 0
        checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert checks["compatibility"] == {"name": "compatibility", "verdict": "pass",
                                           "max_residual": 0.0}
        assert checks["isotropy"]["verdict"] == "pass"

    def test_hddw_command_reports_expected_dim(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code = main(["hddw", "--builtin", "canonical:1,2", "--samples", "16",
                     "--no-timestamp", "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        (check,) = [c for c in report["checks"] if c["name"] == "nullspace_dimension"]
        assert check["detail"]["expected"] == 6
        assert check["detail"]["observed"] == [6]

    def test_hddw_section(self, tmp_path):
        sect = tmp_path / "sect.json"
        # constant section on hydro2 solves the H=0 equations
        sect.write_text(json.dumps({"components": {"xi": "1/3", "V": "1"}}))
        code = main(["hddw", "--builtin", "hydro2", "--section", str(sect),
                     "--samples", "16", "--no-timestamp"])
        assert code == 0

    def test_hddw_hydro_section_reports_families(self, tmp_path):
        sect = tmp_path / "sect.json"
        sect.write_text(json.dumps({"components": {"xi": "t_0"}}))
        out = tmp_path / "r.json"
        code = main(["hddw", "--builtin", "hydro2", "--section", str(sect),
                     "--samples", "16", "--no-timestamp", "--json", str(out)])
        assert code == 1  # linear xi is not an equilibrium
        report = json.loads(out.read_text())
        (fam,) = [c for c in report["checks"] if c["name"] == "equilibrium_families"]
        families = fam["detail"]["families"]
        assert families["d_xi"]["pass"] is False
        assert families["div_N"]["pass"] is True

    @pytest.mark.parametrize("H", ["0", "V"])
    def test_hddw_section_residual_reused_only_for_zero_H(self, tmp_path, monkeypatch, H):
        import kontact.hydro as hydro

        rebuilt = []
        real = hydro.section_residual
        monkeypatch.setattr(hydro, "section_residual",
                            lambda *args: rebuilt.append(args) or real(*args))
        sect = tmp_path / "sect.json"
        sect.write_text(json.dumps({"components": {"xi": "1/3", "V": "1"}}))
        out = tmp_path / "r.json"
        main(["hddw", "--builtin", "hydro2", "--section", str(sect), "--H", H,
              "--samples", "16", "--no-timestamp", "--json", str(out)])
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out.read_text())["checks"]}
        # the equilibrium cross-check is defined on the H = 0 system
        assert verdicts["section_residual"] == ("pass" if H == "0" else "fail")
        assert verdicts["equilibrium_families"] == "pass"
        assert len(rebuilt) == (0 if H == "0" else 1)

    def test_hddw_section_on_file_named_like_a_builtin(self, tmp_path, monkeypatch):
        # a structure file is never the hydro builtin, whatever its name
        monkeypatch.chdir(tmp_path)
        Path("hydro_like.json").write_text(json.dumps(
            {"chart": {"coords": ["s", "q", "p"]},
             "forms": {"eta": {"degree": 1, "coeffs": {"0": "1", "1": "-p"}}}}))
        Path("sect.json").write_text(json.dumps({"components": {"q": "t_0"}}))
        code = main(["hddw", "hydro_like.json", "--section", "sect.json",
                     "--samples", "16", "--no-timestamp", "--json", "r.json"])
        assert code == 1
        names = [c["name"] for c in json.loads(Path("r.json").read_text())["checks"]]
        assert names == ["nullspace_dimension", "section_residual"]

    def test_hddw_system_file(self, tmp_path):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"structure": "canonical:1,1",
                                      "H": "p_1_1"}))
        code = main(["hddw", "--system", str(system), "--samples", "16",
                     "--no-timestamp"])
        assert code == 0

    def test_system_file_structure_path_is_relative_to_it(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "ok.json").write_text(json.dumps(CANONICAL_11))
        (sub / "sys.json").write_text(json.dumps({"structure": "ok.json", "H": "p"}))
        (sub / "abs.json").write_text(json.dumps({"structure": str(sub / "ok.json"),
                                                  "H": "p"}))
        monkeypatch.chdir(tmp_path)
        for system in ("sub/sys.json", "sub/abs.json"):
            assert main(["hddw", "--system", system, "--samples", "16",
                         "--no-timestamp"]) == 0

    def test_non_finite_structure_matrix_is_one_error_line(self, tmp_path, capsys):
        # q^600 * q^600 overflows to inf where |q| > 1.81: inf - inf is nan
        spec = {**CANONICAL_11, "forms": {"eta1": {"degree": 1, "coeffs": {
            "0": "1", "1": "-p + q^600*q^600 - q^600*q^600"}}}}
        path = tmp_path / "infinf.json"
        path.write_text(json.dumps(spec))
        assert main(["verify-structure", str(path), "--no-timestamp"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith(
            "error: DomainError: structure matrix undefined or not finite at {")

    @pytest.mark.parametrize("argv, point", [
        (["verify-structure", "--seed", "17"], "{'p': '-31/32', 'q': '0', 's': '29/64'}"),
        (["verify-structure", "--seed", "26"], "{'p': '-25/16', 'q': '0', 's': '-27/64'}"),
        (["hddw", "--point", '{"s": 0, "q": 0, "p": 1}'],
         "{'s': '0.0', 'q': '0.0', 'p': '1.0'}"),
    ])
    def test_undefined_structure_matrix_names_its_point(self, tmp_path, capsys, argv, point):
        # eta = ds - p dq + dp/q^2 is undefined at q = 0, which these seeds draw
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"chart": {"coords": ["s", "q", "p"]}, "forms": {
            "eta": {"coeffs": {"0": "1", "1": "-p", "2": "1/q^2"}}}}))
        assert main([argv[0], str(path), *argv[1:], "--no-timestamp"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: DomainError: structure matrix undefined or not finite at {point}\n")

    def test_failing_points_before_an_undefined_one_decide(self, tmp_path, capsys):
        # eta = (1/q) ds fails trivial_intersection wherever it is defined,
        # and seed 17 draws q = 0 at point 17: points 0-16 fail first, so
        # verify-structure writes its report, as hddw --n-points 20 does
        path = tmp_path / "invq.json"
        path.write_text(json.dumps({"chart": {"coords": ["s", "q", "p"]}, "forms": {
            "eta": {"coeffs": {"0": "1/q"}}}}))
        report = tmp_path / "r.json"
        assert main(["verify-structure", str(path), "--seed", "17", "--json", str(report),
                     "--no-timestamp"]) == 1
        assert capsys.readouterr().err == ""
        checks = json.loads(report.read_text())["checks"]
        assert [(c["name"], c["verdict"]) for c in checks[:3]] == [
            ("corank_condition", "fail"), ("reeb_rank_condition", "fail"),
            ("trivial_intersection", "fail")]
        assert len(checks[0]["detail"]["rank_table"]) == 17
        assert main(["hddw", str(path), "--seed", "17", "--n-points", "20",
                     "--no-timestamp"]) == 1
        assert capsys.readouterr().out == "defining_conditions: fail\nverdict: fail\n"

    def test_undefined_right_hand_side_names_its_point(self, capsys):
        # b holds d(1/E) = -dE/E^2, undefined at E = 0, where thermo's A is fine
        point = {"E": 0, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}
        assert main(["hddw", "--builtin", "thermo", "--H", "1/E", "--point", json.dumps(point),
                     "--no-timestamp"]) == 1
        out = capsys.readouterr()
        floats = {name: float(v) for name, v in point.items()}
        assert out.out == ""
        assert out.err == f"error: DomainError: non-finite pointwise system at {floats}\n"

    def test_hddw_flow_integration(self, tmp_path):
        from kontact.idealgas import equilibrium_state, isentropic_hamiltonian

        system = tmp_path / "system.json"
        system.write_text(json.dumps({"structure": "thermo",
                                      "H": str(isentropic_hamiltonian("3/2"))}))
        x0 = equilibrium_state("3/2")
        csv_path = tmp_path / "flow.csv"
        code = main(["hddw", "--system", str(system),
                     "--x0", json.dumps(x0), "--t-end", "0.1", "--dt", "0.02",
                     "--csv", str(csv_path), "--samples", "16", "--no-timestamp"])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 7  # header + 6 states
        # V column follows V0 e^t
        import math

        header = lines[0].split(",")
        v_col = header.index("V")
        v_end = float(lines[-1].split(",")[v_col])
        assert v_end == pytest.approx(x0["V"] * math.exp(0.1), rel=1e-8)

    def test_hddw_missing_x0_coordinates(self, tmp_path):
        code = main(["hddw", "--builtin", "thermo", "--x0", "{}",
                     "--t-end", "0.1", "--no-timestamp"])
        assert code == 2

    @pytest.mark.parametrize("extra, error", [
        (["--point", '{"E": 1, "S": 1, "V": 1, "T": 1, "P": 1}'],
         "--point misses coordinates ['N', 'mu']"),
        (["--point", json.dumps(dict.fromkeys(["E", "S", "V", "N", "T", "P", "mu"], 1)),
          "--n-points", "3"],
         "--n-points cannot be combined with --point JSON, which gives the one point"),
        # a coordinate the system never reads must not pass as NaN or infinity
        (["--point", '{"E": NaN, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}'],
         "--point gives non-finite values for coordinates ['E']"),
        (["--point", '{"E": 1, "S": 1, "V": Infinity, "N": 1, "T": 1, "P": -Infinity, "mu": 1}'],
         "--point gives non-finite values for coordinates ['P', 'V']"),
        (["--x0", '{"E": NaN, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}',
          "--t-end", "0.01"],
         "--x0 gives non-finite values for coordinates ['E']"),
        (["--x0", '{"E": 1, "S": 1, "V": 1, "N": 1, "T": 1, "P": Infinity, "mu": 1}',
          "--t-end", "0.01"],
         "--x0 gives non-finite values for coordinates ['P']"),
        # a misspelt or extra name must not pass unnoticed
        (["--point", '{"E": 1, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1, "Tx": 5}'],
         "--point names unknown coordinates ['Tx']"),
        (["--x0", '{"E": 1, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1, "nu": 0, "a": 2}',
          "--t-end", "0.01"],
         "--x0 names unknown coordinates ['a', 'nu']"),
        # a JSON boolean or string is not a number, whatever float() makes of it
        (["--point", '{"E": true, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}'],
         "--point needs a JSON object of numbers, got "
         """'{"E": true, "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}'"""),
        (["--x0", '{"E": "2", "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}',
          "--t-end", "0.01"],
         "--x0 needs a JSON object of numbers, got "
         """'{"E": "2", "S": 1, "V": 1, "N": 1, "T": 1, "P": 1, "mu": 1}'"""),
    ])
    def test_hddw_point_usage_errors(self, tmp_path, monkeypatch, capsys, extra, error):
        monkeypatch.chdir(tmp_path)
        code = main(["hddw", "--builtin", "thermo", "--json", "r.json", "--no-timestamp"]
                    + extra)
        assert code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("command", ["verify-structure", "hddw"])
    def test_eta_without_coefficients_fails_with_report(self, tmp_path, capsys, command, k):
        # every eta^alpha is zero: the HdDW matrix has no entries at all
        forms = {f"e{a}": {"degree": 1, "coeffs": {}} for a in range(k)}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"chart": {"coords": ["x", "y", "z"]},
                                    "forms": forms, "eta": list(forms)}))
        report = tmp_path / "r.json"
        code = main([command, str(path), "--samples", "16", "--json", str(report),
                     "--no-timestamp"])
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = json.loads(report.read_text())["checks"]
        assert checks and all(c["verdict"] == "fail" for c in checks)

    def test_ideal_gas_csv(self, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code = main(["ideal-gas", "--cv", "3/2", "--t-end", "0.1", "--dt", "0.01",
                     "--csv", str(csv_path), "--no-timestamp"])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == list(resolve_structure("thermo")[0].chart.coords)
        assert len(lines) == 12  # header + 11 states

    def test_ideal_gas_long_flow_keeps_invariants(self, tmp_path, capsys):
        # V grows to e^200: the flow must not stop on the scale of its state,
        # since thermo's eta ^ (d eta)^3 is the constant 6
        out_path = tmp_path / "r.json"
        code = main(["ideal-gas", "--t-end", "200", "--dt", "0.5", "--no-timestamp",
                     "--json", str(out_path)])
        assert "error:" not in capsys.readouterr().err
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out_path.read_text())["checks"]}
        assert verdicts["entropy_constant"] == verdicts["particle_number_constant"] == "pass"
        # RK4 at dt = 0.5 misses e^200 by 7%: the one failed check, exit 1
        assert verdicts["volume_exponential"] == "fail" and code == 1

    def test_ideal_gas_system_holds_the_run_config(self, monkeypatch):
        import kontact.idealgas

        systems = []
        real = kontact.idealgas.integrate_contact_flow
        monkeypatch.setattr(kontact.idealgas, "integrate_contact_flow",
                            lambda sys_, *args: systems.append(sys_) or real(sys_, *args))
        code = main(["ideal-gas", "--t-end", "0.02", "--dt", "0.01", "--seed", "7",
                     "--samples", "16", "--atol", "1e-11", "--rtol", "1e-8",
                     "--no-timestamp"])
        assert code == 0
        assert [s.config for s in systems] == [RunConfig(7, 16, 1e-11, 1e-8)]

    def test_bjorken_command(self, tmp_path):
        out_path = tmp_path / "b.json"
        code = main(["bjorken", "--gamma", "1", "--I", "T^3", "--samples", "16",
                     "--no-timestamp", "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        names = {c["name"] for c in report["checks"]}
        assert "entropy_production_after" in names

    @pytest.mark.parametrize("argv", [
        ["verify-structure", "--builtin", "hydro2", "--samples", "0"],
        ["verify-structure", "--builtin", "hydro2", "--atol", "0"],
        ["verify-structure", "--builtin", "hydro2", "--rtol", "-1"],
        ["verify-structure", "--builtin", "hydro2", "--atol", "nan"],
        ["verify-structure", "--builtin", "hydro2", "--points", "0"],
        ["hddw", "--builtin", "hydro2", "--n-points", "0"],
        # flow settings: a non-positive, NaN or zero-step run integrates nothing
        ["ideal-gas", "--dt", "0"],
        ["ideal-gas", "--dt", "nan"],
        ["ideal-gas", "--t-end", "nan"],
        ["ideal-gas", "--t-end", "inf"],
        ["ideal-gas", "--t-end", "-1"],
        ["ideal-gas", "--t-end", "0.0004"],
        ["ideal-gas", "--cv", "0"],
        ["ideal-gas", "--cv", "1/0"],
        ["ideal-gas", "--cv", "abc"],
        ["hddw", "--builtin", "thermo", "--t-end", "1", "--dt", "0"],
        ["hddw", "--builtin", "canonical:1,2", "--t-end", "1", "--x0", "{}"],
        # coordinate values: a JSON object of numbers
        ["hddw", "--builtin", "thermo", "--t-end", "1", "--x0", "notjson"],
        ["hddw", "--builtin", "thermo", "--point", '{"E": "abc"}'],
        ["hddw", "--builtin", "thermo", "--point", "[1]"],
        # builtin sizes and bjorken inputs that the constructors refuse
        ["verify-structure", "--builtin", "canonical:0,2"],
        ["reeb", "--builtin", "hydro1"],
        ["hddw", "--builtin", "hydro1"],
        ["bjorken", "--gamma", "t"],
        ["bjorken", "--I", "T*z"],
        ["bjorken", "--T-profile", "t"],
        # initial state and tolerance: V0 and N0 positive and finite, S0 finite
        ["ideal-gas", "--v0", "-1"],
        ["ideal-gas", "--v0", "inf"],
        ["ideal-gas", "--n0", "0"],
        ["ideal-gas", "--n0", "nan"],
        ["ideal-gas", "--s0", "inf"],
        ["ideal-gas", "--s0", "nan"],
        ["ideal-gas", "--tol", "nan"],
        ["ideal-gas", "--tol", "-1"],
        ["ideal-gas", "--tol", "0"],
        # a non-finite tolerance would pass every residual
        ["hddw", "--builtin", "hydro2", "--atol", "inf"],
        ["hddw", "--builtin", "hydro2", "--rtol", "inf"],
        ["ideal-gas", "--tol", "inf"],
    ])
    def test_invalid_settings_are_usage_errors(self, argv, capsys):
        assert main(argv + ["--no-timestamp"]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_hddw_H_naming_no_coordinate_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                         from_file):
        # refused before any solve, as --point refuses unknown coordinates
        import kontact.cli

        monkeypatch.setattr(kontact.cli, "KContactHamiltonianSystem", None)
        argv = ["hddw", "--builtin", "thermo", "--H", "E*zz + y"]
        if from_file:
            system = tmp_path / "system.json"
            system.write_text('{"structure": "thermo", "H": "E*zz + y"}')
            argv = ["hddw", "--system", str(system)]
        assert main(argv + ["--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        # an H read from a system file names the file
        prefix = f"{system}: " if from_file else ""
        assert out.err == f"error: {prefix}H names unknown coordinates ['y', 'zz']\n"

    @pytest.mark.parametrize("argv", [
        ["reeb", "--builtin", "thermo", "--json", "nodir/r.json"],
        ["ideal-gas", "--t-end", "0.01", "--csv", "nodir/x.csv"],
        ["hddw", "--builtin", "thermo", "--csv", "nodir/x.csv"],
        ["reeb", "--builtin", "thermo", "--json", "."],  # a directory
        ["reeb", "--builtin", "thermo", "--json", "file.txt/r.json"],  # under a file
    ])
    def test_unwritable_output_path_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("file.txt").write_text("")
        assert main(argv + ["--no-timestamp"]) == 2
        out = capsys.readouterr()
        # refused before the run: no check ran, nothing was written
        assert out.out == ""
        assert out.err.startswith("error: --") and out.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    @pytest.mark.parametrize("argv, error", [
        (["reeb", "--builtin", "thermo", "zz.json"],
         "structure path 'zz.json' cannot be combined with --builtin"),
        (["verify-structure", "--builtin", "hydro2", "zz.json"],
         "structure path 'zz.json' cannot be combined with --builtin"),
        (["hddw", "--builtin", "thermo", "zz.json"],
         "structure path 'zz.json' cannot be combined with --builtin"),
        (["hddw", "--system", "sys.json", "--builtin", "thermo"],
         "--builtin cannot be combined with --system"),
        (["hddw", "--system", "sys.json", "zz.json"],
         "structure path 'zz.json' cannot be combined with --system"),
        (["hddw", "--system", "sys.json", "--builtin", "thermo", "zz.json"],
         "--builtin, structure path 'zz.json' cannot be combined with --system"),
    ])
    def test_one_structure_source(self, tmp_path, monkeypatch, capsys, argv, error):
        # the path is not ignored, however malformed its file, nor read
        monkeypatch.chdir(tmp_path)
        Path("zz.json").write_text("{not json")
        Path("sys.json").write_text(json.dumps({"structure": "thermo", "H": "V"}))
        assert main(argv + ["--json", "r.json", "--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {error}, which names the structure\n"
        assert not Path("r.json").exists()

    @pytest.mark.parametrize("H, error", [
        ("1/0", "0 raised to a negative power (at column 2: '1/0')"),
        ("E*zz", "H names unknown coordinates ['zz']"),
    ])
    def test_system_file_H_error_names_the_file(self, tmp_path, monkeypatch, capsys, H, error):
        monkeypatch.chdir(tmp_path)
        Path("sys0.json").write_text(json.dumps({"structure": "thermo", "H": H}))
        assert main(["hddw", "--system", "sys0.json", "--no-timestamp"]) == 2
        assert capsys.readouterr().err == f"error: sys0.json: {error}\n"
        # an H from --H, which the file does not override, is not the file's
        Path("sys0.json").write_text(json.dumps({"structure": "thermo"}))
        assert main(["hddw", "--system", "sys0.json", "--H", H, "--no-timestamp"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("extra", [["--csv", "x.csv"], ["--x0", '{"E": 0}']])
    def test_hddw_flow_options_need_t_end(self, tmp_path, monkeypatch, capsys, extra):
        monkeypatch.chdir(tmp_path)
        code = main(["hddw", "--builtin", "thermo", "--json", "r.json", "--no-timestamp"]
                    + extra)
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: --x0 and --csv") and out.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_hddw_dt_needs_t_end(self, tmp_path, monkeypatch, capsys):
        from kontact.idealgas import equilibrium_state, isentropic_hamiltonian

        monkeypatch.chdir(tmp_path)
        assert main(["hddw", "--builtin", "hydro2", "--dt", "0.5", "--json", "r.json",
                     "--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --dt applies to flow integration: give --t-end\n"
        assert list(tmp_path.iterdir()) == []
        # a flow without --dt steps by 1e-3
        Path("system.json").write_text(json.dumps({"structure": "thermo",
                                                   "H": str(isentropic_hamiltonian("3/2"))}))
        assert main(["hddw", "--system", "system.json", "--x0",
                     json.dumps(equilibrium_state("3/2")), "--t-end", "0.01",
                     "--json", "r.json", "--samples", "16", "--no-timestamp"]) == 0
        [check] = json.loads(Path("r.json").read_text())["checks"]
        assert check["detail"] == {"steps": 10, "dt": 0.001}

    @pytest.mark.parametrize("extra", [["--section", "sect.json"], ["--point", '{"E": 1}'],
                                       ["--n-points", "3"]])
    def test_hddw_pointwise_options_refuse_t_end(self, tmp_path, monkeypatch, capsys, extra):
        from kontact.idealgas import equilibrium_state

        monkeypatch.chdir(tmp_path)
        Path("sect.json").write_text("{}")
        code = main(["hddw", "--builtin", "thermo", "--t-end", "0.01",
                     "--x0", json.dumps(equilibrium_state("3/2")),
                     "--json", "r.json", "--no-timestamp"] + extra)
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {extra[0]} cannot be combined with --t-end, " \
                          "which integrates a flow\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sect.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["reeb", "--builtin", "thermo", "--json", "/dev/full"],
        ["ideal-gas", "--t-end", "0.01", "--csv", "/dev/full"],
        ["hddw", "--system", "system.json", "--t-end", "0.02", "--dt", "0.01",
         "--x0", "X0", "--csv", "/dev/full"],
    ])
    def test_failed_write_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        from kontact.idealgas import equilibrium_state, isentropic_hamiltonian

        monkeypatch.chdir(tmp_path)
        Path("system.json").write_text(json.dumps(
            {"structure": "thermo", "H": str(isentropic_hamiltonian("3/2"))}))
        argv = [json.dumps(equilibrium_state("3/2")) if a == "X0" else a for a in argv]
        assert main(argv + ["--samples", "16", "--no-timestamp"]) == 2
        out = capsys.readouterr()
        # the write fails after the run: one error line naming the path, no report
        assert out.out == ""
        assert out.err.startswith("error: --") and out.err.count("\n") == 1
        assert "'/dev/full'" in out.err

    @pytest.mark.parametrize("content", [
        None,  # no file
        "{not json",
        "[]",
        '{"structure": 1}',
        '{"structure": ["thermo"]}',
        '{"structure": "thermo", "H": 5}',
        '{"H": "V"}',
    ], ids=["missing", "invalid_json", "list", "structure_int", "structure_list", "H_int",
            "no_structure"])
    def test_malformed_system_file_is_usage_error(self, tmp_path, capsys, content):
        system = tmp_path / "system.json"
        if content is not None:
            system.write_text(content)
        assert main(["hddw", "--system", str(system), "--no-timestamp"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {system}: ") and out.err.count("\n") == 1

    def test_invalid_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("KONTACT_SEED", "abc")
        assert main(["verify-structure", "--builtin", "hydro2", "--no-timestamp"]) == 2
        assert capsys.readouterr().err == "error: KONTACT_SEED must be an integer, got 'abc'\n"

    def test_hddw_system_file_is_closed(self, tmp_path, monkeypatch):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"structure": "thermo", "H": "V"}))
        # an unclosed file warns when it is freed, inside __del__, where an
        # error reaches sys.unraisablehook instead of the caller
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert main(["hddw", "--system", str(system), "--no-timestamp"]) == 0
            gc.collect()
        assert unraisable == []

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KONTACT_SEED", "7")
        out_path = tmp_path / "r.json"
        code = main(["verify-structure", "--builtin", "canonical:1,1",
                     "--points", "3", "--samples", "16", "--no-timestamp",
                     "--json", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["seed"] == 7

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KONTACT_SEED", "7")
        out_path = tmp_path / "r.json"
        main(["verify-structure", "--builtin", "canonical:1,1", "--points", "3",
              "--samples", "16", "--seed", "11", "--no-timestamp",
              "--json", str(out_path)])
        assert json.loads(out_path.read_text())["config"]["seed"] == 11


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify-structure", "--builtin", "canonical:2,2", "--points", "4",
         "--samples", "16"],
        ["hddw", "--builtin", "canonical:1,2", "--samples", "16"],
        ["bjorken", "--gamma", "gamma", "--I", "T^3", "--samples", "16"],
    ])
    def test_byte_identical_reports(self, tmp_path, argv):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--seed", "42", "--no-timestamp", "--json", str(a)]) == 0
        assert main(argv + ["--seed", "42", "--no-timestamp", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
