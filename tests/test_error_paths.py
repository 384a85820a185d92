"""Declared failure modes: exhausted domains, ambiguous pivots, degenerate points."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from kontact.config import RunConfig
from kontact.cli import main
from kontact.errors import (
    DomainError,
    SampleDomainEmpty,
    StructureDegenerateAtPoint,
    ZeroTestInconclusive,
)
from kontact.expr import Rational, Var, parse_expr, sqrt
from kontact.forms import Chart, DifferentialForm
from kontact.hddw import KContactHamiltonianSystem, solve_hddw_at_point
from kontact.kcontact import KContactStructure, compute_reeb
from kontact.legendrian import thermo_structure
from kontact.zerotest import is_probably_zero, zero_test

from conftest import coord_form

FAST = RunConfig(n_sample_points=16)


class TestSampleDomainEmpty:
    def test_contradictory_constraints(self):
        x = Var("x")
        dom = Chart(["x"], constraints=(x, -x), ranges={"x": (Fraction(0), Fraction(1))})
        with pytest.raises(SampleDomainEmpty):
            is_probably_zero(x - x, dom, FAST)

    def test_satisfiable_constraints_are_fine(self):
        x = Var("x")
        dom = Chart(["x"], constraints=(x,), ranges={"x": (Fraction(-1), Fraction(1))})
        assert is_probably_zero(x - x, dom, FAST)

    def test_all_points_singular_raises(self):
        # log(x) on a strictly negative range: every evaluation fails, so the
        # test must refuse a vacuous "zero" verdict
        from kontact.expr import log

        x = Var("x")
        dom = Chart(["x"], ranges={"x": (Fraction(-2), Fraction(-1))})
        with pytest.raises(SampleDomainEmpty):
            is_probably_zero(log(x), dom, FAST)

    def test_non_finite_values_do_not_pass(self):
        # exp(700*x) overflows for x > 1.014; below that the product
        # overflows and the value is inf - inf = nan, which is neither within
        # nor beyond the tolerance
        e = parse_expr("1 + exp(700*x)*exp(700*x) - exp(700*x)*exp(700*x)")
        with pytest.raises(SampleDomainEmpty):
            zero_test(e, Chart(["x"], ranges={"x": (1, 2)}))


def _ambiguous_structure() -> KContactStructure:
    # eta = ds + c(p) dq with c tiny and non-rational: pivot tests cannot
    # call the q-column entries either way
    ch = Chart(["s", "q", "p"])
    c = Rational(Fraction(1, 10**8)) * sqrt(Var("p") * Var("p") + 1)
    eta = DifferentialForm(ch, 1, {(0,): 1, (1,): c})
    return KContactStructure([eta])


class TestInconclusivePivot:
    def test_compute_reeb_raises(self):
        with pytest.raises(ZeroTestInconclusive):
            compute_reeb(_ambiguous_structure(), FAST)

    AMBIGUOUS = {
        "chart": {"coords": ["s", "q", "p"]},
        "forms": {"eta1": {
            "degree": 1,
            "coeffs": {"0": "1", "1": "1/100000000 * sqrt(p*p + 1)"}}},
        "eta": ["eta1"],
    }

    def test_cli_exit_code_three(self, tmp_path):
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(self.AMBIGUOUS))
        assert main(["reeb", str(path), "--samples", "16", "--no-timestamp"]) == 3

    @pytest.mark.parametrize("coeffs, code, verdict", [
        # the ambiguous pivot: the frame is undecidable
        (AMBIGUOUS["forms"]["eta1"]["coeffs"], 3, "inconclusive"),
        # eta = ds, d eta = 0: not contact, so there is no frame
        ({"0": "1"}, 1, "fail"),
    ], ids=["ambiguous", "not_contact"])
    def test_hddw_reeb_frame_reaches_the_report(self, tmp_path, capsys, coeffs, code,
                                                verdict):
        spec = {**self.AMBIGUOUS, "forms": {"eta1": {"degree": 1, "coeffs": coeffs}}}
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(spec))
        report = tmp_path / "r.json"
        argv = ["hddw", str(path), "--H", "q", "--samples", "16", "--json", str(report),
                "--no-timestamp"]
        assert main(argv) == code
        assert capsys.readouterr().err == ""
        report = json.loads(report.read_text())
        assert [(c["name"], c["verdict"]) for c in report["checks"]] == [
            ("reeb_frame", verdict)]
        assert report["verdict"] == verdict


class TestInconclusiveIdentities:
    def test_bjorken_below_float_noise_exits_three(self, tmp_path):
        # tolerances of 1e-30 cannot call residuals of ~1e-15 zero, and they
        # sit far below the 1e-6 margin, so no identity may read as failed
        path = tmp_path / "bjorken.json"
        argv = ["bjorken", "--I", "5/4", "--samples", "16", "--atol", "1e-30",
                "--rtol", "1e-30", "--json", str(path), "--no-timestamp"]
        assert main(argv) == 3
        report = json.loads(path.read_text())
        assert report["verdict"] == "inconclusive"
        checks = {c["name"]: c for c in report["checks"]}
        assert checks.pop("all_identities")["verdict"] == "inconclusive"
        assert len(checks) == 8
        for name, c in checks.items():
            exact = c["max_residual"] == 0.0
            assert c["verdict"] == ("pass" if exact else "inconclusive"), name
        assert any(c["verdict"] == "inconclusive" for c in checks.values())

    def test_legendrian_compatibility_reaches_the_report(self, tmp_path):
        # the momentum partials differ by 1e-8 sqrt(q_2^2+1): compatibility is
        # inconclusive, and the run still writes its report
        kf = tmp_path / "kf.json"
        kf.write_text(json.dumps({"n": 2, "k": 2, "I": [1], "F": [
            "p_1_1*(1 + 1/100000000*sqrt(q_2^2+1))", "p_2_1"]}))
        path = tmp_path / "legendrian.json"
        argv = ["legendrian", str(kf), "--json", str(path), "--no-timestamp"]
        assert main(argv) == 3
        report = json.loads(path.read_text())
        assert [(c["name"], c["verdict"]) for c in report["checks"]] == [
            ("compatibility", "inconclusive")]
        assert report["verdict"] == "inconclusive"


class TestDegeneratePoint:
    def test_solver_rejects_degenerate_structure(self):
        ch = Chart(["x", "y", "z"])
        dx = coord_form(ch, "x")
        s = KContactStructure([dx, dx])
        sys_ = KContactHamiltonianSystem(s, 0)
        with pytest.raises(StructureDegenerateAtPoint) as err:
            solve_hddw_at_point(sys_, {"x": 0.5, "y": 0.5, "z": 0.5})
        assert err.value.point == {"x": 0.5, "y": 0.5, "z": 0.5}

    # eta = ds: d eta = 0, so the defining conditions fail everywhere
    FLAT = {"chart": {"coords": ["s", "q", "p"]},
            "forms": {"eta": {"degree": 1, "coeffs": {"0": "1"}}}}

    @pytest.mark.parametrize("extra, failed_at", [
        ([], None),  # the first sampled point
        (["--point", '{"s": 0.5, "q": 1, "p": -2}'], {"s": 0.5, "q": 1.0, "p": -2.0}),
        (["--t-end", "0.01", "--x0", '{"s": 0, "q": 1, "p": 2}'],
         {"s": 0.0, "q": 1.0, "p": 2.0}),
    ], ids=["random", "point", "flow"])
    def test_cli_reports_the_first_degenerate_point(self, tmp_path, capsys, extra, failed_at):
        # H = 0 needs no Reeb frame, so the first solve meets the degenerate
        # point: that point is the run's one check, and the report is written
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(self.FLAT))
        report = tmp_path / "r.json"
        argv = ["hddw", str(path), "--json", str(report), "--no-timestamp"] + extra
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == "defining_conditions: fail\nverdict: fail\n"
        report = json.loads(report.read_text())
        [check] = report["checks"]
        assert (check["name"], check["verdict"]) == ("defining_conditions", "fail")
        point = check["detail"]["failed_at"]
        assert sorted(point) == ["p", "q", "s"]
        if failed_at is not None:
            assert point == failed_at
        assert report["verdict"] == "fail"

    # eta^alpha = f (ds_alpha - p_alpha dq) with f = s (k = 1) or q_1 (k = 2)
    # is k-contact off f = 0, where eta vanishes and the Reeb frame has a pole:
    # b is undefined there, A is finite and fails the structure check
    POLES = {
        "k1": ({"chart": {"coords": ["s", "q", "p"]}, "forms": {
            "eta": {"degree": 1, "coeffs": {"0": "s", "1": "-s*p"}}}},
            "-s", {"s": 0.0, "q": 1.0, "p": 2.0}),
        "k2": ({"chart": {"coords": ["s_1", "s_2", "q_1", "p_1_1", "p_2_1"]}, "forms": {
            "eta1": {"degree": 1, "coeffs": {"0": "q_1", "2": "-q_1*p_1_1"}},
            "eta2": {"degree": 1, "coeffs": {"1": "q_1", "2": "-q_1*p_2_1"}}},
            "eta": ["eta1", "eta2"]},
            "s_1", {"s_1": 1.0, "s_2": 1.0, "q_1": 0.0, "p_1_1": 2.0, "p_2_1": 3.0}),
    }

    @pytest.mark.parametrize("name", POLES)
    def test_cli_reports_a_degenerate_pole(self, tmp_path, capsys, name):
        structure, H, point = self.POLES[name]
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(structure))
        report = tmp_path / "r.json"
        argv = ["hddw", str(path), f"--H={H}", "--point", json.dumps(point),
                "--json", str(report), "--no-timestamp"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == "defining_conditions: fail\nverdict: fail\n"
        [check] = json.loads(report.read_text())["checks"]
        assert (check["name"], check["verdict"]) == ("defining_conditions", "fail")
        assert check["detail"]["failed_at"] == point

    def test_undefined_system_on_a_k_contact_point_is_a_domain_error(self):
        # A finite and k-contact, b undefined; then A itself undefined: each
        # error names the point
        ch = Chart(["s", "q", "p"])
        s, q, p = Var("s"), Var("q"), Var("p")
        eta = DifferentialForm(ch, 1, {(0,): s, (1,): -s * p})
        sys_ = KContactHamiltonianSystem(KContactStructure([eta]), "1/q")
        point = {"s": 1.0, "q": 0.0, "p": 2.0}
        with pytest.raises(DomainError) as err:
            solve_hddw_at_point(sys_, point)
        assert str(err.value) == f"non-finite pointwise system at {point}"
        eta = DifferentialForm(ch, 1, {(0,): Rational(1), (1,): -p / q})
        sys_ = KContactHamiltonianSystem(KContactStructure([eta]), 0)
        with pytest.raises(DomainError) as err:
            solve_hddw_at_point(sys_, {"s": 0.0, "q": 0.0, "p": 2.0})
        assert str(err.value) == (
            "structure matrix undefined or not finite at {'s': '0.0', 'q': '0.0', 'p': '2.0'}")

    @pytest.mark.parametrize("s0, dt", [(-0.5, 0.25), (-0.3, 0.1)])
    def test_flow_stops_on_a_degenerate_hypersurface(self, tmp_path, capsys, s0, dt):
        # eta = s (ds - p dq) is contact off s = 0, where eta vanishes; the
        # flow of H = -s is ds/dt = 1, so a stage meets s = 0: exactly for
        # dt = 0.25, at s ~ 3e-17 for dt = 0.1, where Omega = s^2 is not 0
        # but A is numerically singular, so the structure check fails
        path = tmp_path / "hyper.json"
        path.write_text(json.dumps({"chart": {"coords": ["s", "q", "p"]}, "forms": {
            "eta": {"degree": 1, "coeffs": {"0": "s", "1": "-s*p"}}}}))
        report = tmp_path / "r.json"
        argv = ["hddw", str(path), "--H=-s", "--x0", json.dumps({"s": s0, "q": 1, "p": 2}),
                "--dt", str(dt), "--t-end", "0.5", "--json", str(report), "--no-timestamp"]
        assert main(argv) == 1
        assert capsys.readouterr().err == ""
        [check] = json.loads(report.read_text())["checks"]
        assert (check["name"], check["verdict"]) == ("defining_conditions", "fail")
        assert abs(check["detail"]["failed_at"]["s"]) <= 1e-12


class TestNonFiniteSystem:
    # V^3 overflows to inf in b; a NaN temperature puts NaN into A.  Neither
    # may pass (a NaN residual compares false against any tolerance) nor
    # reach an SVD
    @pytest.mark.parametrize("H, point", [
        ("V*V*V", '{"E":1,"S":1,"V":1e200,"N":1,"T":1,"P":1,"mu":1}'),
    ])
    def test_cli_reports_domain_error(self, H, point, capsys):
        argv = ["hddw", "--builtin", "thermo", "--H", H, "--point", point, "--no-timestamp"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: non-finite pointwise system at {")

    def test_overflowing_flow_ends_in_one_error_line(self, capsys):
        # V = exp(t) overflows to inf near t = 709: the RK4 state's list
        # arithmetic gives inf silently, and the next stage's pointwise
        # system is refused, with no numpy overflow warning before it
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["ideal-gas", "--t-end", "709", "--dt", "0.5", "--no-timestamp"])
        assert [str(w.message) for w in caught] == []
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: DomainError: non-finite pointwise system at {")

    def test_solver_refuses_nan_in_A(self):
        # the CLI refuses a NaN --point as a usage error, so the solver's own
        # guard is tested here
        sys_ = KContactHamiltonianSystem(thermo_structure(), "V*V*V")
        point = dict.fromkeys(["E", "S", "V", "N", "T", "P", "mu"], 1.0)
        point["T"] = float("nan")
        with pytest.raises(DomainError, match="structure matrix undefined or not finite at"):
            solve_hddw_at_point(sys_, point)


class TestBeyondFloatRange:
    @pytest.mark.parametrize("argv, error", [
        (["bjorken", "--gamma", "10^400"], "SampleDomainEmpty"),
        (["bjorken", "--I", "10^400*T"], "SampleDomainEmpty"),
        (["ideal-gas", "--cv", "1e400", "--t-end", "0.01"], "DomainError"),
    ])
    def test_cli_ends_with_one_error_line(self, argv, error, capsys):
        # a constant beyond float range: every float sample of the identities
        # is skipped, and the ideal-gas state cannot be evaluated at all
        assert main(argv + ["--samples", "16", "--no-timestamp"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {error}: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["bjorken", "--gamma", "10^400"],
                                      ["bjorken", "--I", "10^400*T"]])
    def test_skipped_points_name_the_constant(self, argv, capsys):
        # every point was skipped for the constant, which no domain constraint
        # can help with
        assert main(argv + ["--samples", "16", "--no-timestamp"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: SampleDomainEmpty: a constant lies beyond float range, "
                       "so no sampled point has a finite value\n")

    def test_exact_section_residual_beyond_float_range_fails(self, tmp_path, capsys):
        # the xi residual 10^400 is exact and nonzero: a failed check, reported
        # in strict JSON with the largest float as its residual
        sect = tmp_path / "sect.json"
        sect.write_text(json.dumps({"components": {"xi": "10^400*t_0", "V": "1"}}))
        out = tmp_path / "r.json"
        code = main(["hddw", "--builtin", "hydro2", "--section", str(sect),
                     "--samples", "16", "--no-timestamp", "--json", str(out)])
        assert code == 1 and capsys.readouterr().err == ""

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["section_residual"]["verdict"] == "fail"
        assert checks["section_residual"]["max_residual"] == sys.float_info.max
        assert checks["equilibrium_families"]["verdict"] == "fail"
