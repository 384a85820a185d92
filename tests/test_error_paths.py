"""Declared failure modes: exhausted domains, ambiguous pivots, degenerate points."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from kontact.config import RunConfig
from kontact.cli import main
from kontact.errors import (
    KMismatch,
    SampleDomainEmpty,
    StructureDegenerateAtPoint,
    ZeroTestInconclusive,
)
from kontact.expr import Rational, Var, parse_expr, sqrt, var
from kontact.forms import (
    Chart,
    DifferentialForm,
    KVectorField,
    RkValuedOneForm,
    VectorField,
    interior_product_k,
)
from kontact.hddw import KContactHamiltonianSystem, solve_hddw_at_point
from kontact.kcontact import KContactStructure, compute_reeb
from kontact.zerotest import SampleDomain, is_probably_zero, zero_test

FAST = RunConfig(n_sample_points=16)


class TestSampleDomainEmpty:
    def test_contradictory_constraints(self):
        x = var("x")
        dom = SampleDomain({"x": (Fraction(0), Fraction(1))},
                           constraints=(x, -x))
        with pytest.raises(SampleDomainEmpty):
            is_probably_zero(x - x, dom, FAST)

    def test_satisfiable_constraints_are_fine(self):
        x = var("x")
        dom = SampleDomain({"x": (Fraction(-1), Fraction(1))}, constraints=(x,))
        assert is_probably_zero(x - x, dom, FAST)

    def test_all_points_singular_raises(self):
        # log(x) on a strictly negative range: every evaluation fails, so the
        # test must refuse a vacuous "zero" verdict
        from kontact.expr import log

        x = var("x")
        dom = SampleDomain({"x": (Fraction(-2), Fraction(-1))})
        with pytest.raises(SampleDomainEmpty):
            is_probably_zero(log(x), dom, FAST)

    def test_non_finite_values_do_not_pass(self):
        # exp(700*x) overflows for x > 1.014; below that the product
        # overflows and the value is inf - inf = nan, which is neither within
        # nor beyond the tolerance
        e = parse_expr("1 + exp(700*x)*exp(700*x) - exp(700*x)*exp(700*x)")
        with pytest.raises(SampleDomainEmpty):
            zero_test(e, SampleDomain(ranges={"x": (1, 2)}))


def _ambiguous_structure() -> KContactStructure:
    # eta = ds + c(p) dq with c tiny and non-rational: pivot tests cannot
    # call the q-column entries either way
    ch = Chart(["s", "q", "p"])
    c = Rational(Fraction(1, 10**8)) * sqrt(Var("p") * Var("p") + 1)
    eta = DifferentialForm(ch, 1, {(0,): 1, (1,): c})
    return KContactStructure(RkValuedOneForm([eta]))


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
        dx = DifferentialForm.dx(ch, "x")
        s = KContactStructure(RkValuedOneForm([dx, dx]))
        sys_ = KContactHamiltonianSystem(s, 0)
        with pytest.raises(StructureDegenerateAtPoint):
            solve_hddw_at_point(sys_, {"x": 0.5, "y": 0.5, "z": 0.5})


class TestNonFiniteSystem:
    # V^3 overflows to inf in b; a NaN temperature puts NaN into A.  Neither
    # may pass (a NaN residual compares false against any tolerance) nor
    # reach an SVD
    @pytest.mark.parametrize("H, point", [
        ("V*V*V", '{"E":1,"S":1,"V":1e200,"N":1,"T":1,"P":1,"mu":1}'),
        ("V*V*V", '{"E":1,"S":1,"V":1,"N":1,"T":NaN,"P":1,"mu":1}'),
    ])
    def test_cli_reports_domain_error(self, H, point, capsys):
        argv = ["hddw", "--builtin", "thermo", "--H", H, "--point", point, "--no-timestamp"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: non-finite pointwise system at {")


class TestKMismatch:
    def test_interior_product_k(self):
        ch = Chart(["x", "y"])
        X = KVectorField([VectorField.coordinate(ch, "x")])
        eta = RkValuedOneForm([DifferentialForm.dx(ch, "x"),
                               DifferentialForm.dx(ch, "y")])
        with pytest.raises(KMismatch):
            interior_product_k(X, eta)
