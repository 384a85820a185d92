"""k-contact structures: defining conditions, Reeb frames, polarizations."""

from __future__ import annotations

import random

import numpy as np
import pytest

from kontact.config import RunConfig
from kontact.errors import SingularSystem
from kontact.expr import ONE, Rational, Var, ZERO, evaluate
from kontact.forms import (
    Chart,
    DifferentialForm,
    RkValuedOneForm,
    VectorField,
    interior_product,
    lie_derivative_form,
    wedge,
)
from kontact.kcontact import (
    KContactStructure,
    ReebFrame,
    canonical_structure,
    check_polarization,
    check_reeb_commutation,
    check_structure_at,
    compute_reeb,
    structure_matrices_at,
    verify_kcontact,
)
from kontact.zerotest import is_probably_zero, sample_points

FAST = RunConfig(n_sample_points=16)


def reeb_is_exactly_coordinate_frame(s, frame) -> bool:
    k = s.k
    for a in range(k):
        for i, c in enumerate(frame[a].components):
            want = ONE if i == a else ZERO
            if c != want:
                return False
    return True


class TestCanonicalStructure:
    def test_lowest_case_is_contact_form(self):
        s = canonical_structure(1, 1)
        assert s.dim == 3
        eta = s.eta.forms[0]
        assert eta.coeffs[(s.chart.index("s_1"),)] == ONE
        assert str(eta.coeffs[(s.chart.index("q_1"),)]) == "-p_1_1"

    def test_n2_k2_form_layout(self):
        s = canonical_structure(2, 2)
        assert s.dim == 8
        eta1 = s.eta.forms[0]
        ch = s.chart
        assert eta1.coeffs[(ch.index("s_1"),)] == ONE
        assert str(eta1.coeffs[(ch.index("q_1"),)]) == "-p_1_1"
        assert str(eta1.coeffs[(ch.index("q_2"),)]) == "-p_1_2"
        assert (ch.index("s_2"),) not in eta1.coeffs

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_verifier_passes(self, n, k):
        s = canonical_structure(n, k)
        report = verify_kcontact(s, n_points=5, config=FAST)
        assert report.is_kcontact
        assert report.dim == k + n + n * k

    def test_differential_is_dq_wedge_dp(self):
        s = canonical_structure(2, 2)
        ch = s.chart
        expected = (wedge(DifferentialForm.dx(ch, "q_1"), DifferentialForm.dx(ch, "p_1_1"))
                    + wedge(DifferentialForm.dx(ch, "q_2"), DifferentialForm.dx(ch, "p_1_2")))
        diff = s.d_eta[0] - expected
        assert diff.is_structurally_zero()


class TestVerifyKContact:
    def test_degenerate_repeated_form(self):
        ch = Chart(["x", "y", "z"])
        dx = DifferentialForm.dx(ch, "x")
        s = KContactStructure(RkValuedOneForm([dx, dx]))
        report = verify_kcontact(s, n_points=5, config=FAST)
        assert not report.cond1
        assert report.points[0].eta_rank == 1
        assert report.failing_points()

    def test_missing_reeb_rank(self):
        # eta = (dx, dy) on R^2: ker d eta is everything, rank 2 == k but
        # intersection condition still decides; on R^3 with dz unused the
        # Reeb kernel is 3-dimensional, so condition 2 fails.
        ch = Chart(["x", "y", "z"])
        s = KContactStructure(RkValuedOneForm([
            DifferentialForm.dx(ch, "x"), DifferentialForm.dx(ch, "y")]))
        report = verify_kcontact(s, n_points=4, config=FAST)
        assert not report.cond2

    def test_report_serialization(self):
        s = canonical_structure(1, 1)
        report = verify_kcontact(s, n_points=3, config=FAST)
        d = report.to_dict()
        assert d["is_kcontact"] and d["n_points"] == 3
        assert len(d["points"]) == 3


class TestComputeReeb:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_canonical_reeb_is_exact(self, n, k):
        s = canonical_structure(n, k)
        frame = compute_reeb(s, FAST)
        assert reeb_is_exactly_coordinate_frame(s, frame)

    def test_thermo_reeb_is_energy_direction(self):
        from kontact.legendrian import thermo_structure

        s = thermo_structure()
        frame = compute_reeb(s, FAST)
        comps = frame[0].components
        assert comps[s.chart.index("E")] == ONE
        assert all(c == ZERO for i, c in enumerate(comps) if i != s.chart.index("E"))

    def test_hydro_reeb_is_entropy_frame(self):
        from kontact.hydro import hydro_kcontact_form

        s = hydro_kcontact_form(4)
        frame = compute_reeb(s, FAST)
        for m in range(4):
            comps = frame[m].components
            assert comps[s.chart.index(f"S_{m}")] == ONE
            assert sum(1 for c in comps if c != ZERO) == 1

    def test_expression_pivot_division(self):
        # eta = x ds - dy with x > 0 forces elimination to divide by x;
        # the frame is -d/dy up to unfolded-but-zero coefficient expressions
        from fractions import Fraction

        ch = Chart(["s", "x", "y"], constraints=[Var("x")],
                   ranges={"x": (Fraction(1, 2), Fraction(2))})
        eta = DifferentialForm(ch, 1, {(0,): "x", (2,): -1})
        s = KContactStructure(RkValuedOneForm([eta]))
        frame = compute_reeb(s, FAST)
        dom = ch.domain()
        comps = frame[0].components
        assert is_probably_zero(comps[0], dom, FAST)
        assert is_probably_zero(comps[1], dom, FAST)
        assert is_probably_zero(comps[2] + 1, dom, FAST)

    def test_non_kcontact_raises(self):
        ch = Chart(["x", "y", "z"])
        dx = DifferentialForm.dx(ch, "x")
        s = KContactStructure(RkValuedOneForm([dx, dx]))
        with pytest.raises(SingularSystem):
            compute_reeb(s, FAST)

    def test_uniqueness_perturbation_breaks_equations(self):
        # negative control: any perturbed frame violates a defining equation
        s = canonical_structure(2, 2)
        frame = compute_reeb(s, FAST)
        rng = random.Random(61)
        domain = s.chart.domain()
        for a in range(2):
            comps = list(frame[a].components)
            slot = rng.randrange(len(comps))
            comps[slot] = comps[slot] + Var("q_1") * Var("q_1") + 1
            bad = VectorField(s.chart, comps)
            violated = False
            for b, eta in enumerate(s.eta.forms):
                pairing = interior_product(bad, eta).coeffs.get((), ZERO)
                want = ONE if a == b else ZERO
                if not is_probably_zero(pairing - want, domain, FAST):
                    violated = True
            for d in s.d_eta:
                out = interior_product(bad, d)
                if any(not is_probably_zero(c, domain, FAST) for c in out.coeffs.values()):
                    violated = True
            assert violated

    def test_lie_derivative_of_eta_vanishes(self):
        s = canonical_structure(2, 2)
        frame = compute_reeb(s, FAST)
        for R in frame:
            for eta in s.eta.forms:
                out = lie_derivative_form(R, eta)
                assert all(is_probably_zero(c, s.chart.domain(), FAST)
                           for c in out.coeffs.values())


class TestReebCommutation:
    def test_canonical_commutes(self):
        s = canonical_structure(1, 2)
        assert check_reeb_commutation(compute_reeb(s, FAST), config=FAST)

    def test_hydro_commutes(self):
        from kontact.hydro import hydro_kcontact_form, hydro_reeb_frame

        s = hydro_kcontact_form(3)
        assert check_reeb_commutation(hydro_reeb_frame(s), config=FAST)

    def test_noncommuting_frame_detected(self):
        ch = Chart(["x", "y"])
        frame = ReebFrame([VectorField(ch, [1, 0]), VectorField(ch, [0, Var("x")])])
        assert not check_reeb_commutation(frame, config=FAST)


class TestContactEquivalence:
    def test_volume_form_for_k1(self):
        # eta ^ (d eta)^n has one top coefficient, constant and nonzero
        for n in (1, 2, 3):
            s = canonical_structure(n, 1)
            w = s.eta.forms[0]
            power = s.d_eta[0]
            for _ in range(n - 1):
                power = wedge(power, s.d_eta[0])
            vol = wedge(w, power)
            assert vol.degree == s.dim
            assert len(vol.coeffs) == 1
            (coeff,) = vol.coeffs.values()
            assert isinstance(coeff, Rational) and coeff.value != 0


class TestPolarization:
    def test_canonical_momentum_polarization(self):
        s = canonical_structure(2, 2)
        V = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
             for a in (1, 2) for i in (1, 2)]
        assert check_polarization(s, V, n_points=5, config=FAST)

    def test_reeb_direction_fails(self):
        s = canonical_structure(2, 2)
        V = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
             for a in (1, 2) for i in (1, 2)]
        V[0] = VectorField.coordinate(s.chart, "s_1")
        assert not check_polarization(s, V, n_points=5, config=FAST)

    def test_wrong_rank_fails(self):
        s = canonical_structure(2, 2)
        V = [VectorField.coordinate(s.chart, "p_1_1")] * 4
        assert not check_polarization(s, V, n_points=5, config=FAST)

    def test_non_integrable_span_fails(self):
        # within ker eta but brackets leave the span
        s = canonical_structure(1, 1)
        ch = s.chart
        p = Var("p_1_1")
        inside = VectorField(ch, [p, 1, 0])  # p d/ds + d/dq, in ker eta
        v2 = VectorField.coordinate(ch, "p_1_1")
        # span{inside, v2} has rank nk=1? no: use a 2-field family on (n=2,k=1)
        s = canonical_structure(2, 1)
        ch = s.chart
        f1 = VectorField(ch, [Var("p_1_1"), 1, 0, 0, 0])
        f2 = VectorField.coordinate(ch, "p_1_1")
        # f1 in ker eta, f2 in ker eta; [f2, f1] = d/ds not in span
        assert not check_polarization(s, [f1, f2], n_points=5, config=FAST)


class TestReebDistributionIntegrability:
    def test_brackets_vanish_for_computed_frames(self):
        for (n, k) in [(1, 2), (2, 2), (1, 3)]:
            s = canonical_structure(n, k)
            frame = compute_reeb(s, FAST)
            assert check_reeb_commutation(frame, config=FAST)


def dense_structure_matrices(s, point):
    """Every entry of the eta and stacked d-eta matrices evaluated as a tree."""
    dim = s.dim
    eta = [[f.coeffs.get((i,), ZERO) for i in range(dim)] for f in s.eta.forms]
    deta = []
    for d in s.d_eta:
        B = [[ZERO] * dim for _ in range(dim)]
        for (i, j), c in d.coeffs.items():
            B[i][j] = c
            B[j][i] = -c
        deta.extend(B)

    def ev(rows):
        return np.array([[float(evaluate(e, point)) for e in row] for row in rows])

    return ev(eta), ev(deta)


class TestStructureMatrices:
    @pytest.mark.parametrize("name", ["hydro2", "hydro3", "hydro4", "thermo",
                                      "canonical:1,1", "canonical:2,3", "canonical:3,2"])
    def test_sparse_fill_matches_dense_evaluation(self, name):
        from kontact.fileio import resolve_structure

        s = resolve_structure(name).structure
        pts = sample_points(s.chart.coords, s.chart.domain(), 3, random.Random(7))
        # exact rational points (verify_kcontact) and float points (hddw)
        for p in pts + [{c: float(v) for c, v in q.items()} for q in pts]:
            eta, deta = structure_matrices_at(s, p)
            eta_ref, deta_ref = dense_structure_matrices(s, p)
            assert np.array_equal(eta, eta_ref)
            assert np.array_equal(deta, deta_ref)

    def test_point_check_matches_report(self):
        s = canonical_structure(2, 2)
        report = verify_kcontact(s, n_points=3, config=FAST)
        for pc in report.points:
            assert check_structure_at(s, pc.point, FAST) == pc
            assert pc.all_pass and pc.eta_rank == 2 and pc.ker_deta_dim == 2
