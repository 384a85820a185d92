"""k-contact structures: defining conditions, Reeb frames, polarizations."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact import kcontact
from kontact.config import RunConfig
from kontact.errors import (ChartMismatch, DomainError, SampleDomainEmpty, SingularSystem,
                            StructureDegenerateAtPoint)
from kontact.expr import ONE, Rational, Var, ZERO, evaluate, parse_expr
from kontact.forms import (
    Chart,
    DifferentialForm,
    KVectorField,
    VectorField,
    form_on_vectors,
    interior_product,
    lie_bracket,
    wedge,
)
from kontact.fileio import resolve_structure
from kontact.kcontact import (
    KContactStructure,
    _polarization_pairs,
    canonical_structure,
    check_polarization,
    check_reeb,
    check_reeb_commutation,
    check_structure_at,
    compute_reeb,
    structure_matrices_at,
    verify_kcontact,
)
from kontact.linalg import least_norm_solution, numeric_rank
from kontact.zerotest import (
    FAIL, INCONCLUSIVE, INCONCLUSIVE_MARGIN, PASS, is_probably_zero, sample_points,
)

from conftest import (coord_form, dense_structure_matrices, expression_pivot_structure,
                      lie_derivative, rand_form)

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
        eta = s.eta[0]
        assert eta.coeffs[(s.chart.index("s_1"),)] == ONE
        assert str(eta.coeffs[(s.chart.index("q_1"),)]) == "-p_1_1"

    def test_n2_k2_form_layout(self):
        s = canonical_structure(2, 2)
        assert s.dim == 8
        eta1 = s.eta[0]
        ch = s.chart
        assert eta1.coeffs[(ch.index("s_1"),)] == ONE
        assert str(eta1.coeffs[(ch.index("q_1"),)]) == "-p_1_1"
        assert str(eta1.coeffs[(ch.index("q_2"),)]) == "-p_1_2"
        assert (ch.index("s_2"),) not in eta1.coeffs

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_verifier_passes(self, n, k):
        s = canonical_structure(n, k)
        checks = verify_kcontact(s, n_points=5, config=FAST)
        assert all(c.verdict == PASS for c in checks)
        assert checks[0].detail["dim"] == k + n + n * k

    def test_differential_is_dq_wedge_dp(self):
        s = canonical_structure(2, 2)
        ch = s.chart
        expected = (wedge(coord_form(ch, "q_1"), coord_form(ch, "p_1_1"))
                    + wedge(coord_form(ch, "q_2"), coord_form(ch, "p_1_2")))
        diff = s.d_eta[0] - expected
        assert not diff.coeffs


class TestStructureForms:
    def test_eta_is_the_tuple_of_forms(self):
        ch = Chart(["x", "y", "z"])
        dx, dy = coord_form(ch, "x"), coord_form(ch, "y")
        s = KContactStructure([dx, dy])
        assert s.eta == (dx, dy) and (s.k, s.dim, s.chart) == (2, 3, ch)

    def test_refused_forms(self):
        ch = Chart(["x", "y", "z"])
        with pytest.raises(ValueError, match="need at least one component form"):
            KContactStructure([])
        with pytest.raises(ChartMismatch, match="component forms live on different charts"):
            KContactStructure([coord_form(ch, "x"),
                               coord_form(Chart(["x", "y"]), "x")])
        with pytest.raises(ValueError, match="components must be one-forms"):
            KContactStructure([DifferentialForm.scalar(ch, 1)])


class TestVerifyKContact:
    def test_degenerate_repeated_form(self):
        ch = Chart(["x", "y", "z"])
        dx = coord_form(ch, "x")
        s = KContactStructure([dx, dx])
        corank = verify_kcontact(s, n_points=5, config=FAST)[0]
        assert corank.name == "corank_condition" and corank.verdict == FAIL
        rank_table = corank.detail["rank_table"]
        assert rank_table[0]["eta_rank"] == 1
        assert not any(row["pass"] for row in rank_table)

    def test_missing_reeb_rank(self):
        # eta = (dx, dy) on R^2: ker d eta is everything, rank 2 == k but
        # intersection condition still decides; on R^3 with dz unused the
        # Reeb kernel is 3-dimensional, so condition 2 fails.
        ch = Chart(["x", "y", "z"])
        s = KContactStructure([coord_form(ch, "x"), coord_form(ch, "y")])
        reeb_rank = verify_kcontact(s, n_points=4, config=FAST)[1]
        assert reeb_rank.name == "reeb_rank_condition" and reeb_rank.verdict == FAIL

    @pytest.mark.parametrize("stack_entries", [kcontact._STACK_ENTRIES, 36])
    def test_non_finite_point_raises_naming_it(self, monkeypatch, stack_entries):
        # q^600 * q^600 overflows to inf where q > 1.81: inf - inf is nan.
        # 36 entries stack 3 points of [eta; d-eta] (4 x 3) at a time
        monkeypatch.setattr(kcontact, "_STACK_ENTRIES", stack_entries)
        ch = Chart(["s", "q", "p"], ranges={"q": (0, 2)})
        coeff = parse_expr("-p + q^600*q^600 - q^600*q^600")
        s = KContactStructure([DifferentialForm(ch, 1, {(0,): ONE, (1,): coeff})])
        pts = sample_points(ch.coords, ch, 20, random.Random(FAST.seed))
        # the first point where q^600 * q^600 overflows in floats, as in the runner
        coeff_at = [float(p["q"]) ** 600 * float(p["q"]) ** 600 for p in pts]
        first = next(i for i, c in enumerate(coeff_at) if c == float("inf"))
        assert first >= 3
        point = {k: str(v) for k, v in pts[first].items()}
        with pytest.raises(DomainError) as err:
            verify_kcontact(s, n_points=20, config=FAST)
        assert str(err.value) == f"structure matrix undefined or not finite at {point}"

    def test_report_serialization(self):
        s = canonical_structure(1, 1)
        checks = [c.to_dict() for c in verify_kcontact(s, n_points=3, config=FAST)]
        assert [c["name"] for c in checks] == [
            "corank_condition", "reeb_rank_condition", "trivial_intersection"]
        assert all(c["verdict"] == PASS and c["max_residual"] is None for c in checks)
        rank_table = checks[0]["detail"]["rank_table"]
        assert len(rank_table) == 3 and all(row["pass"] for row in rank_table)


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
        # the frame is -d/dy up to unfolded-but-zero coefficient expressions
        s = expression_pivot_structure()
        frame = compute_reeb(s, FAST)
        dom = s.chart
        comps = frame[0].components
        assert is_probably_zero(comps[0], dom, FAST)
        assert is_probably_zero(comps[1], dom, FAST)
        assert is_probably_zero(comps[2] + 1, dom, FAST)

    def test_non_kcontact_raises(self):
        ch = Chart(["x", "y", "z"])
        dx = coord_form(ch, "x")
        s = KContactStructure([dx, dx])
        with pytest.raises(SingularSystem):
            compute_reeb(s, FAST)

    def test_check_reeb(self):
        ok = check_reeb(canonical_structure(2, 2), FAST)
        assert [(c.name, c.verdict) for c in ok] == [
            ("reeb_frame", PASS), ("reeb_commutation", PASS)]
        assert len(ok[0].detail["components"]) == 2
        ch = Chart(["x", "y", "z"])
        dx = coord_form(ch, "x")
        bad = check_reeb(KContactStructure([dx, dx]), FAST)
        assert [(c.name, c.verdict) for c in bad] == [("reeb_frame", FAIL)]
        assert "not k-contact" in bad[0].detail["error"]

    def test_uniqueness_perturbation_breaks_equations(self):
        # negative control: any perturbed frame violates a defining equation
        s = canonical_structure(2, 2)
        frame = compute_reeb(s, FAST)
        rng = random.Random(61)
        domain = s.chart
        for a in range(2):
            comps = list(frame[a].components)
            slot = rng.randrange(len(comps))
            comps[slot] = comps[slot] + Var("q_1") * Var("q_1") + 1
            bad = VectorField(s.chart, comps)
            violated = False
            for b, eta in enumerate(s.eta):
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
            for eta in s.eta:
                out = lie_derivative(R, eta)
                assert all(is_probably_zero(c, s.chart, FAST)
                           for c in out.coeffs.values())


class TestReebCommutation:
    def test_canonical_commutes(self):
        s = canonical_structure(1, 2)
        assert check_reeb_commutation(compute_reeb(s, FAST), config=FAST).verdict == PASS

    def test_hydro_commutes(self):
        from kontact.hydro import hydro_kcontact_form

        # the solved frame is the closed form R_mu = d/dS^mu
        s = hydro_kcontact_form(3)
        frame = compute_reeb(s, FAST)
        assert [R.components for R in frame] == [
            VectorField.coordinate(s.chart, f"S_{m}").components for m in range(3)]
        assert check_reeb_commutation(frame, config=FAST).verdict == PASS

    def test_noncommuting_frame_detected(self):
        ch = Chart(["x", "y"])
        # the second bracket, 1e-8 x/sqrt(x^2+1) d/dy, is neither clearly zero nor not
        for y_component, verdict in [("x", FAIL), ("1/100000000 * sqrt(x^2 + 1)", INCONCLUSIVE)]:
            frame = KVectorField([VectorField(ch, [1, 0]),
                                  VectorField(ch, [0, parse_expr(y_component)])])
            check = check_reeb_commutation(frame, config=FAST)
            assert (check.name, check.verdict) == ("reeb_commutation", verdict)
            assert 0 < check.max_residual

    def test_frame_on_two_charts_is_refused(self):
        with pytest.raises(ChartMismatch):
            KVectorField([VectorField(Chart(["x", "y"]), [1, 0]),
                          VectorField(Chart(["x", "z"]), [0, 1])])


class TestContactEquivalence:
    def test_volume_form_for_k1(self):
        # eta ^ (d eta)^n has one top coefficient, constant and nonzero
        for n in (1, 2, 3):
            s = canonical_structure(n, 1)
            w = s.eta[0]
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
        assert check_polarization(s, V, n_points=5, config=FAST).verdict == PASS

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (3, 2), (1, 4)])
    def test_canonical_momentum_polarizations(self, n, k):
        s = canonical_structure(n, k)
        V = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
             for a in range(1, k + 1) for i in range(1, n + 1)]
        assert check_polarization(s, V, n_points=5, config=FAST).verdict == PASS

    def test_structurally_zero_brackets_cost_no_rank(self, monkeypatch):
        # all 276 hydro4 brackets are structurally zero, so the points take
        # the span's rank, one call over the stack of all five, and nothing else
        from kontact import kcontact
        from kontact.hydro import hydro_kcontact_form, hydro_polarization

        ranks = []

        def counting_rank(M):
            ranks.append(M.shape)
            return numeric_rank(M)

        monkeypatch.setattr(kcontact, "numeric_rank", counting_rank)
        assert check_polarization(hydro_kcontact_form(4), hydro_polarization(4),
                                  n_points=5, config=FAST).verdict == PASS
        assert ranks == [(5, 24, 34)]

    @pytest.mark.parametrize("fail_first", [True, False])
    def test_first_failing_point_decides_before_an_undefined_one(self, fail_first):
        # X = (q - a)/(q - b) d/dp: rank 0 where q = a, undefined where q = b.
        # The points are taken in order: a failure before the undefined
        # point fails the check, and an undefined point before any failure
        # raises, as it does alone
        s = canonical_structure(1, 1)
        pts = sample_points(s.chart.coords, s.chart, 5, random.Random(FAST.seed))
        q0, q1 = pts[0]["q_1"], pts[1]["q_1"]
        assert q0 != q1
        a, b = (q0, q1) if fail_first else (q1, q0)
        q = Var("q_1")
        field = VectorField(s.chart, [0, 0, (q - a) * (q - b) ** -1])
        if fail_first:
            check = check_polarization(s, [field], n_points=5, config=FAST)
            assert (check.name, check.verdict) == ("polarization", FAIL)
        else:
            with pytest.raises(DomainError) as err:
                check_polarization(s, [field], n_points=5, config=FAST)
            point = {c: str(v) for c, v in pts[0].items()}
            assert str(err.value) == f"polarization fields undefined or not finite at {point}"

    def test_no_rank_point_is_refused(self):
        # a pass needs evaluable points: with none drawn there is no verdict
        s = canonical_structure(1, 1)
        V = [VectorField.coordinate(s.chart, "p_1_1")]
        assert check_polarization(s, V, n_points=1, config=FAST).verdict == PASS
        with pytest.raises(SampleDomainEmpty, match="no sample points"):
            check_polarization(s, V, n_points=0, config=FAST)

    @pytest.mark.parametrize("fail_first", [True, False])
    def test_first_failing_point_decides_before_a_non_finite_one(self, fail_first):
        # X = ((q - a) + big - big) d/dp: rank 0 where q = a, nan where q = b.
        # Among multiples of 1/64, w is 5/2 at q = b and at most 5/4
        # elsewhere, so w^600 is finite and big = w^600 * w^600 overflows to
        # inf only at q = b.  A non-finite point is undefined: it raises only
        # when no point before it failed
        s = canonical_structure(1, 1)
        pts = sample_points(s.chart.coords, s.chart, 5, random.Random(FAST.seed))
        q0, q1 = pts[0]["q_1"], pts[1]["q_1"]
        assert q0 != q1
        a, b = (q0, q1) if fail_first else (q1, q0)
        q = Var("q_1")
        w = Rational(Fraction(5, 8192)) * ((q - b) ** 2 + Rational(Fraction(1, 4096))) ** -1
        big = w ** 600 * w ** 600
        field = VectorField(s.chart, [0, 0, (q - a) + big - big])
        if fail_first:
            check = check_polarization(s, [field], n_points=5, config=FAST)
            assert (check.name, check.verdict) == ("polarization", FAIL)
        else:
            with pytest.raises(DomainError,
                               match="polarization fields undefined or not finite at"):
                check_polarization(s, [field], n_points=5, config=FAST)

    def test_reeb_direction_fails(self):
        s = canonical_structure(2, 2)
        V = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
             for a in (1, 2) for i in (1, 2)]
        V[0] = VectorField.coordinate(s.chart, "s_1")
        assert check_polarization(s, V, n_points=5, config=FAST).verdict == FAIL

    def test_tiny_eta_pairing_is_inconclusive(self):
        # eta(d/dp + 1e-8 sqrt(q^2+1) d/ds) is tiny but not zero: no exception
        s = canonical_structure(1, 1)
        field = VectorField(s.chart, [parse_expr("1/100000000 * sqrt(q_1^2 + 1)"), 0, 1])
        check = check_polarization(s, [field], n_points=5, config=FAST)
        assert (check.name, check.verdict) == ("polarization", INCONCLUSIVE)
        assert check.detail == {"n_fields": 1}
        assert 0 < check.max_residual < INCONCLUSIVE_MARGIN

    def test_wrong_rank_fails(self):
        s = canonical_structure(2, 2)
        V = [VectorField.coordinate(s.chart, "p_1_1")] * 4
        assert check_polarization(s, V, n_points=5, config=FAST).verdict == FAIL

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
        assert check_polarization(s, [f1, f2], n_points=5, config=FAST).verdict == FAIL

    # isotropic fields of full rank on canonical:2,1 (chart s_1, q_1, q_2,
    # p_1_1, p_1_2) with a nonzero bracket, so the closure rank decides
    @pytest.mark.parametrize("x2,verdict", [
        # [X1, X2] = X1: in the span
        (["0", "0", "0", "p_1_1", "1"], PASS),
        # [X1, X2] = d/dq_2 + p_1_2 d/ds_1: out of the span
        (["p_1_1*p_1_2", "0", "p_1_1", "0", "1"], FAIL),
    ])
    def test_bracket_closure_decides(self, x2, verdict):
        s = canonical_structure(2, 1)
        X1 = VectorField.coordinate(s.chart, "p_1_1")
        X2 = VectorField(s.chart, [parse_expr(c) for c in x2])
        assert check_polarization(s, [X1, X2], n_points=5, config=FAST).verdict == verdict


    # X1 = d/dp_1_1 + p_1_1 d/dq_2 + p_1_1*p_1_2 d/ds_1 and
    # X2 = d/dp_1_2 + p_1_1 d/dq_1 + p_1_1^2 d/ds_1 on canonical:2,1 are
    # isotropic, of full rank, and [X1, X2] = d/dq_1 + p_1_1 d/ds_1 leaves
    # their span; in either order the bracket must be built
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_bracket_leaving_the_span_fails_in_either_order(self, order):
        s = canonical_structure(2, 1)
        X = [VectorField(s.chart, [parse_expr(c) for c in comps]) for comps in [
            ["p_1_1*p_1_2", "0", "p_1_1", "1", "0"],
            ["p_1_1^2", "p_1_1", "0", "0", "1"],
        ]]
        fields = [X[i] for i in order]
        assert _polarization_pairs(s, fields)[1] == [(0, 1)]
        check = check_polarization(s, fields, n_points=5, config=FAST)
        assert (check.verdict, check.max_residual) == (FAIL, 0.0)

    def test_non_isotropic_pair_is_kept(self):
        # d eta^0(d/dxi, d/dN_0) = 1 through the key (xi, N_0) of d eta^0
        s, V = resolve_structure("hydro2")
        extra = [VectorField.coordinate(s.chart, "xi"), VectorField.coordinate(s.chart, "N_0")]
        n = len(V)
        assert (n, n + 1, s.d_eta[0]) in _polarization_pairs(s, V + extra)[0]
        assert check_polarization(s, V + extra, n_points=5, config=FAST).verdict == FAIL

    def test_non_isotropic_field_fails_its_zero_test(self):
        # d/dxi in place of d/dP_1 keeps the rank and annihilates eta, but
        # d eta^m(d/dxi, -xi d/dS_m + d/dN_m) = 1: the zero test fails with
        # residual 1 (had the pair been skipped, only the bracket step would
        # fail, with residual 0)
        s, V = resolve_structure("hydro2")
        V[-1] = VectorField.coordinate(s.chart, "xi")
        check = check_polarization(s, V, n_points=5, config=FAST)
        assert (check.verdict, check.max_residual) == (FAIL, 1.0)

    @pytest.mark.parametrize("name", ["hydro2", "canonical:2,2"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_skipped_pairs_are_zero(self, name, data):
        s = resolve_structure(name)[0]
        coords = s.chart.coords
        component = st.one_of(
            st.integers(-2, 2),
            st.sampled_from(coords).map(Var),
            st.tuples(st.sampled_from(coords), st.sampled_from(coords))
            .map(lambda uv: Var(uv[0]) * Var(uv[1])))
        field = st.dictionaries(st.integers(0, s.dim - 1), component, max_size=4).map(
            lambda comps: VectorField(s.chart, [comps.get(i, 0) for i in range(s.dim)]))
        fields = data.draw(st.lists(field, min_size=2, max_size=5))
        isotropy, brackets = _polarization_pairs(s, fields)
        kept = {(a, b, id(d)) for a, b, d in isotropy}
        for a in range(len(fields)):
            for b in range(a + 1, len(fields)):
                pair = [fields[a].components, fields[b].components]
                for d in s.d_eta:
                    if (a, b, id(d)) not in kept:
                        assert form_on_vectors(d, pair) == ZERO
                if (a, b) not in brackets:
                    assert all(c == ZERO for c in lie_bracket(fields[a], fields[b]).components)


class TestReebDistributionIntegrability:
    def test_brackets_vanish_for_computed_frames(self):
        for (n, k) in [(1, 2), (2, 2), (1, 3)]:
            s = canonical_structure(n, k)
            frame = compute_reeb(s, FAST)
            assert check_reeb_commutation(frame, config=FAST).verdict == PASS


class TestStructureMatrices:
    @pytest.mark.parametrize("name", ["hydro2", "hydro3", "hydro4", "thermo",
                                      "canonical:1,1", "canonical:2,3", "canonical:3,2"])
    def test_sparse_fill_matches_dense_evaluation(self, name):
        from kontact.fileio import resolve_structure

        s = resolve_structure(name)[0]
        pts = sample_points(s.chart.coords, s.chart, 3, random.Random(7))
        # exact rational points (verify_kcontact) and float points (hddw)
        for p in pts + [{c: float(v) for c, v in q.items()} for q in pts]:
            A, A_ref = structure_matrices_at(s, p), dense_structure_matrices(s, p)
            assert np.array_equal(A, A_ref)
            assert np.array_equal(np.signbit(A), np.signbit(A_ref))

    @pytest.mark.parametrize("name", ["hydro2", "hydro3", "hydro4", "canonical:2,2",
                                      "degenerate:2,2", "degenerate:3,3", "degenerate:4,4"])
    def test_stacked_ranks_equal_the_point_loop(self, name):
        kind = name.split(":")[0]
        s = named_structure(name)
        checks = verify_kcontact(s, n_points=20, config=FAST)
        rank_table = checks[0].detail["rank_table"]
        pts = sample_points(s.chart.coords, s.chart, 20, random.Random(FAST.seed))
        loop = [check_structure_at(structure_matrices_at(s, p)) for p in pts]
        stacked = check_structure_at(np.stack([structure_matrices_at(s, p) for p in pts]))
        assert list(zip(*(r.tolist() for r in stacked))) == loop
        assert [tuple(row[key] for key in ("eta_rank", "ker_deta_dim", "intersection_dim"))
                for row in rank_table] == loop
        assert all(type(r) is int for ranks in loop for r in ranks)
        assert [row["point"] for row in rank_table] == [
            {c: str(v) for c, v in p.items()} for p in pts]
        assert [c.verdict == PASS for c in checks] == [
            all(r[i] == (s.k, s.k, 0)[i] for r in loop) for i in range(3)]
        assert all(row["pass"] for row in rank_table) == (kind != "degenerate")

    @pytest.mark.parametrize("name", ["hydro2", "hydro3", "hydro4", "thermo",
                                      "degenerate:2,2", "degenerate:3,3", "degenerate:4,4"]
                             + [f"canonical:{n},{k}" for n in range(1, 5) for k in range(1, 5)])
    def test_ranks_equal_the_uncompressed_ranks(self, name):
        s = named_structure(name)
        pts = sample_points(s.chart.coords, s.chart, 6, random.Random(11))
        stack = np.stack([structure_matrices_at(s, {c: float(v) for c, v in p.items()})
                          for p in pts])
        for got, want in zip(check_structure_at(stack), uncompressed_ranks(stack)):
            assert np.array_equal(got, want)
        for A in stack:
            assert check_structure_at(A) == uncompressed_ranks(A)

    def test_a_row_nonzero_at_one_point_is_kept(self):
        # eta = ds - x^2/2 dy: d eta = -x dx ^ dy, whose x and y rows vanish
        # where x = 0, and there ker d eta is everything
        ch = Chart(["s", "x", "y"])
        s = KContactStructure([DifferentialForm(ch, 1, {(0,): "1", (2,): "-x^2/2"})])
        stack = np.stack([structure_matrices_at(s, {"s": 1.0, "x": x, "y": 2.0})
                          for x in (0.0, 0.0, 1.0, 0.0)])
        ranks = [r.tolist() for r in check_structure_at(stack)]
        assert ranks == [[1, 1, 1, 1], [3, 3, 1, 3], [2, 2, 0, 2]]
        assert ranks == [r.tolist() for r in uncompressed_ranks(stack)]
        assert check_structure_at(stack[2]) == (1, 1, 0)

    def test_verify_takes_one_svd_per_rank_and_stack(self, monkeypatch):
        from kontact.kcontact import _STACK_ENTRIES

        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda M, **kw: calls.append(M.shape) or real(M, **kw))
        # canonical:n,k keeps 2nk of its k*dim d-eta rows: iota_{e_i} d eta^a
        # is nonzero only for i a q_j or a p_a_j
        verify_kcontact(canonical_structure(2, 2), n_points=7, config=FAST)
        assert calls == [(7, 2, 8), (7, 8, 8), (7, 10, 8)]
        # canonical:4,4's A is 25 x 96: 3 points fill a stack
        calls.clear()
        verify_kcontact(canonical_structure(4, 4), n_points=7, config=FAST)
        assert 3 * 25 * 96 <= _STACK_ENTRIES < 4 * 25 * 96
        assert calls == [shape for n in (3, 3, 1)
                         for shape in ((n, 4, 24), (n, 32, 24), (n, 36, 24))]

    def test_point_check_matches_report(self):
        s = canonical_structure(2, 2)
        rank_table = verify_kcontact(s, n_points=3, config=FAST)[0].detail["rank_table"]
        for row in rank_table:
            p = {c: Fraction(v) for c, v in row["point"].items()}
            ranks = check_structure_at(structure_matrices_at(s, p))
            assert ranks == (row["eta_rank"], row["ker_deta_dim"], row["intersection_dim"])
            assert ranks == (2, 2, 0) and row["pass"]


def named_structure(name: str) -> KContactStructure:
    """A builtin, or degenerate:n,k: canonical:n,k with eta^k := eta^1, as
    in the benchmark's degenerate structure files, which fails at every
    point."""
    kind, size = name.split(":") if ":" in name else (name, None)
    s = resolve_structure(name if kind != "degenerate" else f"canonical:{size}")[0]
    return KContactStructure(s.eta[:-1] + s.eta[:1]) if kind == "degenerate" else s


def uncompressed_ranks(A: np.ndarray) -> tuple:
    """check_structure_at's three ranks taken on the whole [eta; d-eta],
    zero d-eta rows included: the reference for its ranks."""
    dim = A.shape[-2] - 1
    eta = A[..., dim, :].reshape(*A.shape[:-2], -1, dim)
    M = np.concatenate([eta, np.swapaxes(A[..., :dim, :], -1, -2)], axis=-2)
    k = eta.shape[-2]
    return (numeric_rank(M[..., :k, :]), dim - numeric_rank(M[..., k:, :]),
            dim - numeric_rank(M))


def k1_structure(rng: random.Random) -> KContactStructure:
    """A k = 1 structure: canonical:n,1, thermo, a degenerate form, or a
    random polynomial eta on a chart of odd or even dimension."""
    from kontact.legendrian import thermo_structure

    kind = rng.randrange(5)
    if kind == 0:
        return canonical_structure(rng.randint(1, 3), 1)
    if kind == 1:
        return thermo_structure()
    if kind == 2:  # s(ds - p dq): degenerate along s = 0
        ch = Chart(["s", "q", "p"])
        return KContactStructure([DifferentialForm(
            ch, 1, {(0,): Var("s"), (1,): -Var("s") * Var("p")})])
    if kind == 3:  # x dy on dimension 2 or 3: never contact
        ch = Chart(["x", "y", "z"][:rng.randint(2, 3)])
        return KContactStructure([DifferentialForm(ch, 1, {(1,): Var("x")})])
    ch = Chart([f"x_{i}" for i in range(rng.randint(2, 5))])
    return KContactStructure([rand_form(rng, ch, 1, n_terms=3)])


class TestK1Rule:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_rule_matches_structure_check(self, seed):
        from kontact.hddw import KContactHamiltonianSystem, solve_hddw_at_point

        rng = random.Random(seed)
        s = k1_structure(rng)
        sys_ = KContactHamiltonianSystem(s, 0)
        for _ in range(4):
            # coordinates often 0 or +-1, so that points land on degenerate loci
            p = {c: rng.choice([0.0, 1.0, -1.0, 0.5, rng.uniform(-2, 2)])
                 for c in s.chart.coords}
            A = structure_matrices_at(s, p)
            holds = check_structure_at(A) == (1, 1, 0)
            # for k = 1 the conditions hold exactly where dim is odd and A has
            # full column rank: A has the rows of [eta; d eta] up to order and
            # sign, and hddw._full_rank's docstring shows that full rank gives
            # (1, 1, 0)
            _, rank = least_norm_solution(A, np.zeros(s.dim + 1))
            assert (s.dim % 2 == 1 and rank == s.dim) == holds
            assert (s.dim % 2 == 1 and numeric_rank(A) == s.dim) == holds
            if holds:
                assert solve_hddw_at_point(sys_, p).nullspace_dim == 0
            else:
                with pytest.raises(StructureDegenerateAtPoint):
                    solve_hddw_at_point(sys_, p)
