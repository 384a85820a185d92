"""Field-equation solver: pointwise solutions, nullspaces, sections, flows."""

from __future__ import annotations

import io
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kontact.cli import main
from kontact.config import RunConfig
from kontact.errors import (
    ChartMismatch,
    NotIsotropic,
    SourceNotRk,
    StructureDegenerateAtPoint,
)
from kontact.expr import Rational, Var, ZERO, differentiate, evaluate, parse_expr
from kontact.forms import (
    Chart,
    DifferentialForm,
    SmoothMap,
    parameter_chart,
)
from kontact.hddw import (
    KContactHamiltonianSystem,
    check_constrained_solution,
    expected_nullspace_dim,
    hddw_rhs,
    _system_at,
    integrate_contact_flow,
    section_residual,
    solve_hddw_at_point,
)
from kontact.idealgas import (
    equilibrium_state,
    ideal_gas_energy,
    ideal_gas_system,
    run_isentropic,
)
from kontact.fileio import resolve_structure
from kontact.kcontact import KContactStructure, canonical_structure
from kontact.linalg import RANK_THRESHOLD, nullspace_basis
from kontact.legendrian import (
    ParametrizingKFunction,
    build_parametrization,
    thermo_structure,
)
from kontact.zerotest import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    is_probably_zero,
    sample_points,
    zero_check,
)

from conftest import dense_structure_matrices

FAST = RunConfig(n_sample_points=16)


def random_point(chart, rng):
    return {c: rng.uniform(0.3, 1.5) for c in chart.coords}


class TestRhs:
    def test_zero_hamiltonian(self):
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, 0)
        assert hddw_rhs(sys_) == (ZERO,) * (s.dim + 1)

    def test_constant_hamiltonian(self):
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, Rational(Fraction(5)))
        assert hddw_rhs(sys_) == (ZERO,) * s.dim + (Rational(Fraction(-5)),)

    def test_momentum_hamiltonian(self):
        # H = p on the lowest canonical chart (s, q, p): R(H) = 0, b = (dp, -p)
        s = canonical_structure(1, 1)
        sys_ = KContactHamiltonianSystem(s, Var("p_1_1"))
        assert s.chart.coords == ("s_1", "q_1", "p_1_1")
        assert hddw_rhs(sys_) == (ZERO, ZERO, Rational(Fraction(1)), -Var("p_1_1"))


class TestSolveAtPoint:
    def test_contact_case_unique(self):
        s = canonical_structure(1, 1)
        sys_ = KContactHamiltonianSystem(s, Var("p_1_1"))
        sol = solve_hddw_at_point(sys_, {"s_1": 0.2, "q_1": 0.7, "p_1_1": 1.3})
        assert sol.nullspace_dim == 0
        assert sol.residual_norm < 1e-10

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_nullspace_dimension_law(self, n, k):
        s = canonical_structure(n, k)
        sys_ = KContactHamiltonianSystem(s, 0)
        rng = random.Random(71)
        expected = expected_nullspace_dim(k, s.dim)
        for _ in range(3):
            sol = solve_hddw_at_point(sys_, random_point(s.chart, rng))
            assert sol.nullspace_dim == expected

    def test_hydro_nullspace(self):
        from kontact.hydro import hydro_system

        sys_ = hydro_system(4)
        rng = random.Random(73)
        sol = solve_hddw_at_point(sys_, random_point(sys_.chart, rng))
        # (k-1)(dim-k) + k^2-1 with dim = 34: 3*30 + 15
        assert sol.nullspace_dim == 105
        assert sol.nullspace_dim == expected_nullspace_dim(4, sys_.dim)

    def test_contact_reduction_matches_published_components(self):
        # the k=1 solve must reproduce the isentropic-process vector field:
        # X^S = 0, X^N = 0, X^V = V, X^U = dF/dV * V, X^T = V d2F/dVdS,
        # X^P = -P - dF/dV - V d2F/dV2, X^mu = V d2F/dVdN
        cv = Fraction(3, 2)
        f = ideal_gas_energy(cv)
        sys_ = ideal_gas_system(cv)
        chart = sys_.chart
        x0 = equilibrium_state(cv, S0=1.2, V0=0.8, N0=1.1)
        sol = solve_hddw_at_point(sys_, x0)
        X = dict(zip(chart.coords, sol.particular[0]))
        fV = differentiate(f, "V")
        expect = {
            "S": 0.0,
            "N": 0.0,
            "V": x0["V"],
            "E": evaluate(fV * Var("V"), x0_params(x0)),
            "T": evaluate(Var("V") * differentiate(fV, "S"), x0_params(x0)),
            "P": evaluate(-Var("P") - fV - Var("V") * differentiate(fV, "V"),
                          {**x0_params(x0), "P": x0["P"]}),
            "mu": evaluate(Var("V") * differentiate(fV, "N"), x0_params(x0)),
        }
        for name, want in expect.items():
            assert X[name] == pytest.approx(float(want), abs=1e-9), name

    def test_shift_preserves_residual(self):
        # a shift along the nullspace basis still solves A x = b
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, 0)
        rng = random.Random(79)
        point = random_point(s.chart, rng)
        sol = solve_hddw_at_point(sys_, point)
        shifted = sol.particular + sum(rng.uniform(-2, 2) * v for v in sol.nullspace)
        A, b = _system_at(sys_, point)
        assert np.abs(A @ shifted.ravel() - b).max() <= 1e-9
        assert not np.allclose(shifted, sol.particular)

    def test_k1_has_no_shift(self):
        s = canonical_structure(1, 1)
        sys_ = KContactHamiltonianSystem(s, 0)
        sol = solve_hddw_at_point(sys_, random_point(s.chart, random.Random(89)))
        assert sol.nullspace_dim == 0
        assert sol.nullspace == []


def _record_svd_calls(monkeypatch) -> list:
    """Record (compute_uv, full_matrices) of every np.linalg.svd call."""
    real_svd = np.linalg.svd
    calls = []

    def recording_svd(*args, **kwargs):
        calls.append((kwargs.get("compute_uv", True), kwargs.get("full_matrices", True)))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


class TestOneSVDSolve:
    """The particular solution and rank come from one thin SVD of A; the
    nullspace basis is built only where it is read."""

    K1_SYSTEMS = {
        "ideal gas": lambda: ideal_gas_system(Fraction(5, 2)),
        "canonical:1,1": lambda: KContactHamiltonianSystem(
            canonical_structure(1, 1), "p_1_1^2/2 + q_1*s_1"),
        "canonical:3,1": lambda: KContactHamiltonianSystem(
            canonical_structure(3, 1), "p_1_1*q_2 - exp(s_1/4)*p_1_3 + q_1^2"),
    }

    @pytest.mark.parametrize("name", K1_SYSTEMS)
    def test_k1_particular_is_pinv_bitwise(self, name):
        sys_ = self.K1_SYSTEMS[name]()
        rng = random.Random(97)
        for _ in range(4):
            point = random_point(sys_.chart, rng)
            sol = solve_hddw_at_point(sys_, point)
            A, b = _system_at(sys_, point)
            want = np.linalg.pinv(A, RANK_THRESHOLD) @ b
            assert np.array_equal(sol.particular.ravel(), want)

    @pytest.mark.parametrize("name", ["hydro2", "hydro3", "hydro4", "canonical:2,3",
                                      "canonical:4,4"])
    def test_nullspace_matches_nullspace_basis(self, name):
        sys_ = KContactHamiltonianSystem(resolve_structure(name)[0], 0)
        chart = sys_.chart
        for p in sample_points(chart.coords, chart, 3, random.Random(101)):
            sol = solve_hddw_at_point(sys_, p)
            assert sol.nullspace_dim == len(nullspace_basis(sol._A))
            assert sol.nullspace_dim == expected_nullspace_dim(sys_.k, sys_.dim)
            # the basis is read off the solve's rank: nullspace_dim rows,
            # orthonormal, in ker A, and so spanning it
            basis = sol.nullspace
            assert len(basis) == sol.nullspace_dim
            assert all(v.shape == (sys_.k, sys_.dim) for v in basis)
            N = np.array([v.ravel() for v in basis])
            assert np.allclose(sol._A @ N.T, 0.0, atol=1e-9)
            assert np.allclose(N @ N.T, np.eye(len(N)), atol=1e-9)
            assert np.array_equal(N, nullspace_basis(sol._A))
            # by construction, not by a second threshold
            assert len(replace(sol, nullspace_dim=1).nullspace) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_svd_per_solve(self, k, monkeypatch):
        sys_ = (self.K1_SYSTEMS["ideal gas"]() if k == 1 else
                KContactHamiltonianSystem(canonical_structure(2, 2), "q_1*p_2_2"))
        point = random_point(sys_.chart, random.Random(103))
        calls = _record_svd_calls(monkeypatch)
        solve_hddw_at_point(sys_, point)
        # the structure check's three numeric_rank calls, then the solve's thin SVD
        assert calls == [(False, True), (False, True), (False, True), (True, False)]

    def test_hddw_command_takes_no_full_svd(self, monkeypatch, capsys):
        calls = _record_svd_calls(monkeypatch)
        assert main(["hddw", "--builtin", "hydro3", "--n-points", "3", "--samples", "16",
                     "--no-timestamp"]) == 0
        assert "nullspace_dimension: pass" in capsys.readouterr().out
        # per point: the structure check's three ranks and the solve's thin SVD;
        # no V is computed for a nullspace basis that nothing reads
        assert calls == ([(False, True)] * 3 + [(True, False)]) * 3

    @pytest.mark.parametrize("name", K1_SYSTEMS)
    def test_every_stage_field_matches_solve_hddw_at_point(self, name, monkeypatch):
        import kontact.hddw

        sys_ = self.K1_SYSTEMS[name]()
        real = kontact.hddw._field_at
        stages = []

        def recording(field, point):
            x = real(field, point)
            stages.append((dict(point), x))
            return x

        monkeypatch.setattr(kontact.hddw, "_field_at", recording)
        x0 = random_point(sys_.chart, random.Random(107))
        integrate_contact_flow(sys_, x0, t_end=0.05, dt=0.01)
        assert len(stages) == 4 * 5
        for point, x in stages:
            want = solve_hddw_at_point(sys_, point).particular[0]
            assert x is not None
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", K1_SYSTEMS)
    def test_flow_matches_rk4_over_solve_hddw_at_point(self, name):
        sys_ = self.K1_SYSTEMS[name]()
        coords = sys_.chart.coords
        x0 = random_point(sys_.chart, random.Random(107))
        traj = integrate_contact_flow(sys_, x0, t_end=0.05, dt=0.01)

        def f(y):
            return solve_hddw_at_point(sys_, dict(zip(coords, y))).particular[0]

        y = np.array([x0[c] for c in coords])
        assert traj.states[0] == dict(zip(coords, y.tolist()))
        for state in traj.states[1:]:
            k1 = f(y)
            k2 = f(y + 0.5 * 0.01 * k1)
            k3 = f(y + 0.5 * 0.01 * k2)
            k4 = f(y + 0.01 * k3)
            y = y + (0.01 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            got = np.array([state[c] for c in coords])
            assert np.max(np.abs(got - y)) <= 1e-12 * np.max(np.abs(y))

    def test_no_svd_and_no_numeric_rank_per_step(self, monkeypatch):
        import kontact.hddw
        import kontact.kcontact

        sys_ = self.K1_SYSTEMS["ideal gas"]()
        real_svd, real_rank = np.linalg.svd, kontact.kcontact.numeric_rank
        svds, ranks = [], []

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return real_svd(*args, **kwargs)

        def counting_rank(M):
            ranks.append(M.shape)
            return real_rank(M)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(kontact.kcontact, "numeric_rank", counting_rank)
        integrate_contact_flow(sys_, equilibrium_state(Fraction(5, 2)), t_end=0.03, dt=0.01)
        # every stage is one call of the symbolic field's runner
        assert svds == []
        assert ranks == []

    def test_field_stage_only_where_the_rank_test_passes(self):
        # eta = s(ds - p dq) degenerates on s = 0, where A's smallest singular
        # value falls like s^2: the field answers a stage only where the
        # pointwise solve's structure check must pass
        from kontact.hddw import _field_at, _k1_field
        from kontact.kcontact import check_structure_at, structure_matrices_at

        ch = Chart(["s", "q", "p"])
        eta = DifferentialForm(ch, 1, {(0,): Var("s"), (1,): -Var("s") * Var("p")})
        structure = KContactStructure([eta])
        field = _k1_field(KContactHamiltonianSystem(structure, "-s", config=FAST))
        answered = 0
        for e in np.linspace(0.5, 17, 100):
            for p in (0.1, 2.0, 30.0):
                point = {"s": -10.0 ** -e, "q": 1.0, "p": p}
                holds = check_structure_at(structure_matrices_at(structure, point)) == (1, 1, 0)
                x = _field_at(field, point)
                assert x is None or holds
                answered += x is not None
        assert answered > 50

    @pytest.mark.parametrize("name", K1_SYSTEMS)
    def test_one_field_runner_per_system(self, name, monkeypatch):
        # X and the four _full_rank values come from one runner, built once
        import kontact.hddw

        sys_ = self.K1_SYSTEMS[name]()
        real = kontact.hddw.float_runner
        built = []

        def counting(exprs):
            built.append(len(exprs))
            return real(exprs)

        monkeypatch.setattr(kontact.hddw, "float_runner", counting)
        x0 = random_point(sys_.chart, random.Random(113))
        integrate_contact_flow(sys_, x0, t_end=0.02, dt=0.01)
        integrate_contact_flow(sys_, x0, t_end=0.02, dt=0.01)
        assert built == [sys_.dim + 4]

    def test_full_rank_is_total(self):
        # mu underflows to 0 with Omega = 0: the bound would be 0/0; then
        # d_1^(n-1) underflows to 0, the divisor of mu
        from kontact.hddw import _full_rank

        assert _full_rank(3, 0.0, 1e-320, 0.0, 1e308) is False
        assert _full_rank(4, 1.0, 1.0, 1.0, 1e-320) is False
        assert _full_rank(1, 0.0, 1.0, 1.0, 1.0) is False  # Omega == 0
        assert _full_rank(1, 1.0, 1.0, 1.0, 1.0) is True

    @pytest.mark.parametrize("name", ["thermo", "hydro2", "hydro3", "canonical:2,3"])
    def test_assembly_equals_stacked_structure_matrices(self, name):
        from kontact.hddw import _system_at

        s = resolve_structure(name)[0]
        c0, c1, c2 = s.chart.coords[:3]
        sys_ = KContactHamiltonianSystem(s, f"{c0}*{c1} - {c2}^2/3 + {c1}")
        chart = s.chart
        rng = random.Random(109)
        for zero_every in (1, 2, 0, 0):
            # zero coordinates make -0.0 coefficients: A turns them into
            # 0.0, b keeps them, entry by entry as evaluate gives them
            p = {c: 0.0 if zero_every and i % zero_every == 0 else rng.uniform(-1.5, 1.5)
                 for i, c in enumerate(chart.coords)}
            A_old = dense_structure_matrices(sys_.structure, p)
            b_old = np.array([float(evaluate(c, p)) for c in hddw_rhs(sys_)])
            A, b = _system_at(sys_, p)
            for new, old in ((A, A_old), (b, b_old)):
                assert np.array_equal(new, old)
                assert np.array_equal(np.signbit(new), np.signbit(old))


def x0_params(x0):
    return {"S": x0["S"], "V": x0["V"], "N": x0["N"]}


class TestSectionResidual:
    @pytest.mark.parametrize("name", ["hydro2", "thermo"])
    def test_equals_system_at_on_the_prolongation(self, name):
        from kontact.forms import prolongation
        from kontact.hddw import _system_at

        s = resolve_structure(name)[0]
        c0, c1, c2 = s.chart.coords[:3]
        sys_ = KContactHamiltonianSystem(s, f"{c0}*{c1} - {c2}^2/3 + {c1}")
        chart = s.chart
        src = parameter_chart(sys_.k)
        t = [Var(c) for c in src.coords]
        # a section with components 1 + (i+1)/8 + t_0 (i mod 3)/5 - t_{k-1}^2/16
        psi = SmoothMap(src, chart, [
            1 + Rational(Fraction(i + 1, 8)) + Rational(Fraction(i % 3, 5)) * t[0]
            - t[-1] * t[-1] / 16 for i in range(chart.dim)])
        eq1, eq2 = section_residual(sys_, psi)
        X = prolongation(psi)  # X[alpha][i] = d psi^i / d t^alpha
        for u in sample_points(src.coords, src, 4, random.Random(5)):
            x = {c: float(evaluate(e, u)) for c, e in zip(chart.coords, psi.components)}
            A, b = _system_at(sys_, x)
            want = A @ np.array([float(evaluate(e, u)) for col in X for e in col]) - b
            got = np.array([float(evaluate(e, u)) for e in eq1 + [eq2]])
            assert np.abs(want).max() > 0.1  # H != 0 keeps both sides away from zero
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_constant_hydro_section_is_solution(self):
        from kontact.hydro import hydro_chart, hydro_system

        k = 2
        sys_ = hydro_system(k)
        chart = hydro_chart(k)
        src = parameter_chart(k)
        psi = SmoothMap(src, chart, [Rational(Fraction(i, 7)) for i in range(chart.dim)])
        eq1, eq2 = section_residual(sys_, psi)
        rep = zero_check("section_residual", eq1 + [eq2], src, FAST)
        assert rep.verdict == PASS
        assert rep.max_residual == 0.0

    def test_time_dependent_ratio_breaks_first_equation(self):
        from kontact.hydro import hydro_chart, hydro_system

        k = 2
        sys_ = hydro_system(k)
        chart = hydro_chart(k)
        src = parameter_chart(k)
        comps = {c: Rational(Fraction(1)) for c in chart.coords}
        comps["xi"] = Var("t_0")
        psi = SmoothMap(src, chart, [comps[c] for c in chart.coords])
        eq1, eq2 = section_residual(sys_, psi)
        assert zero_check("section_residual", eq1 + [eq2], src, FAST).verdict == FAIL
        # the offending residual sits at the baryon-current coordinate slot
        bad = eq1[chart.index("N_0")]
        assert is_probably_zero(bad - 1, config=FAST)

    def test_wrong_parameter_dimension(self):
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, 0)
        src = parameter_chart(3)
        psi = SmoothMap(src, s.chart, [0] * s.dim)
        with pytest.raises(SourceNotRk):
            section_residual(sys_, psi)

    def test_wrong_target(self):
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, 0)
        other = Chart(["a", "b"])
        psi = SmoothMap(parameter_chart(2), other, [0, 0])
        with pytest.raises(ChartMismatch):
            section_residual(sys_, psi)


class TestIntegrateContactFlow:
    def test_entropy_and_particle_number_conserved(self):
        traj = run_isentropic(t_end=1.0, dt=1e-2)
        S, N = traj.column("S"), traj.column("N")
        assert max(abs(v - S[0]) for v in S) <= 1e-6 * abs(S[0])
        assert max(abs(v - N[0]) for v in N) <= 1e-6 * abs(N[0])

    def test_volume_matches_closed_form(self):
        traj = run_isentropic(t_end=1.0, dt=1e-2)
        for v, t in zip(traj.column("V"), traj.times):
            assert abs(v - math.exp(t)) <= 1e-6 * math.exp(t)

    def test_fourth_order_band(self):
        # halving dt in the truncation-dominated regime shrinks the error 8-32x
        def err(dt):
            traj = run_isentropic(t_end=1.0, dt=dt)
            return max(abs(v - math.exp(t)) for v, t in zip(traj.column("V"), traj.times))

        ratio = err(0.1) / err(0.05)
        assert 8.0 <= ratio <= 32.0

    def test_reintegrated_section_satisfies_equations(self):
        # closing the loop: the flow trajectory, read as data, stays within
        # solver tolerance of the pointwise equations
        sys_ = ideal_gas_system(Fraction(3, 2))
        traj = run_isentropic(t_end=0.5, dt=1e-2)
        for state in traj.states[:: len(traj.states) // 5]:
            sol = solve_hddw_at_point(sys_, state)
            assert sol.residual_norm < 1e-6

    def test_zero_hamiltonian_is_fixed_point(self):
        sys_ = KContactHamiltonianSystem(thermo_structure(), 0)
        x0 = equilibrium_state(Fraction(3, 2))
        traj = integrate_contact_flow(sys_, x0, t_end=0.2, dt=0.05)
        first, last = traj.states[0], traj.states[-1]
        assert all(abs(first[c] - last[c]) < 1e-12 for c in traj.chart_coords)

    def test_k_greater_one_rejected(self):
        s = canonical_structure(1, 2)
        sys_ = KContactHamiltonianSystem(s, 0)
        with pytest.raises(ValueError):
            integrate_contact_flow(sys_, {}, 1.0, 0.1)

    @pytest.mark.parametrize("t_end,dt", [(1.0, 0.0), (1.0, math.nan), (math.nan, 0.1),
                                          (math.inf, 0.1), (-1.0, 0.1), (0.04, 0.1)])
    def test_settings_without_a_step_rejected(self, t_end, dt):
        with pytest.raises(ValueError):
            run_isentropic(t_end=t_end, dt=dt)

    def test_csv_output(self):
        traj = run_isentropic(t_end=0.05, dt=0.05)
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].split(",") == list(traj.chart_coords)
        assert len(lines) == len(traj.states) + 1
        # 17 significant digits survive the round trip
        for text, val in zip(lines[1].split(","), traj.states[0].values()):
            assert float(text) == val


class TestConstrainedSolution:
    def test_zero_section_legendrian_with_vanishing_H(self):
        # H = s^1 restricted to the zero-section family {s=0, p=0} vanishes
        s = canonical_structure(2, 2)
        kf = ParametrizingKFunction(2, 2, [], ["0", "0"])
        L = build_parametrization(kf, s)
        sys_ = KContactHamiltonianSystem(s, Var("s_1"))
        rep = check_constrained_solution(sys_, L, n_points=3, config=FAST)
        assert rep.verdict == PASS
        assert rep.detail["H_vanishes_on_L"]
        assert rep.detail["feasible"]

    def test_nonvanishing_H_stops_early(self):
        s = canonical_structure(2, 2)
        kf = ParametrizingKFunction(2, 2, [], ["0", "0"])
        L = build_parametrization(kf, s)
        for H, verdict, vanishes in [
            ("1", FAIL, False),
            # H on L is 1e-8 sqrt(q_1^2+1): neither clearly zero nor not
            ("1/100000000 * sqrt(q_1^2 + 1)", INCONCLUSIVE, None),
        ]:
            sys_ = KContactHamiltonianSystem(s, parse_expr(H))
            rep = check_constrained_solution(sys_, L, n_points=3, config=FAST)
            assert rep.verdict == verdict
            assert rep.detail["H_vanishes_on_L"] is vanishes
            assert rep.detail["feasible"] is None

    def test_non_isotropic_input_rejected(self):
        s = canonical_structure(1, 1)
        base = Chart(["q_1"])
        graph = SmoothMap(base, s.chart, [0, Var("q_1"), 1])
        sys_ = KContactHamiltonianSystem(s, 0)
        with pytest.raises(NotIsotropic):
            check_constrained_solution(sys_, graph, n_points=2, config=FAST)

    def test_structure_degenerate_along_L_raises(self):
        # eta = s(ds - p dq) vanishes on L(u) = (0, u, 0): L is isotropic and
        # H = 0 vanishes on it, but the defining conditions fail at every
        # point of L, so its pointwise system has no meaning there
        ch = Chart(["s", "q", "p"])
        eta = DifferentialForm(ch, 1, {(0,): Var("s"), (1,): -Var("s") * Var("p")})
        sys_ = KContactHamiltonianSystem(KContactStructure([eta]), 0)
        L = SmoothMap(Chart(["u"]), ch, [0, Var("u"), 0])
        with pytest.raises(StructureDegenerateAtPoint):
            check_constrained_solution(sys_, L, n_points=3, config=FAST)
        with pytest.raises(StructureDegenerateAtPoint):
            solve_hddw_at_point(sys_, {"s": 0.0, "q": 0.5, "p": 0.0})

    def test_inconclusive_isotropy_is_passed_through(self):
        s = canonical_structure(1, 1)
        graph = SmoothMap(Chart(["q_1"]), s.chart,
                          [parse_expr("1/100000000 * sqrt(q_1^2 + 1)"), Var("q_1"), 0])
        sys_ = KContactHamiltonianSystem(s, 0)
        rep = check_constrained_solution(sys_, graph, n_points=2, config=FAST)
        assert rep.verdict == INCONCLUSIVE

    def test_hydro_equilibrium_family_unique_tangent_solution(self):
        from kontact.hydro import equilibrium_legendrian, hydro_system

        sys_ = hydro_system(4)
        L = equilibrium_legendrian(4)
        rep = check_constrained_solution(sys_, L, n_points=3, config=FAST).detail
        assert rep["H_vanishes_on_L"] and rep["feasible"]
        assert rep["constrained_nullspace_dim"] == 0
        assert rep["expected_pseudo_gauge_dof"] == 0

    def test_gauge_count_formula(self):
        # k dim L - (n(k+1) - dim L) for the built parametrizations
        s = canonical_structure(2, 2)
        kf = ParametrizingKFunction(2, 2, [1], ["p_1_1 * q_2", "p_2_1 * q_2"])
        L = build_parametrization(kf, s)
        sys_ = KContactHamiltonianSystem(s, 0)
        rep = check_constrained_solution(sys_, L, n_points=3, config=FAST).detail
        n, k, dim_L = 2, 2, L.source.dim
        assert rep["expected_pseudo_gauge_dof"] == k * dim_L - (n * (k + 1) - dim_L)
        assert rep["constrained_nullspace_dim"] == rep["expected_pseudo_gauge_dof"]
