"""Hydro chart: structure, polarization, equilibrium conditions, entropy current."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kontact.config import RunConfig
from kontact.expr import (Rational, Var, ZERO, differentiate, free_variables, sqrt,
                          substitute)
from kontact.forms import Chart, SmoothMap, VectorField, parameter_chart
from kontact.hddw import section_residual, solve_hddw_at_point
from kontact.hydro import (
    entropy_current,
    equilibrium_conditions_residual,
    equilibrium_legendrian,
    hydro_chart,
    hydro_kcontact_form,
    hydro_polarization,
    hydro_system,
    metric_sign,
    spatial_projector,
)
from kontact.kcontact import (check_polarization, check_reeb_commutation, compute_reeb,
                              verify_kcontact)
from kontact.legendrian import verify_isotropic
from kontact.zerotest import FAIL, PASS, is_probably_zero, zero_check

from conftest import coord_form, rand_expr

FAST = RunConfig(n_sample_points=16)


class TestMetric:
    def test_signature(self):
        signs = [metric_sign(m) for m in range(4)]
        assert signs == [1, -1, -1, -1]
        assert all(type(s) is Fraction for s in signs)

    def test_self_inverse(self):
        # a diagonal metric is its own inverse when every diagonal entry squares to 1
        assert all(metric_sign(m) * metric_sign(m) == 1 for m in range(4))


class TestHydroStructure:
    def test_chart_dimension(self):
        for k in (2, 3, 4):
            assert hydro_chart(k).dim == k * k + 4 * k + 2

    def test_eta_coefficients(self):
        s = hydro_kcontact_form(2)
        ch = s.chart
        eta0 = s.eta[0]
        assert eta0.coeffs[(ch.index("S_0"),)] == Rational(Fraction(1))
        assert eta0.coeffs[(ch.index("N_0"),)] == Var("xi")
        assert eta0.coeffs[(ch.index("V"),)] == -Var("P_0")
        # beta lowering: -beta_0 on T_0_0, +beta_1 on T_1_0
        assert eta0.coeffs[(ch.index("T_0_0"),)] == -Var("beta_0")
        assert eta0.coeffs[(ch.index("T_1_0"),)] == Var("beta_1")

    def test_differential_matches_displayed_form(self):
        # d eta^mu = dxi ^ dN^mu - dP^mu ^ dV - dbeta_lambda ^ dT^{lambda mu}
        from kontact.forms import DifferentialForm, wedge

        k = 2
        s = hydro_kcontact_form(k)
        ch = s.chart
        for m in range(k):
            expected = wedge(coord_form(ch, "xi"),
                             coord_form(ch, f"N_{m}"))
            expected = expected - wedge(coord_form(ch, f"P_{m}"),
                                        coord_form(ch, "V"))
            for l in range(k):
                expected = expected - metric_sign(l) * wedge(
                    coord_form(ch, f"beta_{l}"),
                    coord_form(ch, f"T_{l}_{m}"))
            assert not (s.d_eta[m] - expected).coeffs

    @pytest.mark.parametrize("k", [2, 3])
    def test_lower_k_variants_verify(self, k):
        s = hydro_kcontact_form(k)
        checks = verify_kcontact(s, n_points=8, config=FAST)
        assert all(c.verdict == PASS for c in checks)

    def test_k4_conditions(self):
        s = hydro_kcontact_form(4)
        checks = verify_kcontact(s, n_points=8, config=FAST)
        assert all(c.verdict == PASS for c in checks)
        assert all(p["eta_rank"] == 4 and p["ker_deta_dim"] == 4 and p["intersection_dim"] == 0
                   for p in checks[0].detail["rank_table"])

    def test_reeb_frame_and_commutation(self):
        # the solved frame is the closed form R_mu = d/dS^mu
        s = hydro_kcontact_form(3)
        frame = compute_reeb(s, FAST)
        assert [R.components for R in frame] == [
            VectorField.coordinate(s.chart, f"S_{m}").components for m in range(3)]
        assert check_reeb_commutation(frame, config=FAST).verdict == PASS

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_polarization(self, k):
        s = hydro_kcontact_form(k)
        fields = hydro_polarization(k)
        assert len(fields) == k * (k + 2)
        assert check_polarization(s, fields, n_points=4, config=FAST).verdict == PASS


def failing_families(check) -> list[str]:
    return [name for name, f in check.detail["families"].items() if not f["pass"]]


class TestEquilibriumConditions:
    def test_constant_section_passes_all_families(self):
        k = 2
        ch = hydro_chart(k)
        psi = SmoothMap(parameter_chart(k), ch,
                        [Rational(Fraction(i + 1, 3)) for i in range(ch.dim)])
        rep = equilibrium_conditions_residual(psi, k, FAST)
        assert rep.verdict == PASS and rep.detail["all_pass"]
        assert rep.detail["hddw_all_zero"] and rep.detail["agrees_with_hddw"]

    def test_linear_ratio_flagged_in_exactly_one_family(self):
        k = 2
        ch = hydro_chart(k)
        comps = {c: Rational(Fraction(1)) for c in ch.coords}
        comps["xi"] = Var("t_0")
        psi = SmoothMap(parameter_chart(k), ch, [comps[c] for c in ch.coords])
        rep = equilibrium_conditions_residual(psi, k, FAST)
        assert rep.verdict == FAIL
        assert failing_families(rep) == ["d_xi"]
        assert not rep.detail["hddw_all_zero"] and rep.detail["agrees_with_hddw"]

    def test_families_reported_independently(self):
        # divergence-free but non-constant T passes div_T while d_beta fails
        k = 2
        ch = hydro_chart(k)
        comps = {c: Rational(Fraction(1)) for c in ch.coords}
        comps["T_0_1"] = Var("t_0") * Var("t_0")   # second-index divergence stays 0
        comps["beta_0"] = Var("t_0")
        psi = SmoothMap(parameter_chart(k), ch, [comps[c] for c in ch.coords])
        families = equilibrium_conditions_residual(psi, k, FAST).detail["families"]
        assert families["div_T"]["pass"]
        assert not families["d_beta"]["pass"]

    def test_first_equation_expansion_matches_displayed_coefficients(self):
        # residual components must be exactly the advertised coefficient
        # families, coordinate slot by coordinate slot, for a generic section
        k = 2
        ch = hydro_chart(k)
        src = parameter_chart(k)
        rng = random.Random(97)
        comps = {c: rand_expr(rng, list(src.coords), depth=2) for c in ch.coords}
        psi = SmoothMap(src, ch, [comps[c] for c in ch.coords])
        sys_ = hydro_system(k)
        eq1, _ = section_residual(sys_, psi)

        def dt(e, mu):
            return differentiate(e, f"t_{mu}")

        checks = []
        for m in range(k):
            # coefficient of dN^m is the m-th gradient of xi
            checks.append(eq1[ch.index(f"N_{m}")] - dt(comps["xi"], m))
            # coefficient of dP^m is the m-th gradient of V
            checks.append(eq1[ch.index(f"P_{m}")] - dt(comps["V"], m))
            # nothing lands on the dS^m slots
            checks.append(eq1[ch.index(f"S_{m}")])
        div_N = sum((dt(comps[f"N_{mu}"], mu) for mu in range(k)), ZERO)
        div_P = sum((dt(comps[f"P_{mu}"], mu) for mu in range(k)), ZERO)
        checks.append(eq1[ch.index("xi")] + div_N)
        checks.append(eq1[ch.index("V")] + div_P)
        for l in range(k):
            for m in range(k):
                # coefficient of dT^{lm} is -(d_m beta_l), beta lowered
                checks.append(eq1[ch.index(f"T_{l}_{m}")]
                              + metric_sign(l) * dt(comps[f"beta_{l}"], m))
            # coefficient of dbeta^l carries the second-index divergence of T
            div_T_l = sum((dt(comps[f"T_{l}_{mu}"], mu) for mu in range(k)), ZERO)
            checks.append(eq1[ch.index(f"beta_{l}")] - metric_sign(l) * div_T_l)
        for e in checks:
            assert is_probably_zero(e, config=FAST)

    def test_second_equation_reduces_to_entropy_conservation(self):
        # with every first-equation family constant, eq2 is exactly div S
        k = 2
        ch = hydro_chart(k)
        src = parameter_chart(k)
        comps = {c: Rational(Fraction(2, 3)) for c in ch.coords}
        comps["S_0"] = Var("t_0") * Var("t_1")
        comps["S_1"] = Var("t_1") ** 2
        psi = SmoothMap(src, ch, [comps[c] for c in ch.coords])
        _, eq2 = section_residual(hydro_system(k), psi)
        div_S = sum((differentiate(comps[f"S_{mu}"], f"t_{mu}") for mu in range(k)), ZERO)
        assert is_probably_zero(eq2 - div_S, config=FAST)


class TestEntropyCurrent:
    def test_perfect_fluid_reduces_to_euler_relation(self):
        # N = 0, T = E u u - PV Delta, P^mu = P beta^mu
        # => S^mu = (E + PV) u^mu / T, with u normalized by construction
        k = 4
        exprs = entropy_current(k)
        E, PV, T = Var("E"), Var("PV"), Var("T_temp")
        spatial = [Var(f"u_{m}") for m in (1, 2, 3)]
        u = [sqrt(1 + sum((s * s for s in spatial), ZERO))] + spatial
        delta = spatial_projector(u)
        binds = {"V": Rational(Fraction(1)), "xi": Var("xi")}
        inv_T = T ** -1
        for m in range(k):
            binds[f"beta_{m}"] = u[m] * inv_T
            binds[f"N_{m}"] = ZERO
            binds[f"P_{m}"] = PV * u[m] * inv_T
        for l in range(k):
            for m in range(k):
                binds[f"T_{l}_{m}"] = E * u[l] * u[m] - PV * delta[l][m]
        domain = Chart(["T_temp"], ranges={"T_temp": (Fraction(1, 2), Fraction(2))})
        for m in range(k):
            got = substitute(exprs[m], binds)
            want = (E + PV) * u[m] * inv_T
            assert is_probably_zero(got - want, domain, FAST)

    def test_all_fields_zero(self):
        exprs = entropy_current(2)
        binds = {name: ZERO for e in exprs for name in free_variables(e)}
        for e in exprs:
            assert substitute(e, binds) == ZERO

    def test_formula_linearity_in_xi_term(self):
        exprs = entropy_current(2)
        binds = {"V": ZERO, "xi": Var("xi")}
        for m in range(2):
            binds[f"P_{m}"] = Var(f"P_{m}")
            binds[f"N_{m}"] = Var(f"N_{m}")
            binds[f"beta_{m}"] = ZERO
        for l in range(2):
            for m in range(2):
                binds[f"T_{l}_{m}"] = Var(f"T_{l}_{m}")
        for m in range(2):
            got = substitute(exprs[m], binds)
            assert is_probably_zero(got + Var("xi") * Var(f"N_{m}"), config=FAST)

    def test_divergence_chain_rule_on_frozen_intensives(self):
        # with xi, beta, V constant (and P constant), div S reduces to
        # beta_l div T^{l.} - xi div N, so conservation kills it
        k = 2
        ch = hydro_chart(k)
        src = parameter_chart(k)
        rng = random.Random(101)
        comps = {c: Rational(Fraction(1, 2)) for c in ch.coords}
        for l in range(k):
            for m in range(k):
                comps[f"T_{l}_{m}"] = rand_expr(rng, list(src.coords), depth=2)
            comps[f"N_{l}"] = rand_expr(rng, list(src.coords), depth=2)
        s_exprs = entropy_current(k)
        comps_S = {f"S_{m}": substitute(s_exprs[m], comps) for m in range(k)}
        div_S = sum((differentiate(comps_S[f"S_{mu}"], f"t_{mu}") for mu in range(k)), ZERO)
        div_N = sum((differentiate(comps[f"N_{mu}"], f"t_{mu}") for mu in range(k)), ZERO)
        expected = -Var("xi_const") * div_N
        expected = substitute(expected, {"xi_const": comps["xi"]})
        for l in range(k):
            div_T_l = sum((differentiate(comps[f"T_{l}_{mu}"], f"t_{mu}")
                           for mu in range(k)), ZERO)
            expected = expected + metric_sign(l) * comps[f"beta_{l}"] * div_T_l
        assert is_probably_zero(div_S - expected, config=FAST)


class TestProjectors:
    @pytest.fixture
    def rest_frame(self):
        return (Rational(Fraction(1)), ZERO, ZERO, ZERO)

    @pytest.fixture
    def boosted(self):
        # u = (sqrt(1+g^2), g, 0, 0) is normalized for any g
        g = Var("g")
        return (sqrt(1 + g * g), g, ZERO, ZERO)

    def test_rest_frame_projector(self, rest_frame):
        delta = spatial_projector(rest_frame)
        for m in range(4):
            for n in range(4):
                want = -1 if (m == n and m > 0) else 0
                assert delta[m][n] == Rational(Fraction(want))

    def test_orthogonality(self, boosted):
        delta = spatial_projector(boosted)
        for m in range(4):
            total = ZERO
            for n in range(4):
                total = total + metric_sign(n) * delta[m][n] * boosted[n]
            assert is_probably_zero(total, config=FAST)

    def test_idempotence(self, boosted):
        delta = spatial_projector(boosted)
        for m in range(4):
            for n in range(4):
                total = ZERO
                for l in range(4):
                    total = total + delta[m][l] * metric_sign(l) * delta[l][n]
                assert is_probably_zero(total - delta[m][n], config=FAST)

    def test_normalization_check(self, boosted):
        # the projector's laws need u_mu u^mu = 1, which holds for boosted only
        def norm_defect(u):
            return sum((metric_sign(m) * c * c for m, c in enumerate(u)), ZERO) - 1

        assert zero_check("normalized", [norm_defect(boosted)], config=FAST).verdict == PASS
        bad = (Rational(Fraction(1)), Var("g"), ZERO, ZERO)
        assert zero_check("normalized", [norm_defect(bad)], config=FAST).verdict == FAIL


class TestEquilibriumLegendrian:
    def test_dimension_is_smallest_possible(self):
        L = equilibrium_legendrian(4)
        assert L.source.dim == 6  # n = k + 2

    def test_isotropy(self):
        L = equilibrium_legendrian(4)
        s = hydro_kcontact_form(4)
        assert verify_isotropic(L, s, FAST).verdict == PASS

    def test_k2_variant_isotropy(self):
        L = equilibrium_legendrian(2)
        s = hydro_kcontact_form(2)
        assert verify_isotropic(L, s, FAST).verdict == PASS

    def test_k3_variant_isotropy(self):
        # odd k walks the half-integer-exponent path of the equation of state
        L = equilibrium_legendrian(3)
        s = hydro_kcontact_form(3)
        assert verify_isotropic(L, s, FAST).verdict == PASS

    def test_gibbs_form_of_entropy_current_on_image(self):
        # the S components of the map agree with the entropy-current formula
        k = 4
        L = equilibrium_legendrian(k)
        binds = L.bindings() if hasattr(L, "bindings") else dict(
            zip(L.target.coords, L.components))
        for m, e in enumerate(entropy_current(k)):
            assert is_probably_zero(substitute(e, binds) - binds[f"S_{m}"],
                                    L.source, FAST)


class TestHydroSolver:
    def test_nullspace_at_20_points_k2(self):
        sys_ = hydro_system(2)
        chart = sys_.structure.chart
        rng = random.Random(103)
        expected = (2 - 1) * (chart.dim - 2) + 2 * 2 - 1
        for _ in range(5):
            p = {c: rng.uniform(0.4, 1.6) for c in chart.coords}
            sol = solve_hddw_at_point(sys_, p)
            assert sol.nullspace_dim == expected
