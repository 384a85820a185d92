"""Legendrian parametrizations, compatibility, isotropy, thermodynamic forms."""

from __future__ import annotations

from fractions import Fraction

import pytest

from kontact.config import RunConfig
from kontact.errors import ChartMismatch
from kontact.expr import Rational, Var, parse_expr
from kontact.forms import (
    Chart,
    SmoothMap,
    VectorField,
    interior_product,
    pullback,
)
from kontact.kcontact import canonical_structure
from kontact.legendrian import (
    ParametrizingKFunction,
    build_parametrization,
    check_compatibility,
    legendrian_dimension,
    thermo_parametrization,
    thermo_structure,
    verify_isotropic,
)
from kontact.idealgas import ideal_gas_energy
from kontact.zerotest import FAIL, INCONCLUSIVE, PASS, is_probably_zero, zero_test

FAST = RunConfig(n_sample_points=16)


class TestCompatibility:
    def test_shared_linear_form_passes(self):
        F = [f"p_{a}_1 * (q_3^2 + 1) + p_{a}_2 * q_3" for a in (1, 2, 3)]
        kf = ParametrizingKFunction(3, 3, [1, 2], F)
        rep = check_compatibility(kf, FAST)
        assert (rep.verdict, rep.max_residual, rep.detail) == (PASS, 0.0, None)

    def test_k1_always_compatible(self):
        kf = ParametrizingKFunction(2, 1, [1], ["p_1_1^2 + q_2"])
        # nothing to test: the check passes with residual 0.0
        rep = check_compatibility(kf, FAST)
        assert (rep.verdict, rep.max_residual) == (PASS, 0.0)

    def test_mismatched_partials_fail(self):
        kf = ParametrizingKFunction(1, 2, [1], ["p_1_1 * 1", "2 * p_2_1"])
        assert check_compatibility(kf, FAST).verdict == FAIL
        # partials differ by 1e-8 sqrt(q_2^2+1): neither clearly equal nor not
        kf = ParametrizingKFunction(
            2, 2, [1], ["p_1_1 * (1 + 1/100000000 * sqrt(q_2^2 + 1))", "p_2_1"])
        assert check_compatibility(kf, FAST).verdict == INCONCLUSIVE

    def test_inconclusive_residue_is_no_certificate(self):
        # shared partials, but F - p q_2 is tiny: the partials alone decide
        F = [f"p_{a}_1 * q_2 + 1/100000000 * sqrt(q_2^2 + 1)" for a in (1, 2)]
        rep = check_compatibility(ParametrizingKFunction(2, 2, [1], F), FAST)
        assert (rep.verdict, rep.max_residual) == (PASS, 0.0)

    def test_own_momenta_only(self):
        with pytest.raises(ValueError):
            ParametrizingKFunction(1, 2, [1], ["p_2_1", "p_2_1"])

    def test_empty_I_trivially_compatible(self):
        kf = ParametrizingKFunction(2, 2, [], ["q_1 * q_2", "q_1 + q_2"])
        rep = check_compatibility(kf, FAST)
        assert (rep.verdict, rep.max_residual) == (PASS, 0.0)


class TestBuildParametrization:
    def test_jet_style_graph_for_empty_I(self):
        # I empty: the map is the first-jet-style graph of the k functions
        kf = ParametrizingKFunction(2, 2, [], ["q_1*q_2", "q_1^2"])
        L = build_parametrization(kf, canonical_structure(kf.n, kf.k))
        ambient = L.target
        # s^alpha-component equals F^alpha exactly (jet recovery)
        assert L.components[ambient.index("s_1")] == parse_expr("q_1*q_2")
        assert L.components[ambient.index("s_2")] == parse_expr("q_1^2")
        assert L.components[ambient.index("q_1")] == Var("q_1")
        # momenta are the q-partials
        assert is_probably_zero(
            L.components[ambient.index("p_1_1")] - Var("q_2"), config=FAST)
        assert L.source.dim == 2

    def test_linear_form_zeroes_the_s_components(self):
        F = [f"p_{a}_1 * exp(q_2)" for a in (1, 2)]
        kf = ParametrizingKFunction(2, 2, [1], F)
        L = build_parametrization(kf, canonical_structure(kf.n, kf.k))
        ambient = L.target
        dom = L.source.domain()
        for a in (1, 2):
            assert is_probably_zero(L.components[ambient.index(f"s_{a}")],
                                    dom, FAST)

    def test_structure_of_other_sizes_refused(self):
        kf = ParametrizingKFunction(2, 2, [1], ["p_1_1 * q_2", "p_2_1 * q_2"])
        with pytest.raises(ChartMismatch):
            build_parametrization(kf, canonical_structure(2, 3))

    def test_parameter_dimension_formula(self):
        for (n, k, I) in [(2, 2, [1]), (3, 2, [1, 2]), (2, 4, [1]), (3, 1, [2])]:
            F_template = []
            for a in range(1, k + 1):
                terms = [f"p_{a}_{i} * q_{min((set(range(1, n+1)) - set(I)) or {i})}"
                         if (set(range(1, n + 1)) - set(I)) else f"p_{a}_{i}"
                         for i in I]
                F_template.append(" + ".join(terms) if terms else "q_1")
            kf = ParametrizingKFunction(n, k, I, F_template)
            if check_compatibility(kf, FAST).verdict != PASS:
                continue
            L = build_parametrization(kf, canonical_structure(kf.n, kf.k))
            n1 = len(I)
            assert L.source.dim == legendrian_dimension(n, k, n1)
            admissible = {n + (k - 1) * m for m in range(n + 1)}
            assert L.source.dim in admissible


class TestVerifyIsotropic:
    def test_built_parametrizations_are_isotropic(self):
        F = [f"p_{a}_1 * (q_2^2 + 1)" for a in (1, 2, 3, 4)]
        kf = ParametrizingKFunction(2, 4, [1], F)
        s = canonical_structure(2, 4)
        L = build_parametrization(kf, s)
        assert verify_isotropic(L, s, FAST).verdict == PASS

    def test_ideal_gas_state_family_is_isotropic(self):
        phi = thermo_parametrization(ideal_gas_energy(Fraction(3, 2)))
        assert verify_isotropic(phi, thermo_structure(), FAST).verdict == PASS

    def test_constant_momentum_graph_is_not(self):
        s = canonical_structure(1, 1)
        base = Chart(["q_1"])
        for s_component, p_component, verdict in [
            # s = 0, p = 1 over q: pullback of ds - p dq is -dq
            ("0", "1", FAIL),
            # s = 1e-8 sqrt(q^2+1), p = 0: the pullback is tiny but not zero
            ("1/100000000 * sqrt(q_1^2 + 1)", "0", INCONCLUSIVE),
        ]:
            graph = SmoothMap(base, s.chart,
                              [parse_expr(s_component), Var("q_1"), parse_expr(p_component)])
            check = verify_isotropic(graph, s, FAST)
            assert (check.name, check.verdict) == ("isotropy", verdict)


class TestLegendrianDimension:
    def test_hydro_equilibrium_case(self):
        assert legendrian_dimension(6, 4, 0) == 6

    def test_upper_bound(self):
        assert legendrian_dimension(3, 4, 3) == 12
        assert legendrian_dimension(5, 2, 5) == 10

    def test_contact_case_collapses(self):
        for n1 in range(4):
            assert legendrian_dimension(3, 1, n1) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            legendrian_dimension(2, 2, 3)


class TestMaximality:
    def test_transverse_directions_break_isotropy(self):
        # appending any complement direction from the construction to TL
        # makes some d eta pairing nonzero
        kf = ParametrizingKFunction(2, 2, [1], ["p_1_1 * q_2", "p_2_1 * q_2"])
        s = canonical_structure(2, 2)
        L = build_parametrization(kf, s)
        dom = L.source.domain()
        # complement W = <d/dq^i (i in I), d/dp^alpha_j (j in J)>
        w_names = [f"q_{i}" for i in kf.I] + \
                  [f"p_{a}_{j}" for a in (1, 2) for j in kf.J]
        for name in w_names:
            w = VectorField.coordinate(s.chart, name)
            breaks = False
            for d in s.d_eta:
                paired = pullback(L, interior_product(w, d))
                for c in paired.coeffs.values():
                    if not is_probably_zero(c, dom, FAST):
                        breaks = True
            assert breaks, f"direction d/d{name} failed to break isotropy"


class TestThermo:
    def test_first_law_form(self):
        s = thermo_structure()
        ch = s.chart
        eta = s.eta.forms[0]
        assert eta.coeffs[(ch.index("E"),)] == Rational(Fraction(1))
        assert eta.coeffs[(ch.index("S"),)] == -Var("T")
        assert eta.coeffs[(ch.index("N"),)] == -Var("mu")
        assert eta.coeffs[(ch.index("V"),)] == Var("P")

    def test_parametrization_components(self):
        f = parse_expr("2 * S^(1/3) * V^(1/3) * N^(1/3)")
        phi = thermo_parametrization(f)
        ch = phi.target
        binds = phi.bindings()
        assert binds["E"] == f
        # P = -df/dV
        from kontact.expr import differentiate

        assert is_probably_zero(binds["P"] + differentiate(f, "V"),
                                phi.source.domain(), FAST)

    def test_pullback_of_contact_form_vanishes(self):
        f = parse_expr("S^(1/2) * V^(1/4) * N^(1/4)")
        phi = thermo_parametrization(f)
        pulled = pullback(phi, thermo_structure().eta.forms[0])
        dom = phi.source.domain()
        assert all(is_probably_zero(c, dom, FAST) for c in pulled.coeffs.values())


class TestGibbsEquality:
    """E + PV = TS + mu N on the image of the state map generated by f holds
    exactly when f is homogeneous of degree one (Euler's theorem)."""

    @staticmethod
    def gibbs_holds(f) -> bool:
        phi = thermo_parametrization(f)
        c = phi.bindings()
        gibbs = c["E"] + c["P"] * c["V"] - c["T"] * c["S"] - c["mu"] * c["N"]
        return zero_test(gibbs, phi.source.domain(), FAST).is_zero

    def test_degree_one_homogeneous(self):
        assert self.gibbs_holds(parse_expr("3/2 * S^(1/3) * V^(1/3) * N^(1/3)"))

    def test_other_exponents(self):
        assert self.gibbs_holds(parse_expr("S^(1/2) * V^(1/4) * N^(1/4)"))

    def test_not_homogeneous_breaks_gibbs(self):
        assert not self.gibbs_holds(parse_expr("S^2"))

    def test_ideal_gas_energy_is_not_homogeneous(self):
        # the textbook closed form with fixed reference scales fails Euler
        assert not self.gibbs_holds(ideal_gas_energy(Fraction(3, 2)))
