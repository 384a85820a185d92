"""Boost-invariant expansion: kinematic identities and pseudo-gauge bookkeeping."""

from __future__ import annotations

from fractions import Fraction

import pytest

from kontact import bjorken
from kontact.config import RunConfig
from kontact.expr import Pow, Rational, Var, ZERO, evaluate
from kontact.hydro import metric_sign
from kontact.bjorken import (
    BjorkenFlow,
    DissipativeDecomposition,
    PGTSuperpotential,
    apply_pgt,
    contract_symmetric,
    entropy_production,
    expansion_scalar,
    full_pgt_demo,
    pgt_shift_tensor,
    shear_tensor,
    superpotential_components,
)
from kontact.zerotest import INCONCLUSIVE, PASS, is_probably_zero

from conftest import PlaneFlow, SlabFlow

FAST = RunConfig(n_sample_points=16)


class TestFlowBasics:
    def test_normalization(self):
        flow = BjorkenFlow()
        norm = sum((metric_sign(m) * c * c for m, c in enumerate(flow.u)), ZERO)
        assert is_probably_zero(norm - 1, flow.domain(), FAST)

    def test_boost_invariant_structure(self):
        # u depends on (t, z) only through t/tau and z/tau
        flow = BjorkenFlow()
        inv_tau = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1, 2))
        assert flow.u[0] == Var("t") * inv_tau
        assert flow.u[3] == Var("z") * inv_tau
        assert flow.u[1] == ZERO and flow.u[2] == ZERO

    def test_profile_must_use_tau(self):
        with pytest.raises(ValueError):
            BjorkenFlow("T_0 * w")


class TestExpansionScalar:
    def test_symbolic_identity(self):
        flow = BjorkenFlow()
        theta = expansion_scalar(flow)
        inv_tau = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1, 2))
        assert is_probably_zero(theta - inv_tau, flow.domain(), FAST)

    def test_on_axis_value(self):
        theta = expansion_scalar(BjorkenFlow())
        assert evaluate(theta, {"t": 2.0, "z": 0.0}) == pytest.approx(0.5)

    def test_off_axis_value(self):
        theta = expansion_scalar(BjorkenFlow())
        assert evaluate(theta, {"t": 5.0, "z": 3.0}) == pytest.approx(0.25)


class TestShearTensor:
    def test_orthogonality(self):
        flow = BjorkenFlow()
        sigma = shear_tensor(flow)
        for n in range(4):
            e = ZERO
            for m in range(4):
                e = e + metric_sign(m) * flow.u[m] * sigma[m][n]
            assert is_probably_zero(e, flow.domain(), FAST)

    def test_tracelessness(self):
        flow = BjorkenFlow()
        sigma = shear_tensor(flow)
        trace = ZERO
        for m in range(4):
            trace = trace + metric_sign(m) * sigma[m][m]
        assert is_probably_zero(trace, flow.domain(), FAST)

    def test_magnitude_matches_expansion(self):
        flow = BjorkenFlow()
        sigma = shear_tensor(flow)
        ss = contract_symmetric(sigma, sigma)
        tau_sq_inv = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1))
        want = Rational(Fraction(2, 3)) * tau_sq_inv
        assert is_probably_zero(ss - want, flow.domain(), FAST)


class TestSigmaIdentity:
    def test_bjorken_flow(self):
        # full_pgt_demo's sigma_identity: sigma_{mu nu} sigma^{mu nu} = (2/3) theta^2
        flow = BjorkenFlow()
        ss = contract_symmetric(flow.sigma, flow.sigma)
        assert is_probably_zero(ss - Rational(Fraction(2, 3)) * flow.theta * flow.theta,
                                flow.domain(), FAST)

    def test_static_flow_degenerate(self):
        # u = (1,0,0,0): sigma and theta both vanish, identity holds trivially
        class StaticFlow(SlabFlow):
            def __init__(self):
                super().__init__()
                self.set_velocity((Rational(Fraction(1)), ZERO, ZERO, ZERO))

        flow = StaticFlow()
        sigma = shear_tensor(flow)
        theta = sum((flow.d(flow.u[m], m) for m in range(4)), ZERO)
        ss = contract_symmetric(sigma, sigma)
        assert is_probably_zero(ss - Rational(Fraction(2, 3)) * theta * theta,
                                flow.domain(), FAST)

    def test_slab_flow_still_satisfies_identity(self):
        # any flow confined to one boost plane forces sigma = -theta(ww + D/3),
        # so the magnitude identity carries over; the engine derives this
        flow = SlabFlow()
        sigma = shear_tensor(flow)
        theta = sum((flow.d(flow.u[m], m) for m in range(4)), ZERO)
        ss = contract_symmetric(sigma, sigma)
        defect = ss - Rational(Fraction(2, 3)) * theta * theta
        assert is_probably_zero(defect, flow.domain(), FAST)

    def test_plane_expansion_violates_identity(self):
        # two independent expansion directions: the identity fails, so it is
        # a property of the flow, not a projector tautology
        flow = PlaneFlow()
        sigma = shear_tensor(flow)
        theta = sum((flow.d(flow.u[m], m) for m in range(4)), ZERO)
        ss = contract_symmetric(sigma, sigma)
        defect = ss - Rational(Fraction(2, 3)) * theta * theta
        assert not is_probably_zero(defect, flow.domain(), FAST)


class TestSuperpotential:
    def test_antisymmetry_in_last_two_indices(self):
        flow = BjorkenFlow()
        sp = PGTSuperpotential("gamma", "T^3")
        phi = superpotential_components(sp, flow)
        for l in range(4):
            for m in range(4):
                for n in range(4):
                    e = phi[l][m][n] + phi[l][n][m]
                    assert is_probably_zero(e, flow.domain(), FAST)

    def test_gamma_must_be_constant(self):
        with pytest.raises(ValueError):
            PGTSuperpotential("t", "T^3")

    def test_I_depends_on_temperature_only(self):
        with pytest.raises(ValueError):
            PGTSuperpotential("gamma", "T + z")

    def test_shift_tensor_is_divergence_free(self):
        flow = BjorkenFlow()
        sp = PGTSuperpotential("gamma", "T^3")
        shift = pgt_shift_tensor(sp, flow)
        for n in range(4):
            e = ZERO
            for m in range(4):
                e = e + flow.d(shift[m][n], m)
            assert is_probably_zero(e, flow.domain(), FAST)


class TestApplyPGT:
    def test_zero_gamma_is_identity(self):
        flow = BjorkenFlow()
        before = DissipativeDecomposition.perfect_fluid(flow)
        after = apply_pgt(before, PGTSuperpotential(0, "T^3"), flow)
        assert is_probably_zero(after.E - before.E, flow.domain(), FAST)
        assert is_probably_zero(after.PV - before.PV, flow.domain(), FAST)
        assert is_probably_zero(after.Pi_tot, flow.domain(), FAST)
        for m in range(4):
            for n in range(4):
                assert is_probably_zero(after.shear_part[m][n], flow.domain(), FAST)

    def test_constant_I_drops_comoving_term(self):
        flow = BjorkenFlow()
        before = DissipativeDecomposition.perfect_fluid(flow)
        sp = PGTSuperpotential("gamma", "1/2")
        after = apply_pgt(before, sp, flow)
        theta = expansion_scalar(flow)
        gI = Var("gamma") * Rational(Fraction(1, 2))
        assert is_probably_zero(after.E - before.E - gI * theta, flow.domain(), FAST)
        # no DI contribution: PV changes only through the bulk split
        assert is_probably_zero(after.PV - before.PV, flow.domain(), FAST)
        want_pi = -Rational(Fraction(2, 3)) * gI * theta
        assert is_probably_zero(after.Pi_tot - want_pi, flow.domain(), FAST)

    def test_transformed_shear_stays_traceless_and_orthogonal(self):
        flow = BjorkenFlow()
        before = DissipativeDecomposition.perfect_fluid(flow)
        after = apply_pgt(before, PGTSuperpotential("gamma", "T^3"), flow)
        trace = ZERO
        for m in range(4):
            trace = trace + metric_sign(m) * after.shear_part[m][m]
        assert is_probably_zero(trace, flow.domain(), FAST)
        for n in range(4):
            e = ZERO
            for m in range(4):
                e = e + metric_sign(m) * flow.u[m] * after.shear_part[m][n]
            assert is_probably_zero(e, flow.domain(), FAST)


class TestEntropyProduction:
    def test_perfect_fluid_produces_nothing(self):
        flow = BjorkenFlow()
        d = DissipativeDecomposition.perfect_fluid(flow)
        assert is_probably_zero(entropy_production(d, flow), flow.domain(), FAST)

    def test_after_pgt_still_zero_symbolic_gamma(self):
        flow = BjorkenFlow()
        before = DissipativeDecomposition.perfect_fluid(flow)
        after = apply_pgt(before, PGTSuperpotential("gamma", "T^3"), flow)
        assert is_probably_zero(entropy_production(after, flow), flow.domain(), FAST)

    def test_unit_shear_produces_sigma_squared(self):
        flow = BjorkenFlow()
        sigma = shear_tensor(flow)
        d = DissipativeDecomposition(E=ZERO, PV=ZERO, Pi_tot=ZERO, shear_part=sigma)
        prod = entropy_production(d, flow)
        tau_sq_inv = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1))
        assert is_probably_zero(prod - Rational(Fraction(2, 3)) * tau_sq_inv,
                                flow.domain(), FAST)
        # and it is strictly positive on the domain
        assert evaluate(prod, {"t": 2.0, "z": 0.5}) > 0


class TestBuiltOnce:
    """The flow's Delta, theta and sigma are built once per demo."""

    def test_one_build_per_demo(self, monkeypatch):
        calls = dict.fromkeys(["spatial_projector", "expansion_scalar", "shear_tensor"], 0)
        for name in calls:
            def counting(*args, real=getattr(bjorken, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(bjorken, name, counting)
        full_pgt_demo(config=FAST)
        assert calls == {"spatial_projector": 1, "expansion_scalar": 1, "shear_tensor": 1}


def verdicts(checks) -> dict:
    return {c.name: c.verdict for c in checks}


class TestFullDemo:
    def test_defaults_all_pass(self):
        checks = full_pgt_demo(config=FAST)
        assert [c.name for c in checks] == [
            "theta_identity", "sigma_orthogonal", "sigma_traceless",
            "sigma_identity", "superpotential_antisymmetry",
            "divergence_free_shift", "entropy_production_before",
            "entropy_production_after", "all_identities"]
        assert all(c.verdict == PASS for c in checks)
        assert all(c.max_residual < 1e-10 for c in checks)
        total = checks[-1]
        assert total.max_residual == max(c.max_residual for c in checks[:-1])
        assert total.detail == {"gamma": "gamma", "I": "T^3", "T_profile": "tau^(-1/3)"}

    @pytest.mark.parametrize("gamma", ["-2", "1/2", "10"])
    def test_gamma_sweep(self, gamma):
        checks = full_pgt_demo(gamma=gamma, config=FAST)
        assert verdicts(checks)["all_identities"] == PASS

    @pytest.mark.parametrize("I", ["T^3", "exp(T)", "2/3"])
    def test_I_sweep(self, I):
        checks = full_pgt_demo(I=I, config=FAST)
        assert verdicts(checks)["all_identities"] == PASS

    def test_custom_profile(self):
        checks = full_pgt_demo(temperature_profile="2 * tau^(-1/2)", config=FAST)
        assert verdicts(checks)["all_identities"] == PASS

    def test_tolerance_below_float_noise_is_inconclusive(self):
        # tolerances below rounding noise: residuals of ~1e-15 can be called
        # neither zero nor nonzero, and no identity may read as failed
        tight = RunConfig(n_sample_points=16, atol=1e-30, rtol=1e-30)
        checks = full_pgt_demo(I="5/4", config=tight)
        assert verdicts(checks)["all_identities"] == INCONCLUSIVE
        for c in checks[:-1]:
            assert c.verdict == (PASS if c.max_residual == 0.0 else INCONCLUSIVE), c.name
