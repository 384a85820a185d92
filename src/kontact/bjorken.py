"""Boost-invariant longitudinal expansion and pseudo-gauge bookkeeping.

Works on the (t, z) chart with proper time tau = sqrt(t^2 - z^2) and flow
velocity u = (t/tau, 0, 0, z/tau).  Provides the expansion scalar and shear
tensor, the superpotential-generated transformation of the dissipative
decomposition, and the entropy-production verdicts before and after the
transformation; the transformation parameter gamma may stay symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .expr import (
    ExprLike,
    Pow,
    Rational,
    ScalarExpr,
    Var,
    ZERO,
    as_expr,
    differentiate,
    free_variables,
    substitute,
)
from .forms import Chart
from .hydro import FluidTensors, MinkowskiMetric, projectors
from .zerotest import Check, SampleDomain, combine, zero_check

__all__ = [
    "BjorkenFlow", "PGTSuperpotential", "DissipativeDecomposition",
    "expansion_scalar", "shear_tensor", "check_sigma_identity",
    "apply_pgt", "entropy_production", "full_pgt_demo",
    "superpotential_components", "pgt_shift_tensor", "DEFAULT_T_PROFILE",
]

# conformal cooling T(tau) = T0 (tau0/tau)^(1/3) with T0 = tau0 = 1
DEFAULT_T_PROFILE = "tau^(-1/3)"


def bjorken_chart() -> Chart:
    t, z = Var("t"), Var("z")
    return Chart(
        ["t", "z"],
        constraints=[t * t - z * z, t],
        ranges={"t": (Fraction(1), Fraction(2)), "z": (Fraction(-1, 2), Fraction(1, 2))},
    )


class BjorkenFlow:
    """u = (t/tau, 0, 0, z/tau) on t^2 > z^2, with a temperature profile T(tau),
    and the flow's expansion scalar theta and shear tensor sigma, built once."""

    __slots__ = ("chart", "tau", "u", "temperature", "metric", "theta", "sigma")

    def __init__(self, temperature_profile: ExprLike = DEFAULT_T_PROFILE):
        self.chart = bjorken_chart()
        t, z = Var("t"), Var("z")
        self.tau = Pow.make(t * t - z * z, Fraction(1, 2))
        inv_tau = Pow.make(t * t - z * z, Fraction(-1, 2))
        self.u = (t * inv_tau, ZERO, ZERO, z * inv_tau)
        profile = as_expr(temperature_profile)
        extra = free_variables(profile) - {"tau"}
        if extra:
            raise ValueError(f"temperature profile may only use tau; found {sorted(extra)}")
        self.temperature = substitute(profile, {"tau": self.tau})
        self.metric = MinkowskiMetric(4)
        self.theta = expansion_scalar(self)
        self.sigma = shear_tensor(self)

    def domain(self) -> SampleDomain:
        return self.chart.domain()

    def fluid(self) -> FluidTensors:
        return FluidTensors(self.chart, self.u, self.temperature, self.metric)

    def d(self, e: ScalarExpr, mu: int) -> ScalarExpr:
        """The spacetime partial d/dx^mu; transverse directions are constant."""
        if mu == 0:
            return differentiate(e, "t")
        if mu == 3:
            return differentiate(e, "z")
        return ZERO

    def comoving(self, e: ScalarExpr) -> ScalarExpr:
        """D = u^mu d_mu, the derivative along the flow."""
        total = ZERO
        for mu in range(4):
            total = total + self.u[mu] * self.d(e, mu)
        return total


def expansion_scalar(flow: BjorkenFlow) -> ScalarExpr:
    """theta = d_mu u^mu; equals 1/tau on the flow domain."""
    total = ZERO
    for mu in range(4):
        total = total + flow.d(flow.u[mu], mu)
    return total


def shear_tensor(flow: BjorkenFlow) -> list[list[ScalarExpr]]:
    """sigma^{mu nu}: symmetric-traceless flow-orthogonal part of d^alpha u^beta."""
    _, delta4 = projectors(flow.fluid())
    A = [[flow.metric.sign(a) * flow.d(flow.u[b], a) for b in range(4)] for a in range(4)]
    sigma = []
    for m in range(4):
        row = []
        for n in range(4):
            e = ZERO
            for a in range(4):
                for b in range(4):
                    term = delta4[m][n][a][b] * A[a][b]
                    if not (isinstance(term, Rational) and term.value == 0):
                        e = e + term
            row.append(e)
        sigma.append(row)
    return sigma


def contract_symmetric(x: Sequence[Sequence[ScalarExpr]],
                       y: Sequence[Sequence[ScalarExpr]],
                       metric: MinkowskiMetric) -> ScalarExpr:
    """x_{mu nu} y^{mu nu} for upper-upper component arrays."""
    total = ZERO
    for m in range(metric.dim):
        for n in range(metric.dim):
            term = metric.sign(m) * metric.sign(n) * x[m][n] * y[m][n]
            if not (isinstance(term, Rational) and term.value == 0):
                total = total + term
    return total


def _sigma_defect(flow: BjorkenFlow) -> ScalarExpr:
    """sigma_{mu nu} sigma^{mu nu} - (2/3) theta^2, identically zero."""
    ss = contract_symmetric(flow.sigma, flow.sigma, flow.metric)
    return ss - Rational(Fraction(2, 3)) * flow.theta * flow.theta


def check_sigma_identity(flow: BjorkenFlow, config: RunConfig = DEFAULT_CONFIG) -> Check:
    """The sigma_identity check: sigma_{mu nu} sigma^{mu nu} = (2/3) theta^2."""
    return zero_check("sigma_identity", [_sigma_defect(flow)], flow.domain(), config)


class PGTSuperpotential:
    """gamma * I(T) * (u^mu Delta^{lambda nu} - u^nu Delta^{lambda mu}).

    gamma is a constant (symbolic or numeric) carrying no flow variables;
    I is a scalar function of the temperature variable T.
    """

    __slots__ = ("gamma", "I")

    def __init__(self, gamma: ExprLike = "gamma", I: ExprLike = "T^3"):
        self.gamma = as_expr(gamma)
        flow_vars = free_variables(self.gamma) & {"t", "z", "tau", "T"}
        if flow_vars:
            raise ValueError(f"gamma must be constant along the flow; uses {sorted(flow_vars)}")
        self.I = as_expr(I)
        extra = free_variables(self.I) - {"T"}
        if extra:
            raise ValueError(f"I may only depend on T; found {sorted(extra)}")

    def I_along(self, flow: BjorkenFlow) -> ScalarExpr:
        return substitute(self.I, {"T": flow.temperature})


def superpotential_components(s: PGTSuperpotential, flow: BjorkenFlow) -> list:
    """Phi^{lambda mu nu}, antisymmetric in its last two indices."""
    delta = flow.fluid().delta
    gI = s.gamma * s.I_along(flow)
    return [[[
        gI * (flow.u[m] * delta[l][n] - flow.u[n] * delta[l][m])
        for n in range(4)] for m in range(4)] for l in range(4)]


def pgt_shift_tensor(s: PGTSuperpotential, flow: BjorkenFlow) -> list[list[ScalarExpr]]:
    """(1/2) d_lambda (Phi^{lambda mu nu} - Phi^{mu lambda nu} - Phi^{nu lambda mu})."""
    phi = superpotential_components(s, flow)
    half = Rational(Fraction(1, 2))
    out = []
    for m in range(4):
        row = []
        for n in range(4):
            e = ZERO
            for l in range(4):
                combo = phi[l][m][n] - phi[m][l][n] - phi[n][l][m]
                e = e + flow.d(combo, l)
            row.append(half * e)
        out.append(row)
    return out


@dataclass
class DissipativeDecomposition:
    """T^{mu nu} = E u u - (PV + Pi_tot) Delta + shear part, in totals."""

    E: ScalarExpr
    PV: ScalarExpr
    Pi_tot: ScalarExpr
    shear_part: list  # 4x4 expressions, traceless and u-orthogonal

    @classmethod
    def perfect_fluid(cls, flow: BjorkenFlow,
                      energy: ExprLike = "3*T^4", pressure_volume: ExprLike = "T^4"):
        """Zero dissipative stress; E(T) and P(T)V composed with the profile."""
        T = flow.temperature
        E = substitute(as_expr(energy), {"T": T})
        PV = substitute(as_expr(pressure_volume), {"T": T})
        zero_44 = [[ZERO] * 4 for _ in range(4)]
        return cls(E=E, PV=PV, Pi_tot=ZERO, shear_part=zero_44)


def apply_pgt(
    d: DissipativeDecomposition,
    s: PGTSuperpotential,
    flow: BjorkenFlow,
) -> DissipativeDecomposition:
    """Absorb the superpotential shift into a redefinition of equilibrium.

    E' = E + gamma I theta, the equilibrium pressure picks up -gamma DI, the
    dissipative bulk pressure the remaining -(2 gamma/3) I theta, and the
    shear part -gamma I sigma^{mu nu}.
    """
    I = s.I_along(flow)
    gI = s.gamma * I
    DI = flow.comoving(I)
    two_thirds = Rational(Fraction(2, 3))
    shear = [[d.shear_part[m][n] - gI * flow.sigma[m][n] for n in range(4)] for m in range(4)]
    return DissipativeDecomposition(
        E=d.E + gI * flow.theta,
        PV=d.PV - s.gamma * DI,
        Pi_tot=d.Pi_tot - two_thirds * gI * flow.theta,
        shear_part=shear,
    )


def entropy_production(d: DissipativeDecomposition, flow: BjorkenFlow) -> ScalarExpr:
    """The production source T dS = shear_{mu nu} sigma^{mu nu} - Pi theta."""
    return contract_symmetric(d.shear_part, flow.sigma, flow.metric) - d.Pi_tot * flow.theta


def full_pgt_demo(
    gamma: ExprLike = "gamma",
    I: ExprLike = "T^3",
    temperature_profile: ExprLike = DEFAULT_T_PROFILE,
    energy: ExprLike = "3*T^4",
    pressure_volume: ExprLike = "T^4",
    config: RunConfig = DEFAULT_CONFIG,
) -> list[Check]:
    """Run the whole pipeline and return one check per identity, then
    all_identities: their combined verdict and largest residual.

    Builds the flow, checks theta = 1/tau, the shear orthogonality/trace/
    magnitude identities, superpotential antisymmetry, the conservation of
    the shifted tensor, and the entropy production before and after the
    transformation (gamma may be symbolic).  Raises ValueError, before any
    symbolic work, where PGTSuperpotential or BjorkenFlow refuses its input.
    """
    sp = PGTSuperpotential(gamma, I)
    flow = BjorkenFlow(temperature_profile)
    domain = flow.domain()
    theta, sigma, metric = flow.theta, flow.sigma, flow.metric

    inv_tau = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1, 2))
    identities = {"theta_identity": [theta - inv_tau]}

    ortho = []
    for n in range(4):
        e = ZERO
        for m in range(4):
            e = e + metric.sign(m) * flow.u[m] * sigma[m][n]
        ortho.append(e)
    identities["sigma_orthogonal"] = ortho

    trace = ZERO
    for m in range(4):
        trace = trace + metric.sign(m) * sigma[m][m]
    identities["sigma_traceless"] = [trace]

    identities["sigma_identity"] = [_sigma_defect(flow)]

    phi = superpotential_components(sp, flow)
    identities["superpotential_antisymmetry"] = [
        phi[l][m][n] + phi[l][n][m] for l in range(4) for m in range(4) for n in range(m, 4)]

    shift = pgt_shift_tensor(sp, flow)
    divergences = []
    for n in range(4):
        e = ZERO
        for m in range(4):
            e = e + flow.d(shift[m][n], m)
        divergences.append(e)
    identities["divergence_free_shift"] = divergences

    before = DissipativeDecomposition.perfect_fluid(flow, energy, pressure_volume)
    after = apply_pgt(before, sp, flow)
    identities["entropy_production_before"] = [entropy_production(before, flow)]
    identities["entropy_production_after"] = [entropy_production(after, flow)]

    checks = [zero_check(name, exprs, domain, config) for name, exprs in identities.items()]
    checks.append(Check(
        "all_identities", combine(c.verdict for c in checks),
        max(c.max_residual for c in checks),
        detail={"gamma": str(sp.gamma), "I": str(sp.I),
                "T_profile": str(as_expr(temperature_profile))}))
    return checks
