"""Boost-invariant longitudinal expansion and pseudo-gauge bookkeeping.

Works on the (t, z) chart with proper time tau = sqrt(t^2 - z^2) and flow
velocity u = (t/tau, 0, 0, z/tau).  Provides the spatial projector Delta, the
divergence d_mu v^mu of a vector (the one index sum over the flow's partials),
the expansion scalar theta and the shear tensor sigma, built from Delta and
theta alone; the superpotential-generated transformation of the dissipative
decomposition; and the entropy-production verdicts before and after the
transformation.  The transformation parameter gamma may stay symbolic.
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
from .hydro import contract, metric_sign, spatial_projector
from .zerotest import Check, combine, zero_check

__all__ = [
    "BjorkenFlow", "PGTSuperpotential", "DissipativeDecomposition",
    "divergence", "expansion_scalar", "shear_tensor",
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
    and the flow's spatial projector delta, expansion scalar theta and shear
    tensor sigma, built once."""

    __slots__ = ("chart", "tau", "u", "temperature", "delta", "theta", "sigma")

    def __init__(self, temperature_profile: ExprLike = DEFAULT_T_PROFILE):
        self.chart = bjorken_chart()
        t, z = Var("t"), Var("z")
        self.tau = Pow.make(t * t - z * z, Fraction(1, 2))
        inv_tau = 1 / self.tau
        self.u = (t * inv_tau, ZERO, ZERO, z * inv_tau)
        profile = as_expr(temperature_profile)
        extra = free_variables(profile) - {"tau"}
        if extra:
            raise ValueError(f"temperature profile may only use tau; found {sorted(extra)}")
        self.temperature = substitute(profile, {"tau": self.tau})
        self.delta = spatial_projector(self.u)
        self.theta = expansion_scalar(self)
        self.sigma = shear_tensor(self)

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


def divergence(flow: BjorkenFlow, v: Sequence[ScalarExpr]) -> ScalarExpr:
    """d_mu v^mu over flow.d, summed from ZERO in index order.  Reads only
    flow.d, so any object with a d(e, mu) partial will do."""
    return sum((flow.d(v[m], m) for m in range(len(v))), ZERO)


def expansion_scalar(flow: BjorkenFlow) -> ScalarExpr:
    """theta = d_mu u^mu; equals 1/tau on the flow domain."""
    return divergence(flow, flow.u)


def shear_tensor(flow: BjorkenFlow) -> list[list[ScalarExpr]]:
    """sigma^{mu nu} = (1/2)(nabla^mu u^nu + nabla^nu u^mu) - (1/3) Delta^{mu nu} theta.

    nabla^mu = Delta^{mu alpha} d_alpha.  For a normalized u this is the
    symmetric-traceless flow-orthogonal part of d^alpha u^beta: since
    u_beta d^alpha u^beta = 0, the rank-4 projector reduces to these terms.
    Reads flow.u, flow.delta, flow.theta and flow.d.
    """
    delta = flow.delta
    du = [[flow.d(u, a) for u in flow.u] for a in range(4)]  # du[a][n] = d_a u^n
    nabla = [[sum((delta[m][a] * du[a][n] for a in range(4)), ZERO) for n in range(4)]
             for m in range(4)]
    half = Rational(Fraction(1, 2))
    third_theta = Rational(Fraction(1, 3)) * flow.theta
    return [[half * (nabla[m][n] + nabla[n][m]) - delta[m][n] * third_theta
             for n in range(4)] for m in range(4)]


def contract_symmetric(x: Sequence[Sequence[ScalarExpr]],
                       y: Sequence[Sequence[ScalarExpr]]) -> ScalarExpr:
    """x_{mu nu} y^{mu nu} for upper-upper component arrays."""
    total = ZERO
    for m in range(len(x)):
        for n in range(len(x)):
            term = metric_sign(m) * metric_sign(n) * x[m][n] * y[m][n]
            if not (isinstance(term, Rational) and term.value == 0):
                total = total + term
    return total


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
    delta = flow.delta
    gI = s.gamma * s.I_along(flow)
    return [[[
        gI * (flow.u[m] * delta[l][n] - flow.u[n] * delta[l][m])
        for n in range(4)] for m in range(4)] for l in range(4)]


def pgt_shift_tensor(s: PGTSuperpotential, flow: BjorkenFlow) -> list[list[ScalarExpr]]:
    """(1/2) d_lambda (Phi^{lambda mu nu} - Phi^{mu lambda nu} - Phi^{nu lambda mu})."""
    phi = superpotential_components(s, flow)
    half = Rational(Fraction(1, 2))
    return [[half * divergence(flow, [phi[l][m][n] - phi[m][l][n] - phi[n][l][m]
                                      for l in range(4)])
             for n in range(4)] for m in range(4)]


@dataclass
class DissipativeDecomposition:
    """T^{mu nu} = E u u - (PV + Pi_tot) Delta + shear part, in totals."""

    E: ScalarExpr
    PV: ScalarExpr
    Pi_tot: ScalarExpr
    shear_part: list  # 4x4 expressions, traceless and u-orthogonal

    @classmethod
    def perfect_fluid(cls, flow: BjorkenFlow):
        """Zero dissipative stress and the conformal equation of state
        E = 3 T^4, PV = T^4, with T the flow's temperature profile."""
        T4 = Pow.make(flow.temperature, Fraction(4))
        zero_44 = [[ZERO] * 4 for _ in range(4)]
        return cls(E=3 * T4, PV=T4, Pi_tot=ZERO, shear_part=zero_44)


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
    return contract_symmetric(d.shear_part, flow.sigma) - d.Pi_tot * flow.theta


def full_pgt_demo(
    gamma: ExprLike = "gamma",
    I: ExprLike = "T^3",
    temperature_profile: ExprLike = DEFAULT_T_PROFILE,
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
    theta, sigma = flow.theta, flow.sigma

    identities = {
        "theta_identity": [theta - 1 / flow.tau],
        "sigma_orthogonal": [contract(flow.u, [row[n] for row in sigma]) for n in range(4)],
    }

    trace = ZERO
    for m in range(4):
        trace = trace + metric_sign(m) * sigma[m][m]
    identities["sigma_traceless"] = [trace]

    ss = contract_symmetric(sigma, sigma)
    identities["sigma_identity"] = [ss - Rational(Fraction(2, 3)) * theta * theta]

    phi = superpotential_components(sp, flow)
    identities["superpotential_antisymmetry"] = [
        phi[l][m][n] + phi[l][n][m] for l in range(4) for m in range(4) for n in range(m, 4)]

    shift = pgt_shift_tensor(sp, flow)
    identities["divergence_free_shift"] = [divergence(flow, [row[n] for row in shift])
                                           for n in range(4)]

    before = DissipativeDecomposition.perfect_fluid(flow)
    after = apply_pgt(before, sp, flow)
    identities["entropy_production_before"] = [entropy_production(before, flow)]
    identities["entropy_production_after"] = [entropy_production(after, flow)]

    checks = [zero_check(name, exprs, flow.chart, config) for name, exprs in identities.items()]
    checks.append(Check(
        "all_identities", combine(c.verdict for c in checks),
        max(c.max_residual for c in checks),
        detail={"gamma": str(sp.gamma), "I": str(sp.I),
                "T_profile": str(as_expr(temperature_profile))}))
    return checks
