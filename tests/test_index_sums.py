"""hydro.contract and bjorken.divergence build, node for node, the trees of
the accumulation loops they replaced, kept here as the reference."""

from __future__ import annotations

from fractions import Fraction

import pytest

from kontact import bjorken
from kontact.bjorken import (
    DEFAULT_T_PROFILE,
    BjorkenFlow,
    PGTSuperpotential,
    full_pgt_demo,
    pgt_shift_tensor,
    superpotential_components,
)
from kontact.config import RunConfig
from kontact.expr import Pow, Rational, ScalarExpr, Var, ZERO
from kontact.hydro import entropy_current, equilibrium_legendrian, metric_sign

FAST = RunConfig(n_sample_points=16)
PROFILES = [DEFAULT_T_PROFILE, "tau^(-1/2)"]


# ---------------------------------------------------------------------------
# the loops, as they were written before contract and divergence

def loop_theta(flow) -> ScalarExpr:
    total = ZERO
    for mu in range(4):
        total = total + flow.d(flow.u[mu], mu)
    return total


def loop_shift(s, flow) -> list[list[ScalarExpr]]:
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


def loop_identities(flow, shift) -> dict[str, list[ScalarExpr]]:
    inv_tau = Pow.make(Var("t") * Var("t") - Var("z") * Var("z"), Fraction(-1, 2))
    ortho = []
    for n in range(4):
        e = ZERO
        for m in range(4):
            e = e + metric_sign(m) * flow.u[m] * flow.sigma[m][n]
        ortho.append(e)
    divergences = []
    for n in range(4):
        e = ZERO
        for m in range(4):
            e = e + flow.d(shift[m][n], m)
        divergences.append(e)
    return {"theta_identity": [flow.theta - inv_tau], "sigma_orthogonal": ortho,
            "divergence_free_shift": divergences}


def loop_entropy_current(k) -> list[ScalarExpr]:
    out = []
    for m in range(k):
        e = Var(f"P_{m}") * Var("V") - Var("xi") * Var(f"N_{m}")
        for l in range(k):
            e = e + metric_sign(l) * Var(f"beta_{l}") * Var(f"T_{l}_{m}")
        out.append(e)
    return out


def loop_equilibrium_components(k) -> tuple[ScalarExpr, dict[str, ScalarExpr]]:
    bb = ZERO
    for m in range(k):
        bb = bb + metric_sign(m) * Var(f"beta_{m}") * Var(f"beta_{m}")
    t_k = Pow.make(bb, Fraction(-k, 2))
    t_k2 = Pow.make(bb, Fraction(-(k + 2), 2))
    V = Var("V")
    comp = {"V": V, "xi": Var("xi")}
    for m in range(k):
        comp[f"S_{m}"] = k * V * Var(f"beta_{m}") * t_k
        comp[f"P_{m}"] = Var(f"beta_{m}") * t_k
        comp[f"N_{m}"] = ZERO
        comp[f"beta_{m}"] = Var(f"beta_{m}")
    for l in range(k):
        for m in range(k):
            e = k * V * Var(f"beta_{l}") * Var(f"beta_{m}") * t_k2
            if l == m:
                e = e - metric_sign(l) * V * t_k
            comp[f"T_{l}_{m}"] = e
    return bb, comp


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", PROFILES)
def test_bjorken_trees_equal_the_loops(profile, monkeypatch):
    flow = BjorkenFlow(profile)
    assert flow.theta == loop_theta(flow)
    sp = PGTSuperpotential()
    shift = pgt_shift_tensor(sp, flow)
    assert shift == loop_shift(sp, flow)

    seen = {}
    real = bjorken.zero_check

    def recording(name, exprs, chart, config):
        seen[name] = exprs
        return real(name, exprs, chart, config)

    monkeypatch.setattr(bjorken, "zero_check", recording)
    full_pgt_demo(temperature_profile=profile, config=FAST)
    want = loop_identities(flow, shift)
    assert {name: seen[name] for name in want} == want


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hydro_trees_equal_the_loops(k):
    assert entropy_current(k) == loop_entropy_current(k)
    L = equilibrium_legendrian(k)
    bb, comp = loop_equilibrium_components(k)
    assert L.source.constraints[0] == bb
    assert list(L.components) == [comp[name] for name in L.target.coords]
