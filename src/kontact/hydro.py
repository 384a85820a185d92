"""Extensive relativistic hydrodynamics on a k-contact chart.

The phase-space chart carries the total entropy current S^mu, the pressure
current P^mu, volume V, ratio xi = mu/T, baryon current N^mu, inverse-
temperature velocity beta^mu, and the k^2 energy-momentum components T^{lm}
(no symmetry imposed; that is a property of sections, not of the chart).
Greek indices run 0..k-1; index lowering uses the fixed mostly-minus diagonal
metric (metric_sign), contract is the one Minkowski contraction a_mu b^mu, and
spatial_projector gives a velocity's rank-2 spatial projector.  Chart
dimension is k^2 + 4k + 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ChartMismatch
from .expr import ExprLike, Pow, Rational, ScalarExpr, Var, ZERO, differentiate
from .forms import Chart, DifferentialForm, SmoothMap, VectorField
from .hddw import KContactHamiltonianSystem, section_residual
from .kcontact import KContactStructure
from .zerotest import PASS, Check, combine, zero_check

__all__ = [
    "metric_sign", "contract", "spatial_projector", "hydro_chart", "hydro_kcontact_form",
    "hydro_polarization", "hydro_system",
    "equilibrium_conditions_residual", "entropy_current",
    "equilibrium_legendrian",
]


def metric_sign(mu: int) -> Fraction:
    """g_{mu mu} = g^{mu mu} of diag(+1, -1, ..., -1), the metric's only entries."""
    return Fraction(1) if mu == 0 else Fraction(-1)


def contract(a: Sequence[ScalarExpr], b: Sequence[ScalarExpr]) -> ScalarExpr:
    """a_mu b^mu of two upper-index component lists, summed from ZERO in index order."""
    return sum((metric_sign(m) * a[m] * b[m] for m in range(len(a))), ZERO)


def spatial_projector(u: Sequence[ScalarExpr]) -> list[list[ScalarExpr]]:
    """Delta^{mu nu} = g^{mu nu} - u^mu u^nu of a velocity u."""
    k = len(u)
    return [[(metric_sign(m) if m == n else Fraction(0)) - u[m] * u[n] for n in range(k)]
            for m in range(k)]


def hydro_chart(k: int = 4) -> Chart:
    """Coordinates ordered S, P, V, xi, N, beta, then T row-major; V > 0."""
    if k < 2:
        raise ValueError("hydrodynamic charts need k >= 2")
    coords = [f"S_{m}" for m in range(k)]
    coords += [f"P_{m}" for m in range(k)]
    coords += ["V", "xi"]
    coords += [f"N_{m}" for m in range(k)]
    coords += [f"beta_{m}" for m in range(k)]
    coords += [f"T_{l}_{m}" for l in range(k) for m in range(k)]
    return Chart(coords, constraints=[Var("V")],
                 ranges={"V": (Fraction(1, 2), Fraction(2))})


def hydro_kcontact_form(k: int = 4) -> KContactStructure:
    """eta^mu = dS^mu + xi dN^mu - beta_lambda dT^{lambda mu} - P^mu dV."""
    chart = hydro_chart(k)
    forms = []
    for m in range(k):
        coeffs = {
            (chart.index(f"S_{m}"),): Rational(Fraction(1)),
            (chart.index(f"N_{m}"),): Var("xi"),
            (chart.index("V"),): -Var(f"P_{m}"),
        }
        for l in range(k):
            coeffs[(chart.index(f"T_{l}_{m}"),)] = -(metric_sign(l) * Var(f"beta_{l}"))
        forms.append(DifferentialForm(chart, 1, coeffs))
    return KContactStructure(forms)


def hydro_system(k: int = 4, H: ExprLike = 0,
                 config: RunConfig = DEFAULT_CONFIG) -> KContactHamiltonianSystem:
    """The hydro structure with H under config; its Reeb frame is solved on first use."""
    return KContactHamiltonianSystem(hydro_kcontact_form(k), H, config=config)


def hydro_polarization(k: int = 4) -> list[VectorField]:
    """The rank k(k+2) polarization of the hydro structure.

    Spanned by beta_lambda d/dS^mu + d/dT^{lambda mu} (the lowered beta
    coefficient pairs against the beta_lambda dT^{lambda mu} term of eta),
    -xi d/dS^mu + d/dN^mu, and d/dP^mu.
    """
    chart = hydro_chart(k)
    fields = []
    for l in range(k):
        beta_low = metric_sign(l) * Var(f"beta_{l}")
        for m in range(k):
            comps = [ZERO] * chart.dim
            comps[chart.index(f"S_{m}")] = beta_low
            comps[chart.index(f"T_{l}_{m}")] = Rational(Fraction(1))
            fields.append(VectorField(chart, comps))
    for m in range(k):
        comps = [ZERO] * chart.dim
        comps[chart.index(f"S_{m}")] = -Var("xi")
        comps[chart.index(f"N_{m}")] = Rational(Fraction(1))
        fields.append(VectorField(chart, comps))
    for m in range(k):
        fields.append(VectorField.coordinate(chart, f"P_{m}"))
    return fields


def equilibrium_conditions_residual(
    psi: SmoothMap,
    k: int = 4,
    config: RunConfig = DEFAULT_CONFIG,
    raw: Check | None = None,
) -> Check:
    """Evaluate the seven equilibrium condition families on a hydro section.

    Families: d xi, div N, div P, d V, d beta, div T (contraction on the
    second index, as produced by the field equations), div S.  The check is
    cross-checked against the raw field-equation residual of the H = 0
    system on the same section: it passes when every family and that
    residual vanish, and fails when any of them fails (so in particular when
    the families and the field equations disagree).  Its max_residual is the
    largest family residual.  raw, when given, is that residual's check,
    already made on the same section with the same config.
    """
    chart = hydro_chart(k)
    if psi.target != chart:
        raise ChartMismatch("section must target the hydro chart of matching k")
    if psi.source.dim != k:
        raise ChartMismatch(f"section parameter chart must have dimension k={k}")
    comp = psi.bindings()
    tvars = psi.source.coords

    def d(name: str, mu: int) -> ScalarExpr:
        return differentiate(comp[name], tvars[mu])

    families: dict[str, list[ScalarExpr]] = {
        "d_xi": [d("xi", mu) for mu in range(k)],
        "div_N": [sum((d(f"N_{mu}", mu) for mu in range(k)), ZERO)],
        "div_P": [sum((d(f"P_{mu}", mu) for mu in range(k)), ZERO)],
        "d_V": [d("V", mu) for mu in range(k)],
        "d_beta": [d(f"beta_{lam}", mu) for lam in range(k) for mu in range(k)],
        "div_T": [sum((d(f"T_{lam}_{mu}", mu) for mu in range(k)), ZERO)
                  for lam in range(k)],
        "div_S": [sum((d(f"S_{mu}", mu) for mu in range(k)), ZERO)],
    }
    results = {name: zero_check(name, exprs, psi.source, config)
               for name, exprs in families.items()}
    if raw is None:
        eq1, eq2 = section_residual(hydro_system(k), psi)
        raw = zero_check("section_residual", eq1 + [eq2], psi.source, config)
    all_pass = all(c.verdict == PASS for c in results.values())
    hddw_all_zero = raw.verdict == PASS
    detail = {
        "families": {
            name: {"pass": c.verdict == PASS, "max_abs": c.max_residual,
                   "n_exprs": len(families[name])}
            for name, c in results.items()
        },
        "all_pass": all_pass,
        "hddw_all_zero": hddw_all_zero,
        "agrees_with_hddw": all_pass == hddw_all_zero,
    }
    return Check("equilibrium_families",
                 combine([c.verdict for c in results.values()] + [raw.verdict]),
                 max(c.max_residual for c in results.values()), detail)


def entropy_current(k: int = 4) -> list[ScalarExpr]:
    """S^mu = P^mu V - xi N^mu + beta_lambda T^{lambda mu}, componentwise."""
    beta = [Var(f"beta_{l}") for l in range(k)]
    return [Var(f"P_{m}") * Var("V") - Var("xi") * Var(f"N_{m}")
            + contract(beta, [Var(f"T_{l}_{m}") for l in range(k)]) for m in range(k)]


def equilibrium_legendrian(k: int = 4) -> SmoothMap:
    """The dimension-(k+2) equilibrium family inside the hydro chart.

    Parameters (beta^mu, xi, V) with timelike beta; a conformal equation of
    state (pressure T^k, energy density (k-1) T^k, so T p' = e + p holds)
    closes the first law, N^mu = 0, and the entropy current takes its
    Gibbs form.  The image is Legendrian of the smallest possible dimension
    n = k + 2.
    """
    chart = hydro_chart(k)
    coords = [f"beta_{m}" for m in range(k)] + ["xi", "V"]
    beta = [Var(f"beta_{m}") for m in range(k)]
    bb = contract(beta, beta)
    ranges = {"beta_0": (Fraction(1), Fraction(2)), "xi": (Fraction(-1), Fraction(1)),
              "V": (Fraction(1, 2), Fraction(2))}
    for m in range(1, k):
        ranges[f"beta_{m}"] = (Fraction(-1, 4), Fraction(1, 4))
    source = Chart(coords, constraints=[bb, Var("V")], ranges=ranges)
    t_k = Pow.make(bb, Fraction(-k, 2))          # T^k
    t_k2 = Pow.make(bb, Fraction(-(k + 2), 2))   # T^{k+2}
    V = Var("V")
    comp: dict[str, ScalarExpr] = {}
    for m in range(k):
        comp[f"S_{m}"] = k * V * Var(f"beta_{m}") * t_k
        comp[f"P_{m}"] = Var(f"beta_{m}") * t_k
        comp[f"N_{m}"] = ZERO
        comp[f"beta_{m}"] = Var(f"beta_{m}")
    comp["V"] = V
    comp["xi"] = Var("xi")
    for l in range(k):
        for m in range(k):
            e = k * V * Var(f"beta_{l}") * Var(f"beta_{m}") * t_k2
            if l == m:
                e = e - metric_sign(l) * V * t_k
            comp[f"T_{l}_{m}"] = e
    return SmoothMap(source, chart, [comp[name] for name in chart.coords])
