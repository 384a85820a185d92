"""Legendrian submanifolds from parametrizing k-functions.

Builds the coordinate parametrization generated by a family F^1..F^k on a
Darboux chart, checks the cross-component compatibility condition, verifies
isotropy by pullback, and provides the k=1 thermodynamic generating-function
construction (first-law contact form, equilibrium-state map).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ChartMismatch
from .expr import ExprLike, ScalarExpr, Var, as_expr, differentiate, free_variables
from .forms import Chart, DifferentialForm, RkValuedOneForm, SmoothMap, pullback
from .kcontact import KContactStructure
from .zerotest import Check, zero_check

__all__ = [
    "ParametrizingKFunction",
    "check_compatibility", "build_parametrization", "verify_isotropic",
    "legendrian_dimension", "thermo_chart", "thermo_structure",
    "thermo_parametrization",
]


class ParametrizingKFunction:
    """A family F^1..F^k over variables {q^j (j in J), p^alpha_i (i in I)}.

    I and J partition {1..n}; each F^alpha may involve only its own
    alpha-momenta plus the shared q^j.
    """

    def __init__(self, n: int, k: int, I: Sequence[int], F: Sequence[ExprLike]):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        I = tuple(sorted(set(I)))
        if any(not 1 <= i <= n for i in I):
            raise ValueError(f"I must be a subset of 1..{n}")
        if len(F) != k:
            raise ValueError(f"need k={k} component functions, got {len(F)}")
        self.n = n
        self.k = k
        self.I = I
        self.J = tuple(j for j in range(1, n + 1) if j not in I)
        self.F = tuple(as_expr(f) for f in F)
        for alpha, f in enumerate(self.F, start=1):
            allowed = {f"q_{j}" for j in self.J} | {f"p_{alpha}_{i}" for i in self.I}
            extra = free_variables(f) - allowed
            if extra:
                raise ValueError(
                    f"F^{alpha} may only use q^j (j in J) and p^{alpha}_i (i in I); "
                    f"found {sorted(extra)}")

    def parameter_chart(self) -> Chart:
        coords = [f"q_{j}" for j in self.J]
        coords += [f"p_{a}_{i}" for a in range(1, self.k + 1) for i in self.I]
        return Chart(coords)

    def momentum_partial(self, alpha: int, i: int) -> ScalarExpr:
        """dF^alpha / dp^alpha_i."""
        return differentiate(self.F[alpha - 1], f"p_{alpha}_{i}")


def check_compatibility(
    f: ParametrizingKFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """The condition dF^alpha/dp^alpha_i == dF^beta/dp^beta_i for all i, alpha, beta,
    decided by one zero test.  For k=1 or an empty I there is nothing to
    test: it passes with residual 0.0."""
    return zero_check("compatibility",
                      [f.momentum_partial(1, i) - f.momentum_partial(alpha, i)
                       for i in f.I for alpha in range(2, f.k + 1)], config=config)


def build_parametrization(f: ParametrizingKFunction, s: KContactStructure) -> SmoothMap:
    """The coordinate parametrization generated by f onto s.chart, where s is
    canonical_structure(f.n, f.k):

    (q^j, p^alpha_i) ->
        s^alpha   = F^alpha - sum_{i in I} p^alpha_i dF^alpha/dp^alpha_i
        q^i (i in I)  = -dF^1/dp^1_i
        q^j (j in J)  = q^j
        p^alpha_i (i in I) = p^alpha_i
        p^alpha_j (j in J) = dF^alpha/dq^j

    q^i reads alpha = 1's partials, so f must have passed check_compatibility.
    """
    components: dict[str, ScalarExpr] = {
        f"q_{l}": -f.momentum_partial(1, l) if l in f.I else Var(f"q_{l}")
        for l in range(1, f.n + 1)}
    for alpha in range(1, f.k + 1):
        s_alpha = f.F[alpha - 1]
        for i in f.I:
            s_alpha = s_alpha - Var(f"p_{alpha}_{i}") * f.momentum_partial(alpha, i)
        components[f"s_{alpha}"] = s_alpha
        for l in range(1, f.n + 1):
            components[f"p_{alpha}_{l}"] = (Var(f"p_{alpha}_{l}") if l in f.I
                                            else differentiate(f.F[alpha - 1], f"q_{l}"))
    if set(components) != set(s.chart.coords):
        raise ChartMismatch(f"the structure is not canonical_structure({f.n}, {f.k})")
    return SmoothMap(f.parameter_chart(), s.chart,
                     [components[name] for name in s.chart.coords])


def verify_isotropic(
    L: SmoothMap,
    s: KContactStructure,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """The isotropy check: every eta^alpha and d eta^alpha pulled back along L
    vanishes."""
    if L.target != s.chart:
        raise ChartMismatch("parametrization does not land on the structure chart")
    return zero_check("isotropy", [c for w in s.eta.forms + s.d_eta
                                   for c in pullback(L, w).coeffs.values()],
                      L.source.domain(), config)


def legendrian_dimension(n: int, k: int, n1: int) -> int:
    """dim L = n2 + k*n1 = n + (k-1)*n1; always within [n, n*k]."""
    if not 0 <= n1 <= n:
        raise ValueError(f"n1 must lie in 0..{n}")
    d = n + (k - 1) * n1
    assert n <= d <= n * k
    return d


# ---------------------------------------------------------------------------
# k=1 thermodynamics: contact form and generating functions

_THERMO_COORDS = ("E", "S", "V", "N", "T", "P", "mu")
_POSITIVE = (Fraction(1, 2), Fraction(2))


def thermo_chart() -> Chart:
    """Thermodynamic phase space (E, S, V, N, T, P, mu) with S, V, N, T > 0."""
    return Chart(
        _THERMO_COORDS,
        constraints=[Var("S"), Var("V"), Var("N"), Var("T")],
        ranges={"S": _POSITIVE, "V": _POSITIVE, "N": _POSITIVE, "T": _POSITIVE},
    )


def thermo_structure() -> KContactStructure:
    """The first-law contact form dE - T dS - mu dN + P dV."""
    ch = thermo_chart()
    eta = DifferentialForm(ch, 1, {
        (ch.index("E"),): 1,
        (ch.index("S"),): -Var("T"),
        (ch.index("N"),): -Var("mu"),
        (ch.index("V"),): Var("P"),
    })
    return KContactStructure(RkValuedOneForm([eta]))


def state_chart() -> Chart:
    """The (S, V, N) parameter chart of a thermodynamic state."""
    return Chart(
        ["S", "V", "N"],
        constraints=[Var("S"), Var("V"), Var("N")],
        ranges={"S": _POSITIVE, "V": _POSITIVE, "N": _POSITIVE},
    )


def thermo_parametrization(f: ExprLike) -> SmoothMap:
    """The equilibrium-state map generated by E = f(S, V, N):

    (S, V, N) -> (f, S, V, N, df/dS, -df/dV, df/dN).
    """
    f = as_expr(f)
    extra = free_variables(f) - {"S", "V", "N"}
    if extra:
        raise ValueError(f"generating function may only use S, V, N; found {sorted(extra)}")
    src = state_chart()
    components = {
        "E": f,
        "S": Var("S"),
        "V": Var("V"),
        "N": Var("N"),
        "T": differentiate(f, "S"),
        "P": -differentiate(f, "V"),
        "mu": differentiate(f, "N"),
    }
    return SmoothMap(src, thermo_chart(), [components[c] for c in _THERMO_COORDS])
