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
from .errors import ChartMismatch, IncompatibleKFunction
from .expr import ExprLike, ScalarExpr, Var, as_expr, differentiate, free_variables
from .forms import Chart, DifferentialForm, RkValuedOneForm, SmoothMap, pullback
from .kcontact import KContactStructure, canonical_structure
from .zerotest import PASS, Check, zero_check, zero_test

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


def _detect_linear_form(f: ParametrizingKFunction, config: RunConfig) -> bool:
    """Detect F^alpha = sum_{i in I} p^alpha_i f^i(q^j) with shared f^i.

    An inconclusive residue gives no certificate; the sampled check decides."""
    q_names = {f"q_{j}" for j in f.J}
    shared: dict[int, ScalarExpr] = {}
    for i in f.I:
        fi = f.momentum_partial(1, i)
        if not free_variables(fi) <= q_names:
            return False
        shared[i] = fi
    for alpha in range(2, f.k + 1):
        for i in f.I:
            fi = f.momentum_partial(alpha, i)
            if fi != shared[i]:
                return False
    for alpha in range(1, f.k + 1):
        residue = f.F[alpha - 1]
        for i in f.I:
            residue = residue - Var(f"p_{alpha}_{i}") * shared[i]
        if not zero_test(residue, config=config).is_zero:
            return False
    return True


def check_compatibility(
    f: ParametrizingKFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """The condition dF^alpha/dp^alpha_i == dF^beta/dp^beta_i for all i, alpha, beta.

    Always true for k=1.  Decided by sampling, with the structural linear form
    of the k-function detected separately as an exact certificate (the
    detail's syntactic_linear_form).
    """
    syntactic = f.k > 1 and bool(f.I) and _detect_linear_form(f, config)
    verdict = PASS if syntactic else zero_check(
        "compatibility",
        [f.momentum_partial(1, i) - f.momentum_partial(alpha, i)
         for i in f.I for alpha in range(2, f.k + 1)], config=config).verdict
    return Check("compatibility", verdict, detail={"syntactic_linear_form": syntactic})


def build_parametrization(
    f: ParametrizingKFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> SmoothMap:
    """The coordinate parametrization generated by f on the canonical chart.

    (q^j, p^alpha_i) ->
        s^alpha   = F^alpha - sum_{i in I} p^alpha_i dF^alpha/dp^alpha_i
        q^i (i in I)  = -dF^alpha/dp^alpha_i      (alpha-independent by compatibility)
        q^j (j in J)  = q^j
        p^alpha_i (i in I) = p^alpha_i
        p^alpha_j (j in J) = dF^alpha/dq^j
    """
    if check_compatibility(f, config).verdict != PASS:
        raise IncompatibleKFunction(
            "momentum partials differ between components; no parametrization")
    return _parametrization(f)


def _parametrization(f: ParametrizingKFunction) -> SmoothMap:
    """build_parametrization without its compatibility check."""
    ambient = canonical_structure(f.n, f.k).chart
    source = f.parameter_chart()
    components: dict[str, ScalarExpr] = {}
    for alpha in range(1, f.k + 1):
        s = f.F[alpha - 1]
        for i in f.I:
            s = s - Var(f"p_{alpha}_{i}") * f.momentum_partial(alpha, i)
        components[f"s_{alpha}"] = s
    for l in range(1, f.n + 1):
        if l in f.I:
            components[f"q_{l}"] = -f.momentum_partial(1, l)
        else:
            components[f"q_{l}"] = Var(f"q_{l}")
    for alpha in range(1, f.k + 1):
        for l in range(1, f.n + 1):
            if l in f.I:
                components[f"p_{alpha}_{l}"] = Var(f"p_{alpha}_{l}")
            else:
                components[f"p_{alpha}_{l}"] = differentiate(f.F[alpha - 1], f"q_{l}")
    return SmoothMap(source, ambient, [components[name] for name in ambient.coords])


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
