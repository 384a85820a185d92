"""k-contact Hamiltonian systems and their field equations.

The two defining equations (the contraction of a k-vector field with the
structure differentials against dH minus its Reeb transport, and the duality
pairing against -H) are pointwise linear in the k*dim unknown components.
This module assembles and solves them numerically at chart points (least-norm
particular solution plus the SVD nullspace: the pseudo-gauge directions),
evaluates the induced PDE residuals for candidate sections, and integrates
k=1 flows with a classic 4th-order one-step method.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ChartMismatch,
    InconsistentSystem,
    LengthMismatch,
    NotIsotropic,
    SourceNotRk,
    StructureDegenerateAtPoint,
)
from .expr import ZERO, Rational, ScalarExpr, as_expr, evaluate, free_variables, substitute
from .forms import DifferentialForm, SmoothMap, exterior_derivative, prolongation
from .kcontact import KContactStructure, ReebFrame, check_structure_at, compute_reeb
from .legendrian import LegendrianParametrization, verify_isotropic
from .linalg import least_norm_solution, nullspace_basis, numeric_rank
from .zerotest import sample_points, zero_test

__all__ = [
    "KContactHamiltonianSystem", "HdDWPointSolution", "SectionCandidate",
    "SectionResidualReport", "ConstrainedSolutionReport", "Trajectory",
    "hddw_rhs", "solve_hddw_at_point", "pseudo_gauge_shift",
    "section_residual", "integrate_contact_flow", "check_constrained_solution",
    "expected_nullspace_dim",
]


def expected_nullspace_dim(k: int, dim: int) -> int:
    """(k-1)*m + k^2 - 1 with m = dim - k: the pointwise solution freedom."""
    m = dim - k
    return (k - 1) * m + k * k - 1


class KContactHamiltonianSystem:
    """A verified k-contact structure together with a Hamiltonian function."""

    def __init__(
        self,
        structure: KContactStructure,
        H: ScalarExpr | int | str,
        reeb: ReebFrame | None = None,
        config: RunConfig = DEFAULT_CONFIG,
    ):
        self.structure = structure
        self.H = as_expr(H)
        self._reeb = reeb
        self._config = config
        self._rhs: tuple[DifferentialForm, ScalarExpr] | None = None

    @property
    def chart(self):
        return self.structure.chart

    @property
    def k(self) -> int:
        return self.structure.k

    @property
    def dim(self) -> int:
        return self.structure.dim

    @property
    def reeb(self) -> ReebFrame:
        if self._reeb is None:
            self._reeb = compute_reeb(self.structure, self._config)
        return self._reeb


def hddw_rhs(sys: KContactHamiltonianSystem) -> tuple[DifferentialForm, ScalarExpr]:
    """The pair (dH - sum_a (R_a H) eta^a, -H) as symbolic objects."""
    if sys._rhs is not None:
        return sys._rhs
    chart = sys.chart
    dH = exterior_derivative(DifferentialForm.scalar(chart, sys.H))
    rhs1 = dH
    if free_variables(sys.H):
        for R, eta_a in zip(sys.reeb, sys.structure.eta.forms):
            rh = R.apply(sys.H)
            if not (isinstance(rh, Rational) and rh.value == 0):
                rhs1 = rhs1 - rh * eta_a
    sys._rhs = (rhs1, -sys.H)
    return sys._rhs


@dataclass
class HdDWPointSolution:
    """A particular solution and nullspace basis of the pointwise linear system.

    Component matrices are k x dim: row alpha holds the components of X_alpha.
    """

    point: dict
    particular: np.ndarray
    nullspace: list
    residual_norm: float
    _A: np.ndarray
    _b: np.ndarray
    _tolerance: float

    @property
    def nullspace_dim(self) -> int:
        return len(self.nullspace)

    def residual_of(self, candidate: np.ndarray) -> float:
        x = np.asarray(candidate, dtype=float).reshape(-1)
        r = self._A @ x - self._b
        return float(np.max(np.abs(r))) if r.size else 0.0


def _point_floats(point: Mapping) -> dict:
    return {k: float(v) for k, v in point.items()}


def _assemble_at(sys: KContactHamiltonianSystem, point: dict) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0..dim-1: the 1-form equation per coordinate; row dim: the pairing."""
    k, dim = sys.k, sys.dim
    A = np.zeros((dim + 1, k * dim))
    b = np.zeros(dim + 1)
    for alpha, d in enumerate(sys.structure.d_eta):
        base = alpha * dim
        for (i, l), c in d.coeffs.items():
            v = float(evaluate(c, point))
            # column index is the component slot, row is the covector slot
            A[l, base + i] += v
            A[i, base + l] -= v
    rhs1, rhs2 = hddw_rhs(sys)
    for (l,), c in rhs1.coeffs.items():
        b[l] = float(evaluate(c, point))
    for alpha, f in enumerate(sys.structure.eta.forms):
        base = alpha * dim
        for (i,), c in f.coeffs.items():
            A[dim, base + i] += float(evaluate(c, point))
    b[dim] = float(evaluate(rhs2, point))
    return A, b


def solve_hddw_at_point(
    sys: KContactHamiltonianSystem,
    point: Mapping,
    config: RunConfig = DEFAULT_CONFIG,
) -> HdDWPointSolution:
    """Least-norm particular solution plus orthonormal nullspace basis at a point."""
    p = _point_floats(point)
    if not check_structure_at(sys.structure, p, config).all_pass:
        raise StructureDegenerateAtPoint(f"defining conditions fail at {p}")
    A, b = _assemble_at(sys, p)
    x = least_norm_solution(A, b, config.rank_threshold)
    residual = float(np.max(np.abs(A @ x - b))) if b.size else 0.0
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(b))))
    tolerance = config.rank_threshold * scale
    if residual > tolerance:
        raise InconsistentSystem(
            f"no solution within tolerance at {p}: residual {residual:.3e}")
    k, dim = sys.k, sys.dim
    null_rows = nullspace_basis(A, config.rank_threshold)
    return HdDWPointSolution(
        point=p,
        particular=x.reshape(k, dim),
        nullspace=[row.reshape(k, dim) for row in null_rows],
        residual_norm=residual,
        _A=A,
        _b=b,
        _tolerance=tolerance,
    )


def pseudo_gauge_shift(sol: HdDWPointSolution, coeffs: Sequence[float]) -> HdDWPointSolution:
    """Shift the particular solution along the nullspace; the residual is preserved."""
    coeffs = list(coeffs)
    if len(coeffs) != sol.nullspace_dim:
        raise LengthMismatch(
            f"need {sol.nullspace_dim} coefficients, got {len(coeffs)}")
    shifted = sol.particular.copy()
    for c, basis in zip(coeffs, sol.nullspace):
        shifted = shifted + c * basis
    residual = sol.residual_of(shifted)
    if residual > sol._tolerance:
        raise InconsistentSystem(
            f"shifted candidate leaves the solution set: residual {residual:.3e}")
    return HdDWPointSolution(
        point=sol.point,
        particular=shifted,
        nullspace=sol.nullspace,
        residual_norm=residual,
        _A=sol._A,
        _b=sol._b,
        _tolerance=sol._tolerance,
    )


@dataclass(frozen=True)
class SectionCandidate:
    """A candidate integral section: a map from the parameter chart t^1..t^k."""

    psi: SmoothMap


@dataclass
class SectionResidualReport:
    """Symbolic residuals of both field equations along a section, with the
    sampled maximum of their absolute values."""

    eq1: list          # one residual expression per ambient coordinate
    eq2: ScalarExpr
    max_abs: float
    all_zero: bool

    def to_dict(self) -> dict:
        return {
            "eq1_residuals": [str(e) for e in self.eq1],
            "eq2_residual": str(self.eq2),
            "max_abs": self.max_abs,
            "all_zero": self.all_zero,
        }


def section_residual(
    sys: KContactHamiltonianSystem,
    candidate: SectionCandidate | SmoothMap,
    config: RunConfig = DEFAULT_CONFIG,
) -> SectionResidualReport:
    """Substitute a section and its prolongation into both field equations.

    Residual components live on the section's parameter chart; the report
    carries the symbolic residuals and their sampled maximum.
    """
    psi = candidate.psi if isinstance(candidate, SectionCandidate) else candidate
    if psi.target != sys.chart:
        raise ChartMismatch(
            f"section targets {psi.target}, system lives on {sys.chart}")
    if psi.source.dim != sys.k:
        raise SourceNotRk(
            f"section parameter chart has dimension {psi.source.dim}, need k={sys.k}")
    binds = psi.bindings()
    columns = prolongation(psi)  # columns[alpha][i] = d psi^i / d t^alpha
    k, dim = sys.k, sys.dim
    rhs1, rhs2 = hddw_rhs(sys)

    eq1 = [ZERO] * dim
    for alpha, d in enumerate(sys.structure.d_eta):
        col = columns[alpha]
        for (i, l), c in d.coeffs.items():
            cc = substitute(c, binds)
            eq1[l] = eq1[l] + cc * col[i]
            eq1[i] = eq1[i] - cc * col[l]
    for (l,), c in rhs1.coeffs.items():
        eq1[l] = eq1[l] - substitute(c, binds)

    eq2 = -substitute(rhs2, binds)
    for alpha, f in enumerate(sys.structure.eta.forms):
        col = columns[alpha]
        for (i,), c in f.coeffs.items():
            eq2 = eq2 + substitute(c, binds) * col[i]

    domain = psi.source.domain()
    max_abs = 0.0
    all_zero = True
    for e in eq1 + [eq2]:
        res = zero_test(e, domain, config)
        max_abs = max(max_abs, res.max_abs)
        all_zero = all_zero and res.is_zero
    return SectionResidualReport(eq1=eq1, eq2=eq2, max_abs=max_abs, all_zero=all_zero)


@dataclass
class Trajectory:
    """States of a k=1 flow at the fixed integration steps."""

    chart_coords: tuple
    dt: float
    states: list  # one dict per step, including the initial state

    @property
    def times(self) -> list:
        return [i * self.dt for i in range(len(self.states))]

    def column(self, name: str) -> list:
        return [s[name] for s in self.states]

    def to_csv(self, fh):
        fh.write(",".join(self.chart_coords) + "\n")
        for s in self.states:
            fh.write(",".join(f"{s[c]:.17g}" for c in self.chart_coords) + "\n")


def integrate_contact_flow(
    sys: KContactHamiltonianSystem,
    x0: Mapping,
    t_end: float,
    dt: float,
    config: RunConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """Integrate the unique k=1 Hamiltonian vector field with fixed-step RK4.

    The vector field is re-solved from the pointwise system at every stage,
    so the trajectory inherits the solver's tolerances.
    """
    if sys.k != 1:
        raise ValueError("flow integration applies to k = 1 systems only")
    if dt <= 0:
        raise ValueError("dt must be positive")
    coords = sys.chart.coords
    state = np.array([float(x0[c]) for c in coords])
    n_steps = int(round(t_end / dt))

    def f(y: np.ndarray) -> np.ndarray:
        p = dict(zip(coords, (float(v) for v in y)))
        sol = solve_hddw_at_point(sys, p, config)
        return sol.particular[0]

    states = [dict(zip(coords, state.tolist()))]
    for _ in range(n_steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(dict(zip(coords, state.tolist())))
    return Trajectory(chart_coords=coords, dt=dt, states=states)


@dataclass
class ConstrainedSolutionReport:
    """Feasibility of tangent solutions along a Legendrian, with the
    constrained nullspace dimension (the remaining pseudo-gauge freedom)."""

    h_vanishes_on_L: bool
    feasible: bool | None
    constrained_nullspace_dim: int | None
    expected_pseudo_gauge_dof: int | None
    n_points: int

    def to_dict(self) -> dict:
        return {
            "H_vanishes_on_L": self.h_vanishes_on_L,
            "feasible": self.feasible,
            "constrained_nullspace_dim": self.constrained_nullspace_dim,
            "expected_pseudo_gauge_dof": self.expected_pseudo_gauge_dof,
            "n_points": self.n_points,
        }


def check_constrained_solution(
    sys: KContactHamiltonianSystem,
    L: LegendrianParametrization | SmoothMap,
    n_points: int = 5,
    config: RunConfig = DEFAULT_CONFIG,
) -> ConstrainedSolutionReport:
    """Tangency analysis along a Legendrian parametrization.

    First the necessity test: H composed with the parametrization must vanish.
    If it does, the pointwise system is re-solved with the unknowns restricted
    to the image of the tangent map, reporting feasibility and the dimension
    k*dim L - rank of the restricted system.  The expected count comes from
    the polarized-case formula k*dim L - (n*(k+1) - dim L).
    """
    smooth = L.map if isinstance(L, LegendrianParametrization) else L
    if not verify_isotropic(smooth, sys.structure, config):
        raise NotIsotropic("parametrization image is not isotropic for this structure")
    binds = smooth.bindings()
    h_on_L = substitute(sys.H, binds)
    h_zero = zero_test(h_on_L, smooth.source.domain(), config).is_zero
    if not h_zero:
        return ConstrainedSolutionReport(
            h_vanishes_on_L=False,
            feasible=None,
            constrained_nullspace_dim=None,
            expected_pseudo_gauge_dof=None,
            n_points=0,
        )

    k, dim = sys.k, sys.dim
    dim_L = smooth.source.dim
    expected = None
    if (dim - k) % (k + 1) == 0:
        n = (dim - k) // (k + 1)
        expected = k * dim_L - (n * (k + 1) - dim_L)

    rng = random.Random(config.seed)
    params = sample_points(smooth.source.coords, smooth.source.domain(),
                           n_points, rng, config.max_sample_retries)
    jac = smooth.jacobian()
    feasible = True
    null_dims = set()
    for u in params:
        x = {name: float(evaluate(c, u)) for name, c in zip(sys.chart.coords, smooth.components)}
        A, b = _assemble_at(sys, x)
        J = np.array([[float(evaluate(jac[i][r], u)) for r in range(dim_L)]
                      for i in range(dim)])
        Ares = np.zeros((dim + 1, k * dim_L))
        for alpha in range(k):
            Ares[:, alpha * dim_L:(alpha + 1) * dim_L] = \
                A[:, alpha * dim:(alpha + 1) * dim] @ J
        y = least_norm_solution(Ares, b, config.rank_threshold)
        residual = float(np.max(np.abs(Ares @ y - b)))
        scale = max(1.0, float(np.max(np.abs(Ares))), float(np.max(np.abs(b))))
        if residual > config.rank_threshold * scale:
            feasible = False
        null_dims.add(k * dim_L - numeric_rank(Ares, config.rank_threshold))
    null_dim = max(null_dims) if null_dims else None
    return ConstrainedSolutionReport(
        h_vanishes_on_L=True,
        feasible=feasible,
        constrained_nullspace_dim=null_dim,
        expected_pseudo_gauge_dof=expected,
        n_points=len(params),
    )
