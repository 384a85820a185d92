"""k-contact Hamiltonian systems and their field equations.

The two defining equations (the contraction of a k-vector field with the
structure differentials against dH minus its Reeb transport, and the duality
pairing against -H) are pointwise linear in the k*dim unknown components.
This module assembles and solves them numerically at chart points, evaluates
the induced PDE residuals for candidate sections, and integrates k=1 flows
with a classic 4th-order one-step method.  At each point one generated
runner (runner.filler over kcontact.matrix_entries and the right-hand-side
coefficients), built on first use and kept on the system, fills one buffer
holding the system [A | b] (_system_at).  One solve core (_solve_at) serves
both solve_hddw_at_point and every RK4 stage: one SVD of A gives the
least-norm particular solution, the rank and the nullspace, the
pseudo-gauge directions, and a residual test accepts the solution.  The
nullspace means something only where the three defining conditions hold, so
every point is checked for them: for k >= 2 by check_structure_at on views
of the same buffer, before the solve; for k = 1 by k1_conditions_hold on the
rank that the solve's SVD returns.  A point whose system has a non-finite
entry is refused before any SVD.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ChartMismatch,
    DomainError,
    InconsistentSystem,
    LengthMismatch,
    NotIsotropic,
    SourceNotRk,
    StructureDegenerateAtPoint,
)
from .expr import ZERO, Rational, ScalarExpr, as_expr, free_variables, substitute
from .forms import DifferentialForm, KVectorField, SmoothMap, exterior_derivative, prolongation
from .kcontact import (
    KContactStructure,
    check_structure_at,
    compute_reeb,
    k1_conditions_hold,
    matrix_entries,
)
from .legendrian import verify_isotropic
from .linalg import RANK_THRESHOLD, least_norm_solution, numeric_rank
from .runner import filler, float_runner
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, sample_points, zero_check

__all__ = [
    "KContactHamiltonianSystem", "HdDWPointSolution", "Trajectory",
    "hddw_rhs", "solve_hddw_at_point", "pseudo_gauge_shift",
    "section_residual", "flow_steps", "integrate_contact_flow", "check_constrained_solution",
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
        reeb: KVectorField | None = None,
        config: RunConfig = DEFAULT_CONFIG,
    ):
        self.structure = structure
        self.H = as_expr(H)
        self._reeb = reeb
        self._config = config
        self._rhs: tuple[DifferentialForm, ScalarExpr] | None = None
        self._system_fill = None  # _system_at's filler, built on first use

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
    def reeb(self) -> KVectorField:
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
        return _residual(self._A, x, self._b)[0]


def _require_structure(holds: bool, point: dict):
    if not holds:
        raise StructureDegenerateAtPoint(point)


def _system_at(sys: KContactHamiltonianSystem, point: dict) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise system (A, b) at a float point.

    A is the HdDW matrix laid out by matrix_entries, with -0.0 turned into
    0.0: rows 0..dim-1 the 1-form equation per coordinate, row dim the
    pairing.  b holds the hddw_rhs coefficients as they are.  One runner,
    built on first use and kept on the system, fills one buffer with A
    row-major and then b, so that both are contiguous views of it; one
    finiteness test covers both.  Raises DomainError where A or b has a
    non-finite entry, and for k >= 2 StructureDegenerateAtPoint where
    check_structure_at(A) finds the structure not k-contact; for k = 1 the
    caller reads that off the rank of A (k1_conditions_hold).
    """
    k, dim = sys.k, sys.dim
    n = k * dim
    if sys._system_fill is None:
        rhs1, rhs2 = hddw_rhs(sys)
        entries = [(r * n + col, sign, 0.0, c)
                   for r, col, sign, c in matrix_entries(sys.structure)]
        entries += [((dim + 1) * n + l, 1.0, -0.0, c)
                    for (l,), c in [*rhs1.coeffs.items(), ((dim,), rhs2)]]
        sys._system_fill = filler((dim + 1) * (n + 1), entries)
    buf = sys._system_fill(point)
    if not np.isfinite(buf).all():
        raise DomainError(f"non-finite pointwise system at {point}")
    A, b = buf[:(dim + 1) * n].reshape(dim + 1, n), buf[(dim + 1) * n:]
    if k > 1:
        _require_structure(check_structure_at(A) == (k, k, 0), point)
    return A, b


def _residual(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """max|Ax - b| and the tolerance it must not exceed for x to solve the
    system: RANK_THRESHOLD * max(1, max|A|, max|b|)."""
    top = np.maximum.reduce
    scale = max(1.0, float(top(np.abs(A), axis=None)), float(top(np.abs(b))))
    return float(top(np.abs(A @ x - b))), RANK_THRESHOLD * scale


def _solve_at(sys: KContactHamiltonianSystem, point: dict) -> tuple:
    """(A, b, x, nullspace rows, residual, tolerance) at a float point: the
    least-norm solution x, its rank and the nullspace from one SVD of A
    (linalg.least_norm_solution), whose rank also decides the defining
    conditions when k = 1; raises InconsistentSystem where x leaves a
    residual above the tolerance."""
    A, b = _system_at(sys, point)
    x, rank, null_rows = least_norm_solution(A, b)
    if sys.k == 1:
        _require_structure(k1_conditions_hold(sys.dim, rank), point)
    residual, tolerance = _residual(A, x, b)
    if not residual <= tolerance:
        raise InconsistentSystem(
            f"no solution within tolerance at {point}: residual {residual:.3e}")
    return A, b, x, null_rows, residual, tolerance


def solve_hddw_at_point(sys: KContactHamiltonianSystem, point: Mapping) -> HdDWPointSolution:
    """Least-norm particular solution plus orthonormal nullspace basis at a
    point, from the solve core (_solve_at)."""
    p = {name: float(v) for name, v in point.items()}
    A, b, x, null_rows, residual, tolerance = _solve_at(sys, p)
    k, dim = sys.k, sys.dim
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
    if not residual <= sol._tolerance:
        raise InconsistentSystem(
            f"shifted candidate leaves the solution set: residual {residual:.3e}")
    return replace(sol, particular=shifted, residual_norm=residual)


def section_residual(
    sys: KContactHamiltonianSystem,
    psi: SmoothMap,
) -> tuple[list, ScalarExpr]:
    """Substitute a section and its prolongation into both field equations.

    Returns the symbolic residuals (eq1, eq2): eq1 holds one expression per
    ambient coordinate, eq2 the pairing equation.  Both live on the section's
    parameter chart; zero_check over that chart's domain gives the verdict.
    """
    if psi.target != sys.chart:
        raise ChartMismatch(
            f"section targets {psi.target}, system lives on {sys.chart}")
    if psi.source.dim != sys.k:
        raise SourceNotRk(
            f"section parameter chart has dimension {psi.source.dim}, need k={sys.k}")
    binds = psi.bindings()
    # X[alpha*dim + i] = d psi^i / d t^alpha, the unknowns in A's column order
    X = [c for column in prolongation(psi) for c in column]
    dim = sys.dim
    rhs1, rhs2 = hddw_rhs(sys)
    # A X - b; -b leads the pairing row and closes each 1-form row: that term
    # order fixes the trees, and so the residuals' float values
    eq = [ZERO] * dim + [-substitute(rhs2, binds)]
    for r, col, sign, c in matrix_entries(sys.structure):
        term = substitute(c, binds) * X[col]
        eq[r] = eq[r] + term if sign > 0 else eq[r] - term
    for (l,), c in rhs1.coeffs.items():
        eq[l] = eq[l] - substitute(c, binds)
    return eq[:dim], eq[dim]


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


def flow_steps(t_end: float, dt: float) -> int:
    """The RK4 step count round(t_end / dt); ValueError unless dt > 0 and it is finite, >= 1."""
    if not dt > 0:  # NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
    steps = t_end / dt
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ValueError(f"t_end / dt = {t_end} / {dt} must round to a finite step count >= 1")
    return round(steps)


def integrate_contact_flow(
    sys: KContactHamiltonianSystem,
    x0: Mapping,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the unique k=1 Hamiltonian vector field with fixed-step RK4.

    The vector field is re-solved from the pointwise system at every stage
    by the solve core that solve_hddw_at_point wraps (_solve_at), so the
    trajectory inherits the solver's tolerances.
    """
    if sys.k != 1:
        raise ValueError("flow integration applies to k = 1 systems only")
    n_steps = flow_steps(t_end, dt)
    coords = sys.chart.coords
    state = np.array([float(x0[c]) for c in coords])

    def f(y: np.ndarray) -> np.ndarray:
        return _solve_at(sys, dict(zip(coords, y.tolist())))[2]

    states = [dict(zip(coords, state.tolist()))]
    for _ in range(n_steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(dict(zip(coords, state.tolist())))
    return Trajectory(chart_coords=coords, dt=dt, states=states)


def check_constrained_solution(
    sys: KContactHamiltonianSystem,
    L: SmoothMap,
    n_points: int = 5,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """Tangency analysis along a Legendrian parametrization.

    First the necessity test: H composed with the parametrization must vanish.
    If it does, the pointwise system is re-solved with the unknowns restricted
    to the image of the tangent map, reporting feasibility and the dimension
    k*dim L - rank of the restricted system.  The expected count comes from
    the polarized-case formula k*dim L - (n*(k+1) - dim L).  The check passes
    when H vanishes on L and the restricted system is feasible at every
    sampled point.  It is inconclusive when the isotropy of L or the vanishing
    of H on L is.
    """
    isotropy = verify_isotropic(L, sys.structure, config).verdict
    if isotropy == FAIL:
        raise NotIsotropic("parametrization image is not isotropic for this structure")
    binds = L.bindings()
    h_on_L = zero_check("H_on_L", [substitute(sys.H, binds)], L.source.domain(),
                        config).verdict
    verdict = INCONCLUSIVE if INCONCLUSIVE in (isotropy, h_on_L) else h_on_L
    if verdict != PASS:
        return Check("constrained_solution", verdict, detail={
            "H_vanishes_on_L": None if h_on_L == INCONCLUSIVE else h_on_L == PASS,
            "feasible": None,
            "constrained_nullspace_dim": None,
            "expected_pseudo_gauge_dof": None,
            "n_points": 0,
        })

    k, dim = sys.k, sys.dim
    dim_L = L.source.dim
    expected = None
    if (dim - k) % (k + 1) == 0:
        n = (dim - k) // (k + 1)
        expected = k * dim_L - (n * (k + 1) - dim_L)

    rng = random.Random(config.seed)
    params = sample_points(L.source.coords, L.source.domain(), n_points, rng)
    jac = L.jacobian()
    # the image point, then the tangent map J (dim x dim_L) row by row
    image_at = float_runner(list(L.components) + [c for row in jac for c in row])
    feasible = True
    null_dims = set()
    for u in params:
        values = image_at(u)
        x = dict(zip(sys.chart.coords, values[:dim]))
        A, b = _system_at(sys, x)
        if k == 1:
            _require_structure(k1_conditions_hold(dim, numeric_rank(A)), x)
        J = np.array(values[dim:]).reshape(dim, dim_L)
        Ares = np.hstack([A[:, alpha * dim:(alpha + 1) * dim] @ J for alpha in range(k)])
        y, rank, _ = least_norm_solution(Ares, b)
        residual, tolerance = _residual(Ares, y, b)
        if not residual <= tolerance:
            feasible = False
        null_dims.add(k * dim_L - rank)
    return Check("constrained_solution", PASS if feasible else FAIL, detail={
        "H_vanishes_on_L": True,
        "feasible": feasible,
        "constrained_nullspace_dim": max(null_dims) if null_dims else None,
        "expected_pseudo_gauge_dof": expected,
        "n_points": len(params),
    })
