"""k-contact Hamiltonian systems and their field equations.

The two defining equations (the contraction of a k-vector field with the
structure differentials against dH minus its Reeb transport, and the duality
pairing against -H) are pointwise linear in the k*dim unknown components.
This module assembles and solves them numerically at chart points, evaluates
the induced PDE residuals for candidate sections, and integrates k=1 flows
with a classic 4th-order one-step method.

The pointwise solve (solve_hddw_at_point) reads A as verify_kcontact does,
from kcontact.structure_matrices_at, and b from one runner over hddw_rhs,
kept on the system (_system_at).  The nullspace means something only where
the three defining conditions hold, so every point is checked for them by
verify_kcontact's reader check_structure_at(A), for every k, before b is
evaluated; an undefined or non-finite A or b raises DomainError naming it.
One thin SVD of A (of A^T where A is wide, every k >= 2) gives the
least-norm particular solution and the rank, a residual test accepts the
solution, and the nullspace basis is built when read.

A k = 1 flow integrates the contact Hamiltonian vector field, the unique
solution X of the field equations, solved once per system over the
expression field (_k1_field: linalg.solve_symbolic on the rows of
matrix_entries, which returns X only once A X - b passes the zero test).
One runner, kept on the system, evaluates X, Omega (the top-form
coefficient of eta ^ (d eta)^n) and the squared norms of (d eta)^n, eta
and d eta.  A stage takes X from the field only where _full_rank proves,
from those values, that A has full rank, so that the pointwise solve would
find the structure contact and X unique; every other stage, and every
stage of a field that is not proven, takes the pointwise solve and what it
raises, so every degenerate point is left to its structure check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ChartMismatch,
    DomainError,
    InconsistentSystem,
    NotIsotropic,
    SampleDomainEmpty,
    SingularSystem,
    SourceNotRk,
    StructureDegenerateAtPoint,
    ZeroTestInconclusive,
)
from .expr import ZERO, Rational, ScalarExpr, as_expr, free_variables, substitute
from .forms import (DifferentialForm, KVectorField, SmoothMap, exterior_derivative,
                    prolongation, wedge)
from .kcontact import (
    KContactStructure,
    check_structure_at,
    compute_reeb,
    matrix_entries,
    structure_matrices_at,
)
from .legendrian import verify_isotropic
from .linalg import RANK_THRESHOLD, least_norm_solution, nullspace_basis, solve_symbolic
from .runner import float_runner
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, sample_points, zero_check

__all__ = [
    "KContactHamiltonianSystem", "HdDWPointSolution", "Trajectory",
    "hddw_rhs", "solve_hddw_at_point", "section_residual", "flow_steps",
    "integrate_contact_flow", "check_constrained_solution", "expected_nullspace_dim",
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
        self._rhs: tuple[ScalarExpr, ...] | None = None
        self._rhs_at = None  # _system_at's runner over hddw_rhs, built on first use
        # _k1_field's (runner, n), built on first use; False where not proven
        self._field = None

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


def hddw_rhs(sys: KContactHamiltonianSystem) -> tuple[ScalarExpr, ...]:
    """b of the field equations A X = b, as dim + 1 expressions: the
    coefficients of dH - sum_a (R_a H) eta^a, then -H."""
    if sys._rhs is None:
        rhs1 = exterior_derivative(DifferentialForm.scalar(sys.chart, sys.H))
        if free_variables(sys.H):
            for R, eta_a in zip(sys.reeb, sys.structure.eta):
                rh = R.apply(sys.H)
                if not (isinstance(rh, Rational) and rh.value == 0):
                    rhs1 = rhs1 - rh * eta_a
        sys._rhs = (*(rhs1.coeffs.get((l,), ZERO) for l in range(sys.dim)), -sys.H)
    return sys._rhs


@dataclass
class HdDWPointSolution:
    """A particular solution and the nullspace dimension of the pointwise system.

    Component matrices are k x dim: row alpha holds the components of X_alpha.
    """

    particular: np.ndarray
    nullspace_dim: int
    residual_norm: float
    _A: np.ndarray

    @property
    def nullspace(self) -> list:
        """Orthonormal basis of ker A: the last nullspace_dim rows of the full V^T."""
        rows = nullspace_basis(self._A, self._A.shape[1] - self.nullspace_dim)
        return [row.reshape(self.particular.shape) for row in rows]


def _system_at(sys: KContactHamiltonianSystem, point: dict) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise system (A, b) at a float point.

    A is the HdDW matrix from the structure's runner (structure_matrices_at):
    rows 0..dim-1 the 1-form equation per coordinate, row dim the pairing.
    Raises StructureDegenerateAtPoint where check_structure_at(A) finds the
    structure not k-contact, before b is evaluated, so that a b with a pole
    on a degenerate hypersurface still reports the failed conditions.  b
    holds the hddw_rhs values, from one runner built on first use and kept
    on the system.  Raises DomainError naming the point where A
    (structure_matrices_at) or b is undefined or not finite.
    """
    A = structure_matrices_at(sys.structure, point)
    if check_structure_at(A) != (sys.k, sys.k, 0):
        raise StructureDegenerateAtPoint(point)
    if sys._rhs_at is None:
        sys._rhs_at = float_runner(hddw_rhs(sys))
    try:
        b = np.array(sys._rhs_at(point))
        if np.isfinite(b).all():
            return A, b
    except DomainError:
        pass
    raise DomainError(f"non-finite pointwise system at {point}")


def _residual(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """max|Ax - b| and the tolerance it must not exceed for x to solve the
    system: RANK_THRESHOLD * max(1, max|A|, max|b|)."""
    top = np.maximum.reduce
    scale = max(1.0, float(top(np.abs(A), axis=None)), float(top(np.abs(b))))
    return float(top(np.abs(A @ x - b))), RANK_THRESHOLD * scale


def solve_hddw_at_point(sys: KContactHamiltonianSystem, point: Mapping) -> HdDWPointSolution:
    """Least-norm particular solution and nullspace dimension at a point
    where _system_at finds the structure k-contact: x and the rank from one
    thin SVD of A (linalg.least_norm_solution); raises InconsistentSystem
    where x leaves a residual above the tolerance."""
    p = {name: float(v) for name, v in point.items()}
    A, b = _system_at(sys, p)
    x, rank = least_norm_solution(A, b)
    k, dim = sys.k, sys.dim
    residual, tolerance = _residual(A, x, b)
    if not residual <= tolerance:
        raise InconsistentSystem(
            f"no solution within tolerance at {p}: residual {residual:.3e}")
    return HdDWPointSolution(particular=x.reshape(k, dim), nullspace_dim=k * dim - rank,
                             residual_norm=residual, _A=A)


def section_residual(
    sys: KContactHamiltonianSystem,
    psi: SmoothMap,
) -> tuple[list, ScalarExpr]:
    """Substitute a section and its prolongation into both field equations.

    Returns the symbolic residuals (eq1, eq2): eq1 holds one expression per
    ambient coordinate, eq2 the pairing equation.  Both live on the section's
    parameter chart; zero_check over that chart gives the verdict.
    """
    if psi.target != sys.chart:
        raise ChartMismatch(
            f"section targets {psi.target}, system lives on {sys.chart}")
    if psi.source.dim != sys.k:
        raise SourceNotRk(
            f"section parameter chart has dimension {psi.source.dim}, need k={sys.k}")
    # X[alpha*dim + i] = d psi^i / d t^alpha, the unknowns in A's column order
    X = [c for column in prolongation(psi) for c in column]
    # A X - b with the section substituted into A and b (matrix_entries,
    # hddw_rhs): -b leads the pairing row and closes each 1-form row, the
    # term order that fixes the trees and so their float values; a zero
    # entry of b subtracts nothing and costs no substitution
    binds, dim, b = psi.bindings(), sys.dim, hddw_rhs(sys)
    eq = [ZERO] * dim + [-substitute(b[dim], binds)]
    for r, col, e in matrix_entries(sys.structure):
        eq[r] = eq[r] + substitute(e, binds) * X[col]
    return [e if c == ZERO else e - substitute(c, binds) for e, c in zip(eq[:dim], b)], eq[dim]


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


def _k1_field(sys: KContactHamiltonianSystem) -> tuple | None:
    """(run, n) for a k = 1 system of dim = 2n + 1, or None where its field
    is not proven; built on first use and kept on the system.  run maps a
    point to X_0, .., X_{dim-1} and the four values that _full_rank reads:
    Omega, the top-form coefficient of eta ^ (d eta)^n, which is nonzero
    exactly where the defining conditions hold, and the sums of the squared
    coefficients of (d eta)^n, eta and d eta.

    X is the unique solution of the dim + 1 field equations A X = b in dim
    unknowns (the rows of matrix_entries, b from hddw_rhs), solved over the
    expression field.  The field counts as proven where solve_symbolic
    returns it, which it does only once A X - b has passed the zero test
    row by row; a solve that raises SingularSystem (a structure degenerate
    everywhere, such as eta = ds), ZeroTestInconclusive or SampleDomainEmpty
    proves nothing, and every stage then takes the pointwise solve, which
    keeps its verdicts.
    """
    if sys._field is not None:
        return sys._field or None
    dim, s = sys.dim, sys.structure
    rows = [{} for _ in range(dim + 1)]
    for r, col, e in matrix_entries(s):
        rows[r][col] = e
    try:
        sol = solve_symbolic(rows, [{0: c} for c in hddw_rhs(sys)], dim, sys.chart, sys._config)
    except (SingularSystem, ZeroTestInconclusive, SampleDomainEmpty):
        sys._field = False
        return None
    X = [x.get(0, ZERO) for x in sol]
    eta, d_eta, n = s.eta[0], s.d_eta[0], dim // 2
    power = DifferentialForm.scalar(sys.chart, 1)
    for _ in range(n):
        power = wedge(power, d_eta)
    omega = wedge(eta, power).coeffs.get(tuple(range(dim)), ZERO)
    squares = [sum((c * c for c in f.coeffs.values()), ZERO) for f in (power, eta, d_eta)]
    sys._field = (float_runner([*X, omega, *squares]), n)
    return sys._field


def _full_rank(n: int, omega: float, power_sq: float, eta_sq: float, d_eta_sq: float) -> bool:
    """Whether the k = 1 HdDW matrix A = [D^T; eta] (D the d-eta matrix) must
    have numeric rank dim = 2n + 1, from _k1_field's values: a lower bound on
    A's smallest singular value exceeds 2 * RANK_THRESHOLD * |A|_F, at least
    twice the rank threshold.  False, never an error, where a value is not
    finite, d eta = 0 (dim = 1) or mu c = 0.

    Numeric rank dim makes check_structure_at(A) (1, 1, 0), so the pointwise
    solve finds the structure contact and X unique.  [eta; D] is A up to row
    order and sign, so it has rank dim: the intersection dimension is 0.  A
    is D^T with one row added, so singular-value interlacing (R. C. Thompson,
    "Principal submatrices IX", Linear Algebra Appl. 5, 1972) gives
    s_{dim-1}(D) >= s_dim(A) and s_1(D) <= s_1(A): D's numeric rank is at
    least dim - 1, and an antisymmetric matrix of odd size is singular, so it
    is dim - 1.  eta is not zero, else A's rank would be D's.

    The nonzero singular values of the antisymmetric D pair up as
    d_1 >= .. >= d_n, and its kernel is spanned by v, the vector of
    (d eta)^n / n!, with |v| = d_1 .. d_n and |Omega| = n! |eta . v|.  A
    unit x split along v and v's complement gives s_min(A) >= mu c /
    |(mu, c, |eta|)| with mu = d_n and c = |eta . v| / |v| = |Omega| /
    |(d eta)^n|.  The bound grows with mu, so it stays a lower bound with
    mu >= |v| / d_1^(n-1) and d_1 <= |(the coefficients of d eta)|.
    """
    power, d_1 = math.sqrt(power_sq), math.sqrt(d_eta_sq)
    d_rest = math.prod([d_1] * (n - 1))  # d_1^(n-1) with no ** overflow
    if not (power > 0 and d_1 > 0 and d_rest > 0):
        return False
    mu, c = power / math.factorial(n) / d_rest, abs(omega) / power
    if not mu * c > 0:  # else the bound below is 0 or 0/0
        return False
    bound = mu * c / math.hypot(mu, c, math.sqrt(eta_sq))
    return bound > 2 * RANK_THRESHOLD * math.sqrt(2 * d_eta_sq + eta_sq)


def _field_at(field: tuple, point: dict) -> np.ndarray | None:
    """X at a float point from _k1_field's runner, or None where the stage
    takes the pointwise solve: the runner raises DomainError there, a value
    is not finite, or _full_rank cannot show that A has full rank."""
    run, n = field
    try:
        *x, omega, power_sq, eta_sq, d_eta_sq = run(point)
    except DomainError:
        return None
    if all(map(math.isfinite, x)) and _full_rank(n, omega, power_sq, eta_sq, d_eta_sq):
        return np.array(x)
    return None


def integrate_contact_flow(
    sys: KContactHamiltonianSystem,
    x0: Mapping,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the unique k=1 Hamiltonian vector field with fixed-step RK4.

    Each stage evaluates the symbolic field (_k1_field) in one runner call.
    A stage where _field_at cannot vouch for X, and every stage where the
    field is not proven, is re-solved by solve_hddw_at_point, which raises
    StructureDegenerateAtPoint, DomainError or InconsistentSystem there.
    """
    if sys.k != 1:
        raise ValueError("flow integration applies to k = 1 systems only")
    n_steps = flow_steps(t_end, dt)
    coords = sys.chart.coords
    state = np.array([float(x0[c]) for c in coords])
    field = _k1_field(sys)

    def f(y: np.ndarray) -> np.ndarray:
        point = dict(zip(coords, y.tolist()))
        x = None if field is None else _field_at(field, point)
        return solve_hddw_at_point(sys, point).particular[0] if x is None else x

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
    h_on_L = zero_check("H_on_L", [substitute(sys.H, binds)], L.source, config).verdict
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
    params = sample_points(L.source.coords, L.source, n_points, rng)
    jac = L.jacobian()
    # the image point, then the tangent map J (dim x dim_L) row by row
    image_at = float_runner(list(L.components) + [c for row in jac for c in row])
    feasible = True
    null_dims = set()
    for u in params:
        values = image_at(u)
        x = dict(zip(sys.chart.coords, values[:dim]))
        A, b = _system_at(sys, x)
        J = np.array(values[dim:]).reshape(dim, dim_L)
        Ares = np.hstack([A[:, alpha * dim:(alpha + 1) * dim] @ J for alpha in range(k)])
        y, rank = least_norm_solution(Ares, b)
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
