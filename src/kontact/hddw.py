"""k-contact Hamiltonian systems and their field equations.

The two defining equations (the contraction of a k-vector field with the
structure differentials against dH minus its Reeb transport, and the duality
pairing against -H) are pointwise linear in the k*dim unknown components.
This module assembles and solves them numerically at chart points, evaluates
the induced PDE residuals for candidate sections, and integrates k=1 flows
with a classic 4th-order one-step method.

Everything a KContactHamiltonianSystem builds from its structure, H and
run config is a cached property: reeb, rhs (b), rhs_at and k1_field.

The pointwise solve (solve_hddw_at_point) reads A as verify_kcontact does,
from kcontact.structure_matrices_at, and b from the system's runner
rhs_at (_system_at), at a given point or one of a draw that
(variables, chart, n, seed) fixes (zerotest.sample_points).  The nullspace
means something only where the three defining conditions hold, so every
point is checked for them by verify_kcontact's reader check_structure_at(A),
for every k, before b is evaluated; a runner's DomainError names the point.
One thin SVD of A (of A^T where A is wide, every k >= 2) gives the
least-norm particular solution and the rank; where b = 0 (every system with
H = 0) the solution is 0 and the SVD takes singular values only.  A
residual test accepts the solution, and the nullspace basis is built when
read.

A k = 1 flow integrates the contact Hamiltonian vector field, the unique
solution X of the field equations, solved once per system over the
expression field (k1_field: linalg.solve_symbolic on the rows of
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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ChartMismatch,
    DomainError,
    InconsistentSystem,
    SampleDomainEmpty,
    SingularSystem,
    SourceNotRk,
    StructureDegenerateAtPoint,
    ZeroTestInconclusive,
)
from .expr import ZERO, Rational, ScalarExpr, as_expr, evaluate, free_variables, substitute
from .forms import (DifferentialForm, KVectorField, SmoothMap, exterior_derivative,
                    prolongation, wedge)
from .kcontact import (
    KContactStructure,
    _point_text,
    check_structure_at,
    compute_reeb,
    matrix_entries,
    structure_matrices_at,
)
from .legendrian import verify_isotropic
from .linalg import RANK_THRESHOLD, least_norm_solution, nullspace_basis, solve_symbolic
from .runner import _finite, float_runner
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, combine, sample_points, zero_check

__all__ = [
    "KContactHamiltonianSystem", "HdDWPointSolution", "Trajectory",
    "solve_hddw_at_point", "section_residual", "flow_steps",
    "integrate_contact_flow", "check_constrained_solution", "expected_nullspace_dim",
]


def expected_nullspace_dim(k: int, dim: int) -> int:
    """(k-1)*m + k^2 - 1 with m = dim - k: the pointwise solution freedom."""
    m = dim - k
    return (k - 1) * m + k * k - 1


class KContactHamiltonianSystem:
    """A verified k-contact structure together with a Hamiltonian function;
    a frame given as reeb fills the cached property reeb."""

    def __init__(
        self,
        structure: KContactStructure,
        H: ScalarExpr | int | str,
        reeb: KVectorField | None = None,
        config: RunConfig = DEFAULT_CONFIG,
    ):
        self.structure = structure
        self.H = as_expr(H)
        self.config = config
        if reeb is not None:
            self.reeb = reeb

    @cached_property
    def reeb(self) -> KVectorField:
        """The Reeb frame R_1..R_k (compute_reeb)."""
        return compute_reeb(self.structure, self.config)

    @cached_property
    def rhs(self) -> tuple[ScalarExpr, ...]:
        """b of the field equations A X = b, as dim + 1 expressions: the
        coefficients of dH - sum_a (R_a H) eta^a, then -H."""
        s, H = self.structure, self.H
        rhs1 = exterior_derivative(DifferentialForm.scalar(s.chart, H))
        if free_variables(H):
            for R, eta_a in zip(self.reeb, s.eta):
                rh = R.apply(H)
                if not (isinstance(rh, Rational) and rh.value == 0):
                    rhs1 = rhs1 - rh * eta_a
        return (*(rhs1.coeffs.get((l,), ZERO) for l in range(s.dim)), -H)

    @cached_property
    def rhs_at(self) -> Callable[[Mapping], tuple]:
        """The runner over rhs."""
        return float_runner(self.rhs)

    @cached_property
    def k1_field(self) -> Callable[[dict], list | None] | None:
        """For a k = 1 system of dim = 2n + 1, a function from a float point
        to X_0, .., X_{dim-1}, or to None where the stage takes the pointwise
        solve: one runner over X and the four values that _full_rank reads
        raises DomainError there, or _full_rank cannot show that A has full
        rank.  The four are Omega, the top-form coefficient of
        eta ^ (d eta)^n, nonzero exactly where the defining conditions hold,
        and the sums of the squared coefficients of (d eta)^n, eta and d eta.

        X solves the dim + 1 field equations A X = b (the rows of
        matrix_entries, b from rhs) over the expression field.  The property
        is None where solve_symbolic does not return X, which it does only
        once A X - b has passed the zero test row by row: a solve that raises
        SingularSystem (a structure degenerate everywhere, such as eta = ds),
        ZeroTestInconclusive or SampleDomainEmpty proves nothing, and every
        stage takes the pointwise solve, which keeps its verdicts.
        """
        s = self.structure
        dim = s.dim
        rows = [{} for _ in range(dim + 1)]
        for r, col, e in matrix_entries(s):
            rows[r][col] = e
        try:
            sol = solve_symbolic(rows, [{0: c} for c in self.rhs], dim, s.chart, self.config)
        except (SingularSystem, ZeroTestInconclusive, SampleDomainEmpty):
            return None
        X = [x.get(0, ZERO) for x in sol]
        eta, d_eta, n = s.eta[0], s.d_eta[0], dim // 2
        power = DifferentialForm.scalar(s.chart, 1)
        for _ in range(n):
            power = wedge(power, d_eta)
        omega = wedge(eta, power).coeffs.get(tuple(range(dim)), ZERO)
        squares = [sum((c * c for c in f.coeffs.values()), ZERO) for f in (power, eta, d_eta)]
        run = float_runner([*X, omega, *squares])

        def field_at(point: dict) -> list | None:
            try:
                *x, omega, power_sq, eta_sq, d_eta_sq = run(point)
            except DomainError:
                return None
            return x if _full_rank(n, omega, power_sq, eta_sq, d_eta_sq) else None

        return field_at


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
    holds the rhs values, from the system's rhs_at.  Raises DomainError
    naming the point where A (structure_matrices_at) or b is undefined or
    not finite.
    """
    s = sys.structure
    A = structure_matrices_at(s, point)
    if check_structure_at(A) != (s.k, s.k, 0):
        raise StructureDegenerateAtPoint(point)
    try:
        return A, np.array(sys.rhs_at(point))
    except DomainError:
        raise DomainError(f"non-finite pointwise system at {point}") from None


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
    k, dim = sys.structure.k, sys.structure.dim
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
    s = sys.structure
    if psi.target != s.chart:
        raise ChartMismatch(
            f"section targets {psi.target}, system lives on {s.chart}")
    if psi.source.dim != s.k:
        raise SourceNotRk(
            f"section parameter chart has dimension {psi.source.dim}, need k={s.k}")
    # X[alpha*dim + i] = d psi^i / d t^alpha, the unknowns in A's column order
    X = [c for column in prolongation(psi) for c in column]
    # A X - b with the section substituted into A and b (matrix_entries,
    # rhs): -b leads the pairing row and closes each 1-form row, the term
    # order that fixes the trees and so their float values; a zero entry of
    # b subtracts nothing and costs no substitution
    binds, dim, b = psi.bindings(), s.dim, sys.rhs
    eq = [ZERO] * dim + [-substitute(b[dim], binds)]
    for r, col, e in matrix_entries(s):
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
        """A header of the coordinate names, then one row per state, each
        value written with %.17g, enough digits to read it back exactly."""
        coords = self.chart_coords
        fh.write(",".join(coords) + "\n")
        row = ",".join(["%.17g"] * len(coords)) + "\n"
        for s in self.states:
            fh.write(row % tuple([s[c] for c in coords]))


def flow_steps(t_end: float, dt: float) -> int:
    """The RK4 step count round(t_end / dt); ValueError unless dt > 0 and it is finite, >= 1."""
    if not dt > 0:  # NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
    steps = t_end / dt
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ValueError(f"t_end / dt = {t_end} / {dt} must round to a finite step count >= 1")
    return round(steps)


def _full_rank(n: int, omega: float, power_sq: float, eta_sq: float, d_eta_sq: float) -> bool:
    """Whether the k = 1 HdDW matrix A = [D^T; eta] (D the d-eta matrix) must
    have numeric rank dim = 2n + 1, from k1_field's values: a lower bound on
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


def integrate_contact_flow(
    sys: KContactHamiltonianSystem,
    x0: Mapping,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the unique k=1 Hamiltonian vector field with fixed-step RK4.

    Each stage evaluates the symbolic field (k1_field) in one runner call.
    A stage where the field cannot vouch for X, and every stage where the
    field is not proven, is re-solved by solve_hddw_at_point, which raises
    StructureDegenerateAtPoint, DomainError or InconsistentSystem there.

    The state and the stage slopes are lists of Python floats, combined
    coordinate by coordinate in the IEEE operations, and their order, of the
    array form y + (dt/2) k1, y + dt k3 and y + (dt/6)(k1 + 2 k2 + 2 k3 + k4),
    so each state is the array form's bit for bit; an overflow gives inf
    with no numpy warning.
    """
    if sys.structure.k != 1:
        raise ValueError("flow integration applies to k = 1 systems only")
    n_steps = flow_steps(t_end, dt)
    coords = sys.structure.chart.coords
    state = [float(x0[c]) for c in coords]
    field = sys.k1_field

    def f(y: list) -> list:
        point = dict(zip(coords, y))
        x = None if field is None else field(point)
        return solve_hddw_at_point(sys, point).particular[0].tolist() if x is None else x

    half, sixth = 0.5 * dt, dt / 6.0
    states = [dict(zip(coords, state))]
    for _ in range(n_steps):
        k1 = f(state)
        k2 = f([y + half * a for y, a in zip(state, k1)])
        k3 = f([y + half * a for y, a in zip(state, k2)])
        k4 = f([y + dt * a for y, a in zip(state, k3)])
        state = [y + sixth * (a + 2 * b + 2 * c + d)
                 for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
        states.append(dict(zip(coords, state)))
    return Trajectory(chart_coords=coords, dt=dt, states=states)


def check_constrained_solution(
    sys: KContactHamiltonianSystem,
    L: SmoothMap,
    n_points: int = 5,
) -> Check:
    """Tangency analysis along a Legendrian parametrization, under sys.config.

    First the necessity tests: L must be isotropic (verify_isotropic) and H
    composed with it must vanish; their combined verdict, unless it passes,
    is the check's.  Then the pointwise system is re-solved with the
    unknowns restricted to the image of the tangent map, reporting
    feasibility and the dimension k*dim L - rank of the restricted system.
    The expected count comes from the polarized-case formula
    k*dim L - (n*(k+1) - dim L).  The check passes when the restricted
    system is feasible at every sampled point.  L's image and tangent map
    are read exactly at the drawn rational parameter points, then as floats,
    so no cancellation in them reaches the rank; n_points < 1 raises
    SampleDomainEmpty, and a point where one of them is undefined or beyond
    float range, DomainError naming it.
    """
    s, config = sys.structure, sys.config
    isotropy = verify_isotropic(L, s, config).verdict
    h_on_L = zero_check("H_on_L", [substitute(sys.H, L.bindings())], L.source, config).verdict
    verdict = combine([isotropy, h_on_L])
    if verdict != PASS:
        return Check("constrained_solution", verdict, detail={
            "isotropy": isotropy,
            "H_vanishes_on_L": None if h_on_L == INCONCLUSIVE else h_on_L == PASS,
            "feasible": None,
            "constrained_nullspace_dim": None,
            "expected_pseudo_gauge_dof": None,
            "n_points": 0,
        })

    k, dim = s.k, s.dim
    dim_L = L.source.dim
    expected = None
    if (dim - k) % (k + 1) == 0:
        n = (dim - k) // (k + 1)
        expected = k * dim_L - (n * (k + 1) - dim_L)

    params = sample_points(L.source.coords, L.source, n_points, config.seed)
    # the image point, then the tangent map J (dim x dim_L) row by row
    exprs = [*L.components, *(c for row in L.jacobian() for c in row)]
    feasible = True
    null_dims = set()
    for u in params:
        try:
            values = _finite(tuple(float(evaluate(e, u)) for e in exprs))
        except (DomainError, OverflowError):
            raise DomainError("Legendrian image or tangent map undefined or not finite "
                              f"at {_point_text(u)}") from None
        A, b = _system_at(sys, dict(zip(s.chart.coords, values[:dim])))
        J = np.array(values[dim:]).reshape(dim, dim_L)
        Ares = np.hstack([A[:, alpha * dim:(alpha + 1) * dim] @ J for alpha in range(k)])
        y, rank = least_norm_solution(Ares, b)
        residual, tolerance = _residual(Ares, y, b)
        if not residual <= tolerance:
            feasible = False
        null_dims.add(k * dim_L - rank)
    return Check("constrained_solution", PASS if feasible else FAIL, detail={
        "isotropy": isotropy,
        "H_vanishes_on_L": True,
        "feasible": feasible,
        "constrained_nullspace_dim": max(null_dims),
        "expected_pseudo_gauge_dof": expected,
        "n_points": len(params),
    })
