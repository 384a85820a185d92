"""k-contact structures: the three defining conditions, Reeb frames, the
canonical example, and polarization checks.

The defining conditions (kernel coranks/ranks and their trivial intersection)
are decided pointwise with numeric SVD ranks at sampled chart points, read
off the HdDW matrix [d-eta^T; eta] of hddw's field equations, whose layout
matrix_entries alone states.  The Reeb frame, a forms.KVectorField, is
solved symbolically from its duality/annihilation equations, whose sparse
rows are the same entries read as rows of [eta; d-eta]; the solve checks
the frame against every one of those rows.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ChartMismatch, SampleDomainEmpty, SingularSystem, ZeroTestInconclusive
from .expr import ONE, ZERO, ScalarExpr, Var
from .forms import (
    Chart,
    DifferentialForm,
    KVectorField,
    RkValuedOneForm,
    VectorField,
    exterior_derivative,
    form_on_vectors,
    interior_product,
    lie_bracket,
)
from .linalg import numeric_rank, solve_symbolic
from .runner import filler
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, sample_points, zero_check

__all__ = [
    "KContactStructure",
    "matrix_entries", "structure_matrices_at", "check_structure_at",
    "verify_kcontact", "compute_reeb", "reeb_frame_check", "check_reeb",
    "check_reeb_commutation", "canonical_structure", "check_polarization",
]


class KContactStructure:
    """A chart together with the k one-forms eta^1..eta^k and their differentials."""

    __slots__ = ("eta", "d_eta", "_matrices_at")

    def __init__(self, eta: RkValuedOneForm):
        self.eta = eta
        self.d_eta = tuple(exterior_derivative(f) for f in eta.forms)
        self._matrices_at = None  # structure_matrices_at's filler, built on first use

    @property
    def chart(self) -> Chart:
        return self.eta.chart

    @property
    def k(self) -> int:
        return self.eta.k

    @property
    def dim(self) -> int:
        return self.chart.dim


def matrix_entries(s: KContactStructure) -> list[tuple[int, int, float, ScalarExpr]]:
    """(row, column, sign, coefficient) for every nonzero entry of the HdDW
    matrix A = [deta^T; eta] of s, the (dim+1) x k*dim matrix whose entry is
    sign times the coefficient: the one statement of its layout.

    Column alpha*dim + i stands for component i of X_alpha.  Rows 0..dim-1
    hold the d-eta matrices transposed: a d-eta^alpha coefficient c at
    (i, j) is A[j, alpha*dim + i] = c and A[i, alpha*dim + j] = -c.  Row dim
    holds the eta matrix flattened: eta^alpha's coefficient at i is
    A[dim, alpha*dim + i].
    """
    dim = s.dim
    entries = []
    for alpha, d in enumerate(s.d_eta):
        for (i, j), c in d.coeffs.items():
            entries += [(j, alpha * dim + i, 1.0, c), (i, alpha * dim + j, -1.0, c)]
    entries += [(dim, alpha * dim + i, 1.0, c)
                for alpha, f in enumerate(s.eta.forms) for (i,), c in f.coeffs.items()]
    return entries


def structure_matrices_at(s: KContactStructure, point: dict) -> np.ndarray:
    """The HdDW matrix A of s (matrix_entries) at a point, with -0.0 turned
    into 0.0, filled by one runner built on first use and kept on the
    structure."""
    n = s.k * s.dim
    if s._matrices_at is None:
        s._matrices_at = filler((s.dim + 1) * n, [(r * n + col, sign, c)
                                                  for r, col, sign, c in matrix_entries(s)])
    return s._matrices_at(point).reshape(s.dim + 1, n)


def check_structure_at(A: np.ndarray) -> tuple[int, int, int]:
    """(rank of eta, dim of the common kernel of d-eta, dim of the two kernels'
    intersection) from numeric SVD ranks, with eta (its last row, as k x dim)
    and the stacked d-eta (its first dim rows, transposed: row alpha*dim + i
    holds d eta^alpha(e_i, .)) read as views of the HdDW matrix A.

    The three defining conditions hold at the point exactly when this is
    (k, k, 0): ker eta has corank k, the d-eta kernel has dimension k, and
    the two kernels intersect trivially.
    """
    dim = A.shape[0] - 1
    eta, deta = A[dim].reshape(-1, dim), A[:dim].T
    return (numeric_rank(eta), dim - numeric_rank(deta),
            dim - numeric_rank(np.vstack([eta, deta])))


def verify_kcontact(
    s: KContactStructure,
    n_points: int = 20,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[Check]:
    """The three defining conditions (see check_structure_at) at sampled points,
    one check each: corank_condition (its detail holds the per-point rank
    table), reeb_rank_condition and trivial_intersection.  Failing structures
    yield failing checks, not an exception."""
    rng = random.Random(config.seed)
    pts = sample_points(s.chart.coords, s.chart.domain(), n_points, rng)
    if not pts:
        raise SampleDomainEmpty("no sample points for structure verification")
    ranks = [check_structure_at(structure_matrices_at(s, p)) for p in pts]
    want = (s.k, s.k, 0)
    rank_table = [
        {
            "point": {k: str(v) for k, v in p.items()},
            "eta_rank": r[0],
            "ker_deta_dim": r[1],
            "intersection_dim": r[2],
            "pass": r == want,
        }
        for p, r in zip(pts, ranks)
    ]
    verdicts = [PASS if all(r[i] == want[i] for r in ranks) else FAIL for i in range(3)]
    return [
        Check("corank_condition", verdicts[0],
              detail={"k": s.k, "dim": s.dim, "rank_table": rank_table}),
        Check("reeb_rank_condition", verdicts[1]),
        Check("trivial_intersection", verdicts[2]),
    ]


def compute_reeb(s: KContactStructure, config: RunConfig = DEFAULT_CONFIG) -> KVectorField:
    """Solve the Reeb defining equations symbolically for the frame R_1..R_k.

    For each alpha: eta^beta(R_alpha) = delta and iota_{R_alpha} d eta^beta = 0.
    The equations are the rows of [eta; d-eta] read off matrix_entries: row
    beta is eta^beta, row k + beta*dim + i is d eta^beta(e_i, .), which is
    column beta*dim + i of A.  One sparse Gauss-Jordan elimination over the
    expression field with k right-hand sides, which returns the frame only
    once the sampling zero test finds it satisfies every row.
    """
    dim, k = s.dim, s.k
    rows = [{} for _ in range(k + k * dim)]
    for r, col, sign, c in matrix_entries(s):
        if r == dim:
            rows[col // dim][col % dim] = c
        else:
            rows[k + col][r] = c if sign > 0 else -c
    rhs = [{beta: ONE} for beta in range(k)] + [{} for _ in range(k * dim)]
    try:
        sol = solve_symbolic(rows, rhs, dim, s.chart.domain(), config)
    except SingularSystem as err:
        raise SingularSystem(
            f"structure is not k-contact on this chart: Reeb system: {err}") from None
    return KVectorField([
        VectorField(s.chart, [sol[i].get(alpha, ZERO) for i in range(dim)])
        for alpha in range(k)
    ])


def reeb_frame_check(
    s: KContactStructure, config: RunConfig = DEFAULT_CONFIG
) -> tuple[KVectorField | None, Check]:
    """compute_reeb as the reeb_frame check: the frame and a pass carrying its
    solved components, or None and a fail or inconclusive saying why there
    is no frame."""
    try:
        frame = compute_reeb(s, config)
    except ZeroTestInconclusive as err:
        return None, Check("reeb_frame", INCONCLUSIVE, detail={"error": str(err)})
    except SingularSystem as err:
        return None, Check("reeb_frame", FAIL, detail={"error": str(err)})
    return frame, Check("reeb_frame", PASS, detail={
        "components": [[str(c) for c in R.components] for R in frame]})


def check_reeb(s: KContactStructure, config: RunConfig = DEFAULT_CONFIG) -> list[Check]:
    """The reeb_frame check and, when the frame exists, the reeb_commutation check."""
    frame, check = reeb_frame_check(s, config)
    if frame is None:
        return [check]
    return [check, check_reeb_commutation(frame, config)]


def check_reeb_commutation(frame: KVectorField, config: RunConfig = DEFAULT_CONFIG) -> Check:
    """The reeb_commutation check: every pairwise bracket of the frame vanishes."""
    fields = frame.fields
    brackets = [c for a in range(len(fields)) for b in range(a + 1, len(fields))
                for c in lie_bracket(fields[a], fields[b]).components]
    return zero_check("reeb_commutation", brackets, frame.chart.domain(), config)


def canonical_structure(n: int, k: int) -> KContactStructure:
    """The canonical structure on R^k x (T*Q)^k: eta^a = ds^a - sum_i p^a_i dq^i.

    Chart order: s_1..s_k, q_1..q_n, then momenta grouped by upper index
    (p_1_1..p_1_n, p_2_1..).  Dimension k + n + n*k.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    coords = [f"s_{a}" for a in range(1, k + 1)]
    coords += [f"q_{i}" for i in range(1, n + 1)]
    coords += [f"p_{a}_{i}" for a in range(1, k + 1) for i in range(1, n + 1)]
    chart = Chart(coords)
    forms = []
    for a in range(1, k + 1):
        coeffs = {(chart.index(f"s_{a}"),): ONE}
        for i in range(1, n + 1):
            coeffs[(chart.index(f"q_{i}"),)] = -Var(f"p_{a}_{i}")
        forms.append(DifferentialForm(chart, 1, coeffs))
    return KContactStructure(RkValuedOneForm(forms))


def check_polarization(
    s: KContactStructure,
    V: Sequence[VectorField],
    n_points: int = 20,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """The polarization check: whether span(V) is a polarization of ker eta.

    Requires: every field annihilates every eta^alpha and d eta^alpha
    vanishes on every pair (isotropy), both by zero tests; the span has rank
    n*k at sampled points (with dim = k + n + n*k); and pairwise brackets stay
    inside the span at sampled points.
    """
    fields = list(V)
    detail = {"n_fields": len(fields)}
    chart = s.chart
    for f in fields:
        if f.chart != chart:
            raise ChartMismatch("polarization fields live off the structure chart")
    k, dim = s.k, s.dim
    if not fields or (dim - k) % (k + 1) != 0:
        return Check("polarization", FAIL, detail=detail)
    expected_rank = (dim - k) // (k + 1) * k
    domain = chart.domain()

    exprs = [interior_product(f, eta_a).coeffs.get((), ZERO)
             for f in fields for eta_a in s.eta.forms]
    exprs += [form_on_vectors(d, [fields[a].components, fields[b].components])
              for a in range(len(fields)) for b in range(a + 1, len(fields))
              for d in s.d_eta]
    zero = zero_check("polarization", exprs, domain, config, detail)
    if zero.verdict == FAIL:
        return zero

    rng = random.Random(config.seed)
    pts = sample_points(chart.coords, domain, n_points, rng)
    brackets = [
        lie_bracket(fields[a], fields[b]).components
        for a in range(len(fields))
        for b in range(a + 1, len(fields))
    ]
    # a structurally zero bracket adds a zero row, which cannot change the rank
    brackets = [br for br in brackets if any(c != ZERO for c in br)]
    n = len(fields)
    rows = [f.components for f in fields] + brackets
    rows_at = filler(len(rows) * dim, [(r * dim + i, 1.0, c) for r, comps in enumerate(rows)
                                       for i, c in enumerate(comps) if c != ZERO])
    for p in pts:
        values = rows_at(p).reshape(len(rows), dim)
        # the brackets stay in the span iff stacking them leaves its rank
        r = numeric_rank(values[:n])
        if r != expected_rank or (brackets and numeric_rank(values) != r):
            return Check("polarization", FAIL, zero.max_residual, detail)
    return zero
