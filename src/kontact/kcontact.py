"""k-contact structures: the three defining conditions, Reeb frames, the
canonical example, and polarization checks.

A structure becomes numbers in one place, structure_matrices_at: the HdDW
matrix A = [d-eta^T; eta] of hddw's field equations, whose layout
matrix_entries alone states, filled by the structure's one filler, the
cached property fill_matrix.  The defining conditions (kernel coranks/ranks
and their trivial intersection) are read in one place, check_structure_at:
numeric SVD ranks of [eta; d-eta], A rearranged less the d-eta rows that
are zero throughout, at one point (hddw) or over a stack of at most
_STACK_ENTRIES entries of sampled points (verify_kcontact), one SVD call
per rank and stack.  The Reeb frame, a forms.KVectorField, is solved
symbolically from its duality/annihilation equations, the same entries as
sparse rows; the solve checks the frame against every one of those rows.
check_polarization likewise takes its span and bracket ranks over a stack
of its points.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ChartMismatch, DomainError, SingularSystem, ZeroTestInconclusive
from .expr import ONE, ZERO, ScalarExpr, Var, free_variables
from .forms import (
    Chart,
    DifferentialForm,
    KVectorField,
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
    """The k one-forms eta^1..eta^k on one chart, and their differentials."""

    def __init__(self, eta: Sequence[DifferentialForm]):
        eta = tuple(eta)
        if not eta:
            raise ValueError("need at least one component form")
        for f in eta:
            if f.chart != eta[0].chart:
                raise ChartMismatch("component forms live on different charts")
            if f.degree != 1:
                raise ValueError("components must be one-forms")
        self.eta = eta
        self.d_eta = tuple(exterior_derivative(f) for f in eta)

    @property
    def chart(self) -> Chart:
        return self.eta[0].chart

    @property
    def k(self) -> int:
        return len(self.eta)

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def fill_matrix(self) -> Callable[[Mapping], np.ndarray]:
        """The one filler of A (structure_matrices_at), flat."""
        n = self.k * self.dim
        return filler((self.dim + 1) * n, [(r * n + col, e)
                                           for r, col, e in matrix_entries(self)])


def matrix_entries(s: KContactStructure) -> list[tuple[int, int, ScalarExpr]]:
    """(row, column, entry) for every nonzero entry of the HdDW matrix
    A = [deta^T; eta] of s, the (dim+1) x k*dim matrix: the one statement of
    its layout.

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
            entries += [(j, alpha * dim + i, c), (i, alpha * dim + j, -c)]
    entries += [(dim, alpha * dim + i, c)
                for alpha, f in enumerate(s.eta) for (i,), c in f.coeffs.items()]
    return entries


def structure_matrices_at(s: KContactStructure, point: dict) -> np.ndarray:
    """The HdDW matrix A of s (matrix_entries) at a point, with -0.0 turned
    into 0.0, from the structure's fill_matrix; raises DomainError naming
    the point where A is undefined or not finite."""
    try:
        return s.fill_matrix(point).reshape(s.dim + 1, s.k * s.dim)
    except DomainError:
        raise DomainError(
            f"structure matrix undefined or not finite at {_point_text(point)}") from None


def check_structure_at(A: np.ndarray) -> tuple:
    """(rank of eta, dim of the common kernel of d-eta, dim of the two
    kernels' intersection) from the HdDW matrix A; from a stack
    (..., dim + 1, k*dim), three integer arrays of per-matrix values.

    [eta; d-eta] stacks eta, A's last row as k x dim, on d-eta, its first
    dim rows transposed, less the d-eta rows (A's columns) that are zero in
    every matrix of the stack: a zero row changes no singular value, and
    most d-eta rows are zero (row alpha*dim + i, for a coordinate i that
    d eta^alpha never names).  Each rank is one SVD call on a tall view of
    it (eta, d-eta, the whole).  The three defining conditions hold at a
    point exactly when this is (k, k, 0): ker eta has corank k, the d-eta
    kernel has dimension k, and the two kernels intersect trivially.
    """
    dim = A.shape[-2] - 1
    eta = A[..., dim, :].reshape(*A.shape[:-2], -1, dim)
    d_eta = A[..., :dim, :]
    nonzero = d_eta.any(axis=tuple(range(A.ndim - 1)))
    M = np.concatenate([eta, np.swapaxes(d_eta.compress(nonzero, axis=-1), -1, -2)], axis=-2)
    k = eta.shape[-2]
    return (numeric_rank(M[..., :k, :]), dim - numeric_rank(M[..., k:, :]),
            dim - numeric_rank(M))


_STACK_ENTRIES = 1 << 13
"""verify_kcontact stacks at most this many float64 entries (64 KiB) of A
per SVD call: every point of the small structures, whose ranks cost
mostly the call itself, and a few points at a time of the large ones,
whose ranks cost mostly the SVD.  Larger stacks, allocated in varying sizes
call after call, raised the peak memory of a long run of structure checks
(0.9 MB over 30 passes of the benchmark's structure jobs at 256 KiB)."""


def verify_kcontact(
    s: KContactStructure,
    n_points: int = 20,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[Check]:
    """The three defining conditions (see check_structure_at) at sampled points,
    one check each: corank_condition (its detail holds the per-point rank
    table), reeb_rank_condition and trivial_intersection.  Failing structures
    yield failing checks, not an exception.  The first event in point order
    decides: at a point where A is undefined or not finite, DomainError
    (structure_matrices_at) is raised unless a point before it fails, and
    then all three checks fail, the table holding the points before it.
    n_points < 1 raises SampleDomainEmpty (sample_points)."""
    pts = sample_points(s.chart.coords, s.chart, n_points, config.seed)
    ranks, undefined = [], None
    per_stack = max(1, _STACK_ENTRIES // ((s.dim + 1) * s.k * s.dim))
    for start in range(0, len(pts), per_stack):
        stack = []
        for p in pts[start:start + per_stack]:
            try:
                stack.append(structure_matrices_at(s, p))
            except DomainError as err:
                undefined = err
                break
        if stack:
            ranks += zip(*(r.tolist() for r in check_structure_at(np.stack(stack))))
        if undefined is not None:
            break
    want = (s.k, s.k, 0)
    if undefined is not None and all(r == want for r in ranks):
        raise undefined
    rank_table = [
        {
            "point": _point_text(p),
            "eta_rank": r[0],
            "ker_deta_dim": r[1],
            "intersection_dim": r[2],
            "pass": r == want,
        }
        for p, r in zip(pts, ranks)
    ]
    verdicts = [PASS if undefined is None and all(r[i] == want[i] for r in ranks) else FAIL
                for i in range(3)]
    return [
        Check("corank_condition", verdicts[0],
              detail={"k": s.k, "dim": s.dim, "rank_table": rank_table}),
        Check("reeb_rank_condition", verdicts[1]),
        Check("trivial_intersection", verdicts[2]),
    ]


def _point_text(p: dict) -> dict:
    """A sample point as the reports write it: each coordinate's rational as
    a string."""
    return {k: str(v) for k, v in p.items()}


def compute_reeb(s: KContactStructure, config: RunConfig = DEFAULT_CONFIG) -> KVectorField:
    """Solve the Reeb defining equations symbolically for the frame R_1..R_k.

    For each alpha: eta^beta(R_alpha) = delta and iota_{R_alpha} d eta^beta = 0.
    The equations are the rows of [eta; d-eta], matrix_entries read as rows:
    row beta is eta^beta, and row k + beta*dim + i, d eta^beta(e_i, .), is
    column beta*dim + i of A.  One sparse Gauss-Jordan elimination over the
    expression field with k right-hand sides, which returns the frame only
    once the sampling zero test finds it satisfies every row.
    """
    dim, k = s.dim, s.k
    rows = [{} for _ in range(k + k * dim)]
    for r, col, e in matrix_entries(s):
        if r == dim:
            rows[col // dim][col % dim] = e
        else:
            rows[k + col][r] = e
    rhs = [{beta: ONE} for beta in range(k)] + [{} for _ in range(k * dim)]
    try:
        sol = solve_symbolic(rows, rhs, dim, s.chart, config)
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
    return zero_check("reeb_commutation", brackets, frame.chart, config)


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
    return KContactStructure(forms)


def _polarization_pairs(
    s: KContactStructure, fields: Sequence[VectorField]
) -> tuple[list[tuple[int, int, DifferentialForm]], list[tuple[int, int]]]:
    """The field pairs a < b that check_polarization evaluates, in its order:
    the (a, b, d eta^alpha) whose d eta^alpha(X_a, X_b) can be nonzero, and
    the (a, b) whose [X_a, X_b] can.

    Read off each field's support (its nonzero components) and the
    coordinates its components depend on: d eta^alpha(X_a, X_b) needs a key
    (i, j) of d eta^alpha with i in one support and j in the other, and
    [X_a, X_b] needs one support to meet the other field's dependencies.
    Every other pair's value is ZERO, so leaving it out is exact.
    """
    coords = s.chart.coords
    support = [{i for i, c in enumerate(f.components) if c != ZERO} for f in fields]
    depends = []
    for f in fields:
        names = set().union(*map(free_variables, f.components))
        depends.append({i for i, name in enumerate(coords) if name in names})
    pairs = [(a, b) for a in range(len(fields)) for b in range(a + 1, len(fields))]
    isotropy = [(a, b, d) for a, b in pairs for d in s.d_eta
                if any(i in support[a] and j in support[b] or j in support[a] and i in support[b]
                       for i, j in d.coeffs)]
    brackets = [(a, b) for a, b in pairs
                if support[a] & depends[b] or support[b] & depends[a]]
    return isotropy, brackets


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
    inside the span at sampled points.  Only the pairs _polarization_pairs
    keeps are built: the others are structurally zero, so their zero tests
    would pass with residual 0 and their brackets would add no row.  With no
    rank point drawn, raises SampleDomainEmpty; see below for DomainError.
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

    isotropy, bracket_pairs = _polarization_pairs(s, fields)
    exprs = [interior_product(f, eta_a).coeffs.get((), ZERO)
             for f in fields for eta_a in s.eta]
    exprs += [form_on_vectors(d, [fields[a].components, fields[b].components])
              for a, b, d in isotropy]
    zero = zero_check("polarization", exprs, chart, config, detail)
    if zero.verdict == FAIL:
        return zero

    pts = sample_points(chart.coords, chart, n_points, config.seed)
    brackets = [lie_bracket(fields[a], fields[b]).components for a, b in bracket_pairs]
    # a structurally zero bracket adds a zero row, which cannot change the rank
    brackets = [br for br in brackets if any(c != ZERO for c in br)]
    n = len(fields)
    rows = [f.components for f in fields] + brackets
    rows_at = filler(len(rows) * dim, [(r * dim + i, c) for r, comps in enumerate(rows)
                                       for i, c in enumerate(comps) if c != ZERO])
    values, undefined = [], None
    for p in pts:
        try:
            values.append(rows_at(p))
        except DomainError:
            # DomainError naming the first undefined or non-finite point, but
            # the points before it decide first: a failure there fails
            undefined = DomainError(
                f"polarization fields undefined or not finite at {_point_text(p)}")
            break
    values = np.array(values).reshape(-1, len(rows), dim)
    # the brackets stay in the span iff stacking them leaves its rank
    r = numeric_rank(values[:, :n])
    if np.any(r != expected_rank) or (brackets and np.any(numeric_rank(values) != r)):
        return Check("polarization", FAIL, zero.max_residual, detail)
    if undefined is not None:
        raise undefined
    return zero
