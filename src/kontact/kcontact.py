"""k-contact structures: the three defining conditions, Reeb frames, the
canonical example, and polarization checks.

The defining conditions (kernel coranks/ranks and their trivial intersection)
are decided pointwise with numeric SVD ranks at sampled chart points; the Reeb
frame is solved symbolically from its duality/annihilation equations.
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
    RkValuedOneForm,
    VectorField,
    exterior_derivative,
    form_on_vectors,
    interior_product,
    lie_bracket,
)
from .linalg import numeric_rank, solve_symbolic
from .runner import entries_at
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, is_probably_zero, sample_points, zero_check

__all__ = [
    "KContactStructure", "ReebFrame",
    "structure_matrices_at", "check_structure_at", "k1_conditions_hold",
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


class ReebFrame:
    """The frame R_1..R_k dual to eta^alpha and annihilating every d eta^beta."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[VectorField]):
        self.fields = tuple(fields)

    @property
    def k(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i: int) -> VectorField:
        return self.fields[i]


def structure_matrices_at(s: KContactStructure, point: dict) -> tuple[np.ndarray, np.ndarray]:
    """(eta coefficient matrix k x dim, stacked d-eta contraction matrix) at a point.

    Row alpha*dim + i of the stacked matrix holds d eta^alpha(e_i, .): v is in
    the common kernel iff every row kills v.  Both are views of one matrix that
    one float runner, built on first use and kept on the structure, fills with
    the nonzero coefficients; each d-eta block is then its upper triangle
    minus that triangle's transpose.
    """
    k, dim = s.k, s.dim
    if s._matrices_at is None:
        entries = [((alpha, i), c) for alpha, f in enumerate(s.eta.forms)
                   for (i,), c in f.coeffs.items()]
        entries += [((k + alpha * dim + i, j), c) for alpha, d in enumerate(s.d_eta)
                    for (i, j), c in d.coeffs.items()]
        s._matrices_at = entries_at((k * (dim + 1), dim), entries)
    M = s._matrices_at(point)
    blocks = M[k:].reshape(k, dim, dim)
    blocks -= blocks.transpose(0, 2, 1)
    return M[:k], M[k:]


def check_structure_at(eta: np.ndarray, deta: np.ndarray) -> tuple[int, int, int]:
    """(rank of eta, dim of the common kernel of d-eta, dim of the two kernels'
    intersection) from numeric SVD ranks of structure_matrices_at's pair.

    The three defining conditions hold at the point exactly when this is
    (k, k, 0): ker eta has corank k, the d-eta kernel has dimension k, and
    the two kernels intersect trivially.
    """
    dim = eta.shape[1]
    return (numeric_rank(eta), dim - numeric_rank(deta),
            dim - numeric_rank(np.vstack([eta, deta])))


def k1_conditions_hold(dim: int, rank: int) -> bool:
    """For k = 1: whether check_structure_at(eta, deta) == (1, 1, 0), read
    off rank, the numeric rank of the (dim+1) x dim matrix A = [deta^T; eta]
    (the HdDW matrix of hddw._system_at), so that the solve's own SVD
    decides the defining conditions.  They hold exactly when dim is odd and
    rank == dim:

    - rank(A) = dim implies (1, 1, 0).  eta is not zero: else rank(A) =
      rank(deta), and an antisymmetric matrix of odd size is singular, so
      that rank is at most dim - 1.  A is deta^T with one row added, so
      singular-value interlacing (R. C. Thompson, "Principal submatrices
      IX", Linear Algebra Appl. 5, 1972) gives s_dim(A) <= s_{dim-1}(deta),
      and s_1(deta) <= s_1(A): A's numeric rank dim forces deta's to be at
      least dim - 1, and oddness caps it there.  The row space of A is that
      of [eta; deta], so the intersection dimension is 0.
    - (1, 1, 0) implies rank(A) = dim: A has the rows of [eta; deta], up to
      order and sign.
    - For even dim (1, 1, 0) is impossible, since deta has even rank.
    """
    return dim % 2 == 1 and rank == dim


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
    ranks = [check_structure_at(*structure_matrices_at(s, p)) for p in pts]
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


def compute_reeb(s: KContactStructure, config: RunConfig = DEFAULT_CONFIG) -> ReebFrame:
    """Solve the Reeb defining equations symbolically.

    For each alpha: eta^beta(R_alpha) = delta and iota_{R_alpha} d eta^beta = 0.
    One Gauss-Jordan elimination over the expression field with k right-hand
    sides; pivots decided by the sampling zero test.
    """
    dim, k = s.dim, s.k
    # eta rows, then d eta^beta(e_i, .) for every beta and i
    rows = [[f.coeffs.get((i,), ZERO) for i in range(dim)] for f in s.eta.forms]
    for d in s.d_eta:
        B = [[ZERO] * dim for _ in range(dim)]
        for (i, j), c in d.coeffs.items():
            B[i][j] = c
            B[j][i] = -c
        rows.extend(B)
    rhs: list[list[ScalarExpr]] = []
    for beta in range(k):
        rhs.append([ONE if alpha == beta else ZERO for alpha in range(k)])
    for _ in range(k * dim):
        rhs.append([ZERO] * k)
    domain = s.chart.domain()
    try:
        sol = solve_symbolic(rows, rhs, domain, config, what="Reeb system")
    except SingularSystem as err:
        raise SingularSystem(f"structure is not k-contact on this chart: {err}") from None
    frame = ReebFrame([
        VectorField(s.chart, [sol[i][alpha] for i in range(dim)])
        for alpha in range(k)
    ])
    _check_reeb_invariants(s, frame, config)
    return frame


def reeb_frame_check(
    s: KContactStructure, config: RunConfig = DEFAULT_CONFIG
) -> tuple[ReebFrame | None, Check]:
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
    return [check, check_reeb_commutation(frame, config=config)]


def _check_reeb_invariants(s: KContactStructure, frame: ReebFrame, config: RunConfig):
    domain = s.chart.domain()
    for alpha, R in enumerate(frame):
        for beta, eta_b in enumerate(s.eta.forms):
            pairing = interior_product(R, eta_b).coeffs.get((), ZERO)
            expected = ONE if alpha == beta else ZERO
            if not is_probably_zero(pairing - expected, domain, config):
                raise SingularSystem(
                    f"solved frame violates eta^{beta}(R_{alpha}) = "
                    f"{'1' if alpha == beta else '0'}")
            contraction = interior_product(R, s.d_eta[beta])
            for c in contraction.coeffs.values():
                if not is_probably_zero(c, domain, config):
                    raise SingularSystem(
                        f"solved frame violates iota_R_{alpha} d eta^{beta} = 0")


def check_reeb_commutation(
    frame: ReebFrame,
    domain=None,
    config: RunConfig = DEFAULT_CONFIG,
) -> Check:
    """The reeb_commutation check: every pairwise bracket of the frame vanishes."""
    fields = tuple(frame)
    if domain is None and fields:
        domain = fields[0].chart.domain()
    brackets = [c for a in range(len(fields)) for b in range(a + 1, len(fields))
                for c in lie_bracket(fields[a], fields[b]).components]
    return zero_check("reeb_commutation", brackets, domain, config)


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
    rows_at = entries_at((len(rows), dim), [((r, i), c) for r, comps in enumerate(rows)
                                            for i, c in enumerate(comps) if c != ZERO])
    for p in pts:
        values = rows_at(p)
        # the brackets stay in the span iff stacking them leaves its rank
        r = numeric_rank(values[:n])
        if r != expected_rank or (brackets and numeric_rank(values) != r):
            return Check("polarization", FAIL, zero.max_residual, detail)
    return zero
