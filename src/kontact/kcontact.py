"""k-contact structures: the three defining conditions, Reeb frames, the
canonical example, and polarization checks.

The defining conditions (kernel coranks/ranks and their trivial intersection)
are decided pointwise with numeric SVD ranks at sampled chart points; the Reeb
frame is solved symbolically from its duality/annihilation equations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ChartMismatch, SampleDomainEmpty, SingularSystem
from .expr import ONE, ZERO, Rational, ScalarExpr, Var, evaluate
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
from .zerotest import is_probably_zero, sample_points

__all__ = [
    "KContactStructure", "ReebFrame", "PointCheck", "StructureReport",
    "structure_matrices_at", "check_structure_at", "verify_kcontact", "compute_reeb",
    "check_reeb_commutation", "canonical_structure", "check_polarization",
]


class KContactStructure:
    """A chart together with the k one-forms eta^1..eta^k and their differentials."""

    __slots__ = ("eta", "d_eta")

    def __init__(self, eta: RkValuedOneForm):
        self.eta = eta
        self.d_eta = tuple(exterior_derivative(f) for f in eta.forms)

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


@dataclass(frozen=True)
class PointCheck:
    point: dict
    eta_rank: int
    ker_deta_dim: int
    intersection_dim: int
    cond1: bool
    cond2: bool
    cond3: bool

    @property
    def all_pass(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3


@dataclass(frozen=True)
class StructureReport:
    k: int
    dim: int
    points: tuple = field(default=())

    @property
    def cond1(self) -> bool:
        return all(p.cond1 for p in self.points)

    @property
    def cond2(self) -> bool:
        return all(p.cond2 for p in self.points)

    @property
    def cond3(self) -> bool:
        return all(p.cond3 for p in self.points)

    @property
    def is_kcontact(self) -> bool:
        return bool(self.points) and all(p.all_pass for p in self.points)

    def failing_points(self) -> list[PointCheck]:
        return [p for p in self.points if not p.all_pass]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "dim": self.dim,
            "n_points": len(self.points),
            "cond1_corank_k": self.cond1,
            "cond2_reeb_rank_k": self.cond2,
            "cond3_trivial_intersection": self.cond3,
            "is_kcontact": self.is_kcontact,
            "points": [
                {
                    "point": {k: str(v) for k, v in p.point.items()},
                    "eta_rank": p.eta_rank,
                    "ker_deta_dim": p.ker_deta_dim,
                    "intersection_dim": p.intersection_dim,
                    "pass": p.all_pass,
                }
                for p in self.points
            ],
        }


def structure_matrices_at(s: KContactStructure, point: dict) -> tuple[np.ndarray, np.ndarray]:
    """(eta coefficient matrix k x dim, stacked d-eta contraction matrix) at a point.

    Row alpha*dim + i of the stacked matrix holds d eta^alpha(e_i, .): v is in
    the common kernel iff every row kills v.  Each nonzero coefficient is
    evaluated once; its antisymmetric mirror is the negated value.
    """
    k, dim = s.k, s.dim
    eta = np.zeros((k, dim))
    deta = np.zeros((k * dim, dim))
    for alpha, f in enumerate(s.eta.forms):
        for (i,), c in f.coeffs.items():
            eta[alpha, i] = float(evaluate(c, point))
    for alpha, d in enumerate(s.d_eta):
        base = alpha * dim
        for (i, j), c in d.coeffs.items():
            v = float(evaluate(c, point))
            deta[base + i, j] = v
            deta[base + j, i] = -v
    return eta, deta


def _components_at(rows, dim: int, point: dict) -> np.ndarray:
    """Vector components as matrix rows at a point; zero components are not evaluated."""
    M = np.zeros((len(rows), dim))
    for r, comps in enumerate(rows):
        for i, c in enumerate(comps):
            if not (isinstance(c, Rational) and c.value == 0):
                M[r, i] = float(evaluate(c, point))
    return M


def check_structure_at(s: KContactStructure, point: dict,
                       config: RunConfig = DEFAULT_CONFIG) -> PointCheck:
    """The three defining conditions at one point, from numeric SVD ranks.

    cond1: the eta coefficient matrix has rank k (ker eta has corank k);
    cond2: the common kernel of the d-eta contractions has dimension k;
    cond3: the two kernels intersect trivially.
    """
    eta, deta = structure_matrices_at(s, point)
    k, dim = s.k, s.dim
    r_eta = numeric_rank(eta, config.rank_threshold)
    ker_deta = dim - numeric_rank(deta, config.rank_threshold)
    inter = dim - numeric_rank(np.vstack([eta, deta]), config.rank_threshold)
    return PointCheck(
        point=point,
        eta_rank=r_eta,
        ker_deta_dim=ker_deta,
        intersection_dim=inter,
        cond1=r_eta == k,
        cond2=ker_deta == k,
        cond3=inter == 0,
    )


def verify_kcontact(
    s: KContactStructure,
    n_points: int = 20,
    config: RunConfig = DEFAULT_CONFIG,
) -> StructureReport:
    """Check the three defining conditions (see check_structure_at) at sampled
    points.  Failing structures yield a report, not an exception."""
    rng = random.Random(config.seed)
    pts = sample_points(s.chart.coords, s.chart.domain(), n_points, rng,
                        config.max_sample_retries)
    if not pts:
        raise SampleDomainEmpty("no sample points for structure verification")
    checks = tuple(check_structure_at(s, p, config) for p in pts)
    return StructureReport(k=s.k, dim=s.dim, points=checks)


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
) -> bool:
    """True iff every pairwise bracket of the frame vanishes under sampling."""
    fields = frame.fields if isinstance(frame, ReebFrame) else tuple(frame)
    if not fields:
        return True
    dom = domain if domain is not None else fields[0].chart.domain()
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            br = lie_bracket(fields[a], fields[b])
            for c in br.components:
                if not is_probably_zero(c, dom, config):
                    return False
    return True


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
) -> bool:
    """Decide whether span(V) is a polarization of ker eta.

    Requires: every field annihilates every eta^alpha; the span has rank n*k
    at sampled points (with dim = k + n + n*k); pairwise brackets stay inside
    the span at sampled points; and d eta^alpha vanishes on every pair
    (isotropy).
    """
    fields = list(V)
    if not fields:
        return False
    chart = s.chart
    for f in fields:
        if f.chart != chart:
            raise ChartMismatch("polarization fields live off the structure chart")
    k, dim = s.k, s.dim
    if (dim - k) % (k + 1) != 0:
        return False
    n = (dim - k) // (k + 1)
    expected_rank = n * k
    domain = chart.domain()

    for f in fields:
        for eta_a in s.eta.forms:
            pairing = interior_product(f, eta_a).coeffs.get((), ZERO)
            if not is_probably_zero(pairing, domain, config):
                return False

    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            for d in s.d_eta:
                val = form_on_vectors(d, [fields[a].components, fields[b].components])
                if not is_probably_zero(val, domain, config):
                    return False

    rng = random.Random(config.seed)
    pts = sample_points(chart.coords, domain, n_points, rng, config.max_sample_retries)
    span_rows = [f.components for f in fields]
    brackets = [
        lie_bracket(fields[a], fields[b]).components
        for a in range(len(fields))
        for b in range(a + 1, len(fields))
    ]
    for p in pts:
        M = _components_at(span_rows, dim, p)
        r = numeric_rank(M, config.rank_threshold)
        if r != expected_rank:
            return False
        for br in brackets:
            v = _components_at([br], dim, p)
            if numeric_rank(np.vstack([M, v]), config.rank_threshold) != r:
                return False
    return True
