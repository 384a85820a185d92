"""Exterior calculus on explicit coordinate charts.

Differential forms are stored sparsely: a degree-p form maps strictly
increasing p-tuples of coordinate indices to scalar expressions, with all
antisymmetry sign bookkeeping funnelled through one permutation-parity
routine.  Vector fields, k-vector fields, and smooth maps between charts
live here too, together with wedge, d, interior product, Lie bracket,
pullback, and first prolongations.

Vector fields are dense component tuples but usually sparse in content, so
directional derivatives, Lie brackets and form evaluation skip zero
components and coordinates a scalar does not depend on: their cost grows with
the nonzero components, not with the chart dimension.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ChartMismatch, ZeroDegree
from .expr import (
    ONE,
    ZERO,
    ExprLike,
    Product,
    Rational,
    ScalarExpr,
    Sum,
    as_expr,
    differentiate,
    free_variables,
    substitute,
)

__all__ = [
    "Chart", "DifferentialForm", "VectorField", "KVectorField", "SmoothMap",
    "sort_with_sign", "wedge",
    "exterior_derivative", "interior_product", "lie_bracket", "pullback", "prolongation",
    "form_on_vectors", "parameter_chart",
]


def _is_zero(e: ScalarExpr) -> bool:
    return isinstance(e, Rational) and e.value == 0


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning (sorted tuple, permutation parity).

    Parity is 0 when any index repeats.  Every sign decision in this module
    goes through here.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    # insertion sort; swap count parity is the permutation parity
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class Chart:
    """An ordered coordinate system with positivity constraints and sampling ranges.

    Constraints are expressions required to be > 0 on the chart's domain;
    ranges are per-coordinate sampling intervals (defaulting elsewhere to
    [-2, 2]); zerotest samples a chart through these two, and keeps the
    points it draws for its zero tests on the chart, drawn on first use.
    Charts compare by coordinates and constraints only.
    """

    __slots__ = ("coords", "constraints", "ranges", "_index", "_samples")

    def __init__(
        self,
        coords: Sequence[str],
        constraints: Iterable[ExprLike] = (),
        ranges: Mapping[str, tuple] | None = None,
    ):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate names must be unique")
        if not coords:
            raise ValueError("chart needs at least one coordinate")
        self.coords = coords
        self.constraints = tuple(as_expr(c) for c in constraints)
        self.ranges = {
            name: (Fraction(lo), Fraction(hi)) for name, (lo, hi) in (ranges or {}).items()
        }
        self._index = {name: i for i, name in enumerate(coords)}
        self._samples = {}  # zerotest's zero-test points, by (variables, n, seed)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self._index[name]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chart)
            and self.coords == other.coords
            and self.constraints == other.constraints
        )

    def __hash__(self):
        return hash((self.coords, self.constraints))

    def __repr__(self):
        return f"Chart({', '.join(self.coords)})"


def parameter_chart(k: int) -> Chart:
    """The source chart t_0..t_{k-1} for sections and prolongations."""
    return Chart([f"t_{i}" for i in range(k)])


def _require_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatch(f"operands live on different charts: {a.chart} vs {b.chart}")


class DifferentialForm:
    """A degree-p form on a chart, sparsely keyed by increasing index tuples."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: Mapping[tuple, ExprLike] | None = None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.chart = chart
        self.degree = degree
        normalized: dict[tuple, ScalarExpr] = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if any(not 0 <= i < chart.dim for i in key):
                raise ValueError(f"key {key} out of range for {chart}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"key {key} must be strictly increasing")
            e = as_expr(value)
            if _is_zero(e):
                continue
            normalized[key] = e
        if degree > chart.dim and normalized:
            raise ValueError("nonzero form of degree above the chart dimension")
        self.coeffs = normalized

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, terms: Iterable[tuple[Sequence[int], ExprLike]]):
        """Build a form from possibly unsorted/repeating index tuples."""
        acc: dict[tuple, ScalarExpr] = {}
        for key, value in terms:
            skey, sign = sort_with_sign(tuple(key))
            if sign == 0:
                continue
            e = as_expr(value)
            if sign < 0:
                e = -e
            acc[skey] = acc[skey] + e if skey in acc else e
        return cls(chart, degree, acc)

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree)

    @classmethod
    def scalar(cls, chart: Chart, value: ExprLike):
        return cls(chart, 0, {(): as_expr(value)})

    def map_coeffs(self, fn) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree,
                                {k: fn(c) for k, c in self.coeffs.items()})

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc[k] + c if k in acc else c
        return DifferentialForm(self.chart, self.degree, acc)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, scalar: ExprLike) -> "DifferentialForm":
        s = as_expr(scalar)
        return self.map_coeffs(lambda c: s * c)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"<0-valued {self.degree}-form>"
        names = self.chart.coords
        bits = []
        for key, c in sorted(self.coeffs.items()):
            basis = "^".join(f"d{names[i]}" for i in key) or "1"
            bits.append(f"({c}) {basis}")
        return " + ".join(bits)


class VectorField:
    """A vector field on a chart: one scalar component per coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[ExprLike]):
        components = tuple(as_expr(c) for c in components)
        if len(components) != chart.dim:
            raise ValueError("component count must equal the chart dimension")
        self.chart = chart
        self.components = components

    @classmethod
    def coordinate(cls, chart: Chart, coord: str | int):
        i = coord if isinstance(coord, int) else chart.index(coord)
        return cls(chart, [ONE if j == i else ZERO for j in range(chart.dim)])

    def apply(self, f: ExprLike) -> ScalarExpr:
        """Directional derivative X(f) of a scalar.

        Differentiates only along nonzero components whose coordinate f
        depends on, so the cost is per nonzero component.
        """
        f = as_expr(f)
        names = free_variables(f)
        if not names:
            return ZERO
        return Sum.make([
            comp * differentiate(f, name)
            for comp, name in zip(self.components, self.chart.coords)
            if name in names and not _is_zero(comp)
        ])

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __mul__(self, scalar: ExprLike) -> "VectorField":
        s = as_expr(scalar)
        return VectorField(self.chart, [s * c for c in self.components])

    __rmul__ = __mul__

    def __repr__(self):
        bits = [
            f"({c}) d/d{name}"
            for c, name in zip(self.components, self.chart.coords)
            if not _is_zero(c)
        ]
        return " + ".join(bits) or "<zero vector field>"


class KVectorField:
    """A k-vector field: an ordered list of k vector fields on one chart."""

    __slots__ = ("chart", "k", "fields")

    def __init__(self, fields: Sequence[VectorField]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("need at least one component field")
        chart = fields[0].chart
        for f in fields:
            if f.chart != chart:
                raise ChartMismatch("component fields live on different charts")
        self.chart = chart
        self.k = len(fields)
        self.fields = fields

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i: int) -> VectorField:
        return self.fields[i]


class SmoothMap:
    """A smooth map between charts, given by one target-coordinate expression
    per target coordinate, written in source coordinates."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence[ExprLike]):
        components = tuple(as_expr(c) for c in components)
        if len(components) != target.dim:
            raise ValueError("need one component per target coordinate")
        allowed = set(source.coords)
        for c, name in zip(components, target.coords):
            extra = free_variables(c) - allowed
            if extra:
                raise ValueError(
                    f"component for {name} uses non-source variables {sorted(extra)}")
        self.source = source
        self.target = target
        self.components = components

    def bindings(self) -> dict[str, ScalarExpr]:
        return dict(zip(self.target.coords, self.components))

    def jacobian(self) -> list[list[ScalarExpr]]:
        """Rows indexed by target coordinate, columns by source coordinate."""
        return [
            [differentiate(c, u) for u in self.source.coords]
            for c in self.components
        ]

    def __repr__(self):
        return f"SmoothMap({self.source} -> {self.target})"


# ---------------------------------------------------------------------------
# operations

def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product.  Degrees exceeding the chart dimension give the zero form."""
    _require_same_chart(a, b)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return DifferentialForm.zero(a.chart, degree)
    terms = []
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            key, sign = sort_with_sign(ka + kb)
            if sign == 0:
                continue
            c = ca * cb
            terms.append((key, -c if sign < 0 else c))
    return DifferentialForm.from_terms(a.chart, degree, ((k, c) for k, c in terms))


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d(f dx_I) = sum_j (df/dx_j) dx_j ^ dx_I over all coordinates j."""
    chart = a.chart
    terms = []
    for key, c in a.coeffs.items():
        for j, name in enumerate(chart.coords):
            if j in key:
                continue
            dc = differentiate(c, name)
            if _is_zero(dc):
                continue
            terms.append(((j,) + key, dc))
    return DifferentialForm.from_terms(chart, a.degree + 1, terms)


def interior_product(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Contraction on the first slot."""
    _require_same_chart(X, a)
    if a.degree == 0:
        raise ZeroDegree("cannot contract a 0-form")
    acc: dict[tuple, ScalarExpr] = {}
    for key, c in a.coeffs.items():
        for r, i in enumerate(key):
            comp = X.components[i]
            if _is_zero(comp):
                continue
            rest = key[:r] + key[r + 1:]
            term = comp * c if r % 2 == 0 else -(comp * c)
            acc[rest] = acc[rest] + term if rest in acc else term
    return DifferentialForm(a.chart, a.degree - 1, acc)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i)."""
    _require_same_chart(X, Y)
    comps = []
    for xc, yc in zip(X.components, Y.components):
        xy, yx = X.apply(yc), Y.apply(xc)
        comps.append(ZERO if _is_zero(xy) and _is_zero(yx) else xy - yx)
    return VectorField(X.chart, comps)


def pullback(phi: SmoothMap, a: DifferentialForm) -> DifferentialForm:
    """Pull a form on phi's target back to phi's source.

    Differentiates only the Jacobian rows of the coordinates in a's keys."""
    if a.chart != phi.target:
        raise ChartMismatch("form does not live on the map's target chart")
    src = phi.source
    binds = phi.bindings()
    if a.degree == 0:
        c = a.coeffs.get((), ZERO)
        return DifferentialForm.scalar(src, substitute(c, binds))
    if a.degree > src.dim:
        return DifferentialForm.zero(src, a.degree)
    rows = {i for key in a.coeffs for i in key}
    pulled_dx = {
        i: DifferentialForm(src, 1, {(j,): differentiate(phi.components[i], u)
                                     for j, u in enumerate(src.coords)})
        for i in rows
    }
    out = DifferentialForm.zero(src, a.degree)
    for key, c in a.coeffs.items():
        w = pulled_dx[key[0]]
        for i in key[1:]:
            w = wedge(w, pulled_dx[i])
        out = out + substitute(c, binds) * w
    return out


def prolongation(psi: SmoothMap) -> list[list[ScalarExpr]]:
    """First prolongation of psi: the Jacobian columns, one per source coordinate.

    Each column lists the d(psi^i)/dt^alpha expressions in source variables: a
    k-vector field along psi, consumed by residual evaluation after composing
    ambient coefficients with psi.
    """
    jac = psi.jacobian()
    k = psi.source.dim
    return [[jac[i][alpha] for i in range(psi.target.dim)] for alpha in range(k)]


def form_on_vectors(a: DifferentialForm, vectors: Sequence[Sequence[ExprLike]]) -> ScalarExpr:
    """Evaluate a degree-p form on p vectors given as component lists.

    Permutation products with a zero factor and keys whose determinant
    vanishes contribute no terms.
    """
    if len(vectors) != a.degree:
        raise ValueError(f"need {a.degree} vectors, got {len(vectors)}")
    vecs = [[as_expr(c) for c in v] for v in vectors]
    for v in vecs:
        if len(v) != a.chart.dim:
            raise ValueError("vector component count must equal the chart dimension")
    if a.degree == 0:
        return a.coeffs.get((), ZERO)
    terms = []
    for key, c in a.coeffs.items():
        products = []
        for perm in itertools.permutations(range(a.degree)):
            factors = [vecs[col][key[row]] for row, col in enumerate(perm)]
            if any(_is_zero(f) for f in factors):
                continue
            _, sign = sort_with_sign(perm)
            prod = Product.make(factors)
            products.append(prod if sign > 0 else -prod)
        det = Sum.make(products)
        if not _is_zero(det):
            terms.append(c * det)
    return Sum.make(terms)
