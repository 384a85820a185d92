"""Exterior calculus: wedge, d, contraction, Lie bracket, pullback, prolongation.

Lie derivatives of forms come from the test-side Cartan formula
(conftest.lie_derivative).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact import forms
from kontact.config import RunConfig
from kontact.errors import ChartMismatch, ZeroDegree
from kontact.expr import (ONE, ZERO, Rational, Var, as_expr, differentiate, free_variables,
                          substitute)
from kontact.forms import (
    Chart,
    DifferentialForm,
    SmoothMap,
    VectorField,
    exterior_derivative,
    form_on_vectors,
    interior_product,
    lie_bracket,
    parameter_chart,
    prolongation,
    pullback,
    sort_with_sign,
    wedge,
)
from kontact.zerotest import is_probably_zero

from conftest import lie_derivative, rand_chart, rand_expr, rand_form

FAST = RunConfig(n_sample_points=16)


def form_is_zero(f: DifferentialForm, config=FAST) -> bool:
    return all(is_probably_zero(c, f.chart, config) for c in f.coeffs.values())


@pytest.fixture
def spq():
    return Chart(["s", "q", "p"])


class TestSortWithSign:
    def test_parities(self):
        assert sort_with_sign((0, 1)) == ((0, 1), 1)
        assert sort_with_sign((1, 0)) == ((0, 1), -1)
        assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_with_sign((0, 0)) == ((0, 0), 0)

    def test_parity_matches_inversions(self):
        rng = random.Random(4)
        for _ in range(50):
            seq = rng.sample(range(8), rng.randint(2, 6))
            _, sign = sort_with_sign(seq)
            inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                             if seq[i] > seq[j])
            assert sign == (-1) ** inversions


class TestWedge:
    def test_antisymmetry(self, spq):
        dq = DifferentialForm.dx(spq, "q")
        dp = DifferentialForm.dx(spq, "p")
        assert not (wedge(dq, dp) + wedge(dp, dq)).coeffs

    def test_self_wedge_vanishes(self, spq):
        dq = DifferentialForm.dx(spq, "q")
        assert not wedge(dq, dq).coeffs

    def test_coefficient_placement(self):
        ch = Chart(["x", "y", "z"])
        a = Var("x") * DifferentialForm.dx(ch, "y")
        w = wedge(a, DifferentialForm.dx(ch, "z"))
        assert set(w.coeffs) == {(1, 2)}
        assert w.coeffs[(1, 2)] == Var("x")

    def test_degree_overflow_returns_zero_form(self):
        ch = Chart(["x", "y"])
        w2 = wedge(DifferentialForm.dx(ch, "x"), DifferentialForm.dx(ch, "y"))
        w3 = wedge(w2, DifferentialForm.dx(ch, "x"))
        assert not w3.coeffs
        assert w3.degree == 3

    def test_chart_mismatch(self, spq):
        other = Chart(["a", "b"])
        with pytest.raises(ChartMismatch):
            wedge(DifferentialForm.dx(spq, "q"), DifferentialForm.dx(other, "a"))


class TestExteriorDerivative:
    def test_canonical_contact_form(self, spq):
        eta = DifferentialForm(spq, 1, {(0,): 1, (1,): -Var("p")})  # ds - p dq
        d = exterior_derivative(eta)
        # -dp^dq = +dq^dp
        assert set(d.coeffs) == {(1, 2)}
        assert d.coeffs[(1, 2)] == Rational(Fraction(1))

    def test_d_squared_zero_random(self):
        rng = random.Random(17)
        for _ in range(20):
            ch = rand_chart(rng, rng.randint(2, 6))
            a = rand_form(rng, ch, rng.randint(0, 2))
            dd = exterior_derivative(exterior_derivative(a))
            assert form_is_zero(dd)

    def test_simple_two_form(self):
        ch = Chart(["S", "V"])
        a = Var("S") * DifferentialForm.dx(ch, "V")
        d = exterior_derivative(a)
        assert d.coeffs == {(0, 1): Rational(Fraction(1))}

    def test_graded_leibniz_random(self):
        rng = random.Random(19)
        for _ in range(15):
            ch = rand_chart(rng, rng.randint(3, 6))
            p = rng.randint(0, 2)
            a = rand_form(rng, ch, p)
            b = rand_form(rng, ch, rng.randint(0, 2))
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b)
            signed = wedge(a, exterior_derivative(b))
            rhs = rhs + signed if p % 2 == 0 else rhs - signed
            assert form_is_zero(lhs - rhs)


class TestInteriorProduct:
    def test_reeb_duality(self, spq):
        eta = DifferentialForm(spq, 1, {(0,): 1, (1,): -Var("p")})
        R = VectorField.coordinate(spq, "s")
        out = interior_product(R, eta)
        assert out.coeffs[()] == Rational(Fraction(1))

    def test_reeb_annihilates_differential(self, spq):
        deta = wedge(DifferentialForm.dx(spq, "q"), DifferentialForm.dx(spq, "p"))
        R = VectorField.coordinate(spq, "s")
        assert not interior_product(R, deta).coeffs

    def test_double_contraction_vanishes(self, spq):
        rng = random.Random(23)
        deta = wedge(DifferentialForm.dx(spq, "q"), DifferentialForm.dx(spq, "p"))
        for _ in range(10):
            X = VectorField(spq, [rand_expr(rng, list(spq.coords)) for _ in range(3)])
            out = interior_product(X, interior_product(X, deta))
            assert is_probably_zero(out.coeffs.get((), Rational(Fraction(0))), config=FAST)

    def test_zero_degree_raises(self, spq):
        f = DifferentialForm.scalar(spq, 3)
        with pytest.raises(ZeroDegree):
            interior_product(VectorField.coordinate(spq, "s"), f)


class TestLieBracket:
    def test_coordinate_fields_commute(self, spq):
        a = VectorField.coordinate(spq, "s")
        b = VectorField.coordinate(spq, "q")
        assert all(c == Rational(Fraction(0)) for c in lie_bracket(a, b).components)

    def test_textbook_bracket(self):
        ch = Chart(["x", "y"])
        X = VectorField(ch, [0, Var("x")])   # x d/dy
        Y = VectorField(ch, [Var("y"), 0])   # y d/dx
        br = lie_bracket(X, Y)
        # [x d_y, y d_x] = x d_x - y d_y
        assert is_probably_zero(br.components[0] - Var("x"), config=FAST)
        assert is_probably_zero(br.components[1] + Var("y"), config=FAST)

    def test_self_bracket_vanishes(self):
        rng = random.Random(29)
        ch = rand_chart(rng, 4)
        X = VectorField(ch, [rand_expr(rng, list(ch.coords)) for _ in range(4)])
        assert all(is_probably_zero(c, config=FAST) for c in lie_bracket(X, X).components)


class TestLieDerivative:
    def test_reeb_preserves_eta(self):
        from kontact.kcontact import canonical_structure

        s = canonical_structure(2, 2)
        for a in (1, 2):
            R = VectorField.coordinate(s.chart, f"s_{a}")
            for eta in s.eta:
                assert form_is_zero(lie_derivative(R, eta))

    def test_zero_form_is_directional_derivative(self, spq):
        rng = random.Random(31)
        f = rand_expr(rng, list(spq.coords), depth=3)
        X = VectorField(spq, [rand_expr(rng, list(spq.coords)) for _ in range(3)])
        lhs = lie_derivative(X, DifferentialForm.scalar(spq, f))
        assert is_probably_zero(lhs.coeffs.get((), Rational(Fraction(0))) - X.apply(f),
                                config=FAST)

    def test_momentum_form_invariant_along_base(self, spq):
        a = Var("p") * DifferentialForm.dx(spq, "q")
        X = VectorField.coordinate(spq, "q")
        assert form_is_zero(lie_derivative(X, a))

    def test_product_rule_under_wedge(self):
        rng = random.Random(37)
        for _ in range(8):
            ch = rand_chart(rng, 4)
            X = VectorField(ch, [rand_expr(rng, list(ch.coords)) for _ in range(4)])
            a = rand_form(rng, ch, 1)
            b = rand_form(rng, ch, 1)
            lhs = lie_derivative(X, wedge(a, b))
            rhs = wedge(lie_derivative(X, a), b) + wedge(a, lie_derivative(X, b))
            assert form_is_zero(lhs - rhs)

    def test_bracket_interior_identity(self):
        rng = random.Random(41)
        for _ in range(8):
            ch = rand_chart(rng, 4)
            X = VectorField(ch, [rand_expr(rng, list(ch.coords)) for _ in range(4)])
            Y = VectorField(ch, [rand_expr(rng, list(ch.coords)) for _ in range(4)])
            a = rand_form(rng, ch, 2)
            lhs = interior_product(lie_bracket(X, Y), a)
            rhs = (lie_derivative(X, interior_product(Y, a))
                   - interior_product(Y, lie_derivative(X, a)))
            assert form_is_zero(lhs - rhs)


def full_jacobian_pullback(phi: SmoothMap, a: DifferentialForm) -> DifferentialForm:
    """The reference pullback: differentiates every row of phi's Jacobian."""
    src, binds = phi.source, phi.bindings()
    if a.degree == 0:
        return DifferentialForm.scalar(src, substitute(a.coeffs.get((), ZERO), binds))
    if a.degree > src.dim:
        return DifferentialForm.zero(src, a.degree)
    jac = phi.jacobian()
    pulled_dx = [DifferentialForm(src, 1, {(j,): jac[i][j] for j in range(src.dim)})
                 for i in range(phi.target.dim)]
    out = DifferentialForm.zero(src, a.degree)
    for key, c in a.coeffs.items():
        w = pulled_dx[key[0]]
        for i in key[1:]:
            w = wedge(w, pulled_dx[i])
        out = out + substitute(c, binds) * w
    return out


class TestPullback:
    def test_identity_map(self, spq):
        rng = random.Random(43)
        a = rand_form(rng, spq, 2)
        out = pullback(SmoothMap.identity(spq), a)
        assert form_is_zero(out - a)

    def test_constant_momentum_graph(self, spq):
        eta = DifferentialForm(spq, 1, {(0,): 1, (1,): -Var("p")})
        base = Chart(["u"])
        graph = SmoothMap(base, spq, [0, Var("u"), 5])  # q -> (s=0, q, p=5)
        out = pullback(graph, eta)
        assert out.coeffs == {(0,): Rational(Fraction(-5))}

    def test_naturality_with_d(self):
        rng = random.Random(47)
        for _ in range(10):
            src = rand_chart(rng, 3)
            dst = Chart(["y_0", "y_1", "y_2", "y_3"])
            phi = SmoothMap(src, dst,
                            [rand_expr(rng, list(src.coords), depth=2) for _ in range(4)])
            a = rand_form(rng, dst, rng.randint(0, 2))
            lhs = pullback(phi, exterior_derivative(a))
            rhs = exterior_derivative(pullback(phi, a))
            assert form_is_zero(lhs - rhs)

    def test_wrong_chart(self, spq):
        other = Chart(["a"])
        mp = SmoothMap(other, other, [Var("a")])
        with pytest.raises(ChartMismatch):
            pullback(mp, DifferentialForm.dx(spq, "q"))

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_jacobian_and_differentiates_used_rows(self, seed):
        rng = random.Random(seed)
        src = rand_chart(rng, rng.randint(1, 3))
        dst = Chart([f"y_{i}" for i in range(rng.randint(3, 5))])
        phi = SmoothMap(src, dst, [rand_expr(rng, list(src.coords), depth=2)
                                   for _ in range(dst.dim)])
        degree = rng.randint(0, 2)
        # keys drawn from a proper subset of the target coordinates
        allowed = rng.sample(range(dst.dim), rng.randint(max(degree, 1), dst.dim - 1))
        coeffs = {tuple(sorted(rng.sample(allowed, degree))): rand_expr(rng, list(dst.coords))
                  for _ in range(rng.randint(1, 3))}
        a = DifferentialForm(dst, degree, coeffs)
        want = full_jacobian_pullback(phi, a)

        seen = []

        def counting(e, name):
            seen.append(e)
            return differentiate(e, name)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "differentiate", counting)
            got = pullback(phi, a)
        assert got.degree == want.degree and got.coeffs == want.coeffs
        used = {i for key in a.coeffs for i in key} if 1 <= degree <= src.dim else set()
        assert len(seen) == len(used) * src.dim
        assert all(any(e is phi.components[i] for i in used) for e in seen)


class TestProlongation:
    def test_linear_map_constant_columns(self):
        src = parameter_chart(2)
        dst = Chart(["y_0", "y_1"])
        psi = SmoothMap(src, dst, ["2*t_0 + 3*t_1", "t_0 - t_1"])
        cols = prolongation(psi)
        assert [[str(c) for c in col] for col in cols] == [["2", "1"], ["3", "-1"]]

    def test_constant_map_zero_prolongation(self):
        src = parameter_chart(2)
        dst = Chart(["y_0"])
        psi = SmoothMap(src, dst, ["5"])
        cols = prolongation(psi)
        assert all(str(c) == "0" for col in cols for c in col)


class TestFormOnVectors:
    def test_two_form_determinant(self):
        ch = Chart(["x", "y", "z"])
        w = wedge(DifferentialForm.dx(ch, "x"), DifferentialForm.dx(ch, "y"))
        v1 = [1, 0, 0]
        v2 = [0, 1, 0]
        assert form_on_vectors(w, [v1, v2]) == Rational(Fraction(1))
        assert form_on_vectors(w, [v2, v1]) == Rational(Fraction(-1))

    def test_matches_interior_product(self):
        rng = random.Random(53)
        ch = rand_chart(rng, 4)
        a = rand_form(rng, ch, 2)
        X = [rand_expr(rng, list(ch.coords)) for _ in range(4)]
        Y = [rand_expr(rng, list(ch.coords)) for _ in range(4)]
        via_ip = interior_product(VectorField(ch, Y),
                                  interior_product(VectorField(ch, X), a))
        direct = form_on_vectors(a, [X, Y])
        assert is_probably_zero(
            via_ip.coeffs.get((), Rational(Fraction(0))) - direct, config=FAST)


# Dense references: the coordinate-by-coordinate versions of apply,
# lie_bracket and form_on_vectors that the sparse ones must reproduce exactly.

def dense_apply(X: VectorField, f):
    f = as_expr(f)
    terms = [comp * differentiate(f, name)
             for comp, name in zip(X.components, X.chart.coords)]
    return sum(terms, ZERO)


def dense_lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    return VectorField(X.chart, [dense_apply(X, yc) - dense_apply(Y, xc)
                                 for xc, yc in zip(X.components, Y.components)])


def dense_form_on_vectors(a: DifferentialForm, vectors):
    vecs = [[as_expr(c) for c in v] for v in vectors]
    if a.degree == 0:
        return a.coeffs.get((), ZERO)
    total = ZERO
    for key, c in a.coeffs.items():
        det = ZERO
        for perm in itertools.permutations(range(a.degree)):
            _, sign = sort_with_sign(perm)
            prod = ONE
            for row, col in enumerate(perm):
                prod = prod * vecs[col][key[row]]
            det = det + (prod if sign > 0 else -prod)
        total = total + c * det
    return total


def sparse_components(rng: random.Random, chart: Chart, n_nonzero: int) -> list:
    """Mostly-zero components; nonzero ones mix constants and few-variable trees."""
    comps = [ZERO] * chart.dim
    for i in rng.sample(range(chart.dim), n_nonzero):
        if rng.random() < 0.2:
            comps[i] = Rational(Fraction(rng.randint(-2, 2)))
        else:
            comps[i] = rand_expr(rng, rng.sample(chart.coords, 4), depth=3)
    return comps


class TestSparseMatchesDense:
    @pytest.mark.parametrize("seed", range(12))
    def test_apply_and_bracket(self, seed):
        rng = random.Random(seed)
        ch = rand_chart(rng, 7)
        X = VectorField(ch, sparse_components(rng, ch, rng.randint(1, 4)))
        Y = VectorField(ch, sparse_components(rng, ch, rng.randint(1, 4)))
        f = rand_expr(rng, ch.coords, depth=3) + rand_expr(rng, ch.coords, depth=3)
        assert X.apply(f) == dense_apply(X, f)
        assert lie_bracket(X, Y).components == dense_lie_bracket(X, Y).components
        assert lie_bracket(Y, X).components == dense_lie_bracket(Y, X).components

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_form_on_vectors(self, seed, degree):
        rng = random.Random(100 * degree + seed)
        ch = rand_chart(rng, 7)
        a = rand_form(rng, ch, degree, n_terms=4)
        vectors = [sparse_components(rng, ch, rng.randint(1, 4)) for _ in range(degree)]
        assert form_on_vectors(a, vectors) == dense_form_on_vectors(a, vectors)

    def test_hydro_polarization_brackets(self):
        from kontact.hydro import hydro_polarization

        V = hydro_polarization(3)
        for X, Y in itertools.combinations(V[::3], 2):
            assert lie_bracket(X, Y).components == dense_lie_bracket(X, Y).components


class TestBracketWork:
    """Bracket work scales with nonzero components, not with dim^2 (1156 on hydro4)."""

    @staticmethod
    def count_differentiations(monkeypatch, X, Y) -> int:
        calls = []

        def counting(e, v):
            calls.append(v)
            return differentiate(e, v)

        monkeypatch.setattr(forms, "differentiate", counting)
        lie_bracket(X, Y)
        return len(calls)

    @staticmethod
    def bound(X, Y) -> int:
        """Nonzero components of one field times the free variables of the other."""
        def nnz(F):
            return sum(1 for c in F.components if c != ZERO)

        def n_free(F):
            return sum(len(free_variables(c)) for c in F.components)

        return nnz(X) * n_free(Y) + nnz(Y) * n_free(X)

    def test_hydro4_polarization_pair(self, monkeypatch):
        from kontact.hydro import hydro_polarization

        V = hydro_polarization(4)
        X, Y = V[0], V[16]    # beta_0 d/dS_0 + d/dT_0_0 and -xi d/dS_0 + d/dN_0
        assert self.count_differentiations(monkeypatch, X, Y) <= self.bound(X, Y) <= 8

    def test_field_moving_a_coefficient(self, monkeypatch):
        from kontact.hydro import hydro_polarization

        V = hydro_polarization(4)
        Y = V[16]             # -xi d/dS_0 + d/dN_0
        X = VectorField.coordinate(Y.chart, "xi") + V[0]
        count = self.count_differentiations(monkeypatch, X, Y)
        assert 1 <= count <= self.bound(X, Y) <= 12


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(["x", "x"])

    def test_equality_ignores_ranges(self):
        a = Chart(["x"], ranges={"x": (0, 1)})
        b = Chart(["x"])
        assert a == b

    def test_smooth_map_validates_variables(self):
        src = Chart(["u"])
        dst = Chart(["x", "y"])
        with pytest.raises(ValueError):
            SmoothMap(src, dst, [Var("u"), Var("w")])
