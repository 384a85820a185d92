"""Independent oracle: kontact's symbolic results against sympy's.

Every other test checks a symbolic result against kontact's own evaluator, so
a bug shared by the builders and the evaluator would pass them; sympy solves
the same equations with none of kontact's code.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from kontact.config import RunConfig
from kontact.expr import (Pow, Product, Rational, Sum, Var, differentiate, evaluate,
                          parse_expr, substitute)
from kontact.fileio import resolve_structure
from kontact.hddw import (KContactHamiltonianSystem, _k1_field, expected_nullspace_dim,
                          solve_hddw_at_point)
from kontact.idealgas import isentropic_hamiltonian
from kontact.kcontact import compute_reeb

from conftest import expression_pivot_structure, rand_expr

sympy = pytest.importorskip("sympy")

FAST = RunConfig(n_sample_points=16)


@pytest.mark.parametrize("name", ["canonical:2,2", "thermo", "hydro2", "expression_pivot"])
def test_reeb_frame_matches_linsolve(name):
    # sympy's linsolve of eta^beta(R_alpha) = delta and d eta^beta(R_alpha, e_j) = 0,
    # on the coefficients' printed forms
    s = (expression_pivot_structure() if name == "expression_pivot"
         else resolve_structure(name).structure)
    names = {c: sympy.Symbol(c) for c in s.chart.coords}

    def sym(c):
        return sympy.sympify(str(c), locals=names)

    R = sympy.symbols(f"r0:{s.dim}")
    frame = compute_reeb(s, FAST)
    for alpha in range(s.k):
        eqs = [sum(sym(c) * R[i] for (i,), c in eta.coeffs.items()) - int(beta == alpha)
               for beta, eta in enumerate(s.eta.forms)]
        for d in s.d_eta:
            M = sympy.zeros(s.dim, s.dim)
            for (i, j), c in d.coeffs.items():
                M[i, j], M[j, i] = sym(c), -sym(c)
            eqs += list(sympy.Matrix([R]) * M)
        (want,) = sympy.linsolve(eqs, R)
        assert not set(R) & set().union(*(w.free_symbols for w in want))
        got = [sym(c) for c in frame[alpha].components]
        assert [sympy.simplify(g - w) for g, w in zip(got, want)] == [0] * s.dim


@pytest.mark.parametrize("name", ["thermo", "hydro2", "canonical:2,2"])
def test_hddw_rank_matches_matrix_rank(name):
    # the HdDW matrix [d-eta^T; eta] at one rational point, built by sympy
    # from the coefficients' printed forms and ranked exactly: its nullspace
    # has the dimension (k-1)(dim-k) + k^2 - 1, as the float solve finds
    s = resolve_structure(name).structure
    k, dim = s.k, s.dim
    point = {c: sympy.Rational(i + 2, 7) for i, c in enumerate(s.chart.coords)}
    names = {c: sympy.Symbol(c) for c in s.chart.coords}

    def at(c):
        return sympy.sympify(str(c), locals=names).subs(
            {names[v]: value for v, value in point.items()})

    A = sympy.zeros(dim + 1, k * dim)
    for alpha, (eta, d) in enumerate(zip(s.eta.forms, s.d_eta)):
        for (i,), c in eta.coeffs.items():
            A[dim, alpha * dim + i] = at(c)
        for (i, j), c in d.coeffs.items():
            A[j, alpha * dim + i], A[i, alpha * dim + j] = at(c), -at(c)
    rank = A.rank()
    assert rank == k * dim - expected_nullspace_dim(k, dim)
    sol = solve_hddw_at_point(KContactHamiltonianSystem(s, 0),
                              {c: float(v) for c, v in point.items()})
    assert sol.nullspace_dim == k * dim - rank


@pytest.mark.parametrize("name, H", [
    ("thermo", str(isentropic_hamiltonian(Fraction(5, 2)))),
    ("canonical:2,1", "p_1_1^2*q_2 - s_1*q_1 + p_1_2*q_1^2/3"),
], ids=["thermo", "canonical:2,1"])
def test_k1_field_matches_lusolve(name, H):
    # at dyadic points, exact as floats: X from sympy's LUsolve of the
    # (dim+1) x dim system [d-eta^T; eta] X = [dH - (R H) eta; -H], with R
    # solved by LUsolve from eta(R) = 1, iota_R d-eta = 0, all built from the
    # printed coefficients, against the symbolic field's runner
    s = resolve_structure(name).structure
    dim = s.dim
    names = {c: sympy.Symbol(c) for c in s.chart.coords}
    run, _, _ = _k1_field(KContactHamiltonianSystem(s, H, config=FAST))
    Hs = sympy.sympify(H, locals=names)
    [eta], [d_eta] = s.eta.forms, s.d_eta
    for shift in range(3):
        point = {c: sympy.Rational(i + 3 + shift, 8) for i, c in enumerate(s.chart.coords)}

        def at(e):
            return sympy.N(e.subs({names[c]: v for c, v in point.items()}), 40)

        eta_row = sympy.zeros(1, dim)
        for (i,), c in eta.coeffs.items():
            eta_row[i] = at(sympy.sympify(str(c), locals=names))
        M = sympy.zeros(dim, dim)
        for (i, j), c in d_eta.coeffs.items():
            M[i, j] = at(sympy.sympify(str(c), locals=names))
            M[j, i] = -M[i, j]
        R = eta_row.col_join(M.T).LUsolve(sympy.Matrix([1] + [0] * dim))
        grad = sympy.Matrix([at(sympy.diff(Hs, names[c])) for c in s.chart.coords])
        b = (grad - (R.T * grad)[0] * eta_row.T).col_join(sympy.Matrix([-at(Hs)]))
        want = np.array(M.T.col_join(eta_row).LUsolve(b), dtype=float).ravel()
        got = np.array(run({c: float(v) for c, v in point.items()})[:dim])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_NAMES = ["x", "y", "z"]
_POINTS = [{"x": Fraction(2, 3), "y": Fraction(-5, 4), "z": Fraction(7, 2)},
           {"x": Fraction(-1, 5), "y": Fraction(3), "z": Fraction(1, 7)},
           {"x": Fraction(9, 8), "y": Fraction(1, 3), "z": Fraction(-2)}]


def _to_sympy(e):
    """The sympy tree of a polynomial kontact tree, node by node."""
    if isinstance(e, Rational):
        return sympy.Rational(e.value)
    if isinstance(e, Var):
        return sympy.Symbol(e.name)
    if isinstance(e, Sum):
        return sympy.Add(*map(_to_sympy, e.terms))
    if isinstance(e, Product):
        return sympy.Mul(*map(_to_sympy, e.factors))
    if isinstance(e, Pow):
        return sympy.Pow(_to_sympy(e.base), sympy.Rational(e.exponent))
    raise TypeError(f"no polynomial node: {type(e).__name__}")


def _sympy_value(S, point) -> Fraction:
    v = S.subs({sympy.Symbol(n): sympy.Rational(q) for n, q in point.items()})
    assert v.is_Rational
    return Fraction(int(v.p), int(v.q))


@pytest.mark.parametrize("seed", range(16))
def test_expression_layer_matches_sympy(seed):
    # differentiate against sympy.diff, substitute against subs and the
    # printed form against the tree, by exact values at rational points
    rng = random.Random(seed)
    e = rand_expr(rng, _NAMES, depth=3)
    while isinstance(e, (Rational, Var)):  # a leaf tests no rule
        e = rand_expr(rng, _NAMES, depth=3)
    bindings = {"x": rand_expr(rng, _NAMES), "y": Var("x")}
    S = _to_sympy(e)
    subbed = S.subs({sympy.Symbol(n): _to_sympy(b) for n, b in bindings.items()},
                    simultaneous=True)
    derivatives = [(differentiate(e, v), sympy.diff(S, sympy.Symbol(v))) for v in _NAMES]
    printed = parse_expr(str(e))
    for p in _POINTS:
        want = _sympy_value(S, p)
        assert evaluate(e, p) == want and evaluate(printed, p) == want
        assert evaluate(substitute(e, bindings), p) == _sympy_value(subbed, p)
        for de, dS in derivatives:
            assert evaluate(de, p) == _sympy_value(dS, p)
