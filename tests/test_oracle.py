"""Independent oracle: kontact's symbolic results against sympy's.

Every other test checks a symbolic result against kontact's own evaluator, so
a bug shared by the builders and the evaluator would pass them; sympy solves
the same equations with none of kontact's code.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from kontact.bjorken import BjorkenFlow, contract_symmetric, shear_tensor
from kontact.config import RunConfig
from kontact.expr import (ZERO, Exp, Log, Pow, Product, Rational, Sum, Var, compile_expr,
                          differentiate, evaluate, free_variables, parse_expr, sqrt,
                          substitute)
from kontact.fileio import load_structure_file, resolve_structure
from kontact.hddw import (KContactHamiltonianSystem, _k1_field, expected_nullspace_dim,
                          solve_hddw_at_point)
from kontact.idealgas import isentropic_hamiltonian
from kontact.kcontact import compute_reeb, verify_kcontact
from kontact.runner import float_runner

from conftest import PlaneFlow, SlabFlow, expression_pivot_structure, rand_expr

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")  # a dependency of sympy

FAST = RunConfig(n_sample_points=16)


@pytest.mark.parametrize("name", ["canonical:2,2", "thermo", "hydro2", "expression_pivot"])
def test_reeb_frame_matches_linsolve(name):
    # sympy's linsolve of eta^beta(R_alpha) = delta and d eta^beta(R_alpha, e_j) = 0,
    # on the coefficients' printed forms
    s = (expression_pivot_structure() if name == "expression_pivot"
         else resolve_structure(name)[0])
    names = {c: sympy.Symbol(c) for c in s.chart.coords}

    def sym(c):
        return sympy.sympify(str(c), locals=names)

    R = sympy.symbols(f"r0:{s.dim}")
    frame = compute_reeb(s, FAST)
    for alpha in range(s.k):
        eqs = [sum(sym(c) * R[i] for (i,), c in eta.coeffs.items()) - int(beta == alpha)
               for beta, eta in enumerate(s.eta)]
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
    s = resolve_structure(name)[0]
    k, dim = s.k, s.dim
    point = {c: sympy.Rational(i + 2, 7) for i, c in enumerate(s.chart.coords)}
    names = {c: sympy.Symbol(c) for c in s.chart.coords}

    def at(c):
        return sympy.sympify(str(c), locals=names).subs(
            {names[v]: value for v, value in point.items()})

    A = sympy.zeros(dim + 1, k * dim)
    for alpha, (eta, d) in enumerate(zip(s.eta, s.d_eta)):
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
    s = resolve_structure(name)[0]
    dim = s.dim
    names = {c: sympy.Symbol(c) for c in s.chart.coords}
    run, _ = _k1_field(KContactHamiltonianSystem(s, H, config=FAST))
    Hs = sympy.sympify(H, locals=names)
    [eta], [d_eta] = s.eta, s.d_eta
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
    """The sympy tree of a kontact tree, node by node."""
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
    if isinstance(e, Exp):
        return sympy.exp(_to_sympy(e.arg))
    if isinstance(e, Log):
        return sympy.log(_to_sympy(e.arg))
    raise TypeError(f"no expression node: {type(e).__name__}")


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


def _transcendental_tree(rng):
    """A rand_expr tree with exp or log, times sqrt(u^2 + 1) for a u that is
    not constant: defined everywhere."""
    e = rand_expr(rng, _NAMES, depth=3, transcendental=True)
    while "exp(" not in str(e) and "log(" not in str(e):
        e = rand_expr(rng, _NAMES, depth=3, transcendental=True)
    u = rand_expr(rng, _NAMES)
    while not free_variables(u):
        u = rand_expr(rng, _NAMES)
    return e * sqrt(u * u + 1)


def _close(got, want):
    assert abs(float(got) - float(want)) <= 1e-9 * (1 + abs(float(want)))


@pytest.mark.parametrize("seed", range(16))
def test_transcendental_trees_match_sympy(seed):
    # differentiate against sympy.diff and substitute against subs by value
    # at rational points; float_runner and Program.run_float against
    # sympy.lambdify (mpmath, 30 digits) at the same points as floats
    rng = random.Random(1000 + seed)
    e = _transcendental_tree(rng)
    bindings = {"x": rand_expr(rng, _NAMES), "y": Var("x")}
    symbols = [sympy.Symbol(n) for n in _NAMES]
    S = _to_sympy(e)
    subbed = S.subs({sympy.Symbol(n): _to_sympy(b) for n, b in bindings.items()},
                    simultaneous=True)
    derivatives = [differentiate(e, v) for v in _NAMES]
    want_derivatives = [sympy.diff(S, v) for v in symbols]
    exprs = [e, *derivatives]
    lambdas = [sympy.lambdify(symbols, w, "mpmath") for w in [S, *want_derivatives]]
    run = float_runner(exprs)
    columns = {n: np.array([float(p[n]) for p in _POINTS]) for n in _NAMES}
    for p in _POINTS:
        exact = {sympy.Symbol(n): sympy.Rational(q) for n, q in p.items()}
        _close(evaluate(e, p), S.subs(exact).evalf(30))
        _close(evaluate(substitute(e, bindings), p), subbed.subs(exact).evalf(30))
        for de, dS in zip(derivatives, want_derivatives):
            _close(evaluate(de, p), dS.subs(exact).evalf(30))
        floats = [float(p[n]) for n in _NAMES]
        with mpmath.workdps(30):
            for got, f in zip(run({n: float(q) for n, q in p.items()}), lambdas):
                _close(got, f(*floats))
    for ex, f in zip(exprs, lambdas):
        program = compile_expr(ex)
        value, _, skip = program.run_float(
            {n: columns[n] for n in program.free_vars}, len(_POINTS))
        assert not skip.any()
        with mpmath.workdps(30):
            for i, got in enumerate(value):
                _close(got, f(*(columns[n][i] for n in _NAMES)))


@pytest.mark.parametrize("name", ["hydro2", "canonical:2,2", "thermo", "repeated_row"])
def test_rank_table_matches_matrix_rank(name, tmp_path):
    # verify_kcontact's per-point (eta_rank, ker_deta_dim, intersection_dim)
    # against sympy's exact ranks of eta, the stacked d-eta and both, built
    # from the forms' coefficients at the table's rational points
    if name == "repeated_row":
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({
            "chart": {"coords": ["s_1", "s_2", "q", "p_1", "p_2"]},
            "forms": {"e1": {"coeffs": {"0": "1", "2": "-p_1"}},
                      "e2": {"coeffs": {"1": "1", "2": "-p_2*q"}},
                      "e3": {"coeffs": {"0": "1", "2": "-p_1"}}},
            "eta": ["e1", "e2", "e3"]}))
        s = load_structure_file(path)
    else:
        s = resolve_structure(name)[0]
    dim = s.dim
    corank = verify_kcontact(s, n_points=3, config=FAST)[0]
    assert corank.name == "corank_condition"
    for row in corank.detail["rank_table"]:
        point = {sympy.Symbol(c): sympy.Rational(v) for c, v in row["point"].items()}

        def at(c):
            return _to_sympy(c).subs(point)

        eta = sympy.zeros(s.k, dim)
        for alpha, f in enumerate(s.eta):
            for (i,), c in f.coeffs.items():
                eta[alpha, i] = at(c)
        deta = sympy.zeros(s.k * dim, dim)
        for alpha, d in enumerate(s.d_eta):
            for (i, j), c in d.coeffs.items():
                deta[alpha * dim + i, j], deta[alpha * dim + j, i] = at(c), -at(c)
        want = (eta.rank(), dim - deta.rank(), dim - eta.col_join(deta).rank())
        assert (row["eta_rank"], row["ker_deta_dim"], row["intersection_dim"]) == want


def _rank4_shear(u, axes):
    """sigma^{mu nu} = Delta^{mu nu}_{alpha beta} d^alpha u^beta in sympy, from the
    rank-4 projector (1/2)(Delta^mu_alpha Delta^nu_beta + Delta^mu_beta
    Delta^nu_alpha) - (1/3) Delta^{mu nu} Delta_{alpha beta}, g = diag(1, -1, -1, -1);
    axes maps the indices u depends on to their sympy coordinates."""
    g = sympy.diag(1, -1, -1, -1)
    u = sympy.Matrix(u)
    delta = g - u * u.T     # Delta^{mu nu}
    mixed = delta * g       # Delta^mu_alpha
    lowered = g * delta * g  # Delta_{alpha beta}
    grad = g * sympy.Matrix(4, 4, lambda a, b: sympy.diff(u[b], axes[a]) if a in axes else 0)

    def projector(m, n, a, b):
        return ((mixed[m, a] * mixed[n, b] + mixed[m, b] * mixed[n, a]) / 2
                - delta[m, n] * lowered[a, b] / 3)

    return sympy.Matrix(4, 4, lambda m, n: sum(projector(m, n, a, b) * grad[a, b]
                                                for a in range(4) for b in range(4)))


class VortexFlow(PlaneFlow):
    """u = (sqrt(1+x^2+y^2), -y, x, 0): a rotating flow, so nabla^mu u^nu is not
    symmetric."""

    def __init__(self):
        super().__init__()
        x, y = Var("x"), Var("y")
        self.set_velocity((sqrt(1 + x * x + y * y), -y, x, ZERO))


@pytest.mark.parametrize("name", ["bjorken", "slab", "plane", "vortex"])
def test_shear_matches_rank4_projection(name):
    # shear_tensor's (1/2)(nabla^mu u^nu + nabla^nu u^mu) - (1/3) Delta theta
    # against the rank-4 definition, entry by entry, by sympy.simplify
    flows = {"bjorken": BjorkenFlow, "slab": SlabFlow, "plane": PlaneFlow, "vortex": VortexFlow}
    flow = flows[name]()
    axes = {0: "t", 3: "z"} if name == "bjorken" else flow.axes
    want = _rank4_shear([_to_sympy(c) for c in flow.u],
                        {mu: sympy.Symbol(c) for mu, c in axes.items()})
    got = shear_tensor(flow)
    for m in range(4):
        for n in range(4):
            assert sympy.simplify(_to_sympy(got[m][n]) - want[m, n]) == 0, (m, n)


def test_bjorken_sigma_squared_is_two_thirds_theta_squared():
    flow = BjorkenFlow()
    defect = contract_symmetric(flow.sigma, flow.sigma) - Fraction(2, 3) * flow.theta * flow.theta
    assert sympy.simplify(_to_sympy(defect)) == 0
