"""Independent oracle: kontact's symbolic results against sympy's.

Every other test checks a symbolic result against kontact's own evaluator, so
a bug shared by the builders and the evaluator would pass them; sympy solves
the same equations with none of kontact's code.
"""

from __future__ import annotations

import pytest

from kontact.config import RunConfig
from kontact.fileio import resolve_structure
from kontact.kcontact import compute_reeb

from conftest import expression_pivot_structure

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
