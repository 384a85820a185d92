"""The sparse symbolic solve: pivots, absent entries and singular systems."""

from __future__ import annotations

from fractions import Fraction

import pytest

import kontact.linalg as linalg
from kontact.config import RunConfig
from kontact.errors import SingularSystem
from kontact.expr import ONE, Rational, Var
from kontact.forms import Chart
from kontact.linalg import solve_symbolic
from kontact.zerotest import is_probably_zero

FAST = RunConfig(n_sample_points=16)
CHART = Chart(["x", "y"], constraints=[Var("x"), Var("y")],
              ranges={"x": (Fraction(1, 2), Fraction(2)), "y": (Fraction(1, 2), Fraction(2))})
x, y = Var("x"), Var("y")


def test_solves_on_present_entries():
    # x u0 + u1 = 1, y u1 = y: u1 = 1 and u0 = 0, with no entry for u0 in row 1
    sol = solve_symbolic([{0: x, 1: ONE}, {1: y}], [{0: ONE}, {0: y}], 2, CHART, FAST)
    assert is_probably_zero(sol[0].get(0, Rational(0)), CHART, FAST)
    assert is_probably_zero(sol[1][0] - 1, CHART, FAST)


def test_unknown_absent_from_every_row_is_named():
    with pytest.raises(SingularSystem, match=r"no pivot for unknowns \[1\] \(under-determined\)"):
        solve_symbolic([{0: x}, {2: y}, {0: y, 2: x}], [{0: ONE}, {}, {}], 3,
                       CHART, FAST)


def test_extra_row_without_rhs_entry_costs_no_zero_test(monkeypatch):
    asked = []

    def spy(e, domain, config):
        asked.append(e)
        return is_probably_zero(e, domain, config)

    monkeypatch.setattr(linalg, "is_probably_zero", spy)
    # x u0 = x and y u1 = 0, and the extra row x u1 = 0, whose right-hand
    # side stays empty through the elimination: the elimination zero-tests
    # only the pivots, and the back-substitution check only row 0's residual
    # -x + x * (x^-1 * x), since the other two rows leave no residual at all
    sol = solve_symbolic([{0: x}, {1: y}, {1: x}], [{0: x}, {}, {}], 2, CHART, FAST)
    assert asked[:2] == [x, y] and len(asked) == 3
    assert asked[2] == -x + x * sol[0][0]
    assert set(sol[0]) == {0} and sol[1] == {}


def test_inconsistent_row_raises():
    # u0 = 1 and u0 = 2
    with pytest.raises(SingularSystem, match=r"inconsistent equation \(row 1\)"):
        solve_symbolic([{0: x}, {0: x}], [{0: x}, {0: 2 * x}], 1, CHART, FAST)


def test_inconsistency_names_the_input_row():
    # x u0 = x, x u0 = 2x, y u1 = y: elimination swaps y u1 = y up into
    # row 1 as u1's pivot, but the inconsistent input row is row 1
    with pytest.raises(SingularSystem, match=r"inconsistent equation \(row 1\)"):
        solve_symbolic([{0: x}, {0: x}, {1: y}], [{0: x}, {0: 2 * x}, {0: y}], 2,
                       CHART, FAST)


def test_checked_solution_of_a_consistent_overdetermined_system():
    # u0 = 1 three ways, with a residual the zero test must decide each time
    sol = solve_symbolic([{0: x}, {0: y}, {0: x * y}], [{0: x}, {0: y}, {0: x * y}], 1,
                         CHART, FAST)
    assert is_probably_zero(sol[0][0] - 1, CHART, FAST)
