"""The sparse symbolic solve: pivots, absent entries and singular systems;
numeric ranks of stacked matrices; the least-norm solve of tall, square and
wide matrices."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kontact.linalg as linalg
from kontact.config import RunConfig
from kontact.errors import SingularSystem
from kontact.expr import ONE, Rational, Var
from kontact.forms import Chart
from kontact.linalg import numeric_rank, solve_symbolic
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


# ---------------------------------------------------------------------------
# numeric_rank of a stack: one SVD call, each matrix's rank as if alone

@st.composite
def _stacks(draw):
    """A stack (count, m, n) of matrices of random rank, each with its
    columns scaled by powers of ten, with exactly zero matrices among them."""
    count, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, m, n))
    for M in stack:
        rank = draw(st.integers(0, min(m, n)))
        M[:] = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        M *= 10.0 ** rng.integers(-12, 13, size=n)
    return stack


@given(_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_ranks_equal_the_per_matrix_ranks(stack):
    ranks = numeric_rank(stack)
    assert ranks.shape == stack.shape[:1]
    assert ranks.tolist() == [numeric_rank(M) for M in stack]
    assert all(type(numeric_rank(M)) is int for M in stack)


def test_stack_of_empty_matrices_has_rank_zero():
    assert numeric_rank(np.zeros((3, 0, 4))).tolist() == [0, 0, 0]
    assert numeric_rank(np.zeros((0, 2, 2))).tolist() == []
    assert numeric_rank(np.zeros((0, 4))) == 0


def test_stack_takes_one_svd(monkeypatch):
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: calls.append(M.shape) or real(M, **kw))
    stack = np.stack([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1e-9, 0.0])])
    assert numeric_rank(stack).tolist() == [3, 0, 1]
    assert calls == [(3, 3, 3)]


# ---------------------------------------------------------------------------
# least_norm_solution: pinv's arithmetic on M, or on M^T where M is wide

def _system(m, n, r, seed, rows, cols):
    """(M, b, r): an m x n M of rank at most r from the generator seeded
    with seed, its rows and columns listed zeroed, and a right-hand side b."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    M[rows, :] = 0
    M[:, cols] = 0
    return M, rng.standard_normal(m), r


@st.composite
def _systems(draw):
    """A tall, square or wide _system, some of its rows and columns zeroed."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    r = draw(st.integers(0, min(m, n)))
    return _system(m, n, r, seed, draw(st.lists(st.integers(0, m - 1), max_size=2)),
                   draw(st.lists(st.integers(0, n - 1), max_size=2)))


# Normwise forward error of the least-norm solution: for a full-rank M, both
# x and numpy's pinv(M) @ b lie within c * eps * cond(M) * |x| of the exact
# solution, by the perturbation theory of least-squares and underdetermined
# systems and the backward stability of the SVD (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sections 20.1 and 21.1).  c is
# a low-degree polynomial in the dimensions; 100 is five times the worst
# ratio seen, 20.7, over 16,910 systems with cond(M) < 1e6 drawn like
# _systems (dimensions <= 9).
FORWARD_ERROR_C = 100


@given(_systems())
# column 0 is zero, so x[0] is 0 exactly; x reads 3.1e-11 there, pinv(M) @ b 5.1e-11
@example(_system(8, 9, 8, 0, [], [0]))
@settings(max_examples=300, deadline=None)
def test_least_norm_solution_is_pinv_of_the_tall_side(system):
    M, b, r = system
    x, rank = linalg.least_norm_solution(M, b)
    RT = linalg.RANK_THRESHOLD
    m, n = M.shape
    want = np.linalg.pinv(M, RT) @ b if m >= n else np.linalg.pinv(M.T, RT).T @ b
    assert np.array_equal(x, want)
    assert rank <= r
    cond = np.linalg.cond(M)
    if cond < 1e6:
        assert rank == min(m, n)
        bound = FORWARD_ERROR_C * np.finfo(float).eps * cond * np.max(np.abs(x))
        assert np.max(np.abs(x - np.linalg.pinv(M) @ b)) <= bound


@given(_systems(), st.lists(st.booleans(), min_size=9, max_size=9))
@settings(max_examples=200, deadline=None)
def test_zero_right_hand_side_takes_the_rank_only(system, negative):
    # b = 0, some entries -0.0: x is 0, all +0.0, and the rank is the tall
    # side's numeric rank, the one the thin-SVD path reads for a nonzero b
    M, b, r = system
    m, n = M.shape
    zero = np.where(negative[:m], -0.0, 0.0)
    x, rank = linalg.least_norm_solution(M, zero)
    assert x.shape == (n,)
    assert np.array_equal(x, np.zeros(n)) and not np.signbit(x).any()
    assert type(rank) is int
    assert rank == numeric_rank(M if m >= n else M.T)
    assert rank == linalg.least_norm_solution(M, b)[1]
    assert rank <= r


def test_zero_right_hand_side_takes_no_u_or_v(monkeypatch):
    # one SVD of the tall side, singular values only: a wide M is factored
    # transposed
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda M, **kw: calls.append((M.shape, kw)) or real(M, **kw))
    for shape in ((5, 3), (3, 3), (3, 5)):
        M = np.arange(1.0, 16.0)[:shape[0] * shape[1]].reshape(shape)
        linalg.least_norm_solution(M, np.zeros(shape[0]))
    assert calls == [((5, 3), {"compute_uv": False}), ((3, 3), {"compute_uv": False}),
                     ((5, 3), {"compute_uv": False})]
