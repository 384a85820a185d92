"""Numeric rank/nullspace decisions and symbolic Gaussian elimination.

Numeric ranks use SVD with the relative threshold RANK_THRESHOLD; symbolic
solves run over the expression field with the sampling zero test deciding
pivots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import SingularSystem
from .expr import Pow, Rational, ScalarExpr
from .zerotest import SampleDomain, is_probably_zero

__all__ = ["RANK_THRESHOLD", "numeric_rank", "nullspace_basis", "least_norm_solution",
           "solve_symbolic"]

RANK_THRESHOLD = 1e-8
"""Singular values above RANK_THRESHOLD * s_max count toward a numeric rank."""


def numeric_rank(M: np.ndarray) -> int:
    """Rank by counting singular values above RANK_THRESHOLD * s_max."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_THRESHOLD * s[0]))


def nullspace_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, rows of the result."""
    if M.size == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.sum(s > RANK_THRESHOLD * s[0])):]


def least_norm_solution(M: np.ndarray, b: np.ndarray) -> tuple:
    """(x, rank, nullspace) from one SVD (Golub & Van Loan, Matrix Computations,
    4th ed., 5.5): M's minimum-norm least-squares solution, its numeric rank
    and an orthonormal basis of its right nullspace (rows).

    The rank counts singular values above RANK_THRESHOLD * s_max, and x is
    V diag(1/s) U^T b over them in np.linalg.pinv's own arithmetic, so where
    M is not wide (the SVD is thin) x equals pinv(M, RANK_THRESHOLD) @ b bit
    for bit.  A wide M takes the full SVD, for its nullspace.
    """
    m, n = M.shape
    if M.size == 0:
        return np.zeros(n), 0, np.eye(n)
    u, s, vt = np.linalg.svd(M, full_matrices=n > m)
    large = s > RANK_THRESHOLD * np.amax(s)
    rank = int(np.count_nonzero(large))
    s_inv = np.divide(1, s, where=large, out=s)
    s_inv[~large] = 0
    x = np.matmul(vt[:len(s)].T, np.multiply(s_inv[:, np.newaxis], u.T)) @ b
    return x, rank, vt[rank:]


def solve_symbolic(
    rows: Sequence[Sequence[ScalarExpr]],
    rhs: Sequence[Sequence[ScalarExpr]],
    domain: SampleDomain,
    config: RunConfig = DEFAULT_CONFIG,
    what: str = "linear system",
) -> list[list[ScalarExpr]]:
    """Solve an overdetermined linear system over the expression field.

    rows[i] holds the coefficients of equation i, rhs[i] the corresponding
    right-hand sides (one per solve column).  Requires a unique solution:
    raises SingularSystem when the system is under-determined or inconsistent,
    ZeroTestInconclusive when a pivot cannot be decided.  Gauss-Jordan with
    pivots chosen scanning columns in chart order, first not-probably-zero row.
    """
    m = len(rows)
    if m == 0:
        raise SingularSystem(f"{what}: no equations")
    n = len(rows[0])
    n_rhs = len(rhs[0])
    A = [list(r) for r in rows]
    B = [list(r) for r in rhs]

    pivot_of_col: dict[int, int] = {}
    next_row = 0
    for col in range(n):
        piv = None
        for r in range(next_row, m):
            if not is_probably_zero(A[r][col], domain, config):
                piv = r
                break
        if piv is None:
            continue
        A[next_row], A[piv] = A[piv], A[next_row]
        B[next_row], B[piv] = B[piv], B[next_row]
        inv = Pow.make(A[next_row][col], Fraction(-1))
        A[next_row] = [inv * e for e in A[next_row]]
        B[next_row] = [inv * e for e in B[next_row]]
        A[next_row][col] = Rational(Fraction(1))
        for r in range(m):
            if r == next_row:
                continue
            f = A[r][col]
            if isinstance(f, Rational) and f.value == 0:
                continue
            A[r] = [a - f * p for a, p in zip(A[r], A[next_row])]
            B[r] = [b - f * p for b, p in zip(B[r], B[next_row])]
            A[r][col] = Rational(Fraction(0))
        pivot_of_col[col] = next_row
        next_row += 1

    if len(pivot_of_col) < n:
        missing = [c for c in range(n) if c not in pivot_of_col]
        raise SingularSystem(f"{what}: no pivot for unknowns {missing} (under-determined)")
    for r in range(next_row, m):
        for j in range(n_rhs):
            if not is_probably_zero(B[r][j], domain, config):
                raise SingularSystem(f"{what}: inconsistent equation (row {r})")

    return [[B[pivot_of_col[col]][j] for j in range(n_rhs)] for col in range(n)]

