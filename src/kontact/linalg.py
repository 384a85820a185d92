"""Numeric rank/nullspace decisions and sparse symbolic Gauss-Jordan elimination.

Numeric ranks use SVD with the relative threshold RANK_THRESHOLD; symbolic
solves run over the expression field on sparse rows, with the sampling zero
test deciding pivots, and return a solution only after the zero test has
found it to satisfy every input row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import SingularSystem
from .expr import ZERO, Pow, Rational, ScalarExpr
from .forms import Chart
from .zerotest import is_probably_zero

__all__ = ["RANK_THRESHOLD", "numeric_rank", "nullspace_basis", "least_norm_solution",
           "solve_symbolic"]

RANK_THRESHOLD = 1e-8
"""Singular values above RANK_THRESHOLD * s_max count toward a numeric rank."""


def numeric_rank(M: np.ndarray) -> int | np.ndarray:
    """Rank by counting singular values above RANK_THRESHOLD * s_max.

    A stack M of shape (..., m, n) takes one SVD call for all its matrices
    and gives their ranks as an integer array of shape M.shape[:-2]; each
    equals the rank of its matrix alone."""
    if M.size == 0:
        return 0 if M.ndim == 2 else np.zeros(M.shape[:-2], dtype=int)
    s = np.linalg.svd(M, compute_uv=False)
    if M.ndim == 2:
        return int(np.count_nonzero(s > RANK_THRESHOLD * s[0]))
    return np.count_nonzero(s > RANK_THRESHOLD * s[..., :1], axis=-1)


def nullspace_basis(M: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, rows of the result: the
    rows rank: of the full V^T, rank defaulting to M's numeric rank."""
    if M.size == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.sum(s > RANK_THRESHOLD * s[0])) if rank is None else rank:]


def least_norm_solution(M: np.ndarray, b: np.ndarray) -> tuple:
    """(x, rank) from one thin SVD (Golub & Van Loan, Matrix Computations,
    4th ed., 5.5): M's minimum-norm least-squares solution and its numeric
    rank.

    A wide M is solved through the thin SVD of M^T, since pinv(M) =
    pinv(M^T)^T and LAPACK factors the tall M^T faster than the wide M.  The
    rank counts singular values above RANK_THRESHOLD * s_max, and x is
    V diag(1/s) U^T b over them in np.linalg.pinv's own arithmetic, so x
    equals pinv(M, RANK_THRESHOLD) @ b bit for bit where M is tall or
    square, and pinv(M.T, RANK_THRESHOLD).T @ b where M is wide.
    """
    if M.size == 0:
        return np.zeros(M.shape[1]), 0
    wide = M.shape[0] < M.shape[1]
    u, s, vt = np.linalg.svd(M.T if wide else M, full_matrices=False)
    large = s > RANK_THRESHOLD * np.maximum.reduce(s)  # np.amax without its wrapper
    s_inv = np.divide(1, s, where=large, out=s)
    s_inv[~large] = 0
    pinv = np.matmul(vt.T, np.multiply(s_inv[:, np.newaxis], u.T))
    return (pinv.T if wide else pinv) @ b, int(np.count_nonzero(large))


def solve_symbolic(
    rows: Sequence[dict[int, ScalarExpr]],
    rhs: Sequence[dict[int, ScalarExpr]],
    n: int,
    chart: Chart | None,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[dict[int, ScalarExpr]]:
    """Solve an overdetermined linear system in n unknowns over the expression
    field, by sparse Gauss-Jordan elimination.

    rows[i] holds equation i's coefficients as {unknown: coefficient} and
    rhs[i] its right-hand sides as {solve column: value}; an absent entry is
    zero, costs no zero test and is never scaled or subtracted.  Returns one
    such rhs dict per unknown, and only once it is checked: substituted back
    into every input row, it leaves residuals sum_col rows[i][col] *
    sol[col][j] - rhs[i][j] that pass the zero test (a structurally zero one
    costs none).  Requires a unique solution: raises SingularSystem when the
    system is under-determined, or inconsistent (naming the input row i of
    the first nonzero residual), ZeroTestInconclusive when a pivot or a
    residual cannot be decided.  Pivots are chosen scanning unknowns in
    order, first row whose entry is present and not probably zero.
    """
    A = [dict(r) for r in rows]
    B = [dict(r) for r in rhs]
    m = len(A)
    pivot_of_col: dict[int, int] = {}
    next_row = 0
    for col in range(n):
        piv = next((r for r in range(next_row, m)
                    if col in A[r] and not is_probably_zero(A[r][col], chart, config)), None)
        if piv is None:
            continue
        A[next_row], A[piv] = A[piv], A[next_row]
        B[next_row], B[piv] = B[piv], B[next_row]
        inv = Pow.make(A[next_row].pop(col), Fraction(-1))
        row = A[next_row] = {j: inv * e for j, e in A[next_row].items()}
        row_rhs = B[next_row] = {j: inv * e for j, e in B[next_row].items()}
        for other, other_rhs in zip(A, B):
            f = other.pop(col, None)
            if f is None or (isinstance(f, Rational) and f.value == 0):
                continue
            for j, p in row.items():
                other[j] = other.get(j, ZERO) - f * p
            for j, p in row_rhs.items():
                other_rhs[j] = other_rhs.get(j, ZERO) - f * p
        pivot_of_col[col] = next_row
        next_row += 1

    if len(pivot_of_col) < n:
        missing = [c for c in range(n) if c not in pivot_of_col]
        raise SingularSystem(f"no pivot for unknowns {missing} (under-determined)")
    sol = [B[pivot_of_col[col]] for col in range(n)]
    for i, (row, row_rhs) in enumerate(zip(rows, rhs)):
        residual = {j: -e for j, e in row_rhs.items()}
        for col, a in row.items():
            for j, x in sol[col].items():
                residual[j] = residual.get(j, ZERO) + a * x
        for j in sorted(residual):
            if residual[j] != ZERO and not is_probably_zero(residual[j], chart, config):
                raise SingularSystem(f"inconsistent equation (row {i})")
    return sol
