"""Numeric rank/nullspace decisions and symbolic Gaussian elimination.

Numeric ranks use SVD with a relative threshold; symbolic solves run over the
expression field with the sampling zero test deciding pivots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import SingularSystem, ZeroTestInconclusive
from .expr import Pow, Rational, ScalarExpr
from .zerotest import SampleDomain, zero_test

__all__ = ["numeric_rank", "nullspace_basis", "least_norm_solution", "solve_symbolic"]


def numeric_rank(M: np.ndarray, rel_threshold: float) -> int:
    """Rank by counting singular values above rel_threshold * s_max."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_threshold * s[0]))


def nullspace_basis(M: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, rows of the result."""
    if M.size == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    cutoff = rel_threshold * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cutoff)) if len(s) else 0
    return vh[rank:]


def least_norm_solution(M: np.ndarray, b: np.ndarray, rel_threshold: float) -> np.ndarray:
    """Minimum-norm least-squares solution via the pseudoinverse."""
    if M.size == 0:
        return np.zeros(M.shape[1])
    return np.linalg.pinv(M, rcond=rel_threshold) @ b


def _is_zero_entry(e: ScalarExpr, domain: SampleDomain, config: RunConfig,
                   context: str) -> bool:
    if isinstance(e, Rational):
        return e.value == 0
    res = zero_test(e, domain, config)
    if res.inconclusive:
        raise ZeroTestInconclusive(
            f"{context}: entry neither clearly zero nor nonzero (max |value| {res.max_abs:.2e})")
    return res.is_zero


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
            if not _is_zero_entry(A[r][col], domain, config, f"{what} pivot (col {col})"):
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
            if not _is_zero_entry(B[r][j], domain, config, f"{what} consistency"):
                raise SingularSystem(f"{what}: inconsistent equation (row {r})")

    return [[B[pivot_of_col[col]][j] for j in range(n_rhs)] for col in range(n)]

