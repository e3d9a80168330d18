"""Dense linear-algebra kernels used by the samplers and estimators.

Everything operates on float64 numpy arrays and is a pure function of its
inputs, so all routines are safe to call concurrently.  Solves go through
Cholesky factorization; a full matrix inverse is never formed (only the
inverse of a triangular factor, when accumulating a trace).
"""

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky, solve_triangular

from .errors import DegenerateSchur, DimensionError, NonFiniteInput, NotPositiveDefinite


def as_matrix(a):
    """Coerce to a finite 2-d float64 array.

    Raises DimensionError for a wrong shape and NonFiniteInput, naming the
    first offending position, for a NaN or infinite entry.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError("matrix dimensions must be positive")
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteInput(f"matrix entry at row {i}, column {j} is {a[i, j]}, not finite")
    return a


def as_vector(x):
    """Coerce to a 1-d float64 array, raising DimensionError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={x.ndim}")
    return x


def schur_threshold(q_ii):
    """Positivity floor for Schur complements: 1e-12 * max(1, q_ii)."""
    return 1e-12 * np.maximum(1.0, q_ii)


def trace_inverse(a):
    """Trace of the inverse of a symmetric positive-definite matrix.

    Factors a = L L^T once and accumulates the squared Frobenius norm of
    L^{-1}, which equals sum_k 1/lambda_k.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    try:
        lower = cholesky(a, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    linv = solve_triangular(lower, np.eye(a.shape[0]), lower=True, check_finite=False)
    return float(np.einsum("ij,ij->", linv, linv))


def block_inverse_update(q_inv, p, q_ii):
    """Inverse of a symmetric matrix augmented by one row/column.

    Given q_inv, the inverse of the current t x t block, the border column p
    and the new diagonal entry q_ii, returns the (t+1) x (t+1) inverse with
    top-left block q_inv + (q_inv p)(q_inv p)^T / h, borders -(q_inv p) / h
    and corner 1 / h, where h = q_ii - p^T q_inv p is the Schur complement.
    """
    q_inv = as_matrix(q_inv)
    p = as_vector(p)
    t = q_inv.shape[0]
    if q_inv.shape[1] != t:
        raise DimensionError(f"q_inv must be square, got {q_inv.shape}")
    if p.shape[0] != t:
        raise DimensionError(f"border length {p.shape[0]} != block side {t}")
    q_ii = float(q_ii)
    u = q_inv @ p
    h = q_ii - float(p @ u)
    if not h > schur_threshold(q_ii):
        raise DegenerateSchur(f"schur complement {h:.6e} at or below floor for q_ii={q_ii:.6e}")
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = q_inv + np.outer(u, u) / h
    out[:t, t] = -u / h
    out[t, :t] = -u / h
    out[t, t] = 1.0 / h
    return out


def pseudo_inverse_apply(a, y):
    """Least-squares solution (a^T a)^{-1} a^T y for full-column-rank a."""
    a = as_matrix(a)
    y = as_vector(y)
    if y.shape[0] != a.shape[0]:
        raise DimensionError(f"observation length {y.shape[0]} != row count {a.shape[0]}")
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"need at least as many rows as columns, got {a.shape}")
    try:
        factor = cho_factor(a.T @ a, lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    return cho_solve(factor, a.T @ y)
