"""Dense linear-algebra kernels used by the samplers and estimators.

Everything operates on float64 numpy arrays through ``numpy.linalg``'s
Cholesky and QR factorizations alone, so a process loads a single BLAS,
and every routine is a pure function of its inputs.  This is the one
module that factors a matrix or consumes its factor.

It also holds the two decisions the sampler and the estimators share.
Checked inputs: ``as_matrix``, ``as_vector`` and ``as_sample_set`` turn a
matrix, a vector and a sample set into arrays, and ``as_shift``,
``as_variance``, ``as_seed`` and ``as_count`` turn a shift mu > 0, a
noise variance sigma2 >= 0, a random seed >= 0 and a count >= 1 into a
float or an int, or each raises a named error; these are the package's
only statements of those rules, which the CLI runs on its flags too.
``is_integral`` is the one integrality test of a scalar: every count,
seed, budget, size and candidate index is checked with it, so 2.7, NaN,
inf and a value that is not a number, such as None, are refused by each
one's own named error, not truncated or raised as a bare TypeError or
ValueError.  ``as_shift`` and ``as_variance`` refuse alike a string and
any value float() cannot convert, and ``as_matrix`` and ``as_vector`` an
entry that is not a boolean, integer or float, such as "1.5", with
NonFiniteInput, and a ragged nesting with DimensionError; float64 input
is not copied.  The indices of a sample set are checked by dtype
in ``as_sample_set``, which refuses a value that is not iterable, or is
ragged, with InvalidSampleSet, and tests their distinctness by equal
neighbours in one sorted copy (np.unique would import numpy.ma on its
first call, ~11 ms and ~1.2 MB in every process that checks a set).
A refusal message quotes a refused str or bytes value (``_shown``), so
as_seed("3") reads "got '3'", not "got 3".
``sample_rows`` checks a matrix and a sample set against it and gathers
the selected rows.  Transient memory: ``_BLOCK_ENTRIES`` is the one block
that sizes every blocked loop of the package.  The kernels:

* ``cholesky`` -- the lower Cholesky factor of one symmetric
  positive-definite matrix or of a stack of them, raising
  NotPositiveDefinite when any member is not;
* ``invert_lower`` -- the inverse X = L^{-1} of a lower-triangular factor
  or of a stack of them, the one triangular kernel;
* ``trace_inverse`` -- tr(A^{-1}) of one matrix, as the squared Frobenius
  norm of L^{-1} for A = L L^T;
* ``shifted_qr`` -- from the QR of [a; sqrt(mu) I], which never forms
  a^T a, X = R^{-T} with X^T X = (a^T a + mu I)^{-1}, and on request the
  block Q_a = a R^{-1} of the reduced Q: the fast sampler's switch to K
  space and its border solves, and every greedy-direct score;
* ``pseudo_inverse_apply`` -- least squares g = R^{-1} Q^T y from the
  reduced QR of a, which never forms a^T a, raising NotPositiveDefinite
  when min |r_jj| <= max(t, K) eps max |r_jj|;
* ``block_inverse_update`` -- the bordered inverse after appending one
  row/column, through its Schur complement.

No LAPACK solve or inverse is called: a factor (a Cholesky factor, or
the transpose of a QR factor) is inverted by forward substitution in
invert_lower, one row at a time as one batched matrix product over every
diagonal block, with gemm for the panels below the diagonal blocks of a
side larger than _ROW_BLOCK.
The inverse overwrites the factor row by row, so a call holds one
factor-sized array (two while a factor whose side does not split evenly
is copied into a padded one).  The full inverse of a symmetric matrix is
formed only where a caller asks for one: block_inverse_update returns it,
and the fast sampler's switch to K space and greedy-direct's K-space
scores build X^T X.
"""

import numpy as np

from .errors import (DegenerateSchur, DimensionError, InvalidParameter, InvalidSampleSet, NonFiniteInput,
                     NotPositiveDefinite)

# Float64 entries (256 KB) per block of every blocked loop of the package:
# a row block of Phi Ninv at the fast sampler's switch to K space, a row
# block of candidate rows with their products (c_i = Q_a^T phi_i, r_i and
# Q_a c_i below depth K, Ninv phi_i past it) in greedy-direct's
# _extension_traces, and a chunk of noise draws in
# monte_carlo_mse, counted at |S| entries per trial.  Each loop holds
# about one block at a time, so on top of the O(N + K^2) state of the
# samplers the transient memory does not grow with Phi or with the trial
# count (Phi Ninv whole is 8 MB at 10000 x 100, the rows of 10000
# candidates 8 MB too, 10^5 trials at |S| = 20 16 MB).  A block's size
# does not change any sampler result bitwise, nor a Monte-Carlo draw.
# Timed on direct_greedy_select at N/K/M = 500/20/60 (three Gaussian
# matrices, 7 rounds, sizes interleaved; 2 vCPUs, OpenBLAS 0.3.31),
# median per call: 2**12 18.4 ms, 2**13 15.1, 2**14 14.1, 2**15 13.1,
# 2**16 12.3, 2**17 12.2.  2**16 would gain 6% on that run but double
# the block every loop holds, so the block stays 2**15.
_BLOCK_ENTRIES = 1 << 15

# Row-block cap of the triangular inverse in invert_lower: a side up to
# this is one sweep of row products, a larger one is split into equal
# blocks.  Median of 7 rounds per call (2 vCPUs, OpenBLAS 0.3.31), caps
# 16/20/25/32/50/64: side 100 122/114/122/123/162/163 us, side 120
# 141/141/144/155/170/210 us, side 64 70/69/82/95/90/141 us.  32 keeps
# every factor of side up to 32 a single sweep, within 10% of the best
# cap at sides 100 and 120.
_ROW_BLOCK = 32


def all_finite(a):
    """Whether every entry of the float array a is finite.

    A sum is finite only if every entry is, so the entry-sized mask of
    np.isfinite is built only when the sum is not: for a NaN or infinite
    entry, or for finite entries whose sum overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    return bool(np.isfinite(total) or np.isfinite(a).all())


def _check_finite(a):
    """Raise NonFiniteInput naming the first NaN or infinite entry of a."""
    if all_finite(a):
        return
    pos = tuple(int(v) for v in np.argwhere(~np.isfinite(a))[0])
    if a.ndim == 1:
        where = f"vector entry at index {pos[0]}"
    else:
        where = f"matrix entry at row {pos[0]}, column {pos[1]}"
    raise NonFiniteInput(f"{where} is {a[pos]}, not finite")


def _as_float64(a):
    """a as a float64 array, not copied when it already is one.

    Raises DimensionError for a ragged nesting and NonFiniteInput for
    entries that are not numbers: strings, bytes, objects, complex values.
    Booleans and integers are converted.
    """
    try:
        a = np.asarray(a)
    except ValueError:  # ragged
        raise DimensionError("entries do not form a rectangular array") from None
    if a.dtype.kind not in "biuf":
        raise NonFiniteInput(f"entries of dtype {a.dtype} are not numbers")
    return a.astype(np.float64, copy=False)


def as_matrix(a):
    """Coerce to a finite 2-d float64 array.

    Raises DimensionError for a ragged nesting or a wrong shape and
    NonFiniteInput for an entry that is not a finite number, naming the
    first offending position for a NaN or infinite entry.
    """
    a = _as_float64(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError("matrix dimensions must be positive")
    _check_finite(a)
    return a


def as_vector(x):
    """Coerce to a finite 1-d float64 array.

    Raises DimensionError for a ragged nesting or a wrong shape and
    NonFiniteInput for an entry that is not a finite number, naming the
    first offending index for a NaN or infinite entry.
    """
    x = _as_float64(x)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={x.ndim}")
    _check_finite(x)
    return x


def as_sample_set(s, n):
    """Validate a sample set: distinct indices in [0, n), selection order kept."""
    try:
        idx = np.asarray(list(s))
    except (TypeError, ValueError):  # not iterable, or ragged
        raise InvalidSampleSet("sample set must be a flat sequence of indices") from None
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidSampleSet("sample set must be a nonempty sequence of indices")
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidSampleSet(f"sample indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise InvalidSampleSet(f"sample index out of range for {n} rows")
    ordered = np.sort(idx)  # not np.unique, whose first call imports numpy.ma
    if (ordered[1:] == ordered[:-1]).any():
        raise InvalidSampleSet("sample indices must be distinct")
    return idx.astype(np.intp, copy=False)


def _shown(x):
    """x as a refusal message shows it: a str or bytes value quoted, so "3" does not read as 3."""
    return repr(x) if isinstance(x, (str, bytes)) else x


def _as_float(x):
    """float(x), or NaN, which every range check refuses, for a string or a value float() cannot convert."""
    if isinstance(x, (str, bytes)):
        return np.nan
    try:
        return float(x)
    except (TypeError, ValueError):
        return np.nan


def as_shift(mu):
    """Coerce to a positive finite float shift mu, or raise InvalidParameter."""
    if not 0.0 < _as_float(mu) < np.inf:
        raise InvalidParameter(f"shift mu must be positive and finite, got {_shown(mu)}")
    return float(mu)


def as_variance(sigma2):
    """Coerce to a nonnegative finite float noise variance, or raise InvalidParameter."""
    if not 0.0 <= _as_float(sigma2) < np.inf:
        raise InvalidParameter(f"noise variance must be nonnegative and finite, got {_shown(sigma2)}")
    return float(sigma2)


def is_integral(x):
    """Whether x is a whole number: an int, a numpy integer or an integral float."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, inf
        return False


def as_seed(seed):
    """Coerce to a nonnegative int random seed, or raise InvalidParameter.

    An integral float or a numpy integer is accepted; 1.9 is refused, not
    truncated.
    """
    if not is_integral(seed) or seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {_shown(seed)}")
    return int(seed)


def as_count(n, what):
    """Coerce to an int of at least 1, or raise InvalidParameter naming what it counts.

    An integral float or a numpy integer is accepted; 2.7 is refused, not
    truncated.
    """
    if not is_integral(n) or n < 1:
        raise InvalidParameter(f"{what} must be an integer of at least 1, got {_shown(n)}")
    return int(n)


def sample_rows(phi, s):
    """The rows of the checked matrix phi indexed by the sample set s, in s's order.

    Raises as as_matrix does for phi and as as_sample_set does for s
    against phi's row count.
    """
    phi = as_matrix(phi)
    return phi[as_sample_set(s, phi.shape[0])]


def schur_threshold(q_ii):
    """Positivity floor for Schur complements: 1e-12 * q_ii.

    Relative to the diagonal entry alone: scaling the rows by c and mu by
    c**2 scales every complement and its floor alike.  A caller with
    q_ii <= 0 must still refuse h <= 0.
    """
    return 1e-12 * q_ii


def cholesky(a):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Works over the last two axes, so a stack of matrices gives a stack of
    factors.  Raises NotPositiveDefinite if any matrix is not positive
    definite.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def invert_lower(low):
    """Inverse X = L^{-1} of a lower-triangular factor L, or of a stack of them.

    X takes no general solve: with the rows of L scaled in place to
    S = -diag(L)^{-1} L, forward substitution gives each row
    X[r, :r] = S[r, :r] X[:r, :r] from the rows above it, and
    X[r, r] = 1/L[r, r]; row r of X overwrites row r of S, which no later
    row reads.  A side up to _ROW_BLOCK is one sweep of such rows.  A
    larger side is split into equal row blocks of at most _ROW_BLOCK, the
    factor padded at the end with an identity block when the side does
    not divide evenly; the diagonal blocks are swept together, and each
    panel below them is X[lo:hi, :lo] = U (S[lo:hi, :lo] X[:lo, :lo]) by
    gemm, where U = X[lo:hi, lo:hi] D, with D the diagonal of
    L[lo:hi, lo:hi], is the inverse of -S[lo:hi, lo:hi].  Every step acts
    on each matrix alone, so a member's inverse is bitwise the same
    whatever stack it is in.

    low must be C-contiguous, as cholesky returns it, and is consumed: X
    overwrites it in place when the side splits evenly, and is otherwise a
    view of the padded copy.  Use the returned X either way.
    """
    side = low.shape[-1]
    if side == 0:
        return low
    blocks = -(-side // _ROW_BLOCK)
    rows = -(-side // blocks)
    width = blocks * rows
    idx = np.arange(width)
    if width > side:
        padded = np.zeros(low.shape[:-2] + (width, width))
        padded[..., :side, :side] = low
        padded[..., idx[side:], idx[side:]] = 1.0
        low = padded
    diag = np.diagonal(low, axis1=-2, axis2=-1).copy()
    dinv = 1.0 / diag
    low *= -dinv[..., :, None]
    low[..., idx, idx] = dinv
    # the diagonal blocks as one (..., blocks, rows, rows) view, so one
    # product per row covers every block of every member; built over the
    # buffer, which cholesky and np.zeros return C-contiguous, because
    # as_strided goes through __array_interface__, which held about 1 MB
    # of traced memory after a few thousand calls (NumPy 2.4)
    step = rows * (low.strides[-2] + low.strides[-1])
    shape = low.shape[:-2] + (blocks, rows, rows)
    dblocks = np.ndarray(shape, buffer=low, strides=low.strides[:-2] + (step,) + low.strides[-2:])
    for r in range(1, rows):
        np.matmul(dblocks[..., r : r + 1, :r], dblocks[..., :r, :r], out=dblocks[..., r : r + 1, :r])
    for lo in range(rows, width, rows):
        hi = lo + rows
        unit = low[..., lo:hi, lo:hi] * diag[..., None, lo:hi]
        np.matmul(unit, low[..., lo:hi, :lo] @ low[..., :lo, :lo], out=low[..., lo:hi, :lo])
    return low[..., :side, :side]


def shifted_qr(a, mu, with_q=False):
    """Triangular inverse X = R^{-T} from the QR of [a; sqrt(mu) I], and on request Q_a.

    a^T a is never formed, so the error grows with the condition number of
    the stack, not with its square.  X^T X = (a^T a + mu I)^{-1}.  Without
    with_q only the factor is computed (mode="r") and X is returned.  With
    it, (Q_a, X) is returned, where Q_a = a R^{-1} is the block of the
    reduced Q facing a (the other block is sqrt(mu) X^T); then
    r = X^T Q_a^T f minimizes |a r - f|^2 + mu |r|^2.  Neither X^T X nor
    X^T Q_a^T depends on the signs of R's rows.
    """
    stack = np.vstack([a, np.sqrt(mu) * np.eye(a.shape[1])])
    if not with_q:
        return invert_lower(np.ascontiguousarray(np.linalg.qr(stack, mode="r").T))
    q, r = np.linalg.qr(stack)
    return q[: a.shape[0]], invert_lower(np.ascontiguousarray(r.T))


def trace_inverse(a):
    """Trace of the inverse of a symmetric positive-definite matrix.

    Factors a = L L^T and returns the squared Frobenius norm of
    X = invert_lower(L), which equals sum_k 1/lambda_k.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"expected a nonempty square matrix, got {a.shape}")
    _check_finite(a)
    x = invert_lower(cholesky(a))
    np.square(x, out=x)
    return float(x.sum())


def block_inverse_update(q_inv, p, q_ii):
    """Inverse of a symmetric matrix augmented by one row/column.

    Given q_inv, the inverse of the current t x t block, the border column p
    and the new diagonal entry q_ii, returns the (t+1) x (t+1) inverse with
    top-left block q_inv + (q_inv p)(q_inv p)^T / h, borders -(q_inv p) / h
    and corner 1 / h, where h = q_ii - p^T q_inv p is the Schur complement.
    Raises DegenerateSchur unless h is positive and above schur_threshold(q_ii).
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
    if not h > max(schur_threshold(q_ii), 0.0):
        raise DegenerateSchur(f"schur complement {h:.6e} at or below floor for q_ii={q_ii:.6e}")
    out = np.empty((t + 1, t + 1))
    out[:t, :t] = q_inv + np.outer(u, u) / h
    out[:t, t] = out[t, :t] = -u / h
    out[t, t] = 1.0 / h
    return out


def pseudo_inverse_apply(a, y):
    """Least-squares solution (a^T a)^{-1} a^T y for full-column-rank a.

    y is one observation vector of length t = a.shape[0], or a t x c matrix
    whose c columns are solved together into a K x c result.  The solve is
    g = R^{-1} Q^T y from the reduced QR of a, which never forms a^T a, so
    its error grows with cond(a), not with its square.  a is taken as rank
    deficient, and NotPositiveDefinite raised, when the smallest |r_jj| is
    at or below max(t, K) eps times the largest.
    """
    a = as_matrix(a)
    y = as_vector(y) if np.ndim(y) == 1 else as_matrix(y)
    if y.shape[0] != a.shape[0]:
        raise DimensionError(f"observation length {y.shape[0]} != row count {a.shape[0]}")
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"need at least as many rows as columns, got {a.shape}")
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= max(a.shape) * np.finfo(np.float64).eps * diag.max():
        raise NotPositiveDefinite(f"rank deficient: min |r_jj| {diag.min():.6e} against max {diag.max():.6e}")
    return invert_lower(np.ascontiguousarray(r.T)).T @ (q.T @ y)
