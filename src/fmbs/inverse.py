"""Least-squares recovery for the linear field model f = Phi g.

Covers unbiased least-squares recovery of g from observations
y = C Phi g + n, the analytic expected mean-square error of that
estimator, and its Monte-Carlo validation.  The sampling matrix C is
never formed: every path gathers the selected rows of Phi instead.
"""

import math

import numpy as np

from .errors import DimensionError
from .linalg import (_BLOCK_ENTRIES, as_count, as_seed, as_variance, as_vector, pseudo_inverse_apply,
                     sample_rows, shifted_gram, trace_inverse)


def ls_estimate(phi, s, y):
    """Unbiased least-squares recovery g_hat from partial observations y.

    g_hat is a K-vector for a |S|-vector y, or K x c for a |S| x c y,
    solved by the reduced QR of the gathered rows A, which never forms
    A^T A (linalg.pseudo_inverse_apply).  Requires A to have full column
    rank: a set whose min |r_jj| is at or below max(|S|, K) eps max |r_jj|
    raises NotPositiveDefinite.
    """
    return pseudo_inverse_apply(sample_rows(phi, s), y)


def expected_mse(phi, s, sigma2):
    """Expected squared parameter error of the least-squares estimator.

    Equals sigma2 times the trace of the inverse normal matrix of the
    gathered rows, i.e. sigma2 * sum_k 1/lambda_k.
    """
    a = sample_rows(phi, s)
    sigma2 = as_variance(sigma2)
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"need at least {a.shape[1]} samples, got {a.shape[0]}")
    return sigma2 * trace_inverse(shifted_gram(a, 0.0))


def monte_carlo_mse(phi, s, g, sigma2, trials, seed):
    """Empirical mean of |g_hat - g|^2 over independent noise draws.

    Draws are taken from one seeded stream in trial order, in chunks of
    one block (_BLOCK_ENTRIES draws, |S| per trial), so the value is
    reproducible for a given (seed, trials).
    """
    a = sample_rows(phi, s)
    g = as_vector(g)
    if g.shape[0] != a.shape[1]:
        raise DimensionError(f"parameter length {g.shape[0]} != column count {a.shape[1]}")
    sigma2 = as_variance(sigma2)
    trials = as_count(trials, "trials")
    clean = a @ g
    scale = math.sqrt(sigma2)
    rng = np.random.default_rng(as_seed(seed))
    chunk = max(1, _BLOCK_ENTRIES // a.shape[0])
    sse = 0.0
    for done in range(0, trials, chunk):
        count = min(chunk, trials - done)
        y = clean + rng.normal(0.0, scale, size=(count, a.shape[0]))
        # the estimator ls_estimate applies, one chunk of trials as columns
        err = pseudo_inverse_apply(a, y.T) - g[:, None]
        sse += float(np.einsum("ij,ij->", err, err))
    return sse / trials
