"""Observation and recovery pipeline for the linear field model f = Phi g.

Covers noisy partial observation, unbiased least-squares recovery, the
analytic expected mean-square error of that estimator, and its Monte-Carlo
validation.  The sampling matrix C of y = C Phi g + n is never formed:
every path gathers the selected rows of Phi instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import (_BLOCK_ENTRIES, as_count, as_seed, as_variance, as_vector, pseudo_inverse_apply,
                     sample_rows, shifted_gram, trace_inverse)


def _check_g(g, k):
    """Checked ground-truth parameters g, one per column of Phi."""
    g = as_vector(g)
    if g.shape[0] != k:
        raise DimensionError(f"parameter length {g.shape[0]} != column count {k}")
    return g


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. zero-mean Gaussian observation noise with variance sigma2."""

    sigma2: float
    seed: int

    def __post_init__(self):
        as_variance(self.sigma2)
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class Estimate:
    """Recovered parameters g_hat and the implied field f_hat = Phi g_hat."""

    g_hat: np.ndarray
    f_hat: np.ndarray


def observe(phi, g, s, noise):
    """Noisy partial observation y = (C Phi) g + n; deterministic per seed."""
    _, a = sample_rows(phi, s)
    clean = a @ _check_g(g, a.shape[1])
    return clean + np.random.default_rng(noise.seed).normal(0.0, math.sqrt(noise.sigma2), size=a.shape[0])


def ls_estimate(phi, s, y):
    """Unbiased least-squares recovery from partial observations.

    Requires the gathered rows to have full column rank; a rank-deficient
    normal matrix raises NotPositiveDefinite.
    """
    phi, a = sample_rows(phi, s)
    g_hat = pseudo_inverse_apply(a, y)
    return Estimate(g_hat=g_hat, f_hat=phi @ g_hat)


def expected_mse(phi, s, sigma2):
    """Expected squared parameter error of the least-squares estimator.

    Equals sigma2 times the trace of the inverse normal matrix of the
    gathered rows, i.e. sigma2 * sum_k 1/lambda_k.
    """
    _, a = sample_rows(phi, s)
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
    _, a = sample_rows(phi, s)
    g = _check_g(g, a.shape[1])
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
