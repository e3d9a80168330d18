"""Observation and recovery pipeline for the linear field model f = Phi g.

Covers sampling-matrix construction, noisy partial observation, unbiased
least-squares recovery, the analytic expected mean-square error of that
estimator, and its Monte-Carlo validation.  The sampling matrix is only
materialized on request; every computational path gathers rows instead.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DimensionError, NotPositiveDefinite
from .linalg import as_matrix, as_vector, pseudo_inverse_apply, trace_inverse
from .placement import as_sample_set

_MC_CHUNK = 32768


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. zero-mean Gaussian observation noise with variance sigma2."""

    sigma2: float
    seed: int

    def __post_init__(self):
        if not self.sigma2 >= 0.0:
            raise ValueError(f"noise variance must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class Estimate:
    """Recovered parameters g_hat and the implied field f_hat = Phi g_hat."""

    g_hat: np.ndarray
    f_hat: np.ndarray


def build_sampling_matrix(s, n):
    """Binary |S| x n row-selection matrix with row i picking column s[i].

    Intended for tests and direct formula checks; computational paths gather
    rows of Phi directly.
    """
    idx = as_sample_set(s, int(n))
    c = np.zeros((idx.size, int(n)))
    c[np.arange(idx.size), idx] = 1.0
    return c


def observe(phi, g, s, noise):
    """Noisy partial observation y = (C Phi) g + n; deterministic per seed."""
    phi = as_matrix(phi)
    g = as_vector(g)
    if g.shape[0] != phi.shape[1]:
        raise DimensionError(f"parameter length {g.shape[0]} != column count {phi.shape[1]}")
    idx = as_sample_set(s, phi.shape[0])
    clean = phi[idx] @ g
    rng = np.random.default_rng(noise.seed)
    return clean + rng.normal(0.0, math.sqrt(noise.sigma2), size=idx.size)


def ls_estimate(phi, s, y):
    """Unbiased least-squares recovery from partial observations.

    Requires the gathered rows to have full column rank; a rank-deficient
    normal matrix raises NotPositiveDefinite.
    """
    phi = as_matrix(phi)
    idx = as_sample_set(s, phi.shape[0])
    g_hat = pseudo_inverse_apply(phi[idx], y)
    return Estimate(g_hat=g_hat, f_hat=phi @ g_hat)


def expected_mse(phi, s, sigma2):
    """Expected squared parameter error of the least-squares estimator.

    Equals sigma2 times the trace of the inverse normal matrix of the
    gathered rows, i.e. sigma2 * sum_k 1/lambda_k.
    """
    phi = as_matrix(phi)
    sigma2 = float(sigma2)
    if not sigma2 >= 0.0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    idx = as_sample_set(s, phi.shape[0])
    a = phi[idx]
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"need at least {a.shape[1]} samples, got {a.shape[0]}")
    return sigma2 * trace_inverse(a.T @ a)


def monte_carlo_mse(phi, s, g, sigma2, trials, seed):
    """Empirical mean of |g_hat - g|^2 over independent noise draws.

    Draws are taken from one seeded stream in trial order (chunked for
    memory), so the value is reproducible for a given (seed, trials).
    """
    phi = as_matrix(phi)
    g = as_vector(g)
    if g.shape[0] != phi.shape[1]:
        raise DimensionError(f"parameter length {g.shape[0]} != column count {phi.shape[1]}")
    sigma2 = float(sigma2)
    if not sigma2 >= 0.0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    idx = as_sample_set(s, phi.shape[0])
    a = phi[idx]
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"need at least {a.shape[1]} samples, got {a.shape[0]}")
    try:
        factor = cho_factor(a.T @ a, lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    clean = a @ g
    scale = math.sqrt(sigma2)
    rng = np.random.default_rng(int(seed))
    sse = 0.0
    done = 0
    while done < trials:
        count = min(_MC_CHUNK, trials - done)
        y = clean + rng.normal(0.0, scale, size=(count, idx.size))
        g_hat = cho_solve(factor, a.T @ y.T)
        err = g_hat - g[:, None]
        sse += float(np.einsum("ij,ij->", err, err))
        done += count
    return sse / trials
