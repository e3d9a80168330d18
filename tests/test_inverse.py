import math

import numpy as np
import pytest

from fmbs import (
    DimensionError,
    FmbsError,
    GreedyState,
    InvalidParameter,
    InvalidSampleSet,
    Model,
    ModelSpec,
    NonFiniteInput,
    NotPositiveDefinite,
    as_sample_set,
    expected_mse,
    fmbs_select,
    generate,
    ls_estimate,
    monte_carlo_mse,
    pseudo_inverse_apply,
    random_select,
    save_matrix,
    shifted_normal_objective,
)

PHI3 = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def charpoly_eigenvalues(a):
    """Eigenvalues of a symmetric matrix of side <= 3 from its characteristic
    polynomial, solved in closed form (quadratic / trigonometric cubic)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return [a[0, 0]]
    if n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
        return [(tr - disc) / 2.0, (tr + disc) / 2.0]
    if n == 3:
        # lambda^3 - c2 lambda^2 + c1 lambda - c0
        c2 = a[0, 0] + a[1, 1] + a[2, 2]
        c1 = (
            a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
            + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        )
        c0 = float(np.linalg.det(a))
        # depressed cubic x^3 + px + q with lambda = x + c2/3
        p = c1 - c2 * c2 / 3.0
        q = -2.0 * c2**3 / 27.0 + c2 * c1 / 3.0 - c0
        if abs(p) < 1e-30:
            return [c2 / 3.0 + np.cbrt(-q)] * 3
        rad = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * rad)))
        theta = math.acos(arg)
        return [
            c2 / 3.0 + rad * math.cos((theta - 2.0 * math.pi * j) / 3.0)
            for j in range(3)
        ]
    raise ValueError("oracle only covers side <= 3")


def test_charpoly_oracle_self_check():
    rng = np.random.default_rng(0)
    for side in (1, 2, 3):
        for _ in range(10):
            b = rng.standard_normal((side + 1, side))
            a = b.T @ b
            got = sorted(charpoly_eigenvalues(a))
            ref = sorted(np.linalg.eigvalsh(a))
            assert np.allclose(got, ref, rtol=1e-8, atol=1e-10)


NONFINITE_VECTOR_CALLS = {
    "pseudo_inverse_apply": lambda v: pseudo_inverse_apply(PHI3, v),
    "ls_estimate": lambda v: ls_estimate(PHI3, [0, 1, 2], v),
    "monte_carlo_mse": lambda v: monte_carlo_mse(PHI3, [0, 1, 2], v[:2], 1.0, trials=10, seed=4),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(NONFINITE_VECTOR_CALLS))
def test_nonfinite_vector_rejected(entry, value):
    # y for the solvers, g for monte_carlo_mse; entry 1 is bad
    vector = np.array([0.5, value, -1.0])
    with pytest.raises(NonFiniteInput, match="index 1") as excinfo:
        NONFINITE_VECTOR_CALLS[entry](vector)
    assert isinstance(excinfo.value, FmbsError) and isinstance(excinfo.value, ValueError)


SIGMA2_CALLS = {
    "expected_mse": lambda v: expected_mse(PHI3, [0, 1, 2], v),
    "monte_carlo_mse": lambda v: monte_carlo_mse(PHI3, [0, 1, 2], np.ones(2), v, trials=10, seed=4),
}


@pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("entry", sorted(SIGMA2_CALLS))
def test_bad_sigma2_rejected(entry, value):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        SIGMA2_CALLS[entry](value)


def test_ls_estimate_noiseless_recovery():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((12, 3))
    g = rng.standard_normal(3)
    s = [0, 3, 5, 7, 11]
    g_hat = ls_estimate(phi, s, phi[s] @ g)
    assert np.linalg.norm(g_hat - g) <= 1e-9


def test_ls_estimate_is_pseudo_inverse_apply_on_the_gathered_rows():
    rng = np.random.default_rng(14)
    phi = rng.standard_normal((12, 3))
    s = [11, 0, 5, 7]
    for y in (rng.standard_normal(4), rng.standard_normal((4, 6))):
        assert np.array_equal(ls_estimate(phi, s, y), pseudo_inverse_apply(phi[s], y))


def test_ls_estimate_identity_model():
    y = np.array([3.0, -1.0, 2.0])
    assert np.allclose(ls_estimate(np.eye(3), [0, 1, 2], y), y, atol=1e-12)


def test_ls_estimate_consistent_system():
    phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(ls_estimate(phi, [0, 1, 2], np.array([1.0, 1.0, 2.0])), [1.0, 1.0], atol=1e-12)


def test_expected_mse_identity():
    assert expected_mse(np.eye(2), [0, 1], 1.0) == pytest.approx(2.0, rel=1e-14)


def test_expected_mse_zero_variance():
    assert expected_mse(PHI3, [0, 1], 0.0) == 0.0


def test_expected_mse_hand():
    # rows (2,0),(0,1): normal matrix diag(4,1), trace of inverse 1/4 + 1
    assert expected_mse(PHI3, [0, 1], 1.0) == pytest.approx(1.25, rel=1e-14)


def test_expected_mse_rank_deficiency():
    with pytest.raises(DimensionError):
        expected_mse(PHI3, [0], 1.0)  # fewer samples than parameters
    phi = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank one
    with pytest.raises(NotPositiveDefinite):
        expected_mse(phi, [0, 1, 2], 1.0)


def test_expected_mse_matches_charpoly_eigensolve():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        for _ in range(10):
            n = int(rng.integers(k + 1, 15))
            phi = rng.standard_normal((n, k))
            m = int(rng.integers(k, n + 1))
            s = rng.choice(n, size=m, replace=False)
            sigma2 = float(rng.uniform(0.1, 4.0))
            a = phi[s]
            eigs = charpoly_eigenvalues(a.T @ a)
            expected = sigma2 * sum(1.0 / lam for lam in eigs)
            assert expected_mse(phi, s, sigma2) == pytest.approx(expected, rel=1e-8)


def test_shift_consistency():
    # shifted objective converges to expected_mse/sigma2 from below as mu -> 0,
    # with gap sum_k mu / (lam_k (lam_k + mu)) <= mu * sum_k 1/lam_k^2
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, k = 14, 3
        phi = rng.standard_normal((n, k))
        s = rng.choice(n, size=6, replace=False)
        eigs = np.linalg.eigvalsh(phi[s].T @ phi[s])
        unshifted = float(np.sum(1.0 / eigs))
        bound_scale = float(np.sum(1.0 / eigs**2))
        for mu in (1e-2, 1e-4, 1e-6):
            gap = unshifted - shifted_normal_objective(phi, s, mu)
            assert 0.0 <= gap <= mu * bound_scale * (1.0 + 1e-9) + 1e-12


def test_monte_carlo_noiseless():
    g = np.array([0.3, -0.7])
    val = monte_carlo_mse(PHI3, [0, 1, 2], g, 0.0, trials=100, seed=5)
    assert val <= 1e-18


def test_monte_carlo_parameter_length():
    with pytest.raises(DimensionError, match="parameter length 3 != column count 2"):
        monte_carlo_mse(PHI3, [0, 1, 2], np.ones(3), 1.0, trials=10, seed=4)


def test_monte_carlo_identity():
    val = monte_carlo_mse(np.eye(2), [0, 1], np.zeros(2), 1.0, trials=100_000, seed=6)
    assert abs(val - 2.0) <= 0.1


def test_monte_carlo_deterministic():
    g = np.array([1.0, -1.0])
    a = monte_carlo_mse(PHI3, [0, 1, 2], g, 1.0, trials=500, seed=7)
    b = monte_carlo_mse(PHI3, [0, 1, 2], g, 1.0, trials=500, seed=7)
    assert a == b


def test_monte_carlo_chunking_invisible(monkeypatch):
    # results depend on (seed, trials) only, not on the internal chunk size
    import fmbs.inverse as inverse

    g = np.array([0.5, 2.0])
    baseline = monte_carlo_mse(PHI3, [0, 1, 2], g, 1.0, trials=1000, seed=13)
    # 384 entries is a chunk of 128 trials at |S| = 3
    monkeypatch.setattr(inverse, "_BLOCK_ENTRIES", 384)
    chunked = monte_carlo_mse(PHI3, [0, 1, 2], g, 1.0, trials=1000, seed=13)
    assert chunked == pytest.approx(baseline, rel=1e-12)


def test_monte_carlo_transient_memory_is_one_block(traced_peak):
    # noise is drawn in chunks of one 256 KB block, so 10^5 trials at
    # |S| = 20 (16 MB of draws) hold a few blocks at most
    phi = np.random.default_rng(35).standard_normal((20, 4))
    peak = traced_peak(lambda: monte_carlo_mse(phi, range(20), np.ones(4), 1.0, trials=100_000, seed=5))
    assert peak <= 2_000_000


def test_monte_carlo_independent_of_ground_truth():
    # unbiased estimator: error statistics do not depend on g
    rng = np.random.default_rng(8)
    phi = rng.standard_normal((10, 2))
    s = [0, 2, 4, 6]
    a = monte_carlo_mse(phi, s, rng.standard_normal(2), 1.0, trials=100_000, seed=9)
    b = monte_carlo_mse(phi, s, 10.0 * rng.standard_normal(2), 1.0, trials=100_000, seed=10)
    ref = expected_mse(phi, s, 1.0)
    assert abs(a - b) <= 0.1 * ref


def test_monte_carlo_agreement_small_instances():
    rng = np.random.default_rng(11)
    for trial in range(4):
        n = int(rng.integers(8, 21))
        k = int(rng.integers(1, 5))
        phi = rng.standard_normal((n, k))
        m = int(rng.integers(k + 1, n + 1))
        s = rng.choice(n, size=m, replace=False)
        g = rng.standard_normal(k)
        analytic = expected_mse(phi, s, 1.0)
        empirical = monte_carlo_mse(phi, s, g, 1.0, trials=100_000, seed=200 + trial)
        assert abs(empirical - analytic) <= 0.05 * analytic
    # one row scaled by 1e7 (cond 1e7) at small noise: the draws go through
    # ls_estimate's corrected estimator, where a plain solve of the normal
    # equations reads several times the analytic value
    phi = generate(ModelSpec(Model.GAUSSIAN, 30, 4, 1))
    phi[7] *= 1e7
    s = list(range(12))
    analytic = expected_mse(phi, s, 1e-6)
    empirical = monte_carlo_mse(phi, s, rng.standard_normal(4), 1e-6, trials=100_000, seed=204)
    assert abs(empirical - analytic) <= 0.05 * analytic


def test_estimator_unbiased():
    rng = np.random.default_rng(12)
    phi = rng.standard_normal((15, 3))
    s = [0, 2, 5, 9, 11, 14]
    g = rng.standard_normal(3)
    a = phi[s]
    trials = 100_000
    noise_rng = np.random.default_rng(77)
    noise = noise_rng.normal(size=(trials, len(s)))
    y = g @ a.T + noise
    g_hat = np.linalg.solve(a.T @ a, a.T @ y.T)
    mean_err = g_hat.mean(axis=1) - g
    spread = math.sqrt(expected_mse(phi, s, 1.0) / trials)
    assert np.linalg.norm(mean_err) <= 9.0 * spread
    # the batched solve above matches the library estimator on spot checks
    for j in (0, 17):
        assert np.allclose(ls_estimate(phi, s, y[j]), g_hat[:, j], rtol=1e-10, atol=1e-12)


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_mse(PHI3, [0, 1], np.zeros(2), 1.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_mse(PHI3, [0, 1], np.zeros(2), -1.0, trials=10, seed=0)
    with pytest.raises(DimensionError):
        monte_carlo_mse(PHI3, [0], np.zeros(2), 1.0, trials=10, seed=0)


@pytest.mark.parametrize("call, error, builtin", [
    (lambda tmp: fmbs_select(np.eye(3), 2, 0.0), InvalidParameter, ValueError),
    (lambda tmp: as_sample_set([5], 3), InvalidSampleSet, IndexError),
    (lambda tmp: as_sample_set([1, 1], 3), InvalidSampleSet, ValueError),
    (lambda tmp: as_sample_set([2, 0, 1, 2], 3), InvalidSampleSet, ValueError),
    (lambda tmp: expected_mse(PHI3, [0, 1], -1.0), InvalidParameter, ValueError),
    (lambda tmp: monte_carlo_mse(PHI3, [0, 1], np.zeros(2), 1.0, trials=0, seed=0),
     InvalidParameter, ValueError),
    (lambda tmp: save_matrix(tmp / "m.x", np.eye(2), fmt="parquet"), InvalidParameter, ValueError),
    (lambda tmp: GreedyState(PHI3, 3, 1e-4).candidate_state(0), InvalidSampleSet, IndexError),
    (lambda tmp: GreedyState(PHI3, 3, 1e-4).candidate_state(1), InvalidSampleSet, ValueError),
    (lambda tmp: random_select(10, 3, -1), InvalidParameter, ValueError),
    (lambda tmp: generate(ModelSpec(Model.GAUSSIAN, 10, 3, -1)), InvalidParameter, ValueError),
    (lambda tmp: monte_carlo_mse(PHI3, [0, 1], np.zeros(2), 1.0, trials=10, seed=-1),
     InvalidParameter, ValueError),
], ids=["mu", "index-range", "repeated-index", "repeated-index-apart", "sigma2", "trials", "format",
        "selected-candidate", "candidate-before-first-step", "random-seed", "model-seed", "monte-carlo-seed"])
def test_boundary_errors_are_named(tmp_path, call, error, builtin):
    # a bad argument raises a named FmbsError that is also the matching
    # builtin, so a handler written for either catches it
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert isinstance(excinfo.value, FmbsError)
    assert isinstance(excinfo.value, builtin)
