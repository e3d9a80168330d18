import numpy as np
import pytest
from scipy.linalg import cho_factor

from fmbs import InvalidSpec, Model, ModelSpec, generate


def test_gaussian_moments():
    phi = generate(ModelSpec(Model.GAUSSIAN, 1000, 100, seed=0))
    assert phi.shape == (1000, 100)
    entries = phi.ravel()
    assert abs(entries.mean()) <= 4.0 / np.sqrt(entries.size)
    assert abs(entries.var() - 1.0) <= 0.05


def test_gaussian_deterministic_per_seed():
    a = generate(ModelSpec(Model.GAUSSIAN, 50, 5, seed=3))
    b = generate(ModelSpec(Model.GAUSSIAN, 50, 5, seed=3))
    assert np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = generate(ModelSpec(Model.GAUSSIAN, 20, 4, seed=0))
    b = generate(ModelSpec(Model.GAUSSIAN, 20, 4, seed=1))
    assert not np.array_equal(a, b)
    c = generate(ModelSpec(Model.BERNOULLI, 20, 4, seed=0))
    d = generate(ModelSpec(Model.BERNOULLI, 20, 4, seed=1))
    assert not np.array_equal(c, d)


def test_bernoulli_support_and_rate():
    phi = generate(ModelSpec(Model.BERNOULLI, 1000, 100, seed=7))
    values = set(np.unique(phi))
    assert values <= {0.0, 1.0}
    # fraction of ones within 5 sigma of one half over n*k = 1e5 flips
    sigma = np.sqrt(0.25 / phi.size)
    assert abs(phi.mean() - 0.5) <= 5.0 * sigma


def test_gaussian_full_column_rank_100_seeds():
    for seed in range(100):
        phi = generate(ModelSpec(Model.GAUSSIAN, 1000, 100, seed=seed))
        cho_factor(phi.T @ phi)  # raises if the normal matrix is not PD


def test_model_accepts_plain_int():
    spec = ModelSpec(1, 10, 2, seed=0)
    assert spec.model is Model.GAUSSIAN


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        ModelSpec(Model.GAUSSIAN, 3, 4, seed=0)  # k > n
    with pytest.raises(InvalidSpec):
        ModelSpec(Model.GAUSSIAN, 3, 0, seed=0)
    with pytest.raises(InvalidSpec):
        ModelSpec(9, 3, 2, seed=0)


def test_fractional_sizes_are_refused_not_truncated():
    # n = 10.5 passed and generate raised a bare TypeError; an integral float
    # or numpy int still passes and is stored as an int
    with pytest.raises(InvalidSpec, match="n=10.5"):
        ModelSpec(Model.GAUSSIAN, 10.5, 2, seed=0)
    with pytest.raises(InvalidSpec, match="k=2.5"):
        ModelSpec(Model.GAUSSIAN, 10, 2.5, seed=0)
    spec = ModelSpec(Model.GAUSSIAN, np.int64(10), 2.0, seed=0)
    assert (spec.n, spec.k) == (10, 2) and type(spec.n) is type(spec.k) is int
    assert np.array_equal(generate(spec), generate(ModelSpec(Model.GAUSSIAN, 10, 2, seed=0)))
