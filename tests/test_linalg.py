import numpy as np
import pytest

from fmbs import (
    DegenerateSchur,
    DimensionError,
    NotPositiveDefinite,
    block_inverse_update,
    pseudo_inverse_apply,
    schur_threshold,
    trace_inverse,
)


def random_spd(rng, side, cond=100.0):
    """SPD matrix with prescribed condition number via Q diag Q^T."""
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    eigs = np.logspace(0.0, np.log10(cond), side)
    return (q * eigs) @ q.T


def test_trace_inverse_diagonal():
    assert trace_inverse(2.0 * np.eye(3)) == pytest.approx(1.5, rel=1e-14)


def test_trace_inverse_identity():
    for k in (1, 2, 5, 17):
        assert trace_inverse(np.eye(k)) == pytest.approx(float(k), rel=1e-14)


def test_trace_inverse_hand():
    # inverse of [[4,2],[2,2]] is [[0.5,-0.5],[-0.5,1]], trace 1.5
    assert trace_inverse([[4.0, 2.0], [2.0, 2.0]]) == pytest.approx(1.5, rel=1e-14)


def test_trace_inverse_positive_and_scaling():
    rng = np.random.default_rng(2)
    for _ in range(25):
        side = int(rng.integers(1, 20))
        a = random_spd(rng, side, cond=1e3)
        c = float(rng.uniform(0.1, 10.0))
        base = trace_inverse(a)
        assert base > 0.0
        assert trace_inverse(c * a) == pytest.approx(base / c, rel=1e-11)


def test_trace_inverse_matches_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_spd(rng, int(rng.integers(2, 12)), cond=1e4)
        expected = float(np.sum(1.0 / np.linalg.eigvalsh(a)))
        assert trace_inverse(a) == pytest.approx(expected, rel=1e-9)


def test_trace_inverse_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        trace_inverse([[1.0, 2.0], [2.0, 1.0]])


def test_block_inverse_update_block_diagonal():
    out = block_inverse_update(np.array([[0.5]]), [0.0], 4.0)
    assert np.allclose(out, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)


def test_block_inverse_update_hand():
    # augmenting [4] with border 2 and corner 2 gives [[4,2],[2,2]]
    out = block_inverse_update(np.array([[0.25]]), [2.0], 2.0)
    assert np.allclose(out, [[0.5, -0.5], [-0.5, 1.0]], atol=1e-14)


def test_block_inverse_update_multiply_back():
    rng = np.random.default_rng(4)
    for _ in range(300):
        t = int(rng.integers(1, 21))
        a = random_spd(rng, t + 1, cond=1e3)
        q = a[:t, :t]
        p = a[:t, t]
        q_ii = float(a[t, t])
        out = block_inverse_update(np.linalg.inv(q), p, q_ii)
        assert np.abs(out @ a - np.eye(t + 1)).max() <= 1e-9


def test_block_inverse_update_degenerate_schur():
    # border equal to the only basis direction makes h = 1 - 1 = 0
    with pytest.raises(DegenerateSchur):
        block_inverse_update(np.array([[1.0]]), [1.0], 1.0)


def test_block_inverse_update_shape_checks():
    with pytest.raises(DimensionError):
        block_inverse_update(np.eye(2), [1.0], 1.0)


def test_schur_threshold():
    assert schur_threshold(0.5) == 1e-12
    assert schur_threshold(2.0) == 2e-12
    assert np.allclose(schur_threshold(np.array([0.5, 3.0])), [1e-12, 3e-12])


def test_pseudo_inverse_identity():
    assert np.allclose(pseudo_inverse_apply(np.eye(2), [5.0, 6.0]), [5.0, 6.0], atol=1e-14)


def test_pseudo_inverse_mean():
    # overdetermined consistent-in-mean system: best single value is 3
    assert pseudo_inverse_apply([[1.0], [1.0]], [2.0, 4.0]) == pytest.approx([3.0], rel=1e-14)


def test_pseudo_inverse_consistent_system():
    x = pseudo_inverse_apply([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 2.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_pseudo_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(1, rows + 1))
        a = rng.standard_normal((rows, cols))
        x = rng.standard_normal(cols)
        got = pseudo_inverse_apply(a, a @ x)
        assert np.linalg.norm(got - x) <= 1e-9 * (1.0 + np.linalg.norm(x))


def test_pseudo_inverse_rank_deficient():
    # duplicate columns make a^T a singular
    with pytest.raises(NotPositiveDefinite):
        pseudo_inverse_apply([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 2.0, 3.0])


def test_pseudo_inverse_underdetermined_rejected():
    with pytest.raises(DimensionError):
        pseudo_inverse_apply([[1.0, 2.0]], [1.0])
