import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fmbs

from fmbs import (
    DegenerateSchur,
    DimensionError,
    InvalidParameter,
    NonFiniteInput,
    NotPositiveDefinite,
    block_inverse_update,
    expected_mse,
    pseudo_inverse_apply,
    schur_threshold,
    trace_inverse,
)
from fmbs.linalg import (_ROW_BLOCK, as_count, as_matrix, as_sample_set, as_seed, as_vector, cholesky,
                         invert_lower, is_integral, shifted_qr)

# sides around the row blocks of invert_lower's triangular inverse: one
# sweep (up to _ROW_BLOCK = 32, with 8, 9, 16 and 17 between), two, three
# and four equal blocks (64, 120, 100 as 4 x 25), and sides padded with
# an identity block (33, 65, 97)
BLOCK_SIDES = (1, 7, 8, 9, 16, 17, 20, 31, 32, 33, 64, 65, 97, 100, 120)


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


@pytest.mark.parametrize("cond", [1e3, 1e6])
@pytest.mark.parametrize("side", BLOCK_SIDES)
def test_trace_inverse_blocks_match_eigenvalues(side, cond):
    # the reference moves with the conditioning too: 1/eigvalsh of the
    # same matrix sits up to ~1e-10 away at cond 1e6, so the bound scales
    rng = np.random.default_rng(side)
    stack = np.array([random_spd(rng, side, cond=cond) for _ in range(6)]).reshape(2, 3, side, side)
    expected = np.sum(1.0 / np.linalg.eigvalsh(stack), axis=-1)
    for idx in np.ndindex(2, 3):
        trace = trace_inverse(stack[idx])
        assert isinstance(trace, float)
        assert abs(trace - expected[idx]) <= 1e-15 * cond * expected[idx], idx
    # the kernel behind it inverts the factor, whose condition number is
    # the square root of the matrix's, for a stack and for one matrix alike
    low = cholesky(stack)
    inv = invert_lower(cholesky(stack))
    assert inv.shape == stack.shape
    assert np.abs(inv @ low - np.eye(side)).max() <= 1e-14 * np.sqrt(cond)
    one = invert_lower(cholesky(stack[1, 2]))
    assert np.array_equal(one, inv[1, 2])
    assert np.abs(one @ low[1, 2] - np.eye(side)).max() <= 1e-14 * np.sqrt(cond)


def test_trace_inverse_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        trace_inverse([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("pivot", [8, 19, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
def test_trace_inverse_rejects_indefinite_past_first_block(pivot):
    # a negative diagonal entry makes the factor's first bad pivot sit at
    # that row, inside the first row block or in one after it
    a = random_spd(np.random.default_rng(8), 3 * _ROW_BLOCK)
    a[pivot, pivot] = -1.0
    with pytest.raises(NotPositiveDefinite):
        trace_inverse(a)


# a stack of matrices, (2, 3, 3), is refused like any other shape that is
# not one nonempty square matrix
@pytest.mark.parametrize("shape", [(), (3,), (3, 2), (4, 3, 2), (2, 2, 3), (2, 3, 3), (0, 0)], ids=str)
def test_trace_inverse_rejects_bad_shapes(shape):
    with pytest.raises(DimensionError):
        trace_inverse(np.ones(shape))


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
    # at q_ii <= 0 the relative floor 1e-12 q_ii is not above 0, yet h <= 0
    # is still refused: h = 0 and h = -1e-14 lie above the floor -1e-12 at
    # q_ii = -1, and h = 0 meets the floor 0 at q_ii = 0
    for q_inv, p, q_ii in ((-1.0, 1.0, -1.0), (-1.0 + 1e-14, 1.0, -1.0), (1.0, 0.0, 0.0)):
        with pytest.raises(DegenerateSchur):
            block_inverse_update(np.array([[q_inv]]), [p], q_ii)


def test_block_inverse_update_shape_checks():
    with pytest.raises(DimensionError):
        block_inverse_update(np.eye(2), [1.0], 1.0)
    with pytest.raises(DimensionError, match="must be square"):
        block_inverse_update(np.ones((2, 3)), [1.0, 1.0], 1.0)


def test_fractional_seed_is_refused_not_truncated():
    # 1.9 was taken as seed 1; an integral float or numpy int still passes
    with pytest.raises(InvalidParameter, match="got 1.9"):
        as_seed(1.9)
    assert as_seed(2.0) == 2 and type(as_seed(np.int64(3))) is int


def test_fractional_count_is_refused_not_truncated():
    # 2.7 trials were taken as 2; an integral float or numpy int still passes
    with pytest.raises(InvalidParameter, match="trials must be an integer"):
        as_count(2.7, "trials")
    assert as_count(4.0, "trials") == 4 and type(as_count(np.uint8(5), "trials")) is int


def test_is_integral():
    # the one integrality test: NaN and inf are not whole, and raise nothing
    assert all(is_integral(x) for x in (3, -1, 2.0, np.int64(4), np.float64(1e300), 10**30))
    assert not any(is_integral(x) for x in (2.7, np.float64(0.5), float("nan"), float("inf"),
                                            -np.inf, np.float64("nan")))


def test_schur_threshold():
    # relative to q_ii at every scale: no absolute part below q_ii = 1
    assert schur_threshold(0.5) == 5e-13
    assert schur_threshold(2.0) == 2e-12
    assert schur_threshold(2.0**-120) == 1e-12 * 2.0**-120
    assert np.allclose(schur_threshold(np.array([0.5, 3.0])), [5e-13, 3e-12])


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
        assert np.linalg.norm(got - x) <= 1e-14 * (1.0 + np.linalg.norm(x))
    # one row scaled by 1e7 gives cond(a) 1e7: a plain solve of the normal
    # equations is off by 1e-3 there, and the QR solve, which never forms
    # a^T a, keeps the error near cond(a) eps
    phi = fmbs.generate(fmbs.ModelSpec(fmbs.Model.GAUSSIAN, 30, 4, 1))
    x = np.random.default_rng(3).standard_normal(4)
    a = phi[:12].copy()
    a[7] *= 1e7
    got = pseudo_inverse_apply(a, a @ x)
    assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("scale", [1e10, 1e13])
def test_pseudo_inverse_scaled_row_within_cond_eps(scale):
    # the roundtrip's 12 x 4 set with its row scaled further, to cond(a)
    # 1e10 and 1e13: a^T a's Cholesky factor fails there, and the QR
    # solve's error stays below cond(a) eps (0.03 and 0.06 of it, measured)
    phi = fmbs.generate(fmbs.ModelSpec(fmbs.Model.GAUSSIAN, 30, 4, 1))
    x = np.random.default_rng(3).standard_normal(4)
    a = phi[:12].copy()
    a[7] *= scale
    got = pseudo_inverse_apply(a, a @ x)
    bound = np.linalg.cond(a) * np.finfo(np.float64).eps
    assert np.linalg.norm(got - x) <= bound * np.linalg.norm(x)


def test_pseudo_inverse_matches_lstsq_as_columns_near_dependence():
    # column 3 set to column 2 plus eps-noise, cond(a) 2e4 to 2e12: the QR
    # solve stays within 1e-12 of lstsq (7.6e-16 at most, measured), where
    # a^T a's Cholesky factor was 0.45 off at 1e-8 and 1.0 at 1e-12 and
    # raised nothing; at eps = 0 the rank rule refuses the set
    for eps in (1e-4, 1e-7, 1e-8, 1e-9, 1e-12, 0.0):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 4))
        a[:, 3] = a[:, 2] + eps * rng.standard_normal(12)
        y = rng.standard_normal(12)
        if eps == 0.0:
            with pytest.raises(NotPositiveDefinite, match="rank deficient"):
                pseudo_inverse_apply(a, y)
            continue
        ref = np.linalg.lstsq(a, y, rcond=None)[0]
        assert np.linalg.norm(pseudo_inverse_apply(a, y) - ref) <= 1e-12 * np.linalg.norm(ref), eps


def test_pseudo_inverse_rank_deficient():
    # duplicate columns make a^T a singular
    with pytest.raises(NotPositiveDefinite):
        pseudo_inverse_apply([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 2.0, 3.0])


def test_pseudo_inverse_underdetermined_rejected():
    with pytest.raises(DimensionError):
        pseudo_inverse_apply([[1.0, 2.0]], [1.0])


def test_pseudo_inverse_observation_length_checked():
    with pytest.raises(DimensionError, match="observation length 2 != row count 3"):
        pseudo_inverse_apply(np.eye(3, 2), [1.0, 2.0])


def test_linalg_owns_every_factorization():
    # one module factors matrices and consumes their factors:
    # no other module of the package touches numpy.linalg, this one calls
    # only its Cholesky and QR factorizations, and no cho_solve is left
    package = pathlib.Path(fmbs.__file__).parent
    for path in sorted(package.glob("*.py")):
        used = set()
        for node in ast.walk(ast.parse(path.read_text())):
            # numpy comes in as a whole module only, so numpy.linalg can
            # be reached through attributes alone
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy"), path.name
            if isinstance(node, ast.Import):
                assert all(a.name == "numpy" for a in node.names if a.name.startswith("numpy")), path.name
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                used.add("linalg")
            if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "linalg":
                used.add(node.attr)
            names = {getattr(node, f, None) for f in ("id", "attr", "name", "asname")}
            assert "cho_solve" not in names, path.name
        if path.name == "linalg.py":
            assert used == {"linalg", "cholesky", "qr", "LinAlgError"}, used
        else:
            assert not used, (path.name, used)


def test_only_linalg_calls_its_factor_kernels():
    # a sampler or estimator reaches a factor through a linalg kernel that
    # consumes it (trace_inverse, shifted_qr, ...), never by factoring and
    # inverting on its own
    package = pathlib.Path(fmbs.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}
        assert not called & {"cholesky", "invert_lower"}, (path.name, called & {"cholesky", "invert_lower"})


def test_shifted_qr_matches_svd():
    # X^T X = (a^T a + mu I)^{-1}, Q_a = a R^{-1} has orthonormal columns
    # beside sqrt(mu) X^T, and X^T Q_a^T f = (a^T a + mu I)^{-1} a^T f, from
    # a = U diag(sigma) V^T; tall and wide a alike, and the factor is the
    # same in both modes
    rng = np.random.default_rng(29)
    for shape in ((9, 4), (4, 9)):
        a = rng.standard_normal(shape)
        mu, f = 0.3, rng.standard_normal(shape[0])
        u, sigma, vt = np.linalg.svd(a)
        gains = np.zeros(shape[1])
        gains[: sigma.size] = sigma**2
        ninv = (vt.T / (gains + mu)) @ vt
        x = shifted_qr(a, mu)
        assert np.abs(x.T @ x - ninv).max() <= 1e-14 * np.abs(ninv).max()
        q_a, x_q = shifted_qr(a, mu, with_q=True)
        assert q_a.shape == shape
        assert np.array_equal(np.abs(x_q), np.abs(x))
        q = np.vstack([q_a, np.sqrt(mu) * x_q.T])
        assert np.abs(q.T @ q - np.eye(shape[1])).max() <= 1e-14
        r = vt.T[:, : sigma.size] @ (sigma / (sigma**2 + mu) * (u[:, : sigma.size].T @ f))
        assert np.linalg.norm(x_q.T @ (q_a.T @ f) - r) <= 1e-14 * np.linalg.norm(r)


def test_sampler_and_estimators_build_on_linalg_alone():
    # placement, inverse and matio are siblings over linalg: each takes
    # from the package only errors and linalg, so checked inputs, row
    # gathers and the transient block are decided in one place
    package = pathlib.Path(fmbs.__file__).parent
    for name in ("placement", "inverse", "matio"):
        tree = ast.parse((package / f"{name}.py").read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
        assert imported <= {"errors", "linalg"}, (name, imported)


def test_finite_check_holds_no_entry_mask(traced_peak):
    # validating a matrix builds no N x K mask (one byte per entry, 1 MB
    # here); nor does expected_mse over a few rows of it
    phi = np.random.default_rng(31).standard_normal((10000, 100))
    assert traced_peak(lambda: as_matrix(phi)) <= 0.01 * phi.nbytes
    assert traced_peak(lambda: expected_mse(phi, range(120), 1.0)) <= 0.1 * phi.nbytes


@pytest.mark.parametrize("check, shape, message", [
    (as_matrix, (3,), "2-d matrix, got ndim=1"),
    (as_matrix, (2, 2, 2), "2-d matrix, got ndim=3"),
    (as_matrix, (0, 3), "dimensions must be positive"),
    (as_vector, (2, 2), "1-d vector, got ndim=2"),
], ids=["matrix-1d", "matrix-3d", "matrix-0xK", "vector-2d"])
def test_checked_inputs_reject_bad_shapes(check, shape, message):
    with pytest.raises(DimensionError, match=message):
        check(np.ones(shape))


def test_finite_entries_whose_sum_overflows_pass():
    # pytest turns warnings into errors, so an overflow warning would fail
    assert np.array_equal(as_vector([1e308, 1e308]), [1e308, 1e308])
    assert as_matrix([[-1e308], [-1e308]]).shape == (2, 1)


def test_opposite_infinities_name_the_first():
    # the sum of inf and -inf is NaN, and the mask then names entry 0
    with pytest.raises(NonFiniteInput, match=r"^vector entry at index 0 is inf, not finite$"):
        as_vector([np.inf, -np.inf])
    with pytest.raises(NonFiniteInput, match=r"row 1, column 0 is -inf"):
        as_matrix([[1.0], [-np.inf], [np.inf]])


def test_sample_set_keeps_selection_order():
    # distinctness is tested on a sorted copy, not on the returned indices
    idx = as_sample_set(np.array([3, 0, 2], dtype=np.int32), 4)
    assert idx.tolist() == [3, 0, 2] and idx.dtype == np.intp


def test_checking_a_sample_set_never_imports_numpy_ma():
    # np.unique imports numpy.ma on its first call (~11 ms and ~1.2 MB with
    # NumPy 2.4), which every process that checks a sample set paid for
    code = """
import sys
import numpy as np
from fmbs import as_sample_set, expected_mse, submatrix_objective

phi = np.random.default_rng(0).standard_normal((20, 3))
expected_mse(phi, [4, 1, 7, 2], 1.0)
submatrix_objective(phi, [4, 1, 7], 1e-4)
as_sample_set([2, 0, 1], 3)
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(fmbs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False"]
