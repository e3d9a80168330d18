import ast
import itertools
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from fmbs import (
    BudgetError,
    DegenerateSchur,
    DimensionError,
    FmbsError,
    GreedyState,
    InvalidParameter,
    InvalidSampleSet,
    InvalidSpec,
    Model,
    ModelSpec,
    NonFiniteInput,
    TooLarge,
    as_sample_set,
    direct_greedy_select,
    exhaustive_select,
    expected_mse,
    fmbs_select,
    generate,
    pseudo_inverse_apply,
    random_select,
    shifted_normal_objective,
    submatrix_objective,
)
from fmbs.linalg import as_count, as_seed, as_shift, as_variance

MU = 1e-4

# worked 3x2 instance used throughout: row norms {4, 1, 2}
PHI3 = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def trace_inverse_brute(q):
    """Independent trace-of-inverse oracle via eigenvalues."""
    return float(np.sum(1.0 / np.linalg.eigvalsh(q)))


def submatrix_objective_brute(phi, s, mu):
    a = phi[list(s)]
    return trace_inverse_brute(a @ a.T + mu * np.eye(len(s)))


def test_shifted_objective_identity_limit():
    # with the full identity selected, eigenvalues are both 1
    val = shifted_normal_objective(np.eye(2), [0, 1], 1e-12)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_shifted_objective_diagonal():
    # one identity row selected: eigenvalues {1, 0}, shift 1 gives 1/2 + 1
    assert shifted_normal_objective(np.eye(2), [0], 1.0) == pytest.approx(1.5, rel=1e-14)


def test_shifted_objective_hand():
    # rows (2,0) and (0,1): normal matrix diag(4, 1)
    expected = 1.0 / (4.0 + MU) + 1.0 / (1.0 + MU)
    got = shifted_normal_objective(PHI3, [0, 1], MU)
    assert got == pytest.approx(expected, rel=1e-12)


def test_submatrix_objective_scalar():
    assert submatrix_objective(np.eye(2), [0], 1.0) == pytest.approx(0.5, rel=1e-14)


def test_submatrix_objective_hand_limit():
    # Q_{0,2} tends to [[4,2],[2,2]] whose inverse has trace 1.5
    assert submatrix_objective(PHI3, [0, 2], 1e-12) == pytest.approx(1.5, abs=1e-9)


def test_submatrix_matches_shifted_plus_constant():
    rng = np.random.default_rng(10)
    phi = rng.standard_normal((8, 3))
    s = [1, 3, 4, 6, 7]
    mu = 1e-2
    lhs = submatrix_objective(phi, s, mu)
    rhs = (len(s) - 3) / mu + shifted_normal_objective(phi, s, mu)
    assert abs(lhs - rhs) <= 1e-8 * lhs


def test_objectives_sum_an_exactly_symmetric_gram():
    # the objectives form their gram by einsum, not BLAS; at 120 x 100 a
    # threaded syrk left its worker spinning after the call
    from fmbs.placement import _summed_gram

    phi = np.random.default_rng(11).standard_normal((1000, 100))
    s = list(range(0, 1000, 8))[:120]
    gram = _summed_gram(phi[s].T, MU)
    assert np.array_equal(gram, gram.T)
    assert submatrix_objective(phi, s, MU) == pytest.approx(submatrix_objective_brute(phi, s, MU), rel=1e-10)
    a = phi[s]
    expected = trace_inverse_brute(a.T @ a + MU * np.eye(100))
    assert shifted_normal_objective(phi, s, MU) == pytest.approx(expected, rel=1e-10)


def test_objective_validation():
    with pytest.raises(ValueError):
        submatrix_objective(PHI3, [0, 0], MU)
    with pytest.raises(IndexError):
        submatrix_objective(PHI3, [5], MU)
    with pytest.raises(ValueError):
        submatrix_objective(PHI3, [], MU)
    with pytest.raises(ValueError):
        shifted_normal_objective(PHI3, [0], 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        submatrix_objective(PHI3, [0], np.inf)
    # non-integer indices are refused, not truncated or read as a mask
    with pytest.raises(ValueError, match="must be integers"):
        expected_mse(np.eye(6, 2), [0.5, 1.7, 3.2, 4.9], 1.0)
    with pytest.raises(ValueError, match="must be integers"):
        as_sample_set([True, False, True], 3)


NONFINITE_CALLS = {
    "fmbs_select": lambda phi: fmbs_select(phi, 3, MU),
    "direct_greedy_select": lambda phi: direct_greedy_select(phi, 3, MU),
    "exhaustive_select": lambda phi: exhaustive_select(phi, 3, MU),
    "shifted_normal_objective": lambda phi: shifted_normal_objective(phi, [0, 5, 2], MU),
    "submatrix_objective": lambda phi: submatrix_objective(phi, [0, 5, 2], MU),
    "expected_mse": lambda phi: expected_mse(phi, [0, 5, 2], 1.0),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(NONFINITE_CALLS))
def test_nonfinite_input_rejected(entry, value):
    phi = np.random.default_rng(19).standard_normal((8, 2))
    phi[5, 1] = value
    with pytest.raises(NonFiniteInput, match="row 5, column 1") as excinfo:
        NONFINITE_CALLS[entry](phi)
    assert isinstance(excinfo.value, FmbsError) and isinstance(excinfo.value, ValueError)


OVERFLOW_CALLS = {
    "fmbs_select": lambda phi: fmbs_select(phi, 8, MU),
    "direct_greedy_select": lambda phi: direct_greedy_select(phi, 8, MU),
    "exhaustive_select": lambda phi: exhaustive_select(phi[:10], 5, MU),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOW_CALLS))
def test_overflowing_row_norm_named(entry):
    # every entry is finite but |phi_7|^2 overflows: each method names the
    # row before it scores a candidate, with no numpy overflow warning
    # (which the test configuration turns into an error)
    phi = generate(ModelSpec(Model.GAUSSIAN, 30, 4, 1))
    phi[7] *= 1e160
    with pytest.raises(NonFiniteInput, match=r"^row 7: squared norm overflows$"):
        OVERFLOW_CALLS[entry](phi)


@pytest.mark.parametrize(
    "call",
    [fmbs_select, direct_greedy_select, exhaustive_select, GreedyState],
    ids=lambda f: f.__name__,
)
def test_infinite_mu_rejected(call):
    phi = np.random.default_rng(23).standard_normal((8, 3))
    with pytest.raises(ValueError, match="positive and finite"):
        call(phi, 4, np.inf)


def test_fmbs_worked_example():
    result = fmbs_select(PHI3, 2, MU)
    assert result.indices == [0, 1]
    assert result.method == "fmbs"
    # trace entries equal the from-scratch submatrix objectives
    assert result.objective_trace[0] == pytest.approx(1.0 / (4.0 + MU), rel=1e-12)
    assert result.objective_trace[1] == pytest.approx(
        submatrix_objective_brute(PHI3, [0, 1], MU), rel=1e-10
    )
    assert len(result.step_times_ns) == 2


def test_fmbs_candidate_costs_worked_example():
    state = GreedyState(PHI3, 2, MU)
    assert state.selected == [0]
    # the first winner has no rows before it
    assert state.chosen_p.shape == state.chosen_r.shape == (0,)
    assert state.step() == 1
    # winner 1 is orthogonal to row 0: cost (0 + 1) / (1 + mu)
    assert state.chosen_p == pytest.approx([0.0], abs=0.0)
    assert state.chosen_r == pytest.approx([0.0], abs=0.0)
    assert state.chosen_h == pytest.approx(1.0 + MU, rel=1e-14)
    gain = state.objective_trace[1] - state.objective_trace[0]
    assert gain == pytest.approx(1.0 / (1.0 + MU), rel=1e-14)
    # candidate 2: p = 2, r = 2/(4+mu), h = (2+mu) - 4/(4+mu)
    c2 = state.candidate_state(2)
    assert c2.p == pytest.approx([2.0], abs=0.0)
    assert c2.r == pytest.approx([2.0 / (4.0 + MU)], rel=1e-14)
    h_expected = (2.0 + MU) - 4.0 / (4.0 + MU)
    assert c2.h == pytest.approx(h_expected, rel=1e-13)
    assert c2.cost == pytest.approx(((2.0 / (4.0 + MU)) ** 2 + 1.0) / h_expected, rel=1e-12)
    # both candidate increments match the objective growth computed fresh
    base = 1.0 / (4.0 + MU)
    for i, cost in ((1, gain), (2, c2.cost)):
        fresh = submatrix_objective_brute(PHI3, [0, i], MU) - base
        assert cost == pytest.approx(fresh, rel=1e-10)


def test_fmbs_identity_tie_break():
    for scale in (1.0, -2.5):
        result = fmbs_select(scale * np.eye(6), 4, MU)
        assert result.indices == [0, 1, 2, 3]


def test_fmbs_first_step_is_largest_row_norm():
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.standard_normal((int(rng.integers(4, 30)), int(rng.integers(2, 5))))
        norms = np.einsum("ij,ij->i", phi, phi)
        expected = int(np.argmax(norms))
        for mu in (1e-6, 1e-4, 1e-1):
            assert fmbs_select(phi, 1, mu).indices == [expected]


def test_fmbs_duplicate_rows_tie_break():
    # rows 0 and 3 identical with the largest norm: smallest index wins
    phi = np.array([[3.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 0.0]])
    assert fmbs_select(phi, 1, MU).indices == [0]


def test_fmbs_budget_validation():
    with pytest.raises(BudgetError):
        fmbs_select(PHI3, 4, MU)
    with pytest.raises(BudgetError):
        fmbs_select(PHI3, 0, MU)
    with pytest.raises(ValueError):
        fmbs_select(PHI3, 2, -1.0)


@pytest.mark.parametrize("select", [fmbs_select, direct_greedy_select, exhaustive_select])
def test_fractional_budget_is_refused_not_truncated(select):
    # a budget of 2.7 returned 2 rows; an integral float or numpy int still passes
    with pytest.raises(BudgetError, match="got 2.7"):
        select(PHI3, 2.7, MU)
    assert select(PHI3, 2.0, MU).indices == select(PHI3, np.int64(2), MU).indices == [0, 1]
    with pytest.raises(BudgetError, match="got 2.7"):
        random_select(3, 2.7, 0)


def test_fractional_row_count_is_refused_not_truncated():
    # random_select(5.7, ...) drew from 5 rows; an integral float or numpy int still passes
    with pytest.raises(InvalidParameter, match="got 5.7"):
        random_select(5.7, 2, 0)
    assert random_select(5.0, 2, 0).indices == random_select(np.int64(5), 2, 0).indices \
        == random_select(5, 2, 0).indices


def test_fractional_candidate_is_refused_not_truncated():
    # candidate_state(0.7) returned candidate 0's data; an integral float still passes
    state = GreedyState(PHI3, 2, MU)
    state.step()
    with pytest.raises(InvalidSampleSet, match="0.7 is not"):
        state.candidate_state(0.7)
    for i in (2.0, np.int64(2)):
        cand = state.candidate_state(i)
        assert type(cand.index) is int and cand.cost == state.candidate_state(2).cost


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_non_finite_whole_numbers_raise_named_errors(bad):
    # int(x) != x raised a bare ValueError for NaN and OverflowError for inf;
    # every integrality check now refuses them by its own named error
    state = GreedyState(PHI3, 2, MU)
    state.step()
    cases = [
        (InvalidParameter, lambda: as_count(bad, "trials")),
        (InvalidParameter, lambda: as_seed(bad)),
        (BudgetError, lambda: fmbs_select(PHI3, bad, MU)),
        (BudgetError, lambda: fmbs_select(PHI3, 2, MU).prefix(bad)),
        (InvalidParameter, lambda: random_select(bad, 2, 0)),
        (InvalidSpec, lambda: ModelSpec(Model.GAUSSIAN, bad, 2, 0)),
        (InvalidSpec, lambda: ModelSpec(Model.GAUSSIAN, 10, bad, 0)),
        (InvalidSampleSet, lambda: state.candidate_state(bad)),
    ]
    for error, call in cases:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("error, call", [
    (BudgetError, lambda: fmbs_select(PHI3, None, MU)),
    (InvalidParameter, lambda: fmbs_select(PHI3, 2, None)),
    (InvalidParameter, lambda: fmbs_select(PHI3, 2, "abc")),
    (InvalidParameter, lambda: random_select(20, 5, None)),
    (InvalidParameter, lambda: expected_mse(PHI3, [0, 1], None)),
    (InvalidSpec, lambda: ModelSpec(Model.GAUSSIAN, None, 2, 0)),
    (InvalidSampleSet, lambda: GreedyState(PHI3, 2, MU).candidate_state(None)),
    (BudgetError, lambda: fmbs_select(PHI3, 2, MU).prefix(None)),
    (InvalidSampleSet, lambda: expected_mse(PHI3, None, 1.0)),
    (InvalidSampleSet, lambda: expected_mse(PHI3, [[0, 1], [2]], 1.0)),
    (InvalidParameter, lambda: fmbs_select(PHI3, 2, "0.5")),
    (InvalidParameter, lambda: expected_mse(PHI3, [0, 1, 2], "1")),
    (NonFiniteInput, lambda: fmbs_select([["a", "b"]], 1, 1.0)),
    (DimensionError, lambda: fmbs_select([[1.0, 2.0], [3.0]], 1, 1.0)),
    (NonFiniteInput, lambda: fmbs_select([["1.5", "2"]], 1, 1.0)),
    (NonFiniteInput, lambda: pseudo_inverse_apply(PHI3, ["a", 1, 2])),
], ids=["budget", "mu-None", "mu-str", "seed", "sigma2", "spec-n", "candidate",
        "prefix", "sample-set-None", "sample-set-ragged", "mu-numeric-str", "sigma2-numeric-str",
        "matrix-str", "matrix-ragged", "matrix-numeric-str", "vector-str"])
def test_non_numbers_raise_named_errors(error, call):
    # float(None), int(None), list(None), a ragged array and a string
    # entry raised a bare TypeError or ValueError, and a numeric string
    # was converted; each check now refuses them by its own name
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: as_shift("0.5"), "got '0.5'"),
    (lambda: as_variance("1"), "got '1'"),
    (lambda: as_seed("3"), "got '3'"),
    (lambda: as_count("2", "trials"), "got '2'"),
    (lambda: fmbs_select(PHI3, "2", MU), "got '2'"),
    (lambda: as_shift(np.float64(-0.5)), "got -0.5"),
    (lambda: as_count(np.int64(0), "trials"), "got 0"),
], ids=["mu-str", "sigma2-str", "seed-str", "count-str", "budget-str", "mu-numpy", "count-numpy"])
def test_refused_value_is_shown(call, message):
    # a string is quoted, where "3" read as the refused number 3; a number,
    # a numpy scalar too, is shown as it prints
    with pytest.raises(FmbsError) as excinfo:
        call()
    assert str(excinfo.value).endswith(message)


@pytest.mark.parametrize("select", [fmbs_select, direct_greedy_select])
def test_prefix_is_the_run_at_a_smaller_budget(select):
    # greedy runs are nested: the first m picks of a run at budget 6 are the
    # run at budget m, and their seconds the sum of its first m step times
    phi = generate(ModelSpec(Model.GAUSSIAN, 30, 4, 11))
    full = select(phi, 6, MU)
    for m in range(1, 7):
        indices, seconds = full.prefix(m)
        assert indices == select(phi, m, MU).indices
        assert seconds == sum(full.step_times_ns[:m]) / 1e9
    for bad in (0, -2, 7, 2.5):
        with pytest.raises(BudgetError, match=f"got {bad}"):
            full.prefix(bad)


@pytest.mark.parametrize("select", [fmbs_select, direct_greedy_select, exhaustive_select])
def test_memory_layout_changes_no_pick(select):
    # a Fortran-ordered Phi and row- and column-strided views are copied
    # C-contiguous before any scoring, so each gives the C-ordered run's
    # picks and traces bitwise, past depth K too
    n, k, m = (14, 3, 5) if select is exhaustive_select else (60, 8, 20)
    phi = np.random.default_rng(35).standard_normal((n, k))
    baseline = select(phi, m, MU)
    strided = (np.repeat(phi, 2, axis=0)[::2], np.repeat(phi, 2, axis=1)[:, ::2])
    for layout in (np.asfortranarray(phi), *strided):
        assert not layout.flags.c_contiguous
        result = select(layout, m, MU)
        assert result.indices == baseline.indices
        assert result.objective_trace == baseline.objective_trace


def test_direct_greedy_worked_example():
    result = direct_greedy_select(PHI3, 2, MU)
    assert result.indices == [0, 1]
    assert result.method == "greedy-direct"


def test_direct_greedy_identity():
    assert direct_greedy_select(np.eye(5), 3, MU).indices == [0, 1, 2]


@pytest.mark.parametrize("entries", [1, 2**24])
def test_direct_greedy_stack_size_invisible(monkeypatch, traced_peak, entries):
    # one candidate per row block and every candidate in one block both
    # give the default run's picks and traces bitwise, before and past
    # depth K; the run's buffers hold what its blocks need (1.6 KB of rows
    # here), never a whole block of 2**24 entries
    import fmbs.placement as placement

    phi = np.random.default_rng(21).standard_normal((40, 5))
    baseline = direct_greedy_select(phi, 12, MU)
    monkeypatch.setattr(placement, "_BLOCK_ENTRIES", entries)
    stacked = direct_greedy_select(phi, 12, MU)
    assert stacked.indices == baseline.indices
    assert stacked.objective_trace == baseline.objective_trace
    assert traced_peak(lambda: direct_greedy_select(phi, 12, MU)) <= 100_000


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "negative-zero"])
def test_stack_scores_equal_single_matrix_traces(kind):
    # every score, below and past depth K, is == the candidate scored
    # alone, and within 1e-12 of sum 1/(sigma^2 + mu) from an SVD of
    # [A; phi_i] (past K, the objective less (t + 1 - K)/mu); -0.0
    # entries change no product's bits
    from fmbs.placement import _extension_traces, _stack_buffers

    n, k = 60, 20
    rng = np.random.default_rng(41)
    if kind == "bernoulli":
        phi = generate(ModelSpec(Model.BERNOULLI, n, k, 41))
    else:
        phi = rng.standard_normal((n, k))
        if kind == "negative-zero":
            phi[rng.random((n, k)) < 0.3] = -0.0
    # sized for a run at budget k + 4, the deepest base below plus one
    buffers = _stack_buffers(n, k, k + 4)
    for t in (0, 1, 2, k - 1, k, k + 3):
        base = list(range(0, 2 * t, 2))
        candidates = np.setdiff1d(np.arange(n), base)
        vals = _extension_traces(phi, base, candidates, MU, buffers)
        a = phi[base]
        for i, val in zip(candidates, vals):
            assert val == _extension_traces(phi, base, np.array([i]), MU, buffers)[0], (t, i)
            sigma = np.linalg.svd(np.vstack([a, phi[i]]), compute_uv=False)
            ref = float(np.sum(1.0 / (sigma**2 + MU)))
            assert abs(val - ref) <= 1e-12 * ref, (t, i)


@pytest.mark.parametrize("entries", [1, 2**24])
def test_direct_greedy_duplicate_rows_tie_break(monkeypatch, entries):
    import fmbs.placement as placement

    monkeypatch.setattr(placement, "_BLOCK_ENTRIES", entries)
    # rows 1 and 4 are identical and tie as the best second pick
    phi = np.array([[3.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.5], [0.0, 1.0]])
    assert direct_greedy_select(phi, 2, MU).indices == [0, 1]
    # up to depth K, a copy of every row appended after the originals
    # never wins a tie
    base = np.random.default_rng(22).standard_normal((15, 6))
    expected = direct_greedy_select(base, 6, MU).indices
    assert direct_greedy_select(np.vstack([base, base]), 6, MU).indices == expected


def test_oracle_equivalence_sample():
    # small pre-run of the full acceptance sweep
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 17))
        k = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        phi = rng.standard_normal((n, k))
        fast = fmbs_select(phi, m, MU)
        slow = direct_greedy_select(phi, m, MU)
        assert fast.indices == slow.indices
        for a, b in zip(fast.objective_trace, slow.objective_trace):
            assert abs(a - b) <= 1e-8 * abs(b)


def test_objective_trace_consistency():
    rng = np.random.default_rng(12)
    phi = rng.standard_normal((25, 4))
    for result in (fmbs_select(phi, 10, MU), direct_greedy_select(phi, 10, MU)):
        for t, value in enumerate(result.objective_trace):
            fresh = submatrix_objective_brute(phi, result.indices[: t + 1], MU)
            assert abs(value - fresh) <= 1e-6 * abs(fresh)


def test_cost_identity_every_step():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((18, 4))
    for mu in (1e-2, 1e-4):
        state = GreedyState(phi, 8, mu)
        while not state.complete:
            before = list(state.selected)
            base = submatrix_objective_brute(phi, before, mu)
            winner = state.step()
            # the committed costs score every candidate against the rows
            # selected before this step, the winner included
            fresh = submatrix_objective_brute(phi, before + [winner], mu) - base
            gain = state.objective_trace[-1] - state.objective_trace[-2]
            chosen_cost = (float(state.chosen_r @ state.chosen_r) + 1.0) / state.chosen_h
            assert abs(gain - fresh) <= 1e-8 * abs(fresh)
            assert abs(chosen_cost - fresh) <= 1e-8 * abs(fresh)
            # from depth K on the cost is 1/mu less the K-space gain, which
            # the check above sees only at the scale of 1/mu; hold the gain
            # to a fresh inverse at its own scale
            gains = exact_gains(phi, before, mu) if len(before) >= phi.shape[1] else None
            for i in state.candidate_indices():
                cand = state.candidate_state(int(i))
                fresh = submatrix_objective_brute(phi, before + [int(i)], mu) - base
                assert abs(cand.cost - fresh) <= 1e-8 * abs(fresh)
                if gains is not None:
                    assert abs(1.0 / mu - cand.cost - gains[i]) <= 1e-9 * gains[i]


def test_warm_start_matches_direct_solves():
    rng = np.random.default_rng(14)
    phi = rng.standard_normal((40, 5))
    state = GreedyState(phi, 12, MU)
    while not state.complete:
        state.step()
        t = state.depth
        base = state.selected[:t]
        a = phi[base]
        q = a @ a.T + MU * np.eye(t)
        for i in state.candidate_indices():
            cand = state.candidate_state(int(i))
            p_direct = a @ phi[i]
            r_direct = np.linalg.solve(q, p_direct)
            h_direct = float(phi[i] @ phi[i] + MU - p_direct @ r_direct)
            assert np.linalg.norm(cand.p - p_direct) <= 1e-8 * (1 + np.linalg.norm(p_direct))
            assert np.linalg.norm(cand.r - r_direct) <= 1e-8 * (1 + np.linalg.norm(r_direct))
            assert abs(cand.h - h_direct) <= 1e-8 * abs(h_direct)


def test_warm_start_drift_deep_run():
    # even far past the column count, recursion drift stays orders below
    # the 1e-8 contract
    phi = np.random.default_rng(18).standard_normal((300, 30))
    q_diag = np.einsum("ij,ij->i", phi, phi) + MU
    state = GreedyState(phi, 60, MU)
    worst = 0.0
    while not state.complete:
        state.step()
        t = state.depth
        if t % 15 or t == 0:
            continue
        a = phi[state.selected[:t]]
        q = a @ a.T + MU * np.eye(t)
        for i in state.candidate_indices()[::25]:
            cand = state.candidate_state(int(i))
            r_direct = np.linalg.solve(q, a @ phi[i])
            h_direct = float(q_diag[i] - (a @ phi[i]) @ r_direct)
            worst = max(worst, abs(cand.h - h_direct) / abs(h_direct))
    assert worst <= 1e-8


@pytest.mark.parametrize("model", [Model.GAUSSIAN, Model.BERNOULLI], ids=lambda m: m.name.lower())
def test_greedy_state_small_mu(model):
    # at mu = 1e-10 a run to three times K raises no DegenerateSchur, every
    # cost is finite and past depth K every h = mu (1 + d) is at least mu
    n, k, m = 300, 30, 90
    mu = 1e-10
    phi = generate(ModelSpec(model, n, k, 31))
    state = GreedyState(phi, m, mu)
    chosen = {}
    while not state.complete:
        state.step()
        chosen[state.depth] = (state.chosen_r, state.chosen_h)
        for i in state.candidate_indices():
            cand = state.candidate_state(int(i))
            assert np.isfinite(cand.cost), (state.depth, int(i))
            assert state.depth < k or cand.h >= mu, (state.depth, int(i))
    # chosen_r and chosen_h of the winner at step s match candidate_state of
    # its twin: a copy of the winner written over a row the run never
    # selects, which is still a candidate when a rerun has made step s
    spare = max(set(range(n)) - set(state.selected))
    for s, (chosen_r, chosen_h) in chosen.items():
        winner = state.selected[s]
        twin_phi = phi.copy()
        twin_phi[spare] = phi[winner]
        twin = GreedyState(twin_phi, m, mu)
        for _ in range(s):
            twin.step()
        assert twin.selected[:s] == state.selected[:s]
        assert twin.selected[s] in (winner, spare)
        cand = twin.candidate_state(spare if twin.selected[s] == winner else winner)
        assert np.linalg.norm(cand.r - chosen_r) <= 1e-12 * np.linalg.norm(cand.r), s
        assert abs(cand.h - chosen_h) <= 1e-12 * cand.h, s


def rank3_matrix():
    """20 x 6 rows of rank 3: past three picks every candidate's h is mu."""
    rng = np.random.default_rng(7)
    return rng.standard_normal((20, 3)) @ rng.standard_normal((3, 6))


def test_greedy_state_degenerate_schur_names_candidate():
    # row 8 copies row 7, the first pick; at mu = 1e-13 its Schur
    # complement against its selected twin is rounding noise, but it never
    # wins, so the run completes with greedy-direct's picks
    base = np.random.default_rng(5).standard_normal((8, 6))
    phi = np.vstack([base, base[7]])
    assert fmbs_select(phi, 9, 1e-13).indices == direct_greedy_select(phi, 9, 1e-13).indices
    # on rank-3 rows every candidate is degenerate after three picks: the
    # error names the winner, an unselected row
    state = GreedyState(rank3_matrix(), 5, 1e-13)
    with pytest.raises(DegenerateSchur, match=r"^candidate \d+: ") as excinfo:
        while not state.complete:
            state.step()
    assert len(state.selected) == 3
    named = int(str(excinfo.value).split()[1].rstrip(":"))
    assert named not in state.selected


@pytest.mark.parametrize("mu", [1e-12, 1e-13, 1e-14])
def test_direct_greedy_picks_on_all_degenerate_input(mu):
    # greedy-direct factors each candidate's matrix and has no floor: where
    # every candidate is degenerate it returns the pick that rounding
    # decides, while fmbs refuses the step
    phi = rank3_matrix()
    assert len(direct_greedy_select(phi, 5, mu).indices) == 5
    with pytest.raises(DegenerateSchur):
        fmbs_select(phi, 5, mu)


def tiny_rows():
    """7 x 1 rows of norm 1e-110 or 0: past depth K = 1, Ninv is 1/(1e-220 + mu)."""
    return 1e-110 * np.array([[1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0]]).T


def degenerate_probe_inputs():
    """Inputs with rows whose Schur complement falls to rounding at tiny mu."""
    gauss = generate(ModelSpec(Model.GAUSSIAN, 40, 6, 1))
    yield "gaussian-copy", np.vstack([gauss, gauss]), (5, 9)
    for n, k, seed in ((300, 10, 1), (300, 10, 2), (200, 20, 1)):
        yield f"bernoulli-{n}x{k}-{seed}", generate(ModelSpec(Model.BERNOULLI, n, k, seed)), (k - 1, k + 3)
    base = np.random.default_rng(5).standard_normal((8, 6))
    yield "eight-plus-copy", np.vstack([base, base[7]]), (9,)


def degenerate_probe_params():
    for name, phi, budgets in degenerate_probe_inputs():
        for mu in (1e-12, 1e-13, 1e-14):
            for m in budgets:
                yield pytest.param(phi, m, mu, id=f"{name}-{m}-{mu:g}")
    # rows far below mu = 1e-200: Ninv is about 1/mu, and nothing overflows
    # (at mu = 1e-250 the K-space state overflows and fmbs raises)
    yield pytest.param(tiny_rows(), 5, 1e-200, id="tiny-rows-5-1e-200")
    # rows scaled down by 1e-7 at mu = 1e-18, the unscaled problem's 1e-4
    # times 1e-14: every Schur complement is below 1e-12, so only a floor
    # relative to q_ii lets fmbs complete
    scaled = 1e-7 * np.random.default_rng(1).standard_normal((50, 5))
    yield pytest.param(scaled, 10, 1e-18, id="scaled-1e-7-10-1e-18")


@pytest.mark.parametrize("phi,m,mu", degenerate_probe_params())
def test_fmbs_completes_at_tiny_mu(phi, m, mu):
    # duplicate and {0, 1} rows at mu <= 1e-12, rows of norm 1e-110 at
    # mu = 1e-200 and rows scaled by 1e-7 at mu = 1e-18: fmbs completes
    # wherever greedy-direct does, with its picks, and every trace entry
    # matches (t - K)/mu + sum 1/(sigma^2 + mu) from an SVD of the first t picks
    result = fmbs_select(phi, m, mu)
    assert result.indices == direct_greedy_select(phi, m, mu).indices
    k = phi.shape[1]
    for t, value in enumerate(result.objective_trace, start=1):
        sigma = np.linalg.svd(phi[result.indices[:t]], compute_uv=False)
        ref = max(0, t - k) / mu + float(np.sum(1.0 / (sigma**2 + mu)))
        assert abs(value - ref) <= 1e-12 * ref, t


@pytest.mark.parametrize("m", [4, 10])
@pytest.mark.parametrize("c", [2.0**-30, 2.0**-60, 2.0**30], ids=["2^-30", "2^-60", "2^30"])
def test_fmbs_is_scale_covariant(c, m):
    # (c phi, c^2 mu) poses the same problem with the objective divided by
    # c^2; a power of two scales exactly, so the picks are the unscaled ones
    # and every trace entry is the unscaled one over c^2, bit for bit, below
    # and past depth K = 5
    phi = np.random.default_rng(1).standard_normal((50, 5))
    base = fmbs_select(phi, m, 1e-4)
    scaled = fmbs_select(c * phi, m, 1e-4 * c * c)
    assert scaled.indices == base.indices
    assert scaled.objective_trace == [t / (c * c) for t in base.objective_trace]


@pytest.mark.parametrize("mu", [1e-15, 1e-16])
def test_tiny_mu_raises_no_runtime_warning(mu):
    # a carried h of exactly 0 is masked, not divided into a warning; the
    # all-degenerate input raises the named error and nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, phi, budgets in degenerate_probe_inputs():
            assert len(fmbs_select(phi, budgets[-1], mu).indices) == budgets[-1]
        with pytest.raises(DegenerateSchur):
            fmbs_select(rank3_matrix(), 5, mu)
        # a candidate whose carried h is not positive (one is exactly 0
        # here at mu = 1e-16) reports the step's masked score, an infinite
        # cost, rather than dividing by zero or into a negative cost
        base = np.random.default_rng(5).standard_normal((8, 6))
        state = GreedyState(np.vstack([base, base[7]]), 9, mu)
        while not state.complete:
            state.step()
            for i in state.candidate_indices():
                cand = state.candidate_state(int(i))
                assert cand.h > 0.0 or cand.cost == np.inf


@pytest.mark.parametrize("mu", [1e-250, 1e-299])
def test_k_space_overflow_raises_degenerate_schur(mu):
    # m/mu is finite, so mu is accepted, but the fold's -2 Ninv u is of
    # order |phi|/|phi|^4 = 1e330: fmbs names the winner instead of
    # returning an infinite trace, and no RuntimeWarning escapes first,
    # while greedy-direct completes with a finite trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSchur, match=r"^candidate \d+: K-space state overflowed"):
            fmbs_select(tiny_rows(), 5, mu)
        direct = direct_greedy_select(tiny_rows(), 5, mu)
    assert direct.indices == [0, 1, 3, 4, 5] and np.isfinite(direct.objective_trace).all()


def test_k_space_score_that_is_not_finite_is_named():
    # A holds two rows along e1, so Ninv is 1/mu = 1e300 along e2 and the
    # candidate (0, 1e9) has Ninv phi_i = 1e309: its score is not finite,
    # and the step and the candidate are named, with no RuntimeWarning
    from fmbs.placement import _extension_traces, _stack_buffers

    phi = np.array([[1e12, 0.0], [2e12, 0.0], [0.0, 1e9], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSchur, match=r"^step 2: candidate 2 scores nan, not finite$"):
            _extension_traces(phi, [0, 1], np.array([3, 2]), 1e-300, _stack_buffers(4, 2, 3))


@pytest.mark.parametrize("mu", [1e-200, 1e-300])
def test_direct_greedy_picks_where_a_prefix_is_rank_deficient(mu):
    # rows 0 and 1 lie along e1, so below depth K = 2 the candidate 0 has
    # the bordered A A^T + mu I of [2e12, 0] and [1e12, 0], singular to
    # rounding: a Cholesky factor of it raised NotPositiveDefinite, while
    # the QR of [A^T; sqrt(mu) I] scores it at 1/mu + tr(Q_S^{-1}), and
    # greedy-direct picks as fmbs does
    phi = np.array([[1e12, 0.0], [2e12, 0.0], [0.0, 1e9], [1.0, 1.0], [0.5, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direct = direct_greedy_select(phi, 3, mu)
    assert direct.indices == fmbs_select(phi, 3, mu).indices == [1, 2, 0]
    assert np.isfinite(direct.objective_trace).all()


def row_scale_params():
    """60 x 8 matrices whose row norms span up to 12 decades.

    Gaussian ones with row 0 scaled, and Gaussian and {0, 1} ones with
    geometrically spread row norms.  A {0, 1} matrix with one scaled row is
    left out: there float64 SVD itself is up to 3.1e-6 off the exact value.
    """
    for seed in (1, 2, 3):
        for scale in (1e3, 1e6, 1e9, 1e12):
            phi = generate(ModelSpec(Model.GAUSSIAN, 60, 8, seed))
            phi[0] *= scale
            yield pytest.param(phi, id=f"gaussian-{seed}-row0-{scale:g}")
        for model in (Model.GAUSSIAN, Model.BERNOULLI):
            for spread in (1e3, 1e6, 1e9, 1e12):
                phi = generate(ModelSpec(model, 60, 8, seed)) * np.geomspace(1.0, spread, 60)[:, None]
                yield pytest.param(phi, id=f"{model.name.lower()}-{seed}-spread-{spread:g}")


@pytest.mark.parametrize("phi", row_scale_params())
def test_k_space_score_matches_svd_under_row_scaling(phi):
    # greedy-direct's K-space score of the final pick, compared on its own
    # and not under (m - K)/mu, is within 1e-12 of sum 1/(sigma^2 + mu)
    # from an SVD of the picked rows, and greedy-direct picks as fmbs does;
    # a score that factored A^T A + mu I + phi_i phi_i^T was 7.2e-6 off at
    # a row scaled by 1e6 and raised NotPositiveDefinite at 1e9 and 1e12,
    # and below depth K, factoring each candidate's bordered A A^T + mu I
    # raised it on the {0, 1} spreads 1e9 and 1e12 of seeds 1 and 2
    from fmbs.placement import _extension_traces, _stack_buffers

    m, mu = 20, 1e-4
    picks = fmbs_select(phi, m, mu).indices
    buffers = _stack_buffers(*phi.shape, m)
    score = _extension_traces(phi, picks[:-1], np.array(picks[-1:]), mu, buffers)[0]
    sigma = np.linalg.svd(phi[picks], compute_uv=False)
    ref = float(np.sum(1.0 / (sigma**2 + mu)))
    assert abs(score - ref) <= 1e-12 * ref
    assert direct_greedy_select(phi, m, mu).indices == picks


def test_candidate_cost_is_the_step_score():
    # at mu = 1e-16 the copy of the first pick carries h = -1.78e-15 after
    # the first step; the step masks its score, so it is never picked, and
    # candidate_state reports that masked score as an infinite cost, not
    # b / h = -1.13e15, the lowest cost of all
    base = np.random.default_rng(1).standard_normal((8, 6))
    state = GreedyState(np.vstack([base, base[4]]), 7, 1e-16)
    assert state.selected == [4]
    state.step()
    copy = state.candidate_state(8)
    assert copy.h <= 0.0 and copy.cost == np.inf
    for i in state.candidate_indices()[:-1]:
        assert 0.0 < state.candidate_state(int(i)).cost < np.inf


def test_overflowing_objective_bound_is_refused():
    # every objective of m rows is at most m / mu, so a mu at which that
    # bound overflows is refused at the boundary, naming mu and m, before
    # any score is formed (1e-308 itself has a finite reciprocal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu, budget in ((1e-310, 3), (1e-308, 5)):
            for select in (fmbs_select, direct_greedy_select):
                with pytest.raises(InvalidParameter, match=rf"mu={mu}.*m={budget}"):
                    select(np.full((20, 3), 1e-160), budget, mu)


def test_selected_rows_excluded_in_both_regimes():
    # rows 4-7 copy rows 0-3, row 8 is zero and rows 9-10 copy rows 0-1:
    # a full-budget run takes every row once, up to depth K and past it,
    # in greedy-direct's order
    base = np.random.default_rng(3).standard_normal((4, 3))
    phi = np.vstack([base, base, np.zeros((1, 3)), base[:2]])
    indices = fmbs_select(phi, phi.shape[0], MU).indices
    assert sorted(indices) == list(range(phi.shape[0]))
    assert indices == direct_greedy_select(phi, phi.shape[0], MU).indices


def test_greedy_state_memory_is_one_block():
    # the state is a few N-vectors and K x K matrices: no budget x N or
    # depth x N array is ever held, so the peak stays far below one block
    n, k, m = 20000, 5, 100
    phi = np.random.default_rng(25).standard_normal((n, k))
    tracemalloc.start()
    try:
        fmbs_select(phi, m, MU)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * m * n * 8


def test_fmbs_select_transient_memory_is_one_block(traced_peak):
    # past depth K the switch builds d and e over row blocks of 256 KB, so
    # the peak is the O(N + K^2) state plus one block, far below Phi
    phi = np.random.default_rng(32).standard_normal((10000, 100))
    assert traced_peak(lambda: fmbs_select(phi, 300, MU)) <= 0.2 * phi.nbytes


def test_direct_greedy_transient_memory_is_one_block(traced_peak):
    # a row block counts each candidate's row and its products, so the
    # candidate rows it gathers (8 MB for all of them here) stay within
    # one block with their products
    phi = np.random.default_rng(33).standard_normal((10000, 100))
    assert traced_peak(lambda: direct_greedy_select(phi, 3, MU)) <= 1_000_000


def test_blocked_loops_hold_one_block_at_a_time(traced_peak):
    # each loop writes its block in place, so it never holds the next
    # block while the last one is still bound: the step that switches to
    # K space stays within two 256 KB blocks, and greedy-direct, whose
    # products sit beside the rows they gather, within three
    phi = np.random.default_rng(33).standard_normal((10000, 100))
    states = []
    for _ in range(2):
        state = GreedyState(phi, 101, MU)
        while len(state.selected) < phi.shape[1]:
            state.step()
        states.append(state)
    assert traced_peak(lambda: states.pop().step()) <= 500_000
    assert traced_peak(lambda: direct_greedy_select(phi, 3, MU)) <= 750_000


@pytest.mark.parametrize("entries", [1, 2**24])
def test_fmbs_block_size_invisible(monkeypatch, entries):
    # one row of Phi per block at the switch to K space and all of Phi in
    # one block both give the default run's picks and traces bitwise
    import fmbs.placement as placement

    phi = np.random.default_rng(34).standard_normal((300, 7))
    baseline = fmbs_select(phi, 40, MU)
    monkeypatch.setattr(placement, "_BLOCK_ENTRIES", entries)
    blocked = fmbs_select(phi, 40, MU)
    assert blocked.indices == baseline.indices
    assert blocked.objective_trace == baseline.objective_trace


def exact_increments(phi, prefix, mu):
    """Growth of the submatrix objective when each row is appended to prefix.

    Independent of the warm start, for len(prefix) < K: a fresh solve
    against Q_S gives (|r_i|^2 + 1) / h_i.
    """
    t = len(prefix)
    a = phi[prefix]
    p = a @ phi.T
    r = np.linalg.solve(a @ a.T + mu * np.eye(t), p)
    h = np.einsum("ij,ij->i", phi, phi) + mu - np.einsum("ij,ij->j", p, r)
    return (np.einsum("ij,ij->j", r, r) + 1.0) / h


def exact_gains(phi, prefix, mu):
    """K-space gain of appending each row to prefix, for len(prefix) >= K.

    tr((A A^T + mu I)^-1) equals (t - K) / mu + tr((A^T A + mu I)^-1), so
    appending row i adds 1/mu less the Sherman-Morrison decrease
    |x_i|^2 / (1 + x_i . phi_i) of the K x K trace, x_i = N^-1 phi_i,
    computed here from a fresh inverse.
    """
    a = phi[prefix]
    x = phi @ np.linalg.inv(a.T @ a + mu * np.eye(phi.shape[1]))
    return np.einsum("ij,ij->i", x, x) / (1.0 + np.einsum("ij,ij->i", x, phi))


def assert_picks_exact_best(phi, indices, every):
    # up to depth K each checked pick's increment is within 1e-9 of the
    # best; past it the increment is 1/mu less a gain about 1/mu times
    # smaller, so the gain itself is held to 1e-9 of the best gain
    n, k = phi.shape
    free = np.ones(n, dtype=bool)
    for t, pick in enumerate(indices):
        if t % every == 0:
            if t < k:
                cost = np.where(free, exact_increments(phi, indices[:t], MU), np.inf)
                best = float(cost.min())
                assert cost[pick] - best <= 1e-9 * best, (t, pick)
            else:
                gain = np.where(free, exact_gains(phi, indices[:t], MU), -np.inf)
                best = float(gain.max())
                assert best - gain[pick] <= 1e-9 * best, (t, pick)
        free[pick] = False


@pytest.mark.parametrize("n,k,m", [(500, 20, 60), (3000, 10, 200)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fmbs_picks_score_as_exact_best(n, k, m, seed):
    phi = np.random.default_rng(seed).standard_normal((n, k))
    indices = fmbs_select(phi, m, MU).indices
    assert_picks_exact_best(phi, indices, 1)
    assert direct_greedy_select(phi, k + 1, MU).indices == indices[: k + 1]


@pytest.mark.parametrize("n,k,m", [(500, 20, 60), (2000, 50, 150)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fmbs_picks_score_as_exact_best_bernoulli(n, k, m, seed):
    # {0, 1} rows tie exactly, and the smallest index among the tied wins;
    # every pick scores as the exact best
    phi = generate(ModelSpec(Model.BERNOULLI, n, k, seed))
    assert_picks_exact_best(phi, fmbs_select(phi, m, MU).indices, 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fmbs_picks_score_as_exact_best_far_past_k(seed):
    # M = 20 K: every 10th pick, nearly all of them in K space
    phi = np.random.default_rng(seed).standard_normal((2000, 20))
    assert_picks_exact_best(phi, fmbs_select(phi, 400, MU).indices, 10)


@pytest.mark.parametrize("n,k,m", [(200, 20, 40), (300, 10, 30)])
def test_bernoulli_ties_agree_with_direct_greedy(n, k, m):
    # exact ties on {0, 1} rows go to the smallest index in both methods,
    # whatever either one's rounding, so their sequences are identical
    for seed in range(1, 31):
        phi = generate(ModelSpec(Model.BERNOULLI, n, k, seed))
        assert fmbs_select(phi, m, MU).indices == direct_greedy_select(phi, m, MU).indices, seed


def test_pick_tie_width():
    # scores within _TIE of the objective after the step (offset + best)
    # are one decision for the smallest index; 4 _TIE apart, the better wins
    from fmbs.placement import _MASKED, _TIE, _pick

    objective = 3.0
    offset = objective - 1.0
    assert _pick(np.array([1.0 + 0.5 * _TIE * objective, 1.0]), offset) == 0
    assert _pick(np.array([1.0 + 4.0 * _TIE * objective, 1.0]), offset) == 1
    assert _pick(np.array([-1.0, -1.0 - 0.5 * _TIE * 2.0]), 3.0) == 0
    # every candidate masked: the first one wins over the selected row's
    # +inf, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _pick(np.array([np.inf, _MASKED, _MASKED]), 5.0) == 1
        assert _pick(np.array([np.inf, _MASKED]), np.inf) == 1


def test_placement_picks_only_through_pick():
    # every pick of every method goes through _pick, so one tie rule holds
    import fmbs.placement as placement

    tree = ast.parse(pathlib.Path(placement.__file__).read_text())
    callers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("argmin", "nanargmin"):
                    callers.add(func.name)
    assert callers == {"_pick"}


def reference_greedy(phi, picks, mu):
    """Greedy on a fresh inverse per candidate, in plain numpy.

    Every candidate's matrix is inverted from scratch: the submatrix of
    Phi Phi^T + mu I up to side K, the K x K matrix A^T A + mu I past it
    (which differs from the submatrix objective by the same (t + 1 - K)/mu
    for every candidate).  At each step it takes the best candidate, or
    the tested method's pick from picks when that scores within 1e-12 of
    the best: {0, 1} matrices have exact ties, such as two rows that are
    mirror images under the selected rows, and rounding orders them
    arbitrarily.
    """
    n, k = phi.shape
    selected = []
    for t in range(len(picks)):
        free = np.array([i for i in range(n) if i not in selected])
        rows = phi[np.column_stack([np.tile(selected, (free.size, 1)), free]).astype(int)]
        if t + 1 <= k:
            q = rows @ rows.transpose(0, 2, 1) + mu * np.eye(t + 1)
        else:
            q = rows.transpose(0, 2, 1) @ rows + mu * np.eye(k)
        vals = np.trace(np.linalg.inv(q), axis1=1, axis2=2)
        best = int(np.argmin(vals))
        mine = np.flatnonzero(free == picks[t])
        if mine.size and vals[mine[0]] <= vals[best] * (1.0 + 1e-12):
            best = int(mine[0])
        selected.append(int(free[best]))
    return selected


SWEEP_SHAPE = (120, 10, 25)
SWEEP_MUS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def sweep_params():
    for select in (direct_greedy_select, fmbs_select):
        for model in (Model.GAUSSIAN, Model.BERNOULLI):
            for mu in SWEEP_MUS:
                yield pytest.param(select, model, mu,
                                   id=f"{select.__name__}-{model.name.lower()}-{mu:g}")


@pytest.mark.parametrize("select,model,mu", sweep_params())
def test_small_mu_matches_fresh_inverse_greedy(select, model, mu):
    # the final K-space objective of a greedy run matches a greedy that
    # inverts every candidate's matrix afresh, at every mu down to 1e-10
    n, k, m = SWEEP_SHAPE
    for seed in range(10):
        phi = generate(ModelSpec(model, n, k, seed))
        picks = select(phi, m, mu).indices
        got = shifted_normal_objective(phi, picks, mu)
        expected = shifted_normal_objective(phi, reference_greedy(phi, picks, mu), mu)
        assert abs(got - expected) <= 1e-9 * expected, (seed, got / expected - 1.0)


@pytest.mark.parametrize("n,k,m", [(9, 1, 9), (12, 4, 12), (30, 6, 6), (30, 6, 7), (30, 6, 12)])
def test_direct_greedy_regime_switch(n, k, m):
    # K = 1, a full selection past K, and runs ending at t + 1 == K and
    # t + 1 == K + 1: same picks as fmbs and exact traces at every step
    phi = np.random.default_rng(27).standard_normal((n, k))
    direct = direct_greedy_select(phi, m, MU)
    assert direct.indices == fmbs_select(phi, m, MU).indices
    for t, value in enumerate(direct.objective_trace):
        fresh = submatrix_objective(phi, direct.indices[: t + 1], MU)
        assert abs(value - fresh) <= 1e-8 * fresh, t


@pytest.mark.parametrize("entries", [1, 2**24])
def test_direct_greedy_tie_past_depth_k(monkeypatch, entries):
    # a copy of the row picked at step s, appended last, ties with it
    # there; in one row block or in separate ones, the original wins
    import fmbs.placement as placement

    monkeypatch.setattr(placement, "_BLOCK_ENTRIES", entries)
    base = np.random.default_rng(28).standard_normal((16, 3))
    expected = direct_greedy_select(base, 9, MU).indices
    for s in range(3, 9):
        phi = np.vstack([base, base[expected[s]]])
        assert direct_greedy_select(phi, s + 1, MU).indices == expected[: s + 1], s


def test_greedy_state_access_guards():
    state = GreedyState(PHI3, 2, MU)
    with pytest.raises(ValueError):
        state.candidate_state(1)  # nothing committed before the first step
    with pytest.raises(IndexError):
        state.candidate_state(0)  # already selected
    state.step()
    assert state.complete
    with pytest.raises(BudgetError):
        state.step()


def test_exhaustive_worked_example():
    result = exhaustive_select(PHI3, 2, MU)
    assert result.indices == [0, 1]
    # enumeration oracle: all three pairs, brute-force eigenvalues
    vals = {
        (0, 1): submatrix_objective_brute(PHI3, [0, 1], MU),
        (0, 2): submatrix_objective_brute(PHI3, [0, 2], MU),
        (1, 2): submatrix_objective_brute(PHI3, [1, 2], MU),
    }
    assert min(vals, key=vals.get) == (0, 1)
    assert result.objective_trace[-1] == pytest.approx(vals[(0, 1)], rel=1e-10)


def test_exhaustive_full_set():
    result = exhaustive_select(PHI3, 3, MU)
    assert result.indices == [0, 1, 2]


def test_exhaustive_guard():
    with pytest.raises(TooLarge):
        exhaustive_select(np.random.default_rng(0).standard_normal((40, 2)), 20, MU)


def test_exhaustive_lower_bounds_greedy():
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(6, 12))
        phi = rng.standard_normal((n, int(rng.integers(2, 4))))
        m = int(rng.integers(2, 5))
        best = exhaustive_select(phi, m, MU)
        greedy = fmbs_select(phi, m, MU)
        # sorted evaluation makes equal sets bit-identical; 1e-9 covers
        # factorization round-off between genuinely different sets
        opt = submatrix_objective(phi, sorted(best.indices), MU)
        got = submatrix_objective(phi, sorted(greedy.indices), MU)
        assert opt <= got * (1.0 + 1e-9)


@pytest.mark.parametrize("entries", [1, 2**24])
def test_exhaustive_stack_size_invisible(monkeypatch, entries):
    # the products of exhaustive change width from prefix to prefix; one
    # subset per row block and every subset of a prefix in one block both give
    # the default run's optimum, before and past m = K, also where copied
    # rows make distinct subsets tie exactly
    import fmbs.placement as placement

    base = np.random.default_rng(29).standard_normal((7, 3))
    phis = [np.random.default_rng(30).standard_normal((11, 3)), np.vstack([base, base])]
    cases = [(phi, m) for phi in phis for m in (2, 3, 5)]
    expected = [exhaustive_select(phi, m, MU) for phi, m in cases]
    monkeypatch.setattr(placement, "_BLOCK_ENTRIES", entries)
    for (phi, m), want in zip(cases, expected):
        got = exhaustive_select(phi, m, MU)
        assert got.indices == want.indices
        assert got.objective_trace == want.objective_trace


def test_exhaustive_exact_tie_within_ulps():
    # rows 7-13 copy rows 0-6, so the eight subsets holding rows 0, 4 and 6
    # tie in exact arithmetic; their rows are factored in different orders,
    # and their scores differ by ulps, within the tie width, so the
    # lexicographically smallest of them wins, at the best score within ulps
    base = np.random.default_rng(29).standard_normal((7, 3))
    phi = np.vstack([base, base])
    result = exhaustive_select(phi, 3, MU)
    assert result.indices == [0, 4, 6]
    best = min(submatrix_objective(phi, s, MU) for s in itertools.combinations(range(14), 3))
    assert abs(result.objective_trace[-1] - best) <= 4 * np.spacing(best)


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_well_conditioned_past_k(seed):
    # at mu = 1e-10 the m x m submatrix is swamped by its 1/mu term; scored
    # in K space, the optimum is no worse than the greedy pick
    phi = np.random.default_rng(seed).standard_normal((12, 2))
    mu = 1e-10
    result = exhaustive_select(phi, 4, mu)
    best = result.indices
    greedy = direct_greedy_select(phi, 4, mu).indices
    opt = shifted_normal_objective(phi, best, mu)
    assert opt <= shifted_normal_objective(phi, greedy, mu) * (1.0 + 1e-12)
    # each prefix of the optimum is scored as greedy-direct scores a step,
    # so its trace entry matches (t - K)/mu + sum 1/(sigma^2 + mu) from an SVD
    for t in range(1, 5):
        sigma = np.linalg.svd(phi[best[:t]], compute_uv=False)
        ref = max(0, t - 2) / mu + float(np.sum(1.0 / (sigma**2 + mu)))
        assert result.objective_trace[t - 1] == pytest.approx(ref, rel=1e-12)


def test_zero_row_is_selectable():
    # a zero row contributes q_ii = mu and stays valid all the way to a full
    # selection: its border vector is zero, so h = mu exactly
    phi = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
    result = fmbs_select(phi, 3, MU)
    assert sorted(result.indices) == [0, 1, 2]
    assert result.indices[-1] == 1  # the zero row is the costliest, picked last
    assert result.indices == direct_greedy_select(phi, 3, MU).indices
    state = GreedyState(phi, 2, MU)
    assert state.step() == 0
    zero = state.candidate_state(1)
    assert zero.h == pytest.approx(MU, rel=1e-12)
    assert zero.cost == pytest.approx(1.0 / MU, rel=1e-12)


def test_full_budget_run():
    rng = np.random.default_rng(17)
    phi = rng.standard_normal((9, 3))
    result = fmbs_select(phi, 9, MU)
    assert sorted(result.indices) == list(range(9))
    assert len(result.objective_trace) == 9
    fresh = submatrix_objective_brute(phi, result.indices, MU)
    assert result.objective_trace[-1] == pytest.approx(fresh, rel=1e-8)


def test_single_budget_run():
    result = direct_greedy_select(PHI3, 1, MU)
    assert result.indices == [0]
    assert len(result.objective_trace) == len(result.step_times_ns) == 1


def test_random_select_contract():
    full = random_select(5, 5, seed=3)
    assert sorted(full.indices) == [0, 1, 2, 3, 4]
    assert full.objective_trace == [] and full.step_times_ns == []
    a = random_select(50, 10, seed=42)
    b = random_select(50, 10, seed=42)
    assert a.indices == b.indices
    assert random_select(50, 10, seed=43).indices != a.indices
    with pytest.raises(BudgetError):
        random_select(5, 6, seed=0)


def test_random_select_uniformity():
    # frequency of every index across seeded draws stays within 5 sigma
    n, m, draws = 1000, 100, 1000
    counts = np.zeros(n)
    for seed in range(draws):
        counts[random_select(n, m, seed).indices] += 1
    freq = counts / draws
    p = m / n
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.abs(freq - p).max() <= 5 * sigma
