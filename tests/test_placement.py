import numpy as np
import pytest

from fmbs import (
    BudgetError,
    FmbsError,
    GreedyState,
    NonFiniteInput,
    TooLarge,
    direct_greedy_select,
    exhaustive_select,
    expected_mse,
    fmbs_select,
    random_select,
    shifted_normal_objective,
    submatrix_objective,
)

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


def test_objective_validation():
    with pytest.raises(ValueError):
        submatrix_objective(PHI3, [0, 0], MU)
    with pytest.raises(IndexError):
        submatrix_objective(PHI3, [5], MU)
    with pytest.raises(ValueError):
        submatrix_objective(PHI3, [], MU)
    with pytest.raises(ValueError):
        shifted_normal_objective(PHI3, [0], 0.0)


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


def test_direct_greedy_worked_example():
    result = direct_greedy_select(PHI3, 2, MU)
    assert result.indices == [0, 1]
    assert result.method == "greedy-direct"


def test_direct_greedy_identity():
    assert direct_greedy_select(np.eye(5), 3, MU).indices == [0, 1, 2]


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
            for i in state.candidate_indices():
                cand = state.candidate_state(int(i))
                fresh = submatrix_objective_brute(phi, before + [int(i)], mu) - base
                assert abs(cand.cost - fresh) <= 1e-8 * abs(fresh)


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
