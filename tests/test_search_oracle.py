"""The differential search of tools/search_oracle.py as a seeded test."""

import importlib.util
import pathlib

import numpy as np
import pytest

from fmbs import DegenerateSchur, GreedyState, NotPositiveDefinite, fmbs_select

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "search_oracle.py"
_spec = importlib.util.spec_from_file_location("search_oracle", TOOL)
search_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_oracle)

SEED, RUNS = 0, 400

# Largest relative distance of a completed run's final objective from the
# SVD objective of the same picks, per method and instance kind; the
# measured maximum on these runs is beside each bound.
OBJECTIVE_BOUNDS = {
    # the K-space switch takes Ninv from the QR of [A; sqrt(mu) I], which
    # never forms A^T A: 2.2e-15 (spread-norms), 5.0e-16 (scaled-row),
    # 1.2e-15 (tiny-rows), 9.8e-16 (duplicate-row), 6.9e-16 (none)
    "fmbs": dict.fromkeys(search_oracle.KINDS, 1e-12),
    "greedy-direct": {
        "none": 1e-12,           # 5.0e-16
        "duplicate-row": 1e-12,  # 6.2e-16
        "tiny-rows": 1e-12,      # 5.4e-16
        "spread-norms": 1e-6,    # 5.2e-8
        # its K-space stacks factor A^T A + mu I + phi_i phi_i^T, which
        # squares a scaled row's norm: 7.7e-2 (run 49)
        "scaled-row": 0.1,
    },
}

# Largest relative distance of ls_estimate on fmbs's picks from
# np.linalg.lstsq, per kind, over completed fmbs runs with m >= K: the
# measured maximum rounded up to a power of ten, the maximum beside each.
# The estimator solves by the QR of the picked rows; solving through a
# Cholesky factor of A^T A read 9.7 on scaled-row, and refused 12 sets there
ESTIMATE_BOUNDS = {
    "none": 1e-14,           # 8.1e-15
    "scaled-row": 1e-9,      # 1.1e-10
    "spread-norms": 1e-13,   # 8.3e-14
    "duplicate-row": 1e-14,  # 5.6e-15
    "tiny-rows": 1e-14,      # 2.6e-15
}

# seed-0 run 284: 36 x 11, one row of norm 2.7e8, mu = 2.66, budget 34;
# a Cholesky factor of A^T A + mu I left fmbs's objective 0.47 off SVD
SCALED_ROW_RUN = 284


@pytest.fixture(scope="module")
def records():
    return search_oracle.search(SEED, RUNS)


def test_search_finds_no_bare_error_and_bounded_objectives(records):
    # neither method raises anything but a named FmbsError, and no warning
    assert [r["run"] for r in records if r["outcome"] == search_oracle.BARE] == []
    for r in records:
        for method, err in r["errors"].items():
            assert err <= OBJECTIVE_BOUNDS[method][r["kind"]], (r["run"], r["kind"], method, err)
    # the tiny-rows kind reaches the K-space overflow, which fmbs names;
    # with a Schur floor relative to q_ii, that is fmbs's only DegenerateSchur
    refusals = [str(a) for a in (r["attempts"]["fmbs"] for r in records) if isinstance(a, DegenerateSchur)]
    assert refusals and all("K-space state overflowed" in msg for msg in refusals)


def test_fmbs_factors_no_gram_matrix(records):
    # fmbs forms no A^T A or A A^T, so no factorization of one can fail
    assert [r["run"] for r in records if isinstance(r["attempts"]["fmbs"], NotPositiveDefinite)] == []


def test_scaled_row_objective_matches_svd():
    _, phi, m, mu = search_oracle.draw_instance(SEED, SCALED_ROW_RUN)
    result = fmbs_select(phi, m, mu)
    ref = search_oracle.svd_objective(phi, result.indices, mu)
    assert abs(result.objective_trace[-1] - ref) <= 1e-12 * ref


def test_scaled_row_border_solve_matches_svd_at_every_depth():
    # r_i = (A A^T + mu I)^{-1} A phi_i = U diag(sigma / (sigma^2 + mu)) V^T phi_i
    # for the selected rows A = U diag(sigma) V^T, before and past depth K
    _, phi, m, mu = search_oracle.draw_instance(SEED, SCALED_ROW_RUN)
    state = GreedyState(phi, m, mu)
    while not state.complete:
        state.step()
        u, sigma, vt = np.linalg.svd(phi[state.selected[: state.depth]], full_matrices=False)
        for i in state.candidate_indices():
            ref = u @ (sigma / (sigma**2 + mu) * (vt @ phi[i]))
            r = state.candidate_state(int(i)).r
            assert np.linalg.norm(r - ref) <= 1e-12 * np.linalg.norm(ref), (state.depth, int(i))


def test_estimator_matches_lstsq_on_fmbs_picks(records):
    # the estimator refuses none of fmbs's sets on these runs, and is
    # within each kind's bound on all of them
    estimates = [r for r in records if "estimate" in r]
    assert {r["kind"] for r in estimates} == set(search_oracle.KINDS)
    for r in estimates:
        assert r["estimate"] is not None, r["run"]
        assert r["estimate"] <= ESTIMATE_BOUNDS[r["kind"]], (r["run"], r["kind"], r["estimate"])
