"""Greedy sample selection minimizing the expected least-squares recovery error.

The fast sampler (method id ``fmbs``) scores every unselected row i through
three warm-started quantities: the border vector p_i between row i and the
selected rows inside Q = Phi Phi^T + mu I, the solve r_i = Q_S^{-1} p_i
against the selected principal submatrix, and the Schur complement
h_i = q_ii - p_i . r_i that row i would create if appended.  All three are
advanced across greedy steps with O(|S|) vector arithmetic instead of fresh
factorizations, so a full run at budget M costs about O(N M^2).

``direct_greedy_select`` makes the same greedy decisions but evaluates every
candidate by explicit factorization; it is deliberately kept as a slow,
independent oracle for the fast path.  ``exhaustive_select`` and
``random_select`` provide the optimal and the weak reference baselines.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateSchur, TooLarge
from .linalg import as_matrix, schur_threshold, trace_inverse

EXHAUSTIVE_LIMIT = 1_000_000


def as_sample_set(s, n):
    """Validate a sample set: distinct indices in [0, n), selection order kept."""
    idx = np.asarray(list(s), dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("sample set must be a nonempty sequence of indices")
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"sample index out of range for {n} rows")
    if np.unique(idx).size != idx.size:
        raise ValueError("sample indices must be distinct")
    return idx


def _check_mu(mu):
    mu = float(mu)
    if not mu > 0.0:
        raise ValueError(f"shift mu must be positive, got {mu}")
    return mu


def shifted_normal_objective(phi, s, mu):
    """Trace of the inverse shifted normal matrix of the selected rows.

    Equals sum_k 1/(lambda_k + mu) over the eigenvalues lambda_k of the
    K x K gram matrix of the rows of phi indexed by s.
    """
    phi = as_matrix(phi)
    mu = _check_mu(mu)
    idx = as_sample_set(s, phi.shape[0])
    a = phi[idx]
    normal = a.T @ a
    normal[np.diag_indices_from(normal)] += mu
    return trace_inverse(normal)


def submatrix_objective(phi, s, mu):
    """Trace of the inverse principal submatrix of Phi Phi^T + mu I indexed by s."""
    phi = as_matrix(phi)
    mu = _check_mu(mu)
    idx = as_sample_set(s, phi.shape[0])
    a = phi[idx]
    q = a @ a.T
    q[np.diag_indices_from(q)] += mu
    return trace_inverse(q)


@dataclass(frozen=True)
class CandidateState:
    """Warm-start data for one candidate row at one greedy depth."""

    index: int
    p: np.ndarray
    r: np.ndarray
    h: float
    cost: float


@dataclass
class PlacementResult:
    """Outcome of one selection run.

    objective_trace[t] is the submatrix objective of the first t+1 selected
    rows for the greedy and exhaustive methods; random selection carries no
    trace because it never sees the matrix.  step_times_ns is populated by
    the greedy methods only.
    """

    indices: list
    objective_trace: list
    step_times_ns: list
    method: str


class GreedyState:
    """Warm-start bookkeeping for one fast-greedy run.

    Construction computes the shifted squared row norms q_ii = |phi_i|^2 + mu
    and immediately selects argmax_i q_ii (smallest index on ties).  Each
    subsequent step() advances every candidate by one level,

        p_i <- [p_i ; phi_istar . phi_i]
        r_i <- [r_i + (alpha - beta) r* ; beta - alpha]
        h_i  =  q_ii - p_i . r_i

    with alpha = (p_i . r*) / h*, beta = (phi_istar . phi_i) / h*, where
    (r*, h*) were carried over from the winning candidate of the previous
    step, then accepts the candidate with the smallest cost

        cost_i = (|r_i|^2 + 1) / h_i

    breaking ties toward the smallest index.  The accepted increment is
    exactly the growth of the submatrix objective, so the running trace
    stays consistent with from-scratch evaluation.
    """

    def __init__(self, phi, budget, mu):
        self.phi = np.ascontiguousarray(as_matrix(phi))
        n = self.phi.shape[0]
        budget = int(budget)
        if budget < 1 or budget > n:
            raise BudgetError(f"budget must be in [1, {n}], got {budget}")
        self.mu = _check_mu(mu)
        self.budget = budget
        self.q_diag = np.einsum("ij,ij->i", self.phi, self.phi) + self.mu
        self._floor = schur_threshold(self.q_diag)
        # Row t of _p/_r holds the entry appended at greedy depth t; one
        # column per row of phi.  Columns of already-selected rows go stale
        # but are never read when picking a winner.
        self._p = np.zeros((budget, n))
        self._r = np.zeros((budget, n))
        self._h = np.full(n, np.nan)
        self._rnorm2 = np.full(n, np.nan)
        self._cost = np.full(n, np.nan)
        self._candidate = np.ones(n, dtype=bool)
        first = int(np.argmax(self.q_diag))
        self.selected = [first]
        self._candidate[first] = False
        self.chosen_p = np.empty(0)
        self.chosen_r = np.empty(0)
        self.chosen_h = math.nan
        self.objective_trace = [1.0 / float(self.q_diag[first])]

    @property
    def depth(self):
        """Length of the committed per-candidate vectors."""
        return len(self.selected) - 1

    @property
    def complete(self):
        return len(self.selected) >= self.budget

    def candidate_indices(self):
        """Unselected row indices, ascending."""
        return np.flatnonzero(self._candidate)

    def candidate_state(self, i):
        """Committed warm-start data for candidate i at the current depth."""
        i = int(i)
        if not (0 <= i < self.phi.shape[0]) or not self._candidate[i]:
            raise IndexError(f"{i} is not an unselected candidate")
        t = self.depth
        if t == 0:
            raise ValueError("no committed candidate data before the first step")
        return CandidateState(
            i,
            self._p[:t, i].copy(),
            self._r[:t, i].copy(),
            float(self._h[i]),
            float(self._cost[i]),
        )

    def step(self):
        """Run one greedy iteration and return the accepted row index."""
        if self.complete:
            raise BudgetError("selection already complete")
        t = len(self.selected)
        istar = self.selected[-1]
        gram = self.phi @ self.phi[istar]
        if t == 1:
            self._p[0] = gram
            self._r[0] = gram / float(self.q_diag[istar])
            self._h = self.q_diag - gram * self._r[0]
            self._rnorm2 = self._r[0] ** 2
        else:
            # p_i . r* equals chosen_p . r_i by symmetry of the solve, so the
            # whole update reads only the r block; each candidate's p.r grows
            # by exactly h* delta^2 and |r|^2 by 2 delta (r . r*) +
            # delta^2 (|r*|^2 + 1), with delta = alpha - beta, so h and |r|^2
            # advance without re-reducing the stored vectors
            alpha = (self.chosen_p @ self._r[: t - 1]) / self.chosen_h
            beta = gram / self.chosen_h
            delta = alpha - beta
            rho = self.chosen_r @ self._r[: t - 1]
            self._r[: t - 1] += np.outer(self.chosen_r, delta)
            self._r[t - 1] = -delta
            self._p[t - 1] = gram
            self._h = self._h - self.chosen_h * delta**2
            star_norm2 = float(self.chosen_r @ self.chosen_r)
            self._rnorm2 = self._rnorm2 + 2.0 * delta * rho + (star_norm2 + 1.0) * delta**2
        h = self._h
        bad = self._candidate & ~(h > self._floor)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise DegenerateSchur(f"candidate {j}: schur complement {h[j]:.6e} at or below floor")
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = (self._rnorm2 + 1.0) / h
        cost[~self._candidate] = np.inf
        winner = int(np.argmin(cost))
        self._cost = cost
        self.chosen_p = self._p[:t, winner].copy()
        self.chosen_r = self._r[:t, winner].copy()
        self.chosen_h = float(h[winner])
        self.objective_trace.append(self.objective_trace[-1] + float(cost[winner]))
        self.selected.append(winner)
        self._candidate[winner] = False
        return winner


def fmbs_select(phi, m, mu):
    """Select m rows greedily with warm-started candidate scoring."""
    start = time.perf_counter_ns()
    state = GreedyState(phi, m, mu)
    times = [time.perf_counter_ns() - start]
    while not state.complete:
        start = time.perf_counter_ns()
        state.step()
        times.append(time.perf_counter_ns() - start)
    return PlacementResult(list(state.selected), list(state.objective_trace), times, "fmbs")


def direct_greedy_select(phi, m, mu):
    """Greedy selection evaluating every candidate by explicit factorization.

    Same selection rule and tie-breaking as fmbs_select, but each candidate
    cost comes from forming the augmented principal submatrix and taking the
    trace of its inverse.  Cubic per candidate; useful as a correctness
    oracle and for small problems only.
    """
    phi = as_matrix(phi)
    n = phi.shape[0]
    m = int(m)
    if m < 1 or m > n:
        raise BudgetError(f"budget must be in [1, {n}], got {m}")
    mu = _check_mu(mu)
    start = time.perf_counter_ns()
    q_diag = np.einsum("ij,ij->i", phi, phi) + mu
    # For singletons the objective is 1/q_ii, so the argmin is argmax q_ii.
    first = int(np.argmax(q_diag))
    selected = [first]
    trace = [1.0 / float(q_diag[first])]
    candidates = [i for i in range(n) if i != first]
    times = [time.perf_counter_ns() - start]
    while len(selected) < m:
        start = time.perf_counter_ns()
        best_val = math.inf
        best_i = -1
        for i in candidates:
            rows = selected + [i]
            a = phi[rows]
            q = a @ a.T
            q[np.diag_indices_from(q)] += mu
            val = trace_inverse(q)
            if val < best_val:
                best_val = val
                best_i = i
        selected.append(best_i)
        candidates.remove(best_i)
        trace.append(best_val)
        times.append(time.perf_counter_ns() - start)
    return PlacementResult(selected, trace, times, "greedy-direct")


def exhaustive_select(phi, m, mu):
    """Minimize the submatrix objective exactly over all m-subsets.

    Subsets are enumerated lexicographically and ties keep the first
    (lexicographically smallest) minimizer.  Guarded by EXHAUSTIVE_LIMIT.
    """
    phi = as_matrix(phi)
    n = phi.shape[0]
    m = int(m)
    if m < 1 or m > n:
        raise BudgetError(f"budget must be in [1, {n}], got {m}")
    mu = _check_mu(mu)
    total = math.comb(n, m)
    if total > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"C({n},{m}) = {total} subsets exceeds the limit {EXHAUSTIVE_LIMIT}")
    best_val = math.inf
    best = None
    for combo in itertools.combinations(range(n), m):
        a = phi[list(combo)]
        q = a @ a.T
        q[np.diag_indices_from(q)] += mu
        val = trace_inverse(q)
        if val < best_val:
            best_val = val
            best = combo
    indices = list(best)
    trace = [submatrix_objective(phi, indices[: t + 1], mu) for t in range(m)]
    return PlacementResult(indices, trace, [], "exhaustive")


def random_select(n, m, seed):
    """Draw m distinct indices uniformly without replacement; fixed per seed."""
    n = int(n)
    m = int(m)
    if m < 1 or m > n:
        raise BudgetError(f"budget must be in [1, {n}], got {m}")
    rng = np.random.default_rng(int(seed))
    idx = rng.choice(n, size=m, replace=False)
    return PlacementResult([int(i) for i in idx], [], [], "random")
