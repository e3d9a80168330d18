"""Greedy sample selection minimizing the expected least-squares recovery error.

The fast sampler (method id ``fmbs``) scores every unselected row i through
the solve r_i = Q_S^{-1} p_i of its border vector p_i against the selected
principal submatrix of Q = Phi Phi^T + mu I, and the Schur complement
h_i = q_ii - p_i . r_i that row i would create if appended.  Both are
advanced across greedy steps with O(|S|) vector arithmetic instead of fresh
factorizations, so a full run at budget M costs about O(N M^2); p_i itself
is never stored.

``direct_greedy_select`` makes the same greedy decisions but evaluates every
candidate by explicit factorization, at O(min(t+1, K)^3) per candidate:
the bordered (t+1) x (t+1) submatrix up to depth K, and past it the K x K
shifted normal matrix, whose trace of inverse differs from the submatrix
objective by the constant (t + 1 - K)/mu.  The K x K form keeps the 1/mu
term out of the factorization, so the oracle stays well-conditioned at any
mu > 0.  It is deliberately kept independent of the fast path.
``exhaustive_select`` and ``random_select`` provide the optimal and the
weak reference baselines.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateSchur, TooLarge
from .linalg import as_matrix, schur_threshold, trace_inverse

EXHAUSTIVE_LIMIT = 1_000_000
# Float64 entries per stack of candidate matrices in _extension_traces.
_STACK_ENTRIES = 1 << 12
# Float64 entries per row block of GreedyState's in-place rank-1 update.
_UPDATE_ENTRIES = 1 << 16


def as_sample_set(s, n):
    """Validate a sample set: distinct indices in [0, n), selection order kept."""
    idx = np.asarray(list(s))
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("sample set must be a nonempty sequence of indices")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"sample indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"sample index out of range for {n} rows")
    if np.unique(idx).size != idx.size:
        raise ValueError("sample indices must be distinct")
    return idx.astype(np.intp, copy=False)


def _check_mu(mu):
    mu = float(mu)
    if not 0.0 < mu < math.inf:
        raise ValueError(f"shift mu must be positive and finite, got {mu}")
    return mu


def _check_budget(m, n):
    m = int(m)
    if m < 1 or m > n:
        raise BudgetError(f"budget must be in [1, {n}], got {m}")
    return m


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

        r_i <- [r_i + (alpha - beta) r* ; beta - alpha]
        h_i <- h_i - h* (alpha - beta)^2

    with alpha = (p* . r_i) / h*, beta = (phi_istar . phi_i) / h*, where
    (p*, r*, h*) belong to the winning candidate of the previous step, then
    accepts the candidate with the smallest cost

        cost_i = (|r_i|^2 + 1) / h_i

    breaking ties toward the smallest index.  The accepted increment is
    exactly the growth of the submatrix objective, so the running trace
    stays consistent with from-scratch evaluation.  Only r is stored per
    candidate: p* is a slice of the step's gram row phi . phi_istar.
    """

    def __init__(self, phi, budget, mu):
        self.phi = np.ascontiguousarray(as_matrix(phi))
        n = self.phi.shape[0]
        self.budget = _check_budget(budget, n)
        self.mu = _check_mu(mu)
        self.q_diag = np.einsum("ij,ij->i", self.phi, self.phi) + self.mu
        self._floor = schur_threshold(self.q_diag)
        # Row t of _r holds the entry appended at greedy depth t, one column
        # per row of phi; columns of selected rows go stale and are never
        # read.  Every candidate starts at r = [], h = q_ii, so the first
        # step() is the general update with alpha = 0.
        self._r = np.zeros((self.budget, n))
        # the rank-1 update of _r goes through this scratch one row block at
        # a time (one row per block once a row exceeds _UPDATE_ENTRIES)
        self._scratch = np.empty((min(self.budget, max(1, _UPDATE_ENTRIES // n)), n))
        self._h = self.q_diag.copy()
        self._rnorm2 = np.zeros(n)
        self._candidate = np.ones(n, dtype=bool)
        first = int(np.argmax(self.q_diag))
        self.selected = [first]
        self._candidate[first] = False
        self.chosen_r = np.empty(0)
        self.chosen_h = float(self.q_diag[first])
        self.objective_trace = [1.0 / self.chosen_h]

    @property
    def depth(self):
        """Length of the committed per-candidate vectors."""
        return len(self.selected) - 1

    @property
    def complete(self):
        return len(self.selected) >= self.budget

    @property
    def chosen_p(self):
        """Border vector of the last winner against the rows selected before it."""
        return self.phi[self.selected[:-1]] @ self.phi[self.selected[-1]]

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
        h = float(self._h[i])
        return CandidateState(
            i,
            self.phi[self.selected[:t]] @ self.phi[i],
            self._r[:t, i].copy(),
            h,
            (float(self._rnorm2[i]) + 1.0) / h,
        )

    def step(self):
        """Run one greedy iteration and return the accepted row index."""
        if self.complete:
            raise BudgetError("selection already complete")
        t = len(self.selected)
        gram = self.phi @ self.phi[self.selected[-1]]
        # p* is gram at the earlier selected rows, and p* . r_i equals
        # p_i . r* by symmetry of the solve, so the update reads only the r
        # block; each candidate's p.r grows by exactly h* delta^2 and |r|^2
        # by 2 delta (r . r*) + delta^2 (|r*|^2 + 1), with delta =
        # alpha - beta, so h and |r|^2 advance without re-reducing r
        alpha = (gram[self.selected[:-1]] @ self._r[: t - 1]) / self.chosen_h
        delta = alpha - gram / self.chosen_h
        rho = self.chosen_r @ self._r[: t - 1]
        # r += outer(r*, delta) in place: the same products and sums as
        # np.outer, without a temporary as large as the r block
        rows = self._scratch.shape[0]
        for lo in range(0, t - 1, rows):
            hi = min(lo + rows, t - 1)
            block = self._scratch[: hi - lo]
            np.multiply(self.chosen_r[lo:hi, None], delta, out=block)
            self._r[lo:hi] += block
        self._r[t - 1] = -delta
        delta2 = delta**2
        self._h -= self.chosen_h * delta2
        star_norm2 = float(self.chosen_r @ self.chosen_r)
        # two in-place adds keep the summation order of a + b + c
        self._rnorm2 += 2.0 * delta * rho
        self._rnorm2 += (star_norm2 + 1.0) * delta2
        h = self._h
        bad = self._candidate & ~(h > self._floor)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise DegenerateSchur(f"candidate {j}: schur complement {h[j]:.6e} at or below floor")
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = (self._rnorm2 + 1.0) / h
        cost[~self._candidate] = np.inf
        winner = int(np.argmin(cost))
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


def _extension_traces(phi, base, candidates, mu):
    """Trace scores of the row set base + [i] for every candidate row i.

    With t = len(base) and A = phi[base], while t + 1 <= K each score is
    the trace of the inverse of the bordered (t+1) x (t+1) principal
    submatrix of Phi Phi^T + mu I, the submatrix objective itself.  Past
    that it is the trace of the inverse of the K x K matrix
    A^T A + mu I + phi_i phi_i^T, which falls short of the submatrix
    objective by exactly (t + 1 - K)/mu; the caller adds that constant.
    The matrices are built in stacks of at most
    _STACK_ENTRIES entries (one candidate per stack once a single matrix
    is larger) and each stack is factored by one trace_inverse call; a
    candidate's matrix does not depend on the stack it falls in.
    """
    t, k = len(base), phi.shape[1]
    a = phi[base]
    side = min(t + 1, k)
    batch = min(candidates.size, max(1, _STACK_ENTRIES // side**2))
    # every matrix of a stack shares the part fixed by base; only the
    # candidate's own terms change from one to the next
    q = np.empty((batch, side, side))
    if t + 1 <= k:
        q[:, :t, :t] = a @ a.T
        q[:, np.arange(t), np.arange(t)] += mu
    else:
        normal = a.T @ a
        normal[np.diag_indices_from(normal)] += mu
    vals = np.empty(candidates.size)
    for lo in range(0, candidates.size, batch):
        rows = phi[candidates[lo : lo + batch]]
        stack = q[: rows.shape[0]]
        if t + 1 <= k:
            # one vector-matrix product per candidate, so a candidate's
            # border does not depend on the stack it falls in
            border = (rows[:, None, :] @ a.T)[:, 0]
            stack[:, :t, t] = border
            stack[:, t, :t] = border
            stack[:, t, t] = np.einsum("ij,ij->i", rows, rows) + mu
        else:
            np.multiply(rows[:, :, None], rows[:, None, :], out=stack)
            stack += normal
        vals[lo : lo + rows.shape[0]] = trace_inverse(stack)
    return vals


def direct_greedy_select(phi, m, mu):
    """Greedy selection evaluating every candidate by explicit factorization.

    Same selection rule and tie-breaking as fmbs_select, but each candidate
    is scored from scratch by _extension_traces: the bordered (t+1) x (t+1)
    submatrix while t + 1 <= K, the K x K shifted normal matrix past it.  A
    candidate costs O(min(t+1, K)^3), and nothing is carried from one step
    to the next but the selected indices, so it stays an independent
    correctness oracle for fmbs_select.  Past depth K it cannot raise
    NotPositiveDefinite, because the K x K matrix is at least mu I.
    """
    phi = as_matrix(phi)
    n, k = phi.shape
    m = _check_budget(m, n)
    mu = _check_mu(mu)
    start = time.perf_counter_ns()
    q_diag = np.einsum("ij,ij->i", phi, phi) + mu
    # For singletons the objective is 1/q_ii, so the argmin is argmax q_ii.
    first = int(np.argmax(q_diag))
    selected = [first]
    trace = [1.0 / float(q_diag[first])]
    candidates = np.delete(np.arange(n), first)
    times = [time.perf_counter_ns() - start]
    while len(selected) < m:
        start = time.perf_counter_ns()
        t = len(selected)
        vals = _extension_traces(phi, selected, candidates, mu)
        # argmin keeps the first minimum, so ties go to the smallest index
        best = int(np.argmin(vals))
        selected.append(int(candidates[best]))
        candidates = np.delete(candidates, best)
        trace.append(float(vals[best]) + max(0, t + 1 - k) / mu)
        times.append(time.perf_counter_ns() - start)
    return PlacementResult(selected, trace, times, "greedy-direct")


def exhaustive_select(phi, m, mu):
    """Minimize the submatrix objective exactly over all m-subsets.

    Subsets are enumerated lexicographically and ties keep the first
    (lexicographically smallest) minimizer.  The subsets sharing their
    first m - 1 rows are scored together by _extension_traces, so past
    m = K a subset is scored in the K x K form, which drops the constant
    (m - K)/mu common to all of them.  Guarded by EXHAUSTIVE_LIMIT.
    """
    phi = as_matrix(phi)
    n = phi.shape[0]
    m = _check_budget(m, n)
    mu = _check_mu(mu)
    total = math.comb(n, m)
    if total > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"C({n},{m}) = {total} subsets exceeds the limit {EXHAUSTIVE_LIMIT}")
    best_val = math.inf
    best = None
    # prefixes in lexicographic order, each followed by its last rows in
    # ascending order, enumerate the m-subsets lexicographically
    for prefix in itertools.combinations(range(n - 1), m - 1):
        last = np.arange(prefix[-1] + 1 if prefix else 0, n)
        vals = _extension_traces(phi, list(prefix), last, mu)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best = prefix + (int(last[j]),)
    indices = list(best)
    trace = [submatrix_objective(phi, indices[: t + 1], mu) for t in range(m)]
    return PlacementResult(indices, trace, [], "exhaustive")


def random_select(n, m, seed):
    """Draw m distinct indices uniformly without replacement; fixed per seed."""
    n = int(n)
    m = _check_budget(m, n)
    rng = np.random.default_rng(int(seed))
    idx = rng.choice(n, size=m, replace=False)
    return PlacementResult([int(i) for i in idx], [], [], "random")
