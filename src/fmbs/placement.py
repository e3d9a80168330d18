"""Greedy sample selection minimizing the expected least-squares recovery error.

The fast sampler (method id ``fmbs``) grows the selected set S one row at
a time, appending the row whose addition increases the submatrix objective
tr(Q_S^{-1}), Q = Phi Phi^T + mu I, the least.  The paper scores row i by
(|r_i|^2 + 1) / h_i, with r_i = Q_S^{-1} p_i the solve of its border vector
p_i and h_i = q_ii - p_i . r_i its Schur complement.  ``GreedyState``
never stores r_i or p_i.  It carries two N-vectors a and b, scores
candidate i by b_i / a_i and picks the least score.  Each step folds
the last winner in by one rank-one update, made with two matrix-vector
products with Phi,

    c1 = Phi u1,   c2 = Phi u2,   a <- a - c1^2,   b <- b + c1 (kappa c1 - c2),

and the two depth regimes differ only in what a and b hold and in how the
small state yields the K-vectors u1, u2 and the scalar kappa:

    depth       a         b             small state   increment
    |S| < K     h_i       1 + |r_i|^2   B and G       b_i / a_i
    |S| >= K    1 + d_i   -e_i          Ninv          1/mu + b_i / a_i

Below K, B = L^{-1} A is the append-only Gram-Schmidt basis of the
selected rows A and G = L^{-1} L^{-T}, for Q_S = L L^T (the incremental
Cholesky form of fast greedy MAP inference, kept for the selected block
alone).  From depth K on, Ninv = (A^T A + mu I)^{-1} (K x K) is advanced
by Sherman-Morrison, with d_i = phi_i . Ninv phi_i and e_i = |Ninv phi_i|^2;
the score there is minus the K-space gain e_i / (1 + d_i), which decides
without any 1/mu cancellation, at every mu > 0.

A step costs two matrix-vector products with Phi plus O(K^2 + |S| K)
work on small matrices (two products with B and one with G up to depth K),
and writes its N-vectors into buffers allocated once per run, so
a run at budget M costs O(N K M) and holds O(N + K^2) state, plus one
256 KB block (linalg._BLOCK_ENTRIES) of Phi Ninv while the switch to K space
builds d and e block by block; r_i and p_i are computed afresh, on
request only.  For M well below K a step reads all of Phi where the
paper's recursion reads only its |S| x N block; that regime is not one a
least-squares design (M >= K) runs.  Every Schur complement is at least
mu, so a carried h_i that is not positive is rounding noise: it scores
just below +inf and can win only when every candidate is like it.  A
candidate's score is formed once, by the step; candidate_state reports
that masked score as its cost (+inf where the carried h is not positive).
Up to depth K, DegenerateSchur is raised only when the winner's h is at
or below schur_threshold(q_ii).  Past it h_i = mu (1 + d_i) >= mu, but Ninv
is up to 1/mu, so at a tiny mu (rows of norm 1e-110 at mu = 1e-250) the
K-space products can overflow: DegenerateSchur is raised there when the
winner's score is masked or the objective is not finite.

``direct_greedy_select`` makes the same greedy decisions but evaluates every
candidate by explicit factorization, at O(min(t+1, K)^3) per candidate:
the bordered (t+1) x (t+1) submatrix up to depth K, and past it the K x K
shifted normal matrix, whose trace of inverse differs from the submatrix
objective by the constant (t + 1 - K)/mu.  The K x K form keeps the 1/mu
term out of the factorization, so the oracle stays well-conditioned at any
mu > 0.  Candidates are gathered and factored in stacks of one block,
written into buffers allocated once per run, so the oracle's transient
memory is bounded too and a step allocates little beyond each stack's
Cholesky factor.  It is deliberately kept independent of the fast path.
``exhaustive_select`` and ``random_select`` provide the optimal and the
weak reference baselines.

Every method picks through one tie rule, ``_pick``: the smallest index
whose score is within _TIE (16 eps) times the objective after the step of
the best score.  Rows whose scores are equal in exact arithmetic, common
on {0, 1} (model 2) matrices, differ by rounding far less than that, so
both greedy methods give such a tie to the smallest index and return the
same sequence.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateSchur, InvalidParameter, InvalidSampleSet, NonFiniteInput, TooLarge
from .linalg import (_BLOCK_ENTRIES, _shown, as_count, as_matrix, as_seed, as_shift, is_integral, sample_rows,
                     schur_threshold, shifted_gram, shifted_qr, trace_inverse)

EXHAUSTIVE_LIMIT = 1_000_000

# Relative width of a tie: scores within _TIE times the objective after
# the step of the best are one decision, which goes to the smallest index.
# On Bernoulli 200/20/40 and 300/10/30 (seeds 1-30, mu = 1e-4), first-
# minimum picks made fmbs and greedy-direct part at 13 steps whose two
# picks tie in exact arithmetic; there greedy-direct's scores of the two
# differed by at most 0.76 eps of the objective (one ulp; median 0).  With
# this rule on those runs, every pick it moved off the first minimum (17
# in fmbs, 3 in greedy-direct) was within 0.76 eps too, so 16 eps is 20
# times the widest rounding gap seen.
_TIE = 16 * float(np.finfo(np.float64).eps)

# Score of a candidate whose carried Schur complement is not positive:
# above every real score, below the selected rows' +inf.
_MASKED = np.finfo(np.float64).max


def _pick(score, offset=0.0):
    """Smallest index whose score is within _TIE |offset + best| of the best.

    offset + best is the objective after the step, so the tie width scales
    with the objective, not with the score.  The bound is taken in Python
    floats, which overflow without a warning, and capped at the largest
    float, so a score of +inf (a selected row) is never within it.
    """
    best = float(score[score.argmin()])
    return int((score <= min(best + _TIE * abs(offset + best), _MASKED)).argmax())


def _check_budget(m, n):
    """The budget m as an int in [1, n]; a non-integral m raises, not truncates."""
    if not is_integral(m) or not 1 <= m <= n:
        raise BudgetError(f"budget must be an integer in [1, {n}], got {_shown(m)}")
    return int(m)


def _prepare(phi, m, mu):
    """Checked matrix, budget and shift, and the shifted squared row norms.

    Returns (phi, m, mu, q) with phi C-contiguous and q_ii = |phi_i|^2 + mu.
    Every objective of m rows is at most m/mu, because Q_S >= mu I, so a mu
    for which m/mu overflows raises InvalidParameter naming both, and a row
    whose q_ii overflows raises NonFiniteInput naming it, before any method
    scores a candidate.
    """
    phi = np.ascontiguousarray(as_matrix(phi))
    m = _check_budget(m, phi.shape[0])
    mu = as_shift(mu)
    if not math.isfinite(m / mu):
        raise InvalidParameter(f"shift mu={mu} is too small for budget m={m}: the bound m/mu overflows")
    q_diag = np.einsum("ij,ij->i", phi, phi) + mu
    bad = np.flatnonzero(~np.isfinite(q_diag))
    if bad.size:
        raise NonFiniteInput(f"row {bad[0]}: squared norm overflows")
    return phi, m, mu, q_diag


def shifted_normal_objective(phi, s, mu):
    """Trace of the inverse shifted normal matrix of the selected rows.

    Equals sum_k 1/(lambda_k + mu) over the eigenvalues lambda_k of the
    K x K gram matrix of the rows of phi indexed by s.
    """
    a = sample_rows(phi, s)
    return trace_inverse(shifted_gram(a, as_shift(mu)))


def submatrix_objective(phi, s, mu):
    """Trace of the inverse principal submatrix of Phi Phi^T + mu I indexed by s."""
    a = sample_rows(phi, s)
    return trace_inverse(shifted_gram(a.T, as_shift(mu)))


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

    def prefix(self, m):
        """The first m picks of a greedy run and the seconds their steps took.

        The greedy methods are nested, so these are the picks, and the step
        times, of a run at budget m; an m outside [1, len(indices)] raises
        BudgetError.
        """
        m = _check_budget(m, len(self.indices))
        return self.indices[:m], sum(self.step_times_ns[:m]) / 1e9


class GreedyState:
    """Warm-start bookkeeping for one fast-greedy run.

    Construction computes the shifted squared row norms q_ii = |phi_i|^2 + mu
    and immediately selects argmax_i q_ii.  Each step() first folds the
    previous winner j into the selected set S, then scores every candidate
    against S and accepts the best one.  The per-candidate state is the two
    N-vectors a and b, and a step makes two matrix-vector products with phi
    (N x K) plus O(K^2 + |S| K) work on small matrices; the state is
    O(N + K^2).  Candidate i scores b_i / a_i, and the fold of j is

        c1 = Phi u1,   c2 = Phi u2,   a <- a - c1^2,   b <- b + c1 (kappa c1 - c2),

    with a, b, u1, u2 and kappa per regime as follows.

    Up to depth K (|S| < K), a = h and b = 1 + |r|^2, so the score is the
    paper's cost

        cost_i = (|r_i|^2 + 1) / h_i,   r_i = Q_S^{-1} p_i,
        h_i = q_ii - p_i . r_i,

    where p_i = A phi_i is its border against the selected rows A.  The
    small state is two append-only matrices built from
    Q_S = A A^T + mu I = L L^T: the Gram-Schmidt basis B = L^{-1} A
    (|S| x K) and G = L^{-1} L^{-T} (|S| x |S|, symmetric), so that
    w_i = B phi_i = L^{-1} p_i and |r_i|^2 = w_i . G w_i.  Folding in j,
    with w = B phi_j, z = G w (= L^{-1} r_j) and the corner
    kappa = (1 + w . z) / h_j,

        u1 = (phi_j - B^T w) / sqrt(h_j),   u2 = 2 B^T z / sqrt(h_j),

    which is the paper's r_i <- [r_i - gamma_i r_j ; gamma_i] with
    gamma_i = (Phi u1)_i / sqrt(h_j), without storing any r_i.  B gains
    the row u1 and G the row and column -z / sqrt(h_j) with corner kappa.
    A winner whose Schur complement is at or below schur_threshold(q_ii)
    raises DegenerateSchur naming it.

    At depth K the state is rebuilt once from the selected rows, in row
    blocks of Phi: Ninv = (A^T A + mu I)^{-1} (K x K), as X^T X from the
    QR of [A; sqrt(mu) I] (linalg.shifted_qr, which never forms A^T A, so
    a row of large norm does not swamp mu), a = 1 + d with
    d_i = phi_i . Ninv phi_i, and b = -e with e_i = |Ninv phi_i|^2; B and G
    are dropped.  From there on h_i = mu a_i >= mu, so the Schur floor is
    not checked; a winner whose score is masked, or whose step leaves the
    objective not finite, shows that the K-space state overflowed and
    raises DegenerateSchur.  The cost is 1/mu + b_i / a_i: the score is
    minus the K-space gain e_i / (1 + d_i), which decides with no 1/mu
    cancellation.
    Folding in j is Sherman-Morrison, with u = Ninv phi_j / sqrt(1 + d_j),

        u1 = u,   u2 = -2 Ninv u,   kappa = -|u|^2,   Ninv <- Ninv - u u^T.

    Each accepted increment is exactly the growth of the submatrix
    objective, so the running trace stays consistent with from-scratch
    evaluation.  Selected rows score +inf.  A candidate whose a is not
    positive (or whose score overflows) scores just below +inf: below depth
    K its h is at least mu in exact arithmetic, so it can win only when
    every candidate is such rounding noise.  The winner is picked by
    _pick, the smallest index within _TIE of the objective after the step
    (the running trace plus the score below depth K, tr(Ninv) plus it past
    it) from the best.  candidate_state and the chosen_* values give the
    paper's p, r and h: h from the carried a, the cost from the step's
    masked score, kept until the next fold (+inf where the carried h is
    not positive), and p = A phi_i and r = Q_S^{-1} p afresh from the
    selected rows A, on request only: r minimizes
    |A^T r - phi_i|^2 + mu |r|^2, solved from the QR of [A^T; sqrt(mu) I]
    at every depth.
    """

    def __init__(self, phi, budget, mu):
        self.phi, self.budget, self.mu, self.q_diag = _prepare(phi, budget, mu)
        n, k = self.phi.shape
        # every candidate starts at r = [], h = q_ii, so the first step() is
        # the general fold with an empty selected set
        self._a = self.q_diag.copy()
        self._b = np.ones(n)
        side = min(self.budget, k)
        self._basis = np.empty((side, k))
        self._g = np.empty((side, side))
        self._ninv = None
        # the buffers a step writes below depth K and in every fold,
        # allocated once per run: w and z, B^T w and B^T z, Phi u1 and
        # Phi u2, the scores (kept until the next fold) and the mask
        self._wz = np.empty((2, side))
        self._bwz = np.empty((2, k))
        self._c = np.empty((2, n))
        self._score = np.empty(n)
        self._mask = np.empty(n, dtype=bool)
        self._taken = np.zeros(n, dtype=bool)
        first = int(np.argmax(self.q_diag))
        self.selected = [first]
        self._taken[first] = True
        self.chosen_h = float(self.q_diag[first])
        self.objective_trace = [1.0 / self.chosen_h]

    @property
    def depth(self):
        """Number of selected rows the candidate data is committed against."""
        return len(self.selected) - 1

    @property
    def complete(self):
        return len(self.selected) >= self.budget

    @property
    def chosen_p(self):
        """Border vector of the last winner against the rows selected before it."""
        return self.phi[self.selected[:-1]] @ self.phi[self.selected[-1]]

    @property
    def chosen_r(self):
        """Solve Q_S^{-1} p of the last winner against the rows selected before it."""
        return self._border_solve(self.selected[-1])[1]

    def candidate_indices(self):
        """Unselected row indices, ascending."""
        return np.flatnonzero(~self._taken)

    def _border_solve(self, i):
        """Border p_i and a fresh solve r_i = Q_S^{-1} p_i against selected[:depth].

        r_i minimizes |A^T r - phi_i|^2 + mu |r|^2, whose normal equations
        are Q_S r = p_i, so one QR serves every depth.
        """
        a = self.phi[self.selected[: self.depth]]
        return a @ self.phi[i], shifted_qr(a.T, self.mu, self.phi[i])

    def _h_and_cost(self, a, score):
        """Schur complement and cost of a candidate from its a and its score b / a."""
        if self._ninv is None:
            return a, score
        return self.mu * a, 1.0 / self.mu + score

    def candidate_state(self, i):
        """Committed warm-start data for candidate i at the current depth."""
        if not is_integral(i) or not 0 <= i < self.phi.shape[0] or self._taken[int(i)]:
            raise InvalidSampleSet(f"{i} is not an unselected candidate")
        i = int(i)
        if self.depth == 0:
            raise InvalidSampleSet("no committed candidate data before the first step")
        p, r = self._border_solve(i)
        score = float(self._score[i])
        h, cost = self._h_and_cost(float(self._a[i]), score if score < _MASKED else math.inf)
        return CandidateState(i, p, r, h, cost)

    def step(self):
        """Run one greedy iteration and return the accepted row index."""
        if self.complete:
            raise BudgetError("selection already complete")
        below_k = len(self.selected) < self.phi.shape[1]
        if below_k:
            self._fold(*self._extend_basis())
        else:
            # Ninv is up to 1/mu, so at a tiny mu the K-space products can
            # overflow; the winner's check below reports it, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                if self._ninv is None:
                    self._switch()
                else:
                    self._fold(*self._downdate_ninv())
        a = self._a
        # a carried a can be exactly 0 at mu <= 1e-15, and a tiny positive
        # one can overflow b / a; such a score (fmin also maps NaN), like
        # that of any a that is not positive, is masked
        with np.errstate(divide="ignore", over="ignore"):
            score = np.divide(self._b, a, out=self._score)
        np.fmin(score, _MASKED, out=score)
        np.copyto(score, _MASKED, where=np.less_equal(a, 0.0, out=self._mask))
        np.copyto(score, np.inf, where=self._taken)
        winner = _pick(score, self.objective_trace[-1] if self._ninv is None else float(self._ninv.trace()))
        a_winner = float(a[winner])
        if below_k and not a_winner > schur_threshold(float(self.q_diag[winner])):
            raise DegenerateSchur(f"candidate {winner}: schur complement {a_winner:.6e} at or below floor")
        h, increment = self._h_and_cost(a_winner, float(score[winner]))
        objective = self.objective_trace[-1] + increment
        if not below_k and not (score[winner] < _MASKED and math.isfinite(objective)):
            raise DegenerateSchur(f"candidate {winner}: K-space state overflowed (objective {objective:.6e})")
        self.chosen_h = h
        self.objective_trace.append(objective)
        self.selected.append(winner)
        self._taken[winner] = True
        return winner

    def _fold(self, u1, u2, kappa):
        """Fold the last winner into every candidate's a and b in place."""
        # two gemv passes over phi; one product with both vectors is slower
        # (2 vCPUs, OpenBLAS 0.3.31, min of 7): phi @ [u1, u2] took 1.73x
        # the time of the two gemvs at 5000 x 500 and 1.57x at 10000 x 100,
        # [u1, u2]^T @ phi^T 1.20x and 1.38x
        c1, c2 = self._c
        np.matmul(self.phi, u1, out=c1)
        np.matmul(self.phi, u2, out=c2)
        tmp = self._score
        np.multiply(c1, kappa, out=tmp)
        tmp -= c2
        tmp *= c1
        self._b += tmp
        c1 *= c1
        self._a -= c1

    def _extend_basis(self):
        """Append the last winner to B and G; return its u1, u2 and kappa."""
        t = len(self.selected) - 1
        h_j = self.chosen_h
        phi_j, root = self.phi[self.selected[-1]], math.sqrt(h_j)
        basis = self._basis[:t]
        wz = self._wz[:, :t]
        w, z = wz
        np.matmul(basis, phi_j, out=w)
        np.matmul(self._g[:t, :t], w, out=z)
        corner = (1.0 + float(w @ z)) / h_j
        # B^T w and B^T z in one product, which at t = 250, K = 500 takes
        # 0.68 of the time of two (2 vCPUs, OpenBLAS 0.3.31)
        bw, bz = np.matmul(wz, basis, out=self._bwz)
        u1 = self._basis[t]
        np.subtract(phi_j, bw, out=u1)
        u1 /= root
        np.divide(z, -root, out=self._g[t, :t])
        self._g[:t, t] = self._g[t, :t]
        self._g[t, t] = corner
        bz *= 2.0 / root
        return u1, bz, corner

    def _switch(self):
        """Rebuild Ninv, a and b from the selected rows at depth K; drop B and G."""
        x = shifted_qr(self.phi[self.selected], self.mu)
        self._ninv = x.T @ x
        n, k = self.phi.shape
        step = max(1, _BLOCK_ENTRIES // k)
        # one block, written in place, so the next block's product does not
        # allocate while the last one is still held
        block = np.empty((min(step, n), k))
        for lo in range(0, n, step):
            rows = self.phi[lo : lo + step]
            v = np.matmul(rows, self._ninv, out=block[: rows.shape[0]])
            np.einsum("ij,ij->i", v, rows, out=self._a[lo : lo + step])
            np.einsum("ij,ij->i", v, v, out=self._b[lo : lo + step])
        self._a += 1.0
        np.negative(self._b, out=self._b)
        self._basis = self._g = None

    def _downdate_ninv(self):
        """Sherman-Morrison downdate of Ninv by the last winner; return u1, u2 and kappa."""
        phi_j = self.phi[self.selected[-1]]
        v = self._ninv @ phi_j
        u = v / math.sqrt(1.0 + float(phi_j @ v))
        u2 = -(self._ninv @ (u + u))
        self._ninv -= np.outer(u, u)
        return u, u2, -float(u @ u)


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


class _StackBuffers:
    """The buffers _extension_traces fills, allocated once per run.

    rows holds one block of gathered candidate rows (at most N of them, at
    least one).  The stack of candidate matrices grows on demand to the
    largest stack a call needs: the old buffer is dropped before the new
    one is allocated, so a run holds at most one of each.
    """

    def __init__(self, n, k):
        self.rows = np.empty((min(n, max(1, _BLOCK_ENTRIES // k)), k))
        self._stack = np.empty(0)

    def stack(self, batch, side):
        """A C-contiguous (batch, side, side) view of the stack buffer."""
        size = batch * side * side
        if self._stack.size < size:
            self._stack = None
            self._stack = np.empty(size)
        return self._stack[:size].reshape(batch, side, side)


def _extension_traces(phi, base, candidates, mu, buffers):
    """Trace scores of the row set base + [i] for every candidate row i.

    With t = len(base) and A = phi[base], while t + 1 <= K each score is
    the trace of the inverse of the bordered (t+1) x (t+1) principal
    submatrix of Phi Phi^T + mu I, the submatrix objective itself.  Past
    that it is the trace of the inverse of the K x K matrix
    A^T A + mu I + phi_i phi_i^T, which falls short of the submatrix
    objective by exactly (t + 1 - K)/mu; the caller adds that constant.
    The matrices are built in stacks of at most _BLOCK_ENTRIES entries,
    counting max(side^2, K) per candidate so that the gathered candidate
    rows fit in a block as well as the stack (one candidate per stack once
    a single matrix is larger), and each stack is factored by one
    trace_inverse call.  Rows and stacks are written in place into the
    run's _StackBuffers, so a run allocates them once, not once per call.
    Neither a candidate's matrix nor its trace depends on the stack it
    falls in, so its score is bitwise the same for any stack size.
    """
    t, k = len(base), phi.shape[1]
    a = phi[base]
    side = min(t + 1, k)
    batch = min(candidates.size, max(1, _BLOCK_ENTRIES // max(side**2, k)))
    # every matrix of a stack shares the part fixed by base; only the
    # candidate's own terms change from one to the next
    q = buffers.stack(batch, side)
    if t + 1 <= k:
        q[:, :t, :t] = shifted_gram(a.T, mu)
    else:
        normal = shifted_gram(a, mu)
    vals = np.empty(candidates.size)
    for lo in range(0, candidates.size, batch):
        # gathered in place; mode="clip" (the indices are in range) because
        # the default mode="raise" copies through a second buffer
        chunk = candidates[lo : lo + batch]
        rows = np.take(phi, chunk, axis=0, out=buffers.rows[: chunk.size], mode="clip")
        stack = q[: rows.shape[0]]
        if t + 1 <= k:
            # one vector-matrix product per candidate, so a candidate's
            # border does not depend on the stack it falls in
            border = (rows[:, None, :] @ a.T)[:, 0]
            stack[:, :t, t] = border
            stack[:, t, :t] = border
            stack[:, t, t] = np.einsum("ij,ij->i", rows, rows) + mu
        else:
            # one product per entry, so bitwise the broadcast multiply, in
            # about half its time: 17 against 33 us at 81 x 20, 22 against
            # 41 at 327 x 10 (numpy 2.4, 2 vCPUs)
            np.einsum("bi,bj->bij", rows, rows, out=stack)
            stack += normal
        vals[lo : lo + rows.shape[0]] = trace_inverse(stack)
    return vals


def _trace_entry(val, t, k, mu):
    """Objective at depth t + 1 from a step's _extension_traces score val.

    Past depth K the score is the K x K form, which drops (t + 1 - K)/mu.
    """
    return float(val) + max(0, t + 1 - k) / mu


def direct_greedy_select(phi, m, mu):
    """Greedy selection evaluating every candidate by explicit factorization.

    Same selection rule as fmbs_select, through _pick, so exact ties go to
    the smallest index, but each candidate is scored from scratch by
    _extension_traces: the bordered (t+1) x (t+1) submatrix while
    t + 1 <= K, the K x K shifted normal matrix past it.  It checks no
    Schur floor: where every candidate is degenerate, and fmbs raises
    DegenerateSchur, it returns the pick that rounding decides.  A
    candidate costs O(min(t+1, K)^3), and nothing is carried from one step
    to the next but the selected indices, so it stays an independent
    correctness oracle for fmbs_select.  Past depth K the K x K matrix is
    at least mu I in exact arithmetic, but it is formed from A^T A: where
    a large row's entries swamp mu in rounding, it can raise
    NotPositiveDefinite or mis-score a pick far outside a tie, on input
    where fmbs_select completes and picks right.
    """
    start = time.perf_counter_ns()
    phi, m, mu, q_diag = _prepare(phi, m, mu)
    n, k = phi.shape
    # For singletons the objective is 1/q_ii, so the argmin is argmax q_ii.
    first = int(np.argmax(q_diag))
    selected = [first]
    trace = [1.0 / float(q_diag[first])]
    candidates = np.delete(np.arange(n), first)
    buffers = _StackBuffers(n, k)
    times = [time.perf_counter_ns() - start]
    while len(selected) < m:
        start = time.perf_counter_ns()
        t = len(selected)
        vals = _extension_traces(phi, selected, candidates, mu, buffers)
        best = _pick(vals)
        selected.append(int(candidates[best]))
        candidates = np.delete(candidates, best)
        trace.append(_trace_entry(vals[best], t, k, mu))
        times.append(time.perf_counter_ns() - start)
    return PlacementResult(selected, trace, times, "greedy-direct")


def exhaustive_select(phi, m, mu):
    """Minimize the submatrix objective exactly over all m-subsets.

    Subsets are enumerated lexicographically, _pick chooses among the
    subsets of one prefix, and a later subset replaces the best only when
    it scores lower by more than _TIE, so ties go to the lexicographically
    smallest minimizer.  That holds also for distinct subsets whose scores
    are equal in exact arithmetic, such as two holding the same rows
    through a copied row: their rows are factored in different orders, so
    their scores differ by rounding only.  The subsets sharing their first
    m - 1 rows are scored together by _extension_traces, so past m = K a subset is
    scored in the K x K form, which drops the constant (m - K)/mu common
    to all of them.  Each prefix of the winner is scored for the objective
    trace as greedy-direct scores a step, by _extension_traces plus that
    constant, so no entry factors a matrix swamped by its 1/mu term.
    Guarded by EXHAUSTIVE_LIMIT.
    """
    phi, m, mu, _ = _prepare(phi, m, mu)
    n, k = phi.shape
    total = math.comb(n, m)
    if total > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"C({n},{m}) = {total} subsets exceeds the limit {EXHAUSTIVE_LIMIT}")
    best_val, best = math.inf, None
    buffers = _StackBuffers(n, k)
    # prefixes in lexicographic order, each followed by its last rows in
    # ascending order, enumerate the m-subsets lexicographically
    for prefix in itertools.combinations(range(n - 1), m - 1):
        last = np.arange(prefix[-1] + 1 if prefix else 0, n)
        vals = _extension_traces(phi, list(prefix), last, mu, buffers)
        j = _pick(vals)
        if vals[j] < best_val * (1.0 - _TIE):
            best_val = float(vals[j])
            best = prefix + (int(last[j]),)
    indices = list(best)
    trace = [_trace_entry(_extension_traces(phi, indices[:t], np.array(indices[t : t + 1]), mu, buffers)[0],
                          t, k, mu)
             for t in range(m)]
    return PlacementResult(indices, trace, [], "exhaustive")


def random_select(n, m, seed):
    """Draw m distinct indices uniformly without replacement; fixed per seed."""
    n = as_count(n, "rows")
    m = _check_budget(m, n)
    idx = np.random.default_rng(as_seed(seed)).choice(n, size=m, replace=False)
    return PlacementResult([int(i) for i in idx], [], [], "random")
