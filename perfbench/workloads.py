"""The four benchmark workloads and their correctness gates.

A workload is built from operations.  Each operation is one thing a user of
fmbs waits for and is timed on its own: ``wall_s`` times the workload's main
operation and ``place_s`` a single-placement ``fmbs place`` at 1000/100/120
on a binary matrix written during set-up.  ``place`` belongs to ``sweep``;
the other workloads repeat the same probe so that every workload reports
every end-to-end metric, and leave it out of traced runs.

Operations reach the program only through an ``Api`` object.  The runner
hands in either the plain functions or traced wrappers, and either a
fresh-process or an in-process runner for the command line, so the
workloads themselves never know whether they are traced.
"""

import csv
import json
import math
import os

import numpy as np

from fmbs.matgen import Model, ModelSpec
from fmbs.matio import save_matrix
from fmbs.placement import shifted_normal_objective, submatrix_objective

MU = 1e-4
REL_TOL = 1e-8
# Past depth K both greedy methods score candidates through a t x t matrix
# of condition about 1e6.  Their score differences are off the exact ones
# by up to 1.1e-10 of the objective (measured on 12 oracle matrices), so
# picks that close are ties neither method can order; TIE_TOL is nine
# times that.  Up to depth K the best two candidates differ by 4e-5 or more.
TIE_TOL = 1e-9
RANDOM_MARGIN = 0.9
PLACE_SHAPE = (1000, 100, 120)
SWEEP_BUDGETS = list(range(100, 121, 5))
SWEEP_TRIALS = 10
SWEEP_METHODS = ("fmbs", "random")
# place_s is a fresh process whose time varies by 15% from one start to the
# next, so each iteration starts it this many times
PLACE_REPEATS = 2


class GateFailure(Exception):
    """An output of the program failed a correctness check."""


def child_seed(seed, *key):
    """Stable seed for one (workload seed, set-up round, role) tuple."""
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


def check_selection(indices, n, m):
    """Distinct in-range indices, exactly m of them."""
    indices = [int(i) for i in indices]
    if len(indices) != m:
        raise GateFailure(f"expected {m} indices, got {len(indices)}")
    if len(set(indices)) != m:
        raise GateFailure("selected indices are not distinct")
    if min(indices) < 0 or max(indices) >= n:
        raise GateFailure(f"selected index out of range [0, {n})")
    return indices


def check_objective(phi, indices, objective_trace, m):
    """Final objective against submatrix_objective recomputed from scratch.

    Returns the relative error, which is the recursion-drift gauge.  Past
    depth K the (m - K) / mu term dominates the objective, so even a random
    selection is off by only a few 1e-8; the K-space objective of the
    selection must therefore also be RANDOM_MARGIN times below that of a
    seeded random selection (greedy reaches 0.72 times or less on every
    workload shape).
    """
    n, k = phi.shape
    indices = check_selection(indices, n, m)
    if len(objective_trace) != m:
        raise GateFailure(f"objective trace has {len(objective_trace)} entries, expected {m}")
    exact = submatrix_objective(phi, indices, MU)
    err = abs(float(objective_trace[-1]) - exact) / exact
    if not err <= REL_TOL:
        raise GateFailure(f"final objective off by {err:.3e} relative to the from-scratch value")
    if m >= k:
        rand = np.random.default_rng(m).choice(n, size=m, replace=False)
        ours = shifted_normal_objective(phi, indices, MU)
        if not ours < RANDOM_MARGIN * shifted_normal_objective(phi, rand, MU):
            raise GateFailure("K-space objective is not clearly below a random selection's")
    return err


def greedy_scores(phi, prefix, candidates):
    """Exact submatrix objective of prefix + [i] for each candidate i.

    Computed without the ill-conditioned t x t matrix that both greedy
    methods factor past depth K.  Up to depth K the bordered form
    tr(Q_S^-1) + (|r_i|^2 + 1) / h_i is taken with a fresh solve against
    Q_S; past it, the identity tr((A A^T + mu I)^-1) = (t - K) / mu +
    tr((A^T A + mu I)^-1) for a t x K block A moves the objective into the
    K x K space, where one Sherman-Morrison step adds row i.
    """
    k = phi.shape[1]
    t = len(prefix)
    a = phi[prefix]
    rows = phi[candidates]
    if t < k:
        q = a @ a.T + MU * np.eye(t)
        qinv = np.linalg.inv(q)
        p = rows @ a.T
        r = p @ qinv
        h = np.einsum("ij,ij->i", rows, rows) + MU - np.einsum("ij,ij->i", p, r)
        return np.trace(qinv) + (np.einsum("ij,ij->i", r, r) + 1.0) / h
    ninv = np.linalg.inv(a.T @ a + MU * np.eye(k))
    x = rows @ ninv
    gain = np.einsum("ij,ij->i", x, x) / (1.0 + np.einsum("ij,ij->i", x, rows))
    return (t + 1 - k) / MU + np.trace(ninv) - gain


def check_greedy(phi, indices, method):
    """Every pick scores within TIE_TOL of the best candidate at its step."""
    n = phi.shape[0]
    free = np.ones(n, dtype=bool)
    for t, pick in enumerate(indices):
        candidates = np.flatnonzero(free)
        if t == 0:
            scores = 1.0 / (np.einsum("ij,ij->i", phi, phi) + MU)
        else:
            scores = np.full(n, np.inf)
            scores[candidates] = greedy_scores(phi, indices[:t], candidates)
        best = float(np.min(scores))
        if not scores[pick] - best <= TIE_TOL * best:
            raise GateFailure(f"{method} pick {pick} at step {t} is "
                              f"{(scores[pick] - best) / best:.3e} above the best candidate")
        free[pick] = False


def check_oracle(phi, fast, direct, m):
    """fmbs and greedy-direct are both greedy, and agree up to a tie.

    Each sequence must pass check_greedy.  They must pick the same rows
    until they part, if they do, at a step where both picks score within
    TIE_TOL of the best; over the shared prefix the objective traces agree
    within REL_TOL.  Returns the final objective's relative error and the
    step at which the sequences part (None when they never do).
    """
    err = check_objective(phi, fast.indices, fast.objective_trace, m)
    direct_indices = check_selection(direct.indices, phi.shape[0], m)
    if len(direct.objective_trace) != m:
        raise GateFailure(f"greedy-direct trace has {len(direct.objective_trace)} entries, expected {m}")
    check_greedy(phi, list(fast.indices), "fmbs")
    check_greedy(phi, direct_indices, "greedy-direct")
    split = next((t for t in range(m) if fast.indices[t] != direct_indices[t]), None)
    shared = m if split is None else split
    a = np.asarray(fast.objective_trace[:shared], dtype=float)
    b = np.asarray(direct.objective_trace[:shared], dtype=float)
    if not np.all(np.abs(a - b) <= REL_TOL * np.abs(b)):
        raise GateFailure("fmbs and greedy-direct objective traces disagree")
    return err, split


def check_place(phi, path):
    """The place JSON holds 120 distinct in-range indices with an exact objective."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return check_objective(phi, payload["indices"], payload["objective_trace"], PLACE_SHAPE[2])


def check_bench(path):
    """The bench CSV has every (method, budget, trial) row and fmbs beats random."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(SWEEP_METHODS) * len(SWEEP_BUDGETS) * SWEEP_TRIALS
    if len(rows) != expected:
        raise GateFailure(f"bench CSV has {len(rows)} rows, expected {expected}")
    mse = {}
    for row in rows:
        value = float(row["mse"])
        if not (math.isfinite(value) and value > 0):
            raise GateFailure(f"bench row has mse {row['mse']!r}")
        mse.setdefault((row["method"], int(row["m"])), []).append(value)
    for m in SWEEP_BUDGETS:
        fast = mse.get(("fmbs", m), [])
        rand = mse.get(("random", m), [])
        if len(fast) != SWEEP_TRIALS or len(rand) != SWEEP_TRIALS:
            raise GateFailure(f"bench CSV lacks trials at budget {m}")
        if not np.mean(fast) < np.mean(rand):
            raise GateFailure(f"fmbs mean MSE is not below random at budget {m}")


class Api:
    """The program entry points one run calls.

    fmbs_select, direct_greedy_select and generate are library calls; cli
    takes an argument list and returns the exit code of ``fmbs <argv>``.
    """

    def __init__(self, fmbs_select, direct_greedy_select, generate, cli):
        self.fmbs_select = fmbs_select
        self.direct_greedy_select = direct_greedy_select
        self.generate = generate
        self.cli = cli


def _fresh(path):
    """path, with any output an earlier iteration left there removed."""
    if os.path.exists(path):
        os.remove(path)
    return path


def _run_cli(api, argv):
    code = api.cli(argv)
    if code != 0:
        raise GateFailure(f"fmbs {argv[0]} exited with code {code}")


class Workload:
    """Set-up, operations and gates shared by every workload.

    Each set-up round generates the round's inputs from the seed and writes
    the place matrix; the iterations then cycle over the rounds' inputs.
    """

    in_process = True

    def __init__(self, n, k, m):
        self.n, self.k, self.m = n, k, m

    def setup(self, api, seed, rnd, workdir):
        n, k, m = PLACE_SHAPE
        place_phi = api.generate(ModelSpec(Model.GAUSSIAN, n, k, child_seed(seed, rnd, 0)))
        place_matrix = os.path.join(workdir, f"place-{rnd}.bin")
        save_matrix(place_matrix, place_phi)
        inputs = {
            "round": rnd,
            "workdir": workdir,
            "place_phi": place_phi,
            "place_matrix": place_matrix,
            "place_out": [os.path.join(workdir, f"place-{rnd}-{j}.json") for j in range(PLACE_REPEATS)],
        }
        inputs.update(self.setup_main(api, seed, rnd))
        return inputs

    def setup_main(self, api, seed, rnd):
        spec = ModelSpec(Model.GAUSSIAN, self.n, self.k, child_seed(seed, rnd, 1))
        return {"phi": api.generate(spec)}

    def warm_up(self, api, inputs, place):
        """One untimed iteration, outputs unchecked."""
        for _, op in self.ops(api, inputs, place):
            op()

    def ops(self, api, inputs, place):
        """(metric, callable) pairs of one iteration, in order.

        place=False leaves out the place probe, which traced runs do so
        that per-layer numbers describe the main operation alone.
        """
        ops = [("wall_s", lambda: self.main(api, inputs))]
        if place:
            ops += [("place_s", lambda out=out: self.place(api, inputs, out))
                    for out in inputs["place_out"]]
        return ops

    def place(self, api, inputs, out):
        _run_cli(api, [
            "place", "--matrix", inputs["place_matrix"], "--budget", str(PLACE_SHAPE[2]),
            "--mu", repr(MU), "--method", "fmbs", "--out", _fresh(out),
        ])

    def check(self, inputs, outputs):
        """Apply every gate; return what they measured, for the run record.

        objective_rel_err is the main operation's final-objective error, or
        the place run's where the main operation has no objective of its
        own; tie_split is the step at which the oracle sequences part.
        """
        err, split = self.check_main(inputs, outputs["wall_s"])
        if "place_s" in outputs:
            place_errs = [check_place(inputs["place_phi"], out) for out in inputs["place_out"]]
            err = max(place_errs) if err is None else err
        return {"objective_rel_err": err, "tie_split": split}

    def alloc_probe(self, inputs):
        """(phi, m) of the fmbs_select call whose allocation peak is measured."""
        return inputs["phi"], self.m

    def main(self, api, inputs):
        return api.fmbs_select(inputs["phi"], self.m, MU)

    def check_main(self, inputs, result):
        return check_objective(inputs["phi"], result.indices, result.objective_trace, self.m), None


class Oracle(Workload):
    """fmbs_select and direct_greedy_select on the same matrix."""

    def main(self, api, inputs):
        phi = inputs["phi"]
        return api.fmbs_select(phi, self.m, MU), api.direct_greedy_select(phi, self.m, MU)

    def check_main(self, inputs, result):
        return check_oracle(inputs["phi"], *result, self.m)


class Sweep(Workload):
    """The README ``fmbs bench`` run as the user runs it."""

    in_process = False

    def __init__(self):
        super().__init__(*PLACE_SHAPE)

    def setup_main(self, api, seed, rnd):
        return {"bench_seed": child_seed(seed, rnd, 2)}

    def ops(self, api, inputs, place):
        # fmbs place is part of this workload, traced or not
        return super().ops(api, inputs, True)

    def main(self, api, inputs):
        out = _fresh(os.path.join(inputs["workdir"], f"bench-{inputs['round']}.csv"))
        _run_cli(api, [
            "bench", "--model", "1", "--n", str(self.n), "--k", str(self.k),
            "--budgets", f"{SWEEP_BUDGETS[0]}:{SWEEP_BUDGETS[-1]}:5",
            "--trials", str(SWEEP_TRIALS), "--mu", repr(MU), "--seed", str(inputs["bench_seed"]),
            "--methods", ",".join(SWEEP_METHODS), "--out", out,
        ])
        return out

    def check_main(self, inputs, result):
        check_bench(result)
        return None, None

    def alloc_probe(self, inputs):
        return inputs["place_phi"], PLACE_SHAPE[2]


# Shapes are N/K/M, model 1, mu = 1e-4.  The reason for each is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "deep": Workload(10000, 100, 300),
    "wide": Workload(5000, 500, 500),
    "sweep": Sweep(),
    "oracle": Oracle(500, 20, 60),
}
