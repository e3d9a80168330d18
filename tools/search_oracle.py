"""Differential search: fmbs against greedy-direct on seeded random instances.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/search_oracle.py --seed 0 --runs 400

Run i draws one instance from (seed, i) alone, so a run reproduces with
any --runs that reaches it.  An instance has N from 6 to 79 rows, K from 1
to min(12, N) columns, a budget M from 1 to N, Gaussian or {0, 1} entries
and mu log-uniform in [1e-14, 1e2], with one of KINDS applied:

* ``none``           the draw as it is;
* ``scaled-row``     one row scaled by 1e2 to 1e10;
* ``spread-norms``   every row scaled by its own factor in 1e-4 to 1e4;
* ``duplicate-row``  one row copied over another;
* ``tiny-rows``      every nonzero row scaled to norm 1e-110, and mu
  log-uniform in [1e-299, 1e-200] instead, where past depth K the K x K
  state reaches 1/|phi|^2 and its products can overflow.

Both greedy methods run on each instance with warnings raised as errors.
outcome() classes the pair: the same picks, picks that
differ, a named error (an FmbsError) from one method or both, or a bare
builtin error or warning from either, which is a bug.  The tool prints
the count of each outcome, the runs that hit a bare error, and per method
and per kind the largest relative distance of a completed run's final
objective from the same picks' objective computed from their singular
values.  Where fmbs completes with m >= K, the least-squares estimator
ls_estimate is also run on its picks, with observations y drawn from
(seed, run) alone, and the tool prints per kind its largest relative
distance from np.linalg.lstsq and the count of sets it refuses with
NotPositiveDefinite.  Needs numpy and the standard library, besides fmbs
itself.
"""

import argparse
import collections
import warnings

import numpy as np

from fmbs import FmbsError, NotPositiveDefinite, direct_greedy_select, fmbs_select, ls_estimate

KINDS = ("none", "scaled-row", "spread-norms", "duplicate-row", "tiny-rows")
METHODS = {"fmbs": fmbs_select, "greedy-direct": direct_greedy_select}
BARE = "bare builtin error or warning"


def draw_instance(seed, run):
    """(kind, phi, m, mu) of one run, drawn from (seed, run) alone."""
    rng = np.random.default_rng([seed, run])
    n = int(rng.integers(6, 80))
    k = int(rng.integers(1, min(12, n) + 1))
    m = int(rng.integers(1, n + 1))
    if rng.random() < 0.5:
        phi = rng.standard_normal((n, k))
    else:
        phi = rng.integers(0, 2, (n, k)).astype(float)
    mu = 10.0 ** rng.uniform(-14, 2)
    kind = KINDS[int(rng.integers(len(KINDS)))]
    if kind == "scaled-row":
        phi[rng.integers(n)] *= 10.0 ** rng.uniform(2, 10)
    elif kind == "spread-norms":
        phi *= 10.0 ** rng.uniform(-4, 4, (n, 1))
    elif kind == "duplicate-row":
        i, j = rng.choice(n, 2, replace=False)
        phi[j] = phi[i]
    elif kind == "tiny-rows":
        norms = np.linalg.norm(phi, axis=1, keepdims=True)
        phi = 1e-110 * np.divide(phi, norms, out=np.zeros_like(phi), where=norms > 0)
        mu = 10.0 ** rng.uniform(-299, -200)
    return kind, phi, m, mu


def attempt(select, phi, m, mu):
    """select's PlacementResult, or the exception it raised, with warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return select(phi, m, mu)
        except Exception as exc:  # every failure is tallied, named or bare
            return exc


def outcome(fast, direct):
    """The outcome class of one run from fmbs's and greedy-direct's attempts."""
    failed = {name: r for name, r in zip(METHODS, (fast, direct)) if isinstance(r, Exception)}
    if not all(isinstance(r, FmbsError) for r in failed.values()):
        return BARE
    raised = {name: type(r).__name__ for name, r in failed.items()}
    if len(raised) == 2:
        if raised["fmbs"] == raised["greedy-direct"]:
            return f"both raise {raised['fmbs']}"
        return f"fmbs raises {raised['fmbs']}, greedy-direct raises {raised['greedy-direct']}"
    if raised:
        (name, error), = raised.items()
        other = "greedy-direct" if name == "fmbs" else "fmbs"
        return f"{name} raises {error}, {other} completes"
    return "same picks" if fast.indices == direct.indices else "picks differ"


def svd_objective(phi, indices, mu):
    """Submatrix objective of the picked rows from their singular values.

    The m x m matrix A A^T + mu I has the eigenvalues sigma^2 + mu of A's
    min(m, K) singular values and mu for the other m - min(m, K).
    """
    sigma = np.linalg.svd(phi[indices], compute_uv=False)
    return (len(indices) - sigma.size) / mu + float(np.sum(1.0 / (sigma**2 + mu)))


def estimate_error(phi, indices, seed, run):
    """Relative distance of ls_estimate on the picked rows from lstsq, or None if it refuses them.

    The observations y are drawn from (seed, run) alone, apart from the
    instance's stream.
    """
    y = np.random.default_rng([seed, run, 1]).standard_normal(len(indices))
    try:
        g = ls_estimate(phi, indices, y)
    except NotPositiveDefinite:
        return None
    ref = np.linalg.lstsq(phi[indices], y, rcond=None)[0]
    return float(np.linalg.norm(g - ref) / np.linalg.norm(ref))


def search(seed, runs):
    """One record per run: its index, kind, outcome, attempts and errors.

    errors maps each method that completed to the relative distance of its
    final objective from svd_objective of its own picks.  Where fmbs
    completed with m >= K, the record's "estimate" is estimate_error of
    fmbs's picks (None for a refused set).
    """
    records = []
    for run in range(runs):
        kind, phi, m, mu = draw_instance(seed, run)
        attempts = {name: attempt(select, phi, m, mu) for name, select in METHODS.items()}
        errors = {}
        for name, result in attempts.items():
            if not isinstance(result, Exception):
                ref = svd_objective(phi, result.indices, mu)
                errors[name] = abs(result.objective_trace[-1] - ref) / ref
        record = {"run": run, "kind": kind, "outcome": outcome(*attempts.values()),
                  "attempts": attempts, "errors": errors}
        if "fmbs" in errors and m >= phi.shape[1]:
            record["estimate"] = estimate_error(phi, attempts["fmbs"].indices, seed, run)
        records.append(record)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description="fmbs against greedy-direct on seeded random instances")
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--runs", type=int, default=400, help="number of instances (default 400)")
    args = parser.parse_args(argv)
    records = search(args.seed, args.runs)

    counts = collections.Counter(r["outcome"] for r in records)
    width = max(len(BARE), *map(len, counts))
    print(f"{'outcome':<{width}}  runs")
    for name, count in counts.most_common():
        print(f"{name:<{width}}  {count:4d}")
    for r in records:
        if r["outcome"] == BARE:
            errors = {name: repr(a) for name, a in r["attempts"].items() if isinstance(a, Exception)}
            print(f"run {r['run']} ({r['kind']}): {errors}")
    print("\nmax |objective - SVD| / SVD over completed runs (completed/drawn)")
    print(f"{'kind':<14}" + "".join(f"  {name:>22}" for name in METHODS))
    for kind in KINDS:
        runs = [r for r in records if r["kind"] == kind]
        cells = []
        for name in METHODS:
            errs = [r["errors"][name] for r in runs if name in r["errors"]]
            worst = f"{max(errs):.1e}" if errs else "-"
            cells.append(f"{worst} ({len(errs)}/{len(runs)})")
        print(f"{kind:<14}" + "".join(f"  {cell:>22}" for cell in cells))
    print("\nls_estimate on fmbs's picks, completed runs with m >= K:")
    print("max |g - lstsq| / |lstsq| (refused/sets)")
    for kind in KINDS:
        estimates = [r["estimate"] for r in records if r["kind"] == kind and "estimate" in r]
        solved = [e for e in estimates if e is not None]
        worst = f"{max(solved):.1e}" if solved else "-"
        print(f"{kind:<14}  {worst} ({len(estimates) - len(solved)}/{len(estimates)})")
    return 1 if counts[BARE] else 0


if __name__ == "__main__":
    raise SystemExit(main())
