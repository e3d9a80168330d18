"""Command-line benchmark harness.

Subcommands:

* ``gen``      write a seeded random measurement matrix to disk;
* ``place``    run one selection method on a stored matrix, emit JSON;
* ``bench``    MSE-versus-budget sweeps over seeded matrix draws, emit CSV;
* ``scaling``  wall-time sweeps of fmbs with a fitted log-log slope report
  (cross-method timing is bench's: its seconds column times every method
  at every budget).

Exit codes: 0 on success; 2 when a flag or the input is at fault; 3 for
any other FmbsError, when a selection or its evaluation fails
(DegenerateSchur, NotPositiveDefinite, TooLarge; bench records a
NotPositiveDefinite evaluation instead, see below).  Argparse exits 2 itself
only for a value it cannot parse: a missing or unknown flag (scaling
takes flags by their full names only, so its removed --m is not read as
--mu), an unknown choice, a number, range or method list that does not
parse.  Every other bad input raises an InputError (the base of the
library's input errors) or, for an unreadable or unwritable path, an
OSError, and main() exits 2 for either.
main() is the one place that turns an error into an exit code; it prints
one ``error: <name>: <message>`` line to stderr.  Before any handler runs,
main() checks --mu, --seed, --trials and --repeats by the library's own
rules (linalg's as_shift, as_seed, as_count).
The CLI states no numeric rule of its own: a bad budget or sweep point is
refused by the library where it is used (the selector's BudgetError, or
PlacementResult.prefix's for a bench budget cut from a greedy run, for a
budget outside [1, n]; expected_mse's DimensionError for a bench budget
below k; ModelSpec's InvalidSpec for a k above n), before any result is
written.
Every output path is checked before any matrix is loaded or drawn, so a
missing or unwritable directory, or a path that names a directory, exits 2
at once, with no output.

Timing covers selection only, never matrix generation, MSE evaluation or
I/O.  ``bench`` records each run's analytic expected MSE at unit noise
variance (expected_mse with sigma2 = 1, which --details-out states in its
config).  It runs each greedy method (fmbs, greedy-direct) once per trial
to the largest budget and reports, for every budget m, the first m picks and
the cumulative step time of that shared run (PlacementResult.prefix); random
and exhaustive are run and timed once per budget.  The aggregate CSV goes
beside --out, with ``.agg`` before its extension (``.agg.csv`` appended
when it has none).  A sample set whose expected_mse raises
NotPositiveDefinite (rank-deficient rows, which random can draw from a
{0, 1} matrix) has an unbounded MSE: bench records it as ``inf`` in both
CSVs and as ``null`` in --details-out, which stays strict JSON, and goes
on.  Result files are byte-identical across reruns with the same flags
and seed, except for the timing columns/fields.
"""

import argparse
import csv
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from .errors import FmbsError, InputError, InvalidSpec, NotPositiveDefinite
from .inverse import expected_mse
from .linalg import as_count, as_seed, as_shift
from .matgen import Model, ModelSpec, generate
from .matio import load_matrix, save_matrix
from .placement import direct_greedy_select, exhaustive_select, fmbs_select, random_select

METHODS = ("fmbs", "greedy-direct", "random", "exhaustive")
# greedy methods whose selection to budget m is the first m picks of any
# longer run on the same matrix, so bench runs them once per trial
_NESTED_METHODS = ("fmbs", "greedy-direct")
# the library rule of each numeric flag; main() runs those its subcommand has
_FLAG_RULES = {"mu": as_shift, "seed": as_seed,
               "trials": functools.partial(as_count, what="trials"),
               "repeats": functools.partial(as_count, what="repeats")}


def _child_seed(*key):
    """Stable derived seed for one (namespace, trial, ...) tuple.

    SeedSequence takes nonnegative words only, so a negative part, a budget
    or sweep point the library refuses where it uses it, is keyed by its
    magnitude instead of raising a bare ValueError before that refusal.
    """
    return int(np.random.SeedSequence([abs(v) for v in key]).generate_state(1)[0])


def _parse_budgets(text):
    """Argparse type: 'A:B:STEP' (both ends included when aligned) or a single integer."""
    try:
        a, b, step = (int(p) for p in text.split(":")) if ":" in text else (int(text), int(text), 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be A:B:STEP or an integer, got {text!r}") from None
    if step < 1 or b < a:
        raise argparse.ArgumentTypeError(f"range needs A <= B and STEP >= 1, got {text!r}")
    return list(range(a, b + 1, step))


def _parse_methods(text):
    """Argparse type: a comma-separated list of distinct METHODS."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods or len(set(methods)) != len(methods) or not set(methods) <= set(METHODS):
        raise argparse.ArgumentTypeError(
            f"must name distinct methods from {', '.join(METHODS)}, got {text!r}")
    return methods


def _select(method, phi, m, mu, seed):
    """(result, seconds) of one selection, timed alone by perf_counter.

    These seconds are place's wall_time_seconds, scaling's seconds and
    bench's seconds column for random and exhaustive.  bench's fmbs and
    greedy-direct seconds come from the library's timer instead: each
    budget's is the PlacementResult.prefix sum of one shared run's
    step_times_ns.
    """
    start = time.perf_counter()
    if method == "fmbs":
        result = fmbs_select(phi, m, mu)
    elif method == "greedy-direct":
        result = direct_greedy_select(phi, m, mu)
    elif method == "exhaustive":
        result = exhaustive_select(phi, m, mu)
    else:
        result = random_select(phi.shape[0], m, seed)
    return result, time.perf_counter() - start


def _check_writable(*paths):
    """Raise the error open(path, "w") would give for a missing, unwritable or directory place.

    Handlers call it before any matrix is loaded or drawn, so a bad output
    path fails at once.  It creates no file; a None path is skipped.
    """
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_gen(args):
    _check_writable(args.out)
    spec = ModelSpec(args.model, args.n, args.k, args.seed)
    save_matrix(args.out, generate(spec), fmt=args.format)
    print(f"wrote {args.n}x{args.k} model-{args.model} matrix to {args.out}")
    return 0


def _cmd_place(args):
    _check_writable(args.out)
    phi = load_matrix(args.matrix)
    n, k = phi.shape
    result, wall = _select(args.method, phi, args.budget, args.mu, args.seed)
    payload = {
        "method": result.method,
        "matrix": str(args.matrix),
        "rows": n,
        "cols": k,
        "budget": args.budget,
        "mu": args.mu,
        "seed": args.seed,
        "indices": result.indices,
        "objective_trace": result.objective_trace,
        "wall_time_seconds": wall,
        "step_times_ns": result.step_times_ns,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{result.method}: selected {len(result.indices)} of {n} rows -> {args.out}")
    return 0


def _cmd_bench(args):
    base, ext = os.path.splitext(args.out)
    agg_path = f"{base}.agg{ext or '.csv'}"
    _check_writable(args.out, agg_path, args.details_out)

    results = []
    for trial in range(args.trials):
        phi = generate(ModelSpec(args.model, args.n, args.k, _child_seed(args.seed, 0, trial)))
        for method in args.methods:
            if method in _NESTED_METHODS:
                result, _ = _select(method, phi, max(args.budgets), args.mu, None)
                runs = [(m, *result.prefix(m)) for m in args.budgets]
            else:
                runs = []
                for m in args.budgets:
                    sampler_seed = _child_seed(args.seed, 1, trial, METHODS.index(method), m)
                    result, seconds = _select(method, phi, m, args.mu, sampler_seed)
                    runs.append((m, result.indices, seconds))
            for m, indices, seconds in runs:
                try:
                    mse = expected_mse(phi, indices, 1.0)
                except NotPositiveDefinite:  # a rank-deficient set, whose MSE is unbounded
                    mse = np.inf
                results.append((method, m, trial, mse, seconds, indices))
    results.sort(key=lambda row: (row[0], row[1], row[2]))

    _write_csv(
        args.out,
        ["method", "m", "trial", "mse", "seconds"],
        [(method, m, trial, repr(mse), repr(sec)) for method, m, trial, mse, sec, _ in results],
    )

    groups = {}
    for method, m, trial, mse, sec, _ in results:
        groups.setdefault((method, m), []).append((mse, sec))
    _write_csv(
        agg_path,
        ["method", "m", "mean_mse", "mean_seconds"],
        [
            (method, m, repr(sum(v for v, _ in vals) / len(vals)), repr(sum(s for _, s in vals) / len(vals)))
            for (method, m), vals in sorted(groups.items())
        ],
    )

    if args.details_out:
        detail = {
            "config": {
                "model": args.model,
                "n": args.n,
                "k": args.k,
                "budgets": args.budgets,
                "trials": args.trials,
                "mu": args.mu,
                "sigma2": 1.0,
                "seed": args.seed,
                "methods": args.methods,
            },
            "runs": [
                {"method": method, "m": m, "trial": trial, "mse": mse if mse < np.inf else None,
                 "indices": indices}
                for method, m, trial, mse, _, indices in results
            ],
        }
        with open(args.details_out, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"wrote {len(results)} rows to {args.out} (aggregate: {agg_path})")
    return 0


def _cmd_scaling(args):
    _check_writable(args.out)
    if args.sweep == "m":
        if args.n is None:
            raise InvalidSpec("--sweep m requires --n")
        sizes = [(args.n, m) for m in args.values]
    else:
        sizes = [(n, max(1, round(0.1 * n))) for n in args.values]
    # every point takes k from --k when it is given and from its budget
    # otherwise; ModelSpec refuses a k above n, the selector an m above n
    points = [(n, m if args.k is None else args.k, m) for n, m in sizes]

    # repeats are interleaved across points (and every point gets one untimed
    # warm-up) so transient machine load distorts ratios between points less
    matrices = [
        generate(ModelSpec(Model.GAUSSIAN, n, k, _child_seed(args.seed, n, k, m)))
        for n, k, m in points
    ]
    seconds = [[] for _ in points]
    for rep in range(-1, args.repeats):
        for idx, (n, k, m) in enumerate(points):
            _, sec = _select("fmbs", matrices[idx], m, args.mu, None)
            if rep >= 0:
                seconds[idx].append(sec)
    rows = []
    mins = []
    for idx, (n, k, m) in enumerate(points):
        for rep, sec in enumerate(seconds[idx]):
            rows.append((args.sweep, n, k, m, rep, repr(sec)))
        mins.append(min(seconds[idx]))
        print(f"point n={n} k={k} m={m}: min {mins[-1]:.6f} s over {args.repeats} repeats")

    _write_csv(args.out, ["sweep", "n", "k", "m", "repeat", "seconds"], rows)

    if len(args.values) > 1 and all(t > 0 for t in mins):
        slope = float(np.polyfit(np.log(np.asarray(args.values, float)), np.log(np.asarray(mins)), 1)[0])
        label = "m at fixed n" if args.sweep == "m" else "n"
        print(f"log-log slope of fmbs selection time vs {label}: {slope:.3f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmbs",
        description="Greedy sensor placement benchmark harness for linear inverse problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag shared by subcommands is stated once, in a parent parser
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--model", type=int, required=True, choices=(1, 2),
                      help="1 = standard normal entries, 2 = fair coin flips on {0,1}")
    draw.add_argument("--n", type=int, required=True, help="number of rows (field size)")
    draw.add_argument("--k", type=int, required=True, help="number of columns (parameters)")
    shift = argparse.ArgumentParser(add_help=False)
    shift.add_argument("--mu", type=float, default=1e-4, help="positive objective shift (default 1e-4)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="non-negative root seed (default 0)")

    gen = sub.add_parser("gen", parents=[draw, seed], help="write a seeded random measurement matrix")
    gen.add_argument("--out", required=True, help="output path")
    gen.add_argument("--format", choices=("binary", "csv"), default="binary",
                     help="output format (default binary)")
    gen.set_defaults(handler=_cmd_gen)

    place = sub.add_parser("place", parents=[shift, seed],
                           help="run one selection method on a stored matrix")
    place.add_argument("--matrix", required=True, help="matrix file (binary or csv)")
    place.add_argument("--budget", type=int, required=True,
                       help="number of rows to select; a least-squares design needs at least "
                            "as many as the matrix has columns (K), and with fmbs a budget far "
                            "below K still reads the whole matrix every step")
    place.add_argument("--method", required=True, choices=METHODS)
    place.add_argument("--out", required=True, help="JSON result path")
    place.set_defaults(handler=_cmd_place)

    bench = sub.add_parser("bench", parents=[draw, shift, seed],
                           help="MSE-versus-budget sweep, CSV output")
    bench.add_argument("--budgets", type=_parse_budgets, required=True,
                       help="A:B:STEP (both ends included when aligned) or a single integer")
    bench.add_argument("--trials", type=int, default=10,
                       help="independent matrix draws per cell (default 10)")
    bench.add_argument("--methods", type=_parse_methods, required=True,
                       help=f"comma-separated subset of: {', '.join(METHODS)}")
    bench.add_argument("--out", required=True,
                       help="per-trial CSV path; the aggregate CSV goes beside it, with .agg "
                            "before its extension (b.csv: b.agg.csv; b: b.agg.csv)")
    bench.add_argument("--details-out", default=None,
                       help="optional JSON with the selected indices of every run")
    bench.set_defaults(handler=_cmd_bench)

    # scaling takes a flag by its full name only: its removed --m would
    # otherwise read as a prefix of --mu
    scaling = sub.add_parser("scaling", parents=[shift, seed], allow_abbrev=False,
                             help="fmbs selection wall-time sweep, CSV + slope report")
    scaling.add_argument("--sweep", required=True, choices=("m", "n"),
                         help="sweep the budget at fixed n, or the field size n at budget n/10")
    scaling.add_argument("--values", type=_parse_budgets, required=True,
                         help="swept values as A:B:STEP or a single integer")
    scaling.add_argument("--n", type=int, default=None, help="fixed field size for --sweep m")
    scaling.add_argument("--k", type=int, default=None,
                         help="parameter count (default: matches the budget)")
    scaling.add_argument("--repeats", type=int, default=3,
                         help="timed repeats per point (default 3)")
    scaling.add_argument("--out", required=True, help="CSV path")
    scaling.set_defaults(handler=_cmd_scaling)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag, rule in _FLAG_RULES.items():
            if flag in vars(args):
                rule(getattr(args, flag))
        return args.handler(args)
    except (FmbsError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (InputError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
