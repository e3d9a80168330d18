"""Command-line benchmark harness.

Subcommands:

* ``gen``      write a seeded random measurement matrix to disk;
* ``place``    run one selection method on a stored matrix, emit JSON;
* ``bench``    MSE-versus-budget sweeps over seeded matrix draws, emit CSV;
* ``scaling``  wall-time sweeps with a fitted log-log slope report.

Exit codes: 0 on success, 2 on flag or input validation problems, 3 when a
selection method fails numerically (the message names the error, e.g.
DegenerateSchur or NotPositiveDefinite).

Timing always covers the selection loop only, never matrix generation or
I/O.  Result files are byte-identical across reruns with the same flags and
seed, except for the timing columns/fields.
"""

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from .errors import FmbsError
from .inverse import expected_mse
from .matgen import Model, ModelSpec, generate
from .matio import load_matrix, save_matrix
from .placement import direct_greedy_select, exhaustive_select, fmbs_select, random_select

METHODS = ("fmbs", "greedy-direct", "random", "exhaustive")


def _child_seed(*key):
    """Stable derived seed for one (namespace, trial, ...) tuple."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _parse_budgets(text):
    """Parse 'A:B:STEP' (both ends included when aligned) or a single integer."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"budget range must be A:B:STEP, got {text!r}")
        a, b, step = (int(p) for p in parts)
        if step < 1 or b < a:
            raise ValueError(f"budget range needs A <= B and STEP >= 1, got {text!r}")
        return list(range(a, b + 1, step))
    return [int(text)]


def _select(method, phi, m, mu, seed):
    if method == "fmbs":
        return fmbs_select(phi, m, mu)
    if method == "greedy-direct":
        return direct_greedy_select(phi, m, mu)
    if method == "exhaustive":
        return exhaustive_select(phi, m, mu)
    return random_select(phi.shape[0], m, seed)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_gen(args, parser):
    try:
        spec = ModelSpec(Model(args.model), args.n, args.k, args.seed)
    except FmbsError as exc:
        parser.error(str(exc))
    save_matrix(args.out, generate(spec), fmt=args.format)
    print(f"wrote {args.n}x{args.k} model-{args.model} matrix to {args.out}")
    return 0


def _cmd_place(args, parser):
    try:
        phi = load_matrix(args.matrix)
    except (OSError, FmbsError) as exc:
        parser.error(str(exc))
    n, k = phi.shape
    if not 1 <= args.budget <= n:
        parser.error(f"--budget must be in [1, {n}] for this matrix, got {args.budget}")
    if not args.mu > 0:
        parser.error(f"--mu must be positive, got {args.mu}")
    start = time.perf_counter()
    try:
        result = _select(args.method, phi, args.budget, args.mu, args.seed)
    except FmbsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
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


def _cmd_bench(args, parser):
    try:
        budgets = _parse_budgets(args.budgets)
    except ValueError as exc:
        parser.error(str(exc))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods must name at least one method")
    for method in methods:
        if method not in METHODS:
            parser.error(f"unknown method {method!r}, choose from {', '.join(METHODS)}")
    if args.model not in (1, 2):
        parser.error(f"--model must be 1 or 2, got {args.model}")
    if args.k < 1 or args.n < args.k:
        parser.error(f"need --n >= --k >= 1, got n={args.n}, k={args.k}")
    for m in budgets:
        if not args.k <= m <= args.n:
            parser.error(f"every budget must satisfy k <= m <= n, got m={m}")
    if not args.mu > 0:
        parser.error(f"--mu must be positive, got {args.mu}")
    if not args.sigma2 >= 0:
        parser.error(f"--sigma2 must be nonnegative, got {args.sigma2}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")

    results = []
    try:
        for trial in range(args.trials):
            spec = ModelSpec(Model(args.model), args.n, args.k, _child_seed(args.seed, 0, trial))
            phi = generate(spec)
            for method in methods:
                for m in budgets:
                    sampler_seed = _child_seed(args.seed, 1, trial, METHODS.index(method), m)
                    start = time.perf_counter()
                    result = _select(method, phi, m, args.mu, sampler_seed)
                    seconds = time.perf_counter() - start
                    mse = expected_mse(phi, result.indices, args.sigma2)
                    results.append((method, m, trial, mse, seconds, result.indices))
    except FmbsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    results.sort(key=lambda row: (row[0], row[1], row[2]))

    _write_csv(
        args.out,
        ["method", "m", "trial", "mse", "seconds"],
        [(method, m, trial, repr(mse), repr(sec)) for method, m, trial, mse, sec, _ in results],
    )

    groups = {}
    for method, m, trial, mse, sec, _ in results:
        groups.setdefault((method, m), []).append((mse, sec))
    agg_path = args.aggregate_out
    if agg_path is None:
        base, ext = os.path.splitext(args.out)
        agg_path = f"{base}.agg{ext or '.csv'}"
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
                "budgets": budgets,
                "trials": args.trials,
                "mu": args.mu,
                "sigma2": args.sigma2,
                "seed": args.seed,
                "methods": methods,
            },
            "runs": [
                {"method": method, "m": m, "trial": trial, "mse": mse, "indices": indices}
                for method, m, trial, mse, _, indices in results
            ],
        }
        with open(args.details_out, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"wrote {len(results)} rows to {args.out} (aggregate: {agg_path})")
    return 0


def _cmd_scaling(args, parser):
    try:
        values = _parse_budgets(args.values)
    except ValueError as exc:
        parser.error(str(exc))
    if args.method not in METHODS:
        parser.error(f"unknown method {args.method!r}")
    if not args.mu > 0:
        parser.error(f"--mu must be positive, got {args.mu}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")

    points = []
    if args.sweep == "m":
        if args.n is None:
            parser.error("--sweep m requires --n")
        for m in values:
            k = args.k if args.k is not None else m
            points.append((args.n, k, m))
    else:
        for n in values:
            if args.m is not None:
                m = args.m
                k = args.k if args.k is not None else m
            else:
                m = max(1, round(args.fraction * n))
                k = m
            points.append((n, k, m))
    for n, k, m in points:
        if not 1 <= k <= n or not k <= m <= n:
            parser.error(f"sweep point n={n}, k={k}, m={m} violates 1 <= k <= m <= n")

    # repeats are interleaved across points (and every point gets one untimed
    # warm-up) so transient machine load distorts ratios between points less
    try:
        matrices = [
            generate(ModelSpec(Model.GAUSSIAN, n, k, _child_seed(args.seed, n, k, m)))
            for n, k, m in points
        ]
        seconds = [[] for _ in points]
        for rep in range(-1, args.repeats):
            for idx, (n, k, m) in enumerate(points):
                sampler_seed = _child_seed(args.seed, 2, max(rep, 0))
                start = time.perf_counter()
                _select(args.method, matrices[idx], m, args.mu, sampler_seed)
                if rep >= 0:
                    seconds[idx].append(time.perf_counter() - start)
    except FmbsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    rows = []
    mins = []
    for idx, (n, k, m) in enumerate(points):
        for rep, sec in enumerate(seconds[idx]):
            rows.append((args.sweep, n, k, m, rep, repr(sec)))
        mins.append(min(seconds[idx]))
        print(f"point n={n} k={k} m={m}: min {mins[-1]:.6f} s over {args.repeats} repeats")

    _write_csv(args.out, ["sweep", "n", "k", "m", "repeat", "seconds"], rows)

    xs = [m for _, _, m in points] if args.sweep == "m" else [n for n, _, _ in points]
    if len(set(xs)) > 1 and all(t > 0 for t in mins):
        slope = float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(mins)), 1)[0])
        label = "m at fixed n" if args.sweep == "m" else "n"
        print(f"log-log slope of {args.method} selection time vs {label}: {slope:.3f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _add_common_seed(sub):
    sub.add_argument("--seed", type=int, default=0, help="root seed (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmbs",
        description="Greedy sensor placement benchmark harness for linear inverse problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random measurement matrix")
    gen.add_argument("--model", type=int, required=True, choices=(1, 2),
                     help="1 = standard normal entries, 2 = fair coin flips on {0,1}")
    gen.add_argument("--n", type=int, required=True, help="number of rows (field size)")
    gen.add_argument("--k", type=int, required=True, help="number of columns (parameters)")
    _add_common_seed(gen)
    gen.add_argument("--out", required=True, help="output path")
    gen.add_argument("--format", choices=("binary", "csv"), default="binary",
                     help="output format (default binary)")
    gen.set_defaults(handler=_cmd_gen)

    place = sub.add_parser("place", help="run one selection method on a stored matrix")
    place.add_argument("--matrix", required=True, help="matrix file (binary or csv)")
    place.add_argument("--budget", type=int, required=True, help="number of rows to select")
    place.add_argument("--mu", type=float, default=1e-4,
                       help="positive objective shift (default 1e-4)")
    place.add_argument("--method", required=True, choices=METHODS)
    _add_common_seed(place)
    place.add_argument("--out", required=True, help="JSON result path")
    place.set_defaults(handler=_cmd_place)

    bench = sub.add_parser("bench", help="MSE-versus-budget sweep, CSV output")
    bench.add_argument("--model", type=int, required=True, choices=(1, 2))
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--budgets", required=True,
                       help="A:B:STEP (both ends included when aligned) or a single integer")
    bench.add_argument("--trials", type=int, default=10,
                       help="independent matrix draws per cell (default 10)")
    bench.add_argument("--mu", type=float, default=1e-4)
    bench.add_argument("--sigma2", type=float, default=1.0,
                       help="noise variance in the recorded MSE (default 1)")
    _add_common_seed(bench)
    bench.add_argument("--methods", required=True,
                       help=f"comma-separated subset of: {', '.join(METHODS)}")
    bench.add_argument("--out", required=True, help="per-trial CSV path")
    bench.add_argument("--aggregate-out", default=None,
                       help="aggregate CSV path (default: <out>.agg.csv)")
    bench.add_argument("--details-out", default=None,
                       help="optional JSON with the selected indices of every run")
    bench.set_defaults(handler=_cmd_bench)

    scaling = sub.add_parser("scaling", help="selection wall-time sweep, CSV + slope report")
    scaling.add_argument("--sweep", required=True, choices=("m", "n"),
                         help="sweep the budget at fixed n, or the field size n")
    scaling.add_argument("--values", required=True,
                         help="swept values as A:B:STEP or a single integer")
    scaling.add_argument("--n", type=int, default=None, help="fixed field size for --sweep m")
    scaling.add_argument("--m", type=int, default=None,
                         help="fixed budget for --sweep n (default: fraction of n)")
    scaling.add_argument("--k", type=int, default=None,
                         help="parameter count (default: matches the budget)")
    scaling.add_argument("--fraction", type=float, default=0.1,
                         help="budget fraction of n for --sweep n without --m (default 0.1)")
    scaling.add_argument("--method", default="fmbs", choices=METHODS)
    scaling.add_argument("--mu", type=float, default=1e-4)
    _add_common_seed(scaling)
    scaling.add_argument("--repeats", type=int, default=3,
                         help="timed repeats per point (default 3)")
    scaling.add_argument("--out", required=True, help="CSV path")
    scaling.set_defaults(handler=_cmd_scaling)

    return parser, {"gen": gen, "place": place, "bench": bench, "scaling": scaling}


def main(argv=None):
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, subs[args.command])


if __name__ == "__main__":
    sys.exit(main())
