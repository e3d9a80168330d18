"""Run perfbench in alternating parent/change pairs and write a BENCH_<n>.json file.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_10.json \\
        --pairs wide=10 --pairs deep=5 --pairs sweep=10 --pairs oracle=10 \\
        --trace wide --trace deep --seed 2001

The parent side is the tree of the --parent revision, exported with
``git archive``; the change side is the working tree as ``git add -A``
would commit it (tracked and untracked files, ignored ones left out).
Each side runs from its own temporary copy, one run after another, and
within a pair the side that runs first alternates from one pair to the
next.  Pair i of a workload runs ``perfbench/run.py --workload W --seed
SEED+i --trace 0`` for the ``run_seconds`` of BENCHMARK.json; each
--trace workload adds one ``--trace 1`` pair at seed SEED+100.  BLAS
threads are read, never set, as in perfbench itself.

The output has the layout of the earlier BENCH files: the commits, the
command, notes, and a set ``set_final`` with the seeds, the run order,
every run's result line per side, each side's environment (the ``env``
line of its first run, without the per-run keys) and, per workload, the
median and quartiles of each end-to-end metric on both sides with the
number of pairs the change won.  Standard library only.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

TRACE_SEED_OFFSET = 100
RUN_KEYS = ("workload", "seed", "seconds", "trace")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export_revision(rev, dest):
    """Write the tree of rev into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_work_tree(dest):
    """Copy the files ``git add -A`` would commit into dest."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        if not os.path.isfile(name):  # deleted but still in the index
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(name, target)


def run_once(root, workload, seed, seconds, trace):
    """The result line and environment of one perfbench run in root."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=60 * seconds + 600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {' '.join(argv)} exited with {proc.returncode} in {root}")
    lines = proc.stdout.splitlines()
    run_env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), {k: v for k, v in run_env.items() if k not in RUN_KEYS}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(results, spec):
    """Median, quartiles and pairs won by the change, per workload and metric."""
    summary = {}
    for workload, by_seed in results["parent"]["trace0"].items():
        seeds = list(by_seed)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent = [results["parent"]["trace0"][workload][s]["metrics"][name]["value"]
                      for s in seeds]
            change = [results["change"]["trace0"][workload][s]["metrics"][name]["value"]
                      for s in seeds]
            summary[workload][name] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(seeds),
            }
    return summary


def parse_pairs(text):
    workload, _, count = text.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=COUNT, got {text!r}")
    return workload, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json file to write")
    parser.add_argument("--pairs", type=parse_pairs, action="append", default=[],
                        metavar="WORKLOAD=COUNT", help="trace-0 pairs to run on a workload")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                        help="workload to run one --trace 1 pair on")
    parser.add_argument("--seed", type=int, default=1001, help="seed of each workload's first pair")
    args = parser.parse_args(argv)
    if not args.pairs and not args.trace:
        parser.error("nothing to run: give --pairs or --trace")
    pairs = dict(args.pairs)
    if len(pairs) < len(args.pairs) or len(set(args.trace)) < len(args.trace):
        parser.error("name each workload at most once in --pairs and in --trace")

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = float(spec["run_seconds"])
    parent_commit = git("rev-parse", args.parent).decode().strip()
    base = git("rev-parse", "HEAD").decode().strip()
    seeds = {w: [args.seed + i for i in range(count)] for w, count in pairs.items()}
    plan = [(w, seed, 0) for w, ws in seeds.items() for seed in ws]
    plan += [(w, args.seed + TRACE_SEED_OFFSET, 1) for w in args.trace]

    results = {side: {"trace0": {}, "trace1": {}} for side in ("parent", "change")}
    run_order = []
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        roots = {side: os.path.join(scratch, side) for side in results}
        export_revision(parent_commit, roots["parent"])
        export_work_tree(roots["change"])
        for index, (workload, seed, trace) in enumerate(plan):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            label = f"{workload}:{seed}" + (" trace 1" if trace else "")
            run_order.append(f"{label} {order[0]} first")
            for side in order:
                print(f"[{index + 1}/{len(plan)}] {label} {side}", file=sys.stderr, flush=True)
                result, env = run_once(roots[side], workload, seed, seconds, trace)
                results[side][f"trace{trace}"].setdefault(workload, {})[str(seed)] = result
                results[side].setdefault("environment", env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = [f"{n} pairs on {w} at --trace 0" for w, n in pairs.items()]
    runs += [f"one {w} --trace 1 pair" for w in args.trace]
    record = {
        "what": "perfbench/run.py result lines (the last line of standard output) at the parent "
                "commit and at this change, in alternating parent/change pairs: " + ", ".join(runs),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace T",
        "seconds": seconds,
        "parent_commit": parent_commit,
        "change_commit": "the commit that adds this file",
        "notes": [
            "Written by tools/bench_pairs.py. Each side ran from its own copy of the files, one run "
            "after another; within a pair the side that ran first alternated from one pair to the "
            f"next (run_order). The change side was the working tree over {base}. BLAS threads "
            "were read, not set (environment).",
        ],
        "set_final": {
            "seeds": seeds,
            "trace1_seed": {w: args.seed + TRACE_SEED_OFFSET for w in args.trace},
            "run_order": run_order,
            **results,
            "summary": summarize(results, spec),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
