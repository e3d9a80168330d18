"""Run a fixed set of fmbs commands on two trees and diff their outputs.

Run from the root of a checkout:

    python3 tools/compare_outputs.py --parent HEAD

The parent side is the tree of the --parent revision and the change side
the working tree as ``git add -A`` would commit it, each exported into its
own temporary copy as tools/bench_pairs.py exports them.  Each side runs
COMMANDS in order with ``python -m fmbs``, from an empty output directory
of its own and with relative paths, so that later commands read the
matrices earlier ones wrote: ``gen`` for both models, ``place`` with every
scoring method on Gaussian and Bernoulli matrices, ``bench --details-out``
on both models (and a model-2 random sweep that draws a rank-deficient set),
one ``scaling`` sweep, and a ``place`` and a ``bench`` at K above 32.  Then
every output file, each command's standard output and its exit code are
compared; a command that exits non-zero, or leaves a named output
unwritten, on both sides has compared nothing and counts as differing.
Timing is left out: the JSON keys in IGNORED_KEYS, the CSV columns in
IGNORED_COLUMNS and the standard output of the subcommands in
TIMED_STDOUT, which prints timings; everything else, every float
included, must be equal.  Prints one table row per command and exits 1
if any output differs.  Standard library only.
"""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import export_revision, export_work_tree, git

IGNORED_KEYS = {"wall_time_seconds", "step_times_ns", "matrix"}
IGNORED_COLUMNS = {"seconds", "mean_seconds"}
TIMED_STDOUT = {"scaling"}

COMMANDS = [
    "gen --model 1 --n 500 --k 20 --seed 3 --out gauss.bin",
    "gen --model 2 --n 500 --k 20 --seed 4 --out bern.bin",
    "gen --model 1 --n 16 --k 4 --seed 5 --out small.csv --format csv",
    *(f"place --matrix {name}.bin --budget 60 --method {method} --seed 6 --out {name}-{method}.json"
      for name in ("gauss", "bern") for method in ("fmbs", "greedy-direct", "random")),
    "place --matrix small.csv --budget 6 --method exhaustive --out small-exhaustive.json",
    *(f"bench --model {model} --n 120 --k 10 --budgets 10:25:5 --trials 3 --seed 7 "
      f"--methods fmbs,greedy-direct,random --out bench{model}.csv --details-out bench{model}.json"
      for model in (1, 2)),
    # one random draw is rank-deficient: its mse reads inf in the CSVs and null in the JSON
    "bench --model 2 --n 200 --k 10 --budgets 10:20:5 --trials 3 --seed 4 --methods random "
    "--out rankdef.csv --details-out rankdef.json",
    "scaling --sweep m --n 120 --k 10 --values 10:30:10 --repeats 1 --seed 8 --out scaling.csv",
    # K above 32: the benchmark's place shape, whose switch inverts a side-100
    # factor by 4 x 25 blocks, and a side-33 bench, whose expected_mse, switch
    # and greedy-direct stacks run invert_lower's padded path
    "gen --model 1 --n 1000 --k 100 --seed 9 --out deep.bin",
    "place --matrix deep.bin --budget 120 --method fmbs --out deep-fmbs.json",
    "bench --model 1 --n 150 --k 33 --budgets 33:45:6 --trials 2 --seed 10 "
    "--methods fmbs,greedy-direct,random --out bench33.csv --details-out bench33.json",
]


def run_side(root, out_dir):
    """Run COMMANDS in out_dir against the package in root; return (code, stdout, stderr) each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    results = []
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "fmbs", *command.split()], cwd=out_dir, env=env,
                              capture_output=True, text=True, timeout=600)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def without_timing(value):
    """A JSON value with the IGNORED_KEYS of every object dropped."""
    if isinstance(value, dict):
        return {k: without_timing(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [without_timing(v) for v in value]
    return value


def csv_without_timing(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in IGNORED_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def load(path):
    """The comparable content of one output file."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return without_timing(json.load(fh))
    if path.endswith(".csv"):
        return csv_without_timing(path)
    with open(path, "rb") as fh:
        return fh.read()


def outputs_of(command):
    """The file names a command writes: its --out, --details-out and bench's aggregate CSV."""
    words = command.split()
    names = [words[i + 1] for i, w in enumerate(words) if w in ("--out", "--details-out")]
    if words[0] == "bench":
        base, ext = os.path.splitext(words[words.index("--out") + 1])
        names.append(f"{base}.agg{ext or '.csv'}")
    return names


def compare(dirs, runs):
    """One (command, files compared, verdict) row per command."""
    rows = []
    for index, command in enumerate(COMMANDS):
        parent_run, change_run = runs["parent"][index], runs["change"][index]
        names = outputs_of(command)
        problems = []
        if parent_run[0] != change_run[0]:
            problems.append(f"exit code {parent_run[0]} != {change_run[0]}")
        elif parent_run[0]:
            # a command that fails on both sides compared nothing
            problems.append(f"exit code {parent_run[0]} on both sides")
        if command.split()[0] not in TIMED_STDOUT and parent_run[1] != change_run[1]:
            problems.append("stdout differs")
        for name in names:
            paths = [os.path.join(dirs[side], name) for side in ("parent", "change")]
            present = [os.path.exists(p) for p in paths]
            if not all(present):
                problems.append(f"{name} written on {'one side only' if any(present) else 'neither side'}")
            elif load(paths[0]) != load(paths[1]):
                problems.append(f"{name} differs")
        rows.append((command, len(names), "; ".join(problems) or "same"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)
    parent_commit = git("rev-parse", args.parent).decode().strip()

    scratch = tempfile.mkdtemp(prefix="compare-outputs-")
    try:
        roots = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        export_revision(parent_commit, roots["parent"])
        export_work_tree(roots["change"])
        dirs, runs = {}, {}
        for side, root in roots.items():
            dirs[side] = os.path.join(scratch, f"{side}-out")
            os.makedirs(dirs[side])
            runs[side] = run_side(root, dirs[side])
        rows = compare(dirs, runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"parent {parent_commit[:12]} against the working tree")
    print("| command | files | result |")
    print("|---|---|---|")
    for command, files, verdict in rows:
        print(f"| `fmbs {command}` | {files} | {verdict} |")
    differ = sum(verdict != "same" for _, _, verdict in rows)
    print(f"{len(rows) - differ} of {len(rows)} commands gave the same outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
