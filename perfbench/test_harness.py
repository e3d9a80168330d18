"""Self-test of the benchmark harness.

Each correctness gate rejects a deliberately wrong selection, the measure
loop counts a rejection as a failed iteration, every metric the runner
prints matches a name and unit in BENCHMARK.json, and the runner refuses to
run without the program's sources.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_harness.py
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fmbs import (  # noqa: E402
    Model,
    ModelSpec,
    direct_greedy_select,
    fmbs_select,
    generate,
    submatrix_objective,
)
from fmbs.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

N, K, M = 200, 10, 20


@pytest.fixture(scope="module")
def phi():
    return generate(ModelSpec(Model.GAUSSIAN, N, K, 3))


def wrong_pick(result, n):
    """The same result with its last pick replaced by a row it did not select."""
    other = next(i for i in range(n) if i not in result.indices)
    return type(result)(result.indices[:-1] + [other], result.objective_trace,
                        result.step_times_ns, result.method)


def test_objective_gate_rejects_wrong_selections(phi):
    good = fmbs_select(phi, M, wl.MU)
    assert wl.check_objective(phi, good.indices, good.objective_trace, M) <= wl.REL_TOL
    bad = wrong_pick(good, N)
    with pytest.raises(wl.GateFailure, match="final objective"):
        wl.check_objective(phi, bad.indices, bad.objective_trace, M)
    with pytest.raises(wl.GateFailure, match="distinct"):
        wl.check_objective(phi, good.indices[:-1] + good.indices[:1], good.objective_trace, M)
    with pytest.raises(wl.GateFailure, match="out of range"):
        wl.check_objective(phi, good.indices[:-1] + [N], good.objective_trace, M)
    with pytest.raises(wl.GateFailure, match="expected"):
        wl.check_objective(phi, good.indices[:-1], good.objective_trace[:-1], M)
    # the weakest rows with their own exact trace fail on the K-space objective alone
    weak = [int(i) for i in np.argsort(np.einsum("ij,ij->i", phi, phi))[:M]]
    exact = [submatrix_objective(phi, weak[: t + 1], wl.MU) for t in range(M)]
    with pytest.raises(wl.GateFailure, match="K-space"):
        wl.check_objective(phi, weak, exact, M)


def test_oracle_gate_rejects_wrong_selections(phi):
    fast = fmbs_select(phi, M, wl.MU)
    direct = direct_greedy_select(phi, M, wl.MU)
    err, split = wl.check_oracle(phi, fast, direct, M)
    assert err <= wl.REL_TOL and split is None
    with pytest.raises(wl.GateFailure):
        wl.check_oracle(phi, wrong_pick(fast, N), direct, M)
    swapped = list(direct.indices)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    reordered = type(direct)(swapped, direct.objective_trace, direct.step_times_ns, direct.method)
    with pytest.raises(wl.GateFailure, match="greedy-direct pick .* at step 1"):
        wl.check_oracle(phi, fast, reordered, M)
    off = type(direct)(direct.indices, [v * (1 + 1e-6) for v in direct.objective_trace],
                       direct.step_times_ns, direct.method)
    with pytest.raises(wl.GateFailure, match="traces disagree"):
        wl.check_oracle(phi, fast, off, M)


def test_greedy_gate_rejects_the_runner_up(phi):
    fast = fmbs_select(phi, M, wl.MU)
    for t in (3, K + 3):
        candidates = [i for i in range(N) if i not in fast.indices[:t]]
        scores = wl.greedy_scores(phi, fast.indices[:t], candidates)
        assert candidates[int(np.argmin(scores))] == fast.indices[t]
        picks = list(fast.indices)
        picks[t] = candidates[int(np.argsort(scores)[1])]
        with pytest.raises(wl.GateFailure, match=f"at step {t} "):
            wl.check_greedy(phi, picks, "fmbs")


def test_oracle_gate_accepts_a_split_at_a_tie(phi):
    # a twin of a row fmbs picks scores exactly as well, so a run that
    # takes the twin instead is as greedy as the one that does not
    fast = fmbs_select(phi, M, wl.MU)
    step = 5
    row = fast.indices[step]
    twin = next(i for i in range(N) if i not in fast.indices)
    tied = phi.copy()
    tied[twin] = tied[row]
    fast = fmbs_select(tied, M, wl.MU)
    step = next(t for t, i in enumerate(fast.indices) if i in (row, twin))
    other = twin if fast.indices[step] == row else row
    picks = list(fast.indices)
    picks[step] = other
    parted = type(fast)(picks, fast.objective_trace, fast.step_times_ns, "greedy-direct")
    err, split = wl.check_oracle(tied, fast, parted, M)
    assert err <= wl.REL_TOL and split == step


def test_place_gate_rejects_wrong_selections(tmp_path):
    n, k, m = wl.PLACE_SHAPE
    place_phi = generate(ModelSpec(Model.GAUSSIAN, n, k, 4))
    good = fmbs_select(place_phi, m, wl.MU)
    path = tmp_path / "place.json"

    def write(indices, trace):
        path.write_text(json.dumps({"indices": indices, "objective_trace": trace}))
        return str(path)

    assert wl.check_place(place_phi, write(good.indices, good.objective_trace)) <= wl.REL_TOL
    bad = wrong_pick(good, n)
    with pytest.raises(wl.GateFailure):
        wl.check_place(place_phi, write(bad.indices, bad.objective_trace))
    with pytest.raises(wl.GateFailure):
        wl.check_place(place_phi, write(good.indices[:-1], good.objective_trace[:-1]))


def test_bench_gate_rejects_wrong_selections(tmp_path):
    out = tmp_path / "bench.csv"
    budgets = f"{wl.SWEEP_BUDGETS[0]}:{wl.SWEEP_BUDGETS[-1]}:5"
    assert cli_main(["bench", "--model", "1", "--n", "1000", "--k", "100", "--budgets", budgets,
                     "--trials", str(wl.SWEEP_TRIALS), "--methods", ",".join(wl.SWEEP_METHODS),
                     "--out", str(out)]) == 0
    wl.check_bench(str(out))
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))

    def write(rows_out):
        path = tmp_path / "bad.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows_out)
        return str(path)

    # fmbs rows carrying the random selections' MSE: a wrong selection
    rand = {(r["m"], r["trial"]): r["mse"] for r in rows if r["method"] == "random"}
    wrong = [dict(r, mse=rand[(r["m"], r["trial"])]) if r["method"] == "fmbs" else r for r in rows]
    with pytest.raises(wl.GateFailure, match="not below random"):
        wl.check_bench(write(wrong))
    with pytest.raises(wl.GateFailure, match="rows"):
        wl.check_bench(write(rows[:-1]))


def test_measure_loop_counts_gate_failures(tmp_path, phi):
    workload = wl.Workload(N, K, M)

    def api_with(select):
        return wl.Api(select, direct_greedy_select, generate, run.inprocess_cli)

    good = api_with(fmbs_select)
    inputs = [workload.setup(good, 5, rnd, str(tmp_path)) for rnd in range(2)]
    ok = run.run_iterations(workload, good, inputs, 0, None, True)
    assert len(ok) == run.MIN_ITERATIONS and all(it["ok"] for it in ok)
    bad = api_with(lambda phi, m, mu: wrong_pick(fmbs_select(phi, m, mu), phi.shape[0]))
    failed = run.run_iterations(workload, bad, inputs, 0, None, True)
    assert len(failed) == run.MIN_ITERATIONS and not any(it["ok"] for it in failed)
    assert all("final objective" in it["error"] for it in failed)


def runner(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = runner(ROOT, "--workload", "sweep", "--seed", "9", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared
    values = {name: v["value"] for name, v in result["metrics"].items()}
    if trace == "1":
        # per-module self times plus the untraced remainder make up the traced wall time
        parts = ("placement.self_s", "linalg.trace_inverse_s", "inverse.self_s", "matgen.self_s",
                 "matio.load_s", "cli.self_s", "trace.untraced_s")
        assert sum(values[p] for p in parts) == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = runner(tmp_path, "--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
