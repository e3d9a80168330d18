import json

import numpy as np
import pytest

from fmbs import Model, ModelSpec, expected_mse, generate, load_matrix, save_matrix
from fmbs.cli import main

PHI3 = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def strip_last_column(path):
    """CSV bytes with the trailing (timing) column removed from every row."""
    lines = path.read_text().strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def place_payload_sans_timing(path):
    payload = json.loads(path.read_text())
    payload.pop("wall_time_seconds")
    payload.pop("step_times_ns")
    return payload


@pytest.fixture()
def phi3_file(tmp_path):
    path = tmp_path / "phi3.csv"
    save_matrix(path, PHI3, fmt="csv")
    return path


def test_gen_round_trip(tmp_path):
    out = tmp_path / "m.bin"
    assert run_cli(["gen", "--model", "1", "--n", "20", "--k", "3", "--seed", "5",
                    "--out", str(out)]) == 0
    phi = load_matrix(out)
    assert phi.shape == (20, 3)
    out2 = tmp_path / "m2.bin"
    run_cli(["gen", "--model", "1", "--n", "20", "--k", "3", "--seed", "5", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_gen_csv_format(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli(["gen", "--model", "2", "--n", "6", "--k", "2", "--out", str(out),
                    "--format", "csv"]) == 0
    assert out.read_text().splitlines()[0] == "6,2"


def test_place_worked_example(phi3_file, tmp_path):
    out = tmp_path / "result.json"
    code = run_cli(["place", "--matrix", str(phi3_file), "--budget", "2", "--mu", "1e-4",
                    "--method", "fmbs", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["indices"] == [0, 1]
    assert payload["method"] == "fmbs"
    assert len(payload["objective_trace"]) == 2
    assert len(payload["step_times_ns"]) == 2


def test_place_methods_agree(tmp_path):
    matrix = tmp_path / "m.bin"
    run_cli(["gen", "--model", "1", "--n", "25", "--k", "4", "--seed", "9", "--out", str(matrix)])
    outputs = {}
    for method in ("fmbs", "greedy-direct"):
        out = tmp_path / f"{method}.json"
        assert run_cli(["place", "--matrix", str(matrix), "--budget", "6", "--mu", "1e-4",
                        "--method", method, "--out", str(out)]) == 0
        outputs[method] = json.loads(out.read_text())["indices"]
    assert outputs["fmbs"] == outputs["greedy-direct"]


def test_place_budget_validation_exits_2(phi3_file, tmp_path):
    code = run_cli(["place", "--matrix", str(phi3_file), "--budget", "9",
                    "--method", "fmbs", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_place_bad_flags_exit_2(tmp_path):
    assert run_cli(["place", "--budget", "2", "--method", "fmbs",
                    "--out", str(tmp_path / "x.json")]) == 2  # missing --matrix
    assert run_cli(["place", "--matrix", str(tmp_path / "missing.bin"), "--budget", "1",
                    "--method", "fmbs", "--out", str(tmp_path / "x.json")]) == 2


def test_place_solver_failure_exits_3(tmp_path):
    matrix = tmp_path / "m.bin"
    run_cli(["gen", "--model", "1", "--n", "40", "--k", "2", "--seed", "0", "--out", str(matrix)])
    code = run_cli(["place", "--matrix", str(matrix), "--budget", "15",
                    "--method", "exhaustive", "--out", str(tmp_path / "x.json")])
    assert code == 3  # subset enumeration guard trips


def test_place_deterministic_modulo_timing(phi3_file, tmp_path):
    argv = ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "fmbs",
            "--seed", "4"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert place_payload_sans_timing(a) == place_payload_sans_timing(b)


def test_bench_rows_and_audit(tmp_path):
    out = tmp_path / "bench.csv"
    details = tmp_path / "details.json"
    code = run_cli(["bench", "--model", "1", "--n", "40", "--k", "3",
                    "--budgets", "4:12:4", "--trials", "3", "--seed", "11",
                    "--methods", "fmbs,random,greedy-direct",
                    "--out", str(out), "--details-out", str(details)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,m,trial,mse,seconds"
    assert len(lines) == 1 + 3 * 3 * 3  # methods x budgets x trials
    # rows sorted by (method, m, trial)
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    parsed = [(k[0], int(k[1]), int(k[2])) for k in keys]
    assert parsed == sorted(parsed)

    agg = (tmp_path / "bench.agg.csv").read_text().strip().splitlines()
    assert agg[0] == "method,m,mean_mse,mean_seconds"
    assert len(agg) == 1 + 3 * 3

    # every stored mse reproduces from the stored indices and the seeded matrix
    payload = json.loads(details.read_text())
    from fmbs.cli import _child_seed

    for run in payload["runs"]:
        phi = generate(ModelSpec(Model.GAUSSIAN, 40, 3, _child_seed(11, 0, run["trial"])))
        fresh = expected_mse(phi, run["indices"], 1.0)
        assert abs(run["mse"] - fresh) <= 1e-9 * max(1.0, abs(fresh))


def test_bench_model2_with_greedy(tmp_path):
    # random selection on coin-flip matrices can gather rank-deficient rows
    # (a legitimate exit-3 failure); the greedy sampler avoids them
    out = tmp_path / "b2.csv"
    code = run_cli(["bench", "--model", "2", "--n", "30", "--k", "2", "--budgets", "3:9:3",
                    "--trials", "2", "--seed", "21", "--methods", "fmbs", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 3 * 2


def test_bench_determinism_modulo_seconds(tmp_path):
    argv = ["bench", "--model", "1", "--n", "30", "--k", "2", "--budgets", "3:9:3",
            "--trials", "2", "--seed", "21", "--methods", "fmbs,random"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert strip_last_column(a) == strip_last_column(b)
    assert strip_last_column(tmp_path / "a.agg.csv") == strip_last_column(tmp_path / "b.agg.csv")


def test_bench_validation_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["bench", "--model", "1", "--n", "20", "--k", "3", "--trials", "1",
            "--methods", "fmbs", "--out", out]
    assert run_cli(base + ["--budgets", "2:10:2"]) == 2  # budget below k
    assert run_cli(base + ["--budgets", "3:30:3"]) == 2  # budget above n
    assert run_cli(base + ["--budgets", "oops"]) == 2
    assert run_cli(["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5",
                    "--trials", "1", "--methods", "warp", "--out", out]) == 2


def test_bench_single_budget_and_exhaustive(tmp_path):
    out = tmp_path / "b.csv"
    code = run_cli(["bench", "--model", "1", "--n", "12", "--k", "2", "--budgets", "3",
                    "--trials", "2", "--seed", "8", "--methods", "exhaustive,fmbs",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # two methods, one budget, two trials
    mse = {}
    for line in lines[1:]:
        method, _, trial, value, _ = line.split(",")
        mse[(method, int(trial))] = float(value)
    # exhaustive optimizes the shifted objective, the CSV records the
    # unshifted MSE; they can cross only at O(mu)
    for trial in (0, 1):
        assert mse[("exhaustive", trial)] <= mse[("fmbs", trial)] * (1.0 + 1e-3)


def test_scaling_m_sweep(tmp_path):
    out = tmp_path / "scale.csv"
    code = run_cli(["scaling", "--sweep", "m", "--n", "500", "--values", "2:4:2",
                    "--repeats", "25", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sweep,n,k,m,repeat,seconds"
    assert len(lines) == 1 + 2 * 25
    best = {}
    for line in lines[1:]:
        _, n, k, m, _, seconds = line.split(",")
        key = int(m)
        best[key] = min(best.get(key, float("inf")), float(seconds))
    assert best[2] <= best[4]  # more greedy steps can only add work


def test_scaling_n_sweep_cubic_bound(tmp_path):
    # proportional budgets m = k = 10% n: doubling n bounds the time ratio by
    # cubic growth (8x) plus 50% slack
    out = tmp_path / "scale_n.csv"
    code = run_cli(["scaling", "--sweep", "n", "--values", "2000:4000:2000",
                    "--fraction", "0.1", "--repeats", "4", "--seed", "3", "--out", str(out)])
    assert code == 0
    best = {}
    for line in out.read_text().strip().splitlines()[1:]:
        _, n, _, _, _, seconds = line.split(",")
        best[int(n)] = min(best.get(int(n), float("inf")), float(seconds))
    assert best[4000] / best[2000] <= 12.0


def test_scaling_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli(["scaling", "--sweep", "m", "--values", "2:4:2", "--out", out]) == 2  # no --n
    assert run_cli(["scaling", "--sweep", "m", "--n", "10", "--values", "8:20:4",
                    "--out", out]) == 2  # m exceeds n


def test_help_and_missing_subcommand():
    assert run_cli([]) == 2
    assert run_cli(["--help"]) == 0
