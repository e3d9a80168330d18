import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import fmbs
from fmbs import Model, ModelSpec, expected_mse, generate, load_matrix, save_matrix
from fmbs.cli import build_parser, main

PHI3 = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
# --mu values every subcommand must refuse with exit 2
BAD_MU = ("inf", "nan", "0", "-1e-4")


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


def test_runtime_never_imports_scipy(tmp_path):
    # the package runs on numpy alone, so a process loads a single BLAS
    matrix = tmp_path / "phi.bin"
    save_matrix(matrix, generate(ModelSpec(Model.GAUSSIAN, 60, 5, 1)))
    argv = ["place", "--matrix", str(matrix), "--budget", "8", "--method", "fmbs",
            "--out", str(tmp_path / "sel.json")]
    code = f"""
import json
import sys
import fmbs.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

after_import = scipy_modules()
status = fmbs.cli.main({argv!r})
print(json.dumps([after_import, status, scipy_modules()]))
"""
    src = os.path.dirname(os.path.dirname(fmbs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], 0, []]
    assert json.loads((tmp_path / "sel.json").read_text())["method"] == "fmbs"


def test_place_bad_flags_exit_2(tmp_path):
    assert run_cli(["place", "--budget", "2", "--method", "fmbs",
                    "--out", str(tmp_path / "x.json")]) == 2  # missing --matrix
    assert run_cli(["place", "--matrix", str(tmp_path / "missing.bin"), "--budget", "1",
                    "--method", "fmbs", "--out", str(tmp_path / "x.json")]) == 2
    matrix = tmp_path / "phi3.csv"
    save_matrix(matrix, PHI3, fmt="csv")
    for bad in BAD_MU:
        assert run_cli(["place", "--matrix", str(matrix), "--budget", "2", "--method", "fmbs",
                        "--mu", bad, "--out", str(tmp_path / "x.json")]) == 2
    # finite entries whose squared row norm overflows are bad input too
    save_matrix(matrix, PHI3 * np.array([[1e160], [1.0], [1.0]]), fmt="csv")
    assert run_cli(["place", "--matrix", str(matrix), "--budget", "2", "--method", "fmbs",
                    "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_exit_code_table(monkeypatch, capsys, phi3_file, tmp_path):
    # main() alone turns an error into an exit code: the input errors and
    # OSError exit 2, every other FmbsError 3, each with one stderr line
    import fmbs.cli as cli
    import fmbs.errors as errors

    expected = {
        errors.BudgetError: 2, errors.DimensionError: 2, errors.InvalidSpec: 2,
        errors.NonFiniteInput: 2, errors.ParseError: 2, errors.InvalidParameter: 2,
        errors.InvalidSampleSet: 2, errors.InputError: 2, OSError: 2, FileNotFoundError: 2,
        PermissionError: 2,
        errors.DegenerateSchur: 3, errors.NotPositiveDefinite: 3, errors.TooLarge: 3,
        errors.FmbsError: 3,
    }
    # a new error, at any depth below FmbsError, needs a row
    tree, stack = set(), [errors.FmbsError]
    while stack:
        subclasses = stack.pop().__subclasses__()
        tree.update(subclasses)
        stack.extend(subclasses)
    assert tree < set(expected)
    for error, code in expected.items():
        def fail(args, error=error):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_place", fail)
        assert run_cli(["place", "--matrix", str(phi3_file), "--budget", "1", "--method", "fmbs",
                        "--out", str(tmp_path / "x.json")]) == code, error
        assert capsys.readouterr().err == f"error: {error.__name__}: boom\n"


def test_out_into_missing_directory_exits_2(monkeypatch, phi3_file, tmp_path, capsys):
    # every output path is checked before any matrix is loaded or drawn,
    # so no selection runs and nothing is printed or written
    import fmbs.cli as cli

    def no_selection(*args):
        raise AssertionError("selection ran before the output path was checked")

    monkeypatch.setattr(cli, "_select", no_selection)
    out = str(tmp_path / "missing" / "x.out")
    bench = ["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5", "--trials", "1",
             "--methods", "fmbs"]
    argvs = [
        ["gen", "--model", "1", "--n", "20", "--k", "3", "--out", out],
        ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "fmbs", "--out", out],
        # the aggregate CSV goes beside --out, so this case covers its directory too
        bench + ["--out", out],
        bench + ["--out", str(tmp_path / "b.csv"), "--details-out", out],
        ["scaling", "--sweep", "n", "--values", "20:40:10", "--repeats", "1", "--out", out],
    ]
    for argv in argvs:
        assert run_cli(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "", argv[0]
        assert captured.err.startswith("error: FileNotFoundError: "), argv[0]
        assert captured.err.count("\n") == 1, argv[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi3.csv"]


def test_out_naming_a_directory_exits_2(monkeypatch, phi3_file, tmp_path, capsys):
    # an output path that is a directory is refused with the others, before
    # any selection runs or any line is printed
    import fmbs.cli as cli

    def no_selection(*args):
        raise AssertionError("selection ran before the output path was checked")

    monkeypatch.setattr(cli, "_select", no_selection)
    out = tmp_path / "adir"
    out.mkdir()
    # the aggregate path follows from --out: a directory at b.agg.csv (and
    # at c.agg.csv for an --out with no extension) is refused with the others
    for agg in ("b.agg.csv", "c.agg.csv"):
        (tmp_path / agg).mkdir()
    bench = ["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5", "--trials", "1",
             "--methods", "fmbs"]
    for argv in (
        ["gen", "--model", "1", "--n", "20", "--k", "3", "--out", str(out)],
        ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "fmbs", "--out", str(out)],
        bench + ["--out", str(out)],
        bench + ["--out", str(tmp_path / "b.csv")],
        bench + ["--out", str(tmp_path / "c")],
        bench + ["--out", str(tmp_path / "d.csv"), "--details-out", str(out)],
        ["scaling", "--sweep", "m", "--n", "200", "--values", "20:40:20", "--repeats", "1",
         "--out", str(out)],
    ):
        assert_refused(capsys, argv, "IsADirectoryError")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "b.agg.csv", "c.agg.csv",
                                                          "phi3.csv"]
    assert not any(any(d.iterdir()) for d in (out, tmp_path / "b.agg.csv", tmp_path / "c.agg.csv"))


def test_unwritable_out_exits_2(monkeypatch, phi3_file, tmp_path, capsys):
    # an output path open() could not write, an existing file or a new one,
    # is refused before any work, with no output; root passes every access
    # check, so the check is made to fail
    import fmbs.cli as cli

    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    for argv in (
        ["gen", "--model", "1", "--n", "20", "--k", "3", "--out", str(phi3_file)],
        ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "fmbs",
         "--out", str(tmp_path / "sel.json")],
    ):
        assert_refused(capsys, argv, "PermissionError")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi3.csv"]
    assert np.array_equal(load_matrix(phi3_file), PHI3)


def test_place_solver_failure_exits_3(tmp_path):
    # the subset enumeration guard trips (C(40, 15) and C(30, 10) subsets)
    # and ends place and bench with exit 3 and no output
    matrix = tmp_path / "m.bin"
    run_cli(["gen", "--model", "1", "--n", "40", "--k", "2", "--seed", "0", "--out", str(matrix)])
    out = tmp_path / "x.out"
    argvs = [
        ["place", "--matrix", str(matrix), "--budget", "15", "--method", "exhaustive"],
        ["bench", "--model", "1", "--n", "30", "--k", "5", "--budgets", "10", "--trials", "1",
         "--methods", "exhaustive"],
    ]
    for argv in argvs:
        assert run_cli(argv + ["--out", str(out)]) == 3, argv[0]
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


def test_place_degenerate_schur_exits_3(capsys, tmp_path):
    # fmbs raises DegenerateSchur on 20 rows of rank 3 at mu = 1e-13, where
    # after three picks every candidate's Schur complement is rounding
    # noise, and on 7 x 1 rows of norm 1e-110 or 0 at mu = 1e-250, where
    # past depth K the K-space state overflows: one error line, no JSON
    rng = np.random.default_rng(7)
    cases = (("rank3", rng.standard_normal((20, 3)) @ rng.standard_normal((3, 6)), "1e-13"),
             ("tiny", 1e-110 * np.array([[1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0]]).T, "1e-250"))
    for name, phi, mu in cases:
        matrix = tmp_path / f"{name}.bin"
        save_matrix(matrix, phi)
        code = run_cli(["place", "--matrix", str(matrix), "--budget", "5", "--method", "fmbs",
                        "--mu", mu, "--out", str(tmp_path / f"{name}.json")])
        assert code == 3, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("error: DegenerateSchur: ") and captured.err.count("\n") == 1, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rank3.bin", "tiny.bin"]


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

    # every stored mse, in the CSV and the details JSON, is expected_mse of
    # the stored indices and the seeded matrix at unit noise variance, bit
    # for bit
    payload = json.loads(details.read_text())
    assert payload["config"]["sigma2"] == 1.0
    from fmbs.cli import _child_seed

    csv_mse = {(method, int(m), int(trial)): float(mse)
               for method, m, trial, mse, _ in (line.split(",") for line in lines[1:])}
    for run in payload["runs"]:
        phi = generate(ModelSpec(Model.GAUSSIAN, 40, 3, _child_seed(11, 0, run["trial"])))
        fresh = expected_mse(phi, run["indices"], 1.0)
        assert run["mse"] == fresh == csv_mse[(run["method"], run["m"], run["trial"])]


def test_bench_shares_greedy_runs(monkeypatch, tmp_path):
    # fmbs and greedy-direct run once per trial to the largest budget; every
    # budget's row equals a separate run to that budget, and its seconds
    # (cumulative step time) grow with m
    import fmbs.cli as cli
    from fmbs.placement import direct_greedy_select, fmbs_select

    calls = {"fmbs": 0, "greedy-direct": 0}

    def counted(name, select):
        def run(*args):
            calls[name] += 1
            return select(*args)

        return run

    monkeypatch.setattr(cli, "fmbs_select", counted("fmbs", fmbs_select))
    monkeypatch.setattr(cli, "direct_greedy_select", counted("greedy-direct", direct_greedy_select))
    out, details = tmp_path / "bench.csv", tmp_path / "details.json"
    code = run_cli(["bench", "--model", "1", "--n", "40", "--k", "3",
                    "--budgets", "4:12:4", "--trials", "2", "--seed", "5",
                    "--methods", "greedy-direct,random,fmbs",
                    "--out", str(out), "--details-out", str(details)])
    assert code == 0
    assert calls == {"fmbs": 2, "greedy-direct": 2}

    separate = {"fmbs": fmbs_select, "greedy-direct": direct_greedy_select}
    runs = json.loads(details.read_text())["runs"]
    checked = 0
    for run in runs:
        if run["method"] in separate:
            phi = generate(ModelSpec(Model.GAUSSIAN, 40, 3, cli._child_seed(5, 0, run["trial"])))
            indices = separate[run["method"]](phi, run["m"], 1e-4).indices
            assert run["indices"] == indices
            assert run["mse"] == expected_mse(phi, indices, 1.0)
            checked += 1
    assert checked == 2 * 3 * 2  # methods x budgets x trials

    seconds = {}
    for line in out.read_text().strip().splitlines()[1:]:
        method, m, trial, _, sec = line.split(",")
        seconds.setdefault((method, int(trial)), []).append((int(m), float(sec)))
    for (method, _), series in seconds.items():
        if method in separate:
            values = [sec for _, sec in sorted(series)]
            assert all(a < b for a, b in zip(values, values[1:])), (method, values)


def test_bench_model2_with_greedy(tmp_path):
    # random selection on coin-flip matrices can gather rank-deficient rows,
    # which bench records as mse inf (test_bench_records_a_rank_deficient_draw);
    # the greedy sampler avoids them
    out = tmp_path / "b2.csv"
    code = run_cli(["bench", "--model", "2", "--n", "30", "--k", "2", "--budgets", "3:9:3",
                    "--trials", "2", "--seed", "21", "--methods", "fmbs", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 3 * 2


def test_bench_records_a_rank_deficient_draw(tmp_path):
    # one random 10-row draw from this {0, 1} matrix is singular (trial 2):
    # its MSE is unbounded, so bench records inf, null in strict JSON, and
    # goes on, where it exited 3 with no output
    import fmbs.cli as cli

    out, details = tmp_path / "b.csv", tmp_path / "b.json"
    code = run_cli(["bench", "--model", "2", "--n", "200", "--k", "10", "--budgets", "10:20:5",
                    "--trials", "3", "--seed", "4", "--methods", "random",
                    "--out", str(out), "--details-out", str(details)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    assert [row[:4] for row in rows if row[3] == "inf"] == [["random", "10", "2", "inf"]]
    means = {row[1]: row[2] for row in (line.split(",") for line in
                                        (tmp_path / "b.agg.csv").read_text().splitlines()[1:])}
    assert means["10"] == "inf" and all(float(means[m]) < np.inf for m in ("15", "20"))

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    runs = json.loads(details.read_text(), parse_constant=refuse)["runs"]
    assert [(run["m"], run["trial"]) for run in runs if run["mse"] is None] == [(10, 2)]
    for run in runs:
        if run["mse"] is not None:
            phi = generate(ModelSpec(Model.BERNOULLI, 200, 10, cli._child_seed(4, 0, run["trial"])))
            assert run["mse"] == expected_mse(phi, run["indices"], 1.0)


def test_bench_determinism_modulo_seconds(tmp_path):
    argv = ["bench", "--model", "1", "--n", "30", "--k", "2", "--budgets", "3:9:3",
            "--trials", "2", "--seed", "21", "--methods", "fmbs,random"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert strip_last_column(a) == strip_last_column(b)
    assert strip_last_column(tmp_path / "a.agg.csv") == strip_last_column(tmp_path / "b.agg.csv")


def assert_refused(capsys, argv, error):
    """argv exits 2 naming error, with nothing printed to stdout."""
    assert run_cli(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {error}: "), argv


def test_bench_validation_exit_2(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["bench", "--model", "1", "--n", "20", "--k", "3", "--trials", "1",
            "--methods", "fmbs", "--out", out]
    # the library refuses a bad budget where it uses it, before any result
    # is written: expected_mse one below k, the selector one above n, and
    # PlacementResult.prefix one below 1 cut from the shared greedy run
    for methods in ("fmbs", "random"):
        for budgets, error in (("2:10:2", "DimensionError"), ("3:30:3", "BudgetError"),
                               ("-2:8:5", "BudgetError")):
            assert_refused(capsys, base + ["--methods", methods, f"--budgets={budgets}"], error)
    assert run_cli(base + ["--budgets", "oops"]) == 2
    assert run_cli(base + ["--budgets", "5:3:1"]) == 2  # descending range
    assert run_cli(base + ["--budgets", "3:5:0"]) == 2  # zero step
    assert run_cli(["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5",
                    "--trials", "1", "--methods", "warp", "--out", out]) == 2
    assert run_cli(["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5",
                    "--trials", "1", "--methods", "fmbs,random,fmbs", "--out", out]) == 2
    for bad in BAD_MU:
        assert run_cli(base + ["--budgets", "5", "--mu", bad]) == 2
    # bench records the MSE at unit noise variance; --sigma2 is gone
    capsys.readouterr()
    assert run_cli(base + ["--budgets", "5", "--sigma2", "2"]) == 2
    assert "unrecognized arguments: --sigma2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    # cubic growth (8x) plus 50% slack.  The sweep runs in a child process
    # with one BLAS thread, so no BLAS worker thread can share a core with
    # the timed loop when another process keeps a core busy
    out = tmp_path / "scale_n.csv"
    src = os.path.dirname(os.path.dirname(fmbs.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "fmbs", "scaling", "--sweep", "n",
                    "--values", "2000:4000:2000", "--repeats", "4", "--seed", "3", "--out", str(out)],
                   env=env, capture_output=True, check=True, timeout=300)
    best = {}
    for line in out.read_text().strip().splitlines()[1:]:
        _, n, _, _, _, seconds = line.split(",")
        best[int(n)] = min(best.get(int(n), float("inf")), float(seconds))
    assert best[4000] / best[2000] <= 12.0


def test_scaling_n_sweep_honours_k(tmp_path):
    # --k sets every point's k, also when the budget is a fraction of n
    out = tmp_path / "scale_k.csv"
    code = run_cli(["scaling", "--sweep", "n", "--values", "40:80:40", "--k", "3",
                    "--repeats", "1", "--out", str(out)])
    assert code == 0
    ks = {line.split(",")[2] for line in out.read_text().strip().splitlines()[1:]}
    assert ks == {"3"}


def test_scaling_validation(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    assert_refused(capsys, ["scaling", "--sweep", "m", "--values", "2:4:2", "--out", out],
                   "InvalidSpec")  # no --n
    assert_refused(capsys, ["scaling", "--sweep", "m", "--n", "10", "--values", "8:20:4",
                            "--out", out], "InvalidSpec")  # m exceeds n, and k = m with it
    assert_refused(capsys, ["scaling", "--sweep", "m", "--n", "10", "--k", "3",
                            "--values", "8:20:4", "--out", out], "BudgetError")  # m exceeds n
    # negative points are refused by name too, not by the seed derivation
    assert_refused(capsys, ["scaling", "--sweep", "m", "--n", "10", "--k", "3",
                            "--values=-2:5:1", "--out", out], "BudgetError")
    assert_refused(capsys, ["scaling", "--sweep", "n", "--k", "-3", "--values", "20",
                            "--out", out], "InvalidSpec")
    for bad in BAD_MU:
        assert run_cli(["scaling", "--sweep", "m", "--n", "20", "--values", "3",
                        "--repeats", "1", "--mu", bad, "--out", out]) == 2
    assert not os.path.exists(out)


def test_scaling_n_sweep_points(tmp_path):
    # the n-sweep budget is max(1, round(n/10)), and k follows it
    out = tmp_path / "scale_n.csv"
    assert run_cli(["scaling", "--sweep", "n", "--values", "20:60:10", "--repeats", "1",
                    "--out", str(out)]) == 0
    points = [tuple(int(v) for v in line.split(",")[1:4])
              for line in out.read_text().strip().splitlines()[1:]]
    assert points == [(20, 2, 2), (30, 3, 3), (40, 4, 4), (50, 5, 5), (60, 6, 6)]


def test_scaling_k_above_n_exits_2(capsys, tmp_path):
    # ModelSpec refuses the first point's k = 30 above n = 20 before any timing
    out = tmp_path / "x.csv"
    assert_refused(capsys, ["scaling", "--sweep", "n", "--values", "20:40:10", "--k", "30",
                            "--repeats", "1", "--out", str(out)], "InvalidSpec")
    assert not out.exists()


def test_scaling_removed_flags_are_refused(capsys, tmp_path):
    # the n-sweep budget is fixed at one tenth of n, and scaling times fmbs
    # alone; --fraction, --m and --method are gone
    for flag, value in (("--fraction", "0.1"), ("--m", "5"), ("--method", "fmbs")):
        assert run_cli(["scaling", "--sweep", "n", "--values", "20", flag, value,
                        "--out", str(tmp_path / "x.csv")]) == 2
        # argparse names the flag as unrecognized: scaling takes flags by
        # their full names only, so --m is not read as --mu
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err, flag
    assert list(tmp_path.iterdir()) == []


def test_bench_aggregate_out_is_refused(capsys, tmp_path):
    # --aggregate-out is gone: argparse names it and exits 2 before any output
    assert run_cli(["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5",
                    "--trials", "1", "--methods", "fmbs", "--out", str(tmp_path / "b.csv"),
                    "--aggregate-out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --aggregate-out" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_bench_out_without_extension_writes_agg_csv(capsys, tmp_path):
    # an --out with no extension gets .agg.csv appended for the aggregate
    out = tmp_path / "sweep"
    assert run_cli(["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "3:5:2",
                    "--trials", "1", "--methods", "fmbs", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep", "sweep.agg.csv"]
    assert capsys.readouterr().out == f"wrote 2 rows to {out} (aggregate: {out}.agg.csv)\n"
    agg = (tmp_path / "sweep.agg.csv").read_text().splitlines()
    assert agg[0] == "method,m,mean_mse,mean_seconds"
    assert [row[:7] for row in agg[1:]] == ["fmbs,3,", "fmbs,5,"]


def test_readme_commands_parse():
    # every fmbs command in the README's code blocks parses with today's flags
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("fmbs "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert {argv[0] for argv in commands} == {"gen", "place", "bench", "scaling"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_shared_flags_read_the_same_in_every_subcommand():
    # a flag several subcommands take has one type, default, choice set and
    # non-empty help in all of them; scaling's optional --n and --k, a fixed
    # size for one sweep, are a different flag and are left out
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"--mu": 3, "--seed": 4, "--model": 2, "--n": 2, "--k": 2}
    seen = {flag: {} for flag in shared}
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for flag in set(action.option_strings) & set(shared):
                if command == "scaling" and flag in ("--n", "--k"):
                    continue
                assert action.help, f"{command} {flag} has no help"
                seen[flag][command] = (action.type, action.default, action.required, action.choices,
                                       action.help)
    assert {flag: len(by_command) for flag, by_command in seen.items()} == shared
    for flag, by_command in seen.items():
        assert len(set(by_command.values())) == 1, f"{flag} differs between {sorted(by_command)}"


def test_help_and_missing_subcommand():
    assert run_cli([]) == 2
    assert run_cli(["--help"]) == 0


def test_negative_seed_exits_2(phi3_file, tmp_path):
    # numpy refuses negative seeds, so every subcommand refuses them as a
    # bad flag, before any output is written
    out = tmp_path / "x.out"
    argvs = [
        ["gen", "--model", "1", "--n", "20", "--k", "3"],
        ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "random"],
        ["place", "--matrix", str(phi3_file), "--budget", "2", "--method", "fmbs"],
        ["bench", "--model", "1", "--n", "20", "--k", "3", "--budgets", "5", "--trials", "1",
         "--methods", "fmbs,random"],
        ["scaling", "--sweep", "m", "--n", "20", "--values", "3", "--repeats", "1"],
    ]
    for argv in argvs:
        assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == 2, argv[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi3.csv"]
