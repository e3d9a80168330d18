"""fmbs benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Workloads (shapes N/K/M, model 1, mu = 1e-4; reasons in BENCHMARK.json):
deep 10000/100/300, wide 5000/500/500, sweep (the README ``fmbs bench`` as a
fresh process) and oracle 500/20/60 (fmbs plus greedy-direct).

A run sets up from the seed several times (input generation and matrix
file writes; setup_s is the median round), makes one untimed warm-up
iteration, then repeats the workload's operations until --seconds have
passed, at least three times, cycling over the first three rounds' inputs,
and checks every output.  With --trace 0 it reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 it alternates untraced and traced
iterations, runs every command-line call in-process, and reports the
per-layer metrics from spans recorded around the calls into each fmbs
module.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs, outputs and the full
record of the run (environment, every iteration, every span) are written
under perfbench/out/.

BLAS threads are read, never set: the program runs the way users run it.
FMBS_THREADS is removed from the environment so that bench stays serial.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
# setup_s is the median of SETUP_ROUNDS set-up rounds; iterations cycle
# over the inputs of the first INPUT_ROUNDS of them.
SETUP_ROUNDS = 40
INPUT_ROUNDS = 3
MIN_ITERATIONS = 3
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FMBS_THREADS")


def import_program():
    """Import fmbs from the checkout's src/, or stop if there is none."""
    if not os.path.isfile(os.path.join(SRC, "fmbs", "__init__.py")):
        sys.exit(f"error: no fmbs sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import fmbs

    if os.path.dirname(os.path.dirname(os.path.abspath(fmbs.__file__))) != SRC:
        sys.exit(f"error: imported fmbs from {fmbs.__file__}, not from {SRC}")


def child_env():
    env = dict(os.environ)
    env.pop("FMBS_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_cli(argv):
    """Exit code of ``python -m fmbs <argv>`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "fmbs", *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def inprocess_cli(argv):
    """Exit code of fmbs.cli.main(argv), with its progress lines discarded."""
    import fmbs.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return fmbs.cli.main(argv)
        except SystemExit as exc:
            return exc.code


def fresh_start_s():
    """Medians of a bare interpreter start and of ``import fmbs.cli`` in one."""
    bare, full = [], []
    for _ in range(PROBE_REPEATS):
        for code, dest in (("pass", bare), ("import fmbs.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True, timeout=CHILD_TIMEOUT_S)
            dest.append(time.perf_counter() - start)
    return statistics.median(bare), statistics.median(full)


def blas_libraries():
    """OpenBLAS builds loaded in this process, with the thread count in effect."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and ".so" in path:
                    paths.add(path)
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        libs.append(info)
    return libs


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "fmbs")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(args, initial_thread_vars):
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "blas": blas_libraries(),
        "thread_env": initial_thread_vars,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_iterations(workload, api, inputs, seconds, tracer, place):
    """Repeat the operations for `seconds`, at least MIN_ITERATIONS times.

    Under a tracer every second iteration is traced.  Each iteration's
    outputs go through the workload's gates; an exception or a failed gate
    marks the iteration failed.
    """
    iterations = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        record = {"index": index, "traced": traced, "round": index % len(inputs), "times": {}}
        inp = inputs[record["round"]]
        outputs = {}
        try:
            with tracer.patched(api) if traced else contextlib.nullcontext():
                if traced:
                    tracer.iteration = index
                for metric, op in workload.ops(api, inp, place):
                    t0 = time.perf_counter()
                    outputs[metric] = op()
                    record["times"].setdefault(metric, []).append(time.perf_counter() - t0)
            record.update(workload.check(inp, outputs))
            record["ok"] = True
        except Exception as exc:  # a failure of the program or of a gate is a result
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
            print(f"iteration {index} failed: {record['error']}", file=sys.stderr)
        iterations.append(record)
    return iterations


def median_time(iterations, metric):
    values = [t for it in iterations for t in it["times"].get(metric, [])]
    return statistics.median(values) if values else 0.0


def iteration_time(iteration):
    return sum(sum(times) for times in iteration["times"].values())


def end_to_end_metrics(workload, iterations, setup_times):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "wall_s": median_time(iterations, "wall_s"),
        "place_s": median_time(iterations, "place_s"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def layer_metrics(spans, iterations, alloc_peak_bytes, fresh_start):
    from tracing import self_times

    traced = [it for it in iterations if it["traced"]]
    ids = {it["index"] for it in traced}
    count = max(len(traced), 1)
    calls = defaultdict(int)
    dur = defaultdict(int)
    own = defaultdict(int)
    notes = defaultdict(list)
    setup_generate = defaultdict(int)
    top = 0
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, parent, iteration, note = span
        if name == "matgen.generate" and str(iteration).startswith("setup-"):
            setup_generate[iteration] += end - start
        if iteration not in ids:
            continue
        calls[name] += 1
        dur[name] += end - start
        own[name.split(".")[0]] += self_ns
        if note is not None:
            notes[name].append(note)
        if parent < 0:
            top += end - start

    le_k = gt_k = 0
    fmbs_steps = []
    for note in notes["placement.fmbs_select"]:
        le_k += sum(note["step_times_ns"][: note["k"]])
        gt_k += sum(note["step_times_ns"][note["k"]:])
        fmbs_steps.extend(note["step_times_ns"])
    greedy_steps = sum(len(note["step_times_ns"]) for name in
                       ("placement.fmbs_select", "placement.direct_greedy_select")
                       for note in notes[name])
    sides = notes["linalg.trace_inverse"]
    wall = sum(iteration_time(it) for it in traced)
    untraced_wall = statistics.median(
        [iteration_time(it) for it in iterations if not it["traced"]] or [0.0])
    traced_wall = statistics.median([iteration_time(it) for it in traced] or [0.0])
    interp_s, import_total_s = fresh_start
    per = 1e-9 / count
    return {
        "placement.select_s": (dur["placement.fmbs_select"] + dur["placement.random_select"]) * per,
        "placement.steps": greedy_steps / count,
        "placement.step_s_le_k": le_k * per,
        "placement.step_s_gt_k": gt_k * per,
        "placement.step_ms_p50": statistics.median(fmbs_steps) / 1e6 if fmbs_steps else 0.0,
        "placement.alloc_peak_mb": alloc_peak_bytes / 2**20,
        "placement.objective_rel_err": max(
            (it["objective_rel_err"] for it in iterations if it["ok"]), default=0.0),
        "placement.direct_s": dur["placement.direct_greedy_select"] * per,
        "placement.tie_split_ratio": sum(
            it.get("tie_split") is not None for it in iterations) / len(iterations),
        "placement.self_s": own["placement"] * per,
        "linalg.trace_inverse_calls": calls["linalg.trace_inverse"] / count,
        "linalg.trace_inverse_s": dur["linalg.trace_inverse"] * per,
        "linalg.trace_inverse_side_mean": sum(sides) / len(sides) if sides else 0.0,
        "inverse.expected_mse_calls": calls["inverse.expected_mse"] / count,
        "inverse.expected_mse_s": dur["inverse.expected_mse"] * per,
        "inverse.self_s": own["inverse"] * per,
        "matgen.generate_s": statistics.median(setup_generate.values()) * 1e-9 if setup_generate else 0.0,
        "matgen.self_s": own["matgen"] * per,
        "matio.load_s": dur["matio.load_matrix"] * per,
        "matio.bytes": sum(notes["matio.load_matrix"]) / count,
        "cli.import_s": import_total_s - interp_s,
        "cli.interp_s": interp_s,
        "cli.self_s": own["cli"] * per,
        "trace.wall_s": wall / count,
        "trace.untraced_s": (wall - top * 1e-9) / count,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="fmbs benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    initial_thread_vars = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.pop("FMBS_THREADS", None)
    import_program()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    # the units printed are the ones BENCHMARK.json declares for this mode
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    import fmbs.placement
    import fmbs.matgen
    from tracing import Tracer
    from workloads import WORKLOADS, Api, MU

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args, initial_thread_vars)
    over = [lib for lib in env["blas"] if lib.get("threads", 0) > env["nproc"]]
    if over:
        print(f"warning: BLAS runs more threads than nproc={env['nproc']}: {over}", file=sys.stderr)

    tracer = Tracer() if args.trace else None
    api = Api(
        fmbs.placement.fmbs_select,
        fmbs.placement.direct_greedy_select,
        fmbs.matgen.generate,
        inprocess_cli if args.trace else fresh_cli,
    )
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs, setup_times = [], []
        with tracer.patched(api) if tracer else contextlib.nullcontext():
            for rnd in range(SETUP_ROUNDS):
                if tracer:
                    tracer.iteration = f"setup-{rnd}"
                start = time.perf_counter()
                round_inputs = workload.setup(api, args.seed, rnd, workdir)
                setup_times.append(time.perf_counter() - start)
                if rnd < INPUT_ROUNDS:
                    inputs.append(round_inputs)
            if tracer:
                tracer.iteration = "warm-up"
            start = time.perf_counter()
            workload.warm_up(api, inputs[0], tracer is None)
            warm_up_s = time.perf_counter() - start

        iterations = run_iterations(workload, api, inputs, args.seconds, tracer, tracer is None)
        if tracer:
            phi, m = workload.alloc_probe(inputs[0])
            tracemalloc.start()
            try:
                api.fmbs_select(phi, m, MU)
                alloc_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            metrics = layer_metrics(tracer.spans, iterations, alloc_peak, fresh_start_s())
        else:
            metrics = end_to_end_metrics(workload, iterations, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared):
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    failed = sum(not it["ok"] for it in iterations)
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]} for name in declared},
    }
    record = {"env": env, "setup_rounds_s": setup_times, "warm_up_s": warm_up_s,
              "iterations": iterations, "result": result}
    if tracer:
        record["spans"] = tracer.spans
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(iterations)} iterations, {failed} failed; "
          f"record in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
