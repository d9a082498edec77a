"""Closed-loop benchmark of the pairdecomp command line.

    python3 bench/run.py --workload {spectrum,decompose,verify,all} \
        --seed N --seconds S --trace {0,1}

One client calls ``pairdecomp.cli.main(argv)`` in this process, one task
after the other, with BLAS pinned to one thread.  Every task gets a
fresh seeded input pair (``bench/inputs.py``); warm-up inputs come from
their own stream.  Each report is checked against the factor reference
(``bench/reference.py``) outside the timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same untraced phase, then a fixed number of traced tasks with wrappers
from ``bench/tracer.py``, one traced call each of the ``nielsen``,
``regularize`` and ``concavity-search`` commands, and an untraced size
sweep; it prints the per-layer metrics.  ``--workload all`` runs the
three workloads one after the other, each in its own process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment, the
metrics, the counters and any failure reasons go to
``.bench_out/<workload>-seed<N>-trace<T>.json`` at the repository root,
and the spans of a traced run to ``...-spans.json`` beside it.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from bench import reference  # noqa: E402
from bench.calibrate import calibration_ms, scale  # noqa: E402
from bench.inputs import InputGenerator, discard, operator_matrix  # noqa: E402
from bench.tracer import Tracer, find_wrappers, layer_metrics  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Phase,
    closed_loop,
    end_to_end_metrics,
    percentile,
    run_task,
)

WARMUP_TASKS = 2
SETUP_PROBES = 2  # extra fresh processes; setup_s is the median of 1 + SETUP_PROBES setups
PROBE_TIMEOUT_S = 150
SWEEP_DIMS = (2, 4, 8, 16, 32, 64, 128)
SWEEP_PAIR_MAX_DIM = 64
SWEEP_MIN_S = 0.2  # small sizes repeat, on fresh inputs, until this much time is measured
SWEEP_MAX_REPS = 25


def setup_sample(warm: Phase) -> list:
    """[wall seconds since the first line of this file, the same at reference speed].

    The scale is the median over the calibrations made before each
    warm-up task and three made now.
    """
    wall = time.perf_counter() - _T0
    factors = [s / w for s, w in zip(warm.latencies_ms, warm.wall_ms)]
    factors += [scale(calibration_ms()) for _ in range(3)]
    return [wall, wall * statistics.median(factors)]


def setup_probes(args) -> list:
    """Setup samples of SETUP_PROBES fresh processes making this run's setup."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-400:]}")
        times.append(json.loads(lines[-1])["setup"])
    return times


def run_sweep(gen, phase: Phase) -> dict:
    """Median time of psd_sqrt, fidelity_spectrum and optimal_pair_general per size."""
    from pairdecomp import StateOperator, fidelity_spectrum, optimal_pair_general, psd_sqrt

    def partial_error(pair, cumulative):
        sigma = reference.reference_sigma(pair.rho.factor, pair.omega.factor)
        err = float(np.max(np.abs(cumulative - np.cumsum(sigma))))
        if err > reference.TOL * max(1.0, sigma.sum()):
            return f"partial sums differ by {err:.3e} at d={pair.dim}"
        return None

    def psd_sqrt_case(pair):
        rho = operator_matrix(pair.rho.factor)
        start = time.perf_counter()
        root = psd_sqrt(rho)
        elapsed = time.perf_counter() - start
        err = np.linalg.norm(root @ root - rho)
        if err > reference.TOL * max(1.0, np.linalg.norm(rho)):
            return elapsed, f"psd_sqrt residual {err:.3e} at d={pair.dim}"
        return elapsed, None

    # StateOperator(...) skips validation, so only the library call is timed
    def spectrum_case(pair):
        rho, omega = (StateOperator(operator_matrix(op.factor)) for op in (pair.rho, pair.omega))
        start = time.perf_counter()
        profile = fidelity_spectrum(rho, omega)
        elapsed = time.perf_counter() - start
        return elapsed, partial_error(pair, profile.cumulative[1:])

    def pair_general_case(pair):
        rho, omega = (StateOperator(operator_matrix(op.factor)) for op in (pair.rho, pair.omega))
        start = time.perf_counter()
        opt = optimal_pair_general(rho, omega)
        elapsed = time.perf_counter() - start
        return elapsed, partial_error(pair, np.cumsum(opt.values[: pair.dim]))

    cases = [("psd_sqrt_ms", "full", psd_sqrt_case, SWEEP_DIMS),
             ("spectrum_ms", "full", spectrum_case, SWEEP_DIMS),
             ("pair_general_ms", "half", pair_general_case,
              [d for d in SWEEP_DIMS if d <= SWEEP_PAIR_MAX_DIM])]
    index = 0
    metrics = {}
    for label, rank, case, dims in cases:
        for dim in dims:
            start = len(phase.wall_ms)
            while True:
                pair = gen.pair("sweep", index, dim, rank)
                index += 1
                factor = scale(calibration_ms())
                elapsed, failure = case(pair)
                discard(pair.rho, pair.omega)
                phase.record(elapsed, failure, factor)
                measured = phase.wall_ms[start:]
                if sum(measured) >= SWEEP_MIN_S * 1e3 or len(measured) >= SWEEP_MAX_REPS:
                    break
            metrics[f"sweep.{label}.d{dim}"] = statistics.median(phase.latencies_ms[start:])
    return metrics


def run_single_commands(gen, main, tracer, seed: int, phase: Phase) -> dict:
    """One traced call each of the commands that no workload covers."""
    tau = gen.operator("single", 0, 4)
    pair = gen.pair("single", 1, 4, "deficient")
    partial = reference.reference_partial(
        reference.reference_sigma(pair.rho.factor, pair.omega.factor))
    calls = {
        "nielsen": (
            ["nielsen", tau.path, "--weights", "0.25", "0.25", "0.25", "0.25"],
            lambda res: res["reconstruction_ok"] and max(res["norm_errors"]) <= reference.TOL,
        ),
        "regularize": (
            ["regularize", pair.rho.path, pair.omega.path],
            lambda res: max(abs(x - y) for x, y in zip(res["exact"], partial)) <= reference.TOL,
        ),
        "concavity-search": (
            ["concavity-search", "--dim", "4", "--m", "4", "--trials", "3", "--seed", str(seed)],
            lambda res: res["concavity"]["defect"] >= -reference.TOL,
        ),
    }
    out = {}
    for name, (argv, ok) in calls.items():
        factor = scale(calibration_ms())
        tracer.begin_task()
        elapsed, text, failure = run_task(main, argv)
        summary = tracer.task_summary(factor)
        if failure is None and not ok(json.loads(text)["results"]):
            failure = f"{name} report failed its check"
        phase.record(elapsed, failure, factor)
        out[name] = {
            "ms": phase.latencies_ms[-1],
            "self_ms": {k.split(":", 1)[1]: v for k, v in summary.items() if k.startswith("self_ms:")},
        }
    discard(tau, pair.rho, pair.omega)
    return out


def _blas_threads():
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pairdecomp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    """What the results depend on besides the code: recorded next to them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def _write(name: str, payload) -> None:
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def traced_metrics(workload, gen, args, untraced_task_ms: float, phase: Phase,
                   record: dict) -> dict:
    """Per-layer metrics: traced tasks, one traced call of each other command, the sweep."""
    import pairdecomp
    from pairdecomp import cli

    tracer = Tracer(pairdecomp)
    summary = Counter()
    tracer.install()
    try:
        closed_loop(workload, gen, "traced", cli.main, phase, count=workload.traced_tasks,
                    tracer=tracer, summary=summary)
        record["single_commands"] = run_single_commands(gen, cli.main, tracer, args.seed, phase)
        tracer.begin_task()  # archives the spans of the last call
    finally:
        tracer.uninstall()
    if find_wrappers(pairdecomp):
        raise RuntimeError("the tracer left wrappers installed")
    record["counters"] = {k: v for k, v in sorted(summary.items())
                          if not k.startswith(("ms:", "self_ms:"))}
    _write(f"{workload.name}-seed{args.seed}-spans.json", tracer.archive)
    metrics = layer_metrics(summary, summary["tasks"], untraced_task_ms)
    metrics.update(run_sweep(gen, phase))
    return metrics


def run_workload(args) -> int:
    import pairdecomp
    from pairdecomp import cli

    if os.path.dirname(os.path.abspath(pairdecomp.__file__)) != os.path.join(SRC, "pairdecomp"):
        print(f"bench: pairdecomp resolved to {pairdecomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    gen = InputGenerator(args.seed, workdir)
    try:
        warm = closed_loop(workload, gen, "warmup", cli.main, Phase(), count=WARMUP_TASKS)
        if args.setup_only:
            gen.pair("timed", 0, workload.dim, workload.rank)
            print(json.dumps({"setup": setup_sample(warm)}))
            return 0
        if find_wrappers(pairdecomp):
            raise RuntimeError("the untraced phase would run with tracer wrappers installed")
        setup = []
        timed = closed_loop(workload, gen, "timed", cli.main, Phase(), seconds=args.seconds,
                            on_first=lambda: setup.append(setup_sample(warm)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [warm, timed]
        record = {"env": environment(args), "warmup_tasks": warm.attempted,
                  "timed_tasks": timed.attempted, "error_rate": timed.error_rate}
        if args.trace:
            phases.append(Phase())
            metrics = traced_metrics(workload, gen, args, statistics.fmean(timed.latencies_ms),
                                     phases[-1], record)
        else:
            setup += setup_probes(args)
            metrics = end_to_end_metrics(timed, [s[1] for s in setup], peak_rss_mb,
                                         workload.tail_percentile)
            _, beyond = percentile(timed.latencies_ms, workload.tail_percentile)
            record.update(
                setup_samples_s=setup, tail_percentile=workload.tail_percentile,
                tasks_beyond_tail=beyond,
                wall={"task_p50_ms": statistics.median(timed.wall_ms),
                      "task_tail_ms": percentile(timed.wall_ms, workload.tail_percentile)[0],
                      "tasks_per_s": timed.passed / timed.busy_s,
                      "setup_s": statistics.median(s[0] for s in setup)},
            )
            print(
                f"{workload.name}: {timed.attempted} tasks in {timed.busy_s:.1f} s; "
                f"task_p50_ms={metrics['task_p50_ms']:.2f} ms "
                f"(wall {record['wall']['task_p50_ms']:.2f} ms), "
                f"task_tail_ms={metrics['task_tail_ms']:.2f} ms "
                f"(p{workload.tail_percentile}, {beyond} tasks beyond), "
                f"tasks_per_s={metrics['tasks_per_s']:.3f} 1/s, "
                f"error_rate={timed.failed}/{timed.attempted}={timed.error_rate:.4f}, "
                f"setup_s={metrics['setup_s']:.3f} s, peak_rss_mb={peak_rss_mb:.1f} MB"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record["metrics"] = metrics
    record["failures"] = [r for p in phases for r in p.reasons]
    _write(f"{stem}.json", record)
    for reason in record["failures"]:
        print(f"bench: failed task: {reason}", file=sys.stderr)
    print(json.dumps(_result(failed == 0, attempted, failed, metrics)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their summaries and a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first timed task and print the setup time")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pairdecomp", "cli.py")):
        print(f"bench: no pairdecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
