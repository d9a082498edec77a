"""Workloads, the closed-loop task runner and the end-to-end metrics."""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field

from bench import reference
from bench.calibrate import calibration_ms, scale
from bench.inputs import discard

VERIFY_M = 6


@dataclass(frozen=True)
class Workload:
    """One CLI command on one family of seeded inputs.

    ``tail_percentile`` is fixed per workload so that, at the benchmark's
    run length, at least ten timed tasks lie beyond it even when the
    machine runs at two thirds of its usual speed.
    ``traced_tasks`` is the fixed number of tasks the traced run makes.
    """

    name: str
    dim: int
    rank: str
    tail_percentile: int
    traced_tasks: int

    def argv(self, pair) -> list:
        argv = [self.name, pair.rho.path, pair.omega.path]
        if self.name == "verify":
            argv += ["--m", str(VERIFY_M), "--lengths", "6", "12", "--samples", "100",
                     "--seed", str(pair.task_seed)]
        return argv

    def check(self, text: str, pair) -> str | None:
        sigma = reference.reference_sigma(pair.rho.factor, pair.omega.factor)
        if self.name == "spectrum":
            return reference.check_spectrum(text, sigma)
        if self.name == "decompose":
            return reference.check_decompose(text, sigma)
        return reference.check_verify(text, sigma, VERIFY_M)


# Why these three: see bench/README.md and the "why" of each workload in
# BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum", 32, "full", 75, 6),
        Workload("decompose", 16, "deficient", 80, 12),
        Workload("verify", 6, "full", 65, 4),
    )
}


def run_task(main, argv) -> tuple:
    """Call ``main(argv)`` with stdout captured; returns (seconds, report text, failure)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # any escape from the CLI is a failed task
            code = None
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exited with {code}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), failure


@dataclass
class Phase:
    """Latencies and outcomes of the tasks of one phase of a run.

    ``latencies_ms`` are at reference speed (``calibrate.py``),
    ``wall_ms`` as measured; ``busy_s`` is wall time and sets the length
    of a timed phase.
    """

    latencies_ms: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    reasons: list = field(default_factory=list)

    def record(self, seconds: float, failure: str | None, factor: float) -> None:
        self.latencies_ms.append(seconds * 1e3 * factor)
        self.wall_ms.append(seconds * 1e3)
        self.busy_s += seconds
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(failure)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def closed_loop(workload, gen, stream, main, phase, *, seconds=None, count=None,
                on_first=None, tracer=None, summary=None) -> Phase:
    """Run tasks back to back until ``count`` tasks or ``seconds`` of task time.

    Input generation, the calibration kernel and the reference check run
    between tasks, outside the timed span.  ``on_first`` is called just
    before the first task; with a ``tracer``, each task's span summary,
    at reference speed, is added to ``summary``.
    """
    index = 0
    while (count is None or index < count) and (seconds is None or phase.busy_s < seconds):
        pair = gen.pair(stream, index, workload.dim, workload.rank)
        if on_first is not None and index == 0:
            on_first()
        factor = scale(calibration_ms())
        if tracer is not None:
            tracer.begin_task()
        elapsed, text, failure = run_task(main, workload.argv(pair))
        if tracer is not None:
            summary.update(tracer.task_summary(factor))
            summary["tasks"] += 1
        if failure is None:
            failure = workload.check(text, pair)
        phase.record(elapsed, failure, factor)
        discard(pair.rho, pair.omega)
        index += 1
    return phase


def percentile(values, p: float) -> tuple:
    """Nearest-rank percentile; returns (value, number of values beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end_metrics(timed: Phase, setup_times: list, peak_rss_mb: float,
                       tail_percentile: float) -> dict:
    """The end-to-end metrics of one untraced run, times at reference speed.

    Latency percentiles cover every attempted task, failed ones included.
    ``tasks_per_s`` counts passed tasks per second of task time, and
    ``pass_rate`` is 1 - error_rate.
    """
    return {
        "task_p50_ms": statistics.median(timed.latencies_ms),
        "task_tail_ms": percentile(timed.latencies_ms, tail_percentile)[0],
        "tasks_per_s": timed.passed / (sum(timed.latencies_ms) / 1e3),
        "pass_rate": timed.passed / timed.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
