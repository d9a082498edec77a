"""The runtime tracer counts what cProfile counts and leaves nothing behind."""

import cProfile
import importlib
import pstats

import pytest

import pairdecomp
from bench.inputs import InputGenerator
from bench.tracer import ORIGINAL, Tracer, find_wrappers
from bench.workloads import WORKLOADS, run_task
from pairdecomp import cli

# the package namespace binds the name "fidelity" to the function, not the module
fidelity = importlib.import_module("pairdecomp.fidelity")


@pytest.fixture
def decompose_argv(tmp_path):
    pair = InputGenerator(3, str(tmp_path)).pair("timed", 0, 16, "deficient")
    return WORKLOADS["decompose"].argv(pair)


def _traced_counts(argv):
    tracer = Tracer(pairdecomp)
    tracer.install()
    try:
        tracer.begin_task()
        _, _, failure = run_task(cli.main, argv)
        summary = tracer.task_summary()
    finally:
        tracer.uninstall()
    assert failure is None
    return tracer, summary


def _code_key(func):
    code = func.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def test_call_counts_match_cprofile(decompose_argv):
    profiler = cProfile.Profile()
    profiler.enable()
    _, _, failure = run_task(cli.main, decompose_argv)
    profiler.disable()
    assert failure is None
    stats = pstats.Stats(profiler).stats  # key -> (cc, nc, tt, ct, callers)

    tracer, summary = _traced_counts(decompose_argv)
    assert len(tracer.originals) > 40
    for name, func in tracer.originals.items():
        profiled = stats.get(_code_key(func), (0, 0))[1]
        assert summary["calls:" + name] == profiled, name
    assert summary["calls:matcore.hermitian_eig"] > 0
    assert summary["calls:optimal.support_reduction"] == 2


def test_wrappers_bind_every_namespace_and_are_removed(decompose_argv):
    assert find_wrappers(pairdecomp) == []
    original = fidelity.fidelity_spectrum
    tracer = Tracer(pairdecomp)
    tracer.install()
    try:
        wrapped = cli.fidelity_spectrum
        assert getattr(wrapped, ORIGINAL) is original
        assert fidelity.fidelity_spectrum is wrapped
        assert pairdecomp.fidelity_spectrum is wrapped
        assert "pairdecomp.cli.fidelity_spectrum" in find_wrappers(pairdecomp)
        assert "pairdecomp.states.StateOperator.from_matrix" in find_wrappers(pairdecomp)
        assert "numpy.linalg.svd" in find_wrappers(pairdecomp)
    finally:
        tracer.uninstall()
    assert find_wrappers(pairdecomp) == []
    assert cli.fidelity_spectrum is original


def test_counters_repeat_exactly(decompose_argv):
    counts = []
    for _ in range(2):
        _, summary = _traced_counts(decompose_argv)
        counts.append({k: v for k, v in summary.items() if not k.startswith(("ms:", "self_ms:"))})
    assert counts[0] == counts[1]
    assert counts[0]["eig_calls"] >= counts[0]["calls:matcore.hermitian_eig"]
    assert 0 < counts[0]["eig_repeats"] < counts[0]["eig_calls"]
