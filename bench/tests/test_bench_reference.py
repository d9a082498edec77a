"""The factor reference accepts correct CLI reports and rejects wrong ones."""

import json

import numpy as np
import pytest

from bench import reference
from bench.inputs import InputGenerator
from bench.workloads import WORKLOADS, Phase, end_to_end_metrics, run_task
from pairdecomp.cli import main


@pytest.fixture
def gen(tmp_path):
    return InputGenerator(7, str(tmp_path))


def _report(workload, pair):
    elapsed, text, failure = run_task(main, workload.argv(pair))
    assert failure is None
    return text


def _sigma(pair):
    return reference.reference_sigma(pair.rho.factor, pair.omega.factor)


def test_factor_reference_matches_a_known_spectrum():
    # rho = diag(1, 0), omega = diag(1/2, 1/2): sqrt(rho) omega sqrt(rho) = diag(1/2, 0)
    a = np.array([[1.0], [0.0]], dtype=complex)
    c = np.sqrt(0.5) * np.eye(2, dtype=complex)
    assert np.allclose(reference.reference_sigma(a, c), [np.sqrt(0.5), 0.0], atol=1e-15)


@pytest.mark.parametrize("name", ["spectrum", "decompose"])
def test_correct_reports_pass_and_a_perturbed_sigma_fails(gen, name):
    workload = WORKLOADS[name]
    pair = gen.pair("timed", 0, 8, workload.rank)
    text = _report(workload, pair)
    assert workload.check(text, pair) is None

    report = json.loads(text)
    if name == "spectrum":
        report["results"]["sigma"][0] += 1e-6
    else:
        report["results"]["values"][0] += 1e-6
    assert workload.check(json.dumps(report), pair) is not None


def test_decompose_residual_and_delta_are_checked(gen):
    workload = WORKLOADS["decompose"]
    pair = gen.pair("timed", 0, 8, "deficient")
    good = json.loads(_report(workload, pair))
    for path in (("residuals", "psi_reconstruction"), ("partial_sums", 2, "delta")):
        report = json.loads(json.dumps(good))
        node = report["results"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 1e-6
        assert reference.check_decompose(json.dumps(report), _sigma(pair)) is not None


def test_verify_upper_bound_is_checked(gen):
    workload = WORKLOADS["verify"]
    pair = gen.pair("timed", 0, workload.dim, workload.rank)
    report = json.loads(_report(workload, pair))
    assert workload.check(json.dumps(report), pair) is None
    report["results"]["upper_bound"] *= 1.0 + 1e-6
    assert workload.check(json.dumps(report), pair) is not None


def test_nonzero_exit_and_exception_are_failed_tasks():
    def exits_nonzero(argv):
        return 3

    def raises(argv):
        raise RuntimeError("boom")

    def exits_via_argparse(argv):
        raise SystemExit(2)

    phase = Phase()
    for fake in (exits_nonzero, raises, exits_via_argparse):
        elapsed, _, failure = run_task(fake, ["spectrum"])
        assert failure is not None
        phase.record(elapsed, failure, 2.0)
    phase.record(0.001, None, 2.0)
    metrics = end_to_end_metrics(phase, [1.0], 10.0, 50)
    assert (phase.attempted, phase.failed) == (4, 3)
    assert phase.error_rate == 0.75
    assert metrics["pass_rate"] == 0.25
    assert metrics["tasks_per_s"] == pytest.approx(1 / (2.0 * phase.busy_s))


def test_unknown_command_report_fails_the_check(gen):
    pair = gen.pair("timed", 0, 4, "full")
    assert WORKLOADS["spectrum"].check('{"command": "decompose"}', pair) is not None
    assert WORKLOADS["spectrum"].check("not json", pair) is not None


def test_calibration_scales_to_reference_speed_and_restores_gc():
    import gc

    from bench.calibrate import REFERENCE_MS, calibration_ms, scale

    assert gc.isenabled()
    assert calibration_ms() > 0.0
    assert gc.isenabled()
    assert scale(REFERENCE_MS) == 1.0
    assert scale(2 * REFERENCE_MS) == 0.5
