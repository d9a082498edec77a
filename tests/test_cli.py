import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import near_threshold_pair, random_state
from pairdecomp import Decomposition, StateOperator, is_decomposition_of, matcore
from pairdecomp.cli import _parser, load_matrix_file, main


def write_matrix(path, matrix, label=None):
    m = np.asarray(matrix, dtype=complex)
    payload = {
        "dim": m.shape[0],
        "entries": [[z.real, z.imag] for z in m.ravel()],
    }
    if label is not None:
        payload["label"] = label
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pair_files(tmp_path):
    rho = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]), label="mixed")
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.75, 0.25]))
    return rho, omega


@pytest.fixture
def orthogonal_files(tmp_path):
    rho = write_matrix(tmp_path / "rho.json", np.diag([0.6, 0.4, 0.0]))
    omega = write_matrix(tmp_path / "omega.json", np.diag([0.0, 0.0, 1.0]))
    return rho, omega


@pytest.fixture
def sub_threshold_files(tmp_path):
    """rho with an eigenvalue below RANK_TOL * lambda_max but above the noise floor."""
    rho = write_matrix(tmp_path / "rho.json", np.diag([1.0, 1e-12]))
    omega = write_matrix(tmp_path / "omega.json", np.eye(2))
    return rho, omega


SUB_THRESHOLD_REASON = (
    "the constructive pair truncates eigenvalues below RANK_TOL * lambda_max "
    "that the spectrum keeps; ROADMAP direction 3"
)


def vectors_from_payload(rows):
    return Decomposition.from_vectors(
        [[complex(re, im) for re, im in row] for row in rows]
    )


# ---------------------------------------------------------------- parsing

def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "spectrum", str(bad), str(bad))
    assert code == 2
    assert out == ""
    assert "JSON" in err


def test_wrong_entry_count_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
    code, _, err = run_cli(capsys, "spectrum", str(bad), str(bad))
    assert code == 2
    assert "entries" in err


@pytest.mark.parametrize(
    "entry",
    [["a", 0], [None, 0], [True, 0], [0, [1]], [10**400, 0]],
    ids=["string", "null", "bool", "nested", "overflow"],
)
def test_non_numeric_entry_exits_2(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "entries": [entry]}))
    code, out, err = run_cli(capsys, "spectrum", str(bad), str(bad))
    assert code == 2
    assert out == ""
    assert "entr" in err


def test_boolean_dim_exits_2(tmp_path, capsys):
    # a JSON boolean loads as bool, a subclass of int
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": True, "entries": [[1.0, 0.0]]}))
    code, out, err = run_cli(capsys, "spectrum", str(bad), str(bad))
    assert code == 2
    assert out == ""
    assert "dim" in err


def test_loaded_entries_keep_their_bits(tmp_path):
    # signed zeros, integers beyond 2**53, the smallest subnormal and plain ints
    pairs = [
        [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
        [2**53 + 1, -(2**53 + 1)], [2**64 + 3, 1], [5e-324, -5e-324],
        [1, 0], [-7, 3], [0.1, 2**63],
    ]
    path = tmp_path / "bits.json"
    path.write_text(json.dumps({"dim": 3, "entries": pairs}))
    matrix, _ = load_matrix_file(str(path))
    expected = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(3, 3)
    assert matrix.dtype == np.complex128
    assert matrix.tobytes() == expected.tobytes()


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
    assert code == 2


def test_non_psd_exits_3(tmp_path, capsys):
    bad = write_matrix(tmp_path / "neg.json", np.diag([1.0, -0.5]))
    good = write_matrix(tmp_path / "id.json", np.eye(2) / 2)
    code, _, err = run_cli(capsys, "spectrum", bad, good)
    assert code == 3


def test_non_hermitian_exits_3(tmp_path, capsys):
    bad = write_matrix(tmp_path / "nh.json", np.array([[0, 1], [0, 0]]))
    good = write_matrix(tmp_path / "id.json", np.eye(2) / 2)
    code, _, _ = run_cli(capsys, "spectrum", bad, good)
    assert code == 3


@pytest.mark.parametrize("command", ["spectrum", "decompose", "verify", "regularize"])
def test_dimension_mismatch_exits_3(tmp_path, capsys, command):
    a = write_matrix(tmp_path / "a.json", np.eye(2) / 2)
    b = write_matrix(tmp_path / "b.json", np.eye(3) / 3)
    code, out, err = run_cli(capsys, command, a, b)
    assert code == 3
    assert out == ""
    assert "operator dims differ: 2 vs 3" in err


@pytest.mark.parametrize("command", ["decompose", "regularize", "verify"])
def test_near_threshold_pair_exits_3(tmp_path, capsys, command):
    rho, omega = near_threshold_pair()
    paths = (write_matrix(tmp_path / "rho.json", rho), write_matrix(tmp_path / "omega.json", omega))
    code, out, err = run_cli(capsys, command, *paths)
    assert code == 3
    assert out == ""
    assert "support-reduction steps" in err and "RANK_TOL" in err


# ---------------------------------------------------------------- spectrum

def test_spectrum_commuting_values(pair_files, capsys):
    code, out, _ = run_cli(capsys, "spectrum", *pair_files)
    assert code == 0
    results = json.loads(out)["results"]
    np.testing.assert_allclose(
        results["sigma"], [np.sqrt(0.375), np.sqrt(0.125)], atol=1e-12
    )
    assert abs(results["fidelity"] - 0.9659258262890683) <= 1e-12
    assert abs(results["k_fidelity"][1] - np.sqrt(0.125)) <= 1e-12
    assert json.loads(out)["inputs"]["rho"]["label"] == "mixed"


def test_spectrum_normalized_self_pair_gives_one(tmp_path, capsys):
    rng = np.random.default_rng(0)
    tau = random_state(rng, 3)
    path = write_matrix(tmp_path / "tau.json", tau.matrix)
    code, out, _ = run_cli(capsys, "spectrum", path, path)
    assert code == 0
    assert abs(json.loads(out)["results"]["fidelity"] - 1.0) <= 1e-10


# ---------------------------------------------------------------- decompose

def test_decompose_self_pair_residuals(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.75, 0.25]))
    code, out, _ = run_cli(capsys, "decompose", path, path)
    assert code == 0
    results = json.loads(out)["results"]
    for value in results["residuals"].values():
        assert value < 1e-10
    np.testing.assert_allclose(results["values"], [0.75, 0.25], atol=1e-12)


def test_decompose_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    rho_path = write_matrix(tmp_path / "rho.json", rho.matrix)
    omega_path = write_matrix(tmp_path / "omega.json", omega.matrix)
    code, out, _ = run_cli(capsys, "decompose", rho_path, omega_path)
    assert code == 0
    results = json.loads(out)["results"]
    psi = vectors_from_payload(results["psi"])
    phi = vectors_from_payload(results["phi"])
    assert is_decomposition_of(psi, rho)
    assert is_decomposition_of(phi, omega)
    assert results["residuals"]["biorthogonality"] < 1e-8
    for row in results["partial_sums"]:
        assert abs(row["delta"]) < 1e-8
    gauge = results["gauge"]
    assert gauge["working_dim"] == 4


def test_decompose_pure_pair(tmp_path, capsys):
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho_path = write_matrix(tmp_path / "rho.json", np.outer(plus, plus))
    omega_path = write_matrix(tmp_path / "omega.json", np.diag([1.0, 0.0]))
    code, out, _ = run_cli(capsys, "decompose", rho_path, omega_path)
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["values"][0] - 1.0 / np.sqrt(2)) <= 1e-12
    assert abs(results["values"][1]) <= 1e-12


def test_decompose_orthogonal_supports(orthogonal_files, capsys):
    code, out, _ = run_cli(capsys, "decompose", *orthogonal_files)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gauge"] is None
    assert results["values"] == [0.0] * len(results["values"])
    for value in results["residuals"].values():
        assert value <= 1e-9


@pytest.mark.xfail(strict=True, reason=SUB_THRESHOLD_REASON)
def test_decompose_sub_threshold_pair_attains_the_spectrum(sub_threshold_files, capsys):
    code, out, _ = run_cli(capsys, "decompose", *sub_threshold_files)
    assert code == 0
    (row,) = [row for row in json.loads(out)["results"]["partial_sums"] if row["m"] == 2]
    assert abs(row["delta"]) <= 1e-9


# ---------------------------------------------------------------- verify

def test_verify_passes_and_exits_0(pair_files, capsys):
    code, out, _ = run_cli(
        capsys, "verify", *pair_files, "--samples", "50", "--seed", "3"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["violation"] is False
    assert results["attained"] is True
    assert abs(results["best_value"] - results["upper_bound"]) <= 1e-8


@pytest.mark.parametrize("scale", [1e8, 1e12])
def test_verify_attains_correct_pairs_at_large_scale(tmp_path, capsys, scale):
    rng = np.random.default_rng(100)
    for trial in range(10):
        rho = write_matrix(tmp_path / "rho.json", scale * random_state(rng, 3).matrix)
        omega = write_matrix(tmp_path / "omega.json", scale * random_state(rng, 3).matrix)
        code, out, _ = run_cli(capsys, "verify", rho, omega, "--samples", "5")
        results = json.loads(out)["results"]
        assert (code, results["violation"], results["attained"]) == (0, False, True), trial


def test_verify_self_pair_full_size(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.6, 0.4]))
    code, out, _ = run_cli(capsys, "verify", path, path, "--m", "2", "--samples", "20")
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["best_value"] - 1.0) <= 1e-8


def test_verify_orthogonal_pure_states(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([1.0, 0.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([0.0, 1.0]))
    code, out, _ = run_cli(capsys, "verify", a, b, "--m", "1", "--samples", "20")
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["best_value"]) <= 1e-12
    assert abs(results["upper_bound"]) <= 1e-12


@pytest.mark.xfail(strict=True, reason=SUB_THRESHOLD_REASON)
def test_verify_sub_threshold_pair_exits_0(sub_threshold_files, capsys):
    code, _, _ = run_cli(
        capsys, "verify", *sub_threshold_files, "--samples", "30", "--seed", "3"
    )
    assert code == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--m", "-1"), ("--samples", "0"), ("--lengths", "-1 3 --m 0"), ("--seed", "-5")],
)
def test_verify_rejects_out_of_range_flags_with_exit_2(pair_files, capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", *pair_files, flag, *value.split())
    assert code == 2
    assert out == ""
    assert flag.lstrip("-") in err


# ---------------------------------------------------------------- nielsen

def test_nielsen_spectrum_weights(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.75, 0.25]))
    code, out, _ = run_cli(capsys, "nielsen", path, "--weights", "0.75", "0.25")
    assert code == 0
    results = json.loads(out)["results"]
    assert max(results["norm_errors"]) <= 1e-9
    assert results["reconstruction_ok"] is True


def test_nielsen_hand_example(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.75, 0.25]))
    code, out, _ = run_cli(capsys, "nielsen", path, "--weights", "0.5", "0.5")
    assert code == 0
    results = json.loads(out)["results"]
    np.testing.assert_allclose(results["norms_squared"], [0.5, 0.5], atol=1e-9)


def test_nielsen_unmajorized_exits_5(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.5, 0.5]))
    code, out, err = run_cli(capsys, "nielsen", path, "--weights", "0.75", "0.25")
    assert code == 5
    assert out == ""
    assert "prefix: 1" in err


def test_nielsen_nan_weight_exits_5(tmp_path, capsys):
    path = write_matrix(tmp_path / "tau.json", np.diag([0.75, 0.25]))
    code, out, _ = run_cli(capsys, "nielsen", path, "--weights", "nan", "1")
    assert code == 5
    assert out == ""


# ---------------------------------------------------------------- concavity search

@pytest.mark.parametrize("trials", ["0", "-1"])
def test_concavity_search_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(
        capsys, "concavity-search", "--dim", "3", "--m", "1", "--trials", trials
    )
    assert code == 2
    assert out == ""
    assert "trials" in err


def test_concavity_search_full_m_is_concave(capsys):
    code, out, _ = run_cli(
        capsys,
        "concavity-search", "--dim", "3", "--m", "3", "--trials", "25", "--seed", "2",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["concavity"]["defect"] >= -1e-8


def test_concavity_search_rejects_bad_dims(capsys):
    code, _, _ = run_cli(capsys, "concavity-search", "--dim", "1", "--m", "1")
    assert code == 2


def test_concavity_search_rejects_negative_seed(capsys):
    code, out, err = run_cli(
        capsys, "concavity-search", "--dim", "3", "--m", "2", "--seed", "-5"
    )
    assert code == 2
    assert out == ""
    assert "seed" in err


# ---------------------------------------------------------------- regularize

def test_regularize_pd_rows_identical(pair_files, capsys):
    code, out, _ = run_cli(capsys, "regularize", *pair_files)
    assert code == 0
    results = json.loads(out)["results"]
    for row in results["rows"]:
        np.testing.assert_allclose(row["partial_plus"], results["exact"], atol=1e-10)
    assert results["reduction_steps"] == 0


def test_regularize_orthogonal_supports(orthogonal_files, capsys):
    code, out, _ = run_cli(capsys, "regularize", *orthogonal_files)
    assert code == 0
    assert json.loads(out)["results"]["reduction_steps"] is None


def test_regularize_pure_pair_converges(tmp_path, capsys):
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho_path = write_matrix(tmp_path / "rho.json", np.outer(plus, plus))
    omega_path = write_matrix(tmp_path / "omega.json", np.diag([1.0, 0.0]))
    code, out, _ = run_cli(capsys, "regularize", rho_path, omega_path)
    assert code == 0
    results = json.loads(out)["results"]
    deviations = [row["max_deviation"] for row in results["rows"]]
    assert deviations[0] > deviations[1] > deviations[2]
    assert results["extrapolation_error"] <= 1e-4
    assert abs(results["exact"][1] - 1.0 / np.sqrt(2)) <= 1e-10


def test_regularize_rejects_non_decreasing_c(pair_files, capsys):
    code, _, err = run_cli(capsys, "regularize", *pair_files, "--c", "1e-4", "1e-2")
    assert code == 2
    assert "decreasing" in err


def test_regularize_rejects_nan_c(pair_files, capsys):
    code, out, err = run_cli(capsys, "regularize", *pair_files, "--c", "nan")
    assert code == 2
    assert out == ""
    assert "positive" in err


def test_regularize_rejects_infinite_c(pair_files, capsys):
    code, out, err = run_cli(capsys, "regularize", *pair_files, "--c", "inf")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_regularize_exact_is_the_spectrum(tmp_path, capsys):
    # the eigenvalue 1e-12 lies below the rank threshold but above the noise floor
    rho_path = write_matrix(tmp_path / "rho.json", np.diag([1.0, 1e-12]))
    omega_path = write_matrix(tmp_path / "omega.json", np.eye(2) / 2)
    _, out, _ = run_cli(capsys, "spectrum", rho_path, omega_path)
    partial_plus = json.loads(out)["results"]["partial_plus"]
    code, out, _ = run_cli(capsys, "regularize", rho_path, omega_path)
    assert code == 0
    assert json.loads(out)["results"]["exact"] == partial_plus


def test_regularize_spectrum_count_does_not_grow_with_c(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_spectrum(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    original = matcore.psd_spectrum
    monkeypatch.setattr(matcore, "psd_spectrum", counting_spectrum)
    rho_path = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5, 0.0]))
    omega_path = write_matrix(tmp_path / "omega.json", np.diag([0.25, 0.0, 0.75]))
    counts = []
    for c_values in (["1e-2"], ["1e-2", "1e-3", "1e-4", "1e-5"]):
        calls.clear()
        code, _, _ = run_cli(capsys, "regularize", rho_path, omega_path, "--c", *c_values)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------- determinism

def test_reports_are_byte_identical(pair_files, capsys):
    runs = [
        run_cli(capsys, "verify", *pair_files, "--samples", "40", "--seed", "11")
        for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]
    spectra = [run_cli(capsys, "spectrum", *pair_files) for _ in range(2)]
    assert spectra[0][1] == spectra[1][1]


def test_reports_are_byte_identical_across_processes(tmp_path):
    rng = np.random.default_rng(48)
    rho = write_matrix(tmp_path / "rho.json", random_state(rng, 48).matrix)
    omega = write_matrix(tmp_path / "omega.json", random_state(rng, 48, rank=30).matrix)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("spectrum", "decompose"):
        runs = [
            subprocess.run([sys.executable, "-m", "pairdecomp", command, rho, omega],
                           env=env, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# ---------------------------------------------------------------- fixed tolerances

def test_report_tolerances_are_the_library_constants(pair_files, capsys):
    code, out, _ = run_cli(capsys, "decompose", *pair_files)
    assert code == 0
    assert json.loads(out)["tolerances"] == {"rank_tol": 1e-10, "tol": 1e-9}
    code, out, _ = run_cli(capsys, "verify", *pair_files, "--samples", "5", "--seed", "4")
    assert code == 0
    assert json.loads(out)["tolerances"] == {"rank_tol": 1e-10, "seed": 4, "tol": 1e-9}


@pytest.mark.parametrize(
    "command, flag",
    [("decompose", "--rank-tol 1e-2"), ("nielsen", "--tol 1e-3")]
    + [(command, "--seed 1") for command in ("spectrum", "decompose", "nielsen", "regularize")],
)
def test_tolerance_flags_are_rejected(pair_files, capsys, command, flag):
    operands = pair_files if command != "nielsen" else (pair_files[0], "--weights", "1")
    with pytest.raises(SystemExit) as exc:
        main([command, *operands, *flag.split()])
    assert exc.value.code == 2


# ---------------------------------------------------------------- command surface

def test_each_command_declares_exactly_its_operands_and_options():
    (commands,) = [
        action.choices for action in _parser()._actions if action.dest == "command"
    ]
    surface = {
        name: [
            action.dest if not action.option_strings else action.option_strings[0]
            for action in parser._actions
            if action.dest != "help"
        ]
        for name, parser in commands.items()
    }
    assert surface == {
        "spectrum": ["rho", "omega"],
        "decompose": ["rho", "omega"],
        "verify": ["rho", "omega", "--m", "--samples", "--lengths", "--seed"],
        "nielsen": ["tau", "--weights"],
        "concavity-search": ["--dim", "--m", "--trials", "--seed"],
        "regularize": ["rho", "omega", "--c"],
    }
