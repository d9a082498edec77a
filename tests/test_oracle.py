import itertools

import numpy as np
import pytest

from conftest import random_complex, random_psd_matrix, random_state, random_unit_vector
from pairdecomp import matcore, oracle
from pairdecomp import (
    Decomposition,
    MTooLargeError,
    OptimalPair,
    StateOperator,
    fidelity_spectrum,
    hermitian_eig,
    matching_value,
    max_weight_matching_value,
    optimal_pair_general,
    pad_to_length,
    random_decomposition,
    random_search,
    spectral_decomposition,
)


def brute_force_matching(weights, m):
    """Exhaustive oracle: try every ordered selection of m rows and columns."""
    n_rows, n_cols = weights.shape
    best = 0.0
    for rows in itertools.combinations(range(n_rows), m):
        for cols in itertools.permutations(range(n_cols), m):
            best = max(best, sum(weights[r, c] for r, c in zip(rows, cols)))
    return best


# ---------------------------------------------------------------- matching

def test_matching_identity_pairs():
    rng = np.random.default_rng(0)
    tau = random_state(rng, 4, normalize=False)
    deco = spectral_decomposition(tau)
    lam = hermitian_eig(tau.matrix).eigenvalues
    value = matching_value(deco, deco, 4)
    assert abs(value - np.sum(lam)) <= 1e-10


def test_matching_single_pair_is_max_entry():
    rng = np.random.default_rng(1)
    first = Decomposition(random_complex(rng, (3, 4)))
    second = Decomposition(random_complex(rng, (5, 4)))
    table = np.abs(first.vectors.conj() @ second.vectors.T)
    assert abs(matching_value(first, second, 1) - np.max(table)) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_matching_agrees_with_exhaustive_enumeration(seed, m):
    rng = np.random.default_rng(10 + seed)
    weights = rng.uniform(0.0, 1.0, size=(4, 4))
    assert abs(max_weight_matching_value(weights, m) - brute_force_matching(weights, m)) <= 1e-12


def test_matching_agrees_with_exhaustive_enumeration_at_tiny_scale():
    rng = np.random.default_rng(20)
    for _ in range(50):
        weights = rng.uniform(0.0, 1.0, size=(4, 4))
        exact = brute_force_matching(weights, 3)
        assert abs(max_weight_matching_value(1e-20 * weights, 3) / 1e-20 - exact) <= 1e-12


def edge_case_weights(draws):
    """Tall and wide shapes up to 5 x 6: uniform, tied (halves) and zero-line weights."""
    rng = np.random.default_rng(21)
    for shape in [(1, 1), (1, 6), (6, 1), (2, 5), (5, 2), (3, 4), (4, 3), (5, 5), (5, 6), (6, 5)]:
        for _ in range(draws):
            uniform = rng.uniform(0.0, 1.0, size=shape)
            halves = np.round(2.0 * uniform) / 2.0
            zero_lines = uniform.copy()
            zero_lines[0, :] = 0.0
            zero_lines[:, -1] = 0.0
            yield from (uniform, halves, zero_lines)


def test_matching_agrees_with_exhaustive_enumeration_on_edge_cases():
    for weights in edge_case_weights(draws=12):
        for m in range(min(weights.shape) + 1):
            exact = brute_force_matching(weights, m)
            for scale in (1e-20, 1.0, 1e20):
                value = max_weight_matching_value(scale * weights, m)
                assert abs(value / scale - exact) <= 1e-12, (scale, m, weights)


def test_matching_rectangular():
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.0, 1.0, size=(3, 5))
    for m in (1, 2, 3):
        assert abs(max_weight_matching_value(weights, m) - brute_force_matching(weights, m)) <= 1e-12


def test_matching_beats_greedy_counterexample():
    # greedy top entry (0.9) forbids the optimal disjoint pairing 0.8 + 0.8
    weights = np.array([[0.9, 0.8], [0.8, 0.0]])
    assert abs(max_weight_matching_value(weights, 2) - 1.6) <= 1e-12


def test_matching_dominates_index_pairing():
    rng = np.random.default_rng(3)
    tau = random_state(rng, 4, normalize=False)
    first = Decomposition(random_complex(rng, (4, 4)))
    second = Decomposition(random_complex(rng, (4, 4)))
    diag = np.abs(np.sum(first.vectors.conj() * second.vectors, axis=1))
    for m in range(1, 5):
        assert matching_value(first, second, m) >= np.sum(diag[:m]) - 1e-12


def test_matching_rejects_oversized_m():
    deco = Decomposition.from_vectors([[1, 0], [0, 1]])
    with pytest.raises(MTooLargeError):
        matching_value(deco, deco, 3)


# ---------------------------------------------------------------- random search

def test_search_self_pair_attains_top_eigenvalue_sum():
    rng = np.random.default_rng(4)
    tau = random_state(rng, 3, normalize=False)
    lam = hermitian_eig(tau.matrix).eigenvalues
    for m in (1, 2, 3):
        report = random_search(tau, tau, m, (3, 3), samples=30, seed=5)
        assert not report.violation
        assert abs(report.best_value - np.sum(lam[:m])) <= 1e-8


def test_search_pure_pair():
    rng = np.random.default_rng(5)
    a = random_unit_vector(rng, 3)
    b = random_unit_vector(rng, 3)
    rho = StateOperator.from_matrix(np.outer(a, a.conj()))
    omega = StateOperator.from_matrix(np.outer(b, b.conj()))
    overlap = abs(np.vdot(a, b))
    for m in (1, 2):
        report = random_search(rho, omega, m, (2, 2), samples=40, seed=6)
        assert not report.violation
        assert abs(report.best_value - overlap) <= 1e-8
        assert abs(report.upper_bound - overlap) <= 1e-12


def test_search_never_violates_and_attains():
    rng = np.random.default_rng(6)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    report = random_search(rho, omega, 2, (3, 4), samples=200, seed=7)
    expected = fidelity_spectrum(rho, omega).partial(2)
    assert not report.violation
    assert report.best_value <= expected + 1e-8
    assert report.best_value >= expected - 1e-8
    assert report.samples == 200


def test_search_is_deterministic():
    rng = np.random.default_rng(7)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    first = random_search(rho, omega, 2, (3, 3), samples=50, seed=9)
    second = random_search(rho, omega, 2, (3, 3), samples=50, seed=9)
    assert first == second


def test_search_decomposes_each_operator_once(monkeypatch):
    calls = []

    def counting_spectrum(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    original = matcore.psd_spectrum
    monkeypatch.setattr(matcore, "psd_spectrum", counting_spectrum)
    rng = np.random.default_rng(10)
    rho_matrix = random_psd_matrix(rng, 4, rank=2)
    omega_matrix = random_psd_matrix(rng, 4, rank=3)
    counts = []
    for samples in (5, 50):
        # fresh operators: every spectrum is computed inside the search
        rho, omega = StateOperator(rho_matrix), StateOperator(omega_matrix)
        calls.clear()
        random_search(rho, omega, 2, (4, 4), samples=samples, seed=3)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_search_of_one_sample_scores_the_constructive_optimum():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3, rank=2)
    m = 2
    report = random_search(rho, omega, m, (3, 3), samples=1, seed=4)
    exact = optimal_pair_general(rho, omega)
    psi, phi = (pad_to_length(deco, max(deco.length, m)) for deco in (exact.psi, exact.phi))
    assert report.best_seed == 4
    assert report.attained
    assert report.best_value == matching_value(psi, phi, m)


def test_search_best_seed_redraws_the_best_sample(monkeypatch):
    rng = np.random.default_rng(12)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    zero = Decomposition(np.zeros((3, 3), dtype=complex))
    # an optimum that scores 0 loses to every random sample
    monkeypatch.setattr(
        oracle, "optimal_pair_general", lambda *_: OptimalPair(zero, zero, np.zeros(3))
    )
    seed, samples, lengths = 20, 15, (3, 4)
    report = random_search(rho, omega, 2, lengths, samples=samples, seed=seed)
    assert seed < report.best_seed < seed + samples
    psi = random_decomposition(rho, lengths[0], report.best_seed)
    phi = random_decomposition(omega, lengths[1], report.best_seed + samples)
    assert matching_value(psi, phi, 2) == report.best_value


def test_search_requires_samples():
    rng = np.random.default_rng(8)
    rho = random_state(rng, 2)
    with pytest.raises(ValueError):
        random_search(rho, rho, 1, (2, 2), samples=0, seed=0)
