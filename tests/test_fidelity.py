import numpy as np
import pytest

from conftest import random_invertible, random_singular, random_state, random_unit_vector
from pairdecomp import (
    DimensionMismatchError,
    NotPSDError,
    StateOperator,
    fidelity,
    fidelity_spectrum,
    k_fidelity,
    mix,
    partial_fidelity_plus,
)


def diag_state(*values):
    return StateOperator.from_matrix(np.diag(values).astype(complex))


def pure_state(vector):
    v = np.asarray(vector, dtype=complex)
    return StateOperator.from_matrix(np.outer(v, v.conj()))


def test_plain_arrays_give_the_state_operator_bits():
    rng = np.random.default_rng(21)
    rho, omega = random_state(rng, 4), random_state(rng, 4, rank=2)
    from_arrays = fidelity_spectrum(rho.matrix.copy(), omega.matrix.copy())
    from_states = fidelity_spectrum(rho, omega)
    assert from_arrays.sigma.tobytes() == from_states.sigma.tobytes()


def test_plain_non_psd_array_is_rejected():
    with pytest.raises(NotPSDError):
        fidelity_spectrum(np.diag([1.0, -0.5]).astype(complex), np.eye(2))


def test_self_pair_spectrum_is_the_spectrum():
    # (1, 1e-8): a small value keeps its relative precision, it is not pinned to 0
    for values in ([0.75, 0.25], [1.0, 1e-8]):
        tau = diag_state(*values)
        profile = fidelity_spectrum(tau, tau)
        np.testing.assert_allclose(profile.sigma, values, atol=1e-12)


def test_commuting_closed_form():
    # commuting operators: spectrum entries are sqrt(r_i w_i)
    profile = fidelity_spectrum(diag_state(0.5, 0.5), diag_state(0.75, 0.25))
    np.testing.assert_allclose(
        profile.sigma, [np.sqrt(0.375), np.sqrt(0.125)], atol=1e-12
    )
    assert abs(profile.partial(2) - (np.sqrt(0.375) + np.sqrt(0.125))) <= 1e-12
    assert abs(profile.partial(2) - 0.9659258262890683) <= 1e-12


def test_pure_state_overlap():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    profile = fidelity_spectrum(pure_state([1.0, 0.0]), pure_state(plus))
    np.testing.assert_allclose(profile.sigma, [1.0 / np.sqrt(2), 0.0], atol=1e-12)
    assert abs(profile.fidelity - 1.0 / np.sqrt(2)) <= 1e-12


def test_partial_fidelity_conventions():
    rng = np.random.default_rng(0)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    assert partial_fidelity_plus(rho, omega, 0) == 0.0
    full = fidelity(rho, omega)
    assert abs(partial_fidelity_plus(rho, omega, 3) - full) <= 1e-14
    assert abs(partial_fidelity_plus(rho, omega, 17) - full) <= 1e-14
    assert abs(partial_fidelity_plus(diag_state(0.5, 0.5), diag_state(0.75, 0.25), 1)
               - np.sqrt(0.375)) <= 1e-12


def test_k_fidelity_conventions():
    rng = np.random.default_rng(1)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    assert abs(k_fidelity(rho, omega, 0) - fidelity(rho, omega)) <= 1e-14
    assert abs(k_fidelity(rho, omega, 3)) <= 1e-14
    assert abs(k_fidelity(rho, omega, 9)) <= 1e-14
    assert abs(k_fidelity(diag_state(0.5, 0.5), diag_state(0.75, 0.25), 1)
               - np.sqrt(0.125)) <= 1e-12


def test_self_fidelity_is_trace():
    rng = np.random.default_rng(2)
    tau = random_state(rng, 4, normalize=False)
    assert abs(fidelity(tau, tau) - tau.trace) <= 1e-12 * max(1.0, tau.trace)


def test_orthogonal_pure_states_have_zero_fidelity():
    assert abs(fidelity(pure_state([1, 0]), pure_state([0, 1]))) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_fidelity_symmetric(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    assert abs(fidelity(rho, omega) - fidelity(omega, rho)) <= 1e-10


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        fidelity_spectrum(diag_state(1.0), diag_state(0.5, 0.5))


def test_monotone_in_m():
    rng = np.random.default_rng(3)
    rho = random_state(rng, 6)
    omega = random_state(rng, 6)
    cumulative = fidelity_spectrum(rho, omega).cumulative
    assert np.all(np.diff(cumulative) >= -1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_gauge_invariance_of_spectrum(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(2, 7))
    rho = random_state(rng, dim)
    omega = random_state(rng, dim)
    x = random_invertible(rng, dim)
    x_inv = np.linalg.inv(x)
    moved_rho = StateOperator((x @ rho.matrix @ x.conj().T + (x @ rho.matrix @ x.conj().T).conj().T) / 2)
    moved_omega = StateOperator(
        (x_inv.conj().T @ omega.matrix @ x_inv + (x_inv.conj().T @ omega.matrix @ x_inv).conj().T) / 2
    )
    base = fidelity_spectrum(rho, omega).sigma
    moved = fidelity_spectrum(moved_rho, moved_omega).sigma
    np.testing.assert_allclose(moved, base, atol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_swap_identity_with_singular_factor(seed):
    rng = np.random.default_rng(200 + seed)
    dim = int(rng.integers(2, 6))
    rho = random_state(rng, dim)
    omega = random_state(rng, dim)
    x = random_singular(rng, dim)
    left = StateOperator((x.conj().T @ omega.matrix @ x + (x.conj().T @ omega.matrix @ x).conj().T) / 2)
    right = StateOperator((x @ rho.matrix @ x.conj().T + (x @ rho.matrix @ x.conj().T).conj().T) / 2)
    for m in range(dim + 1):
        lhs = partial_fidelity_plus(rho, left, m)
        rhs = partial_fidelity_plus(right, omega, m)
        assert abs(lhs - rhs) <= 1e-8


def test_joint_concavity_of_k_fidelity_spot_checks():
    rng = np.random.default_rng(4)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        rho1, omega1 = random_state(rng, dim), random_state(rng, dim)
        rho2, omega2 = random_state(rng, dim), random_state(rng, dim)
        for t in (0.25, 0.5, 0.75):
            mixed = fidelity_spectrum(mix(rho1, rho2, t), mix(omega1, omega2, t))
            p1 = fidelity_spectrum(rho1, omega1)
            p2 = fidelity_spectrum(rho2, omega2)
            for k in (0, 1, 2):
                defect = mixed.tail(k) - t * p1.tail(k) - (1 - t) * p2.tail(k)
                assert defect >= -1e-8
