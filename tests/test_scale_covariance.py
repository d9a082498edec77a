"""Scale covariance: rho -> s rho, omega -> t omega changes no verdict.

The fidelity spectrum and the optimal pairing values scale by sqrt(s t),
ranks do not change, and every validation check gives the same answer
at every scale, because each compares a gap with the operand's own size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from pairdecomp import (
    RANK_TOL,
    NotHermitianError,
    StateOperator,
    fidelity_spectrum,
    is_decomposition_of,
    optimal_pair_general,
    regularized_profile,
)

SKEWED = np.array([[1.0, 0.5], [0.4, 1.0]], dtype=complex)
MIXER = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
log_uniform = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)


@st.composite
def scaled_pairs(draw):
    dim = draw(st.integers(1, 5))
    ranks = (draw(st.integers(1, dim)), draw(st.integers(1, dim)))
    seed = draw(st.integers(0, 2**32 - 1))
    return dim, ranks, seed, draw(log_uniform), draw(log_uniform)


@settings(deadline=None, derandomize=True)
@given(scaled_pairs())
def test_rescaling_the_pair_changes_no_verdict(case):
    dim, (rank_rho, rank_omega), seed, s, t = case
    rng = np.random.default_rng(seed)
    rho = random_state(rng, dim, rank=rank_rho)
    omega = random_state(rng, dim, rank=rank_omega)
    rho_s = StateOperator.from_matrix(s * rho.matrix)
    omega_t = StateOperator.from_matrix(t * omega.matrix)
    root = np.sqrt(s) * np.sqrt(t)

    sigma = fidelity_spectrum(rho, omega).sigma
    np.testing.assert_allclose(fidelity_spectrum(rho_s, omega_t).sigma / root, sigma,
                               rtol=0.0, atol=1e-12)
    assert rho_s.spectrum.rank() == rho.spectrum.rank()
    assert omega_t.spectrum.rank() == omega.spectrum.rank()

    pair = optimal_pair_general(rho, omega)
    scaled = optimal_pair_general(rho_s, omega_t)
    np.testing.assert_allclose(scaled.values / root, pair.values, rtol=0.0, atol=1e-12)
    assert is_decomposition_of(scaled.psi, rho_s)
    assert is_decomposition_of(scaled.phi, omega_t)

    for scale in (s, t):
        with pytest.raises(NotHermitianError):
            StateOperator.from_matrix(scale * SKEWED)


@pytest.mark.parametrize("s", [1e-30, 1.0, 1e30])
@pytest.mark.parametrize("t", [0.1, 0.5, 2.0, 10.0])
def test_rank_decision_near_the_threshold(s, t):
    """An eigenvalue t * RANK_TOL * lambda_max is support iff t > 1, at any scale s."""
    rho = StateOperator.from_matrix(s * MIXER @ np.diag([1.0, t * RANK_TOL]) @ MIXER.conj().T)
    assert rho.spectrum.rank() == (1 if t < 1.0 else 2)
    omega = StateOperator.from_matrix(np.eye(2, dtype=complex) / 2.0)
    pair = optimal_pair_general(rho, omega)
    assert is_decomposition_of(pair.psi, rho)
    assert is_decomposition_of(pair.phi, omega)


def test_regularized_rows_do_not_change_with_scale():
    """c is relative to each trace: a rank-2 rho at 1e-20 against a full-rank
    omega at 1e20 gives the unscaled rows times sqrt(1e-20 * 1e20)."""
    rng = np.random.default_rng(21)
    rho = random_state(rng, 5, rank=2)
    omega = random_state(rng, 5)
    rho_s = StateOperator.from_matrix(1e-20 * rho.matrix)
    omega_t = StateOperator.from_matrix(1e20 * omega.matrix)
    for c in (1e-2, 1e-4, 1e-6):
        reference = regularized_profile(rho, omega, c).cumulative
        np.testing.assert_allclose(regularized_profile(rho_s, omega_t, c).cumulative, reference,
                                   rtol=0.0, atol=1e-12 * reference[-1])
