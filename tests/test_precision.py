"""The fidelity spectrum against a 50-digit reference.

The reference sigma are the singular values of sqrt(rho) sqrt(omega), with
each square root taken from mpmath's Hermitian eig and the singular values
from its complex SVD, all at 50 significant digits.  Only full-rank pairs
are compared: on a rank-deficient matrix the reference takes the square
roots of eigenvalues of size +-eps, which the library sets to zero on
purpose (``EIG_NOISE_FLOOR``); a gate for such pairs needs a reference
built from the factors, svd(F* G).
"""

import numpy as np
import pytest

from conftest import random_complex, random_state
from pairdecomp import StateOperator, fidelity_spectrum

mp = pytest.importorskip("mpmath").mp


def _mp_matrix(a):
    return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in a])


def _mp_sqrt(a):
    values, vectors = mp.eighe(a)
    return vectors * mp.diag([mp.sqrt(v) for v in values]) * vectors.transpose_conj()


def reference_sigma(rho, omega):
    """Decreasing singular values of sqrt(rho) sqrt(omega) at 50 digits."""
    with mp.workdps(50):
        product = _mp_sqrt(_mp_matrix(rho.matrix)) * _mp_sqrt(_mp_matrix(omega.matrix))
        sigma = [float(s) for s in mp.svd_c(product, compute_uv=False)]
    return np.sort(sigma)[::-1]


def test_full_rank_sigma_matches_the_reference_normwise():
    rng = np.random.default_rng(30)
    for index in range(12):
        dim = 3 + index % 4
        rho, omega = random_state(rng, dim), random_state(rng, dim)
        expected = reference_sigma(rho, omega)
        got = fidelity_spectrum(rho, omega).sigma
        assert np.max(np.abs(got - expected)) <= 1e-13 * expected[0]


def _well_conditioned(rng, dim):
    b = random_complex(rng, (dim, dim))
    return b @ b.conj().T + dim * np.eye(dim)


@pytest.mark.xfail(
    strict=True,
    reason="graded pairs lose relative precision in the small sigma; ROADMAP "
           "directions 9 and 2",
)
def test_graded_sigma_matches_the_reference_entrywise():
    rng = np.random.default_rng(31)
    dim = 6
    grading = np.diag(10.0 ** (-6.0 * np.arange(dim) / (dim - 1)))
    for _ in range(8):
        graded = grading @ _well_conditioned(rng, dim) @ grading
        rho = StateOperator.from_matrix((graded + graded.conj().T) / 2.0)
        omega = StateOperator.from_matrix(_well_conditioned(rng, dim))
        expected = reference_sigma(rho, omega)
        got = fidelity_spectrum(rho, omega).sigma
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)
