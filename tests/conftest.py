"""Shared random generators for the test suite.

Everything takes an explicit ``numpy`` Generator so each test seeds its
own stream; nothing here touches global random state.
"""

import numpy as np

from pairdecomp import StateOperator


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim, scale=1.0):
    b = random_complex(rng, (dim, dim))
    return scale * (b + b.conj().T) / 2.0


def random_psd_matrix(rng, dim, rank=None):
    r = dim if rank is None else rank
    b = random_complex(rng, (dim, r))
    return b @ b.conj().T


def random_state(rng, dim, rank=None, normalize=True):
    m = random_psd_matrix(rng, dim, rank)
    if normalize:
        m = m / np.trace(m).real
    return StateOperator.from_matrix((m + m.conj().T) / 2.0)


def random_unit_vector(rng, dim):
    v = random_complex(rng, dim)
    return v / np.linalg.norm(v)


def random_invertible(rng, dim, spread=10.0):
    """Invertible matrix with singular values in [1/spread, spread]."""
    u, _ = np.linalg.qr(random_complex(rng, (dim, dim)))
    v, _ = np.linalg.qr(random_complex(rng, (dim, dim)))
    s = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=dim))
    return u @ np.diag(s) @ v.conj().T


def random_singular(rng, dim, rank=None):
    """Matrix of prescribed rank < dim (default dim - 1), unit spectral norm."""
    r = dim - 1 if rank is None else rank
    a = random_complex(rng, (dim, r))
    b = random_complex(rng, (r, dim))
    m = a @ b
    return m / np.linalg.norm(m, 2)


def near_threshold_pair():
    """Two d=5 matrices with eigenvalues a few times RANK_TOL * lambda_max.

    The support eigenvectors of such eigenvalues are fixed only to about
    eps / 1e-10, so the support projections of the alternating reduction
    keep moving by ~1e-7 and never match to SUPPORT_MATCH_TOL.
    """
    rng = np.random.default_rng(11)
    matrices = []
    for vals in ((1.0, 0.5, 0.2, 3e-10, 5e-11), (1.0, 0.3, 0.05, 2e-10, 1.2e-10)):
        q, _ = np.linalg.qr(random_complex(rng, (5, 5)))
        m = q @ np.diag(vals) @ q.conj().T
        matrices.append((m + m.conj().T) / 2.0)
    return matrices


def cross_gram(psi, phi):
    """Matrix of inner products <psi_j | phi_k>."""
    return psi.vectors.conj() @ phi.vectors.T
