"""Fidelity spectrum and the partial fidelity families.

The fidelity spectrum of a pair (rho, omega) is the decreasing list of
eigenvalues of (sqrt(rho) omega sqrt(rho))^{1/2}: with the cached
factors rho = A A* and omega = B B*, the singular values of A* B.  No
square is formed, so small values keep their relative precision.
Partial sums of the spectrum give the increasing family F+_m; the
complementary tail sums give the k-fidelities F_k = F - F+_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .states import StateOperator, as_state


@dataclass(frozen=True)
class FidelityProfile:
    """Decreasing fidelity spectrum plus its cumulative sums.

    ``cumulative[m]`` is the sum of the m largest spectrum values for
    m = 0..d; index 0 is exactly zero and index d is the full fidelity.
    """

    sigma: np.ndarray
    cumulative: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.sigma.size)

    @property
    def fidelity(self) -> float:
        return float(self.cumulative[-1])

    def partial(self, m: int) -> float:
        """Sum of the m largest spectrum values; clamped into [0, d]."""
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        return float(self.cumulative[min(m, self.dim)])

    def tail(self, k: int) -> float:
        """Sum of all but the k largest spectrum values."""
        return self.fidelity - self.partial(k)


def fidelity_spectrum(rho, omega) -> FidelityProfile:
    """Fidelity spectrum of a pair of PSD operators.

    Both operands may be singular; matrices passed as plain arrays are
    validated (Hermitian, PSD) first.
    """
    r = as_state(rho)
    w = as_state(omega)
    if r.dim != w.dim:
        raise DimensionMismatchError(f"operator dims differ: {r.dim} vs {w.dim}")
    # only the noise floor, no rank truncation
    return _profile(r.spectrum.exact_factor(), w.spectrum.exact_factor())


def _profile(a: np.ndarray, b: np.ndarray) -> FidelityProfile:
    """Profile of the pair (A A*, B B*): the singular values of A* B, padded to d."""
    values = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    sigma = np.pad(values, (0, a.shape[0] - values.size))
    return FidelityProfile(sigma, np.concatenate([[0.0], np.cumsum(sigma)]))


def partial_fidelity_plus(rho, omega, m: int) -> float:
    """Sum of the m largest fidelity-spectrum values (0 for m = 0, F for m >= d)."""
    return fidelity_spectrum(rho, omega).partial(m)


def fidelity(rho, omega) -> float:
    """Trace of (sqrt(rho) omega sqrt(rho))^{1/2}; symmetric in its arguments."""
    return fidelity_spectrum(rho, omega).fidelity


def k_fidelity(rho, omega, k: int) -> float:
    """Sum of all but the k largest fidelity-spectrum values."""
    return fidelity_spectrum(rho, omega).tail(k)
