"""State operators and their pure-vector decompositions.

A state operator is a positive semidefinite matrix; trace one is
deliberately not required.  A decomposition is an ordered list of
(possibly zero, unnormalized) vectors whose outer products sum to the
operator.  Order matters: downstream objectives pair vectors by index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .exceptions import DimensionMismatchError, LengthTooShortError
from .matcore import DEFAULT_MATCH_TOL


@dataclass(frozen=True)
class StateOperator:
    """Positive semidefinite operator on a d-dimensional complex space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "StateOperator":
        """Wrap the matrix, then validate Hermiticity and positivity.

        The spectrum raises ``NotHermitianError`` for a non-square,
        non-finite or non-Hermitian matrix.  Eigenvalues in
        [-PSD_CLAMP_TOL * lambda_max, 0) are accepted as noise; anything
        lower raises ``NotPSDError``.  The spectrum computed for the check
        is kept as ``spectrum``.
        """
        operator = cls(matrix)
        operator.spectrum  # raises NotHermitianError or NotPSDError; stays cached
        return operator

    @functools.cached_property
    def spectrum(self) -> matcore.PsdSpectrum:
        """Clamped spectrum of the matrix, computed once per operator."""
        return matcore.psd_spectrum(self.matrix)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def scaled(self, factor: float) -> "StateOperator":
        return StateOperator(self.matrix * factor)


def as_state(operator) -> StateOperator:
    """Coerce a matrix or StateOperator to a validated StateOperator."""
    if isinstance(operator, StateOperator):
        return operator
    return StateOperator.from_matrix(operator)


def mix(a: StateOperator, b: StateOperator, t: float) -> StateOperator:
    """Convex combination t*a + (1-t)*b."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cannot mix dimensions {a.dim} and {b.dim}")
    return StateOperator(t * a.matrix + (1.0 - t) * b.matrix)


@dataclass(frozen=True)
class Decomposition:
    """Ordered list of vectors, stored as rows of an (n, dim) array."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionMismatchError(
                f"decomposition vectors must form a 2-d array, got shape {v.shape}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_vectors(cls, vectors, dim: int | None = None) -> "Decomposition":
        """Build from an iterable of d-vectors; ``dim`` is required when empty."""
        rows = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
        if not rows:
            if dim is None:
                raise DimensionMismatchError("empty decomposition needs an explicit dim")
            return cls(np.zeros((0, dim), dtype=np.complex128))
        return cls(np.vstack(rows))

    @property
    def norms_squared(self) -> np.ndarray:
        return np.real(np.sum(self.vectors * self.vectors.conj(), axis=1))


def reconstruct(decomposition: Decomposition) -> StateOperator:
    """Sum of outer products of the decomposition vectors (PSD by construction)."""
    v = decomposition.vectors
    return StateOperator(matcore.hermitian_part(v.T @ v.conj()))


def reconstruction_error(decomposition: Decomposition, target: StateOperator) -> float:
    """Relative Frobenius error of the reconstruction; 0 when it is exact."""
    if decomposition.dim != target.dim:
        raise DimensionMismatchError(
            f"decomposition dim {decomposition.dim} != operator dim {target.dim}"
        )
    err = matcore.frobenius(reconstruct(decomposition).matrix - target.matrix)
    scale = matcore.frobenius(target.matrix)
    return err / scale if scale else (np.inf if err else 0.0)


def is_decomposition_of(decomposition: Decomposition, target: StateOperator) -> bool:
    """True iff the vectors reconstruct ``target`` to ``DEFAULT_MATCH_TOL``."""
    return reconstruction_error(decomposition, target) <= DEFAULT_MATCH_TOL


def spectral_decomposition(tau: StateOperator) -> Decomposition:
    """Eigenvector decomposition: vector j is sqrt(lambda_j) times eigenvector j.

    Eigenvalues come out decreasing, so the vector norms do too; vectors
    for numerically zero eigenvalues are exact zeros.
    """
    factor = tau.spectrum.factor()
    return pad_to_length(Decomposition(factor.T), tau.dim)


def decomposition_from_unitary(tau: StateOperator, remix: np.ndarray) -> Decomposition:
    """Decomposition of length n from an n x n unitary remix of the spectral one.

    Vector j is sum_k remix[j, k] * sqrt(lambda_k) * e_k over the support
    eigenvectors e_k; every unitary gives a valid decomposition, and the
    identity gives back the spectral decomposition itself.
    """
    remix = np.asarray(remix, dtype=np.complex128)
    n = remix.shape[0]
    factor = tau.spectrum.factor()
    rank = factor.shape[1]
    if n < rank:
        raise LengthTooShortError(f"length {n} is below the operator rank {rank}")
    return Decomposition(remix[:, :rank] @ factor.T)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: complex Ginibre, QR, phase correction."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    phases = d / np.abs(d)
    return q * phases


def random_decomposition(tau: StateOperator, length: int, seed: int) -> Decomposition:
    """Seeded random decomposition of ``tau`` with exactly ``length`` vectors.

    Applies a Haar-random unitary remix to the spectral decomposition;
    requires ``length`` at least the rank of ``tau``.
    """
    rng = np.random.default_rng(seed)
    return decomposition_from_unitary(tau, haar_unitary(length, rng))


def pad_to_length(decomposition: Decomposition, length: int) -> Decomposition:
    """Append exact zero vectors until the decomposition has ``length`` entries."""
    if length < decomposition.length:
        raise LengthTooShortError(
            f"cannot pad length {decomposition.length} down to {length}"
        )
    if length == decomposition.length:
        return decomposition
    extra = np.zeros((length - decomposition.length, decomposition.dim), dtype=np.complex128)
    return Decomposition(np.vstack([decomposition.vectors, extra]))


def overlap_values(first: Decomposition, second: Decomposition) -> np.ndarray:
    """Moduli of all cross inner products: entry [j, k] = |<first_j | second_k>|."""
    if first.dim != second.dim:
        raise DimensionMismatchError(
            f"decomposition dims differ: {first.dim} vs {second.dim}"
        )
    return np.abs(first.vectors.conj() @ second.vectors.T)


def random_state_operator(dim: int, rng: np.random.Generator) -> StateOperator:
    """Random full-rank PSD operator of unit trace."""
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = matcore.hermitian_part(b @ b.conj().T)
    return StateOperator(m / np.trace(m).real)
