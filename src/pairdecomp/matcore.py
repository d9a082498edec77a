"""Dense complex linear algebra kernel for positive operators.

Hermitian eigendecomposition by parallel-order Jacobi rotations (each
round of a sweep rotates m/2 disjoint pivot pairs with one batched
product), the clamped spectrum of a positive semidefinite operator
(where every numerical rank and support projection is decided), matrix
functions and the operator geometric mean.  Everything works on plain
``numpy`` arrays, never mutates its inputs, and is deterministic for a
fixed numpy build and BLAS thread count: the same input bits give the
same output bits.

Every check in the package follows one rule: a gap is negligible when
it is at most ``tol * scale``, with ``scale`` the operand's own size --
the Frobenius norm of a matrix, the trace of a weight sum, lambda_max of
a spectrum, sqrt(tr rho * tr omega) for a pairing sum (its Cauchy-Schwarz
bound).  With no absolute floor, no verdict changes under rho -> s rho,
and an exact zero compares equal only to an exact zero.  Each ``tol`` is
a constant in the table below, and no function takes one as an argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SingularOperatorError,
)

# Every threshold of the package, defined here only; each comment names the
# scale that the value is relative to.
#: rank: eigenvalues above RANK_TOL * lambda_max span the support
RANK_TOL = 1e-10
#: lift: singular values of Q A above LIFT_TOL * s_max; they are the square
#: roots of the eigenvalues of Q rho Q, hence the square root of RANK_TOL
LIFT_TOL = float(np.sqrt(RANK_TOL))
#: Hermiticity: ||A - A*||_F relative to ||A||_F
HERMITICITY_TOL = 1e-10
#: PSD check: eigenvalues in [-PSD_CLAMP_TOL * lambda_max, 0) are clamped to zero
PSD_CLAMP_TOL = 1e-10
#: noise: eigenvalues below EIG_NOISE_FLOOR * lambda_max are set to exactly
#: zero, so square roots do not amplify O(eps) noise to O(sqrt(eps))
EIG_NOISE_FLOOR = 1e-14
#: Jacobi convergence: off-diagonal Frobenius mass relative to ||A||_F
_SWEEP_TOL = 1e-14
#: Jacobi budget: whole sweeps, a count with no scale
_MAX_SWEEPS = 60
#: "is a decomposition of": reconstruction error relative to ||target||_F
DEFAULT_MATCH_TOL = 1e-9
#: majorization: prefix-sum slack relative to the spectrum's total, and a
#: negative weight relative to the largest |weight|
MAJORIZE_TOL = 1e-10
#: equality certificate: pairing gap and residuals relative to lambda_max;
#: the modulus of a recovered phase is absolute, a phase has unit scale
CERTIFY_TOL = 1e-8
#: random search: best value against the partial fidelity, relative to
#: sqrt(tr rho * tr omega)
SEARCH_TOL = 1e-8
#: congruence: the condition number s_max / s_min, a ratio with no scale
CONDITION_LIMIT = 1e12
#: support match: absolute Frobenius gap between support projections, which
#: have unit scale; relative to ||before||_F when a support-reduction step
#: is tested for having changed nothing
SUPPORT_MATCH_TOL = 1e-9


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a*) / 2."""
    return (a + a.conj().T) / 2.0


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise NotHermitianError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotHermitianError("matrix has non-finite (NaN or Inf) entries")
    return a


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity to relative tolerance and return the complex view."""
    a = require_square(a)
    defect = frobenius(a - a.conj().T)
    if defect > HERMITICITY_TOL * frobenius(a):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||A - A*||_F = {defect:.3e}"
        )
    return a


@dataclass(frozen=True)
class HermitianEig:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and decreasing; column ``j`` of
    ``eigenvectors`` is a unit eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PsdSpectrum(HermitianEig):
    """Spectral data of a PSD matrix, eigenvalues clamped to be nonnegative.

    ``rank`` counts the eigenvalues above ``RANK_TOL * lambda_max``; the
    zero operator has rank 0.  Every support decision reads that rank and
    ``projection``.
    There are two factors A with A A* = matrix: ``factor`` keeps the
    support, and ``exact_factor`` keeps every eigenvalue above the noise
    floor, which ``psd_spectrum`` has already set to exactly zero.
    """

    def rank(self) -> int:
        # psd_spectrum's eigenvalues are nonempty, nonnegative and decreasing
        return int(np.sum(self.eigenvalues > RANK_TOL * self.eigenvalues[0]))

    def basis(self) -> np.ndarray:
        """Orthonormal basis of the support, as columns."""
        return self.eigenvectors[:, : self.rank()]

    def factor(self) -> np.ndarray:
        """Factor A (d x rank), scaled support eigenvectors: A A* = matrix."""
        return self.exact_factor()[:, : self.rank()]

    def exact_factor(self) -> np.ndarray:
        """Factor over every nonzero eigenvalue, with no rank truncation."""
        r = int(np.count_nonzero(self.eigenvalues))
        return self.eigenvectors[:, :r] * np.sqrt(self.eigenvalues[:r])

    def projection(self) -> np.ndarray:
        """Orthogonal projection onto the support; zero for the zero operator."""
        v = self.basis()
        return hermitian_part(v @ v.conj().T)


def hermitian_eig(matrix: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix by parallel-order Jacobi.

    The matrix is padded to even order m with one decoupled zero row and
    column when its order n is odd.  A sweep is m - 1 rounds of the
    round-robin schedule (Brent & Luk, SIAM J. Sci. Stat. Comput. 6,
    1985); each round rotates m/2 disjoint pivot pairs at once, and over
    a sweep every pair of indices is a pivot exactly once.  Sweeps repeat
    until the off-diagonal mass falls below ``_SWEEP_TOL`` relative to the
    Frobenius norm.  The fixed schedule makes the output reproducible
    bit for bit; ties between equal eigenvalues keep the solver's output
    order.

    Raises ``NotHermitianError`` for non-Hermitian or non-finite input and
    ``NoConvergenceError`` if ``_MAX_SWEEPS`` whole sweeps (of m - 1
    rounds each) do not converge (quadratic convergence makes this
    unreachable in practice).
    """
    a = hermitian_part(require_hermitian(matrix))
    n = a.shape[0]
    scale = frobenius(a)
    m = n + n % 2
    k = m // 2
    work = np.zeros((m, m), dtype=np.complex128)
    work[:n, :n] = a
    # rows of V*: every rotation J acts on rows only, as J* (.)
    vecs_h = np.eye(m, dtype=np.complex128)
    step = _round_robin_step(m)
    jh = np.empty((k, 2, 2), dtype=np.complex128)
    # rotations below this cannot lift the off-diagonal mass above the target
    tiny = _SWEEP_TOL * scale / (n * n)
    for sweep in range(_MAX_SWEEPS + 1):
        off = frobenius(work - np.diag(np.diag(work)))
        if off <= _SWEEP_TOL * scale:
            break
        if sweep == _MAX_SWEEPS:
            raise NoConvergenceError(
                f"Jacobi sweeps exhausted ({_MAX_SWEEPS}) without convergence"
            )
        for _ in range(m - 1):
            # pair j sits at slots (2j, 2j + 1)
            diag = work.diagonal().real
            apq = work.diagonal(1)[::2]
            absapq = np.abs(apq)
            rotate = absapq > tiny
            if rotate.any():
                norm = np.where(rotate, absapq, 1.0)
                tau = (diag[1::2] - diag[::2]) / (2.0 * norm)
                sign = np.where(tau >= 0.0, 1.0, -1.0)
                t = np.where(rotate, sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                u = np.where(rotate, apq / norm, 1.0)
                # J* per pair; a skipped pair gets the identity block
                jh[:, 0, 0] = c
                jh[:, 0, 1] = -s * u
                jh[:, 1, 0] = s
                jh[:, 1, 1] = c * u
                # W Hermitian: J* W J = J* (J* W)*, two row operations
                half = np.matmul(jh, work.reshape(k, 2, m)).reshape(m, m)
                work = np.matmul(jh, half.conj().T.reshape(k, 2, m)).reshape(m, m)
                vecs_h = np.matmul(jh, vecs_h.reshape(k, 2, m)).reshape(m, m)
                # the pivots are zero by construction; pin them to cut drift
                flat = work.reshape(-1)
                flat[1 :: 2 * (m + 1)][rotate] = 0.0
                flat[m :: 2 * (m + 1)][rotate] = 0.0
                flat[:: m + 1] = flat[:: m + 1].real
            work = work.take(step, axis=0).take(step, axis=1)
            vecs_h = vecs_h.take(step, axis=0)

    # after whole sweeps the slots are back in index order
    vals = np.real(np.diag(work))[:n].copy()
    vecs = vecs_h[:n, :n].conj().T
    order = np.argsort(-vals, kind="stable")
    return HermitianEig(vals[order], vecs[:, order])


@functools.lru_cache(maxsize=32)
def _round_robin_step(m: int) -> np.ndarray:
    """Slot permutation between consecutive rounds of the circle method.

    Round 0 pairs (0, 1), (2, 3), ...; between rounds index 0 stays put
    and the others move one seat around the circle, so ``x.take(step)``
    moves slot contents from one round's order to the next and m - 1
    steps return to round 0's order.  Read-only: every caller shares it.
    """
    # seats around the circle; seat j faces seat m - 1 - j, and the
    # seats are numbered so that round 0 is the identity slot order
    seats = np.concatenate([np.arange(0, m, 2), np.arange(m - 1, 0, -2)])
    step = np.empty(m, dtype=np.intp)
    step[seats] = seats[np.r_[0, m - 1, 1 : m - 1]]
    step.flags.writeable = False
    return step


def psd_spectrum(a: np.ndarray) -> PsdSpectrum:
    """Spectrum of a PSD matrix with small negative eigenvalues clamped to zero.

    Eigenvalues below ``-PSD_CLAMP_TOL * lambda_max`` mean the matrix is
    not PSD and raise ``NotPSDError``; the band up to
    ``EIG_NOISE_FLOOR * lambda_max`` is floating-point noise and is set to
    exactly zero.
    """
    eig = hermitian_eig(a)
    vals = eig.eigenvalues.copy()
    lam_max = max(float(vals[0]), 0.0)
    floor = -PSD_CLAMP_TOL * lam_max
    if vals[-1] < floor:
        raise NotPSDError(
            f"matrix has negative eigenvalue {vals[-1]:.3e} "
            f"below the clamp threshold {floor:.3e}"
        )
    np.clip(vals, 0.0, None, out=vals)
    vals[vals < EIG_NOISE_FLOOR * lam_max] = 0.0
    # read-only: a StateOperator hands the same spectrum to every caller
    vals.flags.writeable = False
    eig.eigenvectors.flags.writeable = False
    return PsdSpectrum(vals, eig.eigenvectors)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive semidefinite square root of a PSD matrix."""
    spectrum = psd_spectrum(a)
    root = spectrum.exact_factor()
    return hermitian_part(root @ spectrum.eigenvectors[:, : root.shape[1]].conj().T)


def _require_pd(spectrum: PsdSpectrum, name: str) -> PsdSpectrum:
    """Return ``spectrum`` if it has full rank, else raise ``SingularOperatorError``."""
    if spectrum.rank() < spectrum.eigenvalues.size:
        raise SingularOperatorError(
            f"{name} operand is not strictly positive definite "
            f"(min/max eigenvalue ratio below RANK_TOL={RANK_TOL:.1e})"
        )
    return spectrum


def _half_powers(spectrum: PsdSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """a^{1/2} and a^{-1/2} of a positive definite matrix from its spectrum."""
    v = spectrum.eigenvectors
    inverse_root = 1.0 / np.sqrt(spectrum.eigenvalues)
    return spectrum.exact_factor() @ v.conj().T, (v * inverse_root) @ v.conj().T


def _mean(a_half: np.ndarray, a_ihalf: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2} from the half powers of a."""
    middle = psd_sqrt(hermitian_part(a_ihalf @ b @ a_ihalf))
    return hermitian_part(a_half @ middle @ a_half)


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator geometric mean of two positive definite matrices.

    Returns the unique positive definite G solving G a^{-1} G = b,
    computed as a^{1/2} (a^{-1/2} b a^{-1/2})^{1/2} a^{1/2}.  The mean is
    symmetric in its operands; both must be strictly positive definite.
    """
    spectrum_a = _require_pd(psd_spectrum(a), "first")
    _require_pd(psd_spectrum(b), "second")
    return _mean(*_half_powers(spectrum_a), b)
