"""Optimal simultaneous decompositions of an operator pair.

On a common support, with the cached factors rho = A A* and omega = B B*,
the SVD A* B = U S V* gives the optimal vectors psi_j = A u_j and
phi_j = B v_j (Uhlmann's theorem), biorthogonal with pairing values S.
Pairs without a common support are first shrunk by alternating support
projections; the optimal vectors are then lifted step by step back to
decompositions of the original operators without losing pairing value.
The paper's gauge construction stays as ``solve_gauge``: an invertible
congruence takes (rho, omega) to a common operator tau whose spectrum is
the same S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .exceptions import (
    BothZeroError,
    DimensionMismatchError,
    SingularOperatorError,
    UnequalSupportsError,
)
from .fidelity import FidelityProfile, _profile
from .matcore import CONDITION_LIMIT, RANK_TOL, SUPPORT_MATCH_TOL, PsdSpectrum
from .states import Decomposition, StateOperator, pad_to_length, spectral_decomposition


@dataclass(frozen=True)
class GaugePair:
    """Invertible gauge X and the common operator tau it produces.

    X omega X* and (X^{-1})* rho X^{-1} both equal tau; X is the positive
    definite Hermitian choice, which fixes the otherwise free unitary
    factor.
    """

    X: np.ndarray
    tau: StateOperator
    working_dim: int


@dataclass(frozen=True)
class OptimalPair:
    """Simultaneously optimal decompositions of rho (psi) and omega (phi).

    ``values[j]`` is the pairing product <psi_j | phi_j>, real and
    decreasing; its partial sums realize every partial fidelity at once,
    and the cross products <psi_k | phi_j> vanish for k != j.
    """

    psi: Decomposition
    phi: Decomposition
    values: np.ndarray


@dataclass(frozen=True)
class ReductionStep:
    """One alternating projection step: which side changed and how."""

    side: str
    projector: np.ndarray
    rank_after: int
    operator_before: StateOperator


@dataclass(frozen=True)
class SupportReductionTrace:
    """Recorded steps of the alternating support reduction with its endpoint."""

    steps: tuple
    final_rho: StateOperator
    final_omega: StateOperator


def solve_gauge(rho: StateOperator, omega: StateOperator) -> GaugePair:
    """Gauge a strictly positive pair to a common operator.

    X squared is the geometric mean omega^{-1} # rho = omega^{-1/2}
    (omega^{1/2} rho omega^{1/2})^{1/2} omega^{-1/2}; taking X as the PSD
    square root of that product makes X Hermitian, so a single matrix
    serves as gauge and adjoint.
    """
    if rho.dim != omega.dim:
        raise DimensionMismatchError(f"operator dims differ: {rho.dim} vs {omega.dim}")
    spectrum_w = matcore._require_pd(omega.spectrum, "omega")
    matcore._require_pd(rho.spectrum, "rho")
    w_half, w_ihalf = matcore._half_powers(spectrum_w)
    x = matcore.psd_sqrt(matcore._mean(w_ihalf, w_half, rho.matrix))
    tau = StateOperator(matcore.hermitian_part(x @ omega.matrix @ x))
    return GaugePair(x, tau, rho.dim)


def optimal_pair(rho: StateOperator, omega: StateOperator) -> OptimalPair:
    """Optimal simultaneous decompositions for a pair with equal supports.

    Works on the common support subspace, so the operators may be rank
    deficient as long as their supports coincide; use
    ``optimal_pair_general`` otherwise.
    """
    if rho.dim != omega.dim:
        raise DimensionMismatchError(f"operator dims differ: {rho.dim} vs {omega.dim}")
    if not _same_support(rho.spectrum, omega.spectrum):
        raise UnequalSupportsError(
            f"supports differ (ranks {rho.spectrum.rank()} vs {omega.spectrum.rank()}); "
            "use optimal_pair_general"
        )
    a = rho.spectrum.factor()
    b = omega.spectrum.factor()
    u, values, vh = np.linalg.svd(a.conj().T @ b)
    return OptimalPair(
        Decomposition((a @ u).T), Decomposition((b @ vh.conj().T).T), values
    )


def _same_support(a: PsdSpectrum, b: PsdSpectrum) -> bool:
    gap = matcore.frobenius(a.projection() - b.projection())
    return a.rank() == b.rank() and gap <= SUPPORT_MATCH_TOL


def support_reduction(rho: StateOperator, omega: StateOperator) -> SupportReductionTrace:
    """Shrink a pair of PSD operators to equal supports by alternating projections.

    Alternates rho <- Q rho Q (Q the support of the current omega) and
    omega <- P omega P (P the support of the current rho) until the
    supports agree; a step is recorded only when it actually changes the
    operator.  The alternation ends after finitely many steps, or raises
    ``BothZeroError`` when both operators are or become zero (zero or
    orthogonally supported input).  An eigenvalue within a few orders of
    magnitude of ``RANK_TOL * lambda_max`` can flip a rank decision from
    one step to the next; if the supports still differ after
    ``2 * dim + 4`` steps, ``UnequalSupportsError`` says so.
    """
    if rho.dim != omega.dim:
        raise DimensionMismatchError(f"operator dims differ: {rho.dim} vs {omega.dim}")
    current = {"rho": rho, "omega": omega}
    steps: list[ReductionStep] = []
    side, other = "rho", "omega"
    budget = 2 * rho.dim + 4
    for _ in range(budget):
        spectra = {name: operator.spectrum for name, operator in current.items()}
        if spectra["rho"].rank() == 0 and spectra["omega"].rank() == 0:
            raise BothZeroError("support reduction annihilated both operators")
        if _same_support(spectra["rho"], spectra["omega"]):
            return SupportReductionTrace(tuple(steps), current["rho"], current["omega"])
        before = current[side]
        q = spectra[other].projection()
        after = StateOperator(matcore.hermitian_part(q @ before.matrix @ q))
        if not _unchanged(before, after):
            steps.append(ReductionStep(side, q, after.spectrum.rank(), before))
        current[side] = after
        side, other = other, side
    raise UnequalSupportsError(
        f"supports still differ after {budget} support-reduction steps "
        f"({len(steps)} of them changed an operator); an eigenvalue near "
        f"RANK_TOL * lambda_max (RANK_TOL={RANK_TOL:.1e}) can cause this"
    )


def _unchanged(before: StateOperator, after: StateOperator) -> bool:
    gap = matcore.frobenius(after.matrix - before.matrix)
    return gap <= SUPPORT_MATCH_TOL * matcore.frobenius(before.matrix)


def _lift_through_projection(
    vectors: np.ndarray, target: StateOperator, projector: np.ndarray
) -> np.ndarray:
    """Extend a decomposition of Q target Q to one of target itself.

    Input rows chi_j decompose Q target Q.  The output rows psi_j satisfy
    Q psi_j = chi_j for the original rows and Q psi_j = 0 for any
    appended rows, while reconstructing target exactly.  Writing target
    = A A* with an injective factor A, every decomposition of target is
    A w_j with the w_j forming an isometry; the forced components of w_j
    are read off an SVD of Q A and the free components are completed to
    an isometry, which may require appending rows.
    """
    a = target.spectrum.factor()  # (dim, r)
    r = a.shape[1]
    b = projector @ a
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    k = int(np.sum(s > matcore.LIFT_TOL * s[0])) if s.size and s[0] > 0.0 else 0
    forced = (vectors @ u[:, :k].conj()) / s[:k]  # rows: forced components of z_j
    free = r - k
    top = np.vstack([forced, np.zeros((free, k), dtype=np.complex128)])
    if free > 0:
        qc, _ = np.linalg.qr(top, mode="complete")
        z = np.hstack([top, qc[:, k : k + free]])
    else:
        z = top
    w = z @ vh.conj()
    return w @ a.T


def optimal_pair_general(rho: StateOperator, omega: StateOperator) -> OptimalPair:
    """Optimal simultaneous decompositions for arbitrary PSD pairs.

    Reduces the pair to a common support, solves there, then lifts the
    vectors back through the recorded projection steps in reverse order.
    Each lift preserves every pairing product; vectors appended on one
    side are paired with zero vectors on the other, contributing zero.
    Orthogonally supported pairs yield all-zero values with the spectral
    decompositions of the inputs.
    """
    dim = rho.dim
    try:
        trace = support_reduction(rho, omega)
    except BothZeroError:
        psi = spectral_decomposition(rho)
        phi = spectral_decomposition(omega)
        return OptimalPair(psi, phi, np.zeros(dim))

    core = optimal_pair(trace.final_rho, trace.final_omega)
    rows = {"rho": core.psi.vectors, "omega": core.phi.vectors}
    for step in reversed(trace.steps):
        rows[step.side] = _lift_through_projection(
            rows[step.side], step.operator_before, step.projector
        )
    length = max(rows["rho"].shape[0], rows["omega"].shape[0], dim)
    psi, phi = (pad_to_length(Decomposition(vectors), length) for vectors in rows.values())
    return OptimalPair(psi, phi, np.pad(core.values, (0, length - core.values.size)))


def gauge_on_common_support(rho: StateOperator, omega: StateOperator) -> GaugePair:
    """Gauge of the support-reduced pair, embedded back into the full space.

    The returned X acts as the reduced gauge on the common support and as
    the identity on its orthogonal complement; tau is the embedded common
    operator.  For pairs that already share a support this coincides with
    ``solve_gauge`` on that support.  Raises ``BothZeroError`` for
    orthogonally supported pairs.
    """
    trace = support_reduction(rho, omega)
    basis = trace.final_rho.spectrum.basis()
    reduced = solve_gauge(*(
        StateOperator(matcore.hermitian_part(basis.conj().T @ operator.matrix @ basis))
        for operator in (trace.final_rho, trace.final_omega)
    ))
    projection = basis @ basis.conj().T
    complement = np.eye(rho.dim, dtype=np.complex128) - projection
    x_full = basis @ reduced.X @ basis.conj().T + complement
    tau_full = StateOperator(
        matcore.hermitian_part(basis @ reduced.tau.matrix @ basis.conj().T)
    )
    return GaugePair(x_full, tau_full, basis.shape[1])


def _checked_inverse(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {x.shape}")
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise SingularOperatorError(
            f"matrix is numerically singular (condition above {CONDITION_LIMIT:.0e})"
        )
    return np.linalg.inv(x)


def transform_pair(
    rho: StateOperator, omega: StateOperator, x: np.ndarray
) -> tuple[StateOperator, StateOperator]:
    """Congruence pair map (rho, omega) -> (X rho X*, (X^{-1})* omega X^{-1}).

    The fidelity spectrum of the pair is invariant under this map for
    every invertible X.
    """
    x_inv = _checked_inverse(x)
    new_rho = StateOperator(matcore.hermitian_part(x @ rho.matrix @ x.conj().T))
    new_omega = StateOperator(
        matcore.hermitian_part(x_inv.conj().T @ omega.matrix @ x_inv)
    )
    return new_rho, new_omega


def transform_decompositions(
    psi: Decomposition, phi: Decomposition, x: np.ndarray
) -> tuple[Decomposition, Decomposition]:
    """Map psi_j -> X psi_j and phi_j -> (X^{-1})* phi_j.

    All cross inner products <psi_j | phi_k> are unchanged, and the
    outputs decompose the transformed pair of the reconstructed
    operators.
    """
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"decomposition dims differ: {psi.dim} vs {phi.dim}")
    x_inv = _checked_inverse(x)
    new_psi = Decomposition(psi.vectors @ x.T)
    new_phi = Decomposition(phi.vectors @ x_inv.conj())
    return new_psi, new_phi


def regularized_profile(rho: StateOperator, omega: StateOperator, c: float) -> FidelityProfile:
    """Fidelity spectrum of (rho + c tr(rho) P0, omega + c tr(omega) Q0).

    P0 and Q0 are the null projections.  The constant c is relative to each
    operator's trace, so rescaling rho or omega rescales the profile by the
    square root of the factor and changes no row.  As c decreases to zero
    the profile approaches the profile of the original pair; for strictly
    positive pairs it is already identical.  With the cached spectrum
    rho = V L V* and P0 spanned by the eigenvectors past the rank,
    rho + c_rho P0 = A_c A_c* exactly for A_c = V (L + c_rho E0)^{1/2},
    c_rho = c tr(rho) and E0 the 0/1 diagonal of those indices, so the
    profile is the singular values of A_c* B_c and no eig runs.  When
    rho P0 = 0 as well, A_c A_c* = (sqrt(rho) + h sqrt(tr rho) P0)^2 with
    h = sqrt(c); the path stays a small perturbation of its limit for h
    below about the radius r = sigma+_min / ||sqrt(tr omega) sqrt(rho) Q0 +
    sqrt(tr rho) P0 sqrt(omega)||_2, where sigma+_min is the smallest nonzero
    value of the limit: by Weyl's inequality the values that the
    regularization creates stay below sigma+_min there, to first order in h.
    """
    if not 0.0 < c < np.inf:
        raise ValueError(f"regularization constant must be positive and finite, got {c}")
    factors = []
    for operator in (rho, omega):
        spectrum = operator.spectrum
        vals = spectrum.eigenvalues.copy()
        vals[spectrum.rank():] += c * operator.trace
        factors.append(spectrum.eigenvectors * np.sqrt(vals))
    return _profile(*factors)


def extrapolate_to_zero(nodes, samples) -> float:
    """Polynomial (Neville) extrapolation of samples f(h) to h = 0.

    Used with h = sqrt(c) for the regularization path of
    ``regularized_profile``, which is close to its low-order expansion in h
    only inside the radius r given there.  Nodes beyond r spoil the
    polynomial extrapolation; scale them to lie within it.
    """
    h = [float(v) for v in nodes]
    table = [float(v) for v in samples]
    if len(h) != len(table) or not h:
        raise ValueError("nodes and samples must have equal nonzero length")
    n = len(h)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (h[i] * table[i + 1] - h[i + level] * table[i]) / (
                h[i] - h[i + level]
            )
    return table[0]
