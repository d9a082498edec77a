"""Majorization, prescribed-weight decompositions and equality certification.

The spectrum of a positive operator majorizes the norm-squared weights
of every decomposition, with totals matching the trace.  The converse
construction turns any majorized weight vector into an actual
decomposition by a finite chain of two-coordinate averaging steps, each
realized as a plane rotation of one vector pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NegativeEntryError,
    NotADecompositionError,
    NotMajorizedError,
)
from .matcore import CERTIFY_TOL, EIG_NOISE_FLOOR, MAJORIZE_TOL
from .states import (
    Decomposition,
    StateOperator,
    is_decomposition_of,
    pad_to_length,
    spectral_decomposition,
)


@dataclass(frozen=True)
class EqualityCertificate:
    """Outcome of checking the equality conditions of the pairing bound.

    When ``holds``, the first decomposition's leading m vectors are
    eigenvectors in decreasing eigenvalue order and the second differs
    from the first only by the recovered unimodular phases.
    """

    holds: bool
    m: int
    phases: np.ndarray | None
    max_residual: float


def _clean_weights(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size and float(arr.min()) < -MAJORIZE_TOL * float(np.abs(arr).max()):
        raise NegativeEntryError(f"{name} contains a negative entry: {arr.min()}")
    return np.clip(arr, 0.0, None)


def partial_sums(values) -> np.ndarray:
    """Cumulative sums of the decreasingly sorted values, starting at 0."""
    arr = _clean_weights(values, "weight vector")
    ordered = np.sort(arr)[::-1]
    return np.concatenate([[0.0], np.cumsum(ordered)])


def first_majorization_violation(spectrum, weights):
    """First prefix length where the weights beat the spectrum, or None.

    Total-sum mismatch beyond tolerance reports the full length as the
    violating prefix.  Both inputs are zero-padded to a common length.
    """
    lam = _clean_weights(spectrum, "spectrum")
    p = _clean_weights(weights, "weights")
    n = max(lam.size, p.size)
    lam = np.pad(lam, (0, n - lam.size))
    p = np.pad(p, (0, n - p.size))
    sums_lam = partial_sums(lam)
    sums_p = partial_sums(p)
    scale = float(sums_lam[-1])
    # written as "not <=" so that NaN counts as a violation
    for m in range(1, n + 1):
        if not sums_p[m] <= sums_lam[m] + MAJORIZE_TOL * scale:
            return m
    if not abs(sums_p[-1] - sums_lam[-1]) <= MAJORIZE_TOL * scale:
        return n
    return None


def majorizes(spectrum, weights) -> bool:
    """True iff every sorted prefix of weights is dominated and totals agree."""
    return first_majorization_violation(spectrum, weights) is None


def nielsen_decomposition(tau: StateOperator, weights) -> Decomposition:
    """Decomposition of tau whose vector norms squared equal ``weights``.

    Requires the weights to be majorized by the spectrum of tau.  The
    spectral decomposition is driven to the sorted target weights by at
    most n - 1 two-coordinate averaging steps; each step mixes a pair of
    vectors by a real plane rotation, which leaves the reconstruction
    unchanged, and pins one coordinate to its target.  The output order
    follows ``weights`` as given.
    """
    p = _clean_weights(weights, "weights")
    lam = tau.spectrum.eigenvalues
    violation = first_majorization_violation(lam, p)
    if violation is not None:
        raise NotMajorizedError(
            f"weights are not majorized by the spectrum (prefix {violation})",
            violated_prefix=violation,
        )
    n = p.size
    order = np.argsort(-p, kind="stable")
    target = p[order]

    spectral = spectral_decomposition(tau)
    vectors = pad_to_length(spectral, max(n, spectral.length)).vectors[:n].copy()
    current = np.pad(lam, (0, max(0, n - lam.size)))[:n].copy()

    snap = EIG_NOISE_FLOOR * float(current.max(initial=0.0))
    for _ in range(2 * n + 2):
        excess = np.nonzero(current - target > snap)[0]
        if excess.size == 0:
            break
        j = int(excess[0])
        deficit = np.nonzero((target - current > snap) & (np.arange(n) > j))[0]
        if deficit.size == 0:
            break  # totals agree, so residuals are below snap
        k = int(deficit[0])
        delta = min(current[j] - target[j], target[k] - current[k])
        denom = current[j] - current[k]
        t = delta / denom
        s = np.sqrt(t)
        c = np.sqrt(1.0 - t)
        top = c * vectors[j] + s * vectors[k]
        bottom = -s * vectors[j] + c * vectors[k]
        vectors[j] = top
        vectors[k] = bottom
        if current[j] - target[j] <= target[k] - current[k]:
            current[k] += current[j] - target[j]
            current[j] = target[j]
        else:
            current[j] -= target[k] - current[k]
            current[k] = target[k]

    unsort = np.empty(n, dtype=int)
    unsort[order] = np.arange(n)
    return Decomposition(vectors[unsort])


def _check_decompositions(first: Decomposition, second: Decomposition, tau: StateOperator):
    for label, deco in (("first", first), ("second", second)):
        if not is_decomposition_of(deco, tau):
            raise NotADecompositionError(
                f"{label} vector list does not reconstruct the target operator"
            )


def pairing_gap(
    first: Decomposition, second: Decomposition, tau: StateOperator, m: int
) -> float:
    """Top-m eigenvalue sum minus the index-paired overlap sum of two decompositions.

    Both lists must decompose ``tau``; the overlaps are paired by index
    with no sorting, and the gap is nonnegative up to floating error.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    _check_decompositions(first, second, tau)
    lam = tau.spectrum.eigenvalues
    top = float(np.sum(lam[: min(m, lam.size)]))
    upto = min(m, first.length, second.length)
    overlaps = np.abs(
        np.sum(first.vectors[:upto].conj() * second.vectors[:upto], axis=1)
    )
    return top - float(np.sum(overlaps))


def certify_equality(
    first: Decomposition, second: Decomposition, tau: StateOperator, m: int
) -> EqualityCertificate:
    """Certify the equality case of the pairing bound for the leading m vectors.

    Equality requires the gap to vanish, each leading vector of ``first``
    to be an eigenvector for the matching decreasing eigenvalue, and
    ``second`` to differ from ``first`` by unimodular phases only.  The
    phases are recovered as overlap / eigenvalue; indices with
    numerically zero eigenvalue are skipped (phase fixed to 1) since any
    phase works there.  Every residual is held to ``CERTIFY_TOL``.
    """
    gap = pairing_gap(first, second, tau, m)
    lam = tau.spectrum.eigenvalues
    rank = tau.spectrum.rank()
    scale = float(lam[0])
    upto = min(m, first.length, second.length)

    residuals = [abs(gap)]
    phases = np.ones(upto, dtype=np.complex128)
    ok = gap <= CERTIFY_TOL * scale
    for j in range(upto):
        chi = first.vectors[j]
        lam_j = float(lam[j]) if j < lam.size else 0.0
        eig_res = float(np.linalg.norm(tau.matrix @ chi - lam_j * chi))
        residuals.append(eig_res)
        if eig_res > CERTIFY_TOL * scale:
            ok = False
        if j < rank:
            overlap = complex(np.vdot(chi, second.vectors[j]))
            eps = overlap / lam_j
            phases[j] = eps
            unit_res = abs(abs(eps) - 1.0)
            vec_res = float(np.linalg.norm(second.vectors[j] - eps * chi))
            residuals.extend([unit_res, vec_res])
            if unit_res > CERTIFY_TOL or vec_res > CERTIFY_TOL * scale:
                ok = False
        else:
            # zero-weight vector: phase unrecoverable, only sizes must match
            residuals.append(float(np.linalg.norm(second.vectors[j]) ** 2))

    return EqualityCertificate(
        holds=bool(ok),
        m=m,
        phases=phases if ok else None,
        max_residual=float(max(residuals)),
    )
