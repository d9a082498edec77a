"""Randomized brute-force evidence for the partial-fidelity maximum.

Random decomposition pairs, scored by the best size-m pairing of their
cross overlaps, can never beat the partial fidelity; the constructive
optimum is injected as sample 0 so that attainment is asserted rather
than hoped for.  Pairings are maximized exactly by an augmenting-path
assignment solver, because greedily picking the m largest overlaps can
under-report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import MTooLargeError
from .fidelity import partial_fidelity_plus
from .optimal import optimal_pair_general
from .states import (
    Decomposition,
    StateOperator,
    overlap_values,
    pad_to_length,
    random_decomposition,
)

#: slack against the exact optimum, relative to sqrt(tr rho * tr omega)
SEARCH_TOL = 1e-8


@dataclass(frozen=True)
class SearchReport:
    """Result of a randomized search over decomposition pairs."""

    m: int
    samples: int
    best_value: float
    best_seed: int
    upper_bound: float
    violation: bool
    attained: bool


def max_weight_matching_value(weights: np.ndarray, m: int) -> float:
    """Maximum total weight over injective pairings of at most m row/column pairs.

    Successive shortest augmenting paths on the residual graph; after
    each augmentation the matching is optimal for its cardinality, so
    stopping after m rounds solves the cardinality-constrained problem
    exactly.  Weights must be nonnegative.
    """
    w = np.asarray(weights, dtype=float)
    slack = 5 * np.finfo(float).eps * float(w.max(initial=0.0))  # a few ulps of max w
    n_rows, n_cols = w.shape
    if m > min(n_rows, n_cols):
        raise MTooLargeError(
            f"pairing size {m} exceeds min decomposition length {min(n_rows, n_cols)}"
        )
    row_match = [-1] * n_rows
    col_match = [-1] * n_cols
    total = 0.0
    for _ in range(m):
        # Bellman-Ford over the residual graph, costs are negated weights
        dist_row = [0.0 if row_match[r] == -1 else np.inf for r in range(n_rows)]
        dist_col = [np.inf] * n_cols
        parent_col = [-1] * n_cols
        for _ in range(n_rows + n_cols):
            improved = False
            for r in range(n_rows):
                dr = dist_row[r]
                if dr == np.inf:
                    continue
                for c in range(n_cols):
                    if col_match[c] == r:
                        continue
                    nd = dr - w[r, c]
                    if nd < dist_col[c] - slack:
                        dist_col[c] = nd
                        parent_col[c] = r
                        improved = True
            for c in range(n_cols):
                r = col_match[c]
                if r != -1 and dist_col[c] != np.inf:
                    nd = dist_col[c] + w[r, c]
                    if nd < dist_row[r] - slack:
                        dist_row[r] = nd
                        improved = True
            if not improved:
                break
        free_cols = [c for c in range(n_cols) if col_match[c] == -1]
        best_col = min(free_cols, key=lambda c: dist_col[c])
        total -= dist_col[best_col]
        # walk the alternating path back to a free row
        c = best_col
        while c != -1:
            r = parent_col[c]
            previous = row_match[r]
            row_match[r] = c
            col_match[c] = r
            c = previous
    return total


def matching_value(psi: Decomposition, phi: Decomposition, m: int) -> float:
    """Best sum of m cross overlaps under an injective index pairing."""
    return max_weight_matching_value(overlap_values(psi, phi), m)


def random_search(
    rho: StateOperator,
    omega: StateOperator,
    m: int,
    lengths: tuple[int, int],
    samples: int,
    seed: int,
) -> SearchReport:
    """Search random decomposition pairs for the best size-m pairing value.

    Sample 0 is the constructive optimal pair; samples i >= 1 draw
    independent random decompositions with seeds ``seed + i``.  The best
    value found is compared against the partial fidelity: exceeding it
    flags a violation (an implementation bug, not a statistical event),
    and reaching it marks the optimum as attained.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    upper = partial_fidelity_plus(rho, omega, m)
    len_psi, len_phi = lengths

    best_value = -np.inf
    best_seed = seed
    for index in range(samples):
        if index == 0:
            exact = optimal_pair_general(rho, omega)
            psi = pad_to_length(exact.psi, max(exact.psi.length, m))
            phi = pad_to_length(exact.phi, max(exact.phi.length, m))
        else:
            sample_seed = seed + index
            psi = random_decomposition(rho, len_psi, sample_seed)
            phi = random_decomposition(omega, len_phi, sample_seed + samples)
        value = matching_value(psi, phi, m)
        if value > best_value:
            best_value = value
            best_seed = seed + index
    slack = SEARCH_TOL * np.sqrt(rho.trace * omega.trace)
    return SearchReport(
        m=m,
        samples=samples,
        best_value=float(best_value),
        best_seed=int(best_seed),
        upper_bound=float(upper),
        violation=bool(best_value > upper + slack),
        attained=bool(best_value >= upper - slack),
    )
