"""Randomized brute-force evidence for the partial-fidelity maximum.

Random decomposition pairs, scored by the best size-m pairing of their
cross overlaps, can never beat the partial fidelity; the constructive
optimum is injected as sample 0 so that attainment is asserted rather
than hoped for.  Pairings are maximized exactly by successive shortest
augmenting paths, each found by Dijkstra on Hungarian reduced costs,
because greedily picking the m largest overlaps can under-report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import MTooLargeError
from .fidelity import partial_fidelity_plus
from .matcore import SEARCH_TOL
from .optimal import optimal_pair_general
from .states import (
    Decomposition,
    StateOperator,
    overlap_values,
    pad_to_length,
    random_decomposition,
)


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

    Successive shortest augmenting paths (Edmonds & Karp, J. ACM 19, 1972),
    each found by Dijkstra from all free rows at once on the Hungarian
    reduced costs -w[r, c] - u[r] - v[c] >= 0 (Jonker & Volgenant,
    Computing 38, 1987).  After each augmentation the matching is optimal
    for its cardinality, so stopping after m rounds solves the
    cardinality-constrained problem exactly.  Weights must be nonnegative.
    """
    w = np.asarray(weights, dtype=float)
    n_rows, n_cols = w.shape
    if m > min(n_rows, n_cols):
        raise MTooLargeError(
            f"pairing size {m} exceeds min decomposition length {min(n_rows, n_cols)}"
        )
    w = w.tolist()
    # only v is stored: a matched row's u follows from its tight pair, and the
    # free rows share one u, which offsets every distance alike
    v = [0.0] * n_cols
    row_match = [-1] * n_rows
    col_match = [-1] * n_cols
    for _ in range(m):
        dist = [np.inf] * n_cols
        parent = [-1] * n_cols
        open_cols = list(range(n_cols))
        labels = [(r, 0.0) for r in range(n_rows) if row_match[r] == -1]
        while True:
            for r, base in labels:
                w_r = w[r]
                for c in open_cols:
                    d = base - w_r[c] - v[c]
                    if d < dist[c]:
                        dist[c] = d
                        parent[c] = r
            col = min(open_cols, key=dist.__getitem__)
            open_cols.remove(col)
            r = col_match[col]
            if r == -1:
                break
            labels = [(r, dist[col] + w[r][col] + v[col])]
        # v += min(dist, dist at the path's end): reduced costs stay >= 0, path tight
        v = [v_c + min(d - dist[col], 0.0) for v_c, d in zip(v, dist)]
        # walk the alternating path back to a free row
        while col != -1:
            r = parent[col]
            previous = row_match[r]
            row_match[r] = col
            col_match[col] = r
            col = previous
    return float(sum(w[r][c] for r, c in enumerate(row_match) if c != -1))


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

    exact = optimal_pair_general(rho, omega)
    psi, phi = (pad_to_length(deco, max(deco.length, m)) for deco in (exact.psi, exact.phi))
    best_value, best_seed = matching_value(psi, phi, m), seed
    for sample_seed in range(seed + 1, seed + samples):
        psi = random_decomposition(rho, len_psi, sample_seed)
        phi = random_decomposition(omega, len_phi, sample_seed + samples)
        value = matching_value(psi, phi, m)
        if value > best_value:
            best_value = value
            best_seed = sample_seed
    tol = SEARCH_TOL * np.sqrt(rho.trace * omega.trace)
    return SearchReport(
        m=m,
        samples=samples,
        best_value=float(best_value),
        best_seed=int(best_seed),
        upper_bound=float(upper),
        violation=bool(best_value > upper + tol),
        attained=bool(best_value >= upper - tol),
    )
