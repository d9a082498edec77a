import numpy as np
import pytest

from conftest import random_state
from pairdecomp import (
    NegativeEntryError,
    NotADecompositionError,
    NotMajorizedError,
    Decomposition,
    certify_equality,
    fidelity,
    first_majorization_violation,
    hermitian_eig,
    is_decomposition_of,
    majorizes,
    nielsen_decomposition,
    pairing_gap,
    partial_sums,
    random_decomposition,
    spectral_decomposition,
)
from pairdecomp import StateOperator


def diag_state(*values):
    return StateOperator.from_matrix(np.diag(values).astype(complex))


def averaged_weights(rng, spectrum, steps=6):
    """Apply random two-coordinate averagings; the result stays majorized."""
    p = np.array(spectrum, dtype=float)
    n = p.size
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        t = rng.uniform(0.0, 0.5)
        pi, pj = p[i], p[j]
        p[i] = (1 - t) * pi + t * pj
        p[j] = t * pi + (1 - t) * pj
    rng.shuffle(p)
    return p


# ---------------------------------------------------------------- majorizes

def test_majorizes_textbook_cases():
    assert majorizes([0.75, 0.25], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.75, 0.25])
    assert majorizes([0.4, 0.35, 0.25], [0.4, 0.35, 0.25])


def test_majorizes_requires_matching_totals():
    assert not majorizes([0.75, 0.25], [0.5, 0.25])
    assert first_majorization_violation([0.75, 0.25], [0.5, 0.25]) == 2


def test_majorizes_pads_unequal_lengths():
    assert majorizes([1.0, 0.0, 0.0], [0.5, 0.25, 0.25])
    assert majorizes([1.0], [0.5, 0.25, 0.25])


def test_majorizes_rejects_negative_entries():
    with pytest.raises(NegativeEntryError):
        majorizes([0.5, -0.5], [0.0, 0.0])


def test_partial_sums_shape():
    sums = partial_sums([0.25, 0.75, 0.5])
    np.testing.assert_allclose(sums, [0.0, 0.75, 1.25, 1.5], atol=1e-15)
    assert np.all(np.diff(sums) >= 0)
    assert np.all(np.diff(np.diff(sums)) <= 1e-15)


# ---------------------------------------------------------------- nielsen

def test_nielsen_spectrum_weights_give_spectral_decomposition():
    rng = np.random.default_rng(0)
    tau = random_state(rng, 4)
    lam = hermitian_eig(tau.matrix).eigenvalues
    deco = nielsen_decomposition(tau, lam)
    np.testing.assert_allclose(deco.vectors, spectral_decomposition(tau).vectors, atol=1e-12)


def test_nielsen_hand_example():
    tau = diag_state(0.75, 0.25)
    deco = nielsen_decomposition(tau, [0.5, 0.5])
    np.testing.assert_allclose(deco.norms_squared, [0.5, 0.5], atol=1e-12)
    assert is_decomposition_of(deco, tau)
    # hand expansion: entries have moduli sqrt(0.375) and sqrt(0.125)
    np.testing.assert_allclose(
        np.abs(deco.vectors),
        [[np.sqrt(0.375), np.sqrt(0.125)], [np.sqrt(0.375), np.sqrt(0.125)]],
        atol=1e-12,
    )


def test_nielsen_uniform_weights():
    rng = np.random.default_rng(1)
    tau = random_state(rng, 5, normalize=False)
    uniform = np.full(5, tau.trace / 5)
    deco = nielsen_decomposition(tau, uniform)
    np.testing.assert_allclose(deco.norms_squared, uniform, atol=1e-9)
    assert is_decomposition_of(deco, tau)


@pytest.mark.parametrize("seed", range(10))
def test_nielsen_random_averaged_targets(seed):
    rng = np.random.default_rng(100 + seed)
    tau = random_state(rng, 5)
    lam = hermitian_eig(tau.matrix).eigenvalues
    weights = averaged_weights(rng, lam)
    deco = nielsen_decomposition(tau, weights)
    np.testing.assert_allclose(deco.norms_squared, weights, atol=1e-9)
    assert is_decomposition_of(deco, tau)
    # round trip: the produced norms are again majorized by the spectrum
    assert majorizes(lam, deco.norms_squared)


def test_nielsen_longer_weight_lists():
    tau = diag_state(0.6, 0.4)
    weights = [0.3, 0.3, 0.2, 0.2]
    deco = nielsen_decomposition(tau, weights)
    assert deco.length == 4
    np.testing.assert_allclose(deco.norms_squared, weights, atol=1e-9)
    assert is_decomposition_of(deco, tau)


def test_nielsen_rejects_unmajorized():
    tau = diag_state(0.5, 0.5)
    with pytest.raises(NotMajorizedError) as info:
        nielsen_decomposition(tau, [0.75, 0.25])
    assert info.value.violated_prefix == 1


def test_nielsen_weights_are_compared_with_a_small_trace():
    tau = diag_state(0.6e-12, 0.4e-12)
    with pytest.raises(NotMajorizedError) as info:
        nielsen_decomposition(tau, [1e-11, 1e-11])  # total 10x the trace
    assert info.value.violated_prefix == 1
    deco = nielsen_decomposition(tau, [0.5e-12, 0.5e-12])
    np.testing.assert_allclose(deco.norms_squared, [0.5e-12, 0.5e-12], rtol=1e-9)
    assert is_decomposition_of(deco, tau)


# ---------------------------------------------------------------- pairing gap

def test_gap_zero_for_identical_spectral_decompositions():
    rng = np.random.default_rng(2)
    tau = random_state(rng, 4)
    deco = spectral_decomposition(tau)
    for m in range(1, 5):
        assert abs(pairing_gap(deco, deco, tau, m)) <= 1e-10


def test_gap_zero_under_phase_twists():
    rng = np.random.default_rng(3)
    tau = random_state(rng, 4)
    deco = spectral_decomposition(tau)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    twisted = Decomposition(deco.vectors * phases[:, None])
    for m in range(1, 5):
        assert abs(pairing_gap(deco, twisted, tau, m)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_gap_nonnegative_for_random_remixes(seed):
    rng = np.random.default_rng(200 + seed)
    dim = int(rng.integers(2, 7))
    tau = random_state(rng, dim, normalize=False)
    length = int(rng.integers(dim, dim + 3))
    for trial in range(40):
        first = random_decomposition(tau, length, seed=1000 * seed + trial)
        second = random_decomposition(tau, length, seed=2000 * seed + trial)
        for m in range(1, dim + 1):
            assert pairing_gap(first, second, tau, m) >= -1e-8


def test_gap_matches_self_fidelity_at_full_size():
    # the bound at m = d is trace(tau), which equals the self fidelity
    rng = np.random.default_rng(4)
    tau = random_state(rng, 4, normalize=False)
    first = random_decomposition(tau, 4, seed=11)
    second = random_decomposition(tau, 4, seed=12)
    gap = pairing_gap(first, second, tau, 4)
    overlaps = np.abs(np.sum(first.vectors.conj() * second.vectors, axis=1))
    assert abs((fidelity(tau, tau) - np.sum(overlaps)) - gap) <= 1e-9
    assert fidelity(tau, tau) >= np.sum(overlaps) - 1e-9


def test_gap_rejects_wrong_operator():
    rng = np.random.default_rng(5)
    tau = random_state(rng, 3)
    other = random_state(rng, 3)
    deco = spectral_decomposition(tau)
    with pytest.raises(NotADecompositionError):
        pairing_gap(deco, deco, other, 1)


def test_single_decomposition_corollary():
    # with the same list on both sides the gap bounds the norm partial sums
    rng = np.random.default_rng(6)
    tau = random_state(rng, 5, normalize=False)
    lam = hermitian_eig(tau.matrix).eigenvalues
    deco = random_decomposition(tau, 5, seed=21)
    for m in range(1, 6):
        gap = pairing_gap(deco, deco, tau, m)
        direct = np.sum(lam[:m]) - np.sum(deco.norms_squared[:m])
        assert abs(gap - direct) <= 1e-10


# ---------------------------------------------------------------- certification

def test_certify_self_pair():
    rng = np.random.default_rng(7)
    tau = random_state(rng, 4)
    deco = spectral_decomposition(tau)
    cert = certify_equality(deco, deco, tau, 4)
    assert cert.holds
    np.testing.assert_allclose(cert.phases, np.ones(4), atol=1e-10)
    assert cert.max_residual <= 1e-10


def test_certify_recovers_imaginary_phase():
    rng = np.random.default_rng(8)
    tau = random_state(rng, 3)
    deco = spectral_decomposition(tau)
    twisted = Decomposition(deco.vectors * 1j)
    cert = certify_equality(deco, twisted, tau, 3)
    assert cert.holds
    np.testing.assert_allclose(cert.phases, 1j * np.ones(3), atol=1e-10)
    assert np.max(np.abs(np.abs(cert.phases) - 1.0)) <= 1e-10


def test_certify_past_the_rank_fixes_the_phase_to_one():
    # m = 3 > rank 2: the third vector is an exact zero on a zero eigenvalue
    tau = diag_state(0.5, 0.5, 0.0)
    deco = spectral_decomposition(tau)
    cert = certify_equality(deco, deco, tau, 3)
    assert cert.holds
    np.testing.assert_allclose(cert.phases, np.ones(3), atol=1e-12)
    assert cert.phases[2] == 1.0
    assert cert.max_residual <= 1e-10


def test_certify_rejects_generic_remix():
    rng = np.random.default_rng(9)
    tau = random_state(rng, 4)
    found_gap = False
    for trial in range(20):
        first = random_decomposition(tau, 4, seed=300 + trial)
        second = random_decomposition(tau, 4, seed=400 + trial)
        if pairing_gap(first, second, tau, 2) > 0.01:
            cert = certify_equality(first, second, tau, 2)
            assert not cert.holds
            assert cert.phases is None
            found_gap = True
    assert found_gap
