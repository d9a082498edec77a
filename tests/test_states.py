import numpy as np
import pytest

from conftest import random_complex, random_state, random_unit_vector
from pairdecomp import (
    Decomposition,
    DimensionMismatchError,
    LengthTooShortError,
    StateOperator,
    decomposition_from_unitary,
    haar_unitary,
    hermitian_eig,
    is_decomposition_of,
    overlap_values,
    pad_to_length,
    NotHermitianError,
    random_decomposition,
    reconstruct,
    reconstruction_error,
    spectral_decomposition,
)


def test_reconstruct_orthonormal_basis_gives_identity():
    deco = Decomposition.from_vectors([[1, 0], [0, 1]])
    np.testing.assert_allclose(reconstruct(deco).matrix, np.eye(2), atol=1e-15)


def test_reconstruct_hand_expansion():
    a = np.sqrt(0.375)
    b = np.sqrt(0.125)
    deco = Decomposition.from_vectors([[a, b], [a, -b]])
    # by hand: both outer products have diagonal (0.375, 0.125) and the
    # off-diagonal terms ab and -ab cancel
    np.testing.assert_allclose(reconstruct(deco).matrix, np.diag([0.75, 0.25]), atol=1e-15)


def test_reconstruct_empty_is_zero():
    deco = Decomposition.from_vectors([], dim=3)
    np.testing.assert_array_equal(reconstruct(deco).matrix, np.zeros((3, 3)))


def test_spectral_decomposition_is_decomposition():
    rng = np.random.default_rng(0)
    tau = random_state(rng, 4)
    deco = spectral_decomposition(tau)
    assert is_decomposition_of(deco, tau)
    # scale mismatch must fail
    assert not is_decomposition_of(deco, tau.scaled(2.0))


def test_is_decomposition_dimension_mismatch():
    deco = Decomposition.from_vectors([[1, 0]])
    tau = StateOperator.from_matrix(np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        is_decomposition_of(deco, tau)


def test_identity_remix_reproduces_spectral_decomposition():
    rng = np.random.default_rng(1)
    tau = random_state(rng, 3)
    spectral = spectral_decomposition(tau)
    remixed = decomposition_from_unitary(tau, np.eye(3, dtype=complex))
    np.testing.assert_allclose(remixed.vectors, spectral.vectors[:3], atol=1e-12)


def test_random_decomposition_reconstructs_and_preserves_trace():
    tau = StateOperator.from_matrix(np.eye(2, dtype=complex) / 2.0)
    deco = random_decomposition(tau, 4, seed=7)
    assert deco.length == 4
    assert is_decomposition_of(deco, tau)
    assert abs(np.sum(deco.norms_squared) - tau.trace) <= 1e-10


def test_random_decomposition_seeds_differ():
    rng = np.random.default_rng(2)
    tau = random_state(rng, 3)
    first = random_decomposition(tau, 3, seed=1)
    second = random_decomposition(tau, 3, seed=2)
    assert is_decomposition_of(first, tau)
    assert is_decomposition_of(second, tau)
    assert np.linalg.norm(first.vectors - second.vectors) > 1e-3


def test_random_decomposition_rejects_short_length():
    rng = np.random.default_rng(3)
    tau = random_state(rng, 4)
    with pytest.raises(LengthTooShortError):
        random_decomposition(tau, 3, seed=0)


def test_pad_appends_exact_zeros():
    deco = Decomposition.from_vectors([[1, 0], [0, 1]])
    padded = pad_to_length(deco, 4)
    assert padded.length == 4
    np.testing.assert_array_equal(padded.vectors[2:], np.zeros((2, 2)))
    assert pad_to_length(deco, 2) is deco
    with pytest.raises(LengthTooShortError):
        pad_to_length(deco, 1)


def test_pad_never_changes_reconstruction():
    rng = np.random.default_rng(4)
    tau = random_state(rng, 3)
    deco = random_decomposition(tau, 3, seed=5)
    padded = pad_to_length(deco, 7)
    assert np.linalg.norm(
        reconstruct(padded).matrix - reconstruct(deco).matrix
    ) <= 1e-12


def test_overlap_values_against_double_loop():
    rng = np.random.default_rng(5)
    first = Decomposition(random_complex(rng, (3, 4)))
    second = Decomposition(random_complex(rng, (5, 4)))
    table = overlap_values(first, second)
    assert table.shape == (3, 5)
    for j in range(3):
        for k in range(5):
            direct = abs(np.vdot(first.vectors[j], second.vectors[k]))
            assert abs(table[j, k] - direct) <= 1e-12


def test_overlap_values_identity_pattern_and_zeros():
    basis = Decomposition.from_vectors([[1, 0], [0, 1]])
    np.testing.assert_allclose(overlap_values(basis, basis), np.eye(2), atol=1e-15)
    zero = Decomposition.from_vectors([[0, 0], [0, 0]])
    np.testing.assert_array_equal(overlap_values(basis, zero), np.zeros((2, 2)))


def test_overlap_values_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        overlap_values(
            Decomposition.from_vectors([[1, 0]]),
            Decomposition.from_vectors([[1, 0, 0]]),
        )


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(6)
    u = haar_unitary(5, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_partial_sum_dominance_over_random_decompositions():
    # spectrum partial sums dominate the sorted norms of every decomposition
    rng = np.random.default_rng(7)
    for trial in range(500):
        dim = int(rng.integers(2, 9))
        tau = random_state(rng, dim, normalize=False)
        lam = hermitian_eig(tau.matrix).eigenvalues
        length = int(rng.integers(dim, dim + 3))
        deco = random_decomposition(tau, length, seed=trial)
        norms = np.sort(deco.norms_squared)[::-1]
        for m in range(1, dim + 1):
            lhs = np.sum(lam[:m])
            rhs = np.sum(norms[:m])
            assert rhs <= lhs + 1e-8


def test_partial_sum_equality_for_spectral_decomposition():
    rng = np.random.default_rng(8)
    tau = random_state(rng, 5)
    lam = hermitian_eig(tau.matrix).eigenvalues
    deco = spectral_decomposition(tau)
    norms = deco.norms_squared
    for m in range(1, 6):
        assert abs(np.sum(norms[:m]) - np.sum(lam[:m])) <= 1e-10


def test_state_operator_validation():
    with pytest.raises(Exception):
        StateOperator.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
    assert StateOperator.from_matrix(np.zeros((2, 2), dtype=complex)).spectrum.rank() == 0


def test_shape_fields_are_read_only_properties():
    assert StateOperator(np.eye(3)).dim == 3
    deco = Decomposition(np.ones((4, 3)))
    assert (deco.length, deco.dim) == (4, 3)
    with pytest.raises(TypeError):
        StateOperator(np.eye(2), dim=7)
    with pytest.raises(TypeError):
        Decomposition(np.eye(2), dim=7)
    with pytest.raises(TypeError):
        Decomposition(np.eye(2), length=3)


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1.0, 1e12])
def test_hermiticity_verdict_does_not_depend_on_scale(scale):
    # 20% anti-Hermitian at every scale; an absolute floor accepted it below 1
    skewed = scale * np.array([[1.0, 0.5], [0.4, 1.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        StateOperator.from_matrix(skewed)
    hermitian = scale * np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    assert StateOperator.from_matrix(hermitian).dim == 2


def test_zero_vectors_do_not_decompose_a_small_operator():
    tau = StateOperator.from_matrix(1e-12 * np.diag([0.6, 0.4]).astype(complex))
    zeros = Decomposition(np.zeros((2, 2), dtype=complex))
    assert reconstruction_error(zeros, tau) == 1.0
    assert not is_decomposition_of(zeros, tau)
    assert is_decomposition_of(spectral_decomposition(tau), tau)
    zero = StateOperator.from_matrix(np.zeros((2, 2), dtype=complex))
    assert reconstruction_error(zeros, zero) == 0.0
    assert not is_decomposition_of(spectral_decomposition(tau), zero)
