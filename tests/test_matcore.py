import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_complex, random_hermitian, random_psd_matrix, random_unit_vector
from pairdecomp import (
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SingularOperatorError,
    StateOperator,
    geometric_mean,
    hermitian_eig,
    psd_sqrt,
)
import pairdecomp
from pairdecomp import matcore
from pairdecomp.matcore import _round_robin_step, psd_spectrum, require_square


def characteristic_roots(a):
    """Independent oracle: char-poly coefficients by Faddeev-LeVerrier
    (pure matrix products), roots via the companion matrix."""
    n = a.shape[0]
    m = np.eye(n, dtype=complex)
    coeffs = [1.0 + 0j]
    for k in range(1, n + 1):
        m = a @ m
        c = -np.trace(m) / k
        coeffs.append(c)
        m = m + c * np.eye(n)
    return np.roots(coeffs)


# ---------------------------------------------------------------- eigensolver

def test_eig_diagonal_sorted_decreasing():
    eig = hermitian_eig(np.diag([0.25, 0.75]).astype(complex))
    np.testing.assert_allclose(eig.eigenvalues, [0.75, 0.25], atol=1e-14)


def test_eig_pauli_x():
    eig = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-14)
    expected = np.array([1.0, 1.0]) / np.sqrt(2)
    # eigenvectors are fixed only up to phase; compare moduli
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), expected, atol=1e-12)
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), expected, atol=1e-12)


def test_eig_matches_companion_matrix_oracle():
    rng = np.random.default_rng(42)
    a = random_hermitian(rng, 6)
    roots = np.sort(characteristic_roots(a).real)[::-1]
    eig = hermitian_eig(a)
    np.testing.assert_allclose(eig.eigenvalues, roots, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eig_invariants(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    eig = hermitian_eig(a)
    scale = max(1.0, np.linalg.norm(a))
    v = eig.eigenvectors
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    rec = (v * eig.eigenvalues) @ v.conj().T
    assert np.linalg.norm(rec - a) <= 1e-10 * scale
    assert np.all(np.diff(eig.eigenvalues) <= 1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_eig_trace_equals_eigenvalue_sum(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 6)
    eig = hermitian_eig(a)
    tr = np.trace(a).real
    assert abs(np.sum(eig.eigenvalues) - tr) <= 1e-10 * max(1.0, abs(tr))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.zeros((2, 3), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_are_rejected(bad):
    # rejected up front, not after an exhausted sweep budget
    a = np.eye(32, dtype=complex)
    a[3, 3] = bad
    with pytest.raises(NotHermitianError, match="non-finite"):
        require_square(a)
    with pytest.raises(NotHermitianError):
        hermitian_eig(a)


def test_empty_matrix_is_rejected():
    # a 0 x 0 operator has no lambda_max or norm to scale a check by
    with pytest.raises(NotHermitianError, match="nonempty"):
        require_square(np.zeros((0, 0)))
    with pytest.raises(NotHermitianError):
        StateOperator.from_matrix(np.zeros((0, 0)))


def test_eig_sweep_budget(monkeypatch):
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 6)
    monkeypatch.setattr(matcore, "_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergenceError):
        hermitian_eig(a)


def test_eig_zero_matrix():
    eig = hermitian_eig(np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))


@pytest.mark.parametrize("m", range(2, 131, 2))
def test_round_robin_schedule_meets_every_pair_once_per_sweep(m):
    step = _round_robin_step(m)
    assert not step.flags.writeable
    order = np.arange(m)
    met = set()
    for _ in range(m - 1):
        assert sorted(order) == list(range(m))
        met.update(frozenset(pair) for pair in order.reshape(-1, 2).tolist())
        order = order.take(step)
    assert len(met) == m * (m - 1) // 2
    np.testing.assert_array_equal(order, np.arange(m))


def assert_eig_invariants(a, eig):
    n = a.shape[0]
    v = eig.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
    rec = (v * eig.eigenvalues) @ v.conj().T
    assert np.linalg.norm(rec - a) <= 1e-12 * np.linalg.norm(a)
    assert np.all(np.diff(eig.eigenvalues) <= 0.0)
    reference = np.linalg.eigvalsh(a)[::-1]
    lam_max = np.max(np.abs(reference))
    assert np.max(np.abs(eig.eigenvalues - reference)) <= 1e-12 * lam_max


@pytest.mark.parametrize("dim", [1, 7, 9, 31, 33, 64])
def test_eig_matches_lapack_at_odd_and_large_orders(dim):
    # odd orders run with one padded zero row and column
    a = random_hermitian(np.random.default_rng(dim), dim)
    assert_eig_invariants(a, hermitian_eig(a))


def test_eig_keeps_exactly_zero_couplings_zero():
    # no rotation may mix the two blocks, so the eigenvectors split exactly
    rng = np.random.default_rng(21)
    a = np.zeros((9, 9), dtype=complex)
    a[:4, :4] = random_hermitian(rng, 4)
    a[4:, 4:] = random_hermitian(rng, 5) + 10.0 * np.eye(5)
    eig = hermitian_eig(a)
    assert_eig_invariants(a, eig)
    v = eig.eigenvectors
    assert np.all(v[:4, :5] == 0.0) and np.all(v[4:, 5:] == 0.0)


def test_eig_degenerate_spectrum():
    rng = np.random.default_rng(22)
    x = random_complex(rng, 7)
    a = 2.0 * np.eye(7) + np.outer(x, x.conj())
    eig = hermitian_eig(a)
    assert_eig_invariants(a, eig)
    expected = [2.0 + np.vdot(x, x).real] + [2.0] * 6
    np.testing.assert_allclose(eig.eigenvalues, expected, rtol=1e-13)


def test_eig_of_a_diagonal_is_exact():
    diagonal = np.array([1.0, -2.0, 1.0, 0.0, 3.0])
    eig = hermitian_eig(np.diag(diagonal).astype(complex))
    np.testing.assert_array_equal(eig.eigenvalues, [3.0, 1.0, 1.0, 0.0, -2.0])
    # equal eigenvalues keep their index order
    np.testing.assert_array_equal(eig.eigenvectors, np.eye(5)[:, [4, 0, 2, 3, 1]])


@pytest.mark.parametrize("app, aqq", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_eig_zero_tau_rotation_ignores_the_sign_of_zero(app, aqq):
    # tau = (aqq - app) / (2 |apq|) is zero: the tau >= 0 branch, t = +1, for either sign
    def pivot(app, aqq):
        return np.array([[app, 1.0 + 1.0j], [1.0 - 1.0j, aqq]])

    eig = hermitian_eig(pivot(app, aqq))
    assert_eig_invariants(pivot(app, aqq), eig)
    np.testing.assert_allclose(eig.eigenvalues, [np.sqrt(2.0), -np.sqrt(2.0)], rtol=1e-14)
    expected = [[np.sqrt(0.5), np.sqrt(0.5)], [(1.0 - 1.0j) / 2.0, (1.0j - 1.0) / 2.0]]
    np.testing.assert_allclose(eig.eigenvectors, expected, atol=1e-15)
    positive = hermitian_eig(pivot(0.0, 0.0))
    assert eig.eigenvectors.tobytes() == positive.eigenvectors.tobytes()


def test_eig_is_repeatable_across_orders():
    # the cached schedule must carry no state from one call to the next
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 9)
    first = hermitian_eig(a)
    hermitian_eig(random_hermitian(rng, 10))
    hermitian_eig(random_hermitian(rng, 6))
    second = hermitian_eig(a)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    real=arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
    imag=arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
)
def test_eig_reconstruction_property(real, imag):
    a = real + 1j * imag
    a = (a + a.conj().T) / 2.0
    eig = hermitian_eig(a)
    v = eig.eigenvectors
    rec = (v * eig.eigenvalues) @ v.conj().T
    assert np.linalg.norm(rec - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


# ---------------------------------------------------------------- psd_sqrt

def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(
        psd_sqrt(np.diag([4.0, 1.0]).astype(complex)),
        np.diag([2.0, 1.0]),
        atol=1e-14,
    )


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_psd_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    a = random_psd_matrix(rng, 5)
    s = psd_sqrt(a)
    assert np.linalg.norm(s @ s - a) <= 1e-9 * np.linalg.norm(a)
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-12


def test_psd_sqrt_scaling():
    rng = np.random.default_rng(12)
    a = random_psd_matrix(rng, 4)
    lhs = psd_sqrt(2.5 * a)
    rhs = np.sqrt(2.5) * psd_sqrt(a)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


# ---------------------------------------------------------------- support projection

def test_support_info_diagonal():
    spectrum = psd_spectrum(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert spectrum.rank() == 2
    np.testing.assert_allclose(spectrum.projection(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(np.eye(3) - spectrum.projection(), np.diag([0.0, 0.0, 1.0]),
                               atol=1e-12)


def test_support_info_zero_operator():
    spectrum = psd_spectrum(np.zeros((3, 3), dtype=complex))
    assert spectrum.rank() == 0
    np.testing.assert_array_equal(spectrum.projection(), np.zeros((3, 3)))


def test_support_info_rank_one_projector():
    rng = np.random.default_rng(5)
    v = random_unit_vector(rng, 5)
    outer = np.outer(v, v.conj())
    spectrum = psd_spectrum(outer)
    assert spectrum.rank() == 1
    assert np.linalg.norm(spectrum.projection() - outer) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_support_projection_invariants(seed):
    rng = np.random.default_rng(seed)
    a = random_psd_matrix(rng, 6, rank=4)
    p = psd_spectrum(a).projection()
    assert np.linalg.norm(p @ p - p) <= 1e-9
    assert np.linalg.norm(p - p.conj().T) <= 1e-9
    assert np.linalg.norm(a @ p - a) <= 1e-9 * max(1.0, np.linalg.norm(a))


# ---------------------------------------------------------------- geometric mean

def test_geometric_mean_identity_operand():
    rng = np.random.default_rng(3)
    a = random_psd_matrix(rng, 4) + 0.5 * np.eye(4)
    np.testing.assert_allclose(
        geometric_mean(np.eye(4, dtype=complex), a),
        psd_sqrt(a),
        atol=1e-10,
    )


def test_geometric_mean_commuting_diagonals():
    a = np.diag([1.0, 4.0]).astype(complex)
    b = np.diag([9.0, 1.0]).astype(complex)
    np.testing.assert_allclose(geometric_mean(a, b), np.diag([3.0, 2.0]), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_geometric_mean_riccati(seed):
    rng = np.random.default_rng(seed)
    a = random_psd_matrix(rng, 4) + 0.3 * np.eye(4)
    b = random_psd_matrix(rng, 4) + 0.3 * np.eye(4)
    g = geometric_mean(a, b)
    residual = g @ np.linalg.inv(a) @ g - b
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_geometric_mean_symmetry(dim):
    rng = np.random.default_rng(dim)
    a = random_psd_matrix(rng, dim) + 0.2 * np.eye(dim)
    b = random_psd_matrix(rng, dim) + 0.2 * np.eye(dim)
    lhs = geometric_mean(a, b)
    rhs = geometric_mean(b, a)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))


def test_geometric_mean_rejects_singular():
    with pytest.raises(SingularOperatorError):
        geometric_mean(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex))


def test_no_public_callable_takes_a_rank_tol():
    """Every threshold is a constant in matcore, not a per-call knob."""
    public = []
    for name in pairdecomp.__all__:
        obj = getattr(pairdecomp, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if isinstance(obj, type):
            public += [
                (f"{name}.{attr}", member)
                for attr, member in inspect.getmembers(obj, callable)
                if not attr.startswith("_")
            ]
        if callable(obj):
            public.append((name, obj))
    takes = [
        name
        for name, obj in public
        if {"rank_tol", "tol", "max_sweeps"} & set(inspect.signature(obj).parameters)
    ]
    assert takes == []
