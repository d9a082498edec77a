import numpy as np
import pytest

from conftest import (
    cross_gram,
    random_complex,
    random_invertible,
    near_threshold_pair,
    random_state,
    random_unit_vector,
)
from pairdecomp import (
    BothZeroError,
    Decomposition,
    SingularOperatorError,
    StateOperator,
    UnequalSupportsError,
    extrapolate_to_zero,
    fidelity_spectrum,
    gauge_on_common_support,
    is_decomposition_of,
    optimal_pair,
    optimal_pair_general,
    overlap_values,
    random_decomposition,
    regularized_profile,
    solve_gauge,
    support_reduction,
    transform_decompositions,
    transform_pair,
)
from pairdecomp.optimal import _lift_through_projection
from pairdecomp.matcore import frobenius


def diag_state(*values):
    return StateOperator.from_matrix(np.diag(values).astype(complex))


def pure_state(vector):
    v = np.asarray(vector, dtype=complex)
    return StateOperator.from_matrix(np.outer(v, v.conj()))


PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


# ---------------------------------------------------------------- solve_gauge

def test_gauge_self_pair_is_identity():
    rng = np.random.default_rng(0)
    tau = random_state(rng, 4)
    gauge = solve_gauge(tau, tau)
    np.testing.assert_allclose(gauge.X, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(gauge.tau.matrix, tau.matrix, atol=1e-10)


def test_gauge_commuting_closed_form():
    rho = diag_state(0.5, 0.5)
    omega = diag_state(0.75, 0.25)
    gauge = solve_gauge(rho, omega)
    expected_x = np.diag([(0.5 / 0.75) ** 0.25, (0.5 / 0.25) ** 0.25])
    expected_tau = np.diag([np.sqrt(0.375), np.sqrt(0.125)])
    np.testing.assert_allclose(gauge.X, expected_x, atol=1e-12)
    np.testing.assert_allclose(gauge.tau.matrix, expected_tau, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_gauge_residuals(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 5)
    omega = random_state(rng, 5)
    gauge = solve_gauge(rho, omega)
    x = gauge.X
    x_inv = np.linalg.inv(x)
    tau = gauge.tau.matrix
    scale = max(1.0, frobenius(tau))
    assert frobenius(x @ omega.matrix @ x.conj().T - tau) <= 1e-8 * scale
    assert frobenius(x_inv.conj().T @ rho.matrix @ x_inv - tau) <= 1e-8 * scale
    # the paper's gauge is an independent oracle for the factor-SVD engine
    tau_spectrum = np.linalg.eigvalsh(tau)[::-1]
    np.testing.assert_allclose(tau_spectrum, optimal_pair(rho, omega).values, atol=1e-8)


def test_gauge_rejects_singular_operand():
    with pytest.raises(SingularOperatorError):
        solve_gauge(diag_state(1.0, 0.0), diag_state(0.5, 0.5))


# ---------------------------------------------------------------- optimal_pair

def test_optimal_pair_self_is_spectral():
    tau = diag_state(0.75, 0.25)
    pair = optimal_pair(tau, tau)
    np.testing.assert_allclose(pair.values, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(
        np.abs(pair.psi.vectors), np.diag([np.sqrt(0.75), np.sqrt(0.25)]), atol=1e-12
    )
    np.testing.assert_allclose(pair.psi.vectors, pair.phi.vectors, atol=1e-12)


def test_optimal_pair_commuting_values():
    pair = optimal_pair(diag_state(0.5, 0.5), diag_state(0.75, 0.25))
    np.testing.assert_allclose(pair.values, [np.sqrt(0.375), np.sqrt(0.125)], atol=1e-12)
    assert abs(np.sum(pair.values) - 0.9659258262890683) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_optimal_pair_simultaneous_attainment(seed):
    rng = np.random.default_rng(10 + seed)
    rho = random_state(rng, 6)
    omega = random_state(rng, 6)
    pair = optimal_pair(rho, omega)
    profile = fidelity_spectrum(rho, omega)
    sums = np.concatenate([[0.0], np.cumsum(pair.values)])
    for m in range(7):
        assert abs(sums[m] - profile.partial(m)) <= 1e-8
    assert is_decomposition_of(pair.psi, rho)
    assert is_decomposition_of(pair.phi, omega)


@pytest.mark.parametrize("seed", range(4))
def test_optimal_pair_biorthogonality(seed):
    rng = np.random.default_rng(20 + seed)
    rho = random_state(rng, 5)
    omega = random_state(rng, 5)
    pair = optimal_pair(rho, omega)
    gram = cross_gram(pair.psi, pair.phi)
    target = np.diag(pair.values).astype(complex)
    assert np.max(np.abs(gram - target)) <= 1e-8
    assert np.all(np.diff(pair.values) <= 1e-12)
    assert np.all(pair.values >= -1e-12)


def test_optimal_pair_equal_deficient_supports():
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    basis = u[:, :2]
    rho = StateOperator.from_matrix(basis @ np.diag([0.7, 0.3]).astype(complex) @ basis.conj().T)
    omega = StateOperator.from_matrix(basis @ np.diag([0.2, 0.8]).astype(complex) @ basis.conj().T)
    pair = optimal_pair(rho, omega)
    assert pair.psi.length == 2
    assert is_decomposition_of(pair.psi, rho)
    assert is_decomposition_of(pair.phi, omega)
    profile = fidelity_spectrum(rho, omega)
    assert abs(np.sum(pair.values) - profile.fidelity) <= 1e-8


def test_optimal_pair_rejects_unequal_supports():
    with pytest.raises(UnequalSupportsError):
        optimal_pair(diag_state(1.0, 0.0), diag_state(0.5, 0.5))


# ---------------------------------------------------------------- support reduction

def test_support_reduction_noop_for_equal_supports():
    rng = np.random.default_rng(4)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    trace = support_reduction(rho, omega)
    assert trace.steps == ()
    np.testing.assert_array_equal(trace.final_rho.matrix, rho.matrix)
    np.testing.assert_array_equal(trace.final_omega.matrix, omega.matrix)


def test_support_reduction_plus_zero_example():
    rho = pure_state(PLUS)
    omega = diag_state(1.0, 0.0)
    trace = support_reduction(rho, omega)
    assert len(trace.steps) == 1
    assert trace.steps[0].side == "rho"
    np.testing.assert_allclose(trace.final_rho.matrix, np.diag([0.5, 0.0]), atol=1e-12)
    support_rho = trace.final_rho.spectrum.projection()
    support_omega = trace.final_omega.spectrum.projection()
    np.testing.assert_allclose(support_rho, support_omega, atol=1e-9)


def test_support_reduction_orthogonal_supports_raise():
    with pytest.raises(BothZeroError):
        support_reduction(diag_state(1.0, 0.0), diag_state(0.0, 1.0))


def test_support_reduction_near_the_rank_threshold_raises_unequal_supports():
    rho, omega = (StateOperator.from_matrix(m) for m in near_threshold_pair())
    with pytest.raises(UnequalSupportsError, match=r"after 14 support-reduction steps.*RANK_TOL"):
        support_reduction(rho, omega)
    with pytest.raises(UnequalSupportsError):
        optimal_pair_general(rho, omega)


@pytest.mark.parametrize("seed", range(8))
def test_support_reduction_consistency_and_termination(seed):
    rng = np.random.default_rng(30 + seed)
    dim = int(rng.integers(3, 7))
    rho = random_state(rng, dim, rank=int(rng.integers(1, dim)))
    omega = random_state(rng, dim, rank=int(rng.integers(1, dim)))
    trace = support_reduction(rho, omega)
    assert len(trace.steps) <= 2 * dim
    ranks = {"rho": [], "omega": []}
    for step in trace.steps:
        ranks[step.side].append(step.rank_after)
    for side in ranks.values():
        assert all(b < a for a, b in zip(side, side[1:]))  # per-side strict drops
    base = fidelity_spectrum(rho, omega)
    reduced = fidelity_spectrum(trace.final_rho, trace.final_omega)
    for m in range(dim + 1):
        assert abs(base.partial(m) - reduced.partial(m)) <= 1e-8


# ---------------------------------------------------------------- lifting

@pytest.mark.parametrize("seed", range(6))
def test_lift_reconstructs_and_projects(seed):
    rng = np.random.default_rng(40 + seed)
    dim = 5
    rank = int(rng.integers(2, dim))
    target = random_state(rng, dim, rank=rank)
    qrank = int(rng.integers(1, dim))
    u, _ = np.linalg.qr(random_complex(rng, (dim, qrank)))
    projector = u @ u.conj().T
    compressed = StateOperator((projector @ target.matrix @ projector
                                + (projector @ target.matrix @ projector).conj().T) / 2)
    if frobenius(compressed.matrix) <= 1e-12:
        pytest.skip("projection annihilated the operator")
    chi = random_decomposition(compressed, max(qrank, rank), seed=seed).vectors
    lifted = _lift_through_projection(chi, target, projector)
    rec = lifted.T @ lifted.conj()
    assert np.linalg.norm(rec - target.matrix) <= 1e-8 * max(1.0, frobenius(target.matrix))
    projected = lifted @ projector.T
    np.testing.assert_allclose(projected[: chi.shape[0]], chi, atol=1e-8)
    np.testing.assert_allclose(projected[chi.shape[0]:], 0.0, atol=1e-8)


# ---------------------------------------------------------------- general pairs

def test_general_matches_plain_for_pd_pairs():
    rng = np.random.default_rng(5)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    plain = optimal_pair(rho, omega)
    general = optimal_pair_general(rho, omega)
    np.testing.assert_allclose(general.values, plain.values, atol=1e-10)
    np.testing.assert_allclose(general.psi.vectors, plain.psi.vectors, atol=1e-10)


def test_general_pure_pair_example():
    pair = optimal_pair_general(pure_state(PLUS), diag_state(1.0, 0.0))
    np.testing.assert_allclose(pair.values, [1.0 / np.sqrt(2), 0.0], atol=1e-12)
    assert is_decomposition_of(pair.psi, pure_state(PLUS))
    assert is_decomposition_of(pair.phi, diag_state(1.0, 0.0))


def test_general_common_support_line():
    rho = diag_state(0.5, 0.5, 0.0)
    omega = diag_state(0.0, 0.5, 0.5)
    pair = optimal_pair_general(rho, omega)
    assert abs(pair.values[0] - 0.5) <= 1e-12
    np.testing.assert_allclose(pair.values[1:], 0.0, atol=1e-12)
    profile = fidelity_spectrum(rho, omega)
    assert abs(profile.fidelity - 0.5) <= 1e-12
    assert is_decomposition_of(pair.psi, rho)
    assert is_decomposition_of(pair.phi, omega)


def test_general_orthogonal_supports():
    pair = optimal_pair_general(diag_state(1.0, 0.0), diag_state(0.0, 1.0))
    np.testing.assert_allclose(pair.values, 0.0, atol=1e-12)
    assert is_decomposition_of(pair.psi, diag_state(1.0, 0.0))
    assert is_decomposition_of(pair.phi, diag_state(0.0, 1.0))
    gram = cross_gram(pair.psi, pair.phi)
    assert np.max(np.abs(gram)) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_general_random_singular_pairs(seed):
    rng = np.random.default_rng(50 + seed)
    dim = int(rng.integers(3, 7))
    rho = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
    omega = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
    pair = optimal_pair_general(rho, omega)
    assert is_decomposition_of(pair.psi, rho)
    assert is_decomposition_of(pair.phi, omega)
    profile = fidelity_spectrum(rho, omega)
    sums = np.concatenate([[0.0], np.cumsum(pair.values)])
    for m in range(dim + 1):
        assert abs(sums[m] - profile.partial(m)) <= 1e-8
    gram = cross_gram(pair.psi, pair.phi)
    target = np.zeros_like(gram)
    np.fill_diagonal(target, pair.values)
    assert np.max(np.abs(gram - target)) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_general_pair_lifts_at_small_scale(seed):
    # rank 2 against rank 3: the reduction projects, so the lift must run
    rng = np.random.default_rng(80 + seed)
    rho = StateOperator.from_matrix(1e-12 * random_state(rng, 5, rank=2).matrix)
    omega = StateOperator.from_matrix(1e-12 * random_state(rng, 5, rank=3).matrix)
    pair = optimal_pair_general(rho, omega)
    for deco, target in ((pair.psi, rho), (pair.phi, omega)):
        rec = deco.vectors.T @ deco.vectors.conj()
        assert frobenius(rec - target.matrix) <= 1e-9 * frobenius(target.matrix)
        assert is_decomposition_of(deco, target)


def test_general_pair_values_at_tiny_scale():
    rng = np.random.default_rng(90)
    rho = StateOperator.from_matrix(1e-30 * random_state(rng, 4, rank=2).matrix)
    omega = StateOperator.from_matrix(1e-30 * random_state(rng, 4, rank=3).matrix)
    sigma = fidelity_spectrum(rho, omega).sigma
    assert sigma[0] > 0.0
    values = optimal_pair_general(rho, omega).values
    np.testing.assert_allclose(values[: sigma.size], sigma, rtol=0.0, atol=1e-12 * sigma[0])


# ---------------------------------------------------------------- transforms

def test_transform_pair_identity_and_unitary():
    rng = np.random.default_rng(6)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    same_rho, same_omega = transform_pair(rho, omega, np.eye(4, dtype=complex))
    np.testing.assert_allclose(same_rho.matrix, rho.matrix, atol=1e-14)
    np.testing.assert_allclose(same_omega.matrix, omega.matrix, atol=1e-14)
    u, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    new_rho, new_omega = transform_pair(rho, omega, u)
    base = fidelity_spectrum(rho, omega).sigma
    moved = fidelity_spectrum(new_rho, new_omega).sigma
    np.testing.assert_allclose(moved, base, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_transform_pair_preserves_spectrum(seed):
    rng = np.random.default_rng(60 + seed)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    x = random_invertible(rng, 4)
    new_rho, new_omega = transform_pair(rho, omega, x)
    base = fidelity_spectrum(rho, omega).sigma
    moved = fidelity_spectrum(new_rho, new_omega).sigma
    np.testing.assert_allclose(moved, base, atol=1e-8)


def test_transform_pair_rejects_ill_conditioned():
    rng = np.random.default_rng(7)
    rho = random_state(rng, 2)
    omega = random_state(rng, 2)
    with pytest.raises(SingularOperatorError):
        transform_pair(rho, omega, np.diag([1.0, 1e-15]).astype(complex))


def test_transform_decompositions_scalar():
    rng = np.random.default_rng(8)
    tau = random_state(rng, 3)
    psi = random_decomposition(tau, 3, seed=1)
    phi = random_decomposition(tau, 3, seed=2)
    new_psi, new_phi = transform_decompositions(psi, phi, 2.0 * np.eye(3, dtype=complex))
    np.testing.assert_allclose(new_psi.vectors, 2.0 * psi.vectors, atol=1e-14)
    np.testing.assert_allclose(new_phi.vectors, 0.5 * phi.vectors, atol=1e-14)
    np.testing.assert_allclose(
        overlap_values(new_psi, new_phi), overlap_values(psi, phi), atol=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_transform_decompositions_preserve_overlaps(seed):
    rng = np.random.default_rng(70 + seed)
    rho = random_state(rng, 4)
    omega = random_state(rng, 4)
    psi = random_decomposition(rho, 5, seed=3)
    phi = random_decomposition(omega, 4, seed=4)
    x = random_invertible(rng, 4)
    new_psi, new_phi = transform_decompositions(psi, phi, x)
    np.testing.assert_allclose(
        overlap_values(new_psi, new_phi), overlap_values(psi, phi), atol=1e-9
    )
    new_rho, new_omega = transform_pair(rho, omega, x)
    assert is_decomposition_of(new_psi, new_rho)
    assert is_decomposition_of(new_phi, new_omega)


# ---------------------------------------------------------------- regularization

def test_regularized_profile_noop_for_pd():
    rng = np.random.default_rng(9)
    rho = random_state(rng, 3)
    omega = random_state(rng, 3)
    base = fidelity_spectrum(rho, omega).sigma
    for c in (1e-2, 1e-6):
        np.testing.assert_allclose(
            regularized_profile(rho, omega, c).sigma, base, atol=1e-12
        )


def test_regularized_profile_pure_pair_converges():
    rho = pure_state(PLUS)
    omega = diag_state(1.0, 0.0)
    exact = 1.0 / np.sqrt(2)
    deviations = []
    for c in (1e-2, 1e-4, 1e-6):
        value = regularized_profile(rho, omega, c).partial(1)
        deviations.append(abs(value - exact))
    assert deviations[0] > deviations[1] > deviations[2]
    # leading deviation scales like sqrt(c)
    assert deviations[2] <= 10.0 * np.sqrt(1e-6)


def test_regularized_profile_cauchy_convergence():
    rng = np.random.default_rng(10)
    rho = random_state(rng, 4, rank=2)
    omega = random_state(rng, 4, rank=3)
    values = {
        c: regularized_profile(rho, omega, c).fidelity
        for c in (1e-2, 1e-4, 1e-6, 1e-8)
    }
    assert abs(values[1e-6] - values[1e-8]) < abs(values[1e-2] - values[1e-4])


def test_regularized_profile_rejects_nonpositive_c():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 2)
    with pytest.raises(ValueError):
        regularized_profile(rho, rho, 0.0)
    with pytest.raises(ValueError):
        regularized_profile(rho, rho, float("nan"))
    with pytest.raises(ValueError):
        regularized_profile(rho, rho, float("inf"))


def test_regularized_profile_matches_the_regularized_operators():
    # reference: the profile of the operators rho + c P0 and omega + c Q0 themselves,
    # each decomposed afresh
    rng = np.random.default_rng(12)
    for trial in range(12):
        dim = 2 + trial % 5
        rho = random_state(rng, dim, rank=int(rng.integers(1, dim)))
        omega = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
        p0 = np.eye(dim) - rho.spectrum.projection()
        q0 = np.eye(dim) - omega.spectrum.projection()
        for c in (1e-2, 1e-4, 1e-6):
            reference = fidelity_spectrum(
                StateOperator(rho.matrix + c * rho.trace * p0),
                StateOperator(omega.matrix + c * omega.trace * q0),
            )
            np.testing.assert_allclose(
                regularized_profile(rho, omega, c).cumulative, reference.cumulative,
                rtol=0.0, atol=1e-12 * reference.fidelity,
            )


def test_extrapolate_to_zero_polynomial():
    nodes = [0.1, 0.01, 0.001]
    samples = [3.0 + 2.0 * h + 5.0 * h * h for h in nodes]
    assert abs(extrapolate_to_zero(nodes, samples) - 3.0) <= 1e-10


def test_gauge_on_common_support_embeds_reduced_gauge():
    rho = pure_state(PLUS)
    omega = diag_state(1.0, 0.0)
    gauge = gauge_on_common_support(rho, omega)
    assert gauge.working_dim == 1
    trace = support_reduction(rho, omega)
    x = gauge.X
    tau = gauge.tau.matrix
    assert frobenius(x @ trace.final_omega.matrix @ x.conj().T - tau) <= 1e-8
    x_inv = np.linalg.inv(x)
    assert frobenius(x_inv.conj().T @ trace.final_rho.matrix @ x_inv - tau) <= 1e-8
