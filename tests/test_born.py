import math
from itertools import combinations, product as iter_product

import numpy as np
import pytest

from indlab import born

RNG = np.random.Generator(np.random.Philox(key=[2024, 0]))


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return born.Observable((m + m.conj().T) / 2)


def random_vector_state(dim, rng=RNG):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return born.State(v / np.linalg.norm(v))


def random_density_state(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return born.State(rho / np.trace(rho).real)


class TestTypes:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            born.Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            born.Observable(np.zeros((2, 3)))

    def test_vector_norm_checked(self):
        with pytest.raises(ValueError, match="squared norm"):
            born.State(np.array([1.0, 1.0]))

    def test_density_checks(self):
        with pytest.raises(ValueError, match="trace"):
            born.State(np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            born.State(np.diag([1.5, -0.5]))

    def test_measure_normalization(self):
        with pytest.raises(ValueError, match="sum to"):
            born.BornMeasure((0.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValueError, match="negative"):
            born.BornMeasure((0.0, 1.0), (1.2, -0.2))


def validate_spectrum(spec, observable=None):
    """The oracle for spectral_decompose: the projections are idempotent,
    Hermitian, mutually orthogonal and resolve the identity, within 1e-10,
    and, given the observable, rebuild it within 1e-8."""
    def close(m, target, tol=1e-10):
        return np.max(np.abs(m - target)) <= tol

    for e in spec.projections:
        assert close(e @ e, e), "projection is not idempotent"
        assert close(e, e.conj().T), "projection is not Hermitian"
    for i, j in combinations(range(len(spec.projections)), 2):
        assert close(spec.projections[i] @ spec.projections[j], 0), \
            "projections are not mutually orthogonal"
    dim = spec.projections[0].shape[0]
    assert close(sum(spec.projections), np.eye(dim)), "projections do not resolve the identity"
    if observable is not None:
        rebuilt = sum(l * e for l, e in zip(spec.eigenvalues, spec.projections))
        assert close(rebuilt, observable.matrix, 1e-8), "spectral reconstruction failed"


class TestSpectralDecompose:
    def test_diagonal(self):
        spec = born.spectral_decompose(born.Observable(np.diag([0.0, 1.0])))
        assert spec.eigenvalues == (0.0, 1.0)
        assert np.allclose(spec.projections[0], np.diag([1, 0]))
        assert np.allclose(spec.projections[1], np.diag([0, 1]))

    def test_degenerate_diagonal(self):
        spec = born.spectral_decompose(born.Observable(np.diag([1.0, 1.0, 0.0])))
        assert spec.eigenvalues == (0.0, 1.0)
        ranks = [round(np.trace(p).real) for p in spec.projections]
        assert ranks == [1, 2]

    def test_pauli_x_hand_values(self):
        a = born.Observable(np.array([[0, 1], [1, 0]], dtype=float))
        spec = born.spectral_decompose(a)
        assert spec.eigenvalues == pytest.approx((-1.0, 1.0))
        assert np.allclose(spec.projections[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        assert np.allclose(spec.projections[1], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        validate_spectrum(spec, a)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_invariants_random(self, dim):
        a = random_hermitian(dim)
        validate_spectrum(born.spectral_decompose(a), a)

    def test_invariants_degenerate_random(self):
        # built from a random unitary with repeated eigenvalues
        q, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
        a = born.Observable(q @ np.diag([2.0, 2.0, -1.0, -1.0]) @ q.conj().T)
        spec = born.spectral_decompose(a)
        assert len(spec.eigenvalues) == 2
        validate_spectrum(spec, a)

    def test_merge_tolerance(self):
        a = born.Observable(np.diag([0.0, 1e-12, 1.0]))
        spec = born.spectral_decompose(a)
        assert len(spec.eigenvalues) == 2


class TestBornMeasure:
    def test_fair_quantum_coin(self):
        psi = born.State(np.array([1, 1]) / math.sqrt(2))
        mu = born.born_measure(psi, born.Observable(np.diag([0.0, 1.0])))
        assert mu.outcomes == (0.0, 1.0)
        assert mu.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_eigenstate_point_mass(self):
        psi = born.State(np.array([1.0, 0.0]))
        mu = born.born_measure(psi, born.Observable(np.diag([0.0, 1.0])))
        assert mu.probabilities == (1.0, 0.0)

    def test_degenerate_density(self):
        rho = born.State(np.eye(3) / 3)
        mu = born.born_measure(rho, born.Observable(np.diag([5.0, 5.0, 7.0])))
        assert mu.outcomes == (5.0, 7.0)
        assert mu.probabilities == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            born.born_measure(random_vector_state(2), random_hermitian(3))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_moment_identity_uniqueness_witness(self, dim):
        # sum f(lambda) mu(lambda) == omega(f(a)) for polynomials up to deg 4
        for state_maker in (random_vector_state, random_density_state):
            omega = state_maker(dim)
            a = random_hermitian(dim)
            mu = born.born_measure(omega, a)
            for coeffs in ([0.0, 1.0], [1.0, 0.0, 1.0], [0.5, -2.0, 0.0, 1.0],
                           [0.0, 0.0, 0.0, 0.0, 1.0]):
                f_of_a = sum(
                    c * np.linalg.matrix_power(a.matrix, k)
                    for k, c in enumerate(coeffs)
                )
                lhs = sum(
                    p * sum(c * l**k for k, c in enumerate(coeffs))
                    for l, p in zip(mu.outcomes, mu.probabilities)
                )
                assert lhs == pytest.approx(omega.expectation(f_of_a), abs=1e-8)


class TestSpin1Squared:
    """The squares of the spin-1 components along an orthonormal triad: the
    commuting triple of the Kochen-Specker argument."""

    @pytest.mark.parametrize("basis", [
        np.eye(3),
        np.linalg.qr(np.random.Generator(np.random.Philox(key=[3, 3])).normal(size=(3, 3)))[0],
    ], ids=["standard", "qr-random"])
    def test_triad_commutes_and_sums_to_two(self, basis):
        ops = [born.spin1_squared(basis[:, i]).matrix for i in range(3)]
        for x, y in combinations(ops, 2):
            assert np.max(np.abs(x @ y - y @ x)) <= 1e-10
        assert np.allclose(sum(ops), 2 * np.eye(3), rtol=0, atol=1e-12)
        # each has spectrum {0, 1, 1}, so with the sum fixed at 2 every joint
        # outcome holds exactly one 0
        for m in ops:
            assert np.allclose(np.linalg.eigvalsh(m), [0.0, 1.0, 1.0], rtol=0, atol=1e-12)


class TestEquivalence:
    def test_fair_coin_three(self):
        psi = born.State(np.array([1, 1]) / math.sqrt(2))
        rep = born.equivalence_check(psi, born.Observable(np.diag([0.0, 1.0])), 3)
        assert rep.l_inf_distance <= 1e-10
        assert rep.outcome_count == 8

    def test_eigenstate_point_mass(self):
        psi = born.State(np.array([0.0, 1.0]))
        rep = born.equivalence_check(psi, born.Observable(np.diag([0.0, 1.0])), 3)
        assert rep.l_inf_distance == 0.0

    def test_hand_product(self):
        psi = born.State(np.array([math.sqrt(0.3), math.sqrt(0.7)]))
        a = born.Observable(np.diag([0.0, 1.0]))
        _, joint = dense_equivalence_check(psi, a, 2)
        expect = {(0.0, 0.0): 0.09, (0.0, 1.0): 0.21, (1.0, 0.0): 0.21, (1.0, 1.0): 0.49}
        assert joint == pytest.approx(expect, abs=1e-12)
        assert born.equivalence_check(psi, a, 2).l_inf_distance <= 1e-10

    def test_density_state_route(self):
        rho = random_density_state(2)
        a = random_hermitian(2)
        assert born.equivalence_check(rho, a, 3).l_inf_distance <= 1e-10

    def test_capacity(self):
        psi = random_vector_state(4)
        with pytest.raises(ValueError, match=r"dimension 4\^7 exceeds cap 4096"):
            born.equivalence_check(psi, random_hermitian(4), 7)


def dense_equivalence_check(omega1, a, n, tolerance=1e-10):
    """The dense-Kronecker equivalence check, kept as the reference for the
    tensordot one: every projection is embedded as a d^n x d^n matrix and
    applied to the Kronecker power of the state, and the product side is a
    loop over outcome tuples.  Returns the report and the joint
    probabilities keyed by eigenvalue tuple."""
    single = born.born_measure(omega1, a)
    prod_probs = {}
    for combo in iter_product(range(len(single.outcomes)), repeat=n):
        p = 1.0
        for i in combo:
            p *= single.probabilities[i]
        prod_probs[tuple(single.outcomes[i] for i in combo)] = p
    spec = born.spectral_decompose(a)
    dim = a.dim
    big = omega1.data
    for _ in range(n - 1):
        big = np.kron(big, omega1.data)
    eye_before = [np.eye(dim**k) for k in range(n + 1)]
    embedded = [
        [np.kron(np.kron(eye_before[k], e), eye_before[n - 1 - k]) for e in spec.projections]
        for k in range(n)
    ]
    joint_probs = {}
    for combo in iter_product(range(len(spec.eigenvalues)), repeat=n):
        m = big
        for k, i in enumerate(combo):
            m = embedded[k][i] @ m if omega1.form == "unit_vector" else m @ embedded[k][i]
        key = tuple(spec.eigenvalues[i] for i in combo)
        joint_probs[key] = float((np.vdot(big, m) if omega1.form == "unit_vector"
                                  else np.trace(m)).real)
    keys = set(joint_probs) | set(prod_probs)
    dist = max(abs(joint_probs.get(k, 0.0) - prod_probs.get(k, 0.0)) for k in keys)
    return born.EquivalenceReport(n, a.dim, dist, tolerance, len(keys)), joint_probs


def degenerate_hermitian(eigenvalues, rng=RNG):
    m = rng.normal(size=(len(eigenvalues),) * 2) + 1j * rng.normal(size=(len(eigenvalues),) * 2)
    q, _ = np.linalg.qr(m)
    return born.Observable(q @ np.diag(eigenvalues) @ q.conj().T)


class TestEquivalenceOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("form", ["vector", "density"])
    def test_matches_dense_kronecker(self, d, form):
        rng = np.random.Generator(np.random.Philox(key=[d, form == "density"]))
        observables = [random_hermitian(d, rng),
                       degenerate_hermitian([0.0] * (d - 1) + [1.0], rng),
                       degenerate_hermitian([2.0] * (d // 2) + [-1.0] * (d - d // 2), rng),
                       born.Observable(np.eye(d))]
        for a in observables:
            omega = (random_vector_state if form == "vector" else random_density_state)(d, rng)
            spec = born.spectral_decompose(a)
            for n in range(1, 5):
                ref, ref_joint = dense_equivalence_check(omega, a, n)
                rep = born.equivalence_check(omega, a, n)
                assert rep.outcome_count == ref.outcome_count == len(spec.eigenvalues) ** n
                assert (rep.n, rep.dim) == (ref.n, ref.dim)
                assert rep.l_inf_distance == pytest.approx(ref.l_inf_distance, abs=1e-12)
                joint = born._tensor_power_probabilities(omega, spec.projections, n)
                assert np.allclose(joint.ravel(), list(ref_joint.values()), rtol=0, atol=1e-12)
