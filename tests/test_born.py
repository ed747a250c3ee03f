import math
from itertools import product as iter_product

import numpy as np
import pytest

from indlab import born
from indlab.errors import CapacityError, CommutationError
from indlab.sequences import SequenceSource

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
        spec.validate(a)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_invariants_random(self, dim):
        a = random_hermitian(dim)
        born.spectral_decompose(a).validate(a)

    def test_invariants_degenerate_random(self):
        # built from a random unitary with repeated eigenvalues
        q, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
        a = born.Observable(q @ np.diag([2.0, 2.0, -1.0, -1.0]) @ q.conj().T)
        spec = born.spectral_decompose(a)
        assert len(spec.eigenvalues) == 2
        spec.validate(a)

    def test_merge_tolerance(self):
        a = born.Observable(np.diag([0.0, 1e-12, 1.0]))
        spec = born.spectral_decompose(a)
        assert len(spec.eigenvalues) == 2


class TestBornMeasure:
    def test_fair_quantum_coin(self):
        psi = born.State(np.array([1, 1]) / math.sqrt(2))
        mu = born.born_measure(psi, born.Observable(np.diag([0.0, 1.0])))
        assert mu.probability(0.0) == pytest.approx(0.5, abs=1e-12)
        assert mu.probability(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_point_mass(self):
        psi = born.State(np.array([1.0, 0.0]))
        mu = born.born_measure(psi, born.Observable(np.diag([0.0, 1.0])))
        assert mu.probabilities == (1.0, 0.0)

    def test_degenerate_density(self):
        rho = born.State(np.eye(3) / 3)
        mu = born.born_measure(rho, born.Observable(np.diag([5.0, 5.0, 7.0])))
        assert mu.probability(5.0) == pytest.approx(2 / 3, abs=1e-12)
        assert mu.probability(7.0) == pytest.approx(1 / 3, abs=1e-12)

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


class TestJointSpectrum:
    def test_tensor_pair(self):
        a = np.diag([0.0, 1.0])
        a1 = born.Observable(np.kron(a, np.eye(2)))
        a2 = born.Observable(np.kron(np.eye(2), a))
        joint = born.joint_spectrum([a1, a2])
        outcomes = sorted(v for v, _ in joint)
        assert outcomes == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        for _, proj in joint:
            assert np.trace(proj).real == pytest.approx(1.0, abs=1e-10)

    def test_spin1_triple_outcome_set(self):
        basis = np.eye(3)
        ops = [born.spin1_squared(basis[i]) for i in range(3)]
        joint = born.joint_spectrum(ops)
        outcomes = sorted(tuple(round(x) for x in v) for v, _ in joint)
        assert outcomes == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_spin1_triple_random_basis(self):
        q, _ = np.linalg.qr(RNG.normal(size=(3, 3)))
        ops = [born.spin1_squared(q[:, i]) for i in range(3)]
        joint = born.joint_spectrum(ops, tol=1e-8)
        outcomes = sorted(tuple(round(x) for x in v) for v, _ in joint)
        assert outcomes == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_repeated_observable_diagonal_tuples_only(self):
        a = born.Observable(np.diag([0.0, 1.0]))
        joint = born.joint_spectrum([a, a])
        outcomes = sorted(v for v, _ in joint)
        assert outcomes == [(0.0, 0.0), (1.0, 1.0)]

    def test_noncommuting_rejected_with_diagnostics(self):
        x = born.Observable(np.array([[0, 1], [1, 0]], dtype=float))
        z = born.Observable(np.diag([1.0, -1.0]))
        with pytest.raises(CommutationError) as err:
            born.joint_spectrum([x, z])
        assert err.value.pair == (0, 1)
        assert err.value.norm == pytest.approx(2.0)


class TestProductMeasure:
    def test_fair_coin_two(self):
        mu = born.BornMeasure((0.0, 1.0), (0.5, 0.5))
        prod = born.product_measure(mu, 2)
        assert len(prod) == 4
        assert all(p == pytest.approx(0.25) for p in prod.probabilities)

    def test_cube_of_point_one(self):
        mu = born.BornMeasure((0.0, 1.0), (0.9, 0.1))
        prod = born.product_measure(mu, 3)
        assert prod.probability((1.0, 1.0, 1.0)) == pytest.approx(0.001)

    def test_identity_case(self):
        mu = born.BornMeasure((0.0, 1.0), (0.5, 0.5))
        assert born.product_measure(mu, 1) is mu

    def test_capacity_error(self):
        mu = born.BornMeasure((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(CapacityError, match="sampling path"):
            born.product_measure(mu, 3, cap=7)


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
        prod = born.product_measure(born.born_measure(psi, a), 2)
        expect = {(0.0, 0.0): 0.09, (0.0, 1.0): 0.21, (1.0, 0.0): 0.21, (1.0, 1.0): 0.49}
        for k, v in expect.items():
            assert prod.probability(k) == pytest.approx(v, abs=1e-12)
        assert born.equivalence_check(psi, a, 2).l_inf_distance <= 1e-10

    def test_density_state_route(self):
        rho = random_density_state(2)
        a = random_hermitian(2)
        assert born.equivalence_check(rho, a, 3).l_inf_distance <= 1e-10

    def test_capacity(self):
        psi = random_vector_state(4)
        with pytest.raises(CapacityError):
            born.equivalence_check(psi, random_hermitian(4), 7)


def dense_equivalence_check(omega1, a, n, tolerance=1e-10):
    """The dense-Kronecker equivalence check, kept as the reference for the
    tensordot one: every projection is embedded as a d^n x d^n matrix and
    applied to the Kronecker power of the state.  Returns the report and the
    joint probabilities keyed by eigenvalue tuple."""
    single = born.born_measure(omega1, a)
    prod = born.product_measure(single, n) if n > 1 else single
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
    prod_probs = dict(zip(prod.outcomes if n > 1 else [(o,) for o in prod.outcomes],
                          prod.probabilities))
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


class TestSampling:
    def test_point_mass_constant(self):
        mu = born.BornMeasure((3.5,), (1.0,))
        s, key = born.sample_sequence(mu, 5, seed=1)
        assert s.to_text() == "00000"
        assert key == (3.5,)

    def test_fair_coin_frequency(self):
        mu = born.BornMeasure((0.0, 1.0), (0.5, 0.5))
        s, _ = born.sample_sequence(mu, 10**5, seed=99)
        freq = sum(tuple(s)) / len(s)
        assert abs(freq - 0.5) <= 0.01

    def test_golden_matches_sequences_module(self):
        mu = born.BornMeasure((0.0, 1.0), (0.5, 0.5))
        s, _ = born.sample_sequence(mu, 8, seed=42)
        src = SequenceSource("born_sampler", seed=42, probs=[0.5, 0.5])
        assert s.to_text() == src.prefix(8).to_text() == "10100000"

    def test_chunked_reproducible(self):
        mu = born.BornMeasure((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        a, _ = born.sample_sequence(mu, 1000, seed=5, chunk_size=128)
        b, _ = born.sample_sequence(mu, 1000, seed=5, chunk_size=128)
        assert a == b

    def test_lln_six_sigma(self):
        mu = born.BornMeasure((0.0, 1.0), (0.3, 0.7))
        n = 10**5
        s, _ = born.sample_sequence(mu, n, seed=12)
        for idx, p in enumerate(mu.probabilities):
            freq = sum(1 for v in tuple(s) if v == idx) / n
            assert abs(freq - p) <= 6 * math.sqrt(p * (1 - p) / n)
