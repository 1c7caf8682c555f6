import numpy as np
import pytest

from conftest import random_density, random_pure_density
from uniprobe.discrimination import (
    Povm,
    StateEnsemble,
    discriminate_optimal,
    helstrom_two,
    sample_trials,
    square_root_measurement,
    verify_certificate,
)
from uniprobe.families import probe_max_entangled, v_family, w_family
from uniprobe.probeopt import evolve
from uniprobe.qlinalg import PureState, haar_unitary


def orthogonal_ensemble(n, d=None):
    d = d or n
    states = [np.zeros((d, d), dtype=complex) for _ in range(n)]
    for k in range(n):
        states[k][k, k] = 1.0
    return StateEnsemble(states=states, priors=np.full(n, 1.0 / n))


def overlap_pair(s):
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([s, np.sqrt(1 - s * s)], dtype=complex)
    return np.outer(v1, v1.conj()), np.outer(v2, v2.conj())


class TestHelstrom:
    def test_orthogonal(self):
        rho1, rho2 = overlap_pair(0.0)
        assert helstrom_two(rho1, rho2) == pytest.approx(1.0)

    def test_identical_states_max_prior(self):
        rho = random_density(3, np.random.default_rng(1))
        assert helstrom_two(rho, rho, 0.3, 0.7) == pytest.approx(0.7)

    def test_overlap_one_third(self):
        rho1, rho2 = overlap_pair(1.0 / 3.0)
        value = helstrom_two(rho1, rho2)
        assert value == pytest.approx(0.9714045207910317, abs=1e-12)
        out = discriminate_optimal(StateEnsemble([rho1, rho2], np.array([0.5, 0.5])), tol=1e-9)
        assert out.success_prob == pytest.approx(value, abs=1e-8)

    def test_bad_priors(self):
        rho1, rho2 = overlap_pair(0.5)
        with pytest.raises(ValueError):
            helstrom_two(rho1, rho2, 0.6, 0.6)


class TestDiscriminateOptimal:
    def test_orthogonal_states(self):
        for n in (2, 3, 5):
            out = discriminate_optimal(orthogonal_ensemble(n))
            assert out.success_prob == pytest.approx(1.0, abs=1e-9)
            assert out.converged and out.dual_gap <= 1e-6
            out.povm.validate()

    def test_v_family_maxent_table_value(self):
        ens = evolve(v_family(3), probe_max_entangled(3))
        out = discriminate_optimal(ens, tol=1e-7)
        assert out.success_prob == pytest.approx(0.9605, abs=1e-3)
        assert out.dual_gap <= 1e-6

    def test_w_family_maxent_block_value(self):
        # the evolved states split into d orthogonal pairs with overlap
        # (d-2)/d, so the optimum is the per-pair two-state value
        for d in (3, 4):
            ens = evolve(w_family(d), probe_max_entangled(d))
            gram = np.array(
                [[np.trace(a @ b).real for b in ens.states] for a in ens.states]
            )
            expected_gram = np.eye(2 * d)
            s = (d - 2) / d
            for k in range(d):
                expected_gram[k, d + k] = expected_gram[d + k, k] = s**2
            np.testing.assert_allclose(gram, expected_gram, atol=1e-12)
            out = discriminate_optimal(ens, tol=1e-7)
            assert out.success_prob == pytest.approx(0.5 + np.sqrt(d - 1) / d, abs=1e-7)

    def test_agrees_with_helstrom_on_random_mixed_pairs(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 5))
            rho1, rho2 = random_density(d, rng), random_density(d, rng)
            p = float(rng.uniform(0.2, 0.8))
            ens = StateEnsemble([rho1, rho2], np.array([p, 1 - p]))
            out = discriminate_optimal(ens, tol=1e-7)
            assert out.converged
            hel = helstrom_two(rho1, rho2, p, 1 - p)
            assert out.success_prob == pytest.approx(hel, abs=1e-6)
            # the value is achieved and the gap bounds the optimum
            assert out.success_prob - 1e-12 <= hel <= out.success_prob + out.dual_gap + 1e-12
            out.povm.validate()

    def test_dominant_state_reaches_guessing_value(self, rng):
        # 0.8 * I/2 >= 0.2 * rho, so always guessing state 0 is optimal and
        # certified before the iteration, which alone approaches 0.8 from below
        for _ in range(10):
            rho = random_density(2, rng)
            ens = StateEnsemble([np.eye(2) / 2, rho], np.array([0.8, 0.2]))
            out = discriminate_optimal(ens, tol=1e-7)
            assert out.success_prob >= 0.8 - 1e-12
            assert out.converged and out.dual_gap <= 1e-7
            assert out.iterations == 1
            out.povm.validate()

    def test_w3_product_certified_at_cap(self):
        # six pure states in C^3 with priors 1/6: p_max * I caps the value at
        # 1/2, which the square-root warm start attains at e1; from the
        # uniform vector the iteration creeps up and the cap certifies it
        e1 = np.eye(3, dtype=complex)[:, 0]
        ens = evolve(w_family(3), PureState(3, 3, np.kron(e1, e1)))
        out = discriminate_optimal(ens, tol=1e-7)
        assert out.success_prob == pytest.approx(0.5, abs=1e-12)
        assert out.dual_gap == 0.0
        assert out.iterations == 1 and out.converged
        uniform = np.ones(3, dtype=complex) / np.sqrt(3)
        ens = evolve(w_family(3), PureState(3, 3, np.kron(uniform, e1)))
        out = discriminate_optimal(ens, tol=1e-7)
        assert out.converged
        assert out.dual_gap == pytest.approx(0.5 - out.success_prob, rel=1e-6)

    def test_scaled_ensemble_gap_bounds_optimum(self, rng):
        # unnormalized states scale the optimum; the cap must scale with them
        amp = np.zeros(9, dtype=complex)
        amp[0] = 1.0
        ens = evolve(w_family(3), PureState(3, 3, amp))
        scaled = StateEnsemble([3 * s for s in ens.states], ens.priors)
        out = discriminate_optimal(scaled, tol=1e-7)
        assert out.success_prob <= 1.5 + 1e-12 <= out.success_prob + out.dual_gap + 2e-12
        for _ in range(5):
            rho1, rho2 = random_density(3, rng), random_density(3, rng)
            c = float(rng.uniform(0.1, 5.0))
            scaled = StateEnsemble([c * rho1, c * rho2], np.array([0.3, 0.7]))
            out = discriminate_optimal(scaled, tol=1e-7)
            opt = c * helstrom_two(rho1, rho2, 0.3, 0.7)
            assert out.success_prob - 1e-12 <= opt <= out.success_prob + out.dual_gap + 1e-12

    def test_value_bounds_and_invariance(self, rng):
        for _ in range(10):
            d, n = 3, 4
            priors = rng.dirichlet(np.ones(n))
            states = [random_density(d, rng) for _ in range(n)]
            ens = StateEnsemble(states, priors)
            out = discriminate_optimal(ens, tol=1e-7)
            assert max(priors) - 1e-9 <= out.success_prob <= 1 + 1e-9
            u = haar_unitary(d, rng)
            conj = StateEnsemble([u @ s @ u.conj().T for s in states], priors)
            out2 = discriminate_optimal(conj, tol=1e-7)
            assert out2.success_prob == pytest.approx(out.success_prob, abs=1e-8)

    def test_reported_value_matches_povm(self, rng):
        ens = StateEnsemble(
            [random_density(3, rng) for _ in range(3)], np.full(3, 1 / 3)
        )
        out = discriminate_optimal(ens, tol=1e-7)
        recomputed = sum(
            p * np.trace(s @ e).real
            for p, s, e in zip(ens.priors, ens.states, out.povm.elements)
        )
        assert out.success_prob == pytest.approx(recomputed, abs=1e-9)

    def test_single_state(self):
        ens = StateEnsemble([np.eye(2) / 2], np.array([1.0]))
        out = discriminate_optimal(ens)
        assert out.success_prob == pytest.approx(1.0, abs=1e-12)


class TestSquareRootMeasurement:
    def test_orthogonal_states_optimal(self):
        povm, value = square_root_measurement(orthogonal_ensemble(3))
        assert value == pytest.approx(1.0, abs=1e-12)
        povm.validate()

    def test_bound_sandwich(self, rng):
        for s in (0.2, 0.5, 0.8):
            rho1, rho2 = overlap_pair(s)
            ens = StateEnsemble([rho1, rho2], np.array([0.5, 0.5]))
            _, value = square_root_measurement(ens)
            assert 0.5 - 1e-12 <= value <= helstrom_two(rho1, rho2) + 1e-12

    def test_three_symmetric_states(self):
        # circulant Gram with off-diagonal 1/3; SRM value ((sum sqrt(eig))/n)^2
        gram = np.full((3, 3), 1.0 / 3.0) + np.eye(3) * (2.0 / 3.0)
        eigs = np.linalg.eigvalsh(gram)
        oracle = float((np.sqrt(eigs).sum() / 3.0) ** 2)
        assert oracle == pytest.approx(0.9500, abs=1e-4)
        chol = np.linalg.cholesky(gram)
        vectors = chol.conj().T  # columns have the prescribed Gram
        states = [np.outer(v, v.conj()) for v in vectors.T]
        ens = StateEnsemble(states, np.full(3, 1 / 3))
        _, value = square_root_measurement(ens)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_never_beats_solver(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            ens = StateEnsemble(
                [random_density(d, rng) for _ in range(n)], rng.dirichlet(np.ones(n))
            )
            _, srm_value = square_root_measurement(ens)
            out = discriminate_optimal(ens, tol=1e-7)
            assert srm_value <= out.success_prob + 1e-7


class TestCertificate:
    def test_optimal_povm_on_orthogonal_states(self):
        ens = orthogonal_ensemble(3)
        out = discriminate_optimal(ens)
        cert = verify_certificate(ens, out.povm)
        assert cert.feasible
        assert abs(cert.gap) <= 1e-9

    def test_identity_split_weak_duality(self, rng):
        for _ in range(10):
            d, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            ens = StateEnsemble(
                [random_density(d, rng) for _ in range(n)], rng.dirichlet(np.ones(n))
            )
            povm = Povm([np.eye(d, dtype=complex) / n for _ in range(n)])
            cert = verify_certificate(ens, povm)
            assert cert.gap >= -1e-9

    def test_solver_output_on_table_instance(self):
        ens = evolve(v_family(3), probe_max_entangled(3))
        out = discriminate_optimal(ens, tol=1e-7)
        cert = verify_certificate(ens, out.povm)
        assert cert.feasible
        assert cert.gap <= 1e-6


class TestSampleTrials:
    def test_orthogonal_states_always_succeed(self):
        ens = orthogonal_ensemble(3)
        out = discriminate_optimal(ens)
        freq, stderr = sample_trials(ens, out.povm, 10000, np.random.default_rng(3))
        assert freq == 1.0
        assert stderr == 0.0

    def test_single_state_frequency(self, rng):
        rho = random_density(2, rng)
        ens = StateEnsemble([rho], np.array([1.0]))
        n1 = random_density(2, rng) * 0.8
        povm = Povm([n1, np.eye(2) - n1])
        freq, stderr = sample_trials(ens, povm, 20000, np.random.default_rng(11))
        expected = float(np.trace(rho @ n1).real)
        assert abs(freq - expected) <= 3 * max(stderr, 1e-4)

    def test_table_instance_monte_carlo(self):
        ens = evolve(v_family(3), probe_max_entangled(3))
        out = discriminate_optimal(ens, tol=1e-8)
        freq, stderr = sample_trials(ens, out.povm, 100000, np.random.default_rng(0))
        assert abs(freq - 0.9605) <= 3 * stderr

    def test_deterministic_given_seed(self):
        ens = evolve(v_family(3), probe_max_entangled(3))
        out = discriminate_optimal(ens)
        a = sample_trials(ens, out.povm, 5000, np.random.default_rng(9))
        b = sample_trials(ens, out.povm, 5000, np.random.default_rng(9))
        assert a == b


def haar_vectors(dim, n, rng, rank=None):
    """n Haar-random unit vectors in C^dim, spanning at most ``rank`` dimensions."""
    k = rank or dim
    basis = haar_unitary(dim, rng)[:, :k]
    coeffs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    vecs = basis @ coeffs
    return vecs / np.linalg.norm(vecs, axis=0)


class TestGramRoute:
    # (dim, n, rank): n below the rank, n above a full rank, and n above a
    # rank below dim, where the Gram route drops eigenvalues
    SHAPES = [(d, n, r) for d in (3, 4, 5) for (n, r) in ((d - 1, d), (d + 2, d), (d + 2, d - 1))]

    def pair(self, rng, dim, n, rank):
        vecs = haar_vectors(dim, n, rng, rank)
        priors = rng.dirichlet(np.ones(n))
        dense = StateEnsemble([np.outer(v, v.conj()) for v in vecs.T], priors)
        return StateEnsemble.from_vectors(vecs, priors), dense

    def test_gram_and_density_paths_agree(self):
        rng = np.random.default_rng(2701)
        for dim, n, rank in self.SHAPES:
            pure, dense = self.pair(rng, dim, n, rank)
            a = discriminate_optimal(pure, tol=1e-7)
            b = discriminate_optimal(dense, tol=1e-7)
            assert a.success_prob == pytest.approx(b.success_prob, abs=1e-12)
            assert a.dual_gap <= 1e-7 and b.dual_gap <= 1e-7
            assert a.converged and b.converged

    def test_lifted_povm_is_valid_and_reproduces_value(self):
        rng = np.random.default_rng(2702)
        for dim, n, rank in self.SHAPES:
            pure, _ = self.pair(rng, dim, n, rank)
            out = discriminate_optimal(pure, tol=1e-7)
            out.povm.validate()
            assert out.povm.dim == dim
            value = sum(
                p * (v.conj() @ e @ v).real
                for p, v, e in zip(pure.priors, pure.vectors.T, out.povm.elements)
            )
            assert value == pytest.approx(out.success_prob, abs=1e-12)

    def test_states_formed_on_demand(self):
        vecs = haar_vectors(4, 3, np.random.default_rng(2703))
        ens = StateEnsemble.from_vectors(vecs, np.full(3, 1 / 3))
        assert (ens.dim, ens.size) == (4, 3)
        np.testing.assert_allclose(ens.states[1], np.outer(vecs[:, 1], vecs[:, 1].conj()))
        with pytest.raises(ValueError):
            StateEnsemble.from_vectors(vecs, np.full(2, 1 / 2))


class TestValidation:
    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            StateEnsemble([], np.array([]))
        with pytest.raises(ValueError):
            StateEnsemble([np.eye(2) / 2], np.array([0.5]))
        with pytest.raises(ValueError):
            StateEnsemble([np.eye(2) / 2, np.eye(3) / 3], np.array([0.5, 0.5]))

    def test_povm_validation(self):
        with pytest.raises(ValueError):
            Povm([np.eye(2) * 0.5]).validate()  # does not sum to identity
        bad = Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
        with pytest.raises(ValueError):
            bad.validate()
