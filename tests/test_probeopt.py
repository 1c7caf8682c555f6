import numpy as np
import pytest

from uniprobe import probeopt
from uniprobe.families import (
    ARBITRARY,
    MAX_ENTANGLED,
    PRODUCT,
    UnitaryEnsemble,
    probe_max_entangled,
    probe_v_family,
    probe_w_family,
    swapped_pair,
    t_trio,
    v_family,
    w_family,
)
from uniprobe.pairwise import d_product, pair_inner_product
from uniprobe.probeopt import (
    PreconditionError,
    SeesawConfig,
    common_probe_search,
    evaluate,
    evolve,
    optimize,
    qubit_common_me_check,
    table_v,
    table_w,
)
from uniprobe.qlinalg import PureState, haar_unitary


def pair_ensemble(u1, u2):
    return UnitaryEnsemble(unitaries=[u1, u2], priors=np.array([0.5, 0.5]), dim=u1.shape[0])


class TestEvolve:
    def test_product_probe_drops_ancilla(self):
        ens = v_family(3)
        amp = np.zeros(9, dtype=complex)
        amp[0] = 1.0  # |1>|1>
        evolved = evolve(ens, PureState(3, 3, amp))
        assert evolved.dim == 3
        assert evolved.size == 3

    def test_entangled_probe_keeps_ancilla(self):
        ens = v_family(3)
        evolved = evolve(ens, probe_max_entangled(3))
        assert evolved.dim == 9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(v_family(3), probe_max_entangled(4))


class TestEvaluate:
    def test_v3_maxent_table_value(self):
        out = evaluate(v_family(3), probe_max_entangled(3))
        assert out.success_prob == pytest.approx(0.9605, abs=1e-3)
        assert out.dual_gap <= 1e-6

    def test_v3_family_probe_is_perfect(self):
        out = evaluate(v_family(3), probe_v_family(3))
        assert out.success_prob == pytest.approx(1.0, abs=1e-6)

    def test_w3_family_probe_is_perfect(self):
        out = evaluate(w_family(3), probe_w_family(3))
        assert out.success_prob == pytest.approx(1.0, abs=1e-6)

    def test_w3_maxent_block_closed_form(self):
        # d isolated pairs with overlap (d-2)/d force (1 + sqrt(1-s^2))/2
        out = evaluate(w_family(3), probe_max_entangled(3), tol=1e-8)
        assert out.success_prob == pytest.approx(0.5 + np.sqrt(2) / 3, abs=1e-7)


class TestOptimize:
    def test_pair_arbitrary_matches_closed_form(self):
        rng = np.random.default_rng(21)
        cfg = SeesawConfig(restarts=2, max_iter=60, tol=1e-6, seed=0)
        for d in (2, 3, 4):
            for _ in range(8):
                u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
                res = optimize(pair_ensemble(u1, u2), ARBITRARY, cfg)
                assert res.value == pytest.approx(d_product(u1, u2), abs=1e-4)

    def test_w3_product_is_half(self):
        cfg = SeesawConfig(restarts=5, max_iter=80, tol=1e-6, seed=1)
        res = optimize(w_family(3), PRODUCT, cfg)
        assert res.value == pytest.approx(0.5, abs=1e-4)
        assert res.probe.class_tag == PRODUCT

    def test_v3_product_is_perfect(self):
        cfg = SeesawConfig(restarts=3, max_iter=80, tol=1e-6, seed=1)
        res = optimize(v_family(3), PRODUCT, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_maxent_class_is_single_evaluation(self):
        cfg = SeesawConfig(restarts=5, max_iter=50, tol=1e-7, seed=0)
        res = optimize(v_family(3), MAX_ENTANGLED, cfg)
        assert res.value == pytest.approx(0.9605, abs=1e-3)
        assert res.probe.class_tag == MAX_ENTANGLED
        assert res.restart_values == [res.value]

    def test_seesaw_run_stops_at_class_bound(self, monkeypatch):
        # the first structured start e1 of w(3) reaches p_max * d = 1/2 in
        # its first measurement solve, which ends the run
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve_at(*args, **kwargs)

        solve_at = probeopt._solve_at
        monkeypatch.setattr(probeopt, "_solve_at", counting)
        ens = w_family(3)
        value, _ = probeopt._seesaw_run(
            list(ens.unitaries), ens.priors, np.eye(3, dtype=complex)[:, 0], SeesawConfig()
        )
        assert value == pytest.approx(0.5, abs=1e-12)
        assert len(solves) == 1

    def test_restart_values_and_maximum(self):
        cfg = SeesawConfig(restarts=4, max_iter=50, tol=1e-6, seed=3)
        res = optimize(swapped_pair(3), ARBITRARY, cfg)
        assert len(res.restart_values) == 4
        assert res.value == pytest.approx(max(res.restart_values))
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_class_ordering(self):
        cfg = SeesawConfig(restarts=4, max_iter=60, tol=1e-6, seed=0)
        for ens in (v_family(3), w_family(3)):
            arb = optimize(ens, ARBITRARY, cfg).value
            prod = optimize(ens, PRODUCT, cfg).value
            me = evaluate(ens, probe_max_entangled(ens.dim), tol=1e-7).success_prob
            assert arb >= prod - 1e-6
            assert arb >= me - 1e-6

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            optimize(v_family(3), "squeezed", SeesawConfig())


class TestProbeUpdateOptimality:
    def test_top_eigenvector_dominates_random_probes(self):
        rng = np.random.default_rng(5)
        ens = v_family(3)
        outcome = evaluate(ens, probe_max_entangled(3), tol=1e-7)
        big = [np.kron(u, np.eye(3)) for u in ens.unitaries]
        f = sum(
            p * a.conj().T @ n @ a
            for p, a, n in zip(ens.priors, big, outcome.povm.elements)
        )
        top = float(np.linalg.eigvalsh((f + f.conj().T) / 2)[-1])
        samples = rng.standard_normal((10000, 9)) + 1j * rng.standard_normal((10000, 9))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        values = np.einsum("ij,jk,ik->i", samples.conj(), f, samples).real
        assert float(values.max()) <= top + 1e-9


    def test_reduced_success_operator_matches_lifted_povm(self):
        rng = np.random.default_rng(2704)
        for ens, probe in (
            (v_family(3), probe_max_entangled(3).state.amplitudes),
            (w_family(3), np.kron(np.ones(3) / np.sqrt(3), np.eye(3)[:, 0])),
            (pair_ensemble(haar_unitary(3, rng), haar_unitary(3, rng)), np.eye(3)[:, 1]),
            # six states span all of C^3: the support basis is the identity
            (w_family(3), np.ones(3) / np.sqrt(3)),
        ):
            dim = probe.size // ens.dim
            ops = np.array([np.kron(u, np.eye(dim)) for u in ens.unitaries])
            outcome = probeopt._solve_at(ops, ens.priors, probe.astype(complex), 1e-7)
            expected = sum(
                p * a.conj().T @ m @ a
                for p, a, m in zip(ens.priors, ops, outcome.povm.elements)
            )
            f = probeopt._success_operator(ops.conj().transpose(0, 2, 1), ens.priors, outcome)
            np.testing.assert_allclose(f, expected, atol=1e-12)


class TestTables:
    def test_table_stops_restarts_at_class_bound(self, monkeypatch):
        runs = []

        def counting(*args, **kwargs):
            runs.append(1)
            return seesaw_run(*args, **kwargs)

        seesaw_run = probeopt._seesaw_run
        monkeypatch.setattr(probeopt, "_seesaw_run", counting)
        cfg = SeesawConfig(restarts=6, max_iter=60, tol=1e-6, seed=0)
        row = table_w([3], cfg)[0]
        assert len(runs) == 1
        assert row.d_p == pytest.approx(0.5, abs=1e-12)
        # optimize itself still runs and reports every restart
        runs.clear()
        res = optimize(w_family(3), PRODUCT, cfg)
        assert len(runs) == cfg.restarts
        assert len(res.restart_values) == cfg.restarts

    def test_v_table_single_row(self):
        cfg = SeesawConfig(restarts=3, max_iter=60, tol=1e-6, seed=0)
        rows = table_v([3], cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.d_p == pytest.approx(1.0, abs=1e-6)
        assert row.d_nme == pytest.approx(1.0, abs=1e-6)
        assert row.d_me == pytest.approx(0.9605, abs=1e-3)
        assert max(row.gap_p, row.gap_nme, row.gap_me) <= 1e-6

    def test_w_table_single_row(self):
        cfg = SeesawConfig(restarts=5, max_iter=60, tol=1e-6, seed=0)
        rows = table_w([3], cfg)
        row = rows[0]
        assert row.d_p == pytest.approx(0.5, abs=1e-4)
        assert row.d_nme == pytest.approx(1.0, abs=1e-6)
        # certified optimum of the construction (see the block-pair tests)
        assert row.d_me == pytest.approx(0.5 + np.sqrt(2) / 3, abs=1e-6)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            table_v([2, 3], SeesawConfig())


class TestCommonProbe:
    def test_single_pair_is_perfect(self):
        first, _ = t_trio()
        cfg = SeesawConfig(restarts=5, max_iter=100, tol=1e-6, seed=0)
        res = common_probe_search([first], cfg)
        assert res.best_worst_case == pytest.approx(1.0, abs=1e-6)

    def test_two_copies_of_distinguishable_pair(self):
        first, _ = t_trio()
        cfg = SeesawConfig(restarts=5, max_iter=100, tol=1e-6, seed=0)
        res = common_probe_search([first, first], cfg)
        assert res.best_worst_case == pytest.approx(1.0, abs=1e-6)

    def test_trio_has_no_common_probe(self):
        first, second = t_trio()
        cfg = SeesawConfig(restarts=20, max_iter=150, tol=1e-6, seed=0)
        res = common_probe_search([first, second], cfg)
        assert res.best_worst_case <= 1.0 - 1e-3
        # at the unique weight profile zeroing the first overlap, the second is 1/3
        phi = probe_max_entangled(3).state
        assert abs(pair_inner_product(*first.unitaries, phi)) <= 1e-12
        assert abs(pair_inner_product(*second.unitaries, phi)) == pytest.approx(
            1.0 / 3.0, abs=1e-9
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            common_probe_search([], SeesawConfig())
        with pytest.raises(ValueError):
            common_probe_search([v_family(3)], SeesawConfig())


class TestQubitCommonCheck:
    def make_pauli_sets(self):
        eye2 = np.eye(2, dtype=complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        return [pair_ensemble(eye2, s) for s in (x, y, z)]

    def test_pauli_sets_share_the_canonical_probe(self):
        assert qubit_common_me_check(self.make_pauli_sets())

    def test_precondition_violation_is_distinct(self):
        eye2 = np.eye(2, dtype=complex)
        bad = pair_ensemble(eye2, np.diag([1.0, np.exp(1j * np.pi / 4)]))
        with pytest.raises(PreconditionError):
            qubit_common_me_check([bad])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            qubit_common_me_check([v_family(3)])

    def test_empty_collection_vacuous(self):
        assert qubit_common_me_check([])


class TestSeesawConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(restarts=0)
        with pytest.raises(ValueError):
            SeesawConfig(tol=0.0)
