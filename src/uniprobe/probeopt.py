"""Optimization of discrimination over probe classes.

The see-saw alternates two exact maximizations: with the probe fixed the
measurement is solved by the certified discrimination solver, and with the
measurement fixed the probe is the top eigenvector of the success operator.
Both steps are monotone, so each run yields a certified lower bound on the
class optimum; restarts guard against local fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairwise
from .discrimination import DiscriminationOutcome, StateEnsemble, discriminate_optimal
from .families import (
    ARBITRARY,
    MAX_ENTANGLED,
    PRODUCT,
    ProbeSpec,
    UnitaryEnsemble,
    probe_max_entangled,
)
from .qlinalg import PureState, haar_state, tensor

_PROBE_CLASSES = (PRODUCT, MAX_ENTANGLED, ARBITRARY)

#: see-saw stops after this many iterations without measurable improvement.
_NO_IMPROVE_WINDOW = 5
_IMPROVE_EPS = 1e-11
#: slack allowed before the monotonicity invariant is declared violated;
#: the inner solver is only accurate to its own certified gap.
_MONOTONE_SLACK = 1e-7


class PreconditionError(ValueError):
    """An operation's structural precondition failed (distinct from a negative result)."""


@dataclass
class SeesawConfig:
    restarts: int = 20
    max_iter: int = 150
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def inner_tol(self) -> float:
        # measurement solves need to out-resolve the see-saw bookkeeping
        return min(self.tol, 1e-7)


@dataclass(eq=False)
class ProbeOptResult:
    value: float
    probe: ProbeSpec
    outcome: DiscriminationOutcome
    restart_values: list

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "dual_gap": float(self.outcome.dual_gap),
            "probe": self.probe.to_json(),
            "restart_values": [float(v) for v in self.restart_values],
        }


@dataclass(eq=False)
class TableRow:
    d: int
    d_p: float
    d_nme: float
    d_me: float
    gap_p: float
    gap_nme: float
    gap_me: float

    def to_json(self) -> dict:
        return {
            "d": int(self.d),
            "dP": float(self.d_p),
            "dNME": float(self.d_nme),
            "dME": float(self.d_me),
            "gaps": {"dP": float(self.gap_p), "dNME": float(self.gap_nme), "dME": float(self.gap_me)},
        }


@dataclass(eq=False)
class CommonProbeResult:
    best_worst_case: float
    probe: ProbeSpec
    pair_values: list


def evolve(ensemble: UnitaryEnsemble, probe) -> StateEnsemble:
    """Evolved-state ensemble {(U_x tensor 1)|probe>} with the same priors.

    Product probes are evolved without the ancilla: the value cannot depend
    on a factored-out B system, and the smaller space is exact.
    """
    state = probe.state if isinstance(probe, ProbeSpec) else probe
    if state.dim_a != ensemble.dim:
        raise ValueError("probe A dimension does not match the ensemble")
    spec = probe if isinstance(probe, ProbeSpec) else ProbeSpec.from_state(state)
    if spec.class_tag == PRODUCT:
        vecs = np.asarray(ensemble.unitaries) @ spec.schmidt.left_basis[:, 0]
    else:
        # (U tensor 1)|psi> is U applied to psi as a dim_a x dim_b matrix
        amps = state.amplitudes.reshape(ensemble.dim, state.dim_b)
        vecs = (np.asarray(ensemble.unitaries) @ amps).reshape(ensemble.size, -1)
    return StateEnsemble.from_vectors(vecs.T, ensemble.priors.copy())


def evaluate(
    ensemble: UnitaryEnsemble,
    probe,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> DiscriminationOutcome:
    """Certified discrimination value of the ensemble for a fixed probe."""
    return discriminate_optimal(evolve(ensemble, probe), tol=tol, max_iter=max_iter)


def _top_eigvec(f: np.ndarray) -> np.ndarray:
    """Deterministic top eigenvector: on degeneracy, take the direction of the
    lowest-index basis vector inside the top eigenspace."""
    w, v = np.linalg.eigh((f + f.conj().T) / 2)
    top = v[:, w >= w[-1] - 1e-10]
    for k in range(f.shape[0]):
        cand = top @ top[k].conj()
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            cand = cand / nrm
            lead = cand[np.argmax(np.abs(cand) > 1e-12)]
            return cand * (lead.conjugate() / abs(lead))
    return v[:, -1]


def _solve_at(operators, priors, probe, tol, max_iter=5000):
    return discriminate_optimal(
        StateEnsemble.from_vectors((operators @ probe).T, priors), tol=tol, max_iter=max_iter
    )


def _success_operator(adjoints, priors, outcome) -> np.ndarray:
    """F = sum_x p_x A_x^dag M_x A_x for the solve's lifted POVM M, from its
    support elements N_x and isometry B, given the adjoints A_x^dag: with
    C_x = A_x^dag B it is sum_x p_x C_x N_x C_x^dag + p_0 (1 - C_0 C_0^dag),
    as A_0 is unitary."""
    c = adjoints if outcome.basis is None else adjoints @ outcome.basis
    f = ((priors[:, None, None] * c) @ outcome.elements @ c.conj().transpose(0, 2, 1)).sum(axis=0)
    if outcome.basis is None:
        return f
    return f + priors[0] * (np.eye(f.shape[0]) - c[0] @ c[0].conj().T)


def _seesaw_run(operators, priors, start, cfg: SeesawConfig):
    """One see-saw run over probe vectors in the space the operators act on.

    Measurement solves are iteration-capped: their values are still achieved
    (primal feasible), so the run returns honest lower bounds; the winning
    restart gets a full-precision re-solve in ``_seesaw_class``. Returns
    (best value, best probe vector).
    """
    operators = np.asarray(operators)
    adjoints = operators.conj().transpose(0, 2, 1)
    probe = np.asarray(start, dtype=complex)
    probe = probe / np.linalg.norm(probe)
    bound = _class_bound(priors, probe.size, cfg)
    best_value, best_probe = -np.inf, probe
    prev_value = -np.inf
    flat = 0
    # gains below the inner certificate resolution are indistinguishable
    # from measurement-solve noise, so they do not count as progress
    improve_eps = max(cfg.inner_tol, _IMPROVE_EPS)
    for _ in range(cfg.max_iter):
        outcome = _solve_at(operators, priors, probe, cfg.inner_tol, max_iter=600)
        value = outcome.success_prob
        # the exact alternation is monotone; computed values may dip by at
        # most the certified gap of the current solve
        if value < prev_value - max(_MONOTONE_SLACK, outcome.dual_gap):
            raise AssertionError(f"see-saw value decreased from {prev_value} to {value}")
        if value > best_value:
            best_value, best_probe = value, probe
        flat = flat + 1 if value - prev_value < improve_eps else 0
        prev_value = value
        if flat >= _NO_IMPROVE_WINDOW or value >= bound:
            break
        probe = _top_eigvec(_success_operator(adjoints, priors, outcome))
    return best_value, best_probe


def _class_bound(priors, space: int, cfg: SeesawConfig) -> float:
    # p_max * I is dual feasible for any probe in a space of this dimension,
    # so no probe can beat min(1, p_max * space); a value within the inner
    # tolerance of it ends the search
    return min(1.0, float(np.max(priors)) * space) - cfg.inner_tol


def _seesaw_class(
    ensemble: UnitaryEnsemble, probe_class: str, cfg: SeesawConfig, stop_at_bound: bool
):
    """Restarted see-saw over a probe class. With ``stop_at_bound`` the
    restarts end at the first run that reaches the class bound, which no
    later run can beat; otherwise every restart runs and is reported."""
    d = ensemble.dim
    if probe_class == PRODUCT:
        operators = np.asarray(ensemble.unitaries)
        # structured starts: for pairs the hull-optimal A-side vector (attains
        # the closed form exactly), then a basis vector and the uniform vector
        structured = []
        if ensemble.size == 2:
            spec = pairwise.relative_spectrum(*ensemble.unitaries)
            weights = pairwise.min_hull_norm(spec.phases).weights
            structured.append(spec.vectors @ np.sqrt(weights))
        structured += [
            np.eye(d, dtype=complex)[:, 0],
            np.ones(d, dtype=complex) / np.sqrt(d),
        ]
        space = d
    else:
        eye = np.eye(d)
        operators = np.array([tensor(u, eye) for u in ensemble.unitaries])
        # pair warm start first; then the canonical entangled start and the
        # product-class starts with an inert ancilla, so the arbitrary-class
        # value can never trail the product one
        e1 = np.eye(d, dtype=complex)[:, 0]
        structured = []
        if ensemble.size == 2:
            structured.append(pairwise.optimal_entangled_probe(*ensemble.unitaries).amplitudes)
        structured += [
            probe_max_entangled(d).state.amplitudes,
            np.kron(e1, e1),
            np.kron(np.ones(d, dtype=complex) / np.sqrt(d), e1),
        ]
        space = d * d

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    # drawn lazily: a loop that stops at the bound leaves the rest undrawn
    starts = (
        structured[r] if r < len(structured) else haar_state(space, np.random.default_rng(seeds[r]))
        for r in range(cfg.restarts)
    )

    bound = _class_bound(ensemble.priors, space, cfg)
    best = None
    restart_values = []
    for start in starts:
        value, probe_vec = _seesaw_run(operators, ensemble.priors, start, cfg)
        restart_values.append(value)
        # a later run must win by more than rounding, so ties keep the first
        if best is None or value > best[0] + _IMPROVE_EPS:
            best = (value, probe_vec, len(restart_values) - 1)
        if stop_at_bound and best[0] >= bound:
            break

    _, probe_vec, winner = best
    # full-precision solve for the winner only; the capped solver is
    # deterministic from its warm start, so this can only improve its value
    outcome = _solve_at(operators, ensemble.priors, probe_vec, cfg.inner_tol)
    value = outcome.success_prob
    restart_values[winner] = value
    if probe_class == PRODUCT:
        # report the probe in d tensor d form with a fixed ancilla vector
        probe_vec = np.kron(probe_vec, np.eye(d, dtype=complex)[:, 0])
    probe = ProbeSpec.from_state(PureState(dim_a=d, dim_b=d, amplitudes=probe_vec))
    return ProbeOptResult(value=value, probe=probe, outcome=outcome, restart_values=restart_values)


def optimize(
    ensemble: UnitaryEnsemble, probe_class: str, cfg: SeesawConfig, stop_at_bound: bool = False
) -> ProbeOptResult:
    """Best discrimination value over a probe class via restarted see-saw.

    The maximally entangled class has nothing to optimize: the value is
    invariant across such probes, so the canonical one is evaluated once.
    ``stop_at_bound`` ends the restarts once one reaches the class bound
    min(1, p_max D), so ``restart_values`` then lists only the runs made.
    """
    if probe_class not in _PROBE_CLASSES:
        raise ValueError(f"unknown probe class '{probe_class}'")
    if probe_class == MAX_ENTANGLED:
        probe = probe_max_entangled(ensemble.dim)
        outcome = evaluate(ensemble, probe, tol=cfg.inner_tol)
        return ProbeOptResult(
            value=outcome.success_prob,
            probe=probe,
            outcome=outcome,
            restart_values=[outcome.success_prob],
        )
    return _seesaw_class(ensemble, probe_class, cfg, stop_at_bound)


def _table(builder, probe_builder, d_range, cfg: SeesawConfig) -> list:
    rows = []
    for d in d_range:
        ensemble = builder(d)
        # the table prints only the best value, so restarts end at the bound
        opt_p = optimize(ensemble, PRODUCT, cfg, stop_at_bound=True)
        nme = evaluate(ensemble, probe_builder(d), tol=cfg.tol)
        me = evaluate(ensemble, probe_max_entangled(d), tol=cfg.tol)
        rows.append(
            TableRow(
                d=d,
                d_p=opt_p.value,
                d_nme=nme.success_prob,
                d_me=me.success_prob,
                gap_p=opt_p.outcome.dual_gap,
                gap_nme=nme.dual_gap,
                gap_me=me.dual_gap,
            )
        )
    return rows


def table_v(d_range, cfg: SeesawConfig) -> list:
    """Distinguishability of the transposition family per probe class."""
    from .families import probe_v_family, v_family

    if any(d < 3 for d in d_range):
        raise ValueError("the family is defined for dimension >= 3")
    return _table(v_family, probe_v_family, d_range, cfg)


def table_w(d_range, cfg: SeesawConfig) -> list:
    """Distinguishability of the cyclic-shift family per probe class."""
    from .families import probe_w_family, w_family

    if any(d < 3 for d in d_range):
        raise ValueError("the family is defined for dimension >= 3")
    return _table(w_family, probe_w_family, d_range, cfg)


def _helstrom_projectors(delta: np.ndarray):
    """Optimal two-outcome POVM for the weighted difference operator."""
    w, v = np.linalg.eigh((delta + delta.conj().T) / 2)
    pos = v[:, w > 0]
    n1 = pos @ pos.conj().T
    return n1, np.eye(delta.shape[0]) - n1


def common_probe_search(pairs, cfg: SeesawConfig) -> CommonProbeResult:
    """Max-min probe search across several two-unitary sets.

    The max-min objective is smoothed with soft-min weights whose temperature
    anneals from 1 to 1e-3; each iteration re-solves every pair's optimal
    measurement in closed form and moves the probe to the top eigenvector of
    the weighted success operator. The reported value is the true minimum at
    the best probe found, hence a lower bound on the max-min optimum.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    d = pairs[0].dim
    for pair in pairs:
        if pair.size != 2:
            raise ValueError("common probe search expects two-unitary ensembles")
        if pair.dim != d:
            raise ValueError("all pairs must share a dimension")
    eye = np.eye(d)
    big = [[tensor(u, eye) for u in pair.unitaries] for pair in pairs]
    priors = [pair.priors for pair in pairs]

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    space = d * d
    best_value = -np.inf
    best_probe = None
    best_values = None
    t_schedule = np.geomspace(1.0, 1e-3, max(cfg.max_iter, 2))

    for r in range(cfg.restarts):
        if r == 0:
            probe = probe_max_entangled(d).state.amplitudes.copy()
        else:
            probe = haar_state(space, np.random.default_rng(seeds[r]))
        for temperature in t_schedule:
            fs = []
            values = []
            for (a1, a2), (p1, p2) in zip(big, priors):
                v1, v2 = a1 @ probe, a2 @ probe
                delta = p1 * np.outer(v1, v1.conj()) - p2 * np.outer(v2, v2.conj())
                n1, n2 = _helstrom_projectors(delta)
                values.append(
                    float(
                        (p1 * (v1.conj() @ n1 @ v1) + p2 * (v2.conj() @ n2 @ v2)).real
                    )
                )
                fs.append(p1 * a1.conj().T @ n1 @ a1 + p2 * a2.conj().T @ n2 @ a2)
            worst = min(values)
            if worst > best_value:
                best_value = worst
                best_probe = probe.copy()
                best_values = list(values)
            if worst >= 1.0 - cfg.tol:
                break
            weights = np.exp(-(np.array(values) - worst) / temperature)
            weights = weights / weights.sum()
            probe = _top_eigvec(sum(w * f for w, f in zip(weights, fs)))
        if best_value >= 1.0 - cfg.tol:
            break

    probe_spec = ProbeSpec.from_state(PureState(dim_a=d, dim_b=d, amplitudes=best_probe))
    return CommonProbeResult(
        best_worst_case=best_value, probe=probe_spec, pair_values=best_values
    )


def qubit_common_me_check(sets, tol: float = 1e-6) -> bool:
    """Whether every qubit set is perfectly distinguished by the canonical
    maximally entangled probe.

    Raises ``PreconditionError`` when a set is not made of qubit unitaries or
    is not pairwise traceless-relative (the qubit criterion for being
    perfectly distinguishable at all); an empty collection is vacuously true.
    """
    for ensemble in sets:
        if ensemble.dim != 2:
            raise PreconditionError("all unitaries must act on dimension 2")
        for i in range(ensemble.size):
            for j in range(i + 1, ensemble.size):
                t = np.trace(ensemble.unitaries[i].conj().T @ ensemble.unitaries[j])
                if abs(t) > 1e-9:
                    raise PreconditionError(
                        "set is not perfectly distinguishable: relative trace is nonzero"
                    )
    phi2 = probe_max_entangled(2)
    return all(
        evaluate(ensemble, phi2, tol=min(tol, 1e-7)).success_prob >= 1.0 - tol
        for ensemble in sets
    )
