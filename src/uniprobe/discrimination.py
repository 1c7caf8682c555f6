"""Minimum-error discrimination of quantum states.

The optimal solver is a fixed-point iteration on the POVM (square-root
measurement warm start, PSD-projected updates renormalized through the
inverse square root of their sum). Correctness does not rest on the
iteration itself: every answer is certified by a feasibilized dual operator
whose trace bounds the optimum from above, so ``dual_gap`` is a rigorous
optimality gap regardless of how the iterate was produced.

Pure ensembles are solved on their n x n Gram matrix: the value depends only
on the states' inner products and the priors, so the solver never forms
their D x D density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qlinalg import SUPPORT_CUTOFF, trace_norm

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000
#: iteration is declared stalled when the relative value change stays below
#: this over STALL_WINDOW consecutive iterations.
STALL_REL_CHANGE = 1e-12
STALL_WINDOW = 50


class StateEnsemble:
    """States with priors; the evolved-state input of the discrimination task.

    A pure ensemble made by ``from_vectors`` keeps its state vectors, the
    columns of ``vectors``; its density matrices are formed only when
    ``states`` is read. ``vectors`` is None for an ensemble of matrices.
    """

    def __init__(self, states, priors, vectors=None):
        self.vectors = None if vectors is None else np.asarray(vectors, dtype=complex)
        self._states = None if states is None else [np.asarray(s, dtype=complex) for s in states]
        self.priors = np.asarray(priors, dtype=float).ravel()
        if self.size != (len(self._states) if vectors is None else self.vectors.shape[1]):
            raise ValueError("priors count does not match state count")
        if self.size == 0:
            raise ValueError("ensemble must contain at least one state")
        if np.any(self.priors <= 0):
            raise ValueError("priors must be positive")
        if abs(self.priors.sum() - 1.0) > 1e-10:
            raise ValueError("priors must sum to 1")
        if vectors is None:
            d = self._states[0].shape
            if any(s.shape != d for s in self._states) or d[0] != d[1]:
                raise ValueError("all states must be square matrices of a common dimension")

    @classmethod
    def from_vectors(cls, vectors, priors) -> StateEnsemble:
        """Pure ensemble of the columns of a (D, n) array."""
        return cls(None, priors, vectors)

    @property
    def states(self) -> list:
        if self._states is None:
            self._states = [np.outer(v, v.conj()) for v in self.vectors.T]
        return self._states

    @property
    def dim(self) -> int:
        return self.vectors.shape[0] if self.vectors is not None else self._states[0].shape[0]

    @property
    def size(self) -> int:
        return self.priors.size

    def weighted(self) -> list:
        return [p * s for p, s in zip(self.priors, self.states)]


@dataclass(eq=False)
class Povm:
    """POVM elements: Hermitian, PSD, summing to the identity."""

    elements: list

    def __post_init__(self):
        self.elements = [np.asarray(e, dtype=complex) for e in self.elements]

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def validate(self, herm_tol: float = 1e-9, eig_floor: float = -1e-8, sum_tol: float = 1e-8) -> None:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for e in self.elements:
            if np.max(np.abs(e - e.conj().T)) > herm_tol:
                raise ValueError("POVM element is not Hermitian within tolerance")
            if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < eig_floor:
                raise ValueError("POVM element has a negative eigenvalue")
            total += e
        if np.max(np.abs(total - np.eye(self.dim))) > sum_tol:
            raise ValueError("POVM elements do not sum to the identity")


@dataclass(eq=False)
class DiscriminationOutcome:
    """A certified solve. ``elements`` is the POVM on the support of the
    weighted states, in the coordinates of the (D, r) isometry ``basis``
    (None when the support is the whole space); ``povm`` lifts it to the full
    space, with the kernel projector on element 0, when first read."""

    success_prob: float
    dual_gap: float
    iterations: int
    converged: bool
    elements: np.ndarray
    basis: np.ndarray | None

    @cached_property
    def povm(self) -> Povm:
        if self.basis is None:
            return Povm(list(self.elements))
        b = self.basis
        lifted = [b @ e @ b.conj().T for e in self.elements]
        lifted[0] = lifted[0] + np.eye(b.shape[0]) - b @ b.conj().T
        return Povm(lifted)


@dataclass(eq=False)
class Certificate:
    """Dual operator built from a POVM, with its feasibility verdict."""

    dual_operator: np.ndarray
    gap: float
    feasible: bool


def helstrom_two(rho1: np.ndarray, rho2: np.ndarray, p1: float = 0.5, p2: float = 0.5) -> float:
    """Optimal two-state success probability (1 + ||p1 rho1 - p2 rho2||_1) / 2."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("states must share a dimension")
    if abs(p1 + p2 - 1.0) > 1e-10:
        raise ValueError("priors must sum to 1")
    return 0.5 * (1.0 + trace_norm(p1 * rho1 - p2 * rho2))


def _psd_inv_sqrt(m: np.ndarray, cutoff: float = SUPPORT_CUTOFF):
    """Inverse square root on the support of a PSD matrix.

    Returns (m^{-1/2} restricted to the support, support projector).
    """
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    wmax = max(float(w.max()), 0.0)
    keep = w > cutoff * max(wmax, 1e-300)
    vk = v[:, keep]
    inv_sqrt = (vk * (w[keep] ** -0.5)) @ vk.conj().T
    return inv_sqrt, vk @ vk.conj().T


def _support_basis(weighted: list, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    s = sum(weighted)
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    keep = w > cutoff * max(float(w.max()), 1e-300)
    return v[:, keep]


def _srm_elements(weighted: np.ndarray) -> np.ndarray:
    inv_sqrt, proj = _psd_inv_sqrt(weighted.sum(axis=0))
    elems = inv_sqrt @ weighted @ inv_sqrt
    # residual identity on the kernel goes to element 0
    elems[0] += np.eye(weighted.shape[-1]) - proj
    return elems


def square_root_measurement(ensemble: StateEnsemble):
    """Square-root (pretty good) measurement and its success probability.

    Always a feasible POVM and never better than the optimum, which makes it
    both a lower-bound heuristic and the solver warm start.
    """
    weighted = ensemble.weighted()
    elems = _srm_elements(np.array(weighted))
    value = float(sum(np.trace(g @ e).real for g, e in zip(weighted, elems)))
    return Povm(list(elems)), value


def _certified_gap(weighted: np.ndarray, elems: np.ndarray, cap: float):
    """Primal value and a rigorous optimality gap from the feasibilized dual.

    Y is the Hermitian part of sum_x G_x N_x; shifting it by the largest
    violation of Y >= G_x makes it dual feasible, so the optimum sits within
    dim * max(0, violation) of the primal value. ``cap`` is an upper bound on
    the optimum known beforehand, and the smaller of the two gaps is kept.
    """
    lam_op = (weighted @ elems).sum(axis=0)
    value = float(np.trace(lam_op).real)
    y = (lam_op + lam_op.conj().T) / 2
    worst = float(np.linalg.eigvalsh(weighted - y).max())
    return value, min(weighted.shape[-1] * max(worst, 0.0), max(cap - value, 0.0))


def _reduce(ensemble: StateEnsemble):
    """The weighted states on the support of their sum, as an (n, r, r) stack,
    and the (D, r) isometry onto that support, None when it is the whole space.

    A pure ensemble finds the support from its Gram matrix: with Phi =
    Psi diag(sqrt p) and Phi^dag Phi = V Lambda V^dag, kept on the eigenvalues
    above the cutoff (the nonzero spectrum of sum_x G_x), the weighted states
    are the columns of Lambda^{1/2} V^dag in the basis B = Phi V Lambda^{-1/2}.
    """
    if ensemble.vectors is None:
        weighted = ensemble.weighted()
        basis = _support_basis(weighted)
        if basis.shape[1] == ensemble.dim:
            return np.array(weighted), None
        # reduce before stacking: a stacked copy of large full-space states
        # would dominate peak memory
        return np.array([basis.conj().T @ g @ basis for g in weighted]), basis
    phi = ensemble.vectors * np.sqrt(ensemble.priors)
    w, v = np.linalg.eigh(phi.conj().T @ phi)
    keep = w > SUPPORT_CUTOFF * max(float(w.max()), 1e-300)
    if keep.sum() == ensemble.dim:
        # the states span the whole space (D <= n): no reduction to make
        return np.array(ensemble.weighted()), None
    root = np.sqrt(w[keep])
    cols = (root[:, None] * v[:, keep].conj().T).T
    return cols[:, :, None] * cols.conj()[:, None, :], phi @ (v[:, keep] / root)


def discriminate_optimal(
    ensemble: StateEnsemble,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DiscriminationOutcome:
    """Optimal minimum-error discrimination with a certified gap.

    The problem is first restricted to the joint support of the weighted
    states (exact: the kernel contributes nothing to the value, and the
    POVM is completed there with a projector on element 0), found from the
    n x n Gram matrix of a pure ensemble or the D x D sum of mixed states.
    The trivial measurement that always guesses the likeliest state seeds
    the best iterate. The fixed-point iteration then runs until the best
    certified gap drops to ``tol``, the value stalls, or ``max_iter`` is
    reached; the best iterate is returned with ``converged`` flagging
    whether the gap was met.

    Both Y = sum_x G_x and Y = max_x lambda_max(G_x) * I are dual feasible,
    so the least of their traces caps the optimum; every iterate's gap is at
    most that cap minus its value.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    weighted, basis = _reduce(ensemble)
    r = weighted.shape[-1]
    eye = np.eye(r)
    trace_sum = float(np.einsum("xii->", weighted).real)
    cap = min(trace_sum, r * float(np.linalg.eigvalsh(weighted).max()))

    best_elems = np.zeros_like(weighted)
    best_elems[int(np.argmax(ensemble.priors))] = eye
    best_value, best_gap = _certified_gap(weighted, best_elems, cap)
    elems = _srm_elements(weighted)
    iterations = 0
    stall = 0
    prev_value = None

    for iterations in range(1, max_iter + 1):
        value, gap = _certified_gap(weighted, elems, cap)
        if value > best_value:
            best_value, best_gap, best_elems = value, gap, elems
        elif gap < best_gap and value >= best_value - tol:
            best_value, best_gap, best_elems = value, gap, elems
        if best_gap <= tol:
            break
        if prev_value is not None:
            rel = abs(value - prev_value) / max(abs(value), 1e-300)
            stall = stall + 1 if rel < STALL_REL_CHANGE else 0
            if stall >= STALL_WINDOW:
                break
        prev_value = value

        mu = weighted @ elems @ weighted
        inv_sqrt, proj = _psd_inv_sqrt(mu.sum(axis=0))
        elems = inv_sqrt @ mu @ inv_sqrt
        elems[0] += eye - proj

    return DiscriminationOutcome(best_value, best_gap, iterations, best_gap <= tol, best_elems, basis)


def verify_certificate(ensemble: StateEnsemble, povm: Povm) -> Certificate:
    """Dual operator of a POVM and whether it satisfies the optimality conditions.

    Y is the symmetrized success operator; the POVM is optimal exactly when
    Y - p_x rho_x is PSD for every x. The reported gap (trace of Y minus the
    success probability) vanishes identically up to rounding and is kept as a
    consistency residual.
    """
    weighted = ensemble.weighted()
    if povm.dim != ensemble.dim:
        raise ValueError("POVM dimension does not match the ensemble")
    y = sum(0.5 * (g @ e + e @ g) for g, e in zip(weighted, povm.elements))
    y = (y + y.conj().T) / 2
    value = float(sum(np.trace(g @ e).real for g, e in zip(weighted, povm.elements)))
    feasible = all(
        float(np.linalg.eigvalsh(y - g).min()) >= -1e-8 for g in weighted
    )
    return Certificate(dual_operator=y, gap=float(np.trace(y).real - value), feasible=feasible)


def sample_trials(
    ensemble: StateEnsemble,
    povm: Povm,
    trials: int,
    rng: np.random.Generator,
):
    """Monte Carlo estimate of the success frequency of a measurement.

    Draws x from the priors, samples the outcome b from the Born distribution
    Tr(rho_x N_b), and counts b == x. Returns (frequency, standard error).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = ensemble.size
    born = np.empty((n, len(povm.elements)))
    for x, rho in enumerate(ensemble.states):
        probs = np.array([np.trace(rho @ e).real for e in povm.elements])
        probs = np.clip(probs, 0.0, None)
        born[x] = probs / probs.sum()
    priors = ensemble.priors / ensemble.priors.sum()
    xs = rng.choice(n, size=trials, p=priors)
    us = rng.random(trials)
    cum = np.cumsum(born, axis=1)
    bs = np.minimum((us[:, None] >= cum[xs]).sum(axis=1), len(povm.elements) - 1)
    freq = float(np.mean(bs == xs))
    stderr = float(np.sqrt(freq * (1.0 - freq) / trials))
    return freq, stderr
