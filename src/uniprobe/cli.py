"""Command-line entry point.

Loads ensembles and probes from JSON files or named built-ins, runs the
requested computation and emits JSON or CSV. Exit codes are stable: 0 on
success, 1 when a verification check fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import hullgeom, pairwise, probeopt, qlinalg
from .discrimination import (
    StateEnsemble,
    discriminate_optimal,
    helstrom_two,
    sample_trials,
    square_root_measurement,
    verify_certificate,
)
from .families import (
    ARBITRARY,
    MAX_ENTANGLED,
    PRODUCT,
    ProbeSpec,
    UnitaryEnsemble,
    probe_max_entangled,
    probe_v_family,
    probe_w_family,
    swapped_pair,
    t_trio,
    v_family,
    w_family,
)
from .probeopt import PreconditionError, SeesawConfig, common_probe_search, evaluate, optimize

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

_CLASS_ALIASES = {"product": PRODUCT, "maxent": MAX_ENTANGLED, "arbitrary": ARBITRARY}


class InputError(ValueError):
    """Bad command-line input or malformed input file."""


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _jround(obj):
    """Round every float in a JSON-ready structure to 9 significant digits."""
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _jround(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jround(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> str:
    return json.dumps(_jround(payload), indent=2) + "\n"


def _fmt9(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{_round9(x):.9g}"
    return str(x)


def _resolve_ensemble(args) -> UnitaryEnsemble:
    if bool(args.builtin) == bool(args.input):
        raise InputError("exactly one of --builtin or --input is required")
    if args.builtin:
        return _builtin(args.builtin)
    try:
        with open(args.input) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read '{args.input}': {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"'{args.input}' line {exc.lineno}: {exc.msg}")
    try:
        return UnitaryEnsemble.from_json(obj)
    except ValueError as exc:
        raise InputError(f"'{args.input}': {exc}")


def _builtin(name: str) -> UnitaryEnsemble:
    base, _, arg = name.partition(":")
    try:
        if base == "v":
            return v_family(int(arg))
        if base == "w":
            return w_family(int(arg))
        if base == "swapped":
            return swapped_pair(int(arg))
        if base == "ttrio":
            first, second = t_trio()
            if arg in ("", "1"):
                return first
            if arg == "2":
                return second
            raise InputError("ttrio accepts only ttrio, ttrio:1 or ttrio:2")
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"builtin '{name}': {exc}")
    raise InputError(f"unknown builtin '{name}' (expected v:d, w:d, ttrio, swapped:d)")


def _load_probe(path: str) -> ProbeSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read '{path}': {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"'{path}' line {exc.lineno}: {exc.msg}")
    try:
        return ProbeSpec.from_json(obj)
    except ValueError as exc:
        raise InputError(f"'{path}': {exc}")


def _probe_class(args) -> str:
    cls = _CLASS_ALIASES.get(args.probe_class)
    if cls is None:
        raise InputError(f"unknown probe class '{args.probe_class}'")
    return cls


def _seesaw_config(args) -> SeesawConfig:
    return SeesawConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)


# --- commands ---------------------------------------------------------------


def cmd_pairwise(args):
    ensemble = _resolve_ensemble(args)
    if ensemble.size != 2:
        raise InputError("pairwise requires an ensemble of exactly 2 unitaries")
    report = pairwise.pair_report(*ensemble.unitaries)
    payload = report.to_json()
    payload["r1"] = report.hull.min_norm
    payload["r2"] = abs(report.trace_over_d)
    if args.format == "json":
        return _emit_json(payload), EXIT_OK
    lines = ["key,value"]
    for key in ("dProduct", "dMaxEnt", "r1", "r2", "nmeAdvantage"):
        lines.append(f"{key},{_fmt9(payload[key])}")
    lines.append("hullWeights," + ";".join(_fmt9(w) for w in report.hull.weights))
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_ensemble(args):
    ensemble = _resolve_ensemble(args)
    restart_values = None
    if args.probe:
        probe = _load_probe(args.probe)
        if probe.state.dim_a != ensemble.dim:
            raise InputError("probe A dimension does not match the ensemble")
        outcome, tag = evaluate(ensemble, probe, tol=args.tol), probe.class_tag
    elif (cls := _probe_class(args)) == MAX_ENTANGLED:
        probe = probe_max_entangled(ensemble.dim)
        outcome, tag = evaluate(ensemble, probe, tol=args.tol), "maxent"
    else:
        result = optimize(ensemble, cls, _seesaw_config(args))
        probe, outcome, tag = result.probe, result.outcome, args.probe_class
        restart_values = [float(v) for v in result.restart_values]
    payload = {
        "value": outcome.success_prob,
        "dual_gap": outcome.dual_gap,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "probe_class": tag,
        "schmidt_coefficients": [float(c) for c in probe.schmidt.coefficients],
    }
    if restart_values is not None:
        payload["restart_values"] = restart_values
    if args.format == "json":
        return _emit_json(payload), EXIT_OK
    lines = ["key,value"]
    for key in ("value", "dual_gap", "iterations", "converged", "probe_class"):
        lines.append(f"{key},{_fmt9(payload[key])}")
    lines.append(
        "schmidt_coefficients," + ";".join(_fmt9(c) for c in payload["schmidt_coefficients"])
    )
    return "\n".join(lines) + "\n", EXIT_OK


def _parse_d_range(spec: str):
    lo, sep, hi = spec.partition("..")
    try:
        if sep:
            lo_i, hi_i = int(lo), int(hi)
        else:
            lo_i = hi_i = int(lo)
    except ValueError:
        raise InputError(f"bad dimension range '{spec}' (expected LO..HI)")
    if hi_i < lo_i:
        raise InputError(f"bad dimension range '{spec}': empty")
    return list(range(lo_i, hi_i + 1))


def cmd_tables(args):
    d_range = _parse_d_range(args.d)
    limits = {"v": (3, 7), "w": (3, 6)}
    lo, hi = limits[args.family]
    if any(d < lo or d > hi for d in d_range):
        raise InputError(f"family '{args.family}' supports d in {lo}..{hi}")
    cfg = _seesaw_config(args)
    table_fn = probeopt.table_v if args.family == "v" else probeopt.table_w
    rows = table_fn(d_range, cfg)

    if args.format == "json":
        return _emit_json({"family": args.family, "rows": [r.to_json() for r in rows]}), EXIT_OK
    lines = ["d,dP,dNME,dME"]
    for r in rows:
        lines.append(f"{r.d},{r.d_p:.4f},{r.d_nme:.4f},{r.d_me:.4f}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_argand(args):
    ensemble = _resolve_ensemble(args)
    if ensemble.size != 2:
        raise InputError("argand requires an ensemble of exactly 2 unitaries")
    report = pairwise.pair_report(*ensemble.unitaries)
    spec = pairwise.relative_spectrum(*ensemble.unitaries)
    points = [[float(z.real), float(z.imag)] for z in spec.phases]
    witness = [float(report.hull.witness.real), float(report.hull.witness.imag)]
    trace_pt = [float(report.trace_over_d.real), float(report.trace_over_d.imag)]
    if args.format == "json":
        payload = {
            "eigenphases": points,
            "r1_witness": witness,
            "r2_point": trace_pt,
            "r1": report.hull.min_norm,
            "r2": abs(report.trace_over_d),
        }
        return _emit_json(payload), EXIT_OK
    lines = ["kind,x,y"]
    for x, y in points:
        lines.append(f"eigenphase,{_fmt9(x)},{_fmt9(y)}")
    lines.append(f"r1_witness,{_fmt9(witness[0])},{_fmt9(witness[1])}")
    lines.append(f"r2_point,{_fmt9(trace_pt[0])},{_fmt9(trace_pt[1])}")
    return "\n".join(lines) + "\n", EXIT_OK


def _simulate_probe(args, ensemble: UnitaryEnsemble) -> ProbeSpec:
    if args.probe:
        return _load_probe(args.probe)
    cls = _probe_class(args)
    if cls == MAX_ENTANGLED:
        return probe_max_entangled(ensemble.dim)
    if cls == PRODUCT:
        return optimize(ensemble, PRODUCT, _seesaw_config(args)).probe
    # arbitrary: built-ins carry their constructed probes, otherwise optimize
    if args.builtin:
        base, _, arg = args.builtin.partition(":")
        if base == "v":
            return probe_v_family(int(arg))
        if base == "w":
            return probe_w_family(int(arg))
        if base in ("swapped", "ttrio"):
            return ProbeSpec.from_state(pairwise.optimal_entangled_probe(*ensemble.unitaries))
    return optimize(ensemble, ARBITRARY, _seesaw_config(args)).probe


def cmd_simulate(args):
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    ensemble = _resolve_ensemble(args)
    probe = _simulate_probe(args, ensemble)
    evolved = probeopt.evolve(ensemble, probe)
    outcome = discriminate_optimal(evolved, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    freq, stderr = sample_trials(evolved, outcome.povm, args.trials, rng)
    z = 0.0 if stderr == 0 else (freq - outcome.success_prob) / stderr
    payload = {
        "value": outcome.success_prob,
        "frequency": freq,
        "stderr": stderr,
        "z": z,
        "trials": int(args.trials),
        "seed": int(args.seed),
    }
    if args.format == "json":
        return _emit_json(payload), EXIT_OK
    lines = ["key,value"]
    for key in ("value", "frequency", "stderr", "z", "trials", "seed"):
        lines.append(f"{key},{_fmt9(payload[key])}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_verify(args):
    checks = [c for c in _VERIFY_CHECKS if args.only is None or args.only in c[0]]
    if not checks:
        raise InputError(f"--only '{args.only}' matches no check")
    results = [fn(args.seed) for _, fn in checks]
    ok_all = all(r[0] for r in results)
    code = EXIT_OK if ok_all else EXIT_VERIFY_FAILED
    if args.format == "json":
        payload = {
            "passed": bool(ok_all),
            "checks": [
                {
                    "name": name,
                    "passed": bool(ok),
                    "residual": float(residual),
                    "detail": detail,
                }
                for (name, _), (ok, residual, detail) in zip(checks, results)
            ],
        }
        return _emit_json(payload), code
    lines = []
    for (name, _), (ok, residual, detail) in zip(checks, results):
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name:16s} residual={residual:.3e}  {detail}")
    lines.append(f"{'OK' if ok_all else 'FAILED'}: {sum(1 for r in results if r[0])}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", code


# --- verification checks ----------------------------------------------------
#
# Each check returns (passed, worst residual, one-line detail). They mirror
# the documented module invariants at their stated sample sizes.


def _check_eig(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 8):
        for _ in range(100):
            u = qlinalg.haar_unitary(d, rng)
            vals, vecs = qlinalg.eig_normal(u)
            recon = (vecs * vals) @ vecs.conj().T
            worst = max(
                worst,
                float(np.max(np.abs(recon - u))),
                float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(d)))),
                float(np.max(np.abs(np.abs(vals) - 1.0))),
            )
    return worst <= 10 * qlinalg.SPECTRAL_TOL, worst, "reconstruction over 100 Haar unitaries per d=2..7"


def _check_tracenorm(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = qlinalg.haar_unitary(d, rng)
        v = qlinalg.haar_unitary(d, rng)
        t = qlinalg.trace_norm(m)
        worst = max(
            worst,
            abs(t - qlinalg.trace_norm(qlinalg.adjoint(m))),
            abs(t - qlinalg.trace_norm(u @ m @ v)),
        )
    return worst <= 1e-9, worst, "adjoint and unitary invariance on 50 random matrices"


def _check_schmidt(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for d in range(2, 7):
        me = probe_max_entangled(d)
        ok = ok and me.schmidt.rank() == d
        u = qlinalg.haar_unitary(d, rng)
        prod = qlinalg.PureState(d, d, np.kron(u[:, 0], u[:, 1]))
        dec = qlinalg.schmidt(prod)
        ok = ok and dec.rank() == 1
        worst = max(worst, float(np.max(np.abs(dec.reconstruct() - prod.amplitudes))))
    return ok and worst <= 1e-9, worst, "ranks of maximally entangled and product states, d=2..6"


def _grid_min_norm(points, step=1e-3):
    # independent brute force over the discretized weight simplex
    pts = np.asarray(points, dtype=complex)
    n = pts.size
    m = int(round(1.0 / step))
    if n == 1:
        return abs(pts[0])
    best = np.inf
    if n == 2:
        w = np.arange(m + 1) / m
        vals = np.abs(np.outer(w, pts[:1]).ravel() + np.outer(1 - w, pts[1:2]).ravel())
        return float(vals.min())
    if n == 3:
        for i in range(m + 1):
            w = np.arange(m + 1 - i) / m
            vals = np.abs(pts[0] * (i / m) + pts[1] * w + pts[2] * (1 - i / m - w))
            best = min(best, float(np.abs(vals).min()))
        return best
    # n == 4: exact 1D convex minimization over the last weight per (i, j),
    # vectorized over j; one row at a time keeps the memory at O(m)
    direction = (pts[2] - pts[3]) / m
    denom = abs(direction) ** 2
    for i in range(m + 1):
        j = np.arange(m + 1 - i)
        rem = m - i - j
        base = pts[0] * (i / m) + pts[1] * (j / m) + pts[3] * (rem / m)
        k = np.zeros(j.size) if denom == 0 else -((base.conjugate() * direction).real) / denom
        for kk in (np.floor(k), np.ceil(k)):
            best = min(best, float(np.abs(base + np.clip(kk, 0, rem) * direction).min()))
    return best


def _check_hull(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        res = hullgeom.min_hull_norm(pts)
        gamma = rng.uniform(0, 2 * np.pi)
        rotated = hullgeom.min_hull_norm(pts * np.exp(1j * gamma))
        worst = max(worst, abs(res.min_norm - rotated.min_norm))
        worst = max(worst, max(0.0, res.min_norm - abs(pts.mean())))
        worst = max(worst, abs(abs(res.witness) - res.min_norm))
    grid_worst = 0.0
    for _ in range(15):
        n = int(rng.integers(1, 5))
        pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        grid_worst = max(
            grid_worst, abs(hullgeom.min_hull_norm(pts).min_norm - _grid_min_norm(pts))
        )
    passed = worst <= 1e-9 and grid_worst <= 2e-3
    return passed, max(worst, grid_worst), "rotation invariance, mean bound, grid brute force"


def _random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _check_solver(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho1, rho2 = _random_density(d, rng), _random_density(d, rng)
        p = float(rng.uniform(0.2, 0.8))
        ens = StateEnsemble(states=[rho1, rho2], priors=np.array([p, 1 - p]))
        out = discriminate_optimal(ens, tol=1e-7)
        hel = helstrom_two(rho1, rho2, p, 1 - p)
        worst = max(worst, abs(out.success_prob - hel), out.dual_gap)
        out.povm.validate()
        cert = verify_certificate(ens, out.povm)
        ok = ok and cert.gap >= -1e-9
        ok = ok and max(p, 1 - p) <= out.success_prob + 1e-9 <= 1 + 1e-9
        u = qlinalg.haar_unitary(d, rng)
        conj = StateEnsemble(
            states=[u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T],
            priors=np.array([p, 1 - p]),
        )
        worst = max(
            worst, abs(discriminate_optimal(conj, tol=1e-7).success_prob - out.success_prob)
        )
    return ok and worst <= 1e-6, worst, "2-state agreement, duality and invariance on 50 ensembles"


def _check_srm(seed):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(30):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        pr = rng.dirichlet(np.ones(n))
        ens = StateEnsemble(states=[_random_density(d, rng) for _ in range(n)], priors=pr)
        povm, srm_value = square_root_measurement(ens)
        povm.validate()
        out = discriminate_optimal(ens, tol=1e-7)
        worst = max(worst, srm_value - out.success_prob)
    return worst <= 1e-7, max(worst, 0.0), "square-root value never beats the solver, 30 ensembles"


def _check_pairs(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(500):
            u1, u2 = qlinalg.haar_unitary(d, rng), qlinalg.haar_unitary(d, rng)
            dp = pairwise.d_product(u1, u2)
            dme = pairwise.d_maxent(u1, u2)
            worst = max(worst, dme - dp)
            gamma = np.exp(1j * rng.uniform(0, 2 * np.pi))
            worst = max(worst, abs(pairwise.d_product(u1, gamma * u2) - dp))
            worst = max(worst, abs(pairwise.d_maxent(u1, gamma * u2) - dme))
    return worst <= 1e-9, worst, "product >= maxent and phase invariance, 500 pairs per d=2..6"


def _check_pair_probe(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        u1, u2 = qlinalg.haar_unitary(3, rng), qlinalg.haar_unitary(3, rng)
        probe = pairwise.optimal_entangled_probe(u1, u2)
        worst = max(
            worst, abs(pairwise.d_with_probe(u1, u2, probe) - pairwise.d_product(u1, u2))
        )
    return worst <= 1e-8, worst, "constructed probe attains the product value, 100 pairs d=3"


def _check_pair_equiv(seed):
    rng = np.random.default_rng(seed)
    cfg = SeesawConfig(restarts=2, max_iter=60, tol=1e-6, seed=seed)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(50):
            u1, u2 = qlinalg.haar_unitary(d, rng), qlinalg.haar_unitary(d, rng)
            ens = UnitaryEnsemble(unitaries=[u1, u2], priors=np.array([0.5, 0.5]), dim=d)
            res = optimize(ens, ARBITRARY, cfg)
            worst = max(worst, abs(res.value - pairwise.d_product(u1, u2)))
    return worst <= 1e-4, worst, "see-saw matches the pair closed form, 50 pairs per d=2,3,4"


def _check_me_invariance(seed):
    rng = np.random.default_rng(seed)
    u1, u2 = qlinalg.haar_unitary(3, rng), qlinalg.haar_unitary(3, rng)
    dme = pairwise.d_maxent(u1, u2)
    phi = probe_max_entangled(3).state.amplitudes
    worst = 0.0
    for _ in range(50):
        u = qlinalg.haar_unitary(3, rng)
        rotated = qlinalg.PureState(3, 3, np.kron(u, np.eye(3)) @ phi)
        worst = max(worst, abs(pairwise.d_with_probe(u1, u2, rotated) - dme))
    # ensemble-level extension (n > 2): measured and reported, not asserted
    ens = v_family(3)
    base = evaluate(ens, probe_max_entangled(3), tol=1e-8).success_prob
    drift = 0.0
    for _ in range(5):
        u = qlinalg.haar_unitary(3, rng)
        rotated = ProbeSpec.from_state(qlinalg.PureState(3, 3, np.kron(u, np.eye(3)) @ phi))
        drift = max(drift, abs(evaluate(ens, rotated, tol=1e-8).success_prob - base))
    return worst <= 1e-9, worst, f"pair invariance over 50 local unitaries (n=3 drift {drift:.2e})"


def _check_qubit(seed):
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(500):
        u1, u2 = qlinalg.haar_unitary(2, rng), qlinalg.haar_unitary(2, rng)
        ok = ok and not pairwise.nme_advantage_check(u1, u2)
    for _ in range(100):
        u = qlinalg.haar_unitary(2, rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u2 = u @ np.diag([phase, -phase])
        rel = pairwise.relative_spectrum(u, u2)
        hull_min = hullgeom.min_hull_norm(rel.phases).min_norm
        tr = abs(np.trace(u.conj().T @ u2))
        ok = ok and (tr <= 1e-9) == (hull_min <= 1e-9)
        worst = max(worst, hull_min if tr <= 1e-9 else 0.0)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    sets = [
        UnitaryEnsemble(unitaries=[eye2, s], priors=np.array([0.5, 0.5]), dim=2)
        for s in (x, y, z)
    ]
    ok = ok and probeopt.qubit_common_me_check(sets)
    try:
        bad = UnitaryEnsemble(
            unitaries=[eye2, np.diag([1.0, np.exp(1j * np.pi / 4)])],
            priors=np.array([0.5, 0.5]),
            dim=2,
        )
        probeopt.qubit_common_me_check([bad])
        ok = False
    except PreconditionError:
        pass
    return ok, worst, "traceless-hull equivalence and common maximally entangled probe"


def _check_vfamily(seed):
    worst = 0.0
    ok = True
    for d in range(3, 8):
        ens = v_family(d)
        # column relations: col 1 of member l is col l of member 1, others shared
        v1 = ens.unitaries[0]
        for l, vl in enumerate(ens.unitaries):
            worst = max(worst, float(np.max(np.abs(vl[:, 0] - v1[:, l]))))
            for j in range(d):
                if j not in (0, l):
                    worst = max(worst, float(np.max(np.abs(vl[:, j] - v1[:, j]))))
        probe = qlinalg.PureState(d, 1, v1[:, 0])
        evolved = [u @ probe.amplitudes for u in ens.unitaries]
        gram = np.array([[vi.conj() @ vj for vj in evolved] for vi in evolved])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(d)))))
        ok = ok and abs(np.trace(ens.unitaries[0].conj().T @ ens.unitaries[1]) - (d - 2)) <= 1e-12
        spec_probe = probe_v_family(d)
        ev = probeopt.evolve(ens, spec_probe)
        gram2 = np.abs(ev.vectors.conj().T @ ev.vectors) ** 2
        worst = max(worst, float(np.max(np.abs(gram2 - np.eye(d)))))
    return ok and worst <= 1e-9, worst, "column relations and evolved orthogonality, d=3..7"


def _check_wfamily(seed):
    worst = 0.0
    ok = True
    for d in range(3, 7):
        ens = w_family(d)
        ok = ok and ens.size == 2 * d
        tr = np.trace(ens.unitaries[0].conj().T @ ens.unitaries[d])
        ok = ok and abs(tr - (d - 2)) <= 1e-12
        ev = probeopt.evolve(ens, probe_w_family(d))
        gram = np.abs(ev.vectors.conj().T @ ev.vectors) ** 2
        worst = max(worst, float(np.max(np.abs(gram - np.eye(2 * d)))))
    return ok and worst <= 1e-9, worst, "evolved orthogonality under the balanced probe, d=3..6"


def _check_nme(seed):
    ens = swapped_pair(3)
    u1, u2 = ens.unitaries
    ok = pairwise.nme_advantage_check(u1, u2)
    worst = abs(pairwise.d_maxent(u1, u2) - (0.5 + np.sqrt(2.0) / 3.0))
    amp = np.zeros(9, dtype=complex)
    amp[0] = amp[4] = 1.0 / np.sqrt(2.0)
    probe = qlinalg.PureState(3, 3, amp)
    worst = max(worst, abs(pairwise.d_with_probe(u1, u2, probe) - 1.0))
    return ok and worst <= 1e-9, worst, "rank-2 probe perfection and maxent value on the swapped pair"


def _check_ttrio(seed):
    first, second = t_trio()
    cfg = SeesawConfig(restarts=10, max_iter=120, tol=1e-6, seed=seed)
    single = common_probe_search([first], cfg)
    ok = single.best_worst_case >= 1.0 - 1e-6
    both = common_probe_search([first, second], cfg)
    ok = ok and both.best_worst_case <= 1.0 - 1e-3
    phi = probe_max_entangled(3)
    ip2 = pairwise.pair_inner_product(*second.unitaries, phi.state)
    worst = abs(abs(ip2) - 1.0 / 3.0)
    return ok and worst <= 1e-9, worst, (
        f"single pair {single.best_worst_case:.6f}, both {both.best_worst_case:.6f}, |IP2|=1/3"
    )


def _check_probeopt(seed):
    rng = np.random.default_rng(seed)
    ens = v_family(3)
    cfg = SeesawConfig(restarts=3, max_iter=60, tol=1e-6, seed=seed)
    arb = optimize(ens, ARBITRARY, cfg)
    prod = optimize(ens, PRODUCT, cfg)
    me = evaluate(ens, probe_max_entangled(3), tol=1e-7)
    ok = arb.value >= prod.value - 1e-6 and arb.value >= me.success_prob - 1e-6
    # probe-update optimality: no random probe may beat the top eigenvector
    phi = probe_max_entangled(3)
    outcome = evaluate(ens, phi, tol=1e-7)
    big = [np.kron(u, np.eye(3)) for u in ens.unitaries]
    f = sum(
        p * a.conj().T @ n @ a
        for p, a, n in zip(ens.priors, big, outcome.povm.elements)
    )
    top = float(np.linalg.eigvalsh((f + f.conj().T) / 2)[-1])
    samples = rng.standard_normal((10000, 9)) + 1j * rng.standard_normal((10000, 9))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    vals = np.einsum("ij,jk,ik->i", samples.conj(), f, samples).real
    worst = max(0.0, float(vals.max()) - top)
    return ok and worst <= 1e-9, worst, "class ordering and probe-update optimality"


_VERIFY_CHECKS = [
    ("eig", _check_eig),
    ("tracenorm", _check_tracenorm),
    ("schmidt", _check_schmidt),
    ("hull", _check_hull),
    ("solver", _check_solver),
    ("srm", _check_srm),
    ("pairs", _check_pairs),
    ("pair_probe", _check_pair_probe),
    ("pair_equiv", _check_pair_equiv),
    ("me_invariance", _check_me_invariance),
    ("qubit", _check_qubit),
    ("vfamily", _check_vfamily),
    ("wfamily", _check_wfamily),
    ("nme", _check_nme),
    ("ttrio", _check_ttrio),
    ("probeopt", _check_probeopt),
]


# --- parser -----------------------------------------------------------------


def _add_io_flags(p, probe_class=False, probe_file=False):
    p.add_argument("--input", help="path to an ensemble JSON file")
    p.add_argument("--builtin", help="named ensemble: v:d, w:d, ttrio[:1|:2], swapped:d")
    if probe_class:
        p.add_argument(
            "--probe-class",
            choices=("product", "maxent", "arbitrary"),
            default="maxent",
            help="probe class to optimize or evaluate (default maxent)",
        )
    if probe_file:
        p.add_argument("--probe", help="path to a probe JSON file (overrides --probe-class)")
    p.add_argument("--tol", type=float, default=1e-6, help="solver tolerance (default 1e-6)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--restarts", type=int, default=20, help="see-saw restarts (default 20)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the emission to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniprobe",
        description="Single-shot distinguishability of unitary channels by probe class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairwise", help="closed-form report for a pair of unitaries")
    _add_io_flags(p)
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("ensemble", help="discrimination value for an ensemble and probe class")
    _add_io_flags(p, probe_class=True, probe_file=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("tables", help="reproduce the family tables")
    p.add_argument("--family", choices=("v", "w"), required=True)
    p.add_argument("--d", default=None, help="dimension range LO..HI (default family range)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", help="write the emission to a file instead of stdout")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("argand", help="eigenphase plot data for a pair of unitaries")
    _add_io_flags(p)
    p.set_defaults(func=cmd_argand)

    p = sub.add_parser("simulate", help="Monte Carlo trials against the analytic value")
    _add_io_flags(p, probe_class=True, probe_file=True)
    p.add_argument("--trials", type=int, default=100000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--only", help="run only checks whose name contains this substring")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="pass/fail report lines (default) or a JSON summary",
    )
    p.add_argument("--out", help="write the emission to a file instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tables" and args.d is None:
        args.d = "3..7" if args.family == "v" else "3..6"
    try:
        if not getattr(args, "tol", 1.0) > 0:
            raise InputError("--tol must be positive")
        if getattr(args, "restarts", 1) < 1:
            raise InputError("--restarts must be at least 1")
        text, code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write '{args.out}': {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
