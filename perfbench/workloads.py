"""Workloads: CLI command lists generated from a seed, and the checks on their outputs.

A workload's inputs are made from ``--seed`` before any timing starts; the
program receives only those inputs, as ``--input`` files and ``--seed``.
One pass runs every command of the list once. ``check_pass`` decides, per
command, how many operations failed and why; an operation is one command,
except in ``verify``, where it is one of the suite's checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: The CLI's default ``--tol``; no command overrides it.
TOL = 1e-6
#: JSON output carries 9 significant digits.
PRINT_TOL = 1e-9

VERIFY_CHECKS = (
    "eig", "tracenorm", "schmidt", "hull", "solver", "srm", "pairs", "pair_probe",
    "pair_equiv", "me_invariance", "qubit", "vfamily", "wfamily", "nme", "ttrio", "probeopt",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    build: object  # (seed, input_dir) -> list of command dicts


def _command(argv, kind, group=None, **expect):
    return {"argv": [str(a) for a in argv], "kind": kind, "group": group, "expect": expect}


def _haar(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _write_ensemble(path, unitaries, priors):
    d = unitaries[0].shape[0]
    obj = {
        "dim": d,
        "priors": [float(p) for p in priors],
        "unitaries": [
            {"rows": d, "cols": d, "entries": [[float(z.real), float(z.imag)] for z in u.ravel()]}
            for u in unitaries
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


# --- families ---------------------------------------------------------------

#: Table cells as ``tables --format csv`` prints them at this commit; the same
#: at seeds 0, 1 and 7. Column order dP, dNME, dME.
W_ROWS = {3: ("0.5000", "1.0000", "0.9714"), 4: ("0.5000", "1.0000", "0.9330"),
          5: ("0.5000", "1.0000", "0.9000"), 6: ("0.5000", "1.0000", "0.8727")}
V_ROWS = {3: ("1.0000", "1.0000", "0.9605"), 4: ("1.0000", "1.0000", "0.8980"),
          5: ("1.0000", "1.0000", "0.8285"), 6: ("1.0000", "1.0000", "0.7616"),
          7: ("1.0000", "1.0000", "0.7008")}


def build_families(seed, input_dir):
    """The paper's fixed constructions, run with the CLI's default ``--seed``.

    The benchmark seed does not enter. These commands take no generated
    input; their only seeded part is where the see-saw starts its 18 random
    restarts, and that alone moved one pass from 18 to 36 s over seeds 11
    to 20, far more than the changes this workload is meant to show.
    """
    return [
        _command(["tables", "--family", "w", "--format", "json"], "tables", rows=W_ROWS),
        _command(["tables", "--family", "v", "--format", "json"], "tables", rows=V_ROWS),
        _command(["ensemble", "--builtin", "v:8", "--probe-class", "arbitrary"],
                 "ensemble", p_max=1 / 8, dim=64, value=1.0),
        _command(["ensemble", "--builtin", "v:20", "--probe-class", "maxent"],
                 "ensemble", p_max=1 / 20, dim=400),
    ]


# --- random -----------------------------------------------------------------

#: Every (d, n) with d in 3..5 and n in d+1..2d, once per set. The shapes are
#: fixed so that only the seeded matrices and priors differ between seeds.
RANDOM_SHAPES = [(d, n) for d in (3, 4, 5) for n in range(d + 1, 2 * d + 1)]
RANDOM_SETS = 20
#: One see-saw restart per arbitrary-class solve, from the maximally entangled
#: start. Its latency varies 2 to 3x between ensembles; more restarts cost
#: more per ensemble without making it steadier, so many small solves average
#: the variation best.
RANDOM_RESTARTS = 1


def build_random(seed, input_dir):
    """Arbitrary and maxent solves plus a maxent simulation per ensemble.

    The product class is left out: one product see-saw takes 0.03 to 3.7 s
    at d <= 5 (coefficient of variation about 1), so the few dozen that fit
    in a run spread wall_s and p90 by 15 to 20% between seeds. Product
    see-saws run in ``families``.
    """
    rng = np.random.default_rng(seed)
    commands = []
    for s in range(RANDOM_SETS):
        for k, (d, n) in enumerate(RANDOM_SHAPES):
            group = s * len(RANDOM_SHAPES) + k
            priors = rng.dirichlet(np.ones(n))
            path = os.path.join(input_dir, f"ensemble-{group}.json")
            _write_ensemble(path, [_haar(d, rng) for _ in range(n)], priors)
            p_max = float(priors.max())
            for cls in ("arbitrary", "maxent"):
                commands.append(
                    _command(["ensemble", "--input", path, "--probe-class", cls, "--seed", seed,
                              "--restarts", RANDOM_RESTARTS], "ensemble", group, cls=cls, p_max=p_max, dim=d * d)
                )
            commands.append(
                _command(["simulate", "--input", path, "--probe-class", "maxent", "--seed", seed],
                         "simulate", group)
            )
    return commands


# --- pairs ------------------------------------------------------------------

#: d = 2..8 twice and 9..32 once per block: about one command in six is a
#: ``simulate`` (about 5 ms against 1 to 3 ms), so the pooled p90 lies inside
#: the simulate group and p50 inside the closed-form one, not on a boundary.
PAIR_DIMS = [d for d in range(2, 9)] * 2 + list(range(9, 33))
PAIR_BLOCKS = 2
SIMULATE_MAX_D = 8


def build_pairs(seed, input_dir):
    rng = np.random.default_rng(seed)
    commands = []
    for group, d in enumerate(PAIR_DIMS * PAIR_BLOCKS):
        u1, u2 = _haar(d, rng), _haar(d, rng)
        path = os.path.join(input_dir, f"pair-{group}.json")
        _write_ensemble(path, [u1, u2], [0.5, 0.5])
        trace = complex(np.trace(u1.conj().T @ u2)) / d
        d_maxent = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - abs(trace) ** 2)))
        commands.append(_command(["pairwise", "--input", path], "pairwise", group, d_maxent=d_maxent))
        commands.append(_command(["argand", "--input", path, "--format", "csv"], "argand", group,
                                 d=d, trace=[trace.real, trace.imag]))
        if d <= SIMULATE_MAX_D:
            commands.append(
                _command(["simulate", "--input", path, "--probe-class", "maxent", "--trials", 100000,
                          "--seed", seed], "simulate", group, value=d_maxent)
            )
    return commands


# --- verify -----------------------------------------------------------------

#: The hull check brute-forces each of its 15 random point sets on a grid;
#: a 4-point set costs about 1 s, the others a few ms, and seeds hold 0 to 6
#: of them. ``verify`` runs at the first of seed, seed + 1000, ... whose hull
#: check holds exactly this many, so every pass does the same amount of work.
GRID_CASES = 4


def grid_cases(program_seed):
    """4-point sets in the hull check of ``verify --seed program_seed``.

    Replays the check's draws from its generator: 200 point sets of 1..6
    points with a rotation each, then 15 grid sets of 1..4 points.
    """
    rng = np.random.default_rng(program_seed)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rng.uniform(0, 2 * np.pi, n)
        rng.uniform(0, 2 * np.pi)
    count = 0
    for _ in range(15):
        n = int(rng.integers(1, 5))
        rng.uniform(0, 2 * np.pi, n)
        count += n == 4
    return count


def verify_seed(seed):
    program_seed = seed
    while grid_cases(program_seed) != GRID_CASES:
        program_seed += 1000
    return program_seed


def build_verify(seed, input_dir):
    return [_command(["verify", "--format", "json", "--seed", verify_seed(seed)], "verify")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "families",
            why="The paper's constructions, whose optima sit on bounds: dP is capped at 0.5 for w, "
                "the arbitrary class reaches 1.0 for v:8; v:20 maxent hands the solver d^2 = 400.",
            exercises="bound-based early exits, capped small-support solves, the restart loop, "
                      "large kron memory",
            bypasses="closed forms, input parsing",
            build=build_families,
        ),
        Workload(
            "random",
            why="Seeded Haar ensembles (d 3..5, n d+1..2d, Dirichlet priors): values strictly inside "
                "every bound, real fixed-point iterations, arbitrary class evolved in d^2 space.",
            exercises="discrimination iterations, arbitrary-class see-saw probe updates, JSON input parsing",
            bypasses="bound-based early exits (no optimum sits on a bound)",
            build=build_random,
        ),
        Workload(
            "pairs",
            why="Thousands of sub-millisecond closed-form pair commands, d 2..32: CLI overhead, hull "
                "geometry, eigen and JSON code, and trial sampling.",
            exercises="cli, hullgeom, pairwise, qlinalg JSON and eigen code, sample_trials",
            bypasses="the iterative solver's loop and the see-saw (no restarts run)",
            build=build_pairs,
        ),
        Workload(
            "verify",
            why="The invariant suite: the only full-rank mixed-state solves and the only run of the "
                "CLI's check code, including the hull check's brute-force grid oracle.",
            exercises="cli check code, grid oracle, mixed-state solves",
            bypasses="input files",
            build=build_verify,
        ),
    )
}


# --- checks -----------------------------------------------------------------


def ops_in(command) -> int:
    return len(VERIFY_CHECKS) if command["kind"] == "verify" else 1


def _f4(x) -> str:
    return f"{x:.4f}"


def _check_tables(c, out):
    problems = []
    rows = {r["d"]: r for r in out["rows"]}
    want = {int(d): tuple(v) for d, v in c["expect"]["rows"].items()}
    if sorted(rows) != sorted(want):
        return [f"rows for d={sorted(rows)}, expected d={sorted(want)}"], []
    for d, cells in want.items():
        got = tuple(_f4(rows[d][k]) for k in ("dP", "dNME", "dME"))
        if got != cells:
            problems.append(f"d={d}: cells {got} != {cells}")
        gaps = rows[d]["gaps"]
        if max(gaps.values()) > TOL:
            problems.append(f"d={d}: dual gap {max(gaps.values()):.3g} above tol")
    return problems, []


def _check_ensemble(c, out):
    e = c["expect"]
    v = out["value"]
    problems, reported = [], []
    if out["dual_gap"] > TOL:
        gap = f"dual gap {out['dual_gap']:.3g} above tol"
        # printed with converged=false, the miss is the program's own report
        (reported if out["converged"] is False else problems).append(gap)
    hi = min(1.0, e["p_max"] * e["dim"])
    if not e["p_max"] - TOL <= v <= hi + TOL:
        problems.append(f"value {v} outside [p_max, min(1, p_max*D)] = [{e['p_max']:.6g}, {hi:.6g}]")
    if "value" in e and abs(v - e["value"]) > TOL:
        problems.append(f"value {v} != {e['value']}")
    return problems, reported


def _check_simulate(c, out):
    problems = []
    if abs(out["z"]) > 5:
        problems.append(f"|z| = {abs(out['z']):.3g} above 5")
    if "value" in c["expect"] and abs(out["value"] - c["expect"]["value"]) > TOL:
        problems.append(f"value {out['value']} != closed form {c['expect']['value']}")
    return problems, []


def _check_pairwise(c, out):
    problems = []
    if abs(out["dMaxEnt"] - c["expect"]["d_maxent"]) > PRINT_TOL:
        problems.append(f"dMaxEnt {out['dMaxEnt']} != numpy {c['expect']['d_maxent']}")
    if not out["dMaxEnt"] <= out["dProduct"] + PRINT_TOL <= 1 + 2 * PRINT_TOL:
        problems.append(f"not dMaxEnt <= dProduct <= 1: {out['dMaxEnt']}, {out['dProduct']}")
    return problems, []


def _parse_argand(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    if rows[0] != ["kind", "x", "y"]:
        raise ValueError("bad argand header")
    return [(k, complex(float(x), float(y))) for k, x, y in rows[1:]]


def _check_argand(c, out):
    problems = []
    phases = [z for k, z in out if k == "eigenphase"]
    if len(phases) != c["expect"]["d"] or any(abs(abs(z) - 1) > 1e-8 for z in phases):
        problems.append("eigenphases are not d points on the unit circle")
    r2 = [z for k, z in out if k == "r2_point"][0]
    if abs(r2 - complex(*c["expect"]["trace"])) > 1e-8:
        problems.append(f"r2 point {r2} != Tr(U1'U2)/d")
    return problems, []


def _check_verify(c, out):
    names = tuple(ch["name"] for ch in out["checks"])
    if names != VERIFY_CHECKS:
        return [f"checks {names}"], []
    problems = []
    if not all(math.isfinite(ch["residual"]) for ch in out["checks"]):
        problems.append("non-finite residual")
    failed = [ch["name"] for ch in out["checks"] if not ch["passed"]]
    if out["passed"] != (not failed):
        problems.append(f"passed={out['passed']} with failing checks {failed}")
    return problems, [f"verify check '{name}' failed" for name in failed]


_PARSE = {"argand": _parse_argand}
_CHECK = {
    "tables": _check_tables,
    "ensemble": _check_ensemble,
    "simulate": _check_simulate,
    "pairwise": _check_pairwise,
    "argand": _check_argand,
    "verify": _check_verify,
}


def check_pass(commands, results):
    """Per command: (failed operations, problems, failures the program reported).

    A problem is an output the benchmark finds wrong: an exception, a wrong
    exit code, a value outside its checked relation, or a dual gap above
    ``--tol`` that is not flagged. A failure the program reports is a
    ``verify`` check printed as failed (exit code 1, as documented) or a dual
    gap above ``--tol`` printed with ``converged: false``. It fails its
    operation but is not a wrong output.
    """
    parsed = [None] * len(commands)
    verdicts = []
    for i, (c, r) in enumerate(zip(commands, results)):
        problems, reported = [], []
        if r["exc"] is not None:
            problems.append(f"raised {r['exc']}")
        else:
            try:
                out = _PARSE.get(c["kind"], json.loads)(r["out"])
                problems, reported = _CHECK[c["kind"]](c, out)
                if r["code"] != (1 if c["kind"] == "verify" and reported else 0):
                    problems.append(f"exit code {r['code']}")
                parsed[i] = out
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        verdicts.append([problems, reported])

    # relations between the commands of one ensemble or pair
    groups: dict = {}
    for i, c in enumerate(commands):
        if c["group"] is not None and parsed[i] is not None:
            groups.setdefault(c["group"], {})[c["expect"].get("cls", c["kind"])] = i
    for members in groups.values():
        if "arbitrary" in members and "maxent" in members:
            arb, me = parsed[members["arbitrary"]]["value"], parsed[members["maxent"]]["value"]
            if arb < me - TOL:
                verdicts[members["arbitrary"]][0].append(f"arbitrary {arb} below maxent {me}")
        if "simulate" in members and "maxent" in members:
            sim, me = parsed[members["simulate"]]["value"], parsed[members["maxent"]]["value"]
            if abs(sim - me) > TOL:
                verdicts[members["simulate"]][0].append(f"simulate value {sim} != ensemble maxent {me}")
        if "argand" in members and "pairwise" in members:
            witness = [z for k, z in parsed[members["argand"]] if k == "r1_witness"][0]
            r1 = parsed[members["pairwise"]]["r1"]
            if abs(abs(witness) - r1) > 1e-8:
                verdicts[members["argand"]][0].append(f"|witness| {abs(witness)} != r1 {r1}")

    out = []
    for c, (problems, reported) in zip(commands, verdicts):
        if any(p.startswith(("raised", "unreadable")) for p in problems):
            failed = ops_in(c)
        else:
            failed = max(len(reported), 1 if problems else 0)
        out.append((failed, problems, reported))
    return out
