"""Benchmark of the uniprobe CLI: certified solves on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload families|random|pairs|verify \\
        --seed N --seconds S --trace 0|1

The run makes the workload's inputs from the seed, times cold starts of the
CLI, then runs the workload in a worker process of its own (``worker.py``)
that calls ``uniprobe.cli.main`` in-process for every command and checks
every output. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``. Records of each run (per-command
output digests, work counts, spans) go to ``.perfbench_out/``.

Exits 2 without a result when the checkout holds no ``src/uniprobe``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: One BLAS, OpenMP and package thread: with two, the same solve took 5.8 to
#: 9.3 s over three runs on a 2-CPU machine, against 6.8 to 6.9 s with one.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "UNIPROBE_THREADS": "1"}
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
#: A run must end within 180 s; the worker is stopped after this many.
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cold_start(root, env, *flags):
    """Fresh interpreter until ``uniprobe.cli`` is imported; returns (seconds, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import uniprobe.cli"],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    return time.perf_counter() - t0, proc.stderr


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)")


def import_times(stderr):
    """(uniprobe import seconds, scipy.linalg import seconds) from ``-X importtime``."""
    total = scipy = 0.0
    for cumulative, indent, module in _IMPORTTIME.findall(stderr):
        if not indent and (module == "uniprobe" or module.startswith("uniprobe.")):
            total += int(cumulative) / 1e6
        if module == "scipy.linalg" and not scipy:
            scipy = int(cumulative) / 1e6
    return total, scipy


def measure_setup(root, env, trace):
    cold_start(root, env)  # writes bytecode caches, which users do not pay for on every run
    out = {"setup_s": statistics.median(cold_start(root, env)[0] for _ in range(SETUP_SAMPLES))}
    if trace:
        times = [import_times(cold_start(root, env, "-X", "importtime")[1]) for _ in range(IMPORTTIME_SAMPLES)]
        out["setup.import_s"] = statistics.median(t[0] for t in times)
        out["setup.import_scipy_s"] = statistics.median(t[1] for t in times)
    return out


def run_worker(root, env, argv, limit):
    """Run the worker to completion; returns its peak resident memory in MB."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv], cwd=root, env=env)
    deadline = time.monotonic() + limit
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker exceeded {limit:.0f} s")
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return usage.ru_maxrss / 1024


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **PINNED_ENV,
    }


def source_hash(root):
    """Hash of the package and of the input generator: equal hashes and
    seeds must give equal work counts."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(root, "src", "uniprobe", "*.py")))
    for path in paths + [os.path.join(HERE, "workloads.py")]:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + fh.read())
    return h.hexdigest()[:12]


def percentile(values, q):
    """Linear interpolation between closest ranks (``method="inclusive"``)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def end_to_end(result, setup, rss_mb):
    walls = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    lat_ms = [1e3 * t for t in result["latencies_s"]]
    return {
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": percentile(lat_ms, 0.5),
        "cmd_p90_ms": percentile(lat_ms, 0.9),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss_mb,
    }


def per_layer(spec, result, setup):
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in result["per_layer"]:
            values[name] = result["per_layer"][name]
        elif name in setup:
            values[name] = setup[name]
        else:
            function, _, field = name.rpartition(".")
            values[name] = result["functions"].get(function, {}).get(field, 0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    t_run = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uniprobe", "cli.py")):
        print(f"error: no src/uniprobe under {root}; run from the root of a uniprobe checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = tempfile.mkdtemp(prefix=f"{tag}-", dir=out_dir)
    try:
        commands = workloads.WORKLOADS[args.workload].build(args.seed, run_dir)
        plan = os.path.join(run_dir, "plan.json")
        with open(plan, "w") as fh:
            json.dump({"commands": commands}, fh)
        env = child_env(root)
        setup = measure_setup(root, env, args.trace)

        result_path = os.path.join(run_dir, "result.json")
        worker_argv = ["--root", root, "--plan", plan, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", result_path]
        if args.trace:
            worker_argv += ["--spans", os.path.join(out_dir, f"{tag}-spans.npz")]
        rss_mb = run_worker(root, env, worker_argv, RUN_LIMIT_S - (time.perf_counter() - t_run))
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p.replace(run_dir, "<inputs>") for p in result["problems"]]
    reported = [r.replace(run_dir, "<inputs>") for r in result["reported"]]
    if args.trace:
        # the same program and seed must do exactly the same work in every run
        counts_path = os.path.join(out_dir, f"counts-{args.workload}-seed{args.seed}-{source_hash(root)}.json")
        if os.path.exists(counts_path):
            with open(counts_path) as fh:
                if json.load(fh) != result["work_counts"]:
                    problems.append(f"work counts differ from the earlier traced run in {counts_path}")
        else:
            with open(counts_path, "w") as fh:
                json.dump(result["work_counts"], fh)
        values = per_layer(spec, result, setup)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(result, setup, rss_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: values[name] for name in units}

    n = len(commands)
    untraced_lat = result["latencies_s"]
    digests = [
        {
            "argv": [a.replace(run_dir, "<inputs>") for a in c["argv"]],
            "digest": d,
            "latency_ms": 1e3 * statistics.median(untraced_lat[i::n]),
        }
        for i, (c, d) in enumerate(zip(commands, result["digests"]))
    ]
    for entry, work in zip(digests, result.get("work_counts", {}).get("per_command", [])):
        entry["work"] = work
    run_digest = hashlib.sha256("".join(result["digests"]).encode()).hexdigest()[:16]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(), "metrics": values, "passes": result["passes"],
        "attempted": result["attempted"], "failed": result["failed"], "problems": problems,
        "reported": reported, "run_digest": run_digest, "digests": digests,
    }
    if args.trace:
        record["work_counts"] = {k: result["work_counts"][k] for k in ("metrics", "calls")}
        record["functions"] = result["functions"]
    record_path = os.path.join(out_dir, f"{tag}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    report(args, record, result, units, record_path)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def report(args, record, result, units, record_path):
    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    workload = workloads.WORKLOADS[args.workload]
    print(f"why: {workload.why}")
    print(f"exercises: {workload.exercises}; bypasses: {workload.bypasses}")
    walls = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    q1, q2, q3 = (percentile(walls, q) for q in (0.25, 0.5, 0.75))
    print(f"wall_s median={q2:.4f} q1={q1:.4f} q3={q3:.4f} over {len(walls)} untraced passes")
    print(f"command latency samples={len(result['latencies_s'])} (pooled over untraced passes)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_ratio={failed / attempted:.4f} ({failed} of {attempted} operations)")
    for line in record["reported"][:5]:
        print(f"  reported by the program: {line}")
    if any("'solver'" in line for line in record["reported"]):
        print("  (known defect: the solver check allows 1e-9 below max(p, 1-p), less than its tol=1e-7)")
    for line in record["problems"][:10]:
        print(f"  PROBLEM {line}")
    print(f"run digest {record['run_digest']} over {len(record['digests'])} commands; record {record_path}")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
