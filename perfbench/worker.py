"""Runs one workload's command list in-process through ``uniprobe.cli.main``.

Started by ``run.py`` in a process of its own, so that the process's peak
resident memory belongs to the workload. Passes repeat the same commands
until the next pass would overrun ``--seconds`` (at least one pass). With
``--trace 1`` untraced passes fill the first half of that time (at least
one pass), as the base of the tracing overhead, and traced passes the rest
(at least one). Output checks run between passes, outside the timed region.

Usage: python3 perfbench/worker.py --root DIR --plan FILE --seconds N --trace 0|1
       --out FILE [--spans FILE.npz]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import sys
import time

import tracer
import workloads

_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def digest(text: str) -> str:
    """Digest of an output with every float rounded to 4 decimals, as tables print them."""
    rounded = _FLOAT.sub(lambda m: f"{round(float(m.group()), 4) + 0.0:.4f}", text)
    return hashlib.sha256(rounded.encode()).hexdigest()[:16]


def run_pass(cli, commands, trace=None):
    results, latencies = [], []
    t_pass = time.perf_counter()
    for i, c in enumerate(commands):
        if trace is not None:
            trace.cmd_id = i
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(c["argv"]))
        except SystemExit as e:  # argparse rejects bad arguments this way
            exc = f"SystemExit({e.code})"
        except Exception as e:  # noqa: BLE001 - a failing command is a failed operation
            exc = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t0)
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue(), "exc": exc})
    return time.perf_counter() - t_pass, latencies, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import uniprobe
    import uniprobe.cli as cli

    if not os.path.abspath(uniprobe.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"uniprobe imported from {uniprobe.__file__}, not from {src}")
    if os.environ.get("UNIPROBE_THREADS") != "1":
        raise SystemExit("UNIPROBE_THREADS must be 1: the tracer keeps one span stack")

    with open(args.plan) as fh:
        commands = json.load(fh)["commands"]

    t_start = time.perf_counter()
    trace = None
    passes, latencies, summaries = [], [], []
    first = first_verdicts = None
    attempted = failed = 0
    problems, reported = [], []

    while True:
        traced = trace is not None
        mark = trace.mark() if traced else 0
        wall, lat, results = run_pass(cli, commands, trace)
        passes.append({"wall_s": wall, "traced": traced})
        if traced:
            s = trace.summarize(mark, trace.mark(), len(commands))
            s["metrics"]["cli.output_kb"] = sum(len(r["out"]) for r in results) / 1024
            summaries.append(s)
        else:
            latencies += lat

        if first is None:
            first, first_verdicts = results, workloads.check_pass(commands, results)
            verdicts = first_verdicts
        else:
            # the same inputs again: every output must repeat exactly
            verdicts = [
                v if (r["code"], r["out"]) == (f["code"], f["out"])
                else (workloads.ops_in(c), ["output differs from the first pass"], [])
                for c, r, f, v in zip(commands, results, first, first_verdicts)
            ]
        for i, (c, (n_failed, probs, reps)) in enumerate(zip(commands, verdicts)):
            attempted += workloads.ops_in(c)
            failed += n_failed
            problems += [f"command {i} ({' '.join(c['argv'][:3])}): {p}" for p in probs]
            reported += [f"command {i} ({' '.join(c['argv'][:3])}): {r}" for r in reps]

        same_kind = [p["wall_s"] for p in passes if p["traced"] == traced]
        next_end = time.perf_counter() - t_start + statistics.median(same_kind)
        if args.trace and not traced:
            # untraced passes fill the first half, as the base of the overhead
            if next_end > args.seconds / 2:
                trace = tracer.Tracer()
                trace.install(uniprobe)
            continue
        if next_end > args.seconds:
            break

    result = {
        "passes": passes,
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reported": reported,
        "digests": [digest(r["out"]) for r in first],
    }
    if summaries:
        work = [tracer.work_counts(s) for s in summaries]
        if any(w != work[0] for w in work[1:]):
            problems.append("traced work counts differ between passes of the same inputs")
        result["work_counts"] = work[0]
        result["per_layer"] = _median_dict([s["metrics"] for s in summaries])
        names = sorted({n for s in summaries for n in s["functions"]})
        result["functions"] = {
            n: _median_dict([s["functions"].get(n, {"calls": 0, "busy_s": 0.0}) for s in summaries])
            for n in names
        }
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        result["per_layer"]["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced)
        trace.save(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


if __name__ == "__main__":
    sys.exit(main())
