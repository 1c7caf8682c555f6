"""Span tracer that instruments the uniprobe package from outside.

``install`` replaces every function defined in the package's modules with a
wrapper that records one span per call: function, start, end, parent span
and the id of the CLI command being run. A function is replaced in every
``uniprobe`` module namespace that bound it, because ``from .x import f``
copies the reference into the importing module (``probeopt`` calls
``discriminate_optimal`` and ``cli`` calls ``optimize`` through such copies),
and inside module-level lists such as the table of verify checks.

Spans stay in memory in flat arrays; ``save`` writes them out once, at the
end of the run. The package must run single-threaded (``UNIPROBE_THREADS=1``),
since one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: The package's layers, by module.
MODULES = ("qlinalg", "hullgeom", "discrimination", "pairwise", "families", "probeopt", "cli")

#: Per-value output formatting helpers, called once per printed number. Their
#: time stays in the calling ``cli`` span, which is the layer they belong to.
_SKIP = {"cli._round9", "cli._jround", "cli._fmt9"}


def _solve_info(signature):
    def hook(args, kwargs, outcome):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        ens = bound.arguments["ensemble"]
        return (outcome.iterations, bound.arguments["max_iter"], outcome.converged, ens.size, ens.dim)

    return hook


def _nbytes(args, kwargs, result):
    return result.nbytes


def _points(args, kwargs, result):
    return np.asarray(args[0]).size


def _trials(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["trials"])


def _restart_value(args, kwargs, result):
    return float(result[0])


#: What a span keeps of its call, for the functions whose work is counted.
_HOOKS = {
    "qlinalg.tensor": _nbytes,
    "hullgeom.min_hull_norm": _points,
    "discrimination.sample_trials": _trials,
    "probeopt._seesaw_run": _restart_value,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("l")
        self.parent: array = array("l")
        self.cmd: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        #: span index -> value returned by the function's hook
        self.extra: dict = {}
        self.cmd_id = -1
        self._stack: list[int] = []

    # --- instrumentation --------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self.cmd_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                self.extra[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function and classmethod defined in the package's modules."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name == "discrimination.discriminate_optimal":
                        replaced[obj] = self._wrap(name, obj, _solve_info(inspect.signature(obj)))
                    elif name not in _SKIP:
                        replaced[obj] = self._wrap(name, obj, _HOOKS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod):
                            # named by module, as families.from_json covers both
                            # ensemble and probe parsing
                            wrapped = self._wrap(f"{short}.{meth}", raw.__func__)
                            setattr(obj, meth, classmethod(wrapped))
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, list):
                    obj[:] = [_swap(item, replaced) for item in obj]

    # --- results ----------------------------------------------------------

    def arrays(self):
        return tuple(np.asarray(a) for a in (self.name_of, self.parent, self.cmd, self.start, self.end))

    def mark(self) -> int:
        """Index of the next span, to delimit the spans of one pass."""
        return len(self.start)

    def save(self, path: str) -> None:
        name, parent, cmd, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, cmd=cmd, start=start, end=end
        )

    def summarize(self, lo: int, hi: int, n_commands: int) -> dict:
        """Per-layer metrics and per-command work counts of spans lo..hi-1.

        A function's busy time is the summed duration of its spans, callees
        included; a module's self time is the duration of its spans minus the
        part their child spans cover. No traced function calls itself.
        """
        name, parent, cmd, start, end = (a[lo:hi] for a in self.arrays())
        parent = np.where(parent >= lo, parent - lo, -1)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        self_time = np.bincount(name, weights=dur - child, minlength=n_names)

        functions = {
            fname: {"calls": int(calls[i]), "busy_s": float(busy[i])}
            for i, fname in enumerate(self.names)
            if calls[i]
        }
        m: dict = {f"{short}.self_s": 0.0 for short in MODULES}
        for i, fname in enumerate(self.names):
            m[f"{fname.split('.')[0]}.self_s"] += float(self_time[i])

        ids = {n: i for i, n in enumerate(self.names)}

        def rows(fname):
            return np.flatnonzero(name == ids[fname])

        def extras(fname):
            return [self.extra[lo + i] for i in rows(fname)]

        solve_rows = rows("discrimination.discriminate_optimal")
        solves = extras("discrimination.discriminate_optimal")
        iters = np.array([s[0] for s in solves], dtype=np.int64)
        n_solves = len(solves)
        converged = sum(1 for s in solves if s[2])
        solve_busy = float(busy[ids["discrimination.discriminate_optimal"]])
        m["discrimination.solves"] = n_solves
        m["discrimination.iterations"] = int(iters.sum())
        m["discrimination.us_per_iteration"] = 1e6 * solve_busy / iters.sum() if iters.sum() else 0.0
        m["discrimination.capped"] = sum(1 for s in solves if s[0] == s[1])
        m["discrimination.stalled"] = sum(1 for s in solves if not s[2] and s[0] < s[1])
        m["discrimination.converged_ratio"] = converged / n_solves if n_solves else 0.0
        m["discrimination.state_mb"] = sum(s[3] * s[4] * s[4] * 16 for s in solves) / 1e6
        m["discrimination.trials"] = sum(extras("discrimination.sample_trials"))

        # a restart improves when it beats every earlier restart of the same
        # class solve (its parent span)
        runs = rows("probeopt._seesaw_run")
        best: dict = {}
        improving = 0
        for i in runs:
            value = self.extra[lo + i]
            if value > best.get(parent[i], -np.inf):
                improving += 1
                best[parent[i]] = value
        # spans below a see-saw run: parents precede children, so propagating
        # down the tree once per nesting level reaches every descendant
        in_run = np.zeros(dur.size, dtype=bool)
        in_run[runs] = True
        safe_parent = np.where(has_parent, parent, 0)
        while True:
            grown = in_run | (has_parent & in_run[safe_parent])
            if (grown == in_run).all():
                break
            in_run = grown
        n_runs = len(runs)
        m["probeopt.restarts"] = n_runs
        m["probeopt.restarts_improving"] = improving
        m["probeopt.restart_yield"] = improving / n_runs if n_runs else 0.0
        m["probeopt.solves_per_restart"] = int(in_run[solve_rows].sum()) / n_runs if n_runs else 0.0

        m["qlinalg.tensor.mb"] = sum(extras("qlinalg.tensor")) / 1e6
        m["hullgeom.points"] = sum(extras("hullgeom.min_hull_norm"))
        m["cli.commands"] = int(calls[ids["cli.main"]])

        solve_cmd = cmd[solve_rows]
        per_cmd_solves = np.bincount(solve_cmd, minlength=n_commands)
        per_cmd_iters = np.bincount(solve_cmd, weights=iters, minlength=n_commands)
        per_cmd_runs = np.bincount(cmd[runs], minlength=n_commands)
        per_cmd_spans = np.bincount(cmd, minlength=n_commands)
        per_command = [
            {
                "solves": int(per_cmd_solves[c]),
                "iterations": int(per_cmd_iters[c]),
                "restarts": int(per_cmd_runs[c]),
                "spans": int(per_cmd_spans[c]),
            }
            for c in range(n_commands)
        ]
        return {"metrics": m, "functions": functions, "per_command": per_command}


#: Metrics that count work; for the same inputs they repeat exactly.
COUNT_METRICS = (
    "discrimination.solves", "discrimination.iterations", "discrimination.capped",
    "discrimination.stalled", "discrimination.trials", "discrimination.state_mb",
    "probeopt.restarts", "probeopt.restarts_improving", "qlinalg.tensor.mb",
    "hullgeom.points", "cli.commands",
)


def work_counts(summary) -> dict:
    """The work counts of one traced pass: count metrics, calls per function
    and per-command counts."""
    return {
        "metrics": {k: summary["metrics"][k] for k in COUNT_METRICS},
        "calls": {n: f["calls"] for n, f in summary["functions"].items()},
        "per_command": summary["per_command"],
    }


def _swap(item, replaced):
    if inspect.isfunction(item):
        return replaced.get(item, item)
    if isinstance(item, tuple):
        return tuple(replaced.get(x, x) if inspect.isfunction(x) else x for x in item)
    return item
