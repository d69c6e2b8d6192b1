"""Span tracing for the traced benchmark pass.

The tracer replaces the module attributes that `densigraph.cli`,
`densigraph.experiment` and `densigraph.limits` resolve at call time (and
`Stream.uniforms` on the class) with wrappers that record one span per call:
its name, start, end and parent span.  Spans stay in memory until the run
ends.  Nothing in the package itself is modified on disk.

Self time of a span is its duration minus the durations of its direct
children; spans are recorded from a single thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter


class SpanError(RuntimeError):
    """A wrapped layer function is missing, or an expected span never fired."""


def _count_simulate(counts, traj, env, params, x0, t_len, burnin=0, seed=0):
    steps = burnin + t_len
    counts["forward.steps"] += steps
    counts["forward.site_updates"] += env.n * steps
    counts["forward.matvec_flop"] += 2 * env.n * env.n * steps   # computed: 2n^2 per step


def _count_perfect(counts, traj, *args, **kwargs):
    counts["perfect.sites"] += traj.x.size


def _count_estimate(counts, est, traj, *args, **kwargs):
    counts["estimators.cells"] += traj.x.size


def _count_invert(counts, res, *args, **kwargs):
    counts["inversion.nonok"] += not res.ok
    counts["inversion.clipped"] += bool(res.clipped)


def _count_save_trajectory(counts, result, traj, path_or_file):
    if isinstance(path_or_file, str) or hasattr(path_or_file, "__fspath__"):
        counts["model.traj_bytes_saved"] += os.path.getsize(path_or_file)


def _count_load_trajectory(counts, traj, path):
    counts["model.traj_bytes_loaded"] += os.path.getsize(path)


# (module, attribute, span name, counter hook).  A hook takes the unit's
# counters, the call's result and the call's own arguments.  The span name is the
# layer module and public function whose work the call represents.
TARGETS = (
    ("densigraph.cli", "main", "cli.main", None),
    ("densigraph.cli", "run_experiment", "experiment.run_experiment", None),
    ("densigraph.cli", "rows_to_csv", "experiment.rows_to_csv", None),
    ("densigraph.cli", "summarize", "experiment.summarize", None),
    ("densigraph.cli", "summary_to_csv", "experiment.summary_to_csv", None),
    ("densigraph.cli", "sample_environment", "model.sample_environment", None),
    ("densigraph.cli", "save_environment", "model.save_environment", None),
    ("densigraph.cli", "load_environment", "model.load_environment", None),
    ("densigraph.cli", "save_trajectory", "model.save_trajectory",
     _count_save_trajectory),
    ("densigraph.cli", "load_trajectory", "model.load_trajectory",
     _count_load_trajectory),
    ("densigraph.cli", "simulate", "forward.simulate", _count_simulate),
    ("densigraph.cli", "perfect_sample", "perfect.perfect_sample", _count_perfect),
    ("densigraph.cli", "estimate_all", "estimators.estimate_all", _count_estimate),
    ("densigraph.cli", "compute_limits", "limits.limits", None),
    ("densigraph.experiment", "_replica_rows", "experiment.replica", None),
    ("densigraph.experiment", "sample_environment", "model.sample_environment", None),
    ("densigraph.experiment", "simulate", "forward.simulate", _count_simulate),
    ("densigraph.experiment", "perfect_sample", "perfect.perfect_sample",
     _count_perfect),
    ("densigraph.experiment", "estimate_all", "estimators.estimate_all",
     _count_estimate),
    ("densigraph.experiment", "invert", "inversion.invert", _count_invert),
    ("densigraph.experiment", "limits", "limits.limits", None),
    ("densigraph.experiment", "limit_inversion", "limits.limit_inversion", None),
    ("densigraph.limits", "limits", "limits.limits", None),
    ("densigraph.limits", "invert_triple", "inversion.invert_triple", None),
    ("densigraph.rng", "Stream.uniforms", "rng.uniforms", None),
)

# Spans whose self time is glue rather than layer work; a replica's coverage
# is the share of its wall time not spent as self time of these.
CONTAINERS = ("bench.roundtrip", "cli.main", "experiment.replica")
REPLICA_SPANS = ("bench.roundtrip", "experiment.replica")

_COMMON = {"cli.main", "model.sample_environment", "rng.uniforms",
           "estimators.estimate_all", "limits.limits"}
_SWEEP = _COMMON | {"experiment.run_experiment", "experiment.rows_to_csv",
                    "experiment.summarize", "experiment.summary_to_csv",
                    "experiment.replica", "inversion.invert",
                    "limits.limit_inversion", "inversion.invert_triple"}
# Spans that must fire at least once per traced unit of each workload.
EXPECTED = {
    "forward_paper": _SWEEP | {"forward.simulate"},
    "perfect_paper": _SWEEP | {"perfect.perfect_sample"},
    "small_n_lambda_sweep": _SWEEP | {"forward.simulate"},
    "traj_file_roundtrip": _COMMON | {
        "bench.roundtrip", "forward.simulate", "model.save_environment",
        "model.save_trajectory", "model.load_trajectory",
        "model.load_environment"},
}


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.units: list[tuple[int, int, Counter]] = []
        self._stack = [-1]
        self._counts = Counter()
        self._saved = []

    def wrap(self, name, fn, hook=None):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self._counts, result, *args, **kwargs)
            return result
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for module, attr, name, hook in TARGETS:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, last, None)
            if fn is None:
                self.uninstall()
                raise SpanError(f"{module}.{attr} not found: a layer function was "
                                "renamed or moved; update TARGETS in bench/spans.py")
            self._saved.append((owner, last, fn))
            setattr(owner, last, self.wrap(name, fn, hook))

    def uninstall(self):
        while self._saved:
            owner, last, fn = self._saved.pop()
            setattr(owner, last, fn)

    def unit(self, fn, *args, **kwargs):
        """Run one traced unit of work; its spans and counts are kept apart."""
        first = len(self.names)
        self._counts = Counter()
        try:
            return self.span("bench.unit", fn, *args, **kwargs)
        finally:
            self.units.append((first, len(self.names), self._counts))

    def dump(self, path):
        """Write every span as [name, start, end, parent] plus the unit ranges."""
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        spans = [[ids[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.start, self.end, self.parent)]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": table, "spans": spans,
                       "units": [[a, b] for a, b, _ in self.units]}, fh)


def unit_summary(tracer, first, last):
    """Per-name calls, inclusive and self seconds; replica coverage ratios."""
    child = defaultdict(float)
    glue = defaultdict(float)    # container self time inside each replica span
    for k in range(first, last):
        p = tracer.parent[k]
        if p >= 0:
            child[p] += tracer.end[k] - tracer.start[k]
    calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    replica_of = {}
    coverage = []
    for k in range(first, last):
        name = tracer.names[k]
        dur = tracer.end[k] - tracer.start[k]
        own = dur - child[k]
        calls[name] += 1
        incl[name] += dur
        self_s[name] += own
        p = tracer.parent[k]
        rep = k if name in REPLICA_SPANS else replica_of.get(p)
        if rep is not None:
            replica_of[k] = rep
            if name in CONTAINERS:
                glue[rep] += own
    for rep, uncovered in glue.items():
        dur = tracer.end[rep] - tracer.start[rep]
        coverage.append(1.0 - uncovered / dur)
    return calls, incl, self_s, coverage


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(calls, incl, self_s, counts):
    """Per-layer metrics of one traced unit (one execution of the workload)."""
    replicas = calls["experiment.replica"] + calls["bench.roundtrip"]
    fwd, per = self_s["forward.simulate"], self_s["perfect.perfect_sample"]
    save, load = self_s["model.save_trajectory"], self_s["model.load_trajectory"]
    est, inv = self_s["estimators.estimate_all"], calls["inversion.invert"]
    return {
        "forward.simulate.self_s": fwd,
        "forward.steps": counts["forward.steps"],
        "forward.site_updates_per_s": _ratio(counts["forward.site_updates"],
                                             incl["forward.simulate"]),
        "forward.matvec_gflop_per_s": _ratio(counts["forward.matvec_flop"], fwd) / 1e9,
        "rng.uniforms.self_s": self_s["rng.uniforms"],
        "rng.uniforms.calls": calls["rng.uniforms"],
        "perfect.perfect_sample.self_s": per,
        "perfect.sites_per_s": _ratio(counts["perfect.sites"], per),
        "model.sample_environment.self_s": self_s["model.sample_environment"],
        "model.sample_environment.calls": calls["model.sample_environment"],
        "model.save_trajectory.self_s": save,
        "model.load_trajectory.self_s": load,
        "model.traj_file_bytes": counts["model.traj_bytes_saved"],
        "model.save_trajectory.mb_per_s": _ratio(counts["model.traj_bytes_saved"],
                                                 save) / 1e6,
        "model.load_trajectory.mb_per_s": _ratio(counts["model.traj_bytes_loaded"],
                                                 load) / 1e6,
        "model.save_environment.self_s": self_s["model.save_environment"],
        "model.load_environment.self_s": self_s["model.load_environment"],
        "estimators.estimate_all.self_s": est,
        "estimators.estimate_all.calls": calls["estimators.estimate_all"],
        "estimators.cells_per_s": _ratio(counts["estimators.cells"], est),
        "inversion.invert.self_s": self_s["inversion.invert"],
        "inversion.invert.calls": inv,
        "inversion.nonok_frac": _ratio(counts["inversion.nonok"], inv),
        "inversion.clipped_frac": _ratio(counts["inversion.clipped"], inv),
        "limits.limits.self_s": self_s["limits.limits"],
        "limits.limit_inversion.self_s": self_s["limits.limit_inversion"],
        "limits.solves_per_replica": _ratio(calls["limits.limits"], replicas),
        "experiment.run_experiment.self_s": self_s["experiment.run_experiment"],
        "experiment.replica.self_s": self_s["experiment.replica"],
        "experiment.rows_to_csv.self_s": self_s["experiment.rows_to_csv"],
        "experiment.summarize.self_s": self_s["experiment.summarize"],
    }


def traced_metrics(tracer, workload):
    """Median per-layer metrics over the traced units, after the coverage guard.

    Raises SpanError naming every expected span that did not fire in a unit.
    """
    per_unit, coverage = [], []
    for first, last, counts in tracer.units:
        calls, incl, self_s, cov = unit_summary(tracer, first, last)
        missing = sorted(n for n in EXPECTED[workload] if calls[n] == 0)
        if missing:
            raise SpanError(f"span coverage guard: {', '.join(missing)} never fired "
                            f"on workload {workload}")
        per_unit.append(layer_metrics(calls, incl, self_s, counts))
        coverage.extend(cov)
    out = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
    out["spans.replica_coverage_frac"] = statistics.median(coverage)
    out["spans.replica_coverage_min"] = min(coverage)
    return out
