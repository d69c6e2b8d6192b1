"""densigraph benchmark: end-to-end throughput with checked outputs, and a
traced per-layer split.

    python3 bench/run.py --workload forward_paper --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from <checkout>/src, never from
an installed copy.  One run executes the workload through the package's
public entry points (`densigraph run`, or the `sample` / `estimate` /
`limits` commands, called in-process through `densigraph.cli.main`),
alternating one-process and two-process units for --seconds, and checks
every output.  With --trace 1 it measures half the time untraced and then
repeats the one-process unit with spans around every layer call.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  bench/NOTES.md explains
the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter, sleep

# One BLAS thread per process, set before numpy is first imported here or in
# a cold start.  A threaded n=500 matvec waits on the slower of two cores at
# every step: on a 2-vCPU VM that tripled forward_paper's run-to-run spread
# and gained no speed.  At --jobs 2, threaded workers would also run more
# threads than such a machine has cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import workloads  # noqa: E402
from spans import SpanError, Tracer, traced_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COLD_STARTS = 15         # fresh interpreters per run; setup_s is their median
MAX_TRACED_UNITS = 3     # spans of a traced unit are all kept in memory
SIZING_SEEDS = (1, 2, 3, 4, 5)   # seeds used while the workloads were sized
HOLDOUT_SEED = 7919      # never used while sizing: re-check performance claims on it
MHAT_SIGMAS = 8.0        # m_hat sanity bound, in binomial standard errors

# Expected output headers, written out here rather than imported from the
# package, so that a change to the package's headers fails the checks.
CSV_HEADER = ("vary,value,T,replica,m_hat,v_hat,w_hat,mu_hat,lambda_hat,p_hat,"
              "branch,guards,clipped,m_inf,v_inf,w_inf,mu_inf,lambda_inf,p_inf")
SUMMARY_HEADER = ("vary,value,T,n,med_err_m,med_err_v,med_err_w,med_err_mu,"
                  "med_err_lambda,med_err_p")


def call_cli(argv):
    """`densigraph <argv>` in this process: (exit code, captured stdout)."""
    from densigraph import cli   # resolved per call, so a traced cli.main is used
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def mhat_tolerance(m_inf, n, t_len):
    """Largest accepted |m_hat - m_inf| for one replica at horizon t_len."""
    return MHAT_SIGMAS * math.sqrt(m_inf * (1.0 - m_inf) / (n * t_len))


class Tally:
    """Replicas (or round trips) attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted, failed, reason=""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed}/{attempted} failed: {reason}")


class SweepWorkload:
    """`densigraph run --jobs 1|2 --out rows.csv` on one sweep configuration."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        s = workloads.SWEEPS[name]
        self.n = int(s["n"])
        self.vary = s["vary"]
        values = [float(v) for v in s["vary_values"].split(",") if v] or [None]
        self.values = ["" if v is None else f"{v:.17g}" for v in values]
        self.t_grid = [int(t) for t in s["t_grid"].split(",")]
        n_simu = int(s["n_simu"])
        # (value index, T, replica) in the order the CSV must list them.
        self.keys = [(vi, t, r) for vi in range(len(values))
                     for t in self.t_grid for r in range(n_simu)]
        self.replicas = {(vi, r) for vi, _, r in self.keys}
        self.per_unit = {1: len(self.replicas), 2: len(self.replicas)}
        self.reference = None   # CSV bytes of the first unit that ran
        self.tally = Tally()

    def _run(self, jobs, out, **changes):
        argv = ["run", "--out", str(out), "--jobs", str(jobs)]
        for item in workloads.sweep_overrides(self.name, self.seed, **changes):
            argv += ["--set", item]
        t0 = perf_counter()
        code, summary = call_cli(argv)
        return perf_counter() - t0, code, summary

    def warm_up(self):
        self._run(1, self.workdir / "warmup.csv", n_simu="1")

    def unit(self, jobs, tracer=None):
        """Run and check one sweep; returns its wall time, or None if it failed."""
        out = self.workdir / f"rows_j{jobs}{'_traced' if tracer else ''}.csv"
        try:
            if tracer is None:
                wall, code, summary = self._run(jobs, out)
            else:
                wall, code, summary = tracer.unit(self._run, jobs, out)
            data = out.read_bytes()
        except Exception:
            traceback.print_exc()
            self.tally.add(len(self.replicas), len(self.replicas), "raised")
            return None
        failed, reason = self.check(code, data, summary)
        self.tally.add(len(self.replicas), len(failed), f"j{jobs}: {reason}")
        if self.reference is None:
            self.reference = data
        return None if failed else wall

    def check(self, code, data, summary):
        """Failed replica ids of one unit's output, and why."""
        everyone = set(self.replicas)
        if code not in (0, 3):
            return everyone, f"exit code {code}"
        lines = data.decode("ascii").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return everyone, "CSV header or final newline"
        rows = lines[1:-1]
        if len(rows) != len(self.keys):
            return everyone, f"{len(rows)} CSV rows, expected {len(self.keys)}"
        summary_lines = summary.splitlines()
        n_cells = len(self.values) * (len(self.t_grid) + 1)   # + the limit marks
        if summary_lines[:1] != [SUMMARY_HEADER] or len(summary_lines) != 1 + n_cells:
            return everyone, "summary header or cell count"
        ref = (self.reference.decode("ascii").split("\n")[1:-1]
               if self.reference is not None else [None] * len(rows))
        failed, reasons = set(), set()
        for line, (vi, t, r), ref_line in zip(rows, self.keys, ref):
            f = line.split(",")
            if f[:4] != [self.vary, self.values[vi], str(t), str(r)] or len(f) != 19:
                reasons.add("(value, T, replica) order")
            elif t == self.t_grid[-1] and not (
                    abs(float(f[4]) - float(f[13]))
                    <= mhat_tolerance(float(f[13]), self.n, t)):
                reasons.add("m_hat far from m_inf")
            elif ref_line is not None and line != ref_line:
                reasons.add("bytes differ from the first unit")
            else:
                continue
            failed.add((vi, r))
        return failed, ", ".join(sorted(reasons))

    def csv_sha256(self):
        return hashlib.sha256(self.reference or b"").hexdigest()

    def close(self):
        pass


def _roundtrip(seed, workdir):
    """One sample -> dump -> estimate -> limits path: (wall, [(code, stdout)])."""
    t0 = perf_counter()
    outputs = [call_cli(argv) for argv in workloads.roundtrip_argvs(seed, workdir)]
    return perf_counter() - t0, outputs


def _init_worker():
    import densigraph.cli  # noqa: F401  (import cost stays out of the units)


def _wait(seconds):
    sleep(seconds)


class RoundtripWorkload:
    """The CLI file path: one round trip at 1 job, two concurrent ones at 2."""

    def __init__(self, name, seed, workdir):
        self.seeds = workloads.roundtrip_seeds(seed)
        self.dirs = []
        for k in range(2):
            d = workdir / f"roundtrip{k}"
            d.mkdir()
            self.dirs.append(d)
        self.per_unit = {1: 1, 2: 2}
        self.expected = {}
        self.traj_sha = {}
        self.tally = Tally()
        self.pool = None

    def warm_up(self):
        """Compute the in-memory references; start and warm the 2-process pool."""
        from densigraph import estimators, forward, model
        from densigraph.limits import limits as exact_limits
        params = model.ModelParams(mu=workloads.RT_MU, lam=workloads.RT_LAM,
                                   p=0.5, r_plus=0.5, n=workloads.RT_N)
        for s in self.seeds:
            env = model.sample_environment(params, s)
            traj = forward.simulate(env, params, forward.zero_state(params.n),
                                    workloads.RT_T,
                                    burnin=forward.default_burnin(params.lam), seed=s)
            est = estimators.estimate_all(traj, 1)
            lim = exact_limits(env, params)
            self.expected[s] = (
                env,
                "m_hat,v_hat,w_hat,delta\n"
                f"{est.m_hat:.17g},{est.v_hat:.17g},{est.w_hat:.17g},{est.delta}\n",
                f"m_inf,v_inf,w_inf\n{lim.m_inf:.17g},{lim.v_inf:.17g},{lim.w_inf:.17g}\n",
                est.m_hat, lim.m_inf)
        # fork, as `densigraph run --jobs 2` uses: a spawn context would also
        # start multiprocessing's resource tracker, which outlives the run.
        self.pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker)
        for f in [self.pool.submit(_wait, 0.5) for _ in range(2)]:
            f.result()

    def unit(self, jobs, tracer=None):
        try:
            t0 = perf_counter()
            if tracer is not None:
                results = [tracer.unit(tracer.span, "bench.roundtrip", _roundtrip,
                                       self.seeds[0], self.dirs[0])]
            elif jobs == 1:
                results = [_roundtrip(self.seeds[0], self.dirs[0])]
            else:
                futures = [self.pool.submit(_roundtrip, s, d)
                           for s, d in zip(self.seeds, self.dirs)]
                results = [f.result() for f in futures]
            wall = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.tally.add(jobs, jobs, "raised")
            return None
        reasons = [r for (_, outputs), s, d in zip(results, self.seeds, self.dirs)
                   if (r := self.check(s, d, outputs))]
        self.tally.add(len(results), len(reasons), "; ".join(reasons))
        return None if reasons else wall

    def check(self, seed, workdir, outputs):
        """Empty string if one round trip's outputs are right, else why not."""
        from densigraph import model
        env, estimate, lims, m_hat, m_inf = self.expected[seed]
        if [code for code, _ in outputs] != [0, 0, 0]:
            return f"exit codes {[code for code, _ in outputs]}"
        if outputs[1][1] != estimate:
            return "CLI estimate differs from estimate_all on the in-memory trajectory"
        if outputs[2][1] != lims:
            return "CLI limits differ from limits on the sampled environment"
        loaded = model.load_environment(workdir / "env.txt")
        if not ((loaded.theta == env.theta).all() and loaded.partition == env.partition
                and loaded.p == env.p and loaded.seed == env.seed):
            return "loaded environment differs from the sampled one"
        sha = hashlib.sha256((workdir / "traj.csv").read_bytes()).hexdigest()
        if self.traj_sha.setdefault(seed, sha) != sha:
            return "trajectory file bytes differ from the first round trip"
        if abs(m_hat - m_inf) > mhat_tolerance(m_inf, workloads.RT_N, workloads.RT_T):
            return "m_hat far from m_inf"
        return ""

    def csv_sha256(self):
        return self.traj_sha.get(self.seeds[0], "")

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)


class ColdStarts:
    """setup_s probes: fresh interpreters that import densigraph.cli and build
    the workload's config, timed from outside (wall seconds) and inside
    (import seconds).  They are spread evenly over the run, so that their
    median does not hang on one phase of the host's speed."""

    def __init__(self, workload, seed, workdir):
        self.argv = [sys.executable, str(BENCH / "coldstart.py"), str(SRC),
                     workload, str(seed), str(workdir)]
        self.walls, self.imports = [], []

    def probe(self, share=1.0):
        """Cold-start until `share` of the run's COLD_STARTS are done."""
        while len(self.walls) < min(COLD_STARTS, math.ceil(share * COLD_STARTS)):
            t0 = perf_counter()
            proc = subprocess.run(self.argv, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
            wall = perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"cold start failed:\n{proc.stderr}")
            self.walls.append(wall)
            self.imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])


def measure(wl, seconds, setup):
    """Rounds of one 1-job unit and as many 2-job units as take about as long,
    alternating which comes first.  A new round starts while at least half of
    one still fits in `seconds`."""
    walls = {1: [], 2: []}
    start, k, last_j1 = perf_counter(), 0, None

    def timed(jobs):
        setup.probe((perf_counter() - start) / seconds)
        t0 = perf_counter()
        wall = wl.unit(jobs)
        if wall is not None:
            walls[jobs].append(wall)
        return perf_counter() - t0

    def j2_block():
        spent = timed(2)
        while last_j1 is not None and spent < 0.75 * last_j1:
            spent += timed(2)

    while True:
        t = perf_counter()
        if k % 2 == 0:
            last_j1 = timed(1)
            j2_block()
        else:
            j2_block()
            last_j1 = timed(1)
        k += 1
        now = perf_counter()
        if now - start + 0.5 * (now - t) > seconds:
            return walls


def measure_traced(wl, tracer, seconds):
    walls, start = [], perf_counter()
    while len(walls) < MAX_TRACED_UNITS:
        t = perf_counter()
        wall = wl.unit(1, tracer)
        if wall is not None:
            walls.append(wall)
        now = perf_counter()
        if now - start + (now - t) > seconds:
            break
    return walls


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _spread(xs):
    """(q1, q3) of a sample, as statistics.quantiles gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _getconf_caches():
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE"):
            caches[parts[0].lower()] = int(parts[1])
    return caches


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_environment(workload, seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if workload in workloads.SWEEPS:
        s = workloads.SWEEPS[workload]
        n, t_len = int(s["n"]), int(s["t_grid"].split(",")[-1])
    else:
        n, t_len = workloads.RT_N, workloads.RT_T
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or f"{multiprocessing.get_context().get_start_method()} (default)",
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "sizing_seeds": list(SIZING_SEEDS),
        "holdout_seed": HOLDOUT_SEED,
        # Computed, not measured: the float64 signed kernel, the uint8 theta
        # and the uint8 trajectory of one replica.
        "working_set_bytes_computed": 8 * n * n + n * n + n * t_len,
        "cache_bytes": _getconf_caches(),
    }


def _peak_rss_mb():
    """Largest peak resident set of this process or any finished child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or
    "per_layer")."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(args, workdir):
    env = run_environment(args.workload, args.seed)
    print(f"densigraph benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    setup = ColdStarts(args.workload, args.seed, workdir)
    cls = SweepWorkload if args.workload in workloads.SWEEPS else RoundtripWorkload
    wl = cls(args.workload, args.seed, workdir)
    tracer = None
    try:
        wl.warm_up()
        budget = args.seconds / 2 if args.trace else args.seconds
        walls = measure(wl, budget, setup)
        setup.probe()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure_traced(wl, tracer, budget)
            finally:
                tracer.uninstall()
    finally:
        wl.close()

    rates = {j: [wl.per_unit[j] / w for w in walls[j]] for j in (1, 2)}
    e2e = {
        "replicas_per_s": _median(rates[1]),
        "replicas_per_s_j2": _median(rates[2]),
        "roundtrip_s": _median(walls[1]),
        "setup_s": _median(setup.walls),
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {"replicas_per_s": rates[1], "replicas_per_s_j2": rates[2],
               "roundtrip_s": walls[1], "setup_s": setup.walls}
    units = declared_units("end_to_end")
    for name, value in e2e.items():
        xs = samples.get(name, [value])
        q1, q3 = _spread(xs)
        print(f"{name} = {value:.6g} {units[name]}  (median of {len(xs)}; "
              f"q1 {q1:.6g}, q3 {q3:.6g})")
    tally = wl.tally
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} ratio  "
          f"({tally.failed} of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"check failed: {reason}")
    print(f"output_sha256 = {wl.csv_sha256()}  (informational)")

    metrics = e2e
    if args.trace:
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = traced_metrics(tracer, args.workload)
        metrics["experiment.parallel_efficiency_j2"] = (
            e2e["replicas_per_s_j2"] / (2 * e2e["replicas_per_s"])
            if e2e["replicas_per_s"] else 0.0)
        metrics["cli.import_s"] = _median(setup.imports)
        metrics["cli.import_share"] = metrics["cli.import_s"] / e2e["setup_s"]
        metrics["tracing_overhead_frac"] = (
            _median(traced) / e2e["roundtrip_s"] - 1.0 if traced and walls[1] else 0.0)
        units = declared_units("per_layer")
        for name in units:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                         "but not declared in BENCHMARK.json, or declared but not computed")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="ascii") as fh:
        json.dump({"environment": env, "samples": samples, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def stop_children():
    """End and reap every process this run started, on every path out of it."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()   # no-op unless it was started


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "densigraph" / "cli.py").is_file():
        print(f"error: no densigraph sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import densigraph
    if not Path(densigraph.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: densigraph imported from {densigraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, workdir)
    except (SpanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
