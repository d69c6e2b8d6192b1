"""Batch experiment runner: parameter sweeps, replicated simulations,
moment estimation, inversion, and error summaries.

A run draws, per replica, one fresh environment, (optionally) computes its
exact limits once, then draws one trajectory of length max(t_grid), evaluates
the estimators on every prefix length in t_grid and runs the inversion.
Rows are gathered in (varied value as listed, T, replica) order, with no sort,
and the whole run is a pure function of the config, so output files are
byte-reproducible.  A row holds the records its stages return (estimates,
inversion, and the replica's limits and their inversion, or None), and a
config is checked once, when it is built.  The block length ``delta`` is one
setting: an int in [1, floor(T/4)] at the shortest horizon
(`estimators.check_delta`), or "log" for floor(ln T) at each horizon.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import traceback
from dataclasses import dataclass
from math import floor, log

import numpy as np

from .estimators import MomentEstimates, check_delta, estimate_all
from .forward import default_burnin, simulate, zero_state
from .inversion import InversionResult, forward_map_values, invert
from .limits import TheoreticalLimits, limit_inversion, limits
from .model import InputError, ModelParams, sample_environment
from .perfect import perfect_sample
from .rng import derive_key

CSV_HEADER = ("vary,value,T,replica,m_hat,v_hat,w_hat,mu_hat,lambda_hat,p_hat,"
              "branch,guards,clipped,m_inf,v_inf,w_inf,mu_inf,lambda_inf,p_inf")

DEFAULTS = {
    "n": "500",
    "r_plus": "0.5",
    "beta": "0.5",
    "lambda": "0.5",
    "p": "0.5",
    "t_grid": "250,500,1000,2000",
    "n_simu": "1000",
    "delta": "1",
    "sampler": "forward",
    "seed": "0",
    "limits": "true",
    "vary": "",
    "vary_values": "",
}

VARYABLE = ("n", "r_plus", "beta", "lambda", "p")


class ConfigError(InputError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's settings, checked when built: ConfigError if invalid."""

    n: int
    r_plus: float
    beta: float
    lam: float
    p: float
    t_grid: tuple[int, ...]
    n_simu: int
    delta: int | str         # a block length >= 1, or "log" for floor(ln T)
    sampler: str             # "forward" | "perfect"
    master_seed: int
    vary_name: str | None
    vary_values: tuple[float, ...]
    compute_limits: bool

    def __post_init__(self) -> None:
        if not self.t_grid or any(t < 4 for t in self.t_grid):
            raise ConfigError("t_grid must be a nonempty list of integers >= 4")
        if list(self.t_grid) != sorted(set(self.t_grid)):
            raise ConfigError("t_grid must be strictly ascending")
        if self.n_simu < 1:
            raise ConfigError("n_simu must be >= 1")
        if self.sampler not in ("forward", "perfect"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.delta != "log":
            if not isinstance(self.delta, int):
                raise ConfigError(f"unknown delta mode {self.delta!r}")
            try:  # the shortest horizon bounds an int delta
                check_delta(self.delta, self.t_grid[0])
            except InputError as exc:
                raise ConfigError(str(exc)) from exc
        if self.vary_name is not None:
            if self.vary_name not in VARYABLE:
                raise ConfigError(f"cannot vary {self.vary_name!r}")
            if not self.vary_values:
                raise ConfigError("vary is set but vary_values is empty")
            if len(set(self.vary_values)) != len(self.vary_values):
                raise ConfigError("vary_values must not repeat a value")
            if self.vary_name == "n" and not all(
                    float(v).is_integer() for v in self.vary_values):
                raise ConfigError("vary = n needs integer vary_values")
        elif self.vary_values:
            raise ConfigError("vary_values is set but vary is empty")
        try:
            for value in (self.vary_values if self.vary_name else (None,)):
                self.params_for(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc

    def params_for(self, varied_value: float | None) -> ModelParams:
        """Model parameters with the varied entry substituted (beta stays fixed
        when lambda varies, so mu = beta * lambda follows the sweep)."""
        values = {"n": self.n, "r_plus": self.r_plus, "beta": self.beta,
                  "lambda": self.lam, "p": self.p}
        if self.vary_name is not None and varied_value is not None:
            values[self.vary_name] = varied_value
        return ModelParams(
            mu=values["beta"] * values["lambda"],
            lam=values["lambda"],
            p=values["p"],
            r_plus=values["r_plus"],
            n=int(values["n"]),
        )

    def delta_for(self, t_len: int) -> int:
        """The block length the estimators use at horizon ``t_len``."""
        return max(1, floor(log(t_len))) if self.delta == "log" else self.delta


@dataclass(frozen=True)
class ResultRow:
    vary: str
    value: float | None
    t: int
    replica: int
    est: MomentEstimates
    inv: InversionResult
    lim: TheoreticalLimits | None = None
    inv_inf: InversionResult | None = None


def parse_config_text(text: str, overrides=()) -> ExperimentConfig:
    """Parse the flat key=value config format, then apply CLI overrides."""
    raw = dict(DEFAULTS)
    # (entry, message without "=", message prefix for an unknown key)
    entries = [(line, f"line {no}: expected key = value", f"line {no}: unknown key")
               for no, text_line in enumerate(text.splitlines(), start=1)
               if (line := text_line.split("#", 1)[0].strip())]
    entries += [(item, f"override {item!r}: expected key=value",
                 "unknown override key") for item in overrides]
    for entry, no_equals, unknown in entries:
        if "=" not in entry:
            raise ConfigError(no_equals)
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in raw:
            raise ConfigError(f"{unknown} {key!r}")
        raw[key] = value
    return _build_config(raw)


def _build_config(raw: dict) -> ExperimentConfig:
    try:
        delta = raw["delta"].strip().lower()
        config = ExperimentConfig(
            n=int(raw["n"]),
            r_plus=float(raw["r_plus"]),
            beta=float(raw["beta"]),
            lam=float(raw["lambda"]),
            p=float(raw["p"]),
            t_grid=tuple(int(t) for t in raw["t_grid"].split(",") if t.strip()),
            n_simu=int(raw["n_simu"]),
            delta=delta if delta == "log" else 1 if delta == "one" else int(delta),
            sampler=raw["sampler"].strip(),
            master_seed=int(raw["seed"]),
            vary_name=raw["vary"].strip() or None,
            vary_values=tuple(
                float(v) for v in raw["vary_values"].split(",") if v.strip()),
            compute_limits=_parse_bool(raw["limits"]),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _parse_bool(text: str) -> bool:
    text = text.strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def load_config(path, overrides=()) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)


def default_config(overrides=()) -> ExperimentConfig:
    return parse_config_text("", overrides)


def _replica_rows(config: ExperimentConfig, value_idx: int,
                  replica: int) -> list[ResultRow]:
    """All rows produced by one replica of one varied value."""
    value = config.vary_values[value_idx] if config.vary_name else None
    params = config.params_for(value)
    rs = derive_key(config.master_seed, "experiment", value_idx, replica)
    env = sample_environment(params, derive_key(rs, "env"))
    # The limits come before the sampler, so their n x n float64 kernel is
    # freed before the n x T trajectory exists; they read no randomness.
    lim = inv_inf = None
    if config.compute_limits:
        lim = limits(env, params)
        inv_inf = limit_inversion(lim, params.r_plus)

    t_max = max(config.t_grid)
    if config.sampler == "forward":
        traj = simulate(env, params, zero_state(params.n), t_max,
                        burnin=default_burnin(params.lam),
                        seed=derive_key(rs, "trajectory"))
    else:
        traj = perfect_sample(env, params, t_max, seed=derive_key(rs, "trajectory"))

    rows = []
    for t_len in config.t_grid:
        est = estimate_all(traj.prefix(t_len), config.delta_for(t_len))
        rows.append(ResultRow(config.vary_name or "", value, t_len, replica, est,
                              invert(est, params.r_plus), lim, inv_inf))
    return rows


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Execute the full batch; rows in (varied value, T, replica) order.

    ``jobs`` counts the processes that compute replicas, this one included.
    They claim (value, replica) tasks from one queue in task order, so a
    worker that finishes early claims more; see `_run_tasks` for what is
    left unbalanced and what each extra worker costs.
    """
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    n_values = len(config.vary_values) if config.vary_name else 1
    tasks = [(vi, r) for vi in range(n_values) for r in range(config.n_simu)]
    chunks = _run_tasks(config, tasks, jobs)
    # a replica's k-th row is at horizon t_grid[k]
    return [chunks[vi * config.n_simu + r][k] for vi in range(n_values)
            for k in range(len(config.t_grid)) for r in range(config.n_simu)]


def _run_tasks(config: ExperimentConfig, tasks: list, jobs: int) -> list:
    """The rows of each task, in task order.

    One job runs the tasks in a plain loop.  Otherwise this process, worker
    0, fills a queue of claims (`_fill_queue`) and forks workers 1, 2, ...
    Every worker claims a run of consecutive tasks (one task, up to
    PIPE_BUF // 4 tasks), computes them and claims again until the queue is
    empty, so a worker on a slower core simply claims fewer.  Each child sends its (task index, rows) pairs back as one
    pickle over a pipe, and the rows land at their task index, so the bytes
    are the same at any ``jobs``.  A child that raises or dies makes this
    process stop claiming, and its error is raised once the other children
    have drained the queue.  Every child is reaped before this returns or
    raises.

    Claims follow task order, not cost: in a ``vary=n`` sweep the largest n
    is claimed last and can run alone while the other workers idle.  Each
    extra worker also costs a fork, a late start and its first-touch page
    faults, so a sweep of a few short replicas can run slower at two jobs
    than at one.
    """
    jobs = min(jobs, len(tasks))
    if jobs == 1:
        return [_replica_rows(config, *task) for task in tasks]
    if not hasattr(os, "fork"):
        raise InputError(f"jobs={jobs} needs os.fork, which this platform lacks")
    queue, per_claim = _fill_queue(len(tasks))
    children = []   # (pid, read end of its pipe) of workers 1, 2, ...
    finished = False
    try:
        for _ in range(1, jobs):
            _fork_worker(children, config, tasks, queue, per_claim)
        claimed = _drain(config, tasks, queue, per_claim,
                         tuple(pipe for _, pipe in children))
        replies = [pipe.read() for _, pipe in children]
        finished = True
    finally:
        os.close(queue)
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, (reply, status) in enumerate(zip(replies, statuses), start=1):
        if status != 0 or not reply:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"worker {k} ended without a result: {how}")
        ok, value, child_traceback = pickle.loads(reply)   # our own child's bytes
        if not ok:
            raise value from RuntimeError(f"traceback in worker {k}:\n"
                                          f"{child_traceback}")
        claimed += value
    chunks = [None] * len(tasks)
    for index, rows in claimed:
        chunks[index] = rows
    return chunks


_RECORD_BYTES = 4   # one claim: the index of its first task, little-endian


def _fill_queue(n_tasks: int) -> tuple[int, int]:
    """A pipe holding every claim of ``n_tasks`` tasks, and the tasks per claim.

    Returns the pipe's read end and ``per_claim``: claim j is one record, the
    task index j * per_claim, and claims tasks [j * per_claim,
    (j + 1) * per_claim).  Nothing reads the pipe before the first fork, so the
    whole queue is one write of at most PIPE_BUF bytes, which any pipe
    holds; beyond PIPE_BUF // _RECORD_BYTES tasks a claim holds several.
    The write end is closed here, before any fork, so a read of the empty
    queue returns EOF and never blocks.  The records are all in the pipe
    before the first read, so each read of _RECORD_BYTES returns one whole
    claim, and a worker that dies holds no lock the others wait on.
    """
    per_claim = -(-n_tasks // (select.PIPE_BUF // _RECORD_BYTES))
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"".join(start.to_bytes(_RECORD_BYTES, "little")
                                    for start in range(0, n_tasks, per_claim)))
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return read_fd, per_claim


def _drain(config: ExperimentConfig, tasks: list, queue: int, per_claim: int,
           stop_on: tuple = ()) -> list:
    """(task index, rows) of every task this worker claims, until the queue
    is empty or one of the pipes in ``stop_on`` can be read.  A child's
    reply pipe becomes readable only once the child has found the queue
    empty or has failed, so in either case a further claim is of no use."""
    claimed = []
    while not (stop_on and select.select(stop_on, [], [], 0)[0]):
        record = os.read(queue, _RECORD_BYTES)
        if not record:
            break
        start = int.from_bytes(record, "little")
        claimed += [(index, _replica_rows(config, *tasks[index]))
                    for index in range(start, min(start + per_claim, len(tasks)))]
    return claimed


def _fork_worker(children: list, config: ExperimentConfig, tasks: list,
                 queue: int, per_claim: int) -> None:
    """Fork a child that claims ``tasks`` from the queue and writes their
    rows to a pipe; append (pid, the pipe's read end) to ``children``."""
    read_fd, write_fd = os.pipe()
    # SIGINT waits until the parent has recorded the child and the child is
    # inside the try that ends it, so an interrupt can neither lose a child
    # nor send one back into the parent's code.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            raise
        if pid == 0:
            _child_main(config, tasks, queue, per_claim, read_fd, write_fd, mask)
        children.append((pid, os.fdopen(read_fd, "rb")))
    finally:
        os.close(write_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _child_main(config, tasks, queue, per_claim, read_fd, write_fd, mask):
    """A forked worker's whole life: drain the queue, then reply once.  It
    ends only through os._exit, so it never flushes the parent's stdio
    buffers nor runs its finally blocks or atexit handlers; exit code 0
    means the whole reply was written.  A worker whose task raises claims
    no more."""
    code = 1
    try:
        os.close(read_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            reply = pickle.dumps((True, _drain(config, tasks, queue, per_claim), ""))
        except Exception as exc:
            reply = pickle.dumps((False, exc, traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pipe.write(reply)
        code = 0
    finally:
        os._exit(code)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def row_to_csv(row: ResultRow) -> str:
    est, inv, lim = row.est, row.inv, row.lim
    fields = [
        row.vary,
        _fmt(row.value),
        str(row.t),
        str(row.replica),
        _fmt(est.m_hat), _fmt(est.v_hat), _fmt(est.w_hat),
        _fmt(inv.mu), _fmt(inv.lam), _fmt(inv.p),
        inv.branch,
        "|".join(sorted(inv.guards)),
        "|".join(sorted(inv.clipped)),
    ]
    if lim is None:
        fields += [""] * 6
    else:
        fields += [_fmt(lim.m_inf), _fmt(lim.v_inf), _fmt(lim.w_inf),
                   _fmt(row.inv_inf.mu), _fmt(row.inv_inf.lam), _fmt(row.inv_inf.p)]
    return ",".join(fields)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row_to_csv(row) + "\n")
    return buf.getvalue()


@dataclass(frozen=True)
class SummaryRow:
    """Median absolute errors at one (varied value, T) cell.

    ``t`` is None for the limit-estimator marks (the T = infinity column).
    """

    vary: str
    value: float | None
    t: int | None
    n_rows: int
    err_m: float
    err_v: float
    err_w: float
    err_mu: float
    err_lambda: float
    err_p: float


def _median_abs(errors) -> list[float]:
    """Median absolute error of each column of the rows ``errors``."""
    # Failed inversions (NaN coordinates) count as infinite error, not missing.
    arr = np.abs(np.asarray(errors, dtype=float))
    arr[np.isnan(arr)] = np.inf
    return np.median(arr, axis=0).tolist()


def _signed_errors(truth, m, v, w, inv: InversionResult) -> tuple:
    """(m, v, w, mu, lambda, p) minus ``truth``, in that order."""
    return tuple(x - x0 for x, x0 in zip((m, v, w, inv.mu, inv.lam, inv.p), truth))


def summarize(rows, config: ExperimentConfig) -> list[SummaryRow]:
    """Median absolute error per (varied value, T), then the limit marks per
    value, each in the rows' order, against the parameters
    ``config.params_for(value)`` that made each row."""
    if not rows:
        raise ValueError("no rows to summarize")
    cells: dict[tuple, list] = {}
    marks: dict[tuple, dict] = {}
    for row in rows:
        tp = config.params_for(row.value)
        truth = (*forward_map_values(tp.mu, tp.lam, tp.p, tp.r_plus),
                 tp.mu, tp.lam, tp.p)
        key = (row.vary, row.value)
        cells.setdefault(key + (row.t,), []).append(
            _signed_errors(truth, row.est.m_hat, row.est.v_hat, row.est.w_hat,
                           row.inv))
        if row.lim is not None:
            # The mark is per replica; identical across this replica's T rows.
            marks.setdefault(key, {})[row.replica] = _signed_errors(
                truth, row.lim.m_inf, row.lim.v_inf, row.lim.w_inf, row.inv_inf)

    out = [SummaryRow(*key, len(errs), *_median_abs(errs))
           for key, errs in cells.items()]
    out += [SummaryRow(*key, None, len(errs), *_median_abs(list(errs.values())))
            for key, errs in marks.items()]
    return out


def summary_to_csv(summary) -> str:
    buf = io.StringIO()
    buf.write("vary,value,T,n,med_err_m,med_err_v,med_err_w,"
              "med_err_mu,med_err_lambda,med_err_p\n")
    for s in summary:
        fields = [s.vary, _fmt(s.value), "limit" if s.t is None else str(s.t),
                  str(s.n_rows)]
        fields += [f"{e:.6g}" for e in
                   (s.err_m, s.err_v, s.err_w, s.err_mu, s.err_lambda, s.err_p)]
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()
