"""Batch experiment runner: parameter sweeps, replicated simulations,
moment estimation, inversion, and error summaries.

A run draws, per replica, one fresh environment and one trajectory of length
max(t_grid), evaluates the estimators on every prefix length in t_grid, runs
the inversion, and (optionally) computes the environment's exact limits once.
Rows come out in (varied value, T, replica) order and the whole run is a pure
function of the config, so output files are byte-reproducible.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import _check_double_delta, default_delta, estimate_all
from .forward import default_burnin, simulate, zero_state
from .inversion import InversionResult, forward_map_values, invert
from .limits import limit_inversion, limits
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
    n: int
    r_plus: float
    beta: float
    lam: float
    p: float
    t_grid: tuple[int, ...]
    n_simu: int
    delta_mode: str          # "one" | "log" | "fixed"
    delta_value: int
    sampler: str             # "forward" | "perfect"
    master_seed: int
    vary_name: str | None
    vary_values: tuple[float, ...]
    compute_limits: bool

    def validate(self) -> None:
        if not self.t_grid or any(t < 4 for t in self.t_grid):
            raise ConfigError("t_grid must be a nonempty list of integers >= 4")
        if list(self.t_grid) != sorted(set(self.t_grid)):
            raise ConfigError("t_grid must be strictly ascending")
        if self.n_simu < 1:
            raise ConfigError("n_simu must be >= 1")
        if self.sampler not in ("forward", "perfect"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.delta_mode not in ("one", "log", "fixed"):
            raise ConfigError(f"unknown delta mode {self.delta_mode!r}")
        if self.delta_mode == "fixed":
            try:  # the shortest horizon bounds a fixed delta
                _check_double_delta(self.delta_value, self.t_grid[0])
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
        if self.delta_mode == "fixed":
            return self.delta_value
        return default_delta(t_len, self.delta_mode)


@dataclass(frozen=True)
class ResultRow:
    vary: str
    value: float | None
    t: int
    replica: int
    m_hat: float
    v_hat: float
    w_hat: float
    inv: InversionResult
    m_inf: float | None = None
    v_inf: float | None = None
    w_inf: float | None = None
    inv_inf: InversionResult | None = None


def parse_config_text(text: str, overrides=()) -> ExperimentConfig:
    """Parse the flat key=value config format, then apply CLI overrides."""
    raw = dict(DEFAULTS)
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in raw:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        raw[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in raw:
            raise ConfigError(f"unknown override key {key!r}")
        raw[key] = value
    return _build_config(raw)


def _build_config(raw: dict) -> ExperimentConfig:
    try:
        delta_raw = raw["delta"].strip().lower()
        if delta_raw in ("one", "1"):
            delta_mode, delta_value = "one", 1
        elif delta_raw == "log":
            delta_mode, delta_value = "log", 0
        else:
            delta_mode, delta_value = "fixed", int(delta_raw)
            if delta_value < 1:
                raise ConfigError("delta must be >= 1")
        vary_name = raw["vary"].strip() or None
        vary_values = tuple(
            float(v) for v in raw["vary_values"].split(",") if v.strip()
        )
        config = ExperimentConfig(
            n=int(raw["n"]),
            r_plus=float(raw["r_plus"]),
            beta=float(raw["beta"]),
            lam=float(raw["lambda"]),
            p=float(raw["p"]),
            t_grid=tuple(int(t) for t in raw["t_grid"].split(",") if t.strip()),
            n_simu=int(raw["n_simu"]),
            delta_mode=delta_mode,
            delta_value=delta_value,
            sampler=raw["sampler"].strip(),
            master_seed=int(raw["seed"]),
            vary_name=vary_name,
            vary_values=vary_values,
            compute_limits=_parse_bool(raw["limits"]),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
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
    if config.vary_name is None:
        vary, value = "", None
        params = config.params_for(None)
    else:
        vary = config.vary_name
        value = config.vary_values[value_idx]
        params = config.params_for(value)
    rs = derive_key(config.master_seed, "experiment", value_idx, replica)
    env = sample_environment(params, derive_key(rs, "env"))
    t_max = max(config.t_grid)
    if config.sampler == "forward":
        traj = simulate(env, params, zero_state(params.n), t_max,
                        burnin=default_burnin(params.lam),
                        seed=derive_key(rs, "trajectory"))
    else:
        traj = perfect_sample(env, params, t_max, seed=derive_key(rs, "trajectory"))

    lim = inv_inf = None
    if config.compute_limits:
        lim = limits(env, params)
        inv_inf = limit_inversion(lim, params.r_plus)

    rows = []
    for t_len in config.t_grid:
        est = estimate_all(traj.prefix(t_len), config.delta_for(t_len))
        inv = invert(est, params.r_plus)
        rows.append(ResultRow(
            vary=vary, value=value, t=t_len, replica=replica,
            m_hat=est.m_hat, v_hat=est.v_hat, w_hat=est.w_hat, inv=inv,
            m_inf=None if lim is None else lim.m_inf,
            v_inf=None if lim is None else lim.v_inf,
            w_inf=None if lim is None else lim.w_inf,
            inv_inf=inv_inf,
        ))
    return rows


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Execute the full batch; rows in (varied value, T, replica) order."""
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    config.validate()
    n_values = 1 if config.vary_name is None else len(config.vary_values)
    tasks = [(vi, r) for vi in range(n_values) for r in range(config.n_simu)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_replica_task, [(config, vi, r) for vi, r in tasks],
                                   chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        chunks = [_replica_rows(config, vi, r) for vi, r in tasks]
    rows = [row for chunk in chunks for row in chunk]
    t_index = {t: k for k, t in enumerate(config.t_grid)}
    value_index = {v: k for k, v in enumerate(config.vary_values)}
    rows.sort(key=lambda r: (0 if r.value is None else value_index[r.value],
                             t_index[r.t], r.replica))
    return rows


def _replica_task(args):
    return _replica_rows(*args)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def row_to_csv(row: ResultRow) -> str:
    inv = row.inv
    fields = [
        row.vary,
        _fmt(row.value),
        str(row.t),
        str(row.replica),
        _fmt(row.m_hat), _fmt(row.v_hat), _fmt(row.w_hat),
        _fmt(inv.mu), _fmt(inv.lam), _fmt(inv.p),
        inv.branch,
        "|".join(sorted(inv.guards)),
        "|".join(sorted(inv.clipped)),
    ]
    if row.inv_inf is None:
        fields += [""] * 6
    else:
        fields += [_fmt(row.m_inf), _fmt(row.v_inf), _fmt(row.w_inf),
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


def summarize(rows, config: ExperimentConfig) -> list[SummaryRow]:
    """Median absolute error per (varied value, T), plus limit-mark rows,
    against the parameters ``config.params_for(value)`` that made each row."""
    if not rows:
        raise ValueError("no rows to summarize")
    cells: dict[tuple, list] = {}
    marks: dict[tuple, dict] = {}
    for row in rows:
        tp = config.params_for(row.value)
        m, v, w = forward_map_values(tp.mu, tp.lam, tp.p, tp.r_plus)
        key = (row.vary, row.value)
        cells.setdefault(key + (row.t,), []).append(
            (row.m_hat - m, row.v_hat - v, row.w_hat - w,
             row.inv.mu - tp.mu, row.inv.lam - tp.lam, row.inv.p - tp.p))
        if row.inv_inf is not None:
            # The mark is per replica; identical across this replica's T rows.
            marks.setdefault(key, {})[row.replica] = (
                row.m_inf - m, row.v_inf - v, row.w_inf - w,
                row.inv_inf.mu - tp.mu, row.inv_inf.lam - tp.lam,
                row.inv_inf.p - tp.p)
    out = []
    for (vary, value, t), errs in sorted(cells.items(),
                                         key=lambda kv: (str(kv[0][0]),
                                                         kv[0][1] or 0, kv[0][2])):
        out.append(SummaryRow(vary, value, t, len(errs), *_median_abs(errs)))
    for (vary, value), per_replica in sorted(marks.items(),
                                             key=lambda kv: (str(kv[0][0]),
                                                             kv[0][1] or 0)):
        out.append(SummaryRow(vary, value, None, len(per_replica),
                              *_median_abs(list(per_replica.values()))))
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
