"""Command-line interface.

Subcommands: `run` (batch experiments from a config file), `sample` (single
trajectory), `estimate` (moment statistics of a dumped trajectory), `invert`
(moments -> parameters), `limits` (environment-level exact limits), and
`oracle` (brute-force debugging probes).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .estimators import estimate_all
from .experiment import (default_config, load_config, rows_to_csv,
                         run_experiment, summarize, summary_to_csv)
from .forward import default_burnin, simulate, zero_state
from .inversion import invert_triple
from .limits import limits as compute_limits
from .model import (InputError, ModelParams, load_environment,
                    sample_environment, save_environment, load_trajectory,
                    save_trajectory)
from .oracles import (binomial_mixture_shat, coalescence_probability_mc,
                      exact_stationary)
from .perfect import DepthExceededError, perfect_sample


def _add_param_flags(parser):
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="spontaneous firing probability mu/lambda")
    parser.add_argument("--mu", type=float, default=None,
                        help="baseline probability (overrides --beta)")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--r-plus", type=float, default=0.5)


def _params_from(args, n=None) -> ModelParams:
    mu = args.mu if args.mu is not None else args.beta * args.lam
    return ModelParams(mu=mu, lam=args.lam, p=args.p, r_plus=args.r_plus,
                       n=n if n is not None else args.n)


def _cmd_run(args) -> int:
    if args.config:
        config = load_config(args.config, args.set)
    else:
        config = default_config(args.set)
    rows = run_experiment(config, jobs=args.jobs)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.out:
        summary = summarize(rows, config)
        sys.stdout.write(summary_to_csv(summary))
    failures = sum(1 for r in rows if not r.inv.ok)
    return 3 if failures else 0


def _cmd_sample(args) -> int:
    if args.load_env:
        env = load_environment(args.load_env)
        params = _params_from(args, n=env.n)
    else:
        params = _params_from(args)
        env = sample_environment(params, args.seed)
    if args.dump_env:
        save_environment(env, args.dump_env)
    if args.sampler == "perfect":
        traj = perfect_sample(env, params, args.t_len, seed=args.seed,
                              max_depth=args.max_depth)
    else:
        burnin = default_burnin(params.lam) if args.burnin == -1 else args.burnin
        traj = simulate(env, params, zero_state(env.n), args.t_len,
                        burnin=burnin, seed=args.seed)
    if args.dump_traj:
        save_trajectory(traj, args.dump_traj)
    else:
        save_trajectory(traj, sys.stdout)
    return 0


def _cmd_estimate(args) -> int:
    traj = load_trajectory(args.traj)
    est = estimate_all(traj, args.delta)
    print("m_hat,v_hat,w_hat,delta")
    print(f"{est.m_hat:.17g},{est.v_hat:.17g},{est.w_hat:.17g},{est.delta}")
    return 0


def _cmd_invert(args) -> int:
    res = invert_triple(args.m, args.v, args.w, args.r_plus)
    print("mu,lambda,p,branch,guards,clipped")
    print(f"{res.mu:.17g},{res.lam:.17g},{res.p:.17g},{res.branch},"
          f"{'|'.join(sorted(res.guards))},{'|'.join(sorted(res.clipped))}")
    return 0


def _cmd_limits(args) -> int:
    env = load_environment(args.env)
    # p and r_plus are placeholders: the limit computation reads the realized
    # environment and partition, not the sampling parameters.
    params = ModelParams(mu=args.mu, lam=args.lam, p=0.5, r_plus=0.5, n=env.n)
    lim = compute_limits(env, params)
    print("m_inf,v_inf,w_inf")
    print(f"{lim.m_inf:.17g},{lim.v_inf:.17g},{lim.w_inf:.17g}")
    return 0


def _cmd_oracle(args) -> int:
    if args.probe == "stationary":
        env = load_environment(args.env)
        params = ModelParams(mu=args.mu, lam=args.lam, p=0.5, r_plus=0.5, n=env.n)
        dist = exact_stationary(env, params)
        print("state,prob")
        for k, prob in enumerate(dist.probs):
            print(f"{k},{prob:.17g}")
    elif args.probe == "coalescence":
        params = _params_from(args)
        est, se = coalescence_probability_mc(
            params, (args.i1, args.t1), (args.i2, args.t2),
            trials=args.trials, seed=args.seed)
        print("estimate,std_err")
        print(f"{est:.17g},{se:.17g}")
    elif args.probe == "shat":
        try:
            b = np.array([int(v) for v in args.b.split(",")])
        except ValueError:
            raise InputError(f"--b needs comma-separated integers, "
                             f"got {args.b!r}") from None
        print(f"{binomial_mixture_shat(b, args.t_len, args.kappa):.17g}")
    return 0


@functools.cache  # built once a process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densigraph",
        description="Simulation and connection-density inference for binary "
                    "interacting chains on a random directed graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment")
    p_run.add_argument("--config", default=None, help="key=value config file")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_run.add_argument("--out", default=None, help="output CSV path")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="processes that compute replicas, this one "
                            "included (more than 1 needs os.fork)")
    p_run.set_defaults(func=_cmd_run)

    p_sample = sub.add_parser("sample", help="draw one trajectory")
    _add_param_flags(p_sample)
    p_sample.add_argument("--t-len", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--sampler", choices=("forward", "perfect"),
                          default="forward")
    p_sample.add_argument("--burnin", type=int, default=-1,
                          help="forward burn-in steps (-1 = automatic)")
    p_sample.add_argument("--max-depth", type=int, default=None,
                          help="regeneration depth bound for the exact sampler")
    p_sample.add_argument("--dump-traj", default=None)
    p_sample.add_argument("--dump-env", default=None)
    p_sample.add_argument("--load-env", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_est = sub.add_parser("estimate", help="moment statistics of a trajectory")
    p_est.add_argument("--traj", required=True)
    p_est.add_argument("--delta", type=int, default=1)
    p_est.set_defaults(func=_cmd_estimate)

    p_inv = sub.add_parser("invert", help="recover parameters from moments")
    p_inv.add_argument("--m", type=float, required=True)
    p_inv.add_argument("--v", type=float, required=True)
    p_inv.add_argument("--w", type=float, required=True)
    p_inv.add_argument("--r-plus", type=float, required=True)
    p_inv.set_defaults(func=_cmd_invert)

    p_lim = sub.add_parser("limits", help="exact limits for an environment")
    p_lim.add_argument("--env", required=True)
    p_lim.add_argument("--mu", type=float, required=True)
    p_lim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_lim.set_defaults(func=_cmd_limits)

    p_or = sub.add_parser("oracle", help="brute-force debugging probes")
    or_sub = p_or.add_subparsers(dest="probe", required=True)
    o_st = or_sub.add_parser("stationary")
    o_st.add_argument("--env", required=True)
    o_st.add_argument("--mu", type=float, required=True)
    o_st.add_argument("--lambda", dest="lam", type=float, required=True)
    o_co = or_sub.add_parser("coalescence")
    _add_param_flags(o_co)
    o_co.add_argument("--i1", type=int, required=True)
    o_co.add_argument("--t1", type=int, required=True)
    o_co.add_argument("--i2", type=int, required=True)
    o_co.add_argument("--t2", type=int, required=True)
    o_co.add_argument("--trials", type=int, default=100_000)
    o_co.add_argument("--seed", type=int, default=0)
    o_sh = or_sub.add_parser("shat")
    o_sh.add_argument("--b", required=True, help="comma-separated site totals")
    o_sh.add_argument("--t-len", type=int, required=True)
    o_sh.add_argument("--kappa", type=float, required=True)
    for p in (o_st, o_co, o_sh):
        p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad argument, config or input file is reported
    on one stderr line with exit code 2, any other error with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError, DepthExceededError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
