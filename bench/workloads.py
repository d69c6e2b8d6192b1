"""Workload definitions, shared by run.py and the cold-start probe.

Each sweep is a `densigraph run` configuration; every key is set explicitly so
that a later change of a package default does not silently change a workload.
The master seed comes from the benchmark's --seed.  Why each workload exists
is recorded in bench/NOTES.md.
"""

from __future__ import annotations

SWEEPS = {
    # The paper unit: one replica is n=500 over t_grid 250..2000.  16 replicas
    # make two chunks of run_experiment's fixed chunksize=8, one per worker.
    "forward_paper": {
        "n": "500", "r_plus": "0.5", "beta": "0.5", "lambda": "0.5", "p": "0.5",
        "t_grid": "250,500,1000,2000", "n_simu": "16", "delta": "1",
        "sampler": "forward", "limits": "true", "vary": "", "vary_values": "",
    },
    # Exact stationary sampler; the forward sampler never runs.
    "perfect_paper": {
        "n": "500", "r_plus": "0.5", "beta": "0.5", "lambda": "0.5", "p": "0.5",
        "t_grid": "50,100,200", "n_simu": "1", "delta": "1",
        "sampler": "perfect", "limits": "true", "vary": "lambda",
        "vary_values": "0.2,0.5",
    },
    # Many small replicas: per-step Python and fixed per-replica costs.
    "small_n_lambda_sweep": {
        "n": "50", "r_plus": "0.5", "beta": "0.5", "lambda": "0.5", "p": "0.5",
        "t_grid": "250,500,1000,2000", "n_simu": "4", "delta": "log",
        "sampler": "forward", "limits": "true", "vary": "lambda",
        "vary_values": "0.05,0.2,0.5,0.9",
    },
}

ROUNDTRIP = "traj_file_roundtrip"
WORKLOADS = (*SWEEPS, ROUNDTRIP)

# The round trip's model: the paper unit's parameters, one T=2000 trajectory.
RT_N, RT_T, RT_MU, RT_LAM = 500, 2000, 0.25, 0.5


def sweep_overrides(name: str, seed: int, **changes) -> list[str]:
    """`--set` values of one sweep workload, with its master seed."""
    settings = dict(SWEEPS[name], seed=str(seed), **changes)
    return [f"{key}={value}" for key, value in settings.items()]


def roundtrip_seeds(seed: int) -> tuple[int, int]:
    """Sample seeds of the two round trips (the second runs only at 2 jobs)."""
    return 2 * seed, 2 * seed + 1


def roundtrip_argvs(seed: int, workdir) -> tuple[list[str], ...]:
    """The three CLI commands of one round trip, as a user types them."""
    traj, env = str(workdir / "traj.csv"), str(workdir / "env.txt")
    return (
        ["sample", "--n", str(RT_N), "--r-plus", "0.5", "--beta", "0.5",
         "--lambda", str(RT_LAM), "--p", "0.5", "--t-len", str(RT_T),
         "--sampler", "forward", "--seed", str(seed),
         "--dump-traj", traj, "--dump-env", env],
        ["estimate", "--traj", traj, "--delta", "1"],
        ["limits", "--env", env, "--mu", str(RT_MU), "--lambda", str(RT_LAM)],
    )


def build_config(cli, name: str, seed: int, workdir):
    """What the CLI builds and validates before any work: the run config, or
    the parsed arguments of every round-trip command."""
    if name in SWEEPS:
        return cli.default_config(sweep_overrides(name, seed))
    parser = cli.build_parser()
    return [parser.parse_args(argv) for s in roundtrip_seeds(seed)
            for argv in roundtrip_argvs(s, workdir)]
