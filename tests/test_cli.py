import pytest

from densigraph import (InputError, ModelParams, estimate_all, exact_stationary,
                        load_environment, load_trajectory)
from densigraph import cli, experiment, model, perfect
from densigraph.cli import main
from densigraph.experiment import parse_config_text, rows_to_csv, run_experiment


def run_cli(args):
    return main(args)


@pytest.mark.parametrize("args, message", [
    (["oracle", "shat", "--b", "", "--t-len", "2", "--kappa", "0.25"],
     "--b needs comma-separated integers"),
    (["oracle", "shat", "--b", "2,x", "--t-len", "2", "--kappa", "0.25"],
     "--b needs comma-separated integers"),
    (["sample", "--n", "4", "--t-len", "3", "--burnin", "-7"],
     "burnin must be >= 0, got -7"),
    (["sample", "--n", "4", "--t-len", "3", "--burnin", "-1"],
     "burnin must be >= 0, got -1"),
    (["run", "--jobs", "0", "--set", "n_simu=1", "--set", "t_grid=8"],
     "jobs must be >= 1, got 0"),
    (["run", "--jobs", "-2", "--set", "n_simu=1", "--set", "t_grid=8"],
     "jobs must be >= 1, got -2"),
])
def test_bad_counts_exit_2(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{args[0]} error: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


class TestRun:
    CONFIG = "n = 8\nt_grid = 100\nn_simu = 3\nlimits = false\nseed = 2\n"

    def test_end_to_end_matches_library(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "rows.csv"
        code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        expected = rows_to_csv(run_experiment(parse_config_text(self.CONFIG)))
        assert out.read_text() == expected

    def test_set_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "rows.csv"
        code = run_cli(["run", "--config", str(cfg), "--set", "n_simu=2",
                        "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 2 + 1  # 2 rows + header

    def test_one_parser_and_no_leaked_overrides(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config, jobs: seen.append(config) or [])
        assert run_cli(["run", "--set", "n=7"]) == 0
        assert run_cli(["run", "--set", "p=0.3"]) == 0
        assert [(c.n, c.p) for c in seen] == [(7, 0.5), (500, 0.3)]
        assert cli.build_parser() is cli.build_parser()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli(["run", "--config", str(cfg), "--out",
                        str(tmp_path / "x.csv")]) == 2
        for bad in (["vary=r_plus", "vary_values=0.3,0.3"],
                    ["vary=n", "vary_values=10.7"]):
            args = [a for kv in bad + ["n_simu=1", "t_grid=8"]
                    for a in ("--set", kv)]
            assert run_cli(["run", *args, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_oversized_delta_rejected_before_any_replica(self, tmp_path, monkeypatch,
                                                         capsys, jobs):
        def no_replica(*args):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(experiment, "_replica_rows", no_replica)
        code = run_cli(["run", "--set", "delta=100", "--set", "t_grid=250,2000",
                        "--jobs", jobs, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("run error: delta must lie in [1, 62] for T=250, "
                                "got 100\n")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_runs_without_config_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(["run", "--set", "n=6", "--set", "t_grid=50",
                        "--set", "n_simu=2", "--set", "limits=false",
                        "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("vary,value,T,replica,")

    def test_unwritable_out_rejected_before_any_replica(self, tmp_path, monkeypatch,
                                                         capsys):
        calls = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config, jobs: calls.append(config) or [])
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", "--set", "n_simu=100000",
                        "--out", "missing/rows.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("run error: ") and "missing/rows.csv" in captured.err
        assert captured.err.count("\n") == 1
        assert calls == [] and not list(tmp_path.iterdir())

        # The check leaves an existing file's bytes alone when the run fails.
        def failing_run(config, jobs):
            raise InputError("replica rejected its input")

        (tmp_path / "rows.csv").write_text("kept\n")
        monkeypatch.setattr(cli, "run_experiment", failing_run)
        assert run_cli(["run", "--out", "rows.csv"]) == 2
        assert (tmp_path / "rows.csv").read_text() == "kept\n"

    def test_partial_failure_exit_code(self, tmp_path):
        # beta = 0 with p = 0 produces all-silent trajectories: m_hat = 0 is
        # non-invertible, recorded in-row, and the batch exits with code 3.
        out = tmp_path / "rows.csv"
        code = run_cli(["run", "--set", "n=5", "--set", "t_grid=40",
                        "--set", "n_simu=2", "--set", "beta=0", "--set", "p=0",
                        "--set", "limits=false", "--out", str(out)])
        assert code == 3
        assert "non_invertible" in out.read_text()


class TestSample:
    def test_dump_and_reload(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        env_path = tmp_path / "env.txt"
        code = run_cli(["sample", "--n", "6", "--t-len", "40", "--seed", "3",
                        "--dump-traj", str(traj_path), "--dump-env", str(env_path)])
        assert code == 0
        traj = load_trajectory(traj_path)
        assert traj.n == 6 and traj.t_len == 40
        env = load_environment(env_path)
        assert env.n == 6 and env.seed == 3

    def test_load_env_reproduces_trajectory(self, tmp_path):
        env_path = tmp_path / "env.txt"
        t1 = tmp_path / "t1.csv"
        t2 = tmp_path / "t2.csv"
        run_cli(["sample", "--n", "5", "--t-len", "25", "--seed", "4",
                 "--dump-traj", str(t1), "--dump-env", str(env_path)])
        run_cli(["sample", "--t-len", "25", "--seed", "4",
                 "--load-env", str(env_path), "--dump-traj", str(t2)])
        assert t1.read_text() == t2.read_text()

    @pytest.mark.parametrize("flags, named", [
        (["--n", "100", "--r-plus", "0.9"], "--n, --r-plus"),
        (["--n", "5"], "--n"), (["--p", "0.5"], "--p"), (["--r-plus", "0.5"], "--r-plus"),
    ])
    def test_load_env_rejects_size_flags(self, tmp_path, capsys, flags, named):
        # A loaded environment fixes n, theta and the partition: a flag that
        # would name them is an input error, even at the value the file holds.
        env_path = tmp_path / "env.txt"
        assert run_cli(["sample", "--n", "5", "--t-len", "3",
                        "--dump-env", str(env_path)]) == 0
        capsys.readouterr()
        traj_path = tmp_path / "traj.csv"
        code = run_cli(["sample", "--t-len", "3", "--load-env", str(env_path), *flags,
                        "--dump-traj", str(traj_path),
                        "--dump-env", str(tmp_path / "again.txt")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"sample error: {named} cannot be used with "
                                f"--load-env, whose environment fixes n, theta "
                                f"and the partition\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["env.txt"]

    def test_size_flag_defaults(self, tmp_path):
        env_path = tmp_path / "env.txt"
        assert run_cli(["sample", "--t-len", "1", "--dump-env", str(env_path),
                        "--dump-traj", str(tmp_path / "traj.csv")]) == 0
        env = load_environment(env_path)
        assert (env.n, env.p, env.partition.size_plus) == (500, 0.5, 250)

    def test_perfect_sampler_flag(self, tmp_path):
        traj_path = tmp_path / "traj.csv"
        code = run_cli(["sample", "--n", "4", "--t-len", "12", "--seed", "5",
                        "--sampler", "perfect", "--dump-traj", str(traj_path)])
        assert code == 0
        assert load_trajectory(traj_path).t_len == 12

    @pytest.mark.parametrize("block", [7, 1 << 16])
    @pytest.mark.parametrize("sampler", ["forward", "perfect"])
    def test_stdout_equals_dumped_file(self, tmp_path, monkeypatch, capsys, block,
                                       sampler):
        # Without --dump-traj the trajectory goes to the sys.stdout text stream.
        monkeypatch.setattr(model, "_ROWS_PER_BLOCK", block)
        args = ["sample", "--n", "30", "--t-len", "50", "--seed", "8",
                "--sampler", sampler]
        traj_path = tmp_path / "traj.csv"
        assert run_cli([*args, "--dump-traj", str(traj_path)]) == 0
        assert capsys.readouterr().out == ""
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert out.encode("ascii") == traj_path.read_bytes()
        assert out.count("\n") > 2 + 7

    @pytest.mark.parametrize("args, message", [
        (["--lambda", "2"], "lam must lie in (0, 1]"),
        (["--load-env", "missing-env.txt"], "missing-env.txt"),
        (["--lambda", "1e-17"], "lam=1e-17 is too small"),
        (["--sampler", "perfect", "--lambda", "1e-17"], "lam=1e-17 is too small"),
        (["--sampler", "perfect", "--burnin", "50"],
         "--burnin applies only to --sampler forward"),
        (["--sampler", "perfect", "--burnin", "0"],
         "--burnin applies only to --sampler forward"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, monkeypatch, capsys, args,
                                  message):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["sample", "--n", "40", "--t-len", "3", *args])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sample error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    def test_walk_past_the_depth_bound_exits_2(self, tmp_path, monkeypatch, capsys):
        # The bound comes from lam; a bound of 1 makes a walk outlive it.
        monkeypatch.setattr(perfect, "default_max_depth", lambda lam: 1)
        code = run_cli(["sample", "--n", "40", "--t-len", "3", "--sampler", "perfect",
                        "--lambda", "0.001", "--dump-traj", str(tmp_path / "traj.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("sample error: no regeneration within 1 steps")
        assert not list(tmp_path.iterdir())

    def test_unwritable_dump_rejected_before_any_draw(self, tmp_path, monkeypatch,
                                                      capsys):
        calls = []
        monkeypatch.setattr(cli, "sample_environment",
                            lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["sample", "--n", "200", "--t-len", "100",
                        "--dump-env", "env.txt", "--dump-traj", "missing/t.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sample error: ") and "missing/t.csv" in captured.err
        assert captured.err.count("\n") == 1
        assert calls == [] and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sampler", ["forward", "perfect"])
    def test_a_sampler_error_leaves_no_dump(self, tmp_path, capsys, sampler):
        # The environment is drawn, but lam = 1e-17 has no step bound.
        code = run_cli(["sample", "--n", "6", "--t-len", "3", "--lambda", "1e-17",
                        "--sampler", sampler, "--dump-env", str(tmp_path / "env.txt"),
                        "--dump-traj", str(tmp_path / "traj.csv")])
        assert code == 2
        assert "lam=1e-17 is too small" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_a_flag_of_the_other_sampler_writes_no_file(self, tmp_path):
        code = run_cli(["sample", "--n", "6", "--t-len", "3", "--sampler", "perfect",
                        "--burnin", "5", "--dump-env", str(tmp_path / "env.txt"),
                        "--dump-traj", str(tmp_path / "traj.csv")])
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_max_depth_is_no_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["sample", "--t-len", "3", "--sampler", "perfect",
                     "--max-depth", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-depth 5" in capsys.readouterr().err


class TestEstimateInvertLimits:
    def test_estimate_matches_library(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        run_cli(["sample", "--n", "10", "--t-len", "60", "--seed", "6",
                 "--dump-traj", str(traj_path)])
        assert run_cli(["estimate", "--traj", str(traj_path), "--delta", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "m_hat,v_hat,w_hat,delta"
        est = estimate_all(load_trajectory(traj_path), 2)
        values = out[1].split(",")
        assert float(values[0]) == est.m_hat
        assert float(values[1]) == est.v_hat
        assert float(values[2]) == est.w_hat
        assert int(values[3]) == 2

    def test_invert_round_trip(self, capsys):
        from densigraph import forward_map_values
        m, v, w = forward_map_values(0.25, 0.5, 0.5, 0.5)
        code = run_cli(["invert", "--m", str(m), "--v", str(v), "--w", str(w),
                        "--r-plus", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "mu,lambda,p,branch,guards,clipped"
        mu, lam, p, branch = out[1].split(",")[:4]
        assert (float(mu), float(lam), float(p)) == pytest.approx((0.25, 0.5, 0.5))
        assert branch == "minus"

    def test_invert_rejects_r_plus_outside_unit_interval(self, capsys):
        code = run_cli(["invert", "--m", "0.4", "--v", "0.01", "--w", "0.3",
                        "--r-plus", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r_plus must lie in (0, 1)" in captured.err

    def test_limits_from_env_file(self, tmp_path, capsys):
        env_path = tmp_path / "env.txt"
        run_cli(["sample", "--n", "12", "--t-len", "4", "--seed", "8",
                 "--dump-env", str(env_path), "--dump-traj",
                 str(tmp_path / "ignore.csv")])
        code = run_cli(["limits", "--env", str(env_path), "--mu", "0.25",
                        "--lambda", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "m_inf,v_inf,w_inf"
        m_inf = float(out[1].split(",")[0])
        assert 0.0 < m_inf < 1.0

    def test_limits_tiny_lambda_exit_2(self, tmp_path, capsys):
        env_path = tmp_path / "env.txt"
        run_cli(["sample", "--n", "12", "--t-len", "4", "--seed", "8",
                 "--dump-env", str(env_path), "--dump-traj",
                 str(tmp_path / "ignore.csv")])
        code = run_cli(["limits", "--env", str(env_path), "--mu", "0",
                        "--lambda", "1e-17"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limits error: lam=1e-17 is too small")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, message", [
        (["estimate", "--traj"], "line 3: '1,9,1' needs"),
        (["limits", "--mu", "0.25", "--lambda", "0.5", "--env"],
         "bad environment header")])
    def test_file_errors_exit_2(self, tmp_path, capsys, command, message):
        bad = tmp_path / "bad.txt"
        bad.write_text("# n=2 t_len=3\nt,i,x\n1,9,1\n")
        for path, expected in ((tmp_path / "missing.txt", "No such file"),
                               (bad, message)):
            assert run_cli([*command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{command[0]} error: ")
            assert expected in captured.err and captured.err.count("\n") == 1

    # 8.9 PiB is past any address space, and 10^20 cells past numpy's index
    # range: both are refused before anything is allocated.
    @pytest.mark.parametrize("side", [10 ** 8, 10 ** 10])
    def test_huge_header_exit_2(self, tmp_path, capsys, side):
        huge = tmp_path / "huge.csv"
        huge.write_text(f"# n={side} t_len={side}\nt,i,x\n1,1,1\n")
        assert run_cli(["estimate", "--traj", str(huge)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("estimate error: ")
        assert f"n={side} x t_len={side}" in captured.err
        assert captured.err.count("\n") == 1

    def test_bad_delta_exit_2(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        run_cli(["sample", "--n", "6", "--t-len", "8", "--dump-traj", str(traj_path)])
        assert run_cli(["estimate", "--traj", str(traj_path), "--delta", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("estimate error: delta must lie in [1, 2] for T=8, "
                                "got 3\n")

    def test_other_errors_keep_their_traceback(self, tmp_path, monkeypatch):
        traj_path = tmp_path / "traj.csv"
        run_cli(["sample", "--n", "6", "--t-len", "8", "--dump-traj", str(traj_path)])

        def failing_estimate_all(traj, delta):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli, "estimate_all", failing_estimate_all)
        with pytest.raises(ValueError, match="not an input error"):
            run_cli(["estimate", "--traj", str(traj_path)])


class TestOracle:
    def test_shat(self, capsys):
        assert run_cli(["oracle", "shat", "--b", "2", "--t-len", "2",
                        "--kappa", "0.25"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0)

    def test_bad_kappa_exit_2(self, capsys):
        assert run_cli(["oracle", "shat", "--b", "2", "--t-len", "2",
                        "--kappa", "2"]) == 2
        assert capsys.readouterr().err.startswith("oracle error: kappa must lie")

    def test_stationary(self, tmp_path, capsys):
        env_path = tmp_path / "env.txt"
        run_cli(["sample", "--n", "3", "--t-len", "4", "--seed", "7",
                 "--dump-env", str(env_path), "--dump-traj",
                 str(tmp_path / "ignore.csv")])
        assert run_cli(["oracle", "stationary", "--env", str(env_path),
                        "--mu", "0.25", "--lambda", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "state,prob"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(probs) == 8
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        env = load_environment(env_path)
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=env.n)
        pi = exact_stationary(env, params)
        assert lines[1:] == [f"{k},{p:.17g}" for k, p in enumerate(pi)]

    def test_coalescence(self, capsys):
        # The closed form at n = 10, lam = 1/2 and lag 1 is 2/31.
        assert run_cli(["oracle", "coalescence", "--n", "10", "--lambda", "0.5",
                        "--i1", "0", "--t1", "0", "--i2", "1", "--t2", "-1"]) == 0
        assert capsys.readouterr().out == "probability\n0.064516129032258063\n"

    def test_coalescence_at_tiny_lambda(self, capsys):
        # 1 - lam rounds to 1, so no sampler's depth bound exists here.
        assert run_cli(["oracle", "coalescence", "--n", "10", "--lambda", "1e-17",
                        "--i1", "0", "--t1", "0", "--i2", "1", "--t2", "-1"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == "probability"
        assert float(lines[1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("flag", ["--p", "--r-plus", "--beta", "--mu",
                                      "--trials", "--seed"])
    def test_coalescence_rejects_flags_it_would_ignore(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["oracle", "coalescence", "--n", "10", "--lambda", "0.5",
                     "--i1", "0", "--t1", "0", "--i2", "1", "--t2", "-1",
                     flag, "0.1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 0.1" in captured.err

    def test_coalescence_site_out_of_range_exit_2(self, capsys):
        assert run_cli(["oracle", "coalescence", "--n", "10", "--lambda", "0.5",
                        "--i1", "99", "--t1", "0", "--i2", "1", "--t2", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oracle error: site indices 99, 1 must lie in 0..9")
        assert captured.err.count("\n") == 1
