import os
import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from densigraph import experiment
from densigraph.cli import main
from densigraph.experiment import (CSV_HEADER, ConfigError, ResultRow,
                                   default_config, parse_config_text,
                                   row_to_csv, rows_to_csv, run_experiment,
                                   summarize, summary_to_csv)
from densigraph.inversion import InversionResult, forward_map_values
from densigraph.model import InputError

SMALL = """
n = 8
t_grid = 100,1000
n_simu = 4
limits = false
seed = 5
"""


def small_config(extra=()):
    return parse_config_text(SMALL, extra)


class TestConfigParsing:
    def test_defaults(self):
        config = default_config()
        assert config.n == 500
        assert config.r_plus == 0.5 and config.beta == 0.5
        assert config.lam == 0.5 and config.p == 0.5
        assert config.n_simu == 1000
        assert config.delta == 1
        assert config.sampler == "forward"
        assert config.compute_limits

    def test_overrides_and_comments(self):
        config = parse_config_text("n = 10  # small\n", ["p=0.3", "delta=log"])
        assert config.n == 10 and config.p == 0.3
        assert config.delta == "log"

    def test_delta_modes(self):
        assert parse_config_text("", ["delta=1"]).delta == 1
        assert parse_config_text("", ["delta=log"]).delta == "log"
        fixed = parse_config_text("", ["delta=5"])
        assert fixed.delta == 5
        assert fixed.delta_for(1000) == 5

    def test_delta_one_and_zero(self):
        assert parse_config_text("delta = one\n").delta_for(1000) == 1
        with pytest.raises(ConfigError, match="^delta must be >= 1$"):
            parse_config_text("delta = 0\n")

    def test_log_delta_is_floor_ln_t_at_least_one(self):
        config = parse_config_text("", ["delta=log", "t_grid=4,1000"])
        assert config.delta_for(1000) == 6
        assert config.delta_for(4) == 1

    def test_delta_needs_a_known_mode_and_horizons_of_four(self):
        with pytest.raises(ConfigError, match="t_grid must be .* >= 4"):
            parse_config_text("", ["delta=one", "t_grid=3"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["delta=sqrt"])

    @pytest.mark.parametrize("text, overrides, message", [
        ("n = 8\n\nbogus\n", (), "line 3: expected key = value"),
        ("n = 8\n# note\nbogus = 1  # x\n", (), "line 3: unknown key 'bogus'"),
        ("", ("n=8", "p"), "override 'p': expected key=value"),
        ("", ("",), "override '': expected key=value"),
        ("", ("bogus = 1",), "unknown override key 'bogus'"),
    ])
    def test_error_texts(self, text, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text, overrides)
        assert str(info.value) == message

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("unknown_key = 3\n")
        with pytest.raises(ConfigError):
            parse_config_text("n\n")
        with pytest.raises(ConfigError):
            parse_config_text("", ["sampler=magic"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["t_grid=100,50"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["n_simu=0"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["vary=p"])  # vary without values
        with pytest.raises(ConfigError):
            parse_config_text("", ["beta=2.0"])  # mu > lam
        with pytest.raises(ConfigError):
            parse_config_text("", ["vary=p", "vary_values=0.3,0.5,0.30"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["vary=n", "vary_values=50,100.7"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["vary=p", "vary_values=0.3,1.5"])  # p > 1
        # A fixed delta needs 2*delta <= floor(T/2) at the shortest horizon.
        parse_config_text("", ["delta=31", "t_grid=125,2000"])
        with pytest.raises(ConfigError, match="delta=32 too large"):
            parse_config_text("", ["delta=32", "t_grid=125,2000"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["delta=63", "t_grid=250"])

    def test_params_for_vary(self):
        config = parse_config_text("", ["vary=lambda", "vary_values=0.4,0.8"])
        params = config.params_for(0.8)
        assert params.lam == 0.8
        assert params.mu == pytest.approx(0.5 * 0.8)  # beta stays fixed
        config2 = parse_config_text("", ["vary=n", "vary_values=10,20"])
        assert config2.params_for(20).n == 20


class TestRunExperiment:
    def test_row_cardinality(self):
        rows = run_experiment(small_config())
        assert len(rows) == 8  # 2 horizons x 4 replicas

    def test_rows_ordered_and_deterministic(self):
        rows1 = run_experiment(small_config())
        rows2 = run_experiment(small_config())
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        order = [(r.t, r.replica) for r in rows1]
        assert order == sorted(order)

    def test_seed_isolation_when_adding_replicas(self):
        rows_small = run_experiment(small_config())
        rows_big = run_experiment(small_config(["n_simu=5"]))
        small_keys = {(r.t, r.replica): row_to_csv(r) for r in rows_small}
        for row in rows_big:
            if row.replica < 4:
                assert row_to_csv(row) == small_keys[(row.t, row.replica)]

    def test_prefix_evaluation_consistency(self):
        # the T=100 rows do not depend on the presence of longer horizons
        rows_both = run_experiment(small_config())
        rows_single = run_experiment(small_config(["t_grid=100"]))
        short = {r.replica: row_to_csv(r) for r in rows_single}
        for row in rows_both:
            if row.t == 100:
                assert row_to_csv(row) == short[row.replica]

    @pytest.mark.parametrize("jobs", [2, 3, 9])
    def test_parallel_matches_serial(self, monkeypatch, jobs):
        config = small_config()   # 4 tasks
        serial = rows_to_csv(run_experiment(config, jobs=1))
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        assert rows_to_csv(run_experiment(config, jobs=jobs)) == serial
        assert len(forks) == min(jobs, 4) - 1
        assert_no_child_left()

    def test_jobs_above_one_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(InputError, match="^jobs=2 needs os.fork"):
            run_experiment(small_config(), jobs=2)
        assert len(run_experiment(small_config(), jobs=1)) == 8

    def test_limits_fields_populated(self):
        config = parse_config_text(
            "n = 6\nt_grid = 50,100\nn_simu = 2\nlimits = true\n")
        rows = run_experiment(config)
        for row in rows:
            assert row.m_inf is not None and row.inv_inf is not None
        # marks identical across horizons within one replica
        by_replica = {}
        for row in rows:
            by_replica.setdefault(row.replica, set()).add(
                (row.m_inf, row.v_inf, row.w_inf))
        assert all(len(v) == 1 for v in by_replica.values())

    def test_vary_sweep_rows(self):
        config = parse_config_text(
            "n = 6\nt_grid = 50\nn_simu = 2\nlimits = false\n",
            ["vary=p", "vary_values=0.3,0.7"])
        rows = run_experiment(config)
        assert len(rows) == 4
        assert {(r.vary, r.value) for r in rows} == {("p", 0.3), ("p", 0.7)}

    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_vary_rows_keep_the_listed_order(self, jobs):
        config = parse_config_text(
            "n = 6\nt_grid = 50,100\nn_simu = 3\nlimits = true\n",
            ["vary=p", "vary_values=0.7,0.3"])
        rows = run_experiment(config, jobs=jobs)
        assert [(r.value, r.t, r.replica) for r in rows] == [
            (value, t, replica) for value in (0.7, 0.3) for t in (50, 100)
            for replica in range(3)]
        summary = summarize(rows, config)
        assert [(s.value, s.t) for s in summary] == [
            (0.3, 50), (0.3, 100), (0.7, 50), (0.7, 100), (0.3, None), (0.7, None)]

    def test_csv_header_contract(self):
        assert CSV_HEADER == ("vary,value,T,replica,m_hat,v_hat,w_hat,"
                              "mu_hat,lambda_hat,p_hat,branch,guards,clipped,"
                              "m_inf,v_inf,w_inf,mu_inf,lambda_inf,p_inf")
        csv_text = rows_to_csv(run_experiment(small_config()))
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)

    def test_perfect_sampler_path(self):
        config = parse_config_text(
            "n = 4\nt_grid = 30\nn_simu = 2\nlimits = false\nsampler = perfect\n")
        rows = run_experiment(config)
        assert len(rows) == 2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, if the block takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRunnerFailures:
    """Worker k of a two-job run computes replicas k, k + 2, ..., so replica 0
    runs in this process and replica 1 in the forked child."""

    @pytest.fixture
    def fail_replica(self, monkeypatch):
        def install(replica, fail):
            real = experiment._replica_rows

            def replica_rows(config, value_idx, r):
                if r == replica:
                    fail()
                return real(config, value_idx, r)

            monkeypatch.setattr(experiment, "_replica_rows", replica_rows)
        return install

    @staticmethod
    def bad_input():
        raise InputError("replica rejected its input")

    @pytest.mark.parametrize("replica", [0, 1])
    def test_input_error_is_the_same_at_two_jobs(self, fail_replica, replica):
        fail_replica(replica, self.bad_input)
        raised = {}
        for jobs in (1, 2):
            with deadline(60), pytest.raises(InputError) as info:
                run_experiment(small_config(), jobs=jobs)
            raised[jobs] = (type(info.value), str(info.value))
            assert_no_child_left()
        assert raised[2] == raised[1] == (InputError, "replica rejected its input")

    def test_cli_exits_2_on_a_worker_input_error(self, fail_replica, tmp_path,
                                                 capsys):
        fail_replica(1, self.bad_input)
        code = main(["run", "--set", "n=8", "--set", "t_grid=100",
                     "--set", "n_simu=4", "--jobs", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "run error: replica rejected its input\n"
        assert not (tmp_path / "x.csv").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(7), "exit code 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ])
    def test_child_that_dies_without_a_result(self, fail_replica, end, status):
        parent = os.getpid()

        def die():
            if os.getpid() == parent:
                raise AssertionError("replica 1 ran in the parent")
            end()

        fail_replica(1, die)
        with deadline(60), pytest.raises(
                RuntimeError, match=f"^worker 1 ended without a result: {status}$"):
            run_experiment(small_config(), jobs=2)
        assert_no_child_left()


def make_row(p_hat, t=100, replica=0, vary="", value=None):
    inv = InversionResult(mu=0.25, lam=0.5, p=p_hat, branch="minus",
                          guards=frozenset(), clipped=frozenset())
    return ResultRow(vary=vary, value=value, t=t, replica=replica,
                     m_hat=0.375, v_hat=0.0166015625, w_hat=0.2490234375,
                     inv=inv)


class TestSummarize:
    # mu = beta * lambda = 0.25, p = 0.5, r_plus = 0.5
    TRUTH = parse_config_text("n = 8\nt_grid = 100\n")

    def test_single_row_median(self):
        summary = summarize([make_row(0.6)], self.TRUTH)
        assert len(summary) == 1
        assert summary[0].err_p == pytest.approx(0.1)
        assert summary[0].err_m == pytest.approx(0.0, abs=1e-15)

    def test_even_count_median_convention(self):
        rows = [make_row(0.6, replica=0), make_row(0.7, replica=1)]
        summary = summarize(rows, self.TRUTH)
        assert summary[0].err_p == pytest.approx(0.15)

    def test_odd_count_median_convention(self):
        rows = [make_row(0.6, replica=0), make_row(0.7, replica=1),
                make_row(0.9, replica=2)]
        summary = summarize(rows, self.TRUTH)
        assert summary[0].err_p == pytest.approx(0.2)

    def test_varied_truth_substitution(self):
        rows = [make_row(0.3, vary="p", value=0.3),
                make_row(0.9, vary="p", value=0.7)]
        summary = summarize(rows, parse_config_text(
            "n = 8\nt_grid = 100\n", ["vary=p", "vary_values=0.3,0.7"]))
        by_value = {s.value: s for s in summary}
        assert by_value[0.3].err_p == pytest.approx(0.0)
        assert by_value[0.7].err_p == pytest.approx(0.2)

    def test_lambda_sweep_truth_is_the_generating_mu(self):
        # beta * lambda here differs by one ulp from (beta * lam0 / lam0) * lambda.
        config = parse_config_text("beta = 0.1\nlambda = 0.7\nt_grid = 100\n",
                                   ["vary=lambda", "vary_values=0.05"])
        mu = config.params_for(0.05).mu
        assert mu != (0.1 * 0.7 / 0.7) * 0.05
        row = make_row(0.5, vary="lambda", value=0.05)
        row = replace(row, inv=replace(row.inv, mu=mu, lam=0.05))
        summary = summarize([row], config)
        assert summary[0].err_mu == 0.0 and summary[0].err_lambda == 0.0

    def test_failed_inversion_counts_as_infinite_error(self):
        bad = InversionResult(mu=float("nan"), lam=float("nan"), p=float("nan"),
                              branch="minus",
                              guards=frozenset({"non_invertible"}),
                              clipped=frozenset())
        rows = [make_row(0.6, replica=0),
                ResultRow(vary="", value=None, t=100, replica=1, m_hat=0.375,
                          v_hat=0.0, w_hat=0.0, inv=bad)]
        summary = summarize(rows, self.TRUTH)
        assert summary[0].err_p == np.inf or summary[0].err_p > 0.1

    def test_cell_medians_match_per_column_medians(self):
        # Three failed inversions of six: the middle pair of the inversion
        # columns straddles inf, while m, v and w stay finite.
        bad = InversionResult(mu=float("nan"), lam=float("nan"), p=float("nan"),
                              branch="minus",
                              guards=frozenset({"non_invertible"}),
                              clipped=frozenset())
        rows = [replace(make_row(p_hat, replica=k), m_hat=0.3 + 0.01 * k,
                        w_hat=0.2 + 0.03 * k)
                for k, p_hat in enumerate((0.6, 0.2, 0.9))]
        rows += [replace(rows[k], replica=3 + k, v_hat=0.01 * k, inv=bad)
                 for k in range(3)]
        tp = self.TRUTH.params_for(None)
        m, v, w = forward_map_values(tp.mu, tp.lam, tp.p, tp.r_plus)
        errs = np.abs([(r.m_hat - m, r.v_hat - v, r.w_hat - w, r.inv.mu - tp.mu,
                        r.inv.lam - tp.lam, r.inv.p - tp.p) for r in rows])
        errs[np.isnan(errs)] = np.inf
        (cell,) = summarize(rows, self.TRUTH)
        got = (cell.err_m, cell.err_v, cell.err_w, cell.err_mu, cell.err_lambda,
               cell.err_p)
        assert got == tuple(float(np.median(errs[:, k])) for k in range(6))
        assert np.isfinite(got[:3]).all() and np.isinf(got[3:]).all()

    def test_summary_csv_shape(self):
        text = summary_to_csv(summarize([make_row(0.6)], self.TRUTH))
        lines = text.strip().split("\n")
        assert lines[0].startswith("vary,value,T,n,")
        assert len(lines) == 2
