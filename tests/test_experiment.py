import os
import select
import signal
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from densigraph import experiment
from densigraph.cli import main
from densigraph.estimators import MomentEstimates
from densigraph.experiment import (CSV_HEADER, ConfigError, ExperimentConfig,
                                   ResultRow, default_config, parse_config_text,
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
        with pytest.raises(ConfigError,
                           match=r"^delta must lie in \[1, 62\] for T=250, got 0$"):
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
        ("", ("vary_values=0.2,0.5",), "vary_values is set but vary is empty"),
        ("vary = \nvary_values = 0.2\n", (), "vary_values is set but vary is empty"),
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
        with pytest.raises(ConfigError,
                           match=r"^delta must lie in \[1, 31\] for T=125, got 32$"):
            parse_config_text("", ["delta=32", "t_grid=125,2000"])
        with pytest.raises(ConfigError):
            parse_config_text("", ["delta=63", "t_grid=250"])

    @pytest.mark.parametrize("change, message", [
        ({"n_simu": 0}, "^n_simu must be >= 1$"),
        ({"delta": 0}, r"^delta must lie in \[1, 62\] for T=250, got 0$"),
        ({"t_grid": (500, 250)}, "^t_grid must be strictly ascending$"),
    ], ids=["n_simu", "delta", "t_grid"])
    def test_an_invalid_config_cannot_be_built(self, change, message):
        # dataclasses.replace builds a new ExperimentConfig, which checks itself.
        with pytest.raises(ConfigError, match=message):
            replace(default_config(), **change)
        assert not hasattr(ExperimentConfig, "validate")

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
            assert row.lim is not None and row.inv_inf is not None
        # marks identical across horizons within one replica
        by_replica = {}
        for row in rows:
            by_replica.setdefault(row.replica, set()).add(
                (row.lim.m_inf, row.lim.v_inf, row.lim.w_inf))
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
            (0.7, 50), (0.7, 100), (0.3, 50), (0.3, 100), (0.7, None), (0.3, None)]

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

    @pytest.mark.parametrize("sampler", ["forward", "perfect"])
    def test_limits_leave_the_sampled_columns_alone(self, sampler):
        # The limits solve runs before the sampler and must read no draw of it.
        overrides = ["n=50", "t_grid=100,400", "n_simu=2", "vary=lambda",
                     "vary_values=0.2,0.5", f"sampler={sampler}", "seed=3"]

        def fields(limits):
            rows = run_experiment(default_config([*overrides, f"limits={limits}"]))
            return [line.split(",") for line in rows_to_csv(rows).splitlines()[1:]]

        with_limits, without = fields("true"), fields("false")
        assert len(with_limits) == len(without) == 8
        header = CSV_HEADER.split(",")
        sampled = slice(header.index("m_hat"), header.index("p_hat") + 1)
        for on, off in zip(with_limits, without):
            assert on[:4] == off[:4]   # vary, value, T, replica
            assert on[sampled] == off[sampled] and all(on[sampled])
            assert all(on[-6:]) and off[-6:] == [""] * 6

    @pytest.mark.parametrize("sampler", ["forward", "perfect"])
    def test_replica_never_holds_kernel_and_trajectory(self, sampler):
        # The limits' float64 kernel (8 n^2 bytes) is freed before the n x T
        # trajectory exists, so one replica stays below 8 n^2 + n T.
        n, t_max = 500, 2000
        config = default_config([f"n={n}", "t_grid=250,500,1000,2000", "n_simu=1",
                                 "limits=true", f"sampler={sampler}"])
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n + n * t_max


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
    """Workers claim tasks from one shared queue, so no task belongs to a
    fixed worker.  A case that needs a task to fail in worker 1, the forked
    child, makes the tasks of worker 0, this process, wait until the child
    has claimed one."""

    @pytest.fixture
    def fail_in(self, monkeypatch, tmp_path):
        """Run ``fail`` in place of each task that ``worker`` (0 or 1)
        claims; the other worker's tasks run as usual.  Each call replaces
        the previous one."""
        parent, real = os.getpid(), experiment._replica_rows
        child_claimed = tmp_path / "child-claimed"

        def install(worker, fail):
            def replica_rows(config, value_idx, r):
                if os.getpid() != parent:
                    child_claimed.touch()
                    if worker == 1:
                        fail()
                elif worker == 0:
                    fail()
                else:
                    while not child_claimed.exists():
                        time.sleep(0.01)
                return real(config, value_idx, r)

            monkeypatch.setattr(experiment, "_replica_rows", replica_rows)
        return install

    @staticmethod
    def bad_input():
        raise InputError("replica rejected its input")

    @pytest.mark.parametrize("worker", [0, 1])
    def test_input_error_is_the_same_at_two_jobs(self, fail_in, worker):
        raised = {}
        for jobs in (1, 2):
            fail_in(0 if jobs == 1 else worker, self.bad_input)
            with deadline(60), pytest.raises(InputError) as info:
                run_experiment(small_config(), jobs=jobs)
            raised[jobs] = (type(info.value), str(info.value))
            assert_no_child_left()
        assert raised[2] == raised[1] == (InputError, "replica rejected its input")

    def test_cli_exits_2_on_a_worker_input_error(self, fail_in, tmp_path, capsys):
        fail_in(1, self.bad_input)
        with deadline(60):
            code = main(["run", "--set", "n=8", "--set", "t_grid=100",
                         "--set", "n_simu=4", "--jobs", "2",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "run error: replica rejected its input\n"
        assert not (tmp_path / "x.csv").exists()
        assert_no_child_left()

    def test_a_failed_child_stops_the_parents_claims(self, monkeypatch):
        parent, real, computed = os.getpid(), experiment._replica_rows, []

        def replica_rows(config, value_idx, r):
            if os.getpid() != parent:
                self.bad_input()
            time.sleep(0.02)
            computed.append(r)
            return real(config, value_idx, r)

        monkeypatch.setattr(experiment, "_replica_rows", replica_rows)
        with deadline(60), pytest.raises(InputError,
                                         match="^replica rejected its input$"):
            run_experiment(small_config(["n_simu=40"]), jobs=2)
        assert_no_child_left()
        # The child fails at its first claim; the parent claims 39 tasks
        # if it drains the queue, 20 with fixed shares.
        assert len(computed) < 10

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(7), "exit code 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ])
    def test_child_that_dies_without_a_result(self, fail_in, end, status):
        fail_in(1, end)
        with deadline(60), pytest.raises(
                RuntimeError, match=f"^worker 1 ended without a result: {status}$"):
            run_experiment(small_config(), jobs=2)
        assert_no_child_left()


class TestSharedQueue:
    @pytest.fixture
    def task_pids(self, monkeypatch, tmp_path):
        """(install, read): ``install(n_simu, slow)`` logs the pid that
        computes each task and sleeps 0.5 s before each task index in
        ``slow``; ``read()`` returns {task index: pid}."""
        log, real = tmp_path / "pids", experiment._replica_rows

        def install(n_simu, slow=()):
            def replica_rows(config, value_idx, r):
                index = value_idx * n_simu + r
                if index in slow:
                    time.sleep(0.5)
                with open(log, "a", encoding="ascii") as fh:   # one append per task
                    fh.write(f"{index} {os.getpid()}\n")
                return real(config, value_idx, r)

            monkeypatch.setattr(experiment, "_replica_rows", replica_rows)

        def read():
            pairs = [tuple(map(int, line.split()))
                     for line in log.read_text().splitlines()]
            pid = dict(pairs)
            assert len(pid) == len(pairs), "a task was computed twice"
            return pid
        return install, read

    def test_a_slow_task_leaves_every_other_task_to_the_other_worker(
            self, task_pids):
        config = small_config(["t_grid=100", "n_simu=6"])
        serial = rows_to_csv(run_experiment(config, jobs=1))
        install, read = task_pids
        install(6, slow={0})
        with deadline(60):
            assert rows_to_csv(run_experiment(config, jobs=2)) == serial
        assert_no_child_left()
        pid = read()
        assert sorted(pid) == list(range(6))
        others = {pid[r] for r in range(1, 6)}
        assert len(others) == 1 and pid[0] not in others

    def test_more_workers_than_cores_compute_each_task_once(self, task_pids):
        config = small_config(["t_grid=100", "n_simu=30"])
        serial = rows_to_csv(run_experiment(config, jobs=1))
        install, read = task_pids
        install(30)
        with deadline(60):
            assert rows_to_csv(run_experiment(config, jobs=6)) == serial
        assert_no_child_left()
        assert sorted(read()) == list(range(30))

    @pytest.mark.parametrize("n_tasks, pipe_buf, per_claim", [
        (1, 4096, 1), (1024, 4096, 1), (1025, 4096, 2), (5000, 4096, 5),
        (10, 12, 4),
    ])
    def test_the_queue_fits_in_one_pipe_write(self, monkeypatch, n_tasks,
                                              pipe_buf, per_claim):
        monkeypatch.setattr(select, "PIPE_BUF", pipe_buf)
        queue, got = experiment._fill_queue(n_tasks)
        try:
            data = b""
            while chunk := os.read(queue, 1 << 16):
                data += chunk
        finally:
            os.close(queue)
        assert got == per_claim and len(data) <= pipe_buf
        size = experiment._RECORD_BYTES
        assert [int.from_bytes(data[k:k + size], "little")
                for k in range(0, len(data), size)] == list(range(0, n_tasks, per_claim))

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_claims_of_several_tasks_give_the_serial_bytes(self, monkeypatch,
                                                           task_pids, jobs):
        config = small_config(["t_grid=100", "n_simu=5", "vary=p",
                               "vary_values=0.3,0.7"])
        serial = rows_to_csv(run_experiment(config, jobs=1))
        # A cap of 3 records: the 10 tasks go in claims of 4, 4 and 2.
        monkeypatch.setattr(select, "PIPE_BUF", 3 * experiment._RECORD_BYTES)
        install, read = task_pids
        install(5)
        with deadline(60):
            assert rows_to_csv(run_experiment(config, jobs=jobs)) == serial
        assert_no_child_left()
        pid = read()
        assert sorted(pid) == list(range(10))
        assert all(len({pid[i] for i in claim}) == 1
                   for claim in (range(0, 4), range(4, 8), range(8, 10)))


def moments(m_hat, v_hat, w_hat):
    return MomentEstimates(m_hat=m_hat, v_hat=v_hat, w_hat=w_hat, delta=1,
                           w_delta=0.0, w_2delta=w_hat / 2)


def make_row(p_hat, t=100, replica=0, vary="", value=None):
    inv = InversionResult(mu=0.25, lam=0.5, p=p_hat, branch="minus",
                          guards=frozenset(), clipped=frozenset())
    return ResultRow(vary=vary, value=value, t=t, replica=replica,
                     est=moments(0.375, 0.0166015625, 0.2490234375), inv=inv)


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
                ResultRow(vary="", value=None, t=100, replica=1,
                          est=moments(0.375, 0.0, 0.0), inv=bad)]
        summary = summarize(rows, self.TRUTH)
        assert summary[0].err_p == np.inf or summary[0].err_p > 0.1

    def test_cell_medians_match_per_column_medians(self):
        # Three failed inversions of six: the middle pair of the inversion
        # columns straddles inf, while m, v and w stay finite.
        bad = InversionResult(mu=float("nan"), lam=float("nan"), p=float("nan"),
                              branch="minus",
                              guards=frozenset({"non_invertible"}),
                              clipped=frozenset())
        rows = [replace(make_row(p_hat, replica=k),
                        est=moments(0.3 + 0.01 * k, 0.0166015625, 0.2 + 0.03 * k))
                for k, p_hat in enumerate((0.6, 0.2, 0.9))]
        rows += [replace(rows[k], replica=3 + k,
                         est=replace(rows[k].est, v_hat=0.01 * k), inv=bad)
                 for k in range(3)]
        tp = self.TRUTH.params_for(None)
        m, v, w = forward_map_values(tp.mu, tp.lam, tp.p, tp.r_plus)
        errs = np.abs([(r.est.m_hat - m, r.est.v_hat - v, r.est.w_hat - w,
                        r.inv.mu - tp.mu,
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
