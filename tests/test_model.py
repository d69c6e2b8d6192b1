import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densigraph
from densigraph import (Environment, InputError, ModelParams, Trajectory,
                        build_partition, load_environment, load_trajectory,
                        sample_environment, save_environment, save_trajectory,
                        transition_probabilities)
from densigraph import forward, model, perfect
from densigraph.forward import simulate, zero_state
from densigraph.perfect import perfect_sample
from densigraph.rng import DRAW_BUDGET
from _reference import (environment_text_reference, sample_environment_reference,
                        trajectory_csv_reference, trajectory_from_csv_reference,
                        transition_probability_loops)


def make_env(theta, r_plus=0.5):
    theta = np.asarray(theta, dtype=np.uint8)
    return Environment(theta=theta, partition=build_partition(len(theta), r_plus))


class TestModelParams:
    def test_relaxed_corners_construct(self):
        ModelParams(mu=0.0, lam=1.0, p=0.0, r_plus=0.5, n=1)
        ModelParams(mu=0.5, lam=0.5, p=1.0, r_plus=0.5, n=3)  # mu = lam

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(mu=0.6, lam=0.5, p=0.5, r_plus=0.5, n=3)
        with pytest.raises(ValueError):
            ModelParams(mu=0.1, lam=0.5, p=1.5, r_plus=0.5, n=3)
        with pytest.raises(ValueError):
            ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=1.0, n=3)
        with pytest.raises(ValueError):
            ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=0.5, n=0)

    def test_derived_quantities(self):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.7, n=4)
        assert params.beta == 0.5
        assert params.r_minus == pytest.approx(0.3)


class TestPartition:
    def test_ceiling_rule_examples(self):
        assert build_partition(4, 0.5).size_plus == 2
        assert build_partition(1, 0.7).size_plus == 1
        assert build_partition(10, 0.75).size_plus == 8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_partition(0, 0.5)
        with pytest.raises(ValueError):
            build_partition(5, 0.0)
        with pytest.raises(ValueError):
            build_partition(5, 1.0)

    def test_fraction_deviation_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            r_plus = float(rng.uniform(0.01, 0.99))
            part = build_partition(n, r_plus)
            dev_plus = abs(part.size_plus / n - r_plus)
            dev_minus = abs((n - part.size_plus) / n - (1 - r_plus))
            assert max(dev_plus, dev_minus) <= 1.0 / n + 1e-12


class TestSampleEnvironment:
    def test_degenerate_densities(self):
        ones = sample_environment(
            ModelParams(mu=0.1, lam=0.5, p=1.0, r_plus=0.5, n=6), seed=1)
        zeros = sample_environment(
            ModelParams(mu=0.1, lam=0.5, p=0.0, r_plus=0.5, n=6), seed=1)
        assert ones.theta.all()
        assert not zeros.theta.any()

    def test_edge_count_binomial_concentration(self):
        n = 200
        params = ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=0.5, n=n)
        env = sample_environment(params, seed=99)
        count = int(env.theta.sum())
        sigma = (n * n * 0.25) ** 0.5
        assert abs(count - 0.5 * n * n) <= 3 * sigma

    def test_reproducible(self):
        params = ModelParams(mu=0.1, lam=0.5, p=0.3, r_plus=0.6, n=40)
        a = sample_environment(params, seed=5)
        b = sample_environment(params, seed=5)
        c = sample_environment(params, seed=6)
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_metadata_recorded(self):
        params = ModelParams(mu=0.1, lam=0.5, p=0.3, r_plus=0.6, n=8)
        env = sample_environment(params, seed=17)
        assert env.p == 0.3 and env.seed == 17

    # n * n falls below, on both sides of and well above one draw block:
    # 181^2 < DRAW_BUDGET = 2^15 < 182^2.
    @pytest.mark.parametrize("n", [1, 2, 181, 182, 500])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_block_draw_matches_one_shot_draw(self, n, p):
        assert 181 ** 2 < DRAW_BUDGET < 182 ** 2
        params = ModelParams(mu=0.1, lam=0.5, p=p, r_plus=0.5, n=n)
        env = sample_environment(params, seed=23)
        assert env.theta.dtype == np.uint8
        assert np.array_equal(env.theta, sample_environment_reference(params, 23))

    def test_memory_peak_at_paper_scale(self):
        # The one-shot draw peaked at about 6 MB of n^2-sized temporaries;
        # blocks bound them by DRAW_BUDGET draws.
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=500)
        sample_environment(params, seed=1)
        tracemalloc.start()
        try:
            sample_environment(params, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestEnvironment:
    @pytest.mark.parametrize("theta", [[[256, 1], [0, 257]], [[0.5, 1.0], [0.0, 1.0]],
                                       [[-1, 0], [0, 1]], [[np.nan, 0], [0, 1]]],
                             ids=["wraps", "truncates", "negative", "nan"])
    def test_rejects_non_binary_before_the_cast(self, theta):
        with pytest.raises(ValueError, match="theta entries must be 0 or 1"):
            Environment(theta=np.array(theta), partition=build_partition(2, 0.5))

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
    def test_binary_input_of_any_dtype_accepted(self, dtype):
        env = Environment(theta=np.array([[0, 1], [1, 1]], dtype=dtype),
                          partition=build_partition(2, 0.5))
        assert env.theta.dtype == np.uint8 and env.theta.tolist() == [[0, 1], [1, 1]]

    def test_caller_array_is_copied_and_stays_writable(self):
        base = np.zeros(4, np.uint8)
        env = Environment(theta=base.reshape(2, 2), partition=build_partition(2, 0.5))
        base[0] = 1
        assert env.theta.tolist() == [[0, 0], [0, 0]]
        assert base.flags.writeable and not env.theta.flags.writeable
        fortran = np.asfortranarray(np.array([[0, 1], [0, 0]], np.uint8))
        fortran.flags.writeable = False
        env = Environment(theta=fortran, partition=build_partition(2, 0.5))
        assert env.theta.flags.c_contiguous and env.theta.tolist() == [[0, 1], [0, 0]]

    def test_read_only_c_order_uint8_is_copied(self):
        theta = np.array([[0, 1], [1, 0]], np.uint8)
        theta.flags.writeable = False
        env = Environment(theta=theta, partition=build_partition(2, 0.5))
        assert not np.shares_memory(env.theta, theta)
        assert env.theta.flags.c_contiguous and not env.theta.flags.writeable
        assert env.theta.tolist() == [[0, 1], [1, 0]]

    def test_read_only_view_of_a_writable_array_is_copied(self):
        base = np.zeros((2, 2), np.uint8)
        view = base.view()
        view.flags.writeable = False
        env = Environment(theta=view, partition=build_partition(2, 0.5))
        base[0, 0] = 1
        assert env.theta.tolist() == [[0, 0], [0, 0]]

    def test_sampler_and_loader_hand_over_their_buffers(self, tmp_path, monkeypatch):
        # Every producer hands its fresh buffer to `_adopt`, which keeps it
        # as the instance's array, read-only and uncopied.
        handed = []
        real = model._adopt
        for module in (model, forward, perfect):
            monkeypatch.setattr(module, "_adopt",
                                lambda cls, **kw: handed.append(kw) or real(cls, **kw))
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=30)
        env = sample_environment(params, 3)
        save_environment(env, tmp_path / "env.txt")
        traj = simulate(env, params, zero_state(30), 20, burnin=5, seed=1)
        save_trajectory(traj, tmp_path / "traj.csv")
        made = [env, traj, load_environment(tmp_path / "env.txt"),
                perfect_sample(env, params, 20, seed=1),
                load_trajectory(tmp_path / "traj.csv"), traj.prefix(7)]
        assert len(handed) == len(made)
        for got, fields in zip(made, handed):
            name = "theta" if isinstance(got, Environment) else "x"
            assert getattr(got, name) is fields[name]
            assert not getattr(got, name).flags.writeable


class TestTransitionProbability:
    def test_all_zero_with_empty_inhibitory_set(self):
        # r_plus = 0.9, n = 4 makes every site excitatory
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.9, n=4)
        env = make_env(np.ones((4, 4)), r_plus=0.9)
        assert env.partition.size_plus == 4
        x = np.zeros(4, dtype=np.uint8)
        assert transition_probabilities(env, params, x) == pytest.approx([0.2] * 4)

    def test_hand_evaluated_fixture(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=2 / 3, n=3)
        env = make_env([[0, 1, 1], [0, 0, 0], [0, 0, 0]], r_plus=2 / 3)
        assert env.partition.size_plus == 2
        value = transition_probabilities(env, params, [0, 1, 0])[0]
        assert value == pytest.approx(0.2 + 0.4 * (2 / 3), abs=1e-15)

    def test_all_ones_full_graph_no_inhibition(self):
        params = ModelParams(mu=0.1, lam=0.7, p=1.0, r_plus=0.9, n=5)
        env = make_env(np.ones((5, 5)), r_plus=0.9)
        x = np.ones(5, dtype=np.uint8)
        expected = 0.1 + 0.3 * env.partition.size_plus / 5
        assert transition_probabilities(env, params, x) == pytest.approx([expected] * 5)

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            params = ModelParams(mu=float(rng.uniform(0, 0.3)),
                                 lam=float(rng.uniform(0.31, 1.0)),
                                 p=0.5, r_plus=float(rng.uniform(0.1, 0.9)), n=n)
            env = make_env(rng.integers(0, 2, size=(n, n)), r_plus=params.r_plus)
            x = rng.integers(0, 2, size=n)
            value = transition_probabilities(env, params, x)
            assert (params.mu - 1e-15 <= value).all()
            assert (value <= params.mu + (1 - params.lam) + 1e-15).all()

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 51))
            r_plus = float(rng.uniform(0.05, 0.95))
            params = ModelParams(mu=float(rng.uniform(0, 0.4)),
                                 lam=float(rng.uniform(0.41, 0.99)),
                                 p=0.5, r_plus=r_plus, n=n)
            env = make_env(rng.integers(0, 2, size=(n, n)), r_plus=r_plus)
            x = rng.integers(0, 2, size=n)
            vector = transition_probabilities(env, params, x)
            for i in range(n):
                ref = transition_probability_loops(
                    env.theta, env.partition.size_plus, params.mu, params.lam, x, i)
                assert abs(vector[i] - ref) <= 1e-15

    def test_shape_errors(self):
        params = ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=0.5, n=3)
        env = make_env(np.zeros((3, 3)))
        for x in ([0, 0], [0, 0, 0, 0]):
            with pytest.raises(ValueError,
                               match=rf"x must have length 3, got shape \({len(x)},\)"):
                transition_probabilities(env, params, x)

    @pytest.mark.parametrize("reader", ["limits", "transition_probabilities",
                                        "exact_stationary"])
    @pytest.mark.parametrize("n", [4, 9])
    def test_kernel_readers_reject_params_of_another_size(self, reader, n):
        # The samplers' n rule (tests/test_forward.py) holds for every reader
        # of (env, params), through `interaction_kernel`.
        env = sample_environment(ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5,
                                             n=6), seed=0)
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=n)
        x = (np.zeros(6),) if reader == "transition_probabilities" else ()
        message = f"^params.n={n} does not match the environment's n=6$"
        with pytest.raises(InputError, match=message):
            getattr(densigraph, reader)(env, params, *x)


class TestTrajectory:
    def test_prefix_view(self):
        traj = Trajectory(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
        assert traj.prefix(2).x.tolist() == [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            traj.prefix(0)
        with pytest.raises(ValueError):
            traj.prefix(4)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([[2, 0]], dtype=np.uint8))

    # A uint8 cast would wrap 256, 257 onto 0, 1 and truncate 0.5 onto 0.
    @pytest.mark.parametrize("x", [[[256, 257]], [[0.5, 1.0]], [[-1, 0]], [[np.nan, 1.0]],
                                   [[0, 1 + 2**40]]],
                             ids=["wraps", "truncates", "negative", "nan", "wide"])
    def test_rejects_non_binary_before_the_cast(self, x):
        with pytest.raises(ValueError, match="trajectory entries must be 0 or 1"):
            Trajectory(np.array(x))

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
    def test_binary_input_of_any_dtype_accepted(self, dtype):
        traj = Trajectory(np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype))
        assert traj.x.dtype == np.uint8
        assert traj.x.tolist() == [[0, 1, 1], [1, 0, 0]]

    def test_immutable(self):
        traj = Trajectory(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            traj.x[0, 0] = 1


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory `a` views."""
    while a.base is not None:
        a = a.base
    return a


class TestTimeMajorStorage:
    """Every trajectory is an (n, T) view of a C-contiguous (T, n) buffer,
    which the samplers and the loader hand over instead of copying."""

    PARAMS = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=40)

    def trajectories(self, tmp_path):
        env = sample_environment(self.PARAMS, seed=3)
        made = {
            "simulate": simulate(env, self.PARAMS, zero_state(40), 30, burnin=5, seed=1),
            "perfect_sample": perfect_sample(env, self.PARAMS, 30, seed=1),
            "site-major": Trajectory(np.ones((40, 30), dtype=np.uint8)),
            "bool": Trajectory(np.ones((30, 40), dtype=bool).T),
        }
        save_trajectory(made["simulate"], tmp_path / "traj.csv")
        made["load_trajectory"] = load_trajectory(tmp_path / "traj.csv")
        return made

    def test_time_major_and_read_only(self, tmp_path):
        for name, traj in self.trajectories(tmp_path).items():
            assert traj.x.shape == (40, 30), name
            assert traj.x.dtype == np.uint8 and traj.x.T.flags.c_contiguous, name
            assert not traj.x.flags.writeable, name
            with pytest.raises(ValueError):
                traj.x[0, 0] = 1
            prefix = traj.prefix(7)
            assert np.shares_memory(prefix.x, traj.x), name
            assert not prefix.x.flags.writeable and prefix.x.T.flags.c_contiguous, name

    def test_prefix_is_not_scanned_again(self, tmp_path, monkeypatch):
        traj = self.trajectories(tmp_path)["simulate"]
        monkeypatch.setattr(model, "_check_binary", None)
        assert np.array_equal(traj.prefix(12).x, traj.x[:, :12])

    def test_read_only_time_major_uint8_is_copied(self):
        buffer = np.zeros((6, 4), dtype=np.uint8)
        buffer.flags.writeable = False
        traj = Trajectory(buffer.T)
        assert not np.shares_memory(traj.x, buffer)
        assert traj.x.T.flags.c_contiguous and not traj.x.flags.writeable

    def test_read_only_view_of_a_writable_array_is_copied(self):
        base = np.zeros((6, 4), dtype=np.uint8)
        view = base.view()
        view.flags.writeable = False
        traj = Trajectory(view.T)
        base[0, 0] = 1
        assert not traj.x.any()

    @pytest.mark.parametrize("layout", ["time-major", "site-major"])
    def test_writable_view_is_copied(self, layout):
        base = np.zeros((6, 4), dtype=np.uint8)
        view = base.T if layout == "time-major" else base[1:3]
        traj = Trajectory(view)
        assert not np.shares_memory(traj.x, base)
        base[...] = 1
        assert not traj.x.any()

    @pytest.mark.parametrize("sampler", ["simulate", "perfect_sample"])
    def test_peak_memory_holds_no_second_copy(self, sampler):
        # A copy of the (T, n) buffer took the peak to 2 n T bytes.
        n, t_len = 200, 20000
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=n)
        env = sample_environment(params, seed=1)
        run = ((lambda: simulate(env, params, zero_state(n), t_len, burnin=20, seed=2))
               if sampler == "simulate" else
               (lambda: perfect_sample(env, params, t_len, seed=2)))
        tracemalloc.start()
        try:
            traj = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.x.shape == (n, t_len)
        assert peak < 1.5 * n * t_len, peak

    @pytest.mark.parametrize("lam, t_len", [(0.05, 1), (0.05, 3), (0.5, 40),
                                            (0.5, 200)])
    def test_perfect_sample_pins_at_most_twice_its_window(self, lam, t_len):
        # Column 1 is folded along its walks, so whatever the depth D the
        # buffer holds the window's rows alone.
        params = ModelParams(mu=lam / 2, lam=lam, p=0.5, r_plus=0.5, n=30)
        env = sample_environment(params, seed=4)
        traj = perfect_sample(env, params, t_len, seed=6)
        assert owner(traj.x).nbytes == 30 * t_len
        assert np.array_equal(traj.x, perfect_sample(env, params, t_len + 5,
                                                     seed=6).x[:, :t_len])

    def test_simulate_owns_exactly_its_window(self):
        # The burn-in is walked backward from column 1, not stepped into the
        # buffer, so no row before the window is kept.
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=30)
        env = sample_environment(params, seed=4)
        traj = simulate(env, params, zero_state(30), 200, burnin=40, seed=6)
        assert owner(traj.x).nbytes == 30 * 200


class TestSerialization:
    def test_environment_round_trip(self, tmp_path):
        params = ModelParams(mu=0.1, lam=0.5, p=0.3, r_plus=0.6, n=12)
        env = sample_environment(params, seed=17)
        path = tmp_path / "env.txt"
        save_environment(env, path)
        loaded = load_environment(path)
        assert np.array_equal(loaded.theta, env.theta)
        assert loaded.partition == env.partition
        assert loaded.p == env.p and loaded.seed == env.seed

    def test_negative_seed_and_nan_p_round_trip(self, tmp_path):
        # Header counts are plain digits, but p and seed keep float/int: a
        # negative seed and a hand-built fixture's p = nan are written as such.
        drawn = sample_environment(ModelParams(mu=0.1, lam=0.5, p=0.3, r_plus=0.6,
                                               n=3), seed=-3)
        fixture = Environment(theta=np.eye(2, dtype=np.uint8),
                              partition=build_partition(2, 0.5))
        for env, first in ((drawn, "3 2 0.3 -3\n"), (fixture, "2 1 nan 0\n")):
            path = tmp_path / "env.txt"
            save_environment(env, path)
            assert path.read_text().startswith(first)
            loaded = load_environment(path)
            assert np.array_equal(loaded.theta, env.theta)
            assert loaded.seed == env.seed and np.isnan(loaded.p) == np.isnan(env.p)

    def test_environment_file_bytes_match_reference(self, tmp_path):
        for n, p, seed in [(1, 1.0, 0), (3, 0.0, 1), (12, 0.3, 17), (200, 0.5, 2)]:
            env = sample_environment(ModelParams(mu=0.1, lam=0.5, p=p, r_plus=0.6,
                                                 n=n), seed=seed)
            path = tmp_path / "env.txt"
            save_environment(env, path)
            assert path.read_bytes() == environment_text_reference(env).encode("ascii")

    def test_trajectory_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        traj = Trajectory(rng.integers(0, 2, size=(5, 9)).astype(np.uint8))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert np.array_equal(loaded.x, traj.x)

    @pytest.mark.parametrize("row", ["0,1,1", "1,0,1", "1,1,7", "4,1,1", "1,3,1",
                                     "1,1,-1"])
    def test_trajectory_rows_out_of_range_rejected(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text(f"# n=2 t_len=3\nt,i,x\n1,1,1\n\n{row}\n")
        with pytest.raises(ValueError, match="line 5"):
            load_trajectory(path)

    def test_trajectory_explicit_zero_rows_accepted(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# n=2 t_len=3\nt,i,x\n1,1,0\n3,2,1\n")
        assert load_trajectory(path).x.tolist() == [[0, 0, 0], [0, 0, 1]]

    @pytest.mark.parametrize("block", [1, 2, 1 << 16])
    @pytest.mark.parametrize("body, line", [
        ("1,1,1\n1,1,0\n2,1,1\n", 4),  # a cell set, then cleared
        ("1,1,1\n2,2,1\n1,1,1\n", 5),  # out of file order
        ("2,1,0\n1,2,1\n\n2,1,0\n3,2,1\n", 6),  # explicit zero rows count
    ], ids=["cleared", "unordered", "zero-rows"])
    def test_trajectory_repeated_cells_rejected(self, tmp_path, monkeypatch, block,
                                                body, line):
        monkeypatch.setattr(model, "_ROWS_PER_BLOCK", block)
        path = tmp_path / "traj.csv"
        path.write_text("# n=2 t_len=3\nt,i,x\n" + body)
        with pytest.raises(InputError, match=f"line {line}: .* repeats the cell"):
            load_trajectory(path)
        # The same rows without the repeat, in any order, load.
        rows = body.splitlines()
        del rows[line - 3]
        path.write_text("# n=2 t_len=3\nt,i,x\n" + "\n".join(rows[::-1]) + "\n")
        assert load_trajectory(path).x.sum() == sum(r.endswith(",1") for r in rows)

    @pytest.mark.parametrize("block", [2, 3, 1 << 16])
    def test_trajectory_file_bytes_match_reference(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(model, "_ROWS_PER_BLOCK", block)
        rng = np.random.default_rng(block)
        # (101, 12), (12, 1001) and (1000, 3) take t and i across the 9 -> 10,
        # 99 -> 100 and 999 -> 1000 digit widths; at n = 100,000 an "i,1\n"
        # field takes 9 bytes, past one 8-byte word.
        for shape, density in [((1, 1), 1.0), ((4, 3), 0.0), ((7, 13), 0.4),
                               ((30, 50), 0.9), ((101, 12), 0.5), ((12, 1001), 0.5),
                               ((1000, 3), 0.5), ((100_000, 3), 5e-4)]:
            x = (rng.random(shape) < density).astype(np.uint8)
            x[-1, -1] |= density > 0  # the widest t and i decimals are written
            traj = Trajectory(x)
            path = tmp_path / "traj.csv"
            save_trajectory(traj, path)
            assert path.read_text() == trajectory_csv_reference(traj.x)
            assert np.array_equal(load_trajectory(path).x, traj.x)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_trajectory_saves_its_headers(self, tmp_path, shape):
        path = tmp_path / "traj.csv"
        save_trajectory(Trajectory(np.zeros(shape, dtype=np.uint8)), path)
        assert path.read_text() == trajectory_csv_reference(np.zeros(shape))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 120), t_len=st.integers(1, 120),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([1, 3, 1 << 16]))
    def test_trajectory_file_round_trip_matches_references(self, tmp_path_factory,
                                                           n, t_len, density,
                                                           seed, block):
        x = (np.random.default_rng(seed).random((n, t_len)) < density).astype(np.uint8)
        path = tmp_path_factory.mktemp("traj") / "traj.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_ROWS_PER_BLOCK", block)
            save_trajectory(Trajectory(x), path)
            loaded = load_trajectory(path).x
        text = path.read_text()
        assert text == trajectory_csv_reference(x)
        assert np.array_equal(loaded, x)
        assert np.array_equal(loaded, trajectory_from_csv_reference(text))

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
    @pytest.mark.parametrize("eol, last", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")],
                             ids=["lf", "crlf", "no-final-newline"])
    @pytest.mark.parametrize("row, cell", [
        ("+1,1,1", (0, 0)), (" 1,1,1", (0, 0)), ("01,1,1", (0, 0)),
        ("1,1,1 ", (0, 0)), ("1, 2,1", (1, 0)), ("1,1,01", (0, 0)),
        ("1,1,+1", (0, 0)), ("1,1,1\t", (0, 0)), ("1,2,1", (1, 0)),
    ])
    def test_trajectory_lenient_rows_accepted(self, tmp_path, monkeypatch, block,
                                              eol, last, row, cell):
        # Each row sits among canonical rows: in one block, and at every
        # place relative to a block end as the block size varies.
        monkeypatch.setattr(model, "_ROWS_PER_BLOCK", block)
        # The last row is the lenient one again, moved to t = 12.
        rows = ["2,1,1", "10,2,1", row, "4,2,1", "11,1,1", row.replace("1", "12", 1)]
        path = tmp_path / "traj.csv"
        path.write_bytes(("# n=2 t_len=12" + eol + "t,i,x" + eol
                          + eol.join(rows) + last).encode("ascii"))
        expected = np.zeros((2, 12), dtype=np.uint8)
        expected[[0, 1, 1, 0], [1, 9, 3, 10]] = 1
        expected[cell] = 1
        expected[cell[0], 11] = 1
        assert np.array_equal(load_trajectory(path).x, expected)
        assert np.array_equal(expected, trajectory_from_csv_reference(
            path.read_text()))

    @pytest.mark.parametrize("row", ["1,1", "1,1,1,1", "a,1,1", "1,1,1.5", "1,,1",
                                     "# note", "1,1,0.9", "1.9,2,1", "1_0,1,1",
                                     "1,1_0,1", "0_2,1,1", "1,0_2,1", "2,1,0_1"])
    def test_trajectory_malformed_rows_rejected(self, tmp_path, row):
        # A float field such as "0.9" or "1.9" is rejected, never truncated,
        # and an underscore is no digit group, even where "0_2" would read 2.
        path = tmp_path / "traj.csv"
        path.write_text(f"# n=2 t_len=3\nt,i,x\n1,1,1\n \t\n{row}\n2,2,1\n")
        with pytest.raises(InputError, match="line 5"):
            load_trajectory(path)

    @pytest.mark.parametrize("header", ["t,i,x", "# n=2", "# n=2 t_len=x",
                                        "# n=2 t_len", "# n=0 t_len=3",
                                        "# n=0_2 t_len=3", "# n=2 t_len=0_3",
                                        "# n=2 t_len=3 n=2", "# n=+2 t_len=3",
                                        "# n=2 t_len=+3"])
    def test_trajectory_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "traj.csv"
        path.write_text(f"{header}\nt,i,x\n1,1,1\n")
        with pytest.raises(InputError):
            load_trajectory(path)

    @pytest.mark.parametrize("header", ["2 1 0.5", "a 1 0.5 0", "2 3 0.5 0",
                                        "0_2 1 0.5 0", "2 1 0_5 0", "2 1 0.5 1_0",
                                        "+2 1 0.5 0", "2 +1 0.5 0"])
    def test_environment_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "env.txt"
        path.write_text(f"{header}\n01\n10\n")
        with pytest.raises(InputError, match="bad environment header"):
            load_environment(path)

    @pytest.mark.parametrize("body, row", [
        ("0a\n10\n", 0), ("01\n1\n", 1), ("01\n", 1), ("01\n102\n", 1),
        ("2 1\n10\n", 0), ("01\n\n10\n", 1), ("01\n1/\n", 1),
    ])
    def test_environment_bad_rows_rejected(self, tmp_path, body, row):
        path = tmp_path / "env.txt"
        path.write_text("2 1 0.5 0\n" + body)
        with pytest.raises(InputError, match=f"^bad environment row {row} in "):
            load_environment(path)

    def test_environment_rows_keep_their_whitespace_tolerance(self, tmp_path):
        path = tmp_path / "env.txt"
        path.write_text("2 1 0.5 0\r\n 01\t\r\n10 \n\n \t\n")
        assert load_environment(path).theta.tolist() == [[0, 1], [1, 0]]
        path.write_text("2 1 0.5 0\n01\n10")
        assert load_environment(path).theta.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("tail, line", [("11\n", 4), ("\n \ngarbage\n", 6),
                                            ("01", 4), ("\n\t# note", 5)])
    def test_environment_content_after_last_row_rejected(self, tmp_path, tail, line):
        path = tmp_path / "env.txt"
        path.write_text("2 1 0.5 0\n01\n10\n" + tail)
        with pytest.raises(InputError, match=f"line {line}: .* follows environment row 1"):
            load_environment(path)

    def test_trajectory_rows_checked_in_every_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_ROWS_PER_BLOCK", 2)
        path = tmp_path / "traj.csv"
        body = "1,1,1\n\n\n\n2,2,1\n  \n3,1,0\n"
        path.write_text("# n=2 t_len=3\nt,i,x\n" + body)
        assert load_trajectory(path).x.tolist() == [[1, 0, 0], [0, 1, 0]]
        path.write_text("# n=2 t_len=3\nt,i,x\n" + body + "\n3,3,1\n")
        with pytest.raises(ValueError, match="line 11"):
            load_trajectory(path)
