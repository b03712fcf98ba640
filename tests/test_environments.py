import math

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import ActionSet, StreamFormatError, read_stream, write_stream
from budgetmax.environments import (C_MAX_LIMIT, EnvironmentSpec, Stream, check_constraints,
                                    generate, site_rewards)


def spec_for(kind, **kw):
    base = dict(kind=kind, n=6, T=40, seed=5)
    base.update(kw)
    return EnvironmentSpec(**base)


class TestSpecValidation:
    def test_all_violations_reported_at_once(self):
        spec = EnvironmentSpec(kind="nope", n=0, T=0, seed=-1, beta_max=2.0)
        with pytest.raises(ValueError) as err:
            spec.validate()
        msg = str(err.value)
        for fragment in ("unknown kind", "n must be", "T must be", "seed must be", "beta_max"):
            assert fragment in msg

    def test_shift_segments_capped_by_n(self):
        with pytest.raises(ValueError, match="shift_segments"):
            spec_for("random_adversarial", shift_segments=7).validate()

    def test_valid_spec_passes(self):
        spec_for("knapsack_01").validate()

    def test_bools_and_non_finite_numbers_rejected_together(self):
        inf, nan = float("inf"), float("nan")
        spec = spec_for("random_adversarial", n=True, T=False, seed=True, shift_segments=True,
                        r_max=inf, beta_max=True, c_max=-inf,
                        cost_range=(0.0, inf), value_range=(nan, 1.0))
        with pytest.raises(ValueError) as err:
            spec.validate()
        msg = str(err.value)
        for field in ("n", "T", "seed", "shift_segments", "r_max", "beta_max", "c_max",
                      "cost_range", "value_range"):
            assert f"; {field} must be" in msg or f": {field} must be" in msg
        for field in ("r_max", "c_max"):
            with pytest.raises(ValueError, match=f"{field} must be"):
                spec_for("random_adversarial", **{field: True}).validate()

    def test_c_max_limit_is_where_uniform_overflows(self):
        spec = spec_for("random_adversarial", c_max=C_MAX_LIMIT)
        spec.validate()
        generate(spec)
        above = math.nextafter(C_MAX_LIMIT, math.inf)
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-above, above)
        with pytest.raises(ValueError, match="c_max must be"):
            spec_for("random_adversarial", c_max=above).validate()


class TestGenerators:
    def test_facility_location_pattern(self):
        stream = generate(spec_for("facility_location"))
        assert np.all(stream.action_set.z == 0.0)
        assert np.all(stream.costs >= 0.0) and np.all(stream.costs <= 0.2)
        assert np.all(stream.rewards >= 0.0) and np.all(stream.rewards <= 1.0)
        assert stream.action_set.delta == 1.0  # all-zero energies

    def test_knapsack_median_pattern(self):
        stream = generate(spec_for("knapsack_median"))
        assert np.all(stream.costs == 0.0)
        assert np.all(stream.action_set.z > 0.0)
        assert np.all(stream.action_set.z <= 0.49)

    def test_knapsack_01_pattern(self):
        stream = generate(spec_for("knapsack_01"))
        assert np.all(stream.rewards == 0.0)
        assert np.all(stream.costs <= 0.0)

    def test_adversarial_bounds(self):
        stream = generate(spec_for("random_adversarial", r_max=2.0, c_max=0.7))
        assert np.all(stream.rewards <= 2.0) and np.all(stream.rewards >= 0.0)
        assert np.all(np.abs(stream.costs) <= 0.7)
        assert np.all(stream.action_set.z <= 0.49)

    def test_same_seed_reproduces_stream(self):
        a = generate(spec_for("random_adversarial", shift_segments=3))
        b = generate(spec_for("random_adversarial", shift_segments=3))
        npt.assert_array_equal(a.rewards, b.rewards)
        npt.assert_array_equal(a.costs, b.costs)
        npt.assert_array_equal(a.action_set.z, b.action_set.z)

    def test_coincident_user_earns_full_reward(self):
        sites = np.array([[0.25, 0.5], [0.9, 0.9]])
        users = np.array([[0.25, 0.5]])
        r = site_rewards(sites, users, r_max=1.0)
        assert r[0, 0] == 1.0
        assert r[0, 1] < 1.0

    def test_reward_clips_at_zero_far_away(self):
        r = site_rewards(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), r_max=0.5)
        assert r[0, 0] == 0.0

    def test_shift_schedule_changes_favored_action(self):
        spec = spec_for("random_adversarial", n=8, T=200, shift_segments=2)
        stream = generate(spec)
        halves = [stream.rewards[:100].sum(axis=0), stream.rewards[100:].sum(axis=0)]
        assert int(np.argmax(halves[0])) != int(np.argmax(halves[1]))

    def test_check_constraints_catches_mismatch(self):
        stream = generate(spec_for("knapsack_median"))
        bad = Stream(stream.action_set, stream.rewards, stream.costs + 0.5)
        with pytest.raises(ValueError, match="costs must all be zero"):
            check_constraints(bad, spec_for("knapsack_median"))

    def test_r_hat_c_hat(self):
        stream = generate(spec_for("random_adversarial"))
        assert stream.r_hat == float(stream.rewards.max())
        assert stream.c_hat == float(np.abs(stream.costs).max())


class TestStreamChecks:
    """A Stream checks its matrices once, when built, and names the first bad trial."""

    def make(self, rewards, costs, z=(0.25, 0.1)):
        return Stream(ActionSet.from_energies(list(z)), rewards, costs)

    @pytest.mark.parametrize("where", ["rewards", "costs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_trial(self, where, value):
        rewards, costs = np.ones((5, 2)), np.zeros((5, 2))
        (rewards if where == "rewards" else costs)[2, 1] = value
        with pytest.raises(ValueError, match="^trial 3: rewards and costs must be finite$"):
            self.make(rewards, costs)

    def test_negative_reward_names_trial(self):
        rewards = np.ones((4, 2))
        rewards[1, 0] = -0.1
        with pytest.raises(ValueError, match="^trial 2: negative reward$"):
            self.make(rewards, np.zeros((4, 2)))

    def test_first_bad_row_is_named(self):
        rewards, costs = np.ones((6, 2)), np.zeros((6, 2))
        rewards[4, 1] = -1.0
        costs[3, 0] = np.nan
        rewards[5, 0] = np.inf
        with pytest.raises(ValueError, match="^trial 4: rewards and costs must be finite$"):
            self.make(rewards, costs)

    def test_width_mismatch_names_trial(self):
        with pytest.raises(ValueError, match="^trial 1: 3 rewards and costs, expected 2$"):
            self.make(np.ones((4, 3)), np.zeros((4, 3)))

    def test_rewards_costs_shape_mismatch_rejected(self):
        for rewards, costs in ((np.ones((4, 2)), np.zeros((3, 2))),
                               (np.ones(2), np.zeros(2)),
                               (np.ones((1, 4, 2)), np.zeros((1, 4, 2)))):
            with pytest.raises(ValueError, match="matrices of one shape"):
                self.make(rewards, costs)

    def test_good_streams_pass_unchanged(self):
        # -0.0 is a non-negative reward; float64 input is kept, not copied
        rewards = np.array([[-0.0, 2.0], [0.0, 0.5]])
        costs = np.array([[-3.0, 1e308], [0.0, -0.0]])
        stream = self.make(rewards, costs)
        assert stream.rewards is rewards and stream.costs is costs
        empty = self.make(np.zeros((0, 2)), np.zeros((0, 2)))
        assert empty.T == 0 and empty.r_hat == 0.0 and empty.c_hat == 0.0

    def test_c_hat_matches_absolute_maximum(self):
        rng = np.random.default_rng(17)
        for lo, hi in ((-3.0, 1.0), (-1.0, 3.0), (0.0, 0.0), (-2.0, -1.0)):
            costs = rng.uniform(lo, hi, (7, 2))
            stream = self.make(np.zeros((7, 2)), costs)
            assert stream.c_hat == float(np.max(np.abs(costs)))
        all_negative_zero = self.make(np.zeros((2, 2)), np.full((2, 2), -0.0))
        assert all_negative_zero.c_hat == 0.0
        assert not np.signbit(all_negative_zero.c_hat)


class TestStreamFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        stream = generate(spec_for("random_adversarial", n=5, T=25, shift_segments=2))
        path = tmp_path / "stream.csv"
        write_stream(stream, path)
        back = read_stream(path)
        npt.assert_array_equal(back.rewards, stream.rewards)
        npt.assert_array_equal(back.costs, stream.costs)
        npt.assert_array_equal(back.action_set.z, stream.action_set.z)

    def test_write_matches_per_value_formatting(self, tmp_path):
        # every float as format(x, ".17g"), including signed zero, the
        # smallest subnormal, huge values and ones with no short repr
        special = [-0.0, 5e-324, 1e308, 0.1, float(np.nextafter(1.0, 2.0)), 0.0, 1.0, 2.5e-310]
        rng = np.random.default_rng(3)
        n, T = 4, 6
        rewards = np.abs(rng.choice(special + list(rng.uniform(0.0, 3.0, 8)), (T, n)))
        rewards[0, 0] = -0.0
        costs = rng.choice([-x for x in special] + special, (T, n))
        z = np.array([0.0, 5e-324, 0.1, float(np.nextafter(0.3, 1.0))])
        stream = Stream(ActionSet.from_energies(z), rewards, costs)
        path = tmp_path / "stream.csv"
        write_stream(stream, path)
        fmt = lambda values: [format(float(v), ".17g") for v in values]
        expect = [",".join([str(n), str(T)] + fmt(z))]
        expect += [",".join([str(t + 1)] + fmt(rewards[t]) + fmt(costs[t])) for t in range(T)]
        assert path.read_text(encoding="ascii") == "\n".join(expect) + "\n"
        assert "-0" in path.read_text(encoding="ascii").splitlines()[1].split(",")
        back = read_stream(path)
        for got, want in ((back.rewards, rewards), (back.costs, costs), (back.action_set.z, z)):
            npt.assert_array_equal(got, want)
            npt.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_preamble_shape(self, tmp_path):
        stream = generate(spec_for("knapsack_01", n=3, T=2))
        path = tmp_path / "s.csv"
        write_stream(stream, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        head = lines[0].split(",")
        assert head[:2] == ["3", "2"]
        assert len(head) == 5
        assert lines[1].split(",")[0] == "1"
        assert len(lines[1].split(",")) == 7

    def test_truncated_file_reports_line(self, tmp_path):
        stream = generate(spec_for("knapsack_01", n=3, T=4))
        path = tmp_path / "s.csv"
        write_stream(stream, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(StreamFormatError, match="line 4"):
            read_stream(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2,0.25\n1,0.5,oops\n2,0.5,0.1\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(path)

    def test_wrong_trial_index_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2,0.25\n1,0.5,0.0\n3,0.5,0.1\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            read_stream(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("2,1,0.25,0.1\n1,0.5,0.2,0.0\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(path)

    def test_negative_reward_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,1,0.25\n1,-0.5,0.0\n")
        with pytest.raises(StreamFormatError, match="negative reward"):
            read_stream(path)

    @pytest.mark.parametrize("row", ["2,nan,0.0", "2,0.5,inf", "2,0.5,-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"1,2,0.25\n1,0.5,0.0\n{row}\n")
        with pytest.raises(StreamFormatError, match="line 3: rewards and costs must be finite"):
            read_stream(path)

    def test_invalid_energy_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,1,1.5\n1,0.5,0.0\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(path)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,1,0.25\n1,0.5,0.0\n1,0.5,0.0\n")
        with pytest.raises(StreamFormatError, match="trailing"):
            read_stream(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(path)
