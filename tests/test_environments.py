import math
import os
import shutil
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import ActionSet, KINDS, StreamFormatError, environments, read_stream, write_stream
from budgetmax.environments import (BLOCK_ENTRIES, C_MAX_LIMIT, EnvironmentSpec, Stream, check_block,
                                    generate, site_rewards, write_rows)
from conftest import stacked


def spec_for(kind, **kw):
    base = dict(kind=kind, n=6, T=40, seed=5)
    base.update(kw)
    return EnvironmentSpec(**base)


def drawn_in_turn(spec):
    """``(z, rewards, costs)`` as one ``default_rng(seed)`` draws every matrix in turn.

    The offsets of the module docstring's table are where each draw starts here.
    """
    rng = np.random.default_rng(spec.seed)
    n, T = spec.n, spec.T
    if spec.kind == "facility_location":
        z = np.zeros(n)
        rewards = site_rewards(rng.random((n, 2)), rng.random((T, 2)), spec.r_max)
        costs = rng.uniform(*spec.cost_range, size=(T, n))
    elif spec.kind == "knapsack_median":
        z = spec.beta_max * (1.0 - rng.random(n))
        rewards = site_rewards(rng.random((n, 2)), rng.random((T, 2)), spec.r_max)
        costs = np.zeros((T, n))
    elif spec.kind == "knapsack_01":
        z = spec.beta_max * (1.0 - rng.random(n))
        rewards, costs = np.zeros((T, n)), -rng.uniform(*spec.value_range, size=(T, n))
    else:
        z = rng.uniform(0.0, spec.beta_max, n)
        costs = rng.uniform(-spec.c_max, spec.c_max, size=(T, n))
        k = spec.shift_segments
        if k >= 2:
            rewards = rng.uniform(0.0, 0.5 * spec.r_max, size=(T, n))
            favored = rng.permutation(n)[:k]
            segment = np.minimum((np.arange(T) * k) // T, k - 1)
            rewards[np.arange(T), favored[segment]] = rng.uniform(0.75 * spec.r_max, spec.r_max, T)
        else:
            rewards = rng.uniform(0.0, spec.r_max, size=(T, n))
    return z, rewards, costs


class TestSpecValidation:
    def test_all_violations_reported_at_once(self):
        with pytest.raises(ValueError) as err:
            EnvironmentSpec(kind="nope", n=0, T=0, seed=-1, beta_max=2.0)
        msg = str(err.value)
        for fragment in ("unknown kind", "n must be", "T must be", "seed must be", "beta_max"):
            assert fragment in msg

    def test_shift_segments_capped_by_n(self):
        with pytest.raises(ValueError, match="shift_segments"):
            spec_for("random_adversarial", shift_segments=7)

    def test_valid_spec_passes(self):
        spec_for("knapsack_01")

    def test_bools_and_non_finite_numbers_rejected_together(self):
        inf, nan = float("inf"), float("nan")
        with pytest.raises(ValueError) as err:
            spec_for("random_adversarial", n=True, T=False, seed=True, shift_segments=True,
                     r_max=inf, beta_max=True, c_max=-inf,
                     cost_range=(0.0, inf), value_range=(nan, 1.0))
        msg = str(err.value)
        for field in ("n", "T", "seed", "shift_segments", "r_max", "beta_max", "c_max",
                      "cost_range", "value_range"):
            assert f"; {field} must be" in msg or f": {field} must be" in msg
        for field in ("r_max", "c_max"):
            with pytest.raises(ValueError, match=f"{field} must be"):
                spec_for("random_adversarial", **{field: True})

    def test_c_max_limit_is_where_uniform_overflows(self):
        stacked(generate(spec_for("random_adversarial", c_max=C_MAX_LIMIT)))
        above = math.nextafter(C_MAX_LIMIT, math.inf)
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-above, above)
        with pytest.raises(ValueError, match="c_max must be"):
            spec_for("random_adversarial", c_max=above)


class TestGenerators:
    def test_facility_location_pattern(self):
        stream = generate(spec_for("facility_location"))
        rewards, costs = stacked(stream)
        assert np.all(stream.action_set.z == 0.0)
        assert np.all(costs >= 0.0) and np.all(costs <= 0.2)
        assert np.all(rewards >= 0.0) and np.all(rewards <= 1.0)
        assert stream.action_set.delta == 1.0  # all-zero energies

    def test_knapsack_median_pattern(self):
        stream = generate(spec_for("knapsack_median"))
        assert np.all(stacked(stream)[1] == 0.0)
        assert np.all(stream.action_set.z > 0.0)
        assert np.all(stream.action_set.z <= 0.49)

    def test_knapsack_01_pattern(self):
        rewards, costs = stacked(generate(spec_for("knapsack_01")))
        assert np.all(rewards == 0.0)
        assert np.all(costs <= 0.0)

    def test_adversarial_bounds(self):
        stream = generate(spec_for("random_adversarial", r_max=2.0, c_max=0.7))
        rewards, costs = stacked(stream)
        assert np.all(rewards <= 2.0) and np.all(rewards >= 0.0)
        assert np.all(np.abs(costs) <= 0.7)
        assert np.all(stream.action_set.z <= 0.49)

    def test_same_seed_reproduces_stream(self):
        a = generate(spec_for("random_adversarial", shift_segments=3))
        b = generate(spec_for("random_adversarial", shift_segments=3))
        for got, want in zip(stacked(a), stacked(b)):
            npt.assert_array_equal(got, want)
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
        rewards, _ = stacked(generate(spec))
        halves = [rewards[:100].sum(axis=0), rewards[100:].sum(axis=0)]
        assert int(np.argmax(halves[0])) != int(np.argmax(halves[1]))

    # n = 6 with 48 block entries generates 8 rows per block: T = 40 is five
    # full blocks, T = 43 ends on a short one; n > BLOCK_ENTRIES is one row
    # per block at either setting
    @pytest.mark.parametrize("block_entries", [BLOCK_ENTRIES, 48])
    @pytest.mark.parametrize("spec", [
        *(spec_for(kind) for kind in KINDS),
        *(spec_for(kind, T=43) for kind in KINDS),
        *(spec_for(kind, T=1) for kind in KINDS),
        spec_for("random_adversarial", T=43, shift_segments=5),
        spec_for("random_adversarial", T=1, shift_segments=2),
        spec_for("random_adversarial", n=BLOCK_ENTRIES + 3, T=3, shift_segments=2),
        spec_for("facility_location", n=BLOCK_ENTRIES + 3, T=3),
        spec_for("random_adversarial", c_max=0.0, r_max=0.0),
        spec_for("facility_location", r_max=0.0, cost_range=(0.3, 0.3)),
        spec_for("knapsack_median", r_max=0.0),
        spec_for("knapsack_01", value_range=(0.5, 0.5)),
    ], ids=repr)
    def test_blocks_stack_to_one_generator_drawing_in_turn(self, spec, block_entries,
                                                           monkeypatch):
        monkeypatch.setattr(environments, "BLOCK_ENTRIES", block_entries)
        z, rewards, costs = drawn_in_turn(spec)
        stream = generate(spec)
        assert stream.action_set.z.tobytes() == z.tobytes()
        rows = max(1, block_entries // spec.n)
        for _ in range(2):  # each read of a block draws it again, to the same values
            blocks = list(stream.blocks())
            assert [start for start, _, _ in blocks] == list(range(0, spec.T, rows))
            assert [len(r) for _, r, _ in blocks] == [min(rows, spec.T - start)
                                                      for start in range(0, spec.T, rows)]
            assert all(r.shape == c.shape for _, r, c in blocks)
            assert np.concatenate([r for _, r, _ in blocks]).tobytes() == rewards.tobytes()
            assert np.concatenate([c for _, _, c in blocks]).tobytes() == costs.tobytes()
            for _, r, c in blocks:
                check_block(stream.action_set, r, c, spec)

    def test_invalid_spec_is_refused_when_built(self):
        with pytest.raises(ValueError, match="invalid environment spec"):
            spec_for("knapsack_01", T=0)

    def test_whole_stream_check_catches_mismatch(self):
        stream = generate(spec_for("knapsack_median"))
        rewards, costs = stacked(stream)
        with pytest.raises(ValueError, match="costs must all be zero"):
            check_block(stream.action_set, rewards, costs + 0.5, spec_for("knapsack_median"))

    @pytest.mark.parametrize("kind, where, value, message", [
        ("facility_location", "z", 0.1, "energies must all be zero"),
        ("facility_location", "costs", -1e-9, "costs must be non-negative"),
        ("facility_location", "rewards", 1.5, "rewards exceed r_max"),
        ("knapsack_median", "costs", 0.5, "costs must all be zero"),
        ("knapsack_median", "costs", -0.5, "costs must all be zero"),
        ("knapsack_median", "z", 0.0, "energies must lie in (0, beta_max]"),
        ("knapsack_median", "z", 0.5, "energies must lie in (0, beta_max]"),
        ("knapsack_01", "rewards", 0.25, "rewards must all be zero"),
        ("knapsack_01", "costs", 1e-9, "costs must be non-positive"),
        ("knapsack_01", "z", 0.0, "energies must lie in (0, beta_max]"),
        ("knapsack_01", "z", 0.5, "energies must lie in (0, beta_max]"),
        ("random_adversarial", "rewards", 1.5, "rewards exceed r_max"),
        ("random_adversarial", "costs", 1.5, "costs exceed c_max in magnitude"),
        ("random_adversarial", "costs", -1.5, "costs exceed c_max in magnitude"),
        ("random_adversarial", "z", 0.5, "energies exceed beta_max"),
    ])
    def test_check_block_names_each_broken_rule(self, kind, where, value, message):
        spec = spec_for(kind)
        stream = generate(spec)
        rewards, costs = stacked(stream)
        check_block(stream.action_set, rewards, costs, spec)
        z = stream.action_set.z.copy()
        if where == "z":
            z[2] = value
        else:
            {"rewards": rewards, "costs": costs}[where][17, 3] = value
        action_set = ActionSet.from_energies(z)
        # the whole stream, and a block holding the broken row, break the same rule
        for lo, hi in ((0, spec.T), (16, 24)):
            with pytest.raises(ValueError) as info:
                check_block(action_set, rewards[lo:hi], costs[lo:hi], spec)
            assert str(info.value) == f"{kind} constraints violated: {message}"
        if where != "z":
            check_block(action_set, rewards[24:], costs[24:], spec)

    def test_generated_rows_keep_every_rule_at_the_edges_of_a_spec(self, monkeypatch):
        # a run checks a generated stream by its energies alone (no rows), so
        # at every valid spec each generated block must pass the Stream's row
        # check and its kind's rules; only energies that underflow can fail
        monkeypatch.setattr(environments, "BLOCK_ENTRIES", 48)
        rng = np.random.default_rng(26)
        tiny, big = 5e-324, float(np.finfo(float).max)
        edges = (0.0, tiny, 1.0, 1e300, big)

        def pick(values, size=None):
            return rng.choice(np.array(values), size).tolist()

        def verdict(action_set, rewards, costs, spec):
            try:
                check_block(action_set, rewards, costs, spec)
            except ValueError as exc:
                return str(exc)
            return None

        failed = set()
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            spec = EnvironmentSpec(
                kind=pick(KINDS), n=n, T=int(rng.integers(1, 30)), seed=int(rng.integers(2**32)),
                r_max=pick(edges), cost_range=tuple(sorted(pick(edges, 2))),
                value_range=tuple(sorted(pick(edges, 2))),
                c_max=pick((0.0, tiny, 1.0, C_MAX_LIMIT)),
                beta_max=pick((tiny, 1e-320, 1e-310, 0.49, 1.0)),
                shift_segments=int(rng.integers(0, min(n, 4) + 1)))
            stream = generate(spec)
            energies = verdict(stream.action_set, *stream.extremes(), spec)
            if energies is not None:
                assert energies == f"{spec.kind} constraints violated: energies must lie in (0, beta_max]"
                failed.add(spec.kind)
            for _, rewards, costs in stream.blocks():
                assert environments._first_bad_trial(rewards, costs, n) is None
                assert verdict(stream.action_set, rewards, costs, spec) == energies
        assert failed == {"knapsack_median", "knapsack_01"}


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
        # no trial: a file written from it would be one no reader accepts
        with pytest.raises(ValueError, match=r"with T >= 1, got \(0, 2\) and \(0, 2\)$"):
            self.make(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_nested_lists_are_cast_and_checked(self):
        stream = Stream(ActionSet.from_energies([0.25]), [[0.5]], [[0.1]])
        assert (stream.T, stream.n) == (1, 1) and stream.rewards.dtype == stream.costs.dtype == float
        with pytest.raises(ValueError, match="^trial 2: negative reward$"):
            self.make([[0.5, 1.0], [0.5, -1.0]], [[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(ValueError):  # ragged rows
            self.make([[0.5, 1.0], [0.5]], [[0.1, 0.2], [0.1, 0.2]])

    def test_good_streams_pass_unchanged(self):
        # -0.0 is a non-negative reward; float64 input is kept, not copied
        rewards = np.array([[-0.0, 2.0], [0.0, 0.5]])
        costs = np.array([[-3.0, 1e308], [0.0, -0.0]])
        stream = self.make(rewards, costs)
        assert stream.rewards is rewards and stream.costs is costs

    def test_blocks_are_row_slices(self):
        generated = generate(spec_for("random_adversarial", n=BLOCK_ENTRIES // 5, T=12))
        stream = Stream(generated.action_set, *stacked(generated))
        blocks = list(stream.blocks())
        assert [start for start, _, _ in blocks] == [0, 5, 10]
        assert [len(r) for _, r, _ in blocks] == [5, 5, 2]
        for start, r, c in blocks:
            assert np.shares_memory(r, stream.rewards) and np.shares_memory(c, stream.costs)
            npt.assert_array_equal(r, stream.rewards[start:start + 5])
            npt.assert_array_equal(c, stream.costs[start:start + 5])


class TestStreamFiles:
    def test_preamble_trials_beyond_the_file_name_the_first_missing_line(self, tmp_path):
        # T is sized by the file's lines, so a T no array can hold still fails at its line
        path = tmp_path / "stream.csv"
        path.write_text("1," + "9" * 400 + ",0.25\n")
        with pytest.raises(StreamFormatError, match=r"^line 2: expected trial 1, found end of file$"):
            read_stream(path)
        path.write_text("1," + "9" * 400 + ",0.25\r\n1,0.5,0.1\r\n")
        with pytest.raises(StreamFormatError, match=r"^line 3: expected trial 2, found end of file$"):
            read_stream(path)
        # trailing blank lines where trials belong are named as blank, not as the end
        path.write_text("1," + "9" * 400 + ",0.25\n1,0.5,0.1\n\n\n")
        with pytest.raises(StreamFormatError, match=r"^line 3: expected trial 2, found a blank line$"):
            read_stream(path)
        path.write_text("1,3,0.25\n1,0.5,0.1\x1c2,0.5,0.1\v3,0.5,0.1")
        npt.assert_array_equal(stacked(read_stream(path))[0], [[0.5]] * 3)
        # the shortest lines that parse fill the bound exactly
        path.write_text("1,2,0\n1,1,1\n2,1,1")
        npt.assert_array_equal(stacked(read_stream(path))[1], [[1.0], [1.0]])

    def test_round_trip_is_bit_exact(self, tmp_path):
        stream = generate(spec_for("random_adversarial", n=5, T=25, shift_segments=2))
        path = tmp_path / "stream.csv"
        write_stream(stream, path)
        back = read_stream(path)
        for got, want in zip(stacked(back), stacked(stream)):
            npt.assert_array_equal(got, want)
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
        for got, want in zip((*stacked(back), back.action_set.z), (rewards, costs, z)):
            npt.assert_array_equal(got, want)
            npt.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_rows_appended_block_by_block_match_write_stream(self, tmp_path):
        stream = generate(spec_for("facility_location", n=7, T=30))
        whole, parts = tmp_path / "whole.csv", tmp_path / "parts.csv"
        write_stream(stream, whole)
        with open(parts, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(["7", "30"] + ["0"] * 7) + "\n")  # facility_location's zero energies
        rewards, costs = stacked(stream)
        for start, stop in ((0, 3), (3, 4), (4, 30)):
            with open(parts, "a", encoding="ascii", newline="\n") as fh:
                write_rows(fh, rewards[start:stop], costs[start:stop], start)
        assert parts.read_bytes() == whole.read_bytes()

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

    def test_earlier_bad_value_beats_later_structural_fault(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,5,0.25\n1,0.5,0.0\n2,0.5,oops\n3,0.5,0.1\n4,0.5\n5,0.5,0.1\n")
        with pytest.raises(StreamFormatError, match="line 3: bad reward/cost"):
            read_stream(path)

    def test_field_count_beats_a_bad_value_on_the_same_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,3,0.25\n1,0.5,0.0\n2,oops,0.1,7\n3,0.5,0.1\n")
        with pytest.raises(StreamFormatError,
                           match=r"^line 3: expected 3 fields \(t, 1 rewards, 1 costs\), got 4$"):
            read_stream(path)

    def test_wrong_trial_tag_beats_a_later_bad_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,4,0.25\n1,0.5,0.0\n7,0.5,0.1\n3,oops,0.1\n4,0.5,0.1\n")
        with pytest.raises(StreamFormatError, match="^line 3: expected trial 2, got 7$"):
            read_stream(path)

    def test_bad_value_in_a_later_block_names_its_line(self, tmp_path):
        n = 100
        rows = BLOCK_ENTRIES // n  # trial lines per block
        stream = generate(spec_for("facility_location", n=n, T=2 * rows + 3))
        path = tmp_path / "s.csv"
        write_stream(stream, path)
        lines = path.read_text().splitlines()
        for t in (rows + 5, rows + 9):  # two bad trials in the second block
            fields = lines[t].split(",")
            fields[n + 3] = "1.0.0"
            lines[t] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError, match=f"^line {rows + 6}: bad reward/cost: "
                                                    "could not convert string to float: '1.0.0'$"):
            read_stream(path)

    @pytest.mark.parametrize("text", ["1_000", "0x10", "1e500", "nan", " 0.5\t", "1__0", "+.5",
                                      "5.", "-0", "1e-400", "Infinity", "", "0.1 0.2"])
    def test_values_parse_as_python_float(self, tmp_path, text):
        # a value is accepted or rejected as float() accepts or rejects it
        path = tmp_path / "s.csv"
        path.write_text(f"1,2,0.25\n1,0.5,{text}\n2,0.5,0.1\n")
        try:
            value = float(text)
        except ValueError as exc:
            with pytest.raises(StreamFormatError, match=f"^line 2: bad reward/cost: {exc}$"):
                read_stream(path)
            return
        if not math.isfinite(value):
            with pytest.raises(StreamFormatError, match="^line 2: rewards and costs must be finite$"):
                read_stream(path)
            return
        got = stacked(read_stream(path))[1][0, 0]
        assert got == value and np.signbit(got) == np.signbit(value)

    @pytest.mark.parametrize("text, message", [
        ("2,1,x,y\n", "line 1: bad energy"),
        ("2,1,0.25,0.5\n1,x,y,0,0\n", "line 2: bad reward/cost"),
    ])
    def test_first_bad_field_is_named(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(StreamFormatError,
                           match=f"^{message}: could not convert string to float: 'x'$"):
            read_stream(path)

    def test_lines_end_as_splitlines_ends_them(self, tmp_path):
        # \r\n is one line end; \r, \v, \f and \x1c-\x1e end a line too
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,4,0.25\r\n1,0.5,0.1\r2,0.5,0.2\x0b3,0.5,0.3\x1e4,0.5,0.4\r\n\x0c\n")
        npt.assert_array_equal(stacked(read_stream(path))[1][:, 0], [0.1, 0.2, 0.3, 0.4])
        # \r, then \r\n: line 2 is blank, not the end of the file; so is a
        # blank or whitespace-only line with trials after it
        for data in (b"1,1,0.25\r\r\n1,0.5,0.1\n", b"1,2,0.25\n\n1,0.5,0.1\n2,0.5,0.2\n",
                     b"1,2,0.25\n \t\n1,0.5,0.1\n2,0.5,0.2\n"):
            path.write_bytes(data)
            with pytest.raises(StreamFormatError,
                               match="^line 2: expected trial 1, found a blank line$"):
                read_stream(path)

    def test_non_ascii_byte_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes("1,1,0.25\n1,0.5,0.1é\n".encode("utf-8"))
        with pytest.raises(StreamFormatError, match="^line 2: non-ASCII byte 0xc3$"):
            read_stream(path)

    @pytest.mark.parametrize("data", [
        b"1,4,0.25\n1,0.5\n2,0.5,0.2\n3,0.5,0.3\n4,0.5,\xff0.4\n",
        b"1,4,0.25\n1,0.5\r2,0.5,\xff0.2\n3,0.5,0.3\n4,0.5,0.4\n",  # one \n-terminated read
    ])
    def test_earlier_structural_fault_beats_a_later_non_ascii_byte(self, tmp_path, data):
        # faults are reported in line order, a non-ASCII byte like any other
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(StreamFormatError, match="^line 2: expected 3 fields .*, got 2$"):
            read_stream(path)

    def test_non_ascii_byte_beats_faults_on_its_line_and_after(self, tmp_path):
        # its own line has too few fields, a later line a bad tag, and trial 4
        # a negative reward, which is found only after the parse
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,4,0.25\n1,0.5,0.1\r2,\xff0.2\n9,0.5,0.3\n4,-0.5,0.4\n")
        with pytest.raises(StreamFormatError, match="^line 3: non-ASCII byte 0xff$"):
            read_stream(path)

    @pytest.mark.parametrize("chunk", [2, 3, 5, 64])
    def test_non_ascii_line_is_counted_across_read_buffers(self, tmp_path, monkeypatch, chunk):
        # every line end splitlines knows, a \r\n split by a buffer boundary at
        # some offset, and the bad byte at every offset of the file; the blank
        # and exotic line ends follow the last trial, where blank lines are legal
        monkeypatch.setattr(environments, "READ_BUFFER", chunk)
        path = tmp_path / "s.csv"
        text = b"1,3,0.25\r\n1,0.5,0.1\r2,0.5,0.2\r\n3,0.5,0.3\r\n\r\n\x0b\x0c\x1c\x1d\x1e\n"
        for at in range(len(text) + 1):
            data = text[:at] + b"\xe9" + text[at:]
            path.write_bytes(data)
            line = len((data[:at] + b".").decode("ascii").splitlines())
            with pytest.raises(StreamFormatError, match=f"^line {line}: non-ASCII byte 0xe9$"):
                read_stream(path)

    def test_replay_saves_exactly_the_bytes_of_the_file_it_parsed(self, tmp_path):
        path = tmp_path / "s.csv"
        data = b"2,2,0.25,0.5\r\n1,0.5,0.1,-0.5,0\r\n2,1,0,0,-1e-3\r\n\r\n"
        path.write_bytes(data)
        stream = read_stream(path)
        assert stream.source.path == str(path)
        stream.source.copy_to(tmp_path / "saved.csv")
        assert (tmp_path / "saved.csv").read_bytes() == data
        write_stream(stream, tmp_path / "written.csv")  # copied, not re-rendered
        assert (tmp_path / "written.csv").read_bytes() == data
        assert generate(spec_for("knapsack_01", n=2, T=2)).source is None

    @pytest.mark.parametrize("change", ["append", "rewrite"])
    def test_a_file_changed_after_it_was_read_is_not_copied(self, tmp_path, change):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,2,0.25\n1,0.5,0.1\n2,0.5,0.2\n")
        stream = read_stream(path)
        if change == "append":
            with open(path, "ab") as fh:
                fh.write(b"\n")
        else:  # same size, another mtime
            path.write_bytes(b"1,2,0.25\n1,0.5,0.1\n2,0.5,0.3\n")
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns, stream.source.identity[3] + 10**9))
        with pytest.raises(OSError, match=f"^stream file {path} changed after it was read$"):
            stream.source.copy_to(tmp_path / "saved.csv")
        with pytest.raises(OSError, match=f"^stream file {path} changed after it was read$"):
            write_stream(stream, tmp_path / "saved.csv")
        assert not (tmp_path / "saved.csv").exists()

    def test_a_file_changed_during_the_copy_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,2,0.25\n1,0.5,0.1\n2,0.5,0.2\n")
        stream = read_stream(path)
        real = shutil.copyfile

        def copy_then_append(src, dst):
            real(src, dst)
            with open(src, "ab") as fh:
                fh.write(b"\n")

        monkeypatch.setattr(shutil, "copyfile", copy_then_append)
        with pytest.raises(OSError, match=f"^stream file {path} changed after it was read$"):
            stream.source.copy_to(tmp_path / "saved.csv")

    @pytest.mark.parametrize("target", [os.devnull, "directory"])
    def test_a_path_that_is_not_a_regular_file_is_refused(self, tmp_path, target):
        path = str(tmp_path) if target == "directory" else target
        with pytest.raises(StreamFormatError, match=f"^{path}: not a regular file$"):
            read_stream(path)

    def test_read_and_write_hold_no_copy_of_the_text(self, tmp_path):
        # about 4 MB of text, cut 81 trials to a block at n = 200: reading
        # holds under twice one block's arrays and text, writing under 2 MB
        n, T = 200, 500
        generated = generate(spec_for("random_adversarial", n=n, T=T))
        stream, path = Stream(generated.action_set, *stacked(generated)), tmp_path / "s.csv"
        tracemalloc.start()
        try:
            write_stream(stream, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            back = read_stream(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        back.close()
        _, rows = next(environments._block_rows(n, T))
        block = rows * 2 * n * 8 + path.stat().st_size * rows / T
        assert path.stat().st_size > 4_000_000
        assert write_peak < 2_000_000
        assert read_peak - start < 2 * block

    def test_a_replayed_stream_is_written_a_block_at_a_time(self, tmp_path):
        # n = 100, T = 3000: the (T, n) rewards and costs take 2.4 MB each.
        # Reading spools the rows and writing reads them back a block at a
        # time, so the two hold under half of those matrices between them
        path, copy = tmp_path / "s.csv", tmp_path / "copy.csv"
        write_stream(generate(spec_for("random_adversarial", n=100, T=3000)), path)
        tracemalloc.start()
        try:
            stream = read_stream(path)
            write_stream(stream, copy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stream.close()
        assert peak < 3000 * 100 * 8
        assert copy.read_bytes() == path.read_bytes()


def read_outcome(path):
    """What ``read_stream`` makes of a file: its arrays' bytes, or its error's type and message."""
    try:
        stream = read_stream(path)
    except ValueError as exc:  # StreamFormatError among them
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (stream.action_set.z, *stacked(stream)))


def per_line_outcome(path, monkeypatch):
    """:func:`read_outcome` with every block cast refused, so each line is read on its own."""
    def refuse(*args, **kwargs):
        raise ValueError("block cast refused")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", refuse)
        return read_outcome(path)


def mutate(rng, data: bytes) -> bytes:
    """``data`` with one seeded edit of a value, a tag, a line, a byte or the line ends."""
    lines = data.split(b"\n")
    k = int(rng.integers(len(lines)))
    fields = lines[k].split(b",")
    kind = int(rng.integers(8))
    if kind == 0 and len(fields) > 1:  # a value spelled another way, or not a value
        fields[int(rng.integers(1, len(fields)))] = bytes(rng.choice(
            [b"1_000", b"+.5", b"5.", b"-0", b"1e-400", b"1e500", b"nan", b"-inf", b" 0.5",
             b"0.5\t", b"0x10", b"", b"0.1 0.2", b"00.25", b"-1", b"Infinity", b"1__0", b"\x1f1"]))
    elif kind == 1:  # a tag spelled another way, or another tag
        tag = fields[0]
        fields[0] = bytes(rng.choice([b"+" + tag, b"0" + tag, b" " + tag, tag + b" ", tag + b".0",
                                      b"x", b"", b"%d" % (k + 1), b"%d" % (k - 2)]))
    elif kind == 2 and len(fields) > 1:  # a field dropped
        del fields[int(rng.integers(len(fields)))]
    lines[k] = b",".join(fields)
    if kind == 3:  # a line dropped, duplicated, blank or of spaces
        lines[k:k + 1] = [[], [lines[k]] * 2, [lines[k], b""], [b" \t", lines[k]]][int(rng.integers(4))]
    data = b"\n".join(lines)
    at = int(rng.integers(len(data) + 1))
    if kind == 4:
        data = data[:at] + bytes(rng.choice([b"\xe9", b"\x1f", b"\r", b"\x1c", b",", b"\x0c"])) + data[at:]
    elif kind == 5:
        data = data[:at]
    elif kind == 6:
        data = data.replace(b"\n", b"\r\n")
    return data


class TestBlockReads:
    """Trial lines are read a block at a time and cast in one ``np.loadtxt`` call when canonical."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 4 lines per block at n = 2, so a small file spans several blocks
        monkeypatch.setattr(environments, "BLOCK_ENTRIES", 8)
        return 4

    def blocks_file(self, tmp_path, n, T):
        generated = generate(spec_for("random_adversarial", n=n, T=T, seed=2))
        stream = Stream(generated.action_set, *stacked(generated))
        path = tmp_path / "s.csv"
        write_stream(stream, path)
        return path, stream

    def test_mutated_files_read_as_line_by_line(self, tmp_path, monkeypatch, small_blocks):
        path, stream = self.blocks_file(tmp_path, 2, 13)
        stream.rewards[3] = [0.0, -0.0]  # edge values, which the writer spells 0 and -0
        stream.costs[5] = [5e-324, -1e308]
        write_stream(stream, path)
        data = path.read_bytes()
        casts = []
        real = np.loadtxt

        def counted(*args, **kwargs):
            casts.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        rng = np.random.default_rng(2024)
        outcomes = set()
        for i in range(600):
            path.write_bytes(data if i == 0 else mutate(rng, data))
            got = read_outcome(path)
            assert got == per_line_outcome(path, monkeypatch), path.read_bytes()
            outcomes.add(got[0] if isinstance(got[0], type) else "read")
        # both paths ran, and some files were read and others refused
        assert casts and min(casts) == 1 and max(casts) == small_blocks
        assert outcomes == {"read", StreamFormatError}

    def test_the_blocks_cast_are_the_blocks_learned(self, tmp_path, monkeypatch):
        # n = 100 cuts 163 rows per block: T = 400 is two full blocks and one
        # of 74, cast one np.loadtxt call each and read back from the spool as cut
        path, stream = self.blocks_file(tmp_path, 100, 400)
        cut = list(environments._block_rows(100, 400))
        assert cut == [(0, 163), (163, 163), (326, 74)]
        casts = []
        real = np.loadtxt

        def counted(*args, **kwargs):
            casts.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        back = read_stream(path)
        assert casts == [rows for _, rows in cut]
        blocks = list(back.blocks())
        assert [(start, len(r)) for start, r, _ in blocks] == cut
        for start, r, c in blocks:
            npt.assert_array_equal(r, stream.rewards[start:start + len(r)])
            npt.assert_array_equal(c, stream.costs[start:start + len(c)])
        back.close()

    def test_unit_separator_around_a_value_is_refused_as_float_refuses_it(self, tmp_path):
        # np.loadtxt strips \x1f around a field; float() and the stream do not
        rows = BLOCK_ENTRIES // 100  # trial lines per block at n = 100
        path, _ = self.blocks_file(tmp_path, 100, 2 * rows + 3)
        lines = path.read_text().splitlines()
        fields = lines[rows + 5].split(",")
        bad = fields[7] = "\x1f" + fields[7]
        lines[rows + 5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as refused:
            float(bad)
        with pytest.raises(StreamFormatError) as exc:
            read_stream(path)
        assert str(exc.value) == f"line {rows + 6}: bad reward/cost: {refused.value}"

    @pytest.mark.parametrize("edit", ["+tag", "0tag", "space", "underscores"])
    def test_other_spellings_in_a_middle_block_read_as_the_canonical_one(self, tmp_path, edit):
        rows = BLOCK_ENTRIES // 100
        path, stream = self.blocks_file(tmp_path, 100, 3 * rows)
        stream.costs[rows + 9, 4] = 1000.0
        write_stream(stream, path)
        lines = path.read_text().splitlines()
        t = rows + 10  # the middle block's tenth trial, on line t + 1
        fields = lines[t].split(",")
        if edit == "+tag":
            fields[0] = f"+{t}"
        elif edit == "0tag":
            fields[0] = f"0{t}"
        elif edit == "space":
            fields[1] = " " + fields[1]
        else:
            assert fields[1 + 100 + 4] == "1000"
            fields[1 + 100 + 4] = "1_000"
        lines[t] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        rewards, costs = stacked(read_stream(path))
        npt.assert_array_equal(rewards, stream.rewards)
        npt.assert_array_equal(costs, stream.costs)

    def test_end_of_file_inside_a_block_names_the_missing_trial(self, tmp_path, small_blocks):
        path, _ = self.blocks_file(tmp_path, 2, 13)
        lines = path.read_text().splitlines()
        # trials 1 to 6: the second block ends after two of its four lines
        path.write_text("\n".join(lines[:7]) + "\n")
        with pytest.raises(StreamFormatError, match="^line 8: expected trial 7, found end of file$"):
            read_stream(path)

    def test_a_bad_trial_is_found_once(self, tmp_path, monkeypatch):
        # the stream's own check names the trial; the reader maps it to its line
        path = tmp_path / "s.csv"
        path.write_text("1,3,0.25\n1,0.5,0.1\n2,0.5,nan\n3,-0.5,0.3\n")
        calls = []
        real = environments._first_bad_trial
        monkeypatch.setattr(environments, "_first_bad_trial",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(StreamFormatError, match="^line 3: rewards and costs must be finite$"):
            read_stream(path)
        assert len(calls) == 1
        with pytest.raises(environments.TrialError, match="^trial 2: rewards and costs must be finite$") as exc:
            Stream(ActionSet.from_energies([0.25]), np.array([[0.5], [0.5]]), np.array([[0.1], [np.nan]]))
        assert (exc.value.trial, exc.value.reason) == (2, "rewards and costs must be finite")
