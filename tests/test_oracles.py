import itertools
import math
import re
import tracemalloc
from contextlib import closing

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import (ActionSet, RowLayout, Stream, project_onto_feasible, sample_block,
                       surrogate_value)
from budgetmax import oracles
from budgetmax.environments import EnvironmentSpec, generate, read_stream, write_stream
from budgetmax.oracles import (MC_CHUNK, CapacityError, analytic_intersection_lower_bound,
                               analytic_selection_bounds, best_fixed_subset, discounted_profit,
                               estimate_hit_rates, estimate_selection_probs,
                               exact_expected_profit, exact_intersection_prob,
                               exact_selection_probs, finite_diff_gradient,
                               grid_projection)
from budgetmax.sampler import SharedRow
from conftest import (random_action_set, random_feasible_point, random_trial, read_columns,
                      stacked)


def naive_best_subset(stream, aset, alpha, delta):
    """Plain enumeration with the same lexicographic tie rule."""
    best_value, best_subset = 0.0, ()
    for size in range(aset.n + 1):
        for sub in itertools.combinations(range(aset.n), size):
            if float(np.sum(aset.z[list(sub)])) > 1.0 + 1e-12:
                continue
            total = sum(discounted_profit(sub, r, c, alpha, delta)
                        for r, c in zip(stream.rewards, stream.costs))
            if total > best_value or (total == best_value and sub < best_subset):
                best_value, best_subset = total, sub
    return best_value, best_subset


def exhaustive_grid_projection(y, z, resolution):
    """``grid_projection``'s search over every grid point, with no pruning.

    Each x0 is scored against every mid point in chunks of rows in grid
    order; a chunk's first minimum replaces the incumbent only if strictly
    smaller, so ties resolve to the first x0, then the first mid point.
    """
    k_top = int(math.floor(1.0 / resolution + 1e-9))
    values = np.minimum(np.arange(k_top + 1) * resolution, 1.0)
    target = int(np.clip(round(y[-1] / resolution), 0, k_top))

    def best_last(budget_left):
        if z[-1] <= 0.0:
            return np.full(budget_left.shape, values[target])
        k_max = np.minimum(np.floor(budget_left / (z[-1] * resolution) + 1e-9), k_top)
        return values[np.minimum(target, k_max).astype(int)]

    if y.size == 1:
        return best_last(np.array([1.0]))
    if y.size > 2:
        grids = np.meshgrid(*([values] * (y.size - 2)), indexing="ij")
        mid = np.stack([g.ravel() for g in grids], axis=1)
    else:
        mid = np.zeros((1, 0))
    mid_energy = mid @ z[1:-1]
    mid_dist2 = ((mid - y[1:-1]) ** 2).sum(axis=1)
    chunk = max(1, 2**16 // len(mid))
    best_d2, best_x = np.inf, None
    for start in range(0, values.size, chunk):
        x0 = values[start:start + chunk, None]
        left = 1.0 - x0 * z[0] - mid_energy
        x_last = best_last(np.maximum(left, 0.0))
        d2 = (x0 - y[0]) ** 2 + mid_dist2 + (x_last - y[-1]) ** 2
        d2 = np.where(left >= -1e-12, d2, np.inf)
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        if d2[i, j] < best_d2:
            best_d2 = float(d2[i, j])
            best_x = np.concatenate([x0[i], mid[j], [x_last[i, j]]])
    return best_x


def criterion_8_instances():
    """Acceptance criterion 8's 200 ``(y, z, resolution)``, drawn as the criterion draws them."""
    rng = np.random.default_rng(888)
    resolution = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 4e-3}
    instances = []
    for k in range(200):
        n = k % 4 + 1
        z = rng.uniform(0.0, 1.0, n)
        if rng.random() < 0.2:
            z[rng.integers(n)] = 0.0
        y = rng.uniform(-0.5, 2.0, n)
        instances.append((y, z, resolution[n]))
    return instances


class TestBestFixedSubset:
    def test_negative_cost_example(self):
        # rewards all zero; the two cheapest-to-hold actions that fit win
        aset = ActionSet.from_energies([0.6, 0.6, 0.3])
        stream = Stream(aset, np.zeros((1, 3)), np.array([[-3.0, -2.0, -1.0]]))
        res = best_fixed_subset(stream, alpha=0.5, delta=0.25)
        assert res.subset == (0, 2)
        assert res.discounted_total == pytest.approx(0.5 * 4.0)

    def test_all_zero_stream_prefers_empty_set(self):
        aset = ActionSet.from_energies([0.2, 0.1])
        stream = Stream(aset, np.zeros((3, 2)), np.zeros((3, 2)))
        res = best_fixed_subset(stream, 0.5, 0.5)
        assert res.subset == ()
        assert res.discounted_total == 0.0

    def test_capacity_cap(self):
        aset = ActionSet.from_energies([0.01] * 21)
        stream = Stream(aset, np.zeros((1, 21)), np.zeros((1, 21)))
        with pytest.raises(CapacityError):
            best_fixed_subset(stream, 1.0, 1.0)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(167)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            T = int(rng.integers(1, 6))
            aset = random_action_set(rng, n, beta_max=0.6)
            rewards = rng.uniform(0.0, 2.0, (T, n))
            costs = rng.uniform(-1.0, 1.0, (T, n))
            stream = Stream(aset, rewards, costs)
            alpha = float(rng.uniform(0.1, 1.0))
            delta = float(rng.uniform(0.1, 1.0))
            res = best_fixed_subset(stream, alpha, delta)
            naive_value, naive_sub = naive_best_subset(stream, aset, alpha, delta)
            assert res.discounted_total == pytest.approx(naive_value, abs=1e-9)
            # the returned subset must be optimal up to float-sum noise
            got = sum(discounted_profit(res.subset, r, c, alpha, delta)
                      for r, c in zip(rewards, costs))
            assert got >= naive_value - 1e-9

    def test_exact_ties_break_lexicographically(self):
        # integer data, alpha = delta = 1: sums are exact, ties are real.
        # actions 1 and 2 are interchangeable copies; 0 costs money.
        aset = ActionSet.from_energies([0.4, 0.3, 0.3])
        rewards = np.array([[0.0, 2.0, 2.0]])
        costs = np.array([[0.5, 0.0, 0.0]])
        res = best_fixed_subset(Stream(aset, rewards, costs), 1.0, 1.0)
        assert res.discounted_total == 2.0
        assert res.subset == (1,)  # {1}, {2}, {1,2} tie; lexicographic min wins

    @pytest.mark.parametrize("kind, n, T, seed, extra", [
        ("facility_location", 6, 40, 1, {}),
        ("knapsack_median", 12, 1500, 2, {}),  # two blocks of 1365 and 135 rows
        ("knapsack_01", 10, 300, 3, {}),
        ("random_adversarial", 8, 2500, 4, {"shift_segments": 3}),  # 2048 and 452 rows
    ])
    def test_same_result_on_every_kind_of_stream(self, tmp_path, kind, n, T, seed, extra):
        # a generated stream, its replay from a file and its stacked matrices in
        # memory are the same trials, read by their blocks
        spec = EnvironmentSpec(kind=kind, n=n, T=T, seed=seed, **extra)
        generated = generate(spec)
        aset = generated.action_set
        expected = best_fixed_subset(Stream(aset, *stacked(generated)), aset.alpha, aset.delta)
        assert best_fixed_subset(generated, aset.alpha, aset.delta) == expected
        write_stream(generated, tmp_path / "stream.csv")
        with closing(read_stream(tmp_path / "stream.csv")) as replayed:
            assert best_fixed_subset(replayed, aset.alpha, aset.delta) == expected
        assert expected.subset  # a nonempty comparator: the streams' values count

    def test_beats_every_enumerated_subset(self):
        rng = np.random.default_rng(173)
        aset = random_action_set(rng, 10, beta_max=0.4)
        stream = Stream(aset, rng.uniform(0, 2, (4, 10)), rng.uniform(-1, 1, (4, 10)))
        res = best_fixed_subset(stream, aset.alpha, aset.delta)
        for size in range(11):
            for sub in itertools.combinations(range(10), size):
                if float(np.sum(aset.z[list(sub)])) > 1.0 + 1e-12:
                    continue
                total = sum(discounted_profit(sub, r, c, aset.alpha, aset.delta)
                            for r, c in zip(stream.rewards, stream.costs))
                assert res.discounted_total >= total - 1e-9


class TestExactExpectedProfit:
    def test_zero_weights(self):
        aset = ActionSet.from_energies([0.25, 0.1])
        assert exact_expected_profit(np.zeros(2), aset, [1.0, 2.0], [0.3, -0.4]) == 0.0

    def test_single_action_closed_form(self):
        # p = delta * w = 0.25; E = p*(r - c) = 0.25 * 3 = 0.75
        aset = ActionSet.from_energies([0.25])
        assert exact_expected_profit([1.0], aset, [4.0], [1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_matches_monte_carlo(self):
        from budgetmax import RowLayout, sample_block
        rng = np.random.default_rng(179)
        for case in range(5):
            n = int(rng.integers(1, 7))
            aset = random_action_set(rng, n)
            w = random_feasible_point(rng, aset.z)
            rewards, costs = random_trial(rng, n)
            expect = exact_expected_profit(w, aset, rewards, costs)
            layout = RowLayout(aset)
            uniforms = np.random.default_rng(300 + case).random((200_000, layout.width))
            member = sample_block(w[None], uniforms, layout)
            best = np.where(member, rewards, -np.inf).max(axis=1)
            best[~member.any(axis=1)] = 0.0
            profits = best - member @ costs
            se = float(profits.std(ddof=1) / np.sqrt(len(profits)))
            assert abs(float(profits.mean()) - expect) <= 4.0 * max(se, 1e-9)

    def test_wrapper_action_sets_rejected(self):
        # max energy 0.6 >= 1/2: the sampler draws through the wrapper, where
        # action 0's marginal is about 0.19, not the product form's 0.039
        aset = ActionSet.from_energies([0.6, 0.3, 0.2, 0.1, 0.05])
        w = project_onto_feasible(np.array([0.9, 0.8, 0.9, 1.0, 1.0]), aset.z)
        rewards, costs = np.arange(5.0), np.zeros(5)
        for oracle in (lambda: exact_selection_probs(w, aset),
                       lambda: exact_intersection_prob(w, aset, [0, 2]),
                       lambda: exact_expected_profit(w, aset, rewards, costs)):
            with pytest.raises(ValueError, match="large-energy wrapper"):
                oracle()

    def test_dominates_negative_surrogate(self):
        rng = np.random.default_rng(181)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            aset = random_action_set(rng, n)
            w = random_feasible_point(rng, aset.z)
            trial = random_trial(rng, n)
            assert exact_expected_profit(w, aset, *trial) >= \
                -surrogate_value(w, *trial, aset.delta) - 1e-10


def reference_estimates(w, action_set, subsets, n_samples, seed):
    """Both estimators as a plain loop over the documented uniforms, block by block.

    A block's column ``j`` holds the next ``rows`` values of one
    ``Generator(SFC64(seed))`` for each column the draw reads, in ascending
    order; every other column holds NaN, which a draw that read it would refuse.
    """
    layout = RowLayout(action_set)
    rng = np.random.Generator(np.random.SFC64(seed))
    counts, hits = np.zeros(action_set.n), np.zeros(len(subsets))
    for start in range(0, n_samples, MC_CHUNK):
        rows = min(MC_CHUNK, n_samples - start)
        uniforms = np.full((rows, layout.width), np.nan)
        for j in read_columns(layout, w):
            uniforms[:, j] = rng.random(rows)
        member = sample_block(w[None], uniforms, layout)
        counts += member.sum(axis=0)
        for k, sub in enumerate(subsets):
            if sub:
                hits[k] += member[:, sorted(set(sub))].any(axis=1).sum()
    return counts / n_samples, hits / n_samples


class TestEstimators:
    @pytest.mark.parametrize("wrapper", [False, True])
    @pytest.mark.parametrize("n", [1, 40, 300])
    def test_bit_identical_to_reference_loop(self, n, wrapper):
        # two full blocks (the reused buffer) and a short last one of 7 rows
        rng = np.random.default_rng(400 + n)
        z = random_action_set(rng, n).z.copy()
        if wrapper:
            z[0] = 0.75
        aset = ActionSet.from_energies(z)
        assert RowLayout(aset).wrapper == wrapper
        w = random_feasible_point(rng, aset.z)
        subsets = [[], [0], sorted(set(rng.choice(n, size=min(n, 5)).tolist())), list(range(n))]
        n_samples = 2 * MC_CHUNK + 7
        freq, hits = reference_estimates(w, aset, subsets, n_samples, seed=n)
        got_freq = estimate_selection_probs(w, aset, n_samples, seed=n)
        assert got_freq.tobytes() == freq.tobytes()
        # a numpy integer count is accepted like a Python int
        got_hits = estimate_hit_rates(w, aset, subsets, np.int64(n_samples), seed=n)
        assert got_hits.tobytes() == hits.tobytes()
        assert hits[0] == 0.0 and 0.0 < hits[-1]

    def test_each_block_pulls_the_columns_its_draw_reads(self, monkeypatch):
        # the rule (conftest.read_columns): every residual column and full-draw
        # column j < floor(scale * S) of a segment with mass, S summed in segment
        # order over the clamp, and the wrapper's column 0; nothing else
        monkeypatch.setattr(oracles, "MC_CHUNK", 5)  # blocks of 5, 5 and 2 rows
        pulls, draw = [], SharedRow.draw

        def recorded(row, rows, column):
            asked = []
            pulls.append(asked)
            return draw(row, rows, lambda j: asked.append(j) or column(j))

        monkeypatch.setattr(SharedRow, "draw", recorded)
        rng = np.random.default_rng(29)
        seen = set()
        for trial in range(200):
            n = int(rng.choice([1, 3, 8, 40, 300]))
            z = random_action_set(rng, n).z.copy()
            if trial % 2:
                z[rng.integers(n)] = 0.75
            aset = ActionSet.from_energies(z)
            layout = RowLayout(aset)
            w = np.zeros(n) if trial % 5 == 0 else random_feasible_point(rng, aset.z)
            pulls.clear()
            estimate_selection_probs(w, aset, 12, seed=trial)
            expect = read_columns(layout, w)
            assert len(pulls) == 3
            for asked in pulls:
                assert asked == sorted(set(asked)) == expect
            for (start, stop), scale, full in zip(layout.spans, layout.scale,
                                                  layout.full_columns):
                mass = np.clip(w[layout.order[start:stop]], 0.0, 1.0).sum()
                draws = math.floor(scale * mass)
                seen.add((layout.wrapper, 0 < draws < full, draws == full > 0))
            if not w.any():
                assert expect == ([0] if layout.wrapper else [])
        assert {(wrapper, True, False) for wrapper in (False, True)} <= seen
        assert (False, False, True) in seen

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, True, np.float64(3.0)])
    def test_sample_count_must_be_a_positive_integer(self, n_samples):
        aset = ActionSet.from_energies([0.25, 0.1])
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="n_samples"):
            estimate_selection_probs(w, aset, n_samples, seed=1)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_hit_rates(w, aset, [[0]], n_samples, seed=1)

    @pytest.mark.parametrize("bad", [-1, 6, 1.5, np.int64(-1)])
    def test_subset_index_outside_the_actions_rejected(self, bad, monkeypatch):
        # -1 must not wrap to action 5, nor 6 raise a bare IndexError
        rng = np.random.default_rng(0)
        aset = random_action_set(rng, 6)
        w = random_feasible_point(rng, aset.z)

        def no_draw(*args):
            raise AssertionError("drew before checking the subsets")

        monkeypatch.setattr(oracles, "_membership_blocks", no_draw)
        message = rf"subset index must be an integer in \[0, 6\), got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            estimate_hit_rates(w, aset, [[0, 1], [2, bad]], 2000, seed=1)
        with pytest.raises(ValueError, match=message):
            exact_intersection_prob(w, aset, [bad])
        with pytest.raises(ValueError, match=message):
            analytic_intersection_lower_bound(w, [bad], aset.delta)
        with pytest.raises(ValueError, match=message):
            analytic_selection_bounds(w, bad, aset.delta)

    def test_zero_weights_zero_frequency(self):
        aset = ActionSet.from_energies([0.25, 0.0])
        freq = estimate_selection_probs(np.zeros(2), aset, 1000, seed=1)
        npt.assert_array_equal(freq, 0.0)

    def test_one_membership_block_alive_at_a_time(self):
        # probcheck --actions 40's instance: the estimates hold one uniform
        # column and the block being counted, not the last one as well (two
        # blocks of 50 000 x 40 bools would bring the peak near 5.4 MB)
        rng = np.random.default_rng(0)
        n = 40
        z = rng.uniform(0.0, 0.49, n)
        z[rng.random(n) < 0.2] = 0.0
        aset = ActionSet.from_energies(z)
        w = project_onto_feasible(rng.uniform(0.0, 1.5, n), aset.z)
        estimate_selection_probs(w, aset, 10, seed=1)  # imports and caches outside the count
        bound = MC_CHUNK * 8 + 2 * MC_CHUNK * n
        for estimate in (lambda: estimate_selection_probs(w, aset, 6 * MC_CHUNK, seed=1),
                         lambda: estimate_hit_rates(w, aset, [[0, 1], [5]], 6 * MC_CHUNK, seed=1)):
            tracemalloc.start()
            try:
                estimate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    def test_no_block_wide_uniforms(self):
        # probcheck --seed 5 --actions 300's instance and Monte Carlo seed, one
        # block: its membership is 50 000 x 300 bools, 15.0 MB, and the draw
        # adds a column of 50 000 doubles and its picks, under 3 MB. Uniforms for
        # the whole block (32 columns of doubles, 12.8 MB) would peak near 30 MB
        rng = np.random.default_rng(5)
        n = 300
        z = rng.uniform(0.0, 0.49, n)
        z[rng.random(n) < 0.2] = 0.0
        aset = ActionSet.from_energies(z)
        w = project_onto_feasible(rng.uniform(0.0, 1.5, n), aset.z)
        assert RowLayout(aset).width == 32
        estimate_selection_probs(w, aset, 10, seed=6)  # imports and caches outside the count
        tracemalloc.start()
        try:
            estimate_selection_probs(w, aset, MC_CHUNK, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_hit_rate_matches_exact(self):
        rng = np.random.default_rng(191)
        aset = random_action_set(rng, 8)
        w = random_feasible_point(rng, aset.z)
        subsets = [[0], [1, 3], list(range(8))]
        rates = estimate_hit_rates(w, aset, subsets, 200_000, seed=193)
        for sub, rate in zip(subsets, rates):
            exact = exact_intersection_prob(w, aset, sub)
            sigma = max(np.sqrt(exact * (1.0 - exact) / 200_000), 1e-9)
            assert abs(rate - exact) <= 4.0 * sigma


class TestFiniteDiff:
    def test_linear_function_is_exact(self):
        slope = np.array([2.0, -3.0, 0.5])
        g = finite_diff_gradient(lambda v: float(slope @ v), np.array([1.0, 2.0, 0.0]), 1e-5)
        npt.assert_allclose(g, slope, atol=1e-9)

    def test_boundary_uses_forward_difference(self):
        # f(v) = sum sqrt(v): undefined below 0; boundary coordinate works
        g = finite_diff_gradient(lambda v: float(np.sum(np.sqrt(np.abs(v)))),
                                 np.array([0.0, 1.0]), 1e-6)
        assert np.isfinite(g).all()
        assert g[1] == pytest.approx(0.5, abs=1e-4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, np.zeros(2), 0.0)


class TestGridProjection:
    def test_on_grid_feasible_point_is_fixed(self):
        z = np.array([0.3, 0.2])
        y = np.array([0.25, 0.5])
        npt.assert_allclose(grid_projection(y, z, 0.05), y, atol=1e-12)

    def test_symmetric_example(self):
        got = grid_projection(np.array([1.0, 1.0]), np.array([0.6, 0.6]), 1e-4)
        npt.assert_allclose(got, [5.0 / 6.0, 5.0 / 6.0], atol=2e-4)

    def test_output_is_feasible_grid_point(self):
        rng = np.random.default_rng(197)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            z = rng.uniform(0.0, 1.0, n)
            y = rng.uniform(-0.5, 2.0, n)
            res = 0.01
            x = grid_projection(y, z, res)
            # box and budget up to the grid's own rounding, res per unit of energy
            bound = res * float(np.sum(z)) + 1e-9
            assert x.min() >= -bound and x.max() <= 1.0 + bound and x @ z <= 1.0 + bound
            k = np.round(x / res)
            npt.assert_allclose(np.minimum(k * res, 1.0), x, atol=1e-12)

    def test_matches_exhaustive_search_on_criterion_8_instances(self):
        # every n <= 3 instance, and every fifth n = 4 one: the unpruned search
        # scores 251 x 62 500 points per n = 4 instance
        instances = criterion_8_instances()
        checked = 0
        for k, (y, z, res) in enumerate(instances):
            if y.size < 4 or k % 20 == 3:
                npt.assert_array_equal(grid_projection(y, z, res),
                                       exhaustive_grid_projection(y, z, res), err_msg=str(k))
                checked += 1
        assert checked == 160

    def test_matches_exhaustive_search_on_ties(self):
        # energies from a short list and y on the grid or halfway between two
        # grid values, so equally near x0 values and mirror-image optima abound
        rng = np.random.default_rng(2024)
        for k in range(600):
            n = int(rng.integers(1, 5))
            res = float(rng.choice([1.0, 0.5, 0.25, 0.125, 0.1, 0.05]))
            z = rng.choice([0.0, 0.25, 0.5, 1.0, float(rng.uniform(0.0, 1.0))], n)
            y = rng.integers(-3, 2 * round(1.0 / res) + 4, n) * (res / 2)
            if rng.random() < 0.3:
                y = rng.uniform(-0.5, 2.0, n)
            npt.assert_array_equal(grid_projection(y, z, res),
                                   exhaustive_grid_projection(y, z, res), err_msg=str(k))

    @pytest.mark.parametrize("y, z, expect", [
        # sum k_i <= 819 over four coordinates, all drawn to 1: one at 204, three at 205
        ((1.0, 1.0, 1.0, 1.0), (0.3125,) * 4, (204, 205, 205, 205)),
        # sum k_i <= 512 over three, and a free last coordinate on the grid: the
        # tie is exact with nothing added by the last coordinate
        ((1.0, 1.0, 1.0, 0.5), (0.5, 0.5, 0.5, 0.0), (170, 171, 171, 128)),
    ])
    def test_ties_across_rows_resolve_to_the_first_x0(self, y, z, expect):
        # at resolution 1/256 every distance and energy is exact and each x0 is a
        # chunk of its own; x0 is visited from 1 down, so a mirror image with x0 =
        # 205 (or 171) is found first, and the smaller x0 after it must replace it
        y, z = np.array(y), np.array(z)
        got = grid_projection(y, z, 1 / 256)
        npt.assert_array_equal(got, np.array(expect) / 256)
        npt.assert_array_equal(got, exhaustive_grid_projection(y, z, 1 / 256))

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            grid_projection(np.zeros(5), np.zeros(5), 0.1)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            grid_projection(np.zeros(2), np.zeros(2), 0.0)
