import itertools
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import (ActionSet, RowLayout, ZERO_CLASS, draw_trials, project_onto_feasible,
                       sample_block, uniform_stream)
from budgetmax.oracles import (analytic_intersection_lower_bound, analytic_selection_bounds,
                               estimate_selection_probs, exact_expected_profit,
                               exact_intersection_prob, exact_selection_probs)
from budgetmax import sampler
from budgetmax.core import BUDGET_SLACK
from budgetmax.sampler import _guide_inverse
from conftest import draw_one, random_action_set, random_feasible_point, read_columns


def reference_block(weights, uniforms, action_set):
    """The documented row layout, one row and one np.searchsorted per draw."""
    wrapper = action_set.beta >= 0.5
    layout = RowLayout(action_set)
    classes, delta = layout.classes, layout.delta
    segments = [(classes[q], delta, math.floor(delta * len(classes[q]))) for q in sorted(classes)]
    if wrapper:
        segments.insert(0, (np.flatnonzero(action_set.z >= 0.5), 0.25, 0))
    member = np.zeros((len(uniforms), action_set.n), dtype=bool)
    for r, u in enumerate(uniforms):
        w = weights[r] if len(weights) > 1 else weights[0]
        col = 0
        for k, (actions, scale, width) in enumerate(segments):
            raw = np.cumsum(w[actions])
            draws = []
            if raw[-1] > 0.0:
                scaled = raw[-1] * scale
                full = math.floor(scaled)
                draws = [u[col + j] for j in range(min(full, width))]
                residual = scaled - full
                if u[col + width] < residual:  # the residual draw picks with u / r
                    draws.append(u[col + width] / residual)
            picks = [actions[np.searchsorted(raw / raw[-1], x, side="right")] for x in draws]
            member[r, picks] = True
            if wrapper and k == 0 and picks:  # heads: the heavy pick alone
                break
            col += width + 1
    return member


def rows_of(seed, start, count, width):
    return uniform_stream(seed, width, start).random((count, width))


def feasible_rows(rng, z, rows):
    """Feasible weight rows, some all zero and some with zeroed entries."""
    w = np.array([project_onto_feasible(rng.uniform(0.0, 1.5, z.size), z) for _ in range(rows)])
    w[rng.random(rows) < 0.2] = 0.0
    w[rng.random(w.shape) < 0.1] = 0.0
    return w


class TestPartition:
    def test_three_action_example(self):
        # tau = 0.5: class 1 covers (0.125, 0.25], class 3 covers (0.03125, 0.0625]
        aset = ActionSet.from_energies([0.25, 0.20, 0.05])
        classes = RowLayout(aset).classes
        assert set(classes) == {1, 3}
        npt.assert_array_equal(classes[1], [0, 1])
        npt.assert_array_equal(classes[3], [2])

    def test_zero_class(self):
        aset = ActionSet.from_energies([0.0, 0.25, 0.0])
        classes = RowLayout(aset).classes
        npt.assert_array_equal(classes[ZERO_CLASS], [0, 2])
        npt.assert_array_equal(classes[1], [1])

    def test_all_zero(self):
        layout = RowLayout(ActionSet.from_energies([0.0, 0.0]))
        assert set(layout.classes) == {ZERO_CLASS}
        assert layout.delta == 1.0

    def test_boundary_energy_lands_in_upper_class(self):
        # z = tau^1 * beta exactly (0.125 for beta=0.25) belongs to class 2:
        # the class-q interval is open below, closed above
        aset = ActionSet.from_energies([0.25, 0.125])
        classes = RowLayout(aset).classes
        npt.assert_array_equal(classes[1], [0])
        npt.assert_array_equal(classes[2], [1])

    def test_energies_at_class_boundaries_match_a_plain_reference(self):
        # energies at tau**k * beta and one ulp to either side: the log estimate
        # of the class is off by one both ways on some, so both corrections run
        misses = set()
        for beta in [*np.geomspace(1e-6, 0.49, 50).tolist(), 0.1, 0.25, 1 / 3]:
            tau = 1.0 - math.sqrt(beta)
            edges = [tau ** k * beta for k in range(40)]
            z = np.array([0.0, *edges, *(math.nextafter(e, 0.0) for e in edges),
                          *(math.nextafter(e, 1.0) for e in edges[1:])])
            found = {int(i): q for q, idx in RowLayout(ActionSet.from_energies(z)).classes.items()
                     for i in idx}
            assert sorted(found) == list(range(z.size))
            assert found[0] == ZERO_CLASS
            for i, zi in enumerate(z[1:].tolist(), 1):
                q = next(q for q in itertools.count(1) if zi > tau ** q * beta)  # the smallest
                assert found[i] == q, (beta, zi)
                estimate = max(1, math.floor(math.log(zi / beta) / math.log(tau)) + 1)
                misses.add(estimate - q)
        assert misses == {-1, 0, 1}

    def test_tiny_energies_share_one_class(self):
        # below beta of about 3.1e-33, tau = 1 - sqrt(beta) rounds to 1.0, so
        # every positive energy goes to class 1, drawn delta * S + 1 <= n + 1 times
        aset = ActionSet.from_energies([1e-40, 0.0, 3e-41, 1e-300, 1e-40])
        assert aset.delta == 1.0
        layout = RowLayout(aset)
        assert set(layout.classes) == {ZERO_CLASS, 1}
        npt.assert_array_equal(layout.classes[1], [0, 2, 3, 4])
        w = np.array([1.0, 1.0, 0.4, 0.7, 0.9])
        member = sample_block(w[None], rows_of(5, 0, 2000, layout.width), layout)
        assert float((member @ aset.z).max()) <= (aset.n + 1) * aset.beta
        exact = exact_selection_probs(w, aset)
        for i in range(aset.n):
            lower, upper = analytic_selection_bounds(w, i, aset.delta)
            assert lower - 1e-12 <= exact[i] <= upper + 1e-12
        sigma = np.sqrt(exact * (1.0 - exact) / 2000)
        assert np.all(np.abs(member.mean(axis=0) - exact) <= 5.0 * np.maximum(sigma, 1e-9))

    def test_max_energy_at_or_above_one_rejected(self):
        # beta = 1 is sampled through the wrapper, which the exact oracles do not describe
        aset = ActionSet.from_energies([1.0, 0.2])
        w = np.array([0.5, 1.0])
        assert RowLayout(aset).wrapper
        for oracle in (lambda: exact_selection_probs(w, aset),
                       lambda: exact_intersection_prob(w, aset, [0]),
                       lambda: exact_expected_profit(w, aset, [1.0, 2.0], [0.0, 0.0])):
            with pytest.raises(ValueError, match="large-energy wrapper"):
                oracle()

    def test_cap_excludes_heavy_actions(self):
        aset = ActionSet.from_energies([0.8, 0.3, 0.0, 0.5])
        layout = RowLayout(aset)
        covered = np.sort(np.concatenate(list(layout.classes.values())))
        npt.assert_array_equal(covered, [1, 2])
        assert layout.wrapper
        assert layout.delta == (1.0 - math.sqrt(0.5)) ** 2

    def test_partition_covers_each_action_once_with_valid_thresholds(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(1, 51))
            aset = random_action_set(rng, n, beta_max=0.999, zero_frac=0.2)
            layout = RowLayout(aset)
            # in wrapper mode the classes hold the light actions, cut at 1/2
            heavy = np.flatnonzero(aset.z >= 0.5)
            assert layout.wrapper == (heavy.size > 0)
            beta = 0.5 if layout.wrapper else aset.beta
            tau = 1.0 - math.sqrt(beta)
            assert layout.delta == tau * tau
            covered = np.concatenate([heavy, *layout.classes.values()])
            npt.assert_array_equal(np.sort(covered), np.arange(n))
            for q, idx in layout.classes.items():
                for i in idx:
                    if q == ZERO_CLASS:
                        assert aset.z[i] == 0.0
                    else:
                        assert tau ** q * beta < aset.z[i]
                        assert aset.z[i] <= tau ** (q - 1) * beta


class TestDrawPlans:
    def test_floor_and_residual(self):
        # four actions of energy 0.25 with unit weights: delta*S = 1 exactly,
        # so one full draw (column 0) and never a residual draw
        aset = ActionSet.from_energies([0.25] * 4)
        layout = RowLayout(aset)
        assert layout.width == 4
        uniforms = np.random.default_rng(5).random((2000, 4))
        member = sample_block(np.ones((1, 4)), uniforms, layout)
        npt.assert_array_equal(member.sum(axis=1), 1)
        npt.assert_array_equal(np.flatnonzero(member.ravel()) % 4,
                               np.floor(uniforms[:, 0] * 4).astype(int))

    def test_fractional_mass(self):
        # no full draw; the residual column (column 0) draws below 0.25 * 0.6
        aset = ActionSet.from_energies([0.25])
        layout = RowLayout(aset)
        assert layout.width == 4
        uniforms = np.random.default_rng(6).random((2000, 4))
        member = sample_block(np.array([[0.6]]), uniforms, layout)
        npt.assert_array_equal(member[:, 0], uniforms[:, 0] < 0.25 * 0.6)

    def test_zero_weight_group_draws_nothing(self):
        aset = ActionSet.from_energies([0.25, 0.0])
        layout = RowLayout(aset)
        for uniforms in (np.zeros((50, layout.width)),
                         np.random.default_rng(7).random((50, layout.width))):
            assert not sample_block(np.zeros((1, 2)), uniforms, layout).any()

    def test_width_counts_full_draws_coins_and_picks(self):
        rng = np.random.default_rng(8)
        for beta_max in (0.49, 0.9):
            for _ in range(50):
                aset = random_action_set(rng, int(rng.integers(1, 60)), beta_max=beta_max)
                layout = RowLayout(aset)
                used = sum(math.floor(layout.delta * len(a)) + 1 for a in layout.classes.values())
                used += layout.wrapper
                assert layout.width % 4 == 0 and used <= layout.width < used + 4


class TestMatchesSearchsortedReference:
    @pytest.mark.parametrize("n, rows", [(1, 400), (8, 400), (50, 200), (1000, 30)])
    def test_weight_block(self, n, rows):
        rng = np.random.default_rng(1000 + n)
        aset = random_action_set(rng, n, zero_frac=0.2)
        assert ZERO_CLASS in RowLayout(aset).classes or n == 1
        weights = feasible_rows(rng, aset.z, rows)
        layout = RowLayout(aset)
        uniforms = rng.random((rows, layout.width))
        expect = reference_block(weights, uniforms, aset)
        npt.assert_array_equal(sample_block(weights, uniforms, layout), expect)
        # a one-row block (criterion 1's shape), whose keys carry no row offset
        for r in range(0, rows, 10):
            npt.assert_array_equal(sample_block(weights[r:r + 1], uniforms[r:r + 1], layout),
                                   expect[r:r + 1])

    @pytest.mark.parametrize("n", [1, 8, 50, 1000])
    def test_shared_weight_row(self, n):
        rng = np.random.default_rng(2000 + n)
        aset = random_action_set(rng, n, zero_frac=0.2)
        w = random_feasible_point(rng, aset.z)
        # the wrapper: action 0 made heavy and given 2/3 beside the halved rest,
        # so heads (probability 1/6) shows
        z = aset.z.copy()
        z[0] = 0.75
        heavy_w = 0.5 * w
        heavy_w[0] = 2.0 / 3.0
        for action_set, weights in ((aset, w), (ActionSet.from_energies(z), heavy_w)):
            layout = RowLayout(action_set)
            uniforms = rng.random((300, layout.width))
            expect = reference_block(weights[None], uniforms, action_set)
            for block in (uniforms, np.asfortranarray(uniforms)):
                npt.assert_array_equal(sample_block(weights[None], block, layout), expect)
        assert layout.wrapper
        heads = expect[:, 0]
        assert heads.any() and (expect[heads].sum(axis=1) == 1).all()

    @pytest.mark.parametrize("n", [1, 40, 300])
    def test_shared_row_result_is_column_major(self, n):
        # the Monte Carlo estimators' uniforms, column by column, at one shared row
        rng = np.random.default_rng(4000 + n)
        aset = random_action_set(rng, n, zero_frac=0.2)
        w = random_feasible_point(rng, aset.z)
        layout = RowLayout(aset)
        uniforms = rng.random((layout.width, 500)).T
        member = sample_block(w[None], uniforms, layout)
        assert member.flags.f_contiguous
        npt.assert_array_equal(member, reference_block(w[None], uniforms, aset))

    def test_shared_row_pulls_each_column_it_reads_once_in_order(self):
        # a source that records its requests and hands back one reused buffer,
        # as the Monte Carlo estimators' does
        rng = np.random.default_rng(34)
        for trial in range(200):
            n = int(rng.choice([1, 3, 8, 40, 300]))
            z = random_action_set(rng, n).z.copy()
            if trial % 2:
                z[rng.integers(n)] = 0.75
            aset = ActionSet.from_energies(z)
            layout = RowLayout(aset)
            w = np.zeros(n) if trial % 5 == 0 else random_feasible_point(rng, aset.z)
            rows = int(rng.integers(1, 60))
            uniforms = rng.random((layout.width, rows))
            buffer, asked = np.empty(rows), []

            def column(j):
                asked.append(j)
                buffer[:] = uniforms[j]
                return buffer

            row = sampler.SharedRow(w, layout)
            member = row.draw(rows, column)
            assert asked == read_columns(layout, w)  # ascending, each once
            if layout.wrapper:  # the heads mask comes first, with or without heavy mass
                assert asked[0] == 0
            whole = sample_block(w[None], uniforms.T, layout)
            assert member.tobytes() == whole.tobytes()
            npt.assert_array_equal(member, reference_block(w[None], uniforms.T, aset))

    def test_zero_energy_class_only(self):
        # beta = 0: tau = delta = 1, so every unit of weight mass is a full draw
        rng = np.random.default_rng(9)
        aset = ActionSet.from_energies(np.zeros(12))
        layout = RowLayout(aset)
        assert layout.width == 16  # twelve full draws and a residual column
        weights = rng.uniform(0.0, 1.0, (300, 12))
        weights[::7] = 0.0
        uniforms = rng.random((300, layout.width))
        npt.assert_array_equal(sample_block(weights, uniforms, layout),
                               reference_block(weights, uniforms, aset))

    @pytest.mark.parametrize("n", [2, 8, 50])
    def test_wrapper_mode(self, n):
        rng = np.random.default_rng(3000 + n)
        z = rng.uniform(0.0, 1.0, n)
        z[rng.random(n) < 0.2] = 0.0
        z[0] = 0.75
        aset = ActionSet.from_energies(z)
        layout = RowLayout(aset)
        assert layout.wrapper
        weights = feasible_rows(rng, aset.z, 400)
        heavy = aset.z >= 0.5
        weights[::5] = heavy / max(1.0, float(np.sum(aset.z[heavy])))  # heads is likeliest
        uniforms = rng.random((400, layout.width))
        member = sample_block(weights, uniforms, layout)
        npt.assert_array_equal(member, reference_block(weights, uniforms, aset))
        heads = member[:, aset.z >= 0.5].any(axis=1)
        assert heads.any() and (member[heads].sum(axis=1) == 1).all()

    def test_signed_zeros_and_a_zero_mass_segment(self):
        # -0.0 weights make -0.0 cum values: a whole segment of them (no mass,
        # so no draw), and a leading run before another segment's mass; some
        # uniforms are exactly 0.0, which picks past the leading run
        rng = np.random.default_rng(71)
        aset = random_action_set(rng, 60, zero_frac=0.2)
        layout = RowLayout(aset)
        sizes = [stop - start for start, stop in layout.spans]
        empty, leading = (layout.spans[s] for s in np.argsort(sizes, kind="stable")[-2:])
        weights = feasible_rows(rng, aset.z, 200)
        weights[:, layout.order[slice(*empty)]] = -0.0
        start, stop = leading
        weights[::2, layout.order[start:(start + stop) // 2]] = -0.0
        uniforms = rng.random((200, layout.width))
        uniforms[rng.random(uniforms.shape) < 0.2] = 0.0
        member = sample_block(weights, uniforms, layout)
        npt.assert_array_equal(member, reference_block(weights, uniforms, aset))
        assert not member[:, layout.order[slice(*empty)]].any()
        assert member[:, layout.order[slice(*leading)]].any()


def fuzzed_cum(rng, size):
    """A segment's cum as the sampler computes it, from weights that are
    often zero (leading zeros included) or spread down to 1e-300."""
    kind = int(rng.integers(4))
    if kind == 0:
        w = rng.random(size)
    elif kind == 1:  # clustered: most of the mass in a few actions
        w = 10.0 ** rng.uniform(-300.0, 0.0, size)
    elif kind == 2:  # a few distinct weights, so cum has regular steps
        w = rng.integers(1, 4, size).astype(float)
    else:
        w = 10.0 ** -rng.integers(0, 20, size).astype(float)
    w[rng.random(size) < rng.uniform(0.0, 0.6)] = 0.0
    if rng.random() < 0.3:
        w[:int(rng.integers(1, size + 1))] = 0.0
    if not w.any():
        w[int(rng.integers(size))] = rng.random() + 0.1
    cum = np.add.accumulate(w)
    return cum / cum[-1]


def probes(rng, cum):
    """Uniforms on and beside every cum value, on table cell edges, and at random."""
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                        [0.0, -0.0, below_one], rng.random(64)])
    for p in rng.integers(0, 14, 4):
        edges = rng.integers(0, 2**p, 16) / 2.0**p
        u = np.concatenate([u, edges, np.nextafter(edges, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestGuideInverse:
    """The shared-row search against ``np.searchsorted(cum, u, side="right")``."""

    def test_fuzzed_segments(self):
        rng = np.random.default_rng(5150)
        sizes = np.concatenate([[1, 1, 2, 701], rng.integers(1, 60, 3000)])
        for size in sizes:
            cum = fuzzed_cum(rng, int(size))
            u = probes(rng, cum)
            expect = np.searchsorted(cum, u, side="right")
            npt.assert_array_equal(_guide_inverse(cum, np.arange(size))(u), expect)

    def test_every_cell_edge(self):
        # each multiple of 2**-13 and its neighbour, on a 700-action segment too
        rng = np.random.default_rng(5151)
        grid = np.arange(2**13) / 2**13
        u = np.concatenate([grid, np.nextafter(grid, 1.0)])
        for size in (1, 3, 40, 700):
            for _ in range(5):
                cum = fuzzed_cum(rng, size)
                npt.assert_array_equal(_guide_inverse(cum, np.arange(size))(u),
                                       np.searchsorted(cum, u, side="right"))

    def test_targets_and_ties(self):
        # zero weights first and between: the pick is the next weighted action
        cum = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 1.0, 1.0])
        targets = np.array([10, 11, 12, 13, 14, 15, 16])
        u = np.array([0.0, 0.1, 0.25, np.nextafter(0.25, 0.0), 0.9])
        npt.assert_array_equal(_guide_inverse(cum, targets)(u), [12, 12, 15, 12, 15])

    def test_row_within_tolerance_draws_as_its_clamp(self):
        # is_feasible admits the -1e-12 weight, which would make cum dip and
        # leave the mass S = 1 - 1e-12 to a residual draw at u / S = 0.5, where
        # the two searches disagree; its clamp [0.5, 0, 0.5] makes one full
        # draw, at u = 0.5, of action 2
        layout = RowLayout(ActionSet.from_energies(np.zeros(3)))
        row = np.array([[0.5, -1e-12, 0.5]])
        uniforms = np.full((2, layout.width), 0.5)
        uniforms[:, 3] *= (0.5 - 1e-12) + 0.5  # the residual column
        for weights in (row, np.repeat(row, 2, axis=0)):
            npt.assert_array_equal(sample_block(weights, uniforms, layout), [[0, 0, 1]] * 2)
            npt.assert_array_equal(sample_block(np.maximum(weights, 0.0), uniforms, layout),
                                   [[0, 0, 1]] * 2)

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0, 1.5, np.nan, np.inf, -np.inf])
    def test_uniform_outside_unit_interval_rejected(self, bad):
        invert = _guide_inverse(np.array([0.5, 1.0]), np.arange(2))
        with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
            invert(np.array([0.25, bad, 0.75]))

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0, np.nan])
    def test_sample_block_rejects_a_uniform_a_draw_reads(self, bad):
        # four zero-energy actions at weight 1: four full draws in every row,
        # at one weight row shared by the 20 rows and at a weight row per row
        layout = RowLayout(ActionSet.from_energies(np.zeros(4)))
        for weights in (np.ones((1, 4)), np.ones((20, 4))):
            uniforms = rows_of(3, 0, 20, layout.width)
            uniforms[7, 2] = bad
            with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
                sample_block(weights, uniforms, layout)
            uniforms[7, 2] = -0.0  # compares equal to 0.0, so it is drawn like it
            zero = uniforms.copy()
            zero[7, 2] = 0.0
            npt.assert_array_equal(sample_block(weights, uniforms, layout),
                                   sample_block(weights, zero, layout))
            # column 4 is the residual column, with no residual mass: only a
            # negative uniform is below it, and the error names that uniform
            uniforms = rows_of(3, 0, 20, layout.width)
            uniforms[7, 4] = bad
            if bad < 0.0:
                with pytest.raises(ValueError, match=f"got {bad!r}"):
                    sample_block(weights, uniforms, layout)
            else:
                half = uniforms.copy()
                half[7, 4] = 0.5
                npt.assert_array_equal(sample_block(weights, uniforms, layout),
                                       sample_block(weights, half, layout))
        # the zero class (actions 0 and 1) has residual mass r = 2 * delta
        # and reads column 0: a negative uniform there is below r, so its
        # draw picks with bad / r < 0, which unchecked would land on action
        # 0; 1.0 and NaN are not below r, so they make no draw
        layout = RowLayout(ActionSet.from_energies([0.0, 0.0, 0.3, 0.3]))
        assert layout.residual_columns == [0, 1] and layout.full_columns == [0, 0]
        uniforms = np.array([[bad, 0.5, 0.5, 0.5]] * 2)
        for rows in (1, 2):
            weights = np.array([[1.0, 1.0, 0.0, 0.5]] * rows)
            if bad < 0.0:
                with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
                    sample_block(weights, uniforms, layout)
            else:
                assert not sample_block(weights, uniforms, layout)[:, :2].any()
        # wrapper mode with no heavy mass: column 0 fires heads only below 0,
        # which would keep the (absent) heavy pick alone and return an empty
        # selection unchecked; 1.0 and NaN fire nothing, and the light draws stand
        layout = RowLayout(ActionSet.from_energies([0.75, 0.1, 0.0]))
        assert layout.wrapper and layout.residual_columns == [0, 1, 2]
        uniforms = np.full((2, layout.width), 0.01)  # below both light residual masses
        uniforms[0, 0] = bad
        for weights in (np.array([[0.0, 0.5, 1.0]]), np.array([[0.0, 0.5, 1.0]] * 2)):
            if bad < 0.0:
                with pytest.raises(ValueError, match=f"got {bad!r}"):
                    sample_block(weights, uniforms, layout)
            else:
                npt.assert_array_equal(sample_block(weights, uniforms, layout), [[0, 1, 1]] * 2)


class TestResidualLattice:
    """A residual draw picks with u / r: fed the lattice u = k / 2**16, each
    action is picked by 2**16 * r * (cum_a - cum_(a-1)) rows, give or take
    one, with no Monte Carlo noise."""

    @staticmethod
    def segments(action_set, w):
        """Per segment of the documented layout: its actions, residual column and mass."""
        layout = RowLayout(action_set)
        heavy = np.flatnonzero(action_set.z >= 0.5)
        found, column = [], 0
        if layout.wrapper:
            found.append((heavy, column, 0.25 * float(w[heavy].sum())))
            column += 1
        for q in sorted(layout.classes):
            actions = layout.classes[q]
            column += math.floor(layout.delta * len(actions))
            found.append((actions, column, layout.delta * float(w[actions].sum())))
            column += 1
        assert [c for _, c, _ in found] == layout.residual_columns
        return found

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("beta_max", [0.45, 0.9])
    def test_lattice_counts(self, shared, beta_max):
        rng = np.random.default_rng(17)
        z = rng.uniform(0.0, beta_max, 12)
        z[:3] = 0.0
        if beta_max > 0.5:
            z[3:5] = [0.6, 0.8]  # two heavy actions, so the heavy column is tested
        aset = ActionSet.from_energies(z)
        layout = RowLayout(aset)
        assert layout.wrapper == (beta_max > 0.5)
        w = rng.uniform(0.05, 1.0, 12)
        w /= max(1.0, float(w @ z))
        k = 2**16
        lattice = np.arange(k) / k
        for actions, column, r in self.segments(aset, w):
            assert 0.0 < r < 1.0  # no full draw: floor(scale * S) = 0
            uniforms = np.full((k, layout.width), 0.5)
            uniforms[:, layout.residual_columns] = 1.0 - 2.0**-53  # above every residual mass
            uniforms[:, column] = lattice
            weights = w[None] if shared else np.tile(w, (k, 1))
            counts = sample_block(weights, uniforms, layout).sum(axis=0)
            cum = np.cumsum(w[actions]) / w[actions].sum()
            expect = k * r * np.diff(cum, prepend=0.0)
            assert np.all(np.abs(counts[actions] - expect) <= 1.0)
            assert counts.sum() == counts[actions].sum() == math.ceil(k * r)


class TestUniformStream:
    def test_rows_are_philox_doubles(self):
        block = np.random.Generator(np.random.Philox(key=21)).random((50, 12))
        npt.assert_array_equal(uniform_stream(21, 12).random((50, 12)), block)
        for t in (0, 1, 17, 49):
            npt.assert_array_equal(uniform_stream(21, 12, t).random(12), block[t])
        stream = uniform_stream(21, 12, 3)
        npt.assert_array_equal(np.vstack([stream.random((4, 12)), stream.random((9, 12))]),
                               block[3:16])
        with pytest.raises(ValueError, match="multiple of 4"):
            uniform_stream(21, 10)
        with pytest.raises(ValueError, match="non-negative"):
            draw_one(np.ones(1), 21, 0, RowLayout(ActionSet.from_energies([0.25])))

    def test_draw_equals_row_of_the_seed_block(self):
        # one call draws all 300 trials; a later start draws the same rows
        rng = np.random.default_rng(10)
        for beta_max in (0.49, 0.9):
            aset = random_action_set(rng, 200, beta_max=beta_max)
            layout = RowLayout(aset)
            weights = feasible_rows(rng, aset.z, 300)
            for seed in (0, 5):
                blocks = draw_trials(weights, seed, layout)
                uniforms = np.random.Generator(np.random.Philox(key=seed)).random(
                    (300, layout.width))
                npt.assert_array_equal(blocks, sample_block(weights, uniforms, layout))
                # from trial s on: rows s: of the whole draw
                for s in (81, 163):
                    npt.assert_array_equal(draw_trials(weights[s:], seed, layout, s), blocks[s:])
                for t in range(1, 301, 13):
                    npt.assert_array_equal(draw_one(weights[t - 1], seed, t, layout),
                                           np.flatnonzero(blocks[t - 1]))


class TestSampling:
    def test_zero_weights_select_nothing(self):
        aset = ActionSet.from_energies([0.25, 0.0, 0.1])
        layout = RowLayout(aset)
        uniforms = rows_of(0, 0, 50, layout.width)
        assert not sample_block(np.zeros((50, 3)), uniforms, layout).any()

    def test_infeasible_weights_rejected(self):
        aset = ActionSet.from_energies([0.5, 0.5])
        layout = RowLayout(aset)
        uniforms = rows_of(0, 0, 2, layout.width)
        for w in ([[1.5, 1.5]], [[0.5, 0.5], [np.nan, 0.0]], [[-0.1, 0.0]]):
            with pytest.raises(ValueError, match="feasible polytope"):
                sample_block(np.array(w), uniforms[:len(w)], layout)
        with pytest.raises(ValueError, match="shape"):
            sample_block(np.zeros((3, 2)), uniforms, layout)
        # a prepared shared row checks its weight row once, and each column's length
        for w in ([1.5, 1.5], [-0.1, 0.0]):
            with pytest.raises(ValueError, match="feasible polytope"):
                sampler.SharedRow(np.array(w), layout)
        with pytest.raises(ValueError, match="shape"):
            sampler.SharedRow(np.zeros((1, 2)), layout)
        with pytest.raises(ValueError, match="shape"):
            sampler.SharedRow(np.zeros(2), layout).draw(2, lambda j: uniforms[1:, j])

    def test_selections_always_within_budget(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            aset = random_action_set(rng, n, beta_max=0.49)
            layout = RowLayout(aset)
            w = random_feasible_point(rng, aset.z)
            member = sample_block(w[None], rng.random((100, layout.width)), layout)
            assert float((member @ aset.z).max()) <= 1.0 + 1e-12

    def test_same_seed_reproduces_selections(self):
        aset = ActionSet.from_energies([0.3, 0.1, 0.0, 0.05])
        layout = RowLayout(aset)
        w = np.array([[0.9, 0.5, 0.7, 0.2]])
        runs = [sample_block(w, rows_of(seed, 0, 40, layout.width), layout)
                for seed in (1234, 1234, 1235)]
        npt.assert_array_equal(runs[0], runs[1])
        assert not np.array_equal(runs[0], runs[2])

    def test_single_action_marginal(self):
        # n=1, z=0.25, w=1: P(select) = delta * w = 0.25 exactly, tested
        # against that marginal's standard error
        aset = ActionSet.from_energies([0.25])
        freq = estimate_selection_probs([1.0], aset, 100_000, seed=61)
        assert abs(freq[0] - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / 100_000)

    def test_batch_and_single_draw_paths_agree(self):
        # one draw per trial replays the seed's block bitwise, and the
        # block's frequencies match the exact marginals
        aset = ActionSet.from_energies([0.4, 0.4, 0.1, 0.0, 0.03, 0.25])
        layout = RowLayout(aset)
        w = random_feasible_point(np.random.default_rng(3), aset.z)
        exact = exact_selection_probs(w, aset)
        n_draws = 100_000
        batch = sample_block(w[None], rows_of(67, 0, n_draws, layout.width), layout)
        for t in range(1, 2001):
            assert draw_one(w, 67, t, layout).tolist() == np.flatnonzero(batch[t - 1]).tolist()
        sigma = np.sqrt(exact * (1.0 - exact) / n_draws)
        assert np.all(np.abs(batch.mean(axis=0) - exact) <= 5.0 * np.maximum(sigma, 1e-9))

    @pytest.mark.parametrize("shared", [True, False])
    def test_energy_check_reads_the_returned_membership(self, shared, monkeypatch):
        # a draw routine that marks every action of a set whose energies sum to 1.2
        def mark_all(member, *args):
            member[:] = True

        monkeypatch.setattr(sampler, "_draw_shared", mark_all)
        monkeypatch.setattr(sampler, "_draw_per_row", mark_all)
        layout = RowLayout(ActionSet.from_energies([0.4, 0.4, 0.4]))
        weights = np.full((1 if shared else 6, 3), 0.5)
        with pytest.raises(ValueError, match="selection energy .* exceeds the unit budget"):
            sample_block(weights, rows_of(0, 0, 6, layout.width), layout)


class TestCountCheck:
    """The budget check clears a selection by its member count or sums its energies."""

    @staticmethod
    def check(monkeypatch, layout, target, shared):
        """``sample_block`` with both draw routines marking the rows of ``target``."""
        def mark(member, *args):
            member[:] = target

        monkeypatch.setattr(sampler, "_draw_shared", mark)
        monkeypatch.setattr(sampler, "_draw_per_row", mark)
        m, n = target.shape
        weights = np.zeros((1 if shared else m, n))  # no residual mass: no wrapper heads
        return sample_block(weights, rows_of(0, 0, m, layout.width), layout)

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.1, 0.25, 1 / 3, 0.4, 0.49, 0.5, 0.75, 1.0])
    def test_cleared_count_fits_the_budget(self, beta):
        # every selection of at most `cleared` members of energy beta fits, summed
        # exactly or by einsum; the pad takes at most one member off floor(1 / beta)
        n = 2000
        layout = RowLayout(ActionSet.from_energies(np.full(n, beta)))
        c = layout.cleared
        if beta == 0.0:
            assert c == n
            return
        assert min(n, math.floor(1 / beta) - 1) <= c <= min(n, math.floor(1 / beta))
        # einsum's sum of c terms rounds up by a factor of at most 1 + 2 (c - 1) 2**-53
        assert c * Fraction(beta) * (1 + Fraction(2 * (c - 1), 2**53)) <= 1
        assert np.einsum("ij,j->i", np.ones((1, c), bool), layout.z[:c])[0] <= 1.0
        fewer = c // 2 or 1  # with fewer actions than that, every selection is cleared
        assert RowLayout(ActionSet.from_energies(np.full(fewer, beta))).cleared == fewer

    def test_probcheck_instances_clear_two_members(self):
        # a prefix bound over the c largest energies clears the same count on these
        for n, seed in ((40, 0), (1000, 5)):
            rng = np.random.default_rng(seed)
            z = rng.uniform(0.0, 0.49, n)
            layout = RowLayout(ActionSet.from_energies(z))
            top = np.sort(z)[::-1].cumsum()
            assert layout.cleared == int(np.searchsorted(top, 1.0, side="right")) == 2

    @pytest.mark.parametrize("shared", [True, False])
    def test_fuzzed_memberships_match_an_einsum_reference(self, shared, monkeypatch):
        rng = np.random.default_rng(71 + shared)
        verdicts = set()
        for trial in range(300):
            n = int(rng.choice([1, 3, 8, 40, 300]))
            beta = float(rng.choice([0.05, 0.2, 0.3, 0.45, 0.49, 0.6, 1.0]))
            z = rng.uniform(0.0, beta, n)
            z[rng.random(n) < 0.2] = 0.0
            z[rng.integers(n)] = beta
            layout = RowLayout(ActionSet.from_energies(z))
            m = int(rng.integers(1, 60))
            # most rows at, or one or two above, the count the layout clears
            counts = np.minimum(n, layout.cleared + rng.integers(-1, 3, m))
            if trial % 3 == 0:  # a block whose rows are mostly cleared
                counts[rng.random(m) < 0.8] = min(n, layout.cleared)
            counts = np.maximum(counts, 0)
            heaviest = np.argsort(-z, kind="stable")
            target = np.zeros((m, n), bool)
            for r, c in enumerate(counts):
                pool = heaviest[:min(n, 2 * c)] if rng.random() < 0.5 else np.arange(n)
                target[r, rng.choice(pool, c, replace=False)] = True
            energy = np.einsum("ij,j->i", target, z)
            if energy.max() > 1.0 + BUDGET_SLACK:
                verdicts.add("raised")
                with pytest.raises(ValueError, match="selection energy .* exceeds the unit budget"):
                    self.check(monkeypatch, layout, target, shared)
            else:
                verdicts.add("passed")
                npt.assert_array_equal(self.check(monkeypatch, layout, target, shared), target)
        assert verdicts == {"raised", "passed"}

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("zeros", [253, 254, 300])
    def test_count_above_255_does_not_wrap(self, shared, zeros, monkeypatch):
        # 3 heavy actions of 0.45 beside `zeros` zero-energy ones: cleared is 2, and
        # a row of every action has 256, 257 or 303 members, 0 or 1 in a uint8
        z = np.concatenate((np.zeros(zeros), [0.45, 0.45, 0.45]))
        layout = RowLayout(ActionSet.from_energies(z))
        assert layout.cleared == 2
        target = np.zeros((4, z.size), bool)
        target[0] = True
        target[1, :zeros] = True  # 253 or more members of zero energy fit
        target[2, -1] = target[3, -2:] = True
        with pytest.raises(ValueError, match=r"selection energy .*1\.35.* exceeds the unit budget"):
            self.check(monkeypatch, layout, target, shared)
        npt.assert_array_equal(self.check(monkeypatch, layout, target[1:], shared), target[1:])

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_all_true_rows_are_counted_exactly(self, shared, n, monkeypatch):
        # every action of energy 0.45: a row of 3 or more members is over budget,
        # so it is refused exactly when its count is above `cleared`. Refused at
        # cleared = c - 1 and passed at cleared = c, a row of c members counts c,
        # in a uint8 (n = 255) and across the uint16 boundary
        layout = RowLayout(ActionSet.from_energies(np.full(n, 0.45)))
        assert layout.cleared == 2
        whole = np.ones((1, n), bool)
        with pytest.raises(ValueError, match="selection energy .* exceeds the unit budget"):
            self.check(monkeypatch, layout, whole, shared)
        for c in (n, n - 1, 255, 3):
            target = np.zeros((2, n), bool)  # two rows: F- and C-order blocks differ
            target[0, :c] = True
            assert target.sum() == c
            layout.cleared = c - 1
            with pytest.raises(ValueError, match="selection energy .* exceeds the unit budget"):
                self.check(monkeypatch, layout, target, shared)
            layout.cleared = c
            member = self.check(monkeypatch, layout, target, shared)
            assert member.flags.f_contiguous == shared != member.flags.c_contiguous
            npt.assert_array_equal(member, target)

    @pytest.mark.parametrize("shared", [True, False])
    def test_energy_one_in_wrapper_mode(self, shared, monkeypatch):
        # beta = 1 clears one member; the action of energy 1 fits beside zero-energy
        # ones, and beside any other energy it does not
        z = np.array([1.0, 0.0, 0.0, 0.3, 0.2])
        layout = RowLayout(ActionSet.from_energies(z))
        assert layout.wrapper and layout.cleared == 1
        fits = np.array([[1, 0, 0, 0, 0], [1, 1, 1, 0, 0], [0, 0, 0, 1, 1], [0] * 5], bool)
        npt.assert_array_equal(self.check(monkeypatch, layout, fits, shared), fits)
        with pytest.raises(ValueError, match=r"^selection energy 1\.2 exceeds the unit budget$"):
            self.check(monkeypatch, layout, np.vstack((fits, [[1, 0, 0, 0, 1]])), shared)

    def test_draws_at_energy_one_fit(self):
        rng = np.random.default_rng(83)
        z = rng.uniform(0.0, 1.0, 30)
        z[rng.random(30) < 0.3] = 0.0
        z[[0, 1]] = 1.0
        aset = ActionSet.from_energies(z)
        layout = RowLayout(aset)
        weights = feasible_rows(rng, aset.z, 500)
        uniforms = rng.random((500, layout.width))
        for w in (weights, weights[3:4]):
            npt.assert_array_equal(sample_block(w, uniforms, layout),
                                   reference_block(w, uniforms, aset))


class TestAnalyticBounds:
    def test_bounds_example(self):
        lower, upper = analytic_selection_bounds([1.0], 0, 0.25)
        assert upper == 0.25
        assert lower == pytest.approx(1.0 - math.exp(-0.25))

    def test_zero_weight_collapses_bounds(self):
        lower, upper = analytic_selection_bounds([0.0, 0.3], 0, 0.25)
        assert lower == 0.0 and upper == 0.0

    def test_intersection_bound_example(self):
        got = analytic_intersection_lower_bound([0.5, 0.5, 1.0], [0, 1], 0.25)
        assert got == pytest.approx(1.0 - math.exp(-0.25))

    def test_exact_probabilities_sit_inside_sandwich(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            aset = random_action_set(rng, n)
            w = random_feasible_point(rng, aset.z)
            exact = exact_selection_probs(w, aset)
            for i in range(n):
                lower, upper = analytic_selection_bounds(w, i, aset.delta)
                assert lower - 1e-12 <= exact[i] <= upper + 1e-12

    def test_exact_intersection_dominates_lower_bound(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            aset = random_action_set(rng, n)
            w = random_feasible_point(rng, aset.z)
            size = int(rng.integers(1, n + 1))
            subset = rng.choice(n, size=size, replace=False)
            exact = exact_intersection_prob(w, aset, subset)
            bound = analytic_intersection_lower_bound(w, subset, aset.delta)
            assert exact >= bound - 1e-12
