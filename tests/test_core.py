import math

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import (ActionSet, InvalidEnergyError, Selection, TrialData,
                       derive_constants, discounted_profit, profit, selection_profits,
                       split_costs)
from conftest import random_trial


class TestDeriveConstants:
    def test_quarter_max(self):
        beta, tau, delta, alpha = derive_constants([0.25, 0.10])
        assert beta == 0.25
        assert tau == 0.5
        assert delta == 0.25
        assert alpha == 1.0 - math.exp(-0.25)

    def test_all_zero(self):
        beta, tau, delta, alpha = derive_constants([0.0, 0.0, 0.0])
        assert (beta, tau, delta) == (0.0, 1.0, 1.0)
        assert alpha == 1.0 - math.exp(-1.0)

    def test_energy_of_one_allowed(self):
        beta, tau, delta, alpha = derive_constants([1.0, 0.3])
        assert (beta, tau, delta, alpha) == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("z", [[1.5], [-0.1, 0.2], [np.nan], [np.inf], [], [[0.2]]])
    def test_invalid_energies(self, z):
        with pytest.raises(InvalidEnergyError):
            derive_constants(z)

    def test_identities_hold_on_random_energies(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            beta = float(rng.uniform(0.0, 1.0))
            b, tau, delta, alpha = derive_constants([beta, beta / 2.0])
            assert b == beta
            assert tau == 1.0 - math.sqrt(beta)
            assert delta == tau * tau
            assert alpha == 1.0 - math.exp(-delta)


class TestActionSet:
    def test_from_energies(self):
        aset = ActionSet.from_energies([0.25, 0.0, 0.1])
        assert aset.n == 3
        npt.assert_array_equal(aset.z, [0.25, 0.0, 0.1])
        assert aset.beta == 0.25 and aset.delta == 0.25

    def test_energies_frozen(self):
        aset = ActionSet.from_energies([0.25, 0.1])
        with pytest.raises(ValueError):
            aset.z[0] = 0.9


class TestSplitCosts:
    def test_example(self):
        pos, neg = split_costs([2.0, -3.0, 0.0])
        npt.assert_array_equal(pos, [2.0, 0.0, 0.0])
        npt.assert_array_equal(neg, [0.0, -3.0, 0.0])

    def test_parts_reassemble_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = rng.uniform(-5.0, 5.0, int(rng.integers(1, 30)))
            pos, neg = split_costs(c)
            npt.assert_array_equal(pos + neg, c)
            assert np.all(pos >= 0.0) and np.all(neg <= 0.0)
            assert np.all((pos == 0.0) | (neg == 0.0))


class TestTrialData:
    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            TrialData.from_arrays([1.0, -0.1], [0.0, 0.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TrialData.from_arrays([1.0], [0.0, 0.0])

    def test_split_stored(self):
        trial = TrialData.from_arrays([1.0, 2.0], [-0.5, 0.75])
        npt.assert_array_equal(trial.costs_pos, [0.0, 0.75])
        npt.assert_array_equal(trial.costs_neg, [-0.5, 0.0])


class TestSelection:
    def test_energy_sum(self):
        sel = Selection.from_indices([0, 2], [0.6, 0.6, 0.3])
        assert sel.total_energy == pytest.approx(0.9)
        assert sel.indices() == [0, 2]

    def test_duplicates_collapse(self):
        sel = Selection.from_indices([1, 1, 1], [0.3, 0.4])
        assert sel.actions == frozenset({1})
        assert sel.total_energy == 0.4

    def test_over_budget_rejected(self):
        with pytest.raises(ValueError):
            Selection.from_indices([0, 1], [0.6, 0.6])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Selection.from_indices([2], [0.3, 0.3])

    def test_empty(self):
        sel = Selection.empty()
        assert len(sel) == 0 and sel.total_energy == 0.0


class TestProfit:
    def test_example(self):
        trial = TrialData.from_arrays([5.0, 7.0], [1.0, 2.0])
        sel = Selection.from_indices([0, 1], [0.2, 0.2])
        assert profit(sel, trial.rewards, trial.costs) == 4.0

    def test_empty_selection_is_zero(self):
        trial = TrialData.from_arrays([5.0], [-1.0])
        assert profit(Selection.empty(), trial.rewards, trial.costs) == 0.0

    def test_negative_cost_adds(self):
        trial = TrialData.from_arrays([2.0], [-3.0])
        sel = Selection.from_indices([0], [0.1])
        assert profit(sel, trial.rewards, trial.costs) == 5.0


    def test_block_matches_single_selections(self):
        # best reward minus the costs added in ascending action order, also on
        # rows with 8 or more members, where np.sum's pairwise order rounds
        # differently; profit() of a single selection agrees bitwise
        rng = np.random.default_rng(41)
        m, n = 300, 30
        rewards, costs = rng.uniform(0.0, 2.0, (m, n)), rng.uniform(-1.0, 1.0, (m, n))
        member = rng.random((m, n)) < rng.uniform(0.0, 0.9, (m, 1))
        member[::10] = False
        rows, cols = np.nonzero(member)
        block = selection_profits(rows, cols, rewards, costs)
        for r in range(m):
            idx = np.flatnonzero(member[r])
            spent = 0.0
            for i in idx:
                spent += costs[r, i]
            expect = float(np.max(rewards[r, idx])) - spent if idx.size else 0.0
            sel = Selection.from_indices(idx, np.zeros(n))
            assert block[r] == expect == profit(sel, rewards[r], costs[r])
        assert (member.sum(axis=1) >= 8).sum() > 100 and (block[::10] == 0.0).all()


class TestDiscountedProfit:
    def test_splits_scale_separately(self):
        # one positive and one negative cost: alpha scales reward and the
        # negative part, delta scales the positive part
        trial = TrialData.from_arrays([4.0, 1.0], [2.0, -3.0])
        got = discounted_profit([0, 1], trial, alpha=0.5, delta=0.25)
        assert got == pytest.approx(0.5 * 4.0 - 0.5 * (-3.0) - 0.25 * 2.0)

    def test_empty_is_zero(self):
        trial = TrialData.from_arrays([4.0], [1.0])
        assert discounted_profit([], trial, 0.5, 0.25) == 0.0

    def test_unit_discounts_match_profit(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            trial = random_trial(rng, n)
            size = int(rng.integers(0, n + 1))
            idx = list(rng.choice(n, size=size, replace=False))
            sel = Selection.from_indices(idx, np.zeros(n))
            assert discounted_profit(idx, trial, 1.0, 1.0) == pytest.approx(
                profit(sel, trial.rewards, trial.costs), abs=1e-12)
