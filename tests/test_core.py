import math

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import ActionSet, InvalidEnergyError, selection_profits
from budgetmax.oracles import discounted_profit
from conftest import random_trial


def profit_of(indices, rewards, costs):
    """Profit of one selection of one trial, through the block routine."""
    idx = np.asarray(indices, dtype=int)
    return float(selection_profits(np.zeros_like(idx), idx, np.array([rewards], dtype=float),
                                   np.array([costs], dtype=float))[0])


class TestDeriveConstants:
    def test_quarter_max(self):
        aset = ActionSet.from_energies([0.25, 0.10])
        assert aset.beta == 0.25
        assert aset.delta == 0.25
        assert aset.alpha == 1.0 - math.exp(-0.25)

    def test_all_zero(self):
        aset = ActionSet.from_energies([0.0, 0.0, 0.0])
        assert (aset.beta, aset.delta) == (0.0, 1.0)
        assert aset.alpha == 1.0 - math.exp(-1.0)

    def test_energy_of_one_allowed(self):
        aset = ActionSet.from_energies([1.0, 0.3])
        assert (aset.beta, aset.delta, aset.alpha) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("z", [[1.5], [-0.1, 0.2], [np.nan], [np.inf], [], [[0.2]]])
    def test_invalid_energies(self, z):
        with pytest.raises(InvalidEnergyError):
            ActionSet.from_energies(z)

    def test_identities_hold_on_random_energies(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            beta = float(rng.uniform(0.0, 1.0))
            aset = ActionSet.from_energies([beta, beta / 2.0])
            tau = 1.0 - math.sqrt(beta)
            assert aset.beta == beta
            assert aset.delta == tau * tau
            assert aset.alpha == 1.0 - math.exp(-aset.delta)


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


class TestProfit:
    def test_example(self):
        assert profit_of([0, 1], [5.0, 7.0], [1.0, 2.0]) == 4.0

    def test_empty_selection_is_zero(self):
        assert profit_of([], [5.0], [-1.0]) == 0.0
        assert profit_of(np.array([], dtype=int), [5.0], [-1.0]) == 0.0

    def test_negative_cost_adds(self):
        assert profit_of([0], [2.0], [-3.0]) == 5.0

    def test_block_matches_single_selections(self):
        # best reward minus the costs added in ascending action order, also on
        # rows with 8 or more members, where np.sum's pairwise order rounds
        # differently; a single selection on its own agrees bitwise
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
            assert block[r] == expect == profit_of(idx, rewards[r], costs[r])
        assert (member.sum(axis=1) >= 8).sum() > 100 and (block[::10] == 0.0).all()


class TestDiscountedProfit:
    def test_splits_scale_separately(self):
        # one positive and one negative cost: alpha scales reward and the
        # negative part, delta scales the positive part
        got = discounted_profit([0, 1], [4.0, 1.0], [2.0, -3.0], alpha=0.5, delta=0.25)
        assert got == pytest.approx(0.5 * 4.0 - 0.5 * (-3.0) - 0.25 * 2.0)

    def test_empty_is_zero(self):
        assert discounted_profit([], [4.0], [1.0], 0.5, 0.25) == 0.0

    def test_unit_discounts_match_profit(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            rewards, costs = random_trial(rng, n)
            size = int(rng.integers(0, n + 1))
            idx = np.sort(rng.choice(n, size=size, replace=False))
            assert discounted_profit(idx, rewards, costs, 1.0, 1.0) == pytest.approx(
                profit_of(idx, rewards, costs), abs=1e-12)
