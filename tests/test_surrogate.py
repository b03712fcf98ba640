import math

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import (WeightState, is_feasible, reward_order, step_size,
                       surrogate_gradient, surrogate_value, update_weights)
from budgetmax.oracles import exact_expected_profit, finite_diff_gradient
from conftest import (random_action_set, random_feasible_point, random_trial)


class TestRewardOrder:
    def test_descending_with_stable_ties(self):
        npt.assert_array_equal(reward_order([1.0, 3.0, 2.0, 3.0]), [1, 3, 2, 0])

    def test_all_equal_keeps_index_order(self):
        npt.assert_array_equal(reward_order([2.0, 2.0, 2.0]), [0, 1, 2])


class TestSurrogateValue:
    def test_zero_weights_zero_value(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            trial = random_trial(rng, n)
            assert surrogate_value(np.zeros(n), *trial, float(rng.uniform(0.01, 1))) == 0.0

    def test_single_action_example(self):
        expected = -2.0 * (1.0 - math.exp(-1.0))
        assert surrogate_value([1.0], [2.0], [0.0], 1.0) == pytest.approx(expected, abs=1e-15)

    def test_negative_value_bounds_expected_profit(self):
        rng = np.random.default_rng(89)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            aset = random_action_set(rng, n)
            w = random_feasible_point(rng, aset.z)
            trial = random_trial(rng, n)
            exact = exact_expected_profit(w, aset, *trial)
            assert exact >= -surrogate_value(w, *trial, aset.delta) - 1e-10

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(97)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.01, 1.0))
            trial = random_trial(rng, n)
            a = rng.uniform(0.0, 2.0, n)
            b = rng.uniform(0.0, 2.0, n)
            mid = surrogate_value((a + b) / 2.0, *trial, delta)
            assert mid <= (surrogate_value(a, *trial, delta)
                           + surrogate_value(b, *trial, delta)) / 2.0 + 1e-9


class TestSurrogateGradient:
    def test_positive_cost_only(self):
        npt.assert_allclose(surrogate_gradient([0.3], [0.0], [0.7], 0.25), [0.25 * 0.7])

    def test_reward_pull_at_origin(self):
        for delta in (0.01, 0.3, 1.0):
            npt.assert_allclose(surrogate_gradient([0.0], [1.0], [0.0], delta), [-delta])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(103)
        for k in range(60):
            n = int(rng.integers(1, 9))
            delta = (0.01, 0.25, 1.0)[k % 3]
            trial = random_trial(rng, n, tie_frac=0.2 if k % 5 == 0 else 0.0)
            w = rng.uniform(0.0, 1.5, n)
            g = surrogate_gradient(w, *trial, delta)
            fd = finite_diff_gradient(lambda v: surrogate_value(v, *trial, delta), w, 1e-5)
            scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
            assert float(np.max(np.abs(g - fd) / scale)) <= 1e-6

    def test_norm_bound(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.01, 1.0))
            rewards, costs = random_trial(rng, n)
            w = rng.uniform(0.0, 1.5, n)
            g = surrogate_gradient(w, rewards, costs, delta)
            r_hat = float(np.max(rewards))
            c_hat = float(np.max(np.abs(costs)))
            assert float(g @ g) <= n * delta ** 2 * (r_hat + c_hat) ** 2 + 1e-12

    def test_tie_order_invariance(self):
        # swapping two actions with exactly equal rewards must swap their
        # gradient entries and leave the rest untouched
        rng = np.random.default_rng(109)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rewards, costs = random_trial(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            rewards[j] = rewards[i]
            w = rng.uniform(0.0, 1.5, n)
            delta = float(rng.uniform(0.01, 1.0))
            g = surrogate_gradient(w, rewards, costs, delta)

            perm = np.arange(n)
            perm[[i, j]] = perm[[j, i]]
            g_swapped = surrogate_gradient(w[perm], rewards[perm], costs[perm], delta)
            npt.assert_allclose(g_swapped[perm], g, rtol=0.0, atol=1e-12)


class TestUpdateWeights:
    def test_first_step_example(self):
        state = WeightState.initial(1)
        nxt = update_weights(state, np.array([0.5]), np.array([0.0]))
        assert nxt.eta_prime == pytest.approx(2.0)
        assert step_size(nxt.eta_prime, state.trial_index) == pytest.approx(math.sqrt(2.0))
        npt.assert_array_equal(nxt.w, [0.0])  # y = -0.7071 clamps back to 0
        assert nxt.trial_index == 2

    def test_zero_gradient_before_any_step_is_skipped(self):
        state = WeightState.initial(3)
        nxt = update_weights(state, np.zeros(3), np.zeros(3))
        assert nxt.eta_prime is None
        npt.assert_array_equal(nxt.w, np.zeros(3))
        assert nxt.trial_index == 2
        assert step_size(nxt.eta_prime, 1) == 0.0

    def test_zero_gradient_after_a_step_keeps_weights(self):
        state = WeightState(np.array([0.4]), eta_prime=1.5, trial_index=4)
        nxt = update_weights(state, np.zeros(1), np.array([0.3]))
        npt.assert_array_equal(nxt.w, [0.4])
        assert nxt.eta_prime == 1.5

    def test_learning_rate_running_min(self):
        # n=1 gradient norms (1, 2, 0.5) give eta_prime (1, 0.5, 0.5)
        state = WeightState.initial(1)
        seen = []
        for gnorm in (1.0, 2.0, 0.5):
            state = update_weights(state, np.array([gnorm]), np.array([0.2]))
            seen.append(state.eta_prime)
        assert seen == [1.0, 0.5, 0.5]

    def test_weights_stay_feasible_and_eta_monotone(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            aset = random_action_set(rng, n)
            state = WeightState.initial(n)
            prev_eta = math.inf
            for _ in range(30):
                g = surrogate_gradient(state.w, *random_trial(rng, n), aset.delta)
                state = update_weights(state, g, aset.z)
                assert is_feasible(state.w, aset.z)
                if state.eta_prime is not None:
                    assert state.eta_prime <= prev_eta
                    prev_eta = state.eta_prime
