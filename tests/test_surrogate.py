import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import (KINDS, ActionSet, EnvironmentSpec, generate, is_feasible, learn,
                       project_onto_feasible, surrogate_gradient, surrogate_value)
import budgetmax.surrogate as surrogate_module
from budgetmax.environments import BLOCK_ENTRIES
from budgetmax.oracles import exact_expected_profit, finite_diff_gradient, projection_certificate
from budgetmax.surrogate import _sorted_rewards, _trial_pieces
from conftest import (random_action_set, random_feasible_point, random_trial, stacked, stream_of)


class TestRewardOrder:
    def test_descending_with_stable_ties(self):
        npt.assert_array_equal(_sorted_rewards([1.0, 3.0, 2.0, 3.0])[0], [1, 3, 2, 0])

    def test_all_equal_keeps_index_order(self):
        npt.assert_array_equal(_sorted_rewards([2.0, 2.0, 2.0])[0], [0, 1, 2])

    def test_signed_zeros_tie(self):
        npt.assert_array_equal(_sorted_rewards([0.0, -0.0, 1.0, -0.0, 0.0])[0], [2, 0, 1, 3, 4])


def stable_pieces(rewards, costs):
    """:func:`_trial_pieces` from one stable sort of every row, as a reference."""
    order = np.argsort(-rewards, axis=-1, kind="stable")
    r_sorted = np.take_along_axis(rewards, order, axis=-1)
    after = np.zeros_like(r_sorted)
    after[..., :-1] = r_sorted[..., 1:]
    c = np.take_along_axis(costs, order, axis=-1)
    return order, r_sorted - after, np.maximum(c, 0.0), np.minimum(c, 0.0)


def tie_block(rng, rows, n):
    """A ``(rows, n)`` reward block whose rows mix every kind of tie with none."""
    block = rng.uniform(-2.0, 2.0, (rows, n))
    for row in block:
        pattern = int(rng.integers(6))
        if pattern == 1:  # forced duplicates from a small pool
            row[:] = rng.choice(rng.uniform(-1.0, 1.0, 3), n)
        elif pattern == 2:  # every reward equal
            row[:] = row[0]
        elif pattern == 3:  # zeros of both signs among other values
            row[rng.random(n) < 0.5] = 0.0
            row[rng.random(n) < 0.5] = -0.0
        elif pattern == 4:  # one duplicate pair
            row[int(rng.integers(n))] = row[int(rng.integers(n))]
        elif pattern == 5:  # infinities of either sign, or NaNs, which sort last in index order
            row[rng.random(n) < 0.3] = rng.choice([np.inf, -np.inf, np.nan])
    return block


class TestTieRepair:
    """The unstable sort with its tie repair gives the stable order on every input."""

    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 2), (1, 9), (5, 1), (16, 2), (16, 7),
                                         (16, 100), (3, 1000)])
    def test_reward_order_is_the_stable_order(self, rows, n):
        rng = np.random.default_rng(rows * 10_000 + n)
        for _ in range(40):
            block = tie_block(rng, rows, n)
            stable = np.argsort(-block, axis=-1, kind="stable")
            npt.assert_array_equal(_sorted_rewards(block)[0], stable)
            for row, expected in zip(block, stable):
                npt.assert_array_equal(_sorted_rewards(row)[0], expected)

    @pytest.mark.parametrize("rows, n", [(1, 1), (16, 7), (16, 100), (3, 1000)])
    def test_trial_pieces_keep_their_bits(self, rows, n):
        rng = np.random.default_rng(rows * 10_000 + n + 1)
        for _ in range(40):
            rewards = tie_block(rng, rows, n)
            costs = rng.uniform(-1.0, 1.0, (rows, n))
            costs[rng.random((rows, n)) < 0.2] = -0.0
            with np.errstate(invalid="ignore"):  # inf - inf in the drops
                pieces = _trial_pieces(rewards, costs)
                expected = stable_pieces(rewards, costs)
                rows_alone = [_trial_pieces(r, c) for r, c in zip(rewards, costs)]
            for got, want in zip(pieces, expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for i, one in enumerate(rows_alone):
                for got, want in zip(one, expected):
                    assert got.tobytes() == want[i].tobytes()

    def test_learn_keeps_its_bits_where_ties_move_the_gradient(self, monkeypatch):
        # ties between non-zero rewards: their order sets the prefix sums' bits
        rng = np.random.default_rng(131)
        aset = random_action_set(rng, 50)
        stream = stream_of(aset, [random_trial(rng, 50, tie_frac=0.5) for _ in range(300)])
        traj = learn(stream)
        monkeypatch.setattr(surrogate_module, "_trial_pieces", stable_pieces)
        reference = learn(stream)
        for got, want in zip(vars(traj).values(), vars(reference).values()):
            assert got.tobytes() == want.tobytes()


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


def reference_learn(stream):
    """``(weights, grad_norm, eta)`` of one projected-gradient step per trial.

    Each step takes :func:`surrogate_gradient` of one row and projects with
    :func:`project_onto_feasible`; ``eta' = min(eta', sqrt(n) / |g|)`` starts
    at infinity, and no step is taken while it is infinite.
    """
    aset = stream.action_set
    w, eta_prime = np.zeros(aset.n), math.inf
    weights, grad_norm, eta = [], [], []
    for t, (rewards, costs) in enumerate(zip(*stacked(stream)), start=1):
        weights.append(w)
        g = surrogate_gradient(w, rewards, costs, aset.delta)
        grad_norm.append(float(np.linalg.norm(g)))
        if grad_norm[-1] > 0.0:
            eta_prime = min(eta_prime, math.sqrt(aset.n) / grad_norm[-1])
        eta.append(eta_prime / math.sqrt(2.0 * t) if eta_prime < math.inf else 0.0)
        if eta_prime < math.inf:
            w = project_onto_feasible(w - eta[-1] * g, aset.z)
    return np.array(weights), np.array(grad_norm), np.array(eta)


class TestUpdateWeights:
    """The projected-gradient weight update and its step rule, as :func:`learn` runs them."""

    def test_first_step_example(self):
        # z = 0 gives delta = 1, so at w = 0 the gradient is costs - rewards = 0.5
        aset = ActionSet.from_energies([0.0])
        traj = learn(stream_of(aset, [([0.0], [0.5])] * 2))
        assert traj.grad_norm[0] == 0.5
        # eta' = sqrt(1) / 0.5 = 2, eta = eta' / sqrt(2 * 1)
        assert traj.eta[0] == pytest.approx(math.sqrt(2.0))
        npt.assert_array_equal(traj.weights[1], [0.0])  # y = -0.7071 clamps back to 0

    def test_zero_gradient_before_any_step_is_skipped(self):
        # zero and subnormal gradients leave eta' infinite: no step
        aset = ActionSet.from_energies([0.0])
        null, tiny, real = ([0.0], [0.0]), ([0.0], [-5e-324]), ([0.0], [-1.0])
        assert surrogate_gradient([0.0], *tiny, aset.delta)[0] == -5e-324
        traj = learn(stream_of(aset, [null, tiny, null, tiny, real, null]))
        npt.assert_array_equal(traj.grad_norm[:5], [0.0, 0.0, 0.0, 0.0, 1.0])  # |g|^2 underflows
        npt.assert_array_equal(traj.eta[:4], 0.0)
        npt.assert_array_equal(traj.weights[:5], 0.0)
        # the first usable gradient sets eta' = 1 on trial 5
        assert traj.eta[4] == 1.0 / math.sqrt(10.0)
        assert traj.weights[5, 0] > 0.0

    def test_zero_gradient_after_a_step_keeps_weights(self):
        # negative costs drive w to the corner [1, 1], where <w, z> = 1 binds
        aset = ActionSet.from_energies([0.5, 0.5])
        drive, null = ([0.0, 0.0], [-1.0, -1.0]), ([0.0, 0.0], [0.0, 0.0])
        traj = learn(stream_of(aset, [drive] * 3 + [null] * 50))
        npt.assert_array_equal(traj.weights[3:], np.ones((50, 2)))
        # eta' stays put while the trial index advances
        eta_prime = traj.eta[3] * math.sqrt(8.0)
        t = np.arange(4, 54)
        npt.assert_allclose(traj.eta[3:], eta_prime / np.sqrt(2.0 * t), rtol=1e-15)

    def test_learning_rate_running_min(self):
        # z = 0, zero rewards: gradient = costs at w = 0, and w stays clamped at 0
        aset = ActionSet.from_energies([0.0])
        traj = learn(stream_of(aset, [([0.0], [c]) for c in (1.0, 2.0, 0.5)]))
        npt.assert_array_equal(traj.grad_norm, [1.0, 2.0, 0.5])
        npt.assert_array_equal(traj.weights, np.zeros((3, 1)))
        # eta' = (1, 0.5, 0.5)
        npt.assert_array_equal(traj.eta, [1.0 / math.sqrt(2.0), 0.5 / math.sqrt(4.0),
                                          0.5 / math.sqrt(6.0)])

    def test_weights_stay_feasible_and_eta_monotone(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            aset = random_action_set(rng, n)
            traj = learn(stream_of(aset, [random_trial(rng, n) for _ in range(30)]))
            assert all(is_feasible(w, aset.z) for w in traj.weights)
            eta_prime = traj.eta * np.sqrt(2.0 * np.arange(1, 31))
            stepped = eta_prime[traj.eta > 0.0]
            assert np.all(stepped[1:] <= stepped[:-1] * (1.0 + 1e-15))

    @pytest.mark.parametrize("n, T", [(1, 70), (8, 2100), (100, 400), (1000, 40)])
    def test_learn_matches_per_trial_reference_bitwise(self, n, T):
        # tied rewards, null trials first (eta' unset), and T past one block of rows
        assert T > BLOCK_ENTRIES // n or n == 1
        rng = np.random.default_rng(n)
        aset = random_action_set(rng, n)
        null = (np.zeros(n), np.zeros(n))
        trials = [null] * 3 + [random_trial(rng, n, tie_frac=0.5) for _ in range(T - 3)]
        stream = stream_of(aset, trials)
        traj = learn(stream)
        weights, grad_norm, eta = reference_learn(stream)
        assert np.array_equal(traj.weights, weights)
        assert np.array_equal(traj.grad_norm, grad_norm)
        assert np.array_equal(traj.eta, eta)

    @pytest.mark.parametrize("kind", KINDS)
    def test_learn_matches_per_trial_reference_on_every_kind(self, kind):
        stream = generate(EnvironmentSpec(kind=kind, n=8, T=60, seed=4))
        traj = learn(stream)
        weights, grad_norm, eta = reference_learn(stream)
        assert np.array_equal(traj.weights, weights)
        assert np.array_equal(traj.grad_norm, grad_norm)
        assert np.array_equal(traj.eta, eta)


class TestLearnBlocks:
    """``learn_blocks`` over a stream's row slices yields blocks whose rows are ``learn``'s, bit for bit."""

    # n = 100 learns 163 rows per block: one block, an exact multiple of it,
    # and a short last block; n = 20000 learns one row per block
    @pytest.mark.parametrize("n, T", [(100, 100), (100, 326), (100, 400), (20000, 3)])
    def test_blocks_concatenate_to_learn(self, n, T):
        rng = np.random.default_rng(T)
        aset = random_action_set(rng, n)
        stream = stream_of(aset, [random_trial(rng, n, tie_frac=0.3) for _ in range(T)])
        rows = max(1, BLOCK_ENTRIES // n)
        starts, block_rewards, block_costs, blocks = zip(
            *surrogate_module.learn_blocks(stream.action_set, stream.blocks()))
        assert list(starts) == list(range(0, T, rows))
        # each block comes back next to its trajectory, as it was read
        for start, rewards, costs in zip(starts, block_rewards, block_costs):
            assert np.shares_memory(rewards, stream.rewards)
            assert np.array_equal(rewards, stream.rewards[start:start + rows])
            assert np.array_equal(costs, stream.costs[start:start + rows])
        for block in blocks:
            for array in (block.weights, block.grad_norm, block.eta, block.lam):
                assert len(array) == len(block.eta) <= rows
                assert array.flags.writeable is False
        assert all(len(block.eta) == rows for block in blocks[:-1])
        traj = learn(stream)
        for name in ("weights", "grad_norm", "eta", "lam"):
            whole = np.concatenate([getattr(block, name) for block in blocks])
            assert whole.tobytes() == getattr(traj, name).tobytes(), name
            assert getattr(traj, name).flags.writeable is False
        for got, expected in zip((traj.weights, traj.grad_norm, traj.eta),
                                 reference_learn(stream)):
            assert np.array_equal(got, expected)


class TestPinnedTrajectory:
    """SHA-256 of ``learn``'s arrays on three streams; these change only with the learner's bits."""

    PINNED = {
        # a wide stream where the budget binds on every step
        ("random_adversarial", 1000, 100, 0):
            "8abcba25a710cbde53c79075cf261d63cd3f060a3293b6e8b637f263ad172b7c",
        # a narrow stream where the budget binds on every step (the many_seeds benchmark's)
        ("knapsack_median", 8, 500, 11):
            "0a59c02d8f63556d62f366b2315a581ae67af002b94944a1a727cfeffe98c7c9",
        # a tie-heavy stream: about 28 % of its rows hold tied rewards (all ties at 0,
        # where their order leaves the bits alone; TestTieRepair covers the rest)
        ("facility_location", 100, 1500, 3):
            "e445646bb4eefe9b3c9b59002cc1d498efa9dfec73efb12e42205e7b1689d19d",
    }

    @pytest.mark.parametrize("kind, n, T, seed", list(PINNED))
    def test_trajectory_bytes(self, kind, n, T, seed):
        stream = generate(EnvironmentSpec(kind=kind, n=n, T=T, seed=seed))
        if kind == "facility_location":
            r_sorted = np.sort(stacked(stream)[0], axis=1)
            tied = float(np.mean((r_sorted[:, 1:] == r_sorted[:, :-1]).any(axis=1)))
            assert 0.2 < tied < 0.4
        traj = learn(stream)
        if kind != "facility_location":
            assert (traj.lam > 0.0).all()  # the budget binds on every step
        digest = hashlib.sha256()
        for array in (traj.weights, traj.grad_norm, traj.eta, traj.lam):
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.PINNED[(kind, n, T, seed)]


class TestMultiplier:
    """``Trajectory.lam``: the KKT multiplier of the budget in each step's projection."""

    @pytest.mark.parametrize("kind, n, T", [(kind, 8, 200) for kind in KINDS]
                             + [("random_adversarial", 100, 60)])
    def test_multiplier_is_the_certificates_and_positive_exactly_when_binding(self, kind, n, T):
        stream = generate(EnvironmentSpec(kind=kind, n=n, T=T, seed=6))
        aset, (rewards, costs) = stream.action_set, stacked(stream)
        traj = learn(stream)
        binding = 0
        for t in range(T - 1):
            if traj.eta[t] == 0.0:
                assert traj.lam[t] == 0.0
                continue
            g = surrogate_gradient(traj.weights[t], rewards[t], costs[t], aset.delta)
            y = traj.weights[t] - traj.eta[t] * g
            binds = float(np.clip(y, 0.0, 1.0) @ aset.z) > 1.0
            assert (traj.lam[t] > 0.0) == binds, t
            cert = projection_certificate(y, aset.z, traj.weights[t + 1])
            assert traj.lam[t] == pytest.approx(cert.lam, rel=1e-9, abs=0.0), t
            binding += binds
        if kind == "facility_location":
            assert binding == 0 and not traj.lam.any()  # zero energies never bind
        else:
            assert binding > 0

    def test_no_step_leaves_it_zero(self):
        aset = ActionSet.from_energies([0.5, 0.5])
        null = ([0.0, 0.0], [0.0, 0.0])
        traj = learn(stream_of(aset, [null] * 3 + [([0.0, 0.0], [-1.0, -1.0])] * 4))
        npt.assert_array_equal(traj.lam[:3], 0.0)
        assert traj.lam.flags.writeable is False
