import math

import numpy as np
import numpy.testing as npt

from budgetmax import (ActionSet, RowLayout, draw_trials, is_feasible, learn, read_stream,
                       sample_block, selection_profits, surrogate_value)
from budgetmax.cli import TRACE_HEAD, TRACE_HEADER, TRACE_TAIL, parse_config, run_experiment
from conftest import draw_one, random_action_set, random_trial, stacked, stream_of


def draw_all(layout, trajectory, seed):
    return [draw_one(w, seed, t, layout) for t, w in enumerate(trajectory.weights, start=1)]


class TestProtocol:
    def test_initial_state(self):
        aset = ActionSet.from_energies([0.3, 0.0])
        traj = learn(stream_of(aset, [([1.0, 0.0], [0.0, 0.5])]))
        npt.assert_array_equal(traj.weights, [[0.0, 0.0]])
        # the first step is taken at trial index 1: eta = eta' / sqrt(2 * 1)
        assert traj.eta[0] == math.sqrt(2) / traj.grad_norm[0] / math.sqrt(2.0)
        assert not RowLayout(aset).wrapper

    def test_large_mode_flag(self):
        assert RowLayout(ActionSet.from_energies([0.75, 0.1])).wrapper
        assert RowLayout(ActionSet.from_energies([0.5])).wrapper
        assert not RowLayout(ActionSet.from_energies([0.49])).wrapper

    def test_zero_weights_select_nothing(self):
        for z in ([0.3, 0.1], [0.9, 0.2], [0.0, 0.0]):
            layout = RowLayout(ActionSet.from_energies(z))
            assert len(draw_one(np.zeros(2), 5, 1, layout)) == 0

    def test_logged_profit_matches_core_formula(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config({
            "version": 1, "output_dir": str(out), "seeds": [9],
            "environment": {"kind": "random_adversarial", "n": 6, "T": 50, "seed": 127},
        })
        run_experiment(config)
        stream = read_stream(out / "stream.csv")
        traj = learn(stream)
        # each trial replayed on its own, its profit from the one profit definition
        selections = draw_all(RowLayout(stream.action_set), traj, 9)
        member = np.zeros((stream.T, stream.n), dtype=bool)
        for t, sel in enumerate(selections):
            member[t, sel] = True
        gains = selection_profits(*np.nonzero(member), *stacked(stream))
        text, cum = TRACE_HEADER + "\n", 0.0
        for t, (sel, gain) in enumerate(zip(selections, gains.tolist())):
            cum += gain
            text += (TRACE_HEAD + TRACE_TAIL) % (t + 1, ";".join(map(str, sel.tolist())), gain,
                                                 cum, traj.grad_norm[t], traj.eta[t])
        assert (out / "trace_seed9.csv").read_bytes() == text.encode("ascii")

    def test_null_trials_leave_weights_untouched(self):
        aset = ActionSet.from_energies([0.2, 0.1])
        null = ([0.0, 0.0], [0.0, 0.0])
        real = ([1.0, 0.0], [0.0, 0.5])
        traj = learn(stream_of(aset, [null] * 5 + [real]))
        npt.assert_array_equal(traj.weights, np.zeros((6, 2)))
        npt.assert_array_equal(traj.eta[:5], 0.0)
        npt.assert_array_equal(traj.grad_norm[:5], 0.0)
        # a real trial afterwards finally sets the learning rate
        assert traj.grad_norm[5] > 0.0 and traj.eta[5] > 0.0

    def test_same_seed_bitwise_identical_runs(self):
        rng = np.random.default_rng(131)
        aset = random_action_set(rng, 5)
        stream = stream_of(aset, [random_trial(rng, 5) for _ in range(40)])
        traj_a, traj_b = learn(stream), learn(stream)
        for field in ("weights", "grad_norm", "eta"):
            assert np.array_equal(getattr(traj_a, field), getattr(traj_b, field))
        layout = RowLayout(aset)
        npt.assert_equal(draw_all(layout, traj_a, 77), draw_all(layout, traj_b, 77))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(137)
        aset = random_action_set(rng, 5, zero_frac=0.0)
        traj = learn(stream_of(aset, [random_trial(rng, 5, c_scale=0.2) for _ in range(30)]))
        layout = RowLayout(aset)
        assert ([sel.tolist() for sel in draw_all(layout, traj, 1)]
                != [sel.tolist() for sel in draw_all(layout, traj, 2)])

    def test_eta_prime_non_increasing(self):
        # each step is eta'_t / sqrt(2 t), with eta'_t the running minimum of sqrt(n) / |g|
        rng = np.random.default_rng(139)
        aset = random_action_set(rng, 7)
        traj = learn(stream_of(aset, [random_trial(rng, 7) for _ in range(60)]))
        eta_prime = np.minimum.accumulate(math.sqrt(7) / traj.grad_norm)
        npt.assert_array_equal(traj.eta, eta_prime / np.sqrt(2.0 * np.arange(1, 61)))

    def test_weights_always_feasible(self):
        rng = np.random.default_rng(149)
        for _ in range(5):
            n = int(rng.integers(1, 10))
            aset = random_action_set(rng, n, beta_max=0.9)
            traj = learn(stream_of(aset, [random_trial(rng, n) for _ in range(40)]))
            assert all(is_feasible(w, aset.z) for w in traj.weights)


class TestExpectedProfitFloor:
    def test_monte_carlo_profit_beats_surrogate_floor(self):
        # frozen (w, trial): MC mean profit over 1e5 draws >= -F(w) - 4*SE
        rng = np.random.default_rng(151)
        for case in range(6):
            n = int(rng.integers(1, 7))
            aset = random_action_set(rng, n)
            # drive the weights somewhere non-trivial first
            warmup = [random_trial(rng, n, c_scale=0.3) for _ in range(25)]
            rewards, costs = random_trial(rng, n)
            w = learn(stream_of(aset, warmup + [(rewards, costs)])).weights[-1]
            layout = RowLayout(aset)
            uniforms = np.random.default_rng(1000 + case).random((100_000, layout.width))
            member = sample_block(w[None], uniforms, layout)
            best = np.where(member, rewards, -np.inf).max(axis=1)
            best[~member.any(axis=1)] = 0.0
            profits = best - member @ costs
            mean = float(profits.mean())
            se = float(profits.std(ddof=1) / math.sqrt(len(profits)))
            floor = -surrogate_value(w, rewards, costs, aset.delta)
            assert mean >= floor - 4.0 * se


class TestLargeEnergyMode:
    def heavy_driver_trial(self, n, heavy_idx):
        # negative costs on heavy actions pull their weights up fast
        costs = np.zeros(n)
        costs[heavy_idx] = -1.0
        return np.zeros(n), costs

    def test_selections_stay_feasible_with_heavy_actions(self):
        rng = np.random.default_rng(157)
        for seed in range(4):
            n = int(rng.integers(2, 10))
            z = rng.uniform(0.0, 1.0, n)
            z[int(rng.integers(n))] = float(rng.uniform(0.5, 1.0))  # ensure a heavy one
            aset = ActionSet.from_energies(z)
            layout = RowLayout(aset)
            assert layout.wrapper
            traj = learn(stream_of(aset, [random_trial(rng, n) for _ in range(80)]))
            assert all(aset.z[sel].sum() <= 1.0 + 1e-12 for sel in draw_all(layout, traj, seed))

    def test_heads_picks_single_heavy_action(self):
        # all actions heavy: the capped partition is empty, so any non-empty
        # selection must come from the coin branch and be a singleton
        aset = ActionSet.from_energies([0.75, 0.6, 0.55])
        layout = RowLayout(aset)
        assert len(layout.classes) == 0
        traj = learn(stream_of(aset, [self.heavy_driver_trial(3, [0, 1, 2])] * 400))
        picks = []
        for sel in draw_all(layout, traj, 11):
            if sel.size:
                assert sel.size == 1
                picks.extend(sel.tolist())
        assert set(picks) == {0, 1, 2}  # every heavy action shows up

    def test_heads_frequency_matches_quarter_mass(self):
        # a valid w (<w, z> = 1) over fresh substreams; with both actions
        # heavy the whole weight mass is 2, heads prob 1/2
        z = np.array([0.5, 0.5])
        aset = ActionSet.from_energies(z)
        layout = RowLayout(aset)
        assert len(layout.classes) == 0
        trials = 40_000
        block = np.broadcast_to([1.0, 1.0], (trials, 2))
        hits = int(draw_trials(block, 13, layout).any(axis=1).sum())
        freq = hits / trials
        expect = (1.0 + 1.0) / 4.0
        sigma = math.sqrt(expect * (1.0 - expect) / trials)
        assert abs(freq - expect) <= 4.0 * sigma

    def test_beta_one_runs_without_learning(self):
        # delta = 0 at beta = 1: no step ever happens, selections stay valid
        aset = ActionSet.from_energies([1.0, 0.2])
        assert aset.delta == 0.0
        rng = np.random.default_rng(163)
        traj = learn(stream_of(aset, [random_trial(rng, 2) for _ in range(30)]))
        assert all(aset.z[sel].sum() <= 1.0 + 1e-12 for sel in draw_all(RowLayout(aset), traj, 17))
        npt.assert_array_equal(traj.weights, np.zeros((30, 2)))
