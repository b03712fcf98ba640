"""Acceptance gate: ten deterministic end-to-end checks.

Each test prints exactly one ``ACCEPTANCE k (...): PASS/FAIL`` line through
the capture (visible in any pytest run) and then asserts. Tolerances and
sizes are pinned; every random draw is seed-fixed, so the whole gate is
reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from budgetmax import (ActionSet, RowLayout, is_feasible, project_onto_feasible,
                       sample_block, surrogate_gradient, surrogate_value)
from budgetmax.cli import main, parse_config, run_experiment
from budgetmax.oracles import (analytic_intersection_lower_bound, analytic_selection_bounds,
                               estimate_hit_rates, estimate_selection_probs,
                               exact_intersection_prob, finite_diff_gradient,
                               grid_projection)


@pytest.fixture
def announce(capsys):
    def _announce(number, label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({label}): {status}{suffix}")
    return _announce


def fixed_sandwich_instances():
    """20 frozen (action_set, w) instances with n <= 8 for criteria 2 and 3."""
    instances = [
        (ActionSet.from_energies([0.25]), np.array([1.0])),          # P = 0.25 exactly
        (ActionSet.from_energies([0.0, 0.0, 0.0, 0.0]),              # all zero energy
         np.array([0.9, 0.0, 0.4, 1.0])),
        (ActionSet.from_energies([0.25, 0.125, 0.0625, 0.03125]),    # class boundaries
         np.array([0.8, 0.7, 0.6, 0.5])),
        (ActionSet.from_energies([0.49, 0.49, 0.49]),                # near the cap
         np.array([0.5, 0.5, 0.5])),
        (ActionSet.from_energies([0.3, 0.2, 0.1]), np.zeros(3)),     # zero weights
    ]
    rng = np.random.default_rng(20250301)
    while len(instances) < 20:
        n = int(rng.integers(1, 9))
        z = rng.uniform(0.0, 0.49, n)
        z[rng.random(n) < 0.25] = 0.0
        aset = ActionSet.from_energies(z)
        w = project_onto_feasible(rng.uniform(0.0, 1.5, n), aset.z)
        instances.append((aset, w))
    return instances


def random_gradient_instances():
    """200 frozen ((rewards, costs), w, delta) triples with n <= 8 for criteria 4 and 5."""
    rng = np.random.default_rng(424242)
    out = []
    for k in range(200):
        n = int(rng.integers(1, 9))
        delta = (0.01, 0.25, 1.0)[k % 3]
        rewards = rng.uniform(0.0, 2.0, n)
        if k % 7 == 0 and n >= 2:  # exercise reward ties
            rewards[1] = rewards[0]
        costs = rng.uniform(-1.0, 1.0, n)
        if k % 11 == 0:
            costs = np.abs(costs)
        w = rng.uniform(0.0, 1.5, n)
        out.append(((rewards, costs), w, delta))
    return out


def test_criterion_01_sampler_feasibility(announce):
    # 1e5 fuzzed (z, w, seed) instances, n <= 50, beta <= 0.49: the sampled
    # selection never exceeds the unit budget (slack 1e-12)
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    violations = 0
    for _ in range(100_000):
        n = int(rng.integers(1, 51))
        z = rng.uniform(0.0, 0.49, n)
        z[rng.random(n) < 0.2] = 0.0
        aset = ActionSet.from_energies(z)
        layout = RowLayout(aset)
        w = rng.uniform(0.0, 1.0, n)
        load = float(w @ z)
        if load > 1.0:  # rescale into the budget polytope, stays in the box
            w /= load
        try:  # the sampler also raises on a selection over budget
            member = sample_block(w[None], rng.random((1, layout.width)), layout)[0]
        except ValueError:
            violations += 1
            continue
        if float(np.sum(aset.z[member])) > 1.0 + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    announce(1, "sampler feasibility, 1e5 fuzzed instances", ok,
             f"violations={violations}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_selection_probability_sandwich(announce):
    # 20 fixed instances, 1e6 samples each: every per-action frequency within
    # [1-exp(-delta*w_i) - 3*sigma, delta*w_i + 3*sigma], sigma = 0.5/sqrt(N)
    t0 = time.perf_counter()
    n_samples = 1_000_000
    sigma = 0.5 / math.sqrt(n_samples)
    worst = -math.inf
    ok = True
    for idx, (aset, w) in enumerate(fixed_sandwich_instances()):
        freq = estimate_selection_probs(w, aset, n_samples, seed=5000 + idx)
        for i in range(aset.n):
            lower, upper = analytic_selection_bounds(w, i, aset.delta)
            gap = max(lower - freq[i], freq[i] - upper)
            worst = max(worst, gap / sigma)
            if not (lower - 3.0 * sigma <= freq[i] <= upper + 3.0 * sigma):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(2, "selection-probability sandwich, 20x1e6 samples", ok,
             f"worst overshoot={worst:.2f} sigma, {elapsed:.1f}s")
    assert ok


def test_criterion_03_intersection_lower_bound(announce):
    # same instances, 20 random subsets each: hit rate >= analytic lower
    # bound - 3*sigma and within 4*sigma of the exact product form
    n_samples = 1_000_000
    sigma = 0.5 / math.sqrt(n_samples)
    rng = np.random.default_rng(333)
    ok = True
    worst_bound = worst_exact = -math.inf
    for idx, (aset, w) in enumerate(fixed_sandwich_instances()):
        subsets = []
        for _ in range(20):
            size = int(rng.integers(1, aset.n + 1))
            subsets.append(sorted(rng.choice(aset.n, size=size, replace=False)))
        rates = estimate_hit_rates(w, aset, subsets, n_samples, seed=7000 + idx)
        for sub, rate in zip(subsets, rates):
            bound = analytic_intersection_lower_bound(w, sub, aset.delta)
            exact = exact_intersection_prob(w, aset, sub)
            worst_bound = max(worst_bound, (bound - rate) / sigma)
            worst_exact = max(worst_exact, abs(rate - exact) / sigma)
            if rate < bound - 3.0 * sigma or abs(rate - exact) > 4.0 * sigma:
                ok = False
    announce(3, "intersection hit-rate lower bound, 20x20 subsets", ok,
             f"worst bound gap={worst_bound:.2f} sigma, worst exact dev={worst_exact:.2f} sigma")
    assert ok


def test_criterion_04_gradient_matches_finite_differences(announce):
    # 200 random instances: analytic gradient vs central differences
    # (h = 1e-5), per-coordinate error <= 1e-6 relative to max(1, |g|, |fd|)
    worst = 0.0
    for trial, w, delta in random_gradient_instances():
        g = surrogate_gradient(w, *trial, delta)
        fd = finite_diff_gradient(lambda v: surrogate_value(v, *trial, delta), w, 1e-5)
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    ok = worst <= 1e-6
    announce(4, "gradient vs central differences, 200 instances", ok,
             f"worst rel err={worst:.2e}")
    assert ok


def test_criterion_05_gradient_norm_bound(announce):
    # ||g||^2 <= n * delta^2 * (r_hat + c_hat)^2, exact inequality,
    # on every instance of criterion 4
    ok = True
    worst = -math.inf
    for (rewards, costs), w, delta in random_gradient_instances():
        g = surrogate_gradient(w, rewards, costs, delta)
        r_hat = float(np.max(rewards))
        c_hat = float(np.max(np.abs(costs)))
        bound = rewards.size * delta ** 2 * (r_hat + c_hat) ** 2
        sq = float(g @ g)
        worst = max(worst, sq - bound)
        if sq > bound:
            ok = False
    announce(5, "gradient-norm bound, 200 instances", ok,
             f"worst margin={worst:.2e}")
    assert ok


def test_criterion_06_surrogate_convexity(announce):
    # 1000 random midpoint checks: F(m) <= (F(a)+F(b))/2 + 1e-9
    rng = np.random.default_rng(666)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        delta = float(rng.uniform(0.005, 1.0))
        trial = rng.uniform(0.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
        a = rng.uniform(0.0, 2.0, n)
        b = rng.uniform(0.0, 2.0, n)
        mid = surrogate_value((a + b) / 2.0, *trial, delta)
        if mid > (surrogate_value(a, *trial, delta) + surrogate_value(b, *trial, delta)) / 2.0 + 1e-9:
            failures += 1
    ok = failures == 0
    announce(6, "surrogate midpoint convexity, 1000 checks", ok, f"failures={failures}")
    assert ok


def test_criterion_07_expected_profit_floor(announce):
    # exact_expected_profit >= -surrogate_value with 1e-10 slack, 500 instances
    from budgetmax.oracles import exact_expected_profit
    rng = np.random.default_rng(777)
    failures = 0
    worst = math.inf
    for k in range(500):
        n = int(rng.integers(1, 7))
        z = rng.uniform(0.0, 0.49, n)
        z[rng.random(n) < 0.25] = 0.0
        aset = ActionSet.from_energies(z)
        w = (np.zeros(n) if k % 25 == 0
             else project_onto_feasible(rng.uniform(0.0, 1.4, n), aset.z))
        trial = rng.uniform(0.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
        gap = exact_expected_profit(w, aset, *trial) + surrogate_value(w, *trial, aset.delta)
        worst = min(worst, gap)
        if gap < -1e-10:
            failures += 1
    ok = failures == 0
    announce(7, "expected-profit floor (exact), 500 instances", ok,
             f"failures={failures}, smallest gap={worst:.2e}")
    assert ok


def test_criterion_08_projection_optimality(announce):
    # 200 random y with n <= 4: solver distance <= grid distance + n*1e-4
    # (grid resolution per n: 1e-4, 1e-4, 1e-3, 4e-3; the grid optimum is
    # feasible at any resolution, so the slack stays n*1e-4);
    # plus idempotence and feasibility on 1e4 random y with n <= 50
    rng = np.random.default_rng(888)
    resolution = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 4e-3}
    ok = True
    worst = -math.inf
    for k in range(200):
        n = k % 4 + 1
        z = rng.uniform(0.0, 1.0, n)
        if rng.random() < 0.2:
            z[rng.integers(n)] = 0.0
        y = rng.uniform(-0.5, 2.0, n)
        x = project_onto_feasible(y, z)
        g = grid_projection(y, z, resolution[n])
        excess = float(np.linalg.norm(x - y) - np.linalg.norm(g - y))
        worst = max(worst, excess)
        if excess > n * 1e-4:
            ok = False
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        z = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(-2.0, 3.0, n)
        x = project_onto_feasible(y, z)
        if not is_feasible(x, z):
            ok = False
        if float(np.max(np.abs(project_onto_feasible(x, z) - x))) > 1e-10:
            ok = False
    announce(8, "projection vs grid oracle + idempotence/feasibility", ok,
             f"worst distance excess={worst:.2e}")
    assert ok


def test_criterion_09_regret_bound_three_environments(announce):
    # knapsack_01 / facility_location / knapsack_median, n=8, T=500,
    # 100 seeds: mean cumulative profit >= comparator - slack - 3*SE
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind in ("knapsack_01", "facility_location", "knapsack_median"):
        config = parse_config({
            "version": 1,
            "environment": {"kind": kind, "n": 8, "T": 500, "seed": 11},
            "seeds": list(range(100)),
            "bound_check": True,
        })
        report = run_experiment(config)
        if kind == "facility_location":
            assert report.delta == 1.0
            assert report.alpha == 1.0 - math.exp(-1.0)
        margin = report.mean_profit - (report.comparator_total - report.bound_slack
                                       - 3.0 * report.profit_stderr)
        details.append(f"{kind}: margin={margin:.1f}")
        if not report.bound_satisfied:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    announce(9, "regret bound, 3 environments x 100 seeds", ok,
             f"{'; '.join(details)}; {elapsed:.0f}s")
    assert ok


def test_criterion_10_byte_identical_reruns(announce, tmp_path):
    # identical config + seeds => byte-identical CSV outputs via the CLI
    config = {
        "version": 1,
        "environment": {"kind": "random_adversarial", "n": 6, "T": 60,
                        "seed": 9, "shift_segments": 3},
        "seeds": [0, 1, 2, 3],
        "bound_check": True,
    }
    outputs = []
    for run in range(2):
        cfg_path = tmp_path / f"config{run}.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / f"out{run}"
        code = main(["--config", str(cfg_path), "--out", str(out_dir), "run"])
        assert code == 0
        outputs.append(sorted((p.name, p.read_bytes()) for p in out_dir.iterdir()))
    names = [name for name, _ in outputs[0]]
    ok = outputs[0] == outputs[1] and any(n.startswith("trace_seed") for n in names)
    announce(10, "byte-identical CSV outputs on rerun", ok,
             f"{len(names)} files compared")
    assert ok
