"""Experiment harness: config files, runs, traces, replay, and spot checks.

Config files are JSON with an explicit version::

    {
      "version": 1,
      "environment": {"kind": "knapsack_01", "n": 8, "T": 500, "seed": 7},
      "seeds": [0, 1, 2],
      "output_dir": "out",        // optional, non-empty; --out replaces it
      "bound_check": true          // optional, default false
    }

Unknown keys anywhere are errors, and validation reports every violation at
once; an :class:`ExperimentConfig` built in code is checked by the same
rules. A run writes one CSV trace per engine seed plus the generated stream
(so it can be replayed) and a JSON report, each under a temporary name
until the run has succeeded, into an output directory that holds no
trace of a seed it does not list. Both commands build a stream and
learn it one block at a time: ``run`` draws each block of the config's
generated stream when it is learned, and ``replay`` reads each back from
the temporary spool of the stream file it read; ``main`` closes the
stream, deleting a spool, when the run ends. Before it learns, a run
saves its stream with :func:`~budgetmax.environments.write_stream`, the
one writer of stream files: a generated stream is rendered, and a
replayed one is copied as it was read, not re-rendered with ``%.17g``.
Trace rows are
``trial,selected,profit,cum_profit,grad_norm,eta`` with the selected actions
as ascending semicolon-joined 0-based indices and floats at 17 significant
digits, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from itertools import accumulate, count
from pathlib import Path

import numpy as np

from .core import ActionSet, selection_profits
from .environments import (EnvironmentSpec, Stream, check_stream, generate, read_stream,
                           write_stream)
from .oracles import (MAX_EXHAUSTIVE_ACTIONS, analytic_selection_bounds, best_fixed_subset,
                      estimate_selection_probs, exact_selection_probs,
                      finite_diff_gradient)
from .projection import project_onto_feasible
from .sampler import RowLayout, draw_trials
from .surrogate import learn_blocks, surrogate_gradient, surrogate_value

CONFIG_VERSION = 1
TRACE_HEADER = "trial,selected,profit,cum_profit,grad_norm,eta"
# A trace row is its seed's head (trial, selection, profit, cum_profit) and
# its trial's tail (grad_norm, eta), which every seed shares.
TRACE_HEAD = "%d,%s,%.17g,%.17g,"
TRACE_TAIL = "%.17g,%.17g\n"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

# The count flags of each spot check; each must be at least 1.
COUNT_FLAGS = {"probcheck": ("actions", "samples"), "gradcheck": ("instances",)}


class ConfigError(ValueError):
    """Invalid experiment config; the message lists every violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an environment, its engine seeds and where to write.

    A config checks itself when it is built: one :class:`ConfigError` lists
    every violation, so a library caller cannot run a config that
    :func:`parse_config` would refuse. Seeds given as a list are kept as a
    tuple once they pass, so the config equals and hashes as one built
    with a tuple, or parsed from the same JSON.
    """

    environment: EnvironmentSpec
    seeds: tuple
    output_dir: str | None = None
    bound_check: bool = False

    def __post_init__(self):
        env = self.environment
        valid = isinstance(env, EnvironmentSpec)
        problems = [] if valid else [f"environment must be an EnvironmentSpec, got {_type_name(env)}"]
        problems += _run_problems(env.n if valid else None,
                                  self.seeds, self.output_dir, self.bound_check)
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        object.__setattr__(self, "seeds", tuple(self.seeds))


@dataclass(frozen=True)
class RunReport:
    """Summary of one experiment (one stream, several engine seeds)."""

    kind: str
    n: int
    T: int
    seeds: tuple
    per_seed_profit: tuple
    mean_profit: float
    profit_stderr: float
    r_hat: float
    c_hat: float
    alpha: float
    delta: float
    bound_slack: float
    comparator_subset: tuple | None
    comparator_total: float | None
    bound_satisfied: bool | None
    large_beta_mode: bool

    def summary_lines(self) -> list[str]:
        lines = [
            f"environment: {self.kind} (n={self.n}, T={self.T})",
            f"engine seeds: {len(self.seeds)}",
            f"mean cumulative profit: {self.mean_profit:.6g} (stderr {self.profit_stderr:.3g})",
            f"reward/cost ceilings: r_hat={self.r_hat:.6g}, c_hat={self.c_hat:.6g}",
            f"constants: alpha={self.alpha:.6g}, delta={self.delta:.6g}",
        ]
        if self.large_beta_mode:
            lines.append("large-energy wrapper: ACTIVE (experimental, no performance guarantee)")
        if self.comparator_total is not None:
            lines.append(f"best fixed subset: {list(self.comparator_subset)} "
                         f"discounted total {self.comparator_total:.6g}")
            lines.append(f"allowed slack: {self.bound_slack:.6g}")
            verdict = "satisfied" if self.bound_satisfied else "VIOLATED"
            lines.append(f"performance bound: {verdict}")
        return lines


def _type_name(value) -> str:
    return type(value).__name__


def parse_config(data) -> ExperimentConfig:
    """Validate a decoded JSON object, collecting every violation."""
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {_type_name(data)}")

    allowed_top = {"version", "environment", "seeds", "output_dir", "bound_check"}
    for key in sorted(set(data) - allowed_top):
        problems.append(f"unknown key {key!r}")
    version = data.get("version")
    if version != CONFIG_VERSION:
        problems.append(f"version must be {CONFIG_VERSION}, got {version!r}")

    env_spec = None
    env = data.get("environment")
    if not isinstance(env, dict):
        problems.append(f"environment must be an object, got {_type_name(env)}")
    else:
        allowed_env = {field.name for field in fields(EnvironmentSpec)}
        for key in sorted(set(env) - allowed_env):
            problems.append(f"unknown environment key {key!r}")
        kwargs = {k: v for k, v in env.items() if k in allowed_env}
        missing = [k for k in ("kind", "n", "T") if k not in kwargs]
        if missing:
            problems.append(f"environment missing required keys: {missing}")
        else:
            try:
                env_spec = EnvironmentSpec(**kwargs)
            except (TypeError, ValueError) as exc:
                problems.append(str(exc))

    seeds = data.get("seeds")
    output_dir = data.get("output_dir")
    bound_check = data.get("bound_check", False)
    problems += _run_problems(None if env_spec is None else env_spec.n,
                              seeds, output_dir, bound_check)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return ExperimentConfig(environment=env_spec, seeds=seeds,
                            output_dir=output_dir, bound_check=bound_check)


def _run_problems(n, seeds, output_dir, bound_check) -> list[str]:
    """The violations among a config's seeds, ``output_dir`` and ``bound_check``.

    ``n`` is the environment's action count, or None when the environment is
    invalid (its own violations are reported apart).
    """
    problems = []
    if not (isinstance(seeds, (list, tuple)) and seeds
            and all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds)):
        problems.append(f"seeds must be a non-empty list of non-negative integers, got {seeds!r}")
        seeds = []
    if len(set(seeds)) != len(seeds):
        problems.append("seeds must be distinct")
    if any(s >= 2**128 for s in seeds):  # Philox keys are 128-bit
        problems.append(f"seeds must be below 2**128, got {max(seeds)}")

    if output_dir is not None and not isinstance(output_dir, str):
        problems.append(f"output_dir must be a string, got {_type_name(output_dir)}")
    elif output_dir == "":  # Path("") is the working directory
        problems.append("output_dir must not be empty")
    if not isinstance(bound_check, bool):
        problems.append(f"bound_check must be a boolean, got {_type_name(bound_check)}")
    elif bound_check and n is not None and n > MAX_EXHAUSTIVE_ACTIONS:
        problems.append(f"bound_check needs n <= {MAX_EXHAUSTIVE_ACTIONS}, got {n}")
    return problems


def load_config(path, output_dir: str | None = None) -> ExperimentConfig:
    """Read and check the config file at ``path``.

    An ``output_dir`` given here (``--out``) replaces the file's before the
    check, so it is checked as the file's would be.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if output_dir is not None and isinstance(data, dict):
        data["output_dir"] = output_dir
    return parse_config(data)


def run_experiment(config: ExperimentConfig, stream: Stream | None = None) -> RunReport:
    """Learn the weights once over one stream, draw every engine seed, summarize.

    The weight trajectory does not depend on the engine seed, so the run
    learns it one block of trials at a time
    (:func:`~budgetmax.surrogate.learn_blocks`) and every seed draws each
    whole block by one :func:`~budgetmax.sampler.draw_trials` call before
    the next is learned. The stream is the config's generated one
    (:func:`~budgetmax.environments.generate`) unless one is passed in;
    either way it is checked against the config's shape and read only
    through its ``blocks()``. A generated stream draws each block
    only when the learner asks for it, and a replay's
    :class:`~budgetmax.environments.SpooledStream` reads each back from
    its spool, so a run holds one block of trials and one of learner
    state, whatever ``T`` is. Each run makes one
    :func:`~budgetmax.environments.check_stream` call, before any output,
    on the stream's energies and its ``value_range``, computed where its
    rows entered (a replay's folded as it was parsed, a ``Stream``'s from
    its matrices; a generated stream has none, which leaves its energies
    alone to check). ``r_hat`` and ``c_hat`` are the maxima of the blocks'
    maxima, taken as the learner reads them, so no block is drawn for the
    check.
    A bound check (``n`` is at most ``MAX_EXHAUSTIVE_ACTIONS``) passes the
    stream to its comparator after the pass, which stacks its ``blocks()``,
    read a second time, into whole matrices: a generated stream draws the
    same values again, and a replay reads its spool again, a block at a
    time.

    An ``output_dir`` that holds a ``trace_seed*.csv`` of a seed this run
    does not list is refused with a ``ValueError`` that names the
    directory and the file, before anything is written or removed: the
    run would replace its ``report.json`` and ``stream.csv`` and leave
    that trace beside them. Every other file a run writes replaces one
    of an earlier run whole, so a replay into its own run's directory
    still works; a leftover ``*.tmp`` never looks complete.

    A replay whose stream file is one of the run's temporary names (the
    leftover of a crashed run) is refused with a ``ValueError`` naming it,
    before any output, since the cleanup would delete it.

    With an ``output_dir``, every file is written under ``<name>.tmp``,
    each name listed before the first write: ``stream.csv`` first, saved
    whole by :func:`~budgetmax.environments.write_stream` before the first
    block is learned (a generated stream's blocks are drawn for it, and
    again for the learner; a replayed stream's file is copied, and the
    copy fails with an ``OSError`` naming the file if that file changed
    after it was read), then one ``trace_seed<k>.csv`` per seed, each
    created by its first block's write and appended to once per block,
    and ``report.json`` last. A trace is open only while one block's rows
    are appended to it, so one is open at a time however many seeds a
    config lists. Any exception, in any block, unlinks them all.
    Otherwise an earlier run's ``report.json`` is unlinked and they are
    renamed in that order, so a ``report.json`` marks a complete run even
    if a rename fails.
    """
    env = config.environment
    stream = generate(env) if stream is None else stream
    if (stream.n, stream.T) != (env.n, env.T):
        raise ConfigError(
            f"stream shape (n={stream.n}, T={stream.T}) does not match "
            f"config (n={env.n}, T={env.T})")
    action_set = stream.action_set
    check_stream(stream, env)

    out_dir = None if config.output_dir is None else Path(config.output_dir)
    if out_dir:  # a run replaces its report, its stream and its own seeds' traces
        ours = {f"trace_seed{seed}.csv" for seed in config.seeds}
        for held in sorted(out_dir.glob("trace_seed*.csv")):
            if held.name not in ours:
                raise ValueError(f"output directory {out_dir} holds another run's {held.name}")
    # every output file under its temporary name, in rename order: the
    # stream, each seed's trace, then the report
    temps = [] if out_dir is None else [out_dir / f"{name}.tmp" for name in (
        "stream.csv", *(f"trace_seed{seed}.csv" for seed in config.seeds), "report.json")]
    traces = temps[1:-1]
    for path in temps:  # the cleanup below would delete the stream a replay reads
        if stream.source and path.exists() and os.path.samefile(path, stream.source.path):
            raise ValueError(f"stream file {stream.source.path} is this run's temporary {path.name}")
    try:
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_stream(stream, temps[0])
        layout = RowLayout(action_set)
        per_seed = [0.0] * len(config.seeds)
        r_hat = c_hat = 0.0
        for start, rewards, costs, block in learn_blocks(action_set, stream.blocks()):
            r_hat = max(r_hat, float(rewards.max()))
            c_hat = max(c_hat, float(costs.max()), float(-costs.min()))
            if traces:  # each trial's grad_norm and eta, formatted once for every seed
                tails = [TRACE_TAIL % pair
                         for pair in zip(block.grad_norm.tolist(), block.eta.tolist())]
            for k, seed in enumerate(config.seeds):
                member = draw_trials(block.weights, seed, layout, start)
                rows, cols = np.nonzero(member)
                gains = selection_profits(rows, cols, rewards, costs).tolist()
                cums = list(accumulate(gains, initial=per_seed[k]))
                per_seed[k] = cums[-1]
                if traces:
                    ends = np.searchsorted(rows, np.arange(1, len(member))).tolist()
                    chosen = cols.tolist()
                    # one trace open at a time, however many seeds a config lists; the
                    # first block creates it, over any leftover of a crashed run
                    with open(traces[k], "a" if start else "w", encoding="ascii", newline="\n") as trace:
                        if not start:
                            trace.write(TRACE_HEADER + "\n")
                        trace.write("".join(
                            TRACE_HEAD % (t, ";".join(map(str, chosen[lo:hi])), gain, total) + tail
                            for t, gain, total, lo, hi, tail in zip(
                                count(start + 1), gains, cums[1:],
                                [0] + ends, ends + [len(chosen)], tails)))

        per_seed_arr = np.array(per_seed)
        mean = float(per_seed_arr.mean())
        stderr = (float(per_seed_arr.std(ddof=1) / math.sqrt(len(per_seed)))
                  if len(per_seed) > 1 else 0.0)
        slack = action_set.n * math.sqrt(2.0 * env.T) * action_set.delta * (r_hat + c_hat)

        comparator_subset = comparator_total = bound_satisfied = None
        if config.bound_check:
            comp = best_fixed_subset(stream, action_set.alpha, action_set.delta)
            comparator_subset = comp.subset
            comparator_total = comp.discounted_total
            bound_satisfied = mean >= comparator_total - slack - 3.0 * stderr

        report = RunReport(
            kind=env.kind, n=env.n, T=env.T, seeds=config.seeds,
            per_seed_profit=tuple(per_seed), mean_profit=mean, profit_stderr=stderr,
            r_hat=r_hat, c_hat=c_hat, alpha=action_set.alpha, delta=action_set.delta,
            bound_slack=slack, comparator_subset=comparator_subset,
            comparator_total=comparator_total, bound_satisfied=bound_satisfied,
            large_beta_mode=layout.wrapper,
        )
        if out_dir:
            temps[-1].write_text(
                json.dumps(vars(report), indent=2, sort_keys=True) + "\n", encoding="utf-8")
            (out_dir / "report.json").unlink(missing_ok=True)  # no old report beside new files
        for path in temps:
            os.replace(path, path.with_suffix(""))
    except BaseException:
        for path in temps:
            path.unlink(missing_ok=True)
        raise
    return report


def _probcheck(n: int, n_samples: int, seed: int, out) -> int:
    """Exact marginals vs the analytic sandwich, Monte Carlo marginals vs the exact ones."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 0.49, n)
    z[rng.random(n) < 0.2] = 0.0
    aset = ActionSet.from_energies(z)
    w = project_onto_feasible(rng.uniform(0.0, 1.5, n), aset.z)
    freq = estimate_selection_probs(w, aset, n_samples, seed + 1)
    exact = exact_selection_probs(w, aset)
    # the exact marginal's standard error: a frequency's own would be 0 when
    # a rare action is never drawn, which would fail any nonzero exact value
    sigma = np.sqrt(exact * (1.0 - exact) / n_samples)
    ok = True
    print(f"probcheck: n={n}, samples={n_samples}, delta={aset.delta:.6g}", file=out)
    for i in range(n):
        lower, upper = analytic_selection_bounds(w, i, aset.delta)
        # the exact marginal often meets a bound with equality, so only
        # rounding is allowed for, and the Monte Carlo check stays separate
        in_sandwich = lower - 1e-12 <= exact[i] <= upper + 1e-12
        near_exact = abs(freq[i] - exact[i]) <= 4.0 * max(sigma[i], 1e-9)
        ok = ok and in_sandwich and near_exact
        print(f"  action {i}: freq={freq[i]:.5f} exact={exact[i]:.5f} "
              f"bounds=[{lower:.5f}, {upper:.5f}] "
              f"{'ok' if in_sandwich and near_exact else 'VIOLATION'}", file=out)
    print(f"probcheck: {'PASS' if ok else 'FAIL'}", file=out)
    return EXIT_OK if ok else EXIT_INVALID


def _gradcheck(instances: int, seed: int, out) -> int:
    """Analytic gradient vs central differences over random small trials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        n = int(rng.integers(1, 9))
        delta = [0.01, 0.25, 1.0][k % 3]
        rewards = np.round(rng.uniform(0.0, 2.0, n), 3)
        costs = np.round(rng.uniform(-1.0, 1.0, n), 3)
        w = rng.uniform(0.0, 1.5, n)
        g = surrogate_gradient(w, rewards, costs, delta)
        fd = finite_diff_gradient(lambda v: surrogate_value(v, rewards, costs, delta), w, 1e-5)
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    ok = worst <= 1e-6
    print(f"gradcheck: {instances} instances, worst relative error {worst:.3e}", file=out)
    print(f"gradcheck: {'PASS' if ok else 'FAIL'}", file=out)
    return EXIT_OK if ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetmax",
        description="Online budget-constrained subset selection harness.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for commands that draw their own instances")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config's output_dir)")
    parser.add_argument("--config", default=None, help="path to a JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="generate the configured stream and run every seed")
    p_replay = sub.add_parser("replay", help="re-run a saved stream file")
    p_replay.add_argument("--stream", required=True, help="stream file from a previous run")
    p_prob = sub.add_parser("probcheck", help="Monte Carlo check of selection marginals")
    p_prob.add_argument("--actions", type=int, default=6)
    p_prob.add_argument("--samples", type=int, default=200_000)
    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the gradient")
    p_grad.add_argument("--instances", type=int, default=60)
    return parser


def _require_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config")
    return load_config(args.config, args.out)


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    try:
        for flag in COUNT_FLAGS.get(args.command, ()):
            if getattr(args, flag) < 1:
                raise ValueError(f"--{flag} must be a positive integer, got {getattr(args, flag)}")
        if args.command in COUNT_FLAGS and args.seed < 0:  # the spot checks draw from --seed
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command in ("run", "replay"):
            config = _require_config(args)
            stream = (read_stream(args.stream) if args.command == "replay"
                      else generate(config.environment))
            try:
                report = run_experiment(config, stream)
            finally:
                stream.close()  # a replay's spool
            print("\n".join(report.summary_lines()), file=out)
            if report.bound_satisfied is False:
                return EXIT_INVALID
        elif args.command == "probcheck":
            return _probcheck(args.actions, args.samples, args.seed, out)
        elif args.command == "gradcheck":
            return _gradcheck(args.instances, args.seed, out)
    except ValueError as exc:  # ConfigError and StreamFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
