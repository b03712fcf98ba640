"""Benchmark for the budgetmax command line.

Usage (from the repository root)::

    python3 bench/run_bench.py --workload many_seeds [--seed N] [--engine-seeds 0-3]
                               [--seconds 20] [--trace 0|1] [--smoke]
    python3 bench/run_bench.py --workload all --seconds 5

Each timed execution calls ``budgetmax.cli.main(argv)`` once, in a fresh
child process (``child.py``) that imports the package from this checkout's
``src/``. Load is a closed loop with one client: the next execution starts
only after the previous one has returned and its outputs have been checked.
BLAS/OpenMP pools are pinned to one thread. One warm-up execution is run
and discarded, then executions repeat until ``--seconds`` have passed.

Every output is checked by ``verify.py``, which imports nothing from
budgetmax. An execution that exits non-zero or fails a check counts in
``failed``, and any failure makes this script exit 1.

``--seed`` is the environment seed of the learner workloads (``mc_probcheck``
always checks the CLI's default instance); ``--engine-seeds`` overrides the
workload's engine seeds. Each workload's sizes, default seeds and smoke size
live in ``workloads.json``, with its ``layer_shares``: the share of traced
``main`` time spent in each module's own code (self time), from the first
traced run at the default seeds. Why each workload exists is stated in
``BENCHMARK.json``.

Times are scaled to a nominal machine speed: the parent times a fixed
reference kernel (``reference.py``) between executions, and each
execution's times are multiplied by ``REFERENCE_S`` over the mean of the
kernel times just before and after it. On a shared machine whose speed
drifts by tens of percent over minutes this keeps runs comparable; the
times as measured are reported too. The parent and its children are pinned
to one CPU, so the kernel and the executions share a core.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end metrics (medians over the timed executions). With
``--trace 1`` untraced and traced executions alternate, and the metrics are
the per-layer ones from the traced executions (``tracer.py``); their counts
must repeat exactly across executions. A readable report of every metric
and of the environment comes first, and the full result, spans included, is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import verify
from reference import reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))

THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# No bytecode is written, so every child compiles budgetmax alike and
# setup_s does not depend on whether an earlier run left a cache behind.
CHILD_ENV = {**os.environ, **THREAD_VARS, "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONHASHSEED": "0"}
CHILD_ENV.pop("PYTHONPATH", None)
CHILD_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
# Nominal reference kernel time: reported times are those of a machine on
# which reference.reference_seconds() takes this long.
REFERENCE_S = 0.2
# Read from report.json: deterministic for given code and seeds, so they are
# printed and recorded but carry no bound.
FACT_UNITS = {"profit_per_trial": "profit", "bound_margin": "ratio"}

MODULES = ("cli", "engine", "surrogate", "projection", "sampler", "core",
           "environments", "oracles", "trace")
PER_LAYER = {
    "surrogate.update_weights.calls": "count",
    "surrogate.update_weights.self_us": "us",
    "surrogate.surrogate_gradient.calls": "count",
    "surrogate.surrogate_gradient.us_per_call": "us",
    "projection.project_onto_feasible.calls": "count",
    "projection.project_onto_feasible.us_per_call": "us",
    "projection.bind_frac": "ratio",
    "engine.select.self_us": "us",
    "engine.select.p50_us": "us",
    "engine.select.p99_us": "us",
    "engine.observe.self_us": "us",
    "engine.observe.p50_us": "us",
    "engine.observe.p99_us": "us",
    "sampler.sample_selection.calls": "count",
    "sampler.sample_selection.us_per_call": "us",
    "sampler.selected_per_call": "count",
    "sampler.distinct_per_draw": "ratio",
    "sampler.sample_membership.calls": "count",
    "sampler.sample_membership.ns_per_sample": "ns",
    "oracles.exact_selection_probs.s": "s",
    "oracles.best_fixed_subset.s": "s",
    "environments.read_stream.s": "s",
    "environments.read_stream.bytes": "bytes",
    "environments.write_stream.s": "s",
    "environments.write_stream.bytes": "bytes",
    "environments.generate.s": "s",
    "environments.check_constraints.s": "s",
    "cli.trace_write.s": "s",
    "cli.trace_write.calls": "count",
    "core.TrialData.from_arrays.calls": "count",
    "core.TrialData.from_arrays.us_per_call": "us",
    "core.Selection.from_indices.calls": "count",
    "core.profit.calls": "count",
    "cli.main.s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    **{f"share.{m}": "ratio" for m in MODULES},
}
# Layer metrics fixed by the code and the inputs alone: they must repeat
# exactly across executions of one run, and across runs with one seed.
DETERMINISTIC = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")} | {
    "projection.bind_frac", "sampler.distinct_per_draw"}


class ExecutionError(Exception):
    """A child process failed to produce a result."""


def engine_seed_list(text: str) -> list[int]:
    """Parse ``0-3`` or ``0,2,5`` (or a mix) into a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"need distinct non-negative seeds, got {text!r}")
    return seeds


def environment_record() -> dict:
    """Where and on what the numbers were measured."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain"],
                check=True, capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_rev": rev, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": None, "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "thread_vars": THREAD_VARS}


def spawn(argv: list[str], cwd: Path, trace: bool) -> dict:
    """Run ``main(argv)`` in a fresh child; return its JSON result plus setup_s."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), "1" if trace else "0", "--", *argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ExecutionError(f"no result within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ExecutionError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - start
    return result


@dataclass
class Plan:
    """What one workload executes and how its outputs are checked."""

    argv: list[str]
    items: int            # trials x engine seeds, or Monte Carlo samples
    item_name: str
    check: Callable[[Path, str], dict]   # (execution dir, printed text) -> facts


def _report_facts(report: dict) -> dict:
    facts = {"profit_per_trial": report["mean_profit"] / report["T"]}
    if report.get("comparator_total") is not None:
        slack = report["bound_slack"]
        facts["bound_margin"] = (report["mean_profit"] - report["comparator_total"] + slack) / slack
    return facts


def _setup_run(argv: list[str], work: Path) -> None:
    result = spawn(argv, work, trace=False)
    if result["rc"] != 0:
        raise ExecutionError(f"set-up run exited {result['rc']}: {result['out'][-500:]}")


def prepare(name: str, params: dict, seed: int, engine_seeds: list[int], work: Path) -> Plan:
    """Write the workload's inputs under ``work`` and do its untimed set-up."""
    if name == "mc_probcheck":
        # The CLI's default instance on every seed: its PASS verdict pads the
        # analytic bounds by 3 sigma, and marginals that sit exactly on a
        # bound make it false-fail some instances (seed 3 of 0-40).
        actions, samples = params["actions"], params["samples"]
        return Plan(["probcheck", "--actions", str(actions), "--samples", str(samples)],
                    samples, "samples",
                    lambda exec_dir, text: verify.check_probcheck(text, actions) or {})

    env = {**params["environment"], "seed": seed}
    config = work / "config.json"
    config.write_text(json.dumps({"version": 1, "environment": env, "seeds": engine_seeds,
                                  "bound_check": name == "many_seeds"}), encoding="utf-8")
    items = env["T"] * len(engine_seeds)
    if name == "many_seeds":
        return Plan(["--config", str(config), "--out", "out", "run"], items, "trials",
                    lambda exec_dir, text: _report_facts(verify.check_run_dir(
                        exec_dir / "out", engine_seeds, require_bound=True)))

    recorded = work / "recorded"
    _setup_run(["--config", str(config), "--out", str(recorded), "run"], work)
    report = verify.check_run_dir(recorded, engine_seeds)
    facts = _report_facts(report)
    if name == "wide_one_seed":
        def check_wide(exec_dir, text):
            verify.check_summary(text, env["kind"], env["n"], env["T"], report["mean_profit"])
            return facts
        return Plan(["--config", str(config), "run"], items, "trials", check_wide)
    if name == "replay_stream":
        digests = {p.name: verify.sha256(p) for p in sorted(recorded.iterdir())}

        def check_replay(exec_dir, text):
            verify.check_same_bytes(exec_dir / "out", digests)
            return facts
        return Plan(["--config", str(config), "--out", "out", "replay",
                     "--stream", str(recorded / "stream.csv")], items, "trials", check_replay)
    raise ValueError(f"unknown workload {name!r}")


def execute(plan: Plan, exec_dir: Path, trace: bool, spans_out: Path) -> dict:
    """One checked execution; the record says whether it failed and why.

    A traced execution's spans are moved to ``spans_out``; everything else
    it wrote is deleted once checked.
    """
    exec_dir.mkdir()
    try:
        result = spawn(plan.argv, exec_dir, trace)
        if result["rc"] != 0:
            raise ExecutionError(f"exit code {result['rc']}: {result['out'][-500:]}")
        result["facts"] = plan.check(exec_dir, result["out"])
        result["ok"] = True
    except (ExecutionError, verify.VerifyError, OSError, ValueError, KeyError) as exc:
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    result["traced"] = trace
    if (exec_dir / "spans.csv").exists():
        shutil.move(exec_dir / "spans.csv", spans_out)
    shutil.rmtree(exec_dir, ignore_errors=True)
    return result


def speed(result: dict) -> float:
    """Factor that scales one execution's times to the nominal machine speed."""
    return REFERENCE_S / result["reference_s"]


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced execution, times scaled by ``speed``."""
    spans, counters = result["spans"], result["counters"]

    def stat(span, key):
        return spans.get(span, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    main_us = stat("cli.main", "total_us")
    special = {
        "projection.bind_frac": ratio(counters.get("projection.bound_calls", 0.0),
                                      stat("projection.project_onto_feasible", "calls")),
        "sampler.selected_per_call": ratio(counters.get("sampler.selected", 0.0),
                                           stat("sampler.sample_selection", "calls")),
        "sampler.distinct_per_draw": ratio(counters.get("sampler.selected", 0.0),
                                           counters.get("sampler.expected_draws", 0.0)),
        "sampler.sample_membership.ns_per_sample": ratio(
            1e3 * stat("sampler.sample_membership", "total_us"),
            counters.get("sampler.membership_samples", 0.0)),
        "environments.read_stream.bytes": counters.get("environments.read_bytes", 0.0),
        "environments.write_stream.bytes": counters.get("environments.write_bytes", 0.0),
        "trace.spans": result["span_count"],
    }
    for module in MODULES:
        own = sum(s["self_us"] for name, s in spans.items() if name.split(".", 1)[0] == module)
        special[f"share.{module}"] = ratio(own, main_us)
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name == "trace.overhead_frac":
            continue  # needs the untraced executions too
        else:
            span, key = name.rsplit(".", 1)
            if key == "s":
                metrics[name] = stat(span, "total_us") / 1e6
            elif key == "us_per_call":
                metrics[name] = ratio(stat(span, "total_us"), stat(span, "calls"))
            else:
                metrics[name] = stat(span, key)
    for name in metrics:
        if PER_LAYER[name] in ("s", "us", "ns"):
            metrics[name] *= speed(result)
    return metrics


def median_of(values):
    return statistics.median(values) if values else 0.0


def measure(plan: Plan, work: Path, seconds: float, trace: bool, spans_out: Path) -> list[dict]:
    """A discarded warm-up, then executions until ``seconds`` have passed.

    With ``trace`` untraced and traced executions alternate, at least one
    of each. Each execution's ``reference_s`` is the mean of the reference
    kernel timed just before and just after it.
    """
    before = reference_seconds()
    runs = []
    deadline = None
    while True:
        traced = trace and len(runs) % 2 == 0 and len(runs) > 0
        run = execute(plan, work / f"exec{len(runs)}", traced, spans_out)
        after = reference_seconds()
        run["reference_s"] = 0.5 * (before + after)
        before = after
        runs.append(run)
        if deadline is None:  # the first execution was the warm-up
            deadline = time.monotonic() + seconds
        elif time.monotonic() >= deadline and (not trace or len(runs) >= 3):
            return runs


def summarize(plan: Plan, runs: list[dict], trace: bool):
    """Readable report, result-line metrics, missing names and failures of one run."""
    failed = [r["error"] for r in runs if not r["ok"]]
    untraced = [r for r in runs[1:] if r["ok"] and not r["traced"]]
    traced = [r for r in runs[1:] if r["ok"] and r["traced"]]
    facts = next((r["facts"] for r in runs if r["ok"]), {})
    walls = [r["wall_s"] * speed(r) for r in untraced]
    throughput = median_of([plan.items / w for w in walls])
    report = {
        "wall_s": (median_of(walls), "s"),
        "setup_s": (median_of([r["setup_s"] * speed(r) for r in untraced]), "s"),
        "peak_rss_mb": (median_of([r["maxrss_kb"] / 1024.0 for r in untraced]), "MB"),
        "items_per_s": (throughput, "1/s"),
        f"{plan.item_name}_per_s": (throughput, "1/s"),
        "measured_wall_s": (median_of([r["wall_s"] for r in untraced]), "s"),
        "measured_setup_s": (median_of([r["setup_s"] for r in untraced]), "s"),
        "reference_s": (median_of([r["reference_s"] for r in untraced]), "s"),
        "failed_frac": (len(failed) / len(runs), "ratio"),
        **{k: (v, FACT_UNITS[k]) for k, v in facts.items()},
    }
    if not trace:
        metrics = {k: {"value": report[k][0], "unit": unit} for k, unit in END_TO_END.items()}
        return report, metrics, [], failed

    per_exec = [layer_metrics(r) for r in traced]
    unstable = sorted(k for k in DETERMINISTIC if len({m[k] for m in per_exec}) > 1)
    if unstable:
        failed.append(f"counts differ between traced executions: {unstable}")
    layer = {k: median_of([m[k] for m in per_exec]) for k in PER_LAYER if k in per_exec[0]}
    layer["trace.overhead_frac"] = (median_of([r["wall_s"] * speed(r) for r in traced])
                                    / report["wall_s"][0] - 1.0) if walls else 0.0
    metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
    absent = sorted({name for r in traced for name in r["absent"]}
                    | {f"{name} (counter hook failed)" for r in traced for name in r["hook_errors"]})
    return report, metrics, absent, failed


def run_workload(name: str, args) -> int:
    params = dict(WORKLOADS[name])
    if args.smoke:
        params.update(params["smoke"])
    seed = params["env_seed"] if args.seed is None else args.seed
    engine_seeds = args.engine_seeds or params.get("engine_seeds", [0])
    trace = bool(args.trace)
    env_record = environment_record()
    tag = f"{name}-seed{seed}-trace{args.trace}"
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        try:
            plan = prepare(name, params, seed, engine_seeds, work)
        except (ExecutionError, verify.VerifyError, OSError, ValueError, KeyError) as exc:
            print(f"{name}: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        runs = measure(plan, work, args.seconds, trace, OUT_DIR / f"{tag}-spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any(r["ok"] and r["traced"] == trace for r in runs[1:]):
        for r in runs:
            print(f"  FAILED: {r.get('error', 'traced run missing')}", file=sys.stderr)
        print(f"{name}: no execution succeeded", file=sys.stderr)
        return 1
    report, metrics, absent, failed = summarize(plan, runs, trace)
    env_record["numpy"] = next(r["numpy"] for r in runs if r["ok"])
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}

    desc = ("probcheck --actions {actions} --samples {samples}".format(**params)
            if name == "mc_probcheck" else
            "{kind} n={n} T={T}, env seed {seed}, engine seeds {seeds}".format(
                **params["environment"], seed=seed, seeds=engine_seeds))
    walls = [r["wall_s"] for r in runs[1:] if r["ok"] and not r["traced"]]
    print(f"workload {name}: {desc}; {len(runs) - 1} executions in "
          f"{args.seconds} s after 1 warm-up")
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    for key, (value, unit) in report.items():
        print(f"  {key:<44} {value:.6g} {unit}")
    print(f"  wall_s (scaled) over {len(walls)} untraced executions: "
          f"min {min(walls, default=0):.4f}, max {max(walls, default=0):.4f} s")
    if trace:
        for key, m in metrics.items():
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
        if absent:
            print(f"  not traced in this version: {', '.join(absent)}")
    for error in failed:
        print(f"  FAILED: {error}")

    (OUT_DIR / f"{tag}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "engine_seeds": engine_seeds, "params": params,
        "seconds": args.seconds, "environment": env_record, "report": report,
        "absent": absent, "result": result,
        "executions": [{k: v for k, v in r.items() if k not in ("out", "spans")}
                       for r in runs],
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="environment seed of the learner workloads; default per workload")
    parser.add_argument("--engine-seeds", type=engine_seed_list, default=None,
                        help="engine seeds such as 0-3 or 0,2,5; default per workload")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed executions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="use the tiny smoke sizes")
    args = parser.parse_args()
    # Turn a termination request into an exit, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "budgetmax" / "cli.py").is_file():
        print(f"error: no budgetmax sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children: the reference kernel and
    # the executions it scales then always share the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
