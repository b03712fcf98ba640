"""Tests of the benchmark itself, at smoke size (a few seconds each).

Run from the repository root: ``PYTHONPATH=src python -m pytest bench``.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run_bench
import tracer
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_cli(*argv, cwd):
    """The real CLI, in a child process like the benchmark's executions."""
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), "0",
                           "--", *argv], cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A bound-checked run with two seeds on a small energetic stream."""
    work = tmp_path_factory.mktemp("recorded")
    (work / "config.json").write_text(json.dumps({
        "version": 1, "environment": {"kind": "knapsack_median", "n": 6, "T": 30, "seed": 4},
        "seeds": [0, 1], "bound_check": True}))
    result = run_cli("--config", "config.json", "--out", "out", "run", cwd=work)
    assert result["rc"] == 0
    return work / "out", result["out"]


def copy_of(out_dir, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(out_dir, dst)
    return dst


def edit_line(path, lineno, fn):
    lines = path.read_text().splitlines()
    lines[lineno] = fn(lines[lineno])
    path.write_text("\n".join(lines) + "\n")


def test_verifier_imports_nothing_from_budgetmax():
    tree = ast.parse((BENCH / "verify.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.startswith("budgetmax")]


def test_verifier_accepts_real_outputs(recorded):
    out_dir, text = recorded
    report = verify.check_run_dir(out_dir, [0, 1], require_bound=True)
    verify.check_summary(text, "knapsack_median", 6, 30, report["mean_profit"])


def _selected_row(path):
    lines = path.read_text().splitlines()
    return next(k for k, line in enumerate(lines) if k and line.split(",")[1])


def test_verifier_rejects_over_budget_selection(recorded, tmp_path):
    out = copy_of(recorded[0], tmp_path)
    stream = out / "stream.csv"
    edit_line(stream, 0, lambda line: ",".join(line.split(",")[:2] + ["1.5"] * 6))
    with pytest.raises(verify.VerifyError, match="exceeds the budget"):
        for seed in (0, 1):
            verify.check_trace(out / f"trace_seed{seed}.csv", verify.StreamFile(stream))


def test_verifier_rejects_wrong_profit(recorded, tmp_path):
    out = copy_of(recorded[0], tmp_path)
    trace = out / "trace_seed0.csv"
    row = _selected_row(trace)
    edit_line(trace, row, lambda line: line.replace(line.split(",")[2], "123.0", 1))
    with pytest.raises(verify.VerifyError, match="profit"):
        verify.check_run_dir(out, [0, 1])


def test_verifier_rejects_broken_cumulative_chain(recorded, tmp_path):
    out = copy_of(recorded[0], tmp_path)
    trace = out / "trace_seed1.csv"
    def bump_cum(line):
        fields = line.split(",")
        fields[3] = repr(float(fields[3]) + 1.0)
        return ",".join(fields)
    edit_line(trace, 5, bump_cum)
    with pytest.raises(verify.VerifyError, match="cum_profit"):
        verify.check_run_dir(out, [0, 1])


def test_verifier_rejects_report_mismatch_and_failed_bound(recorded, tmp_path):
    out = copy_of(recorded[0], tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["per_seed_profit"][1] += 0.5
    (out / "report.json").write_text(json.dumps(report))
    with pytest.raises(verify.VerifyError, match="seed 1"):
        verify.check_run_dir(out, [0, 1])
    report["per_seed_profit"][1] -= 0.5
    report["bound_satisfied"] = False
    (out / "report.json").write_text(json.dumps(report))
    verify.check_run_dir(out, [0, 1])
    with pytest.raises(verify.VerifyError, match="bound_satisfied"):
        verify.check_run_dir(out, [0, 1], require_bound=True)


def test_verifier_rejects_changed_replay_bytes(recorded, tmp_path):
    out = copy_of(recorded[0], tmp_path)
    digests = {p.name: verify.sha256(p) for p in recorded[0].iterdir()}
    verify.check_same_bytes(out, digests)
    edit_line(out / "trace_seed0.csv", 3, lambda line: line + "0")
    with pytest.raises(verify.VerifyError, match="trace_seed0"):
        verify.check_same_bytes(out, digests)


def test_verifier_checks_probcheck_verdict(tmp_path):
    text = run_cli("probcheck", "--actions", "5", "--samples", "20000", cwd=tmp_path)["out"]
    verify.check_probcheck(text, 5)
    with pytest.raises(verify.VerifyError):
        verify.check_probcheck(text.replace("PASS", "FAIL"), 5)
    with pytest.raises(verify.VerifyError):
        verify.check_probcheck(text, 6)


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "engine.retired", (["budgetmax.engine.Engine"], None))
    monkeypatch.setitem(tracer.TARGETS, "gone.module", (["budgetmax.no_such_module"], None))
    t = tracer.Tracer()
    monkeypatch.setattr(t, "_wrap_attr", lambda owner, attr, name, hook: owner is not None
                        and hasattr(owner, attr))
    t.install()
    assert set(t.absent) == {"engine.retired", "gone.module"}


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t._span("inner", lambda: sum(range(20000)), None)
    outer = t._span("outer", lambda: inner() + inner(), None)
    outer()
    summary = t.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    assert summary["outer"]["self_us"] == pytest.approx(
        summary["outer"]["total_us"] - summary["inner"]["total_us"], abs=1e-6)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run_bench.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(run_bench.WORKLOADS))
def test_smoke_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run_bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_counts_repeat():
    params = run_bench.WORKLOADS["many_seeds"]["smoke"]
    expected_calls = params["environment"]["T"] * len(params["engine_seeds"])
    runs = []
    for _ in range(2):
        proc = bench("--workload", "many_seeds", "--smoke", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    assert set(runs[0]) == set(run_bench.PER_LAYER)
    assert runs[0]["surrogate.update_weights.calls"]["value"] == expected_calls
    for name in run_bench.DETERMINISTIC:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_smoke_replay_projection_never_binds():
    proc = bench("--workload", "replay_stream", "--smoke", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["projection.bind_frac"]["value"] == 0.0
    assert metrics["environments.read_stream.bytes"]["value"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "many_seeds", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
