"""Print the parent and change medians that every committed ``BENCH_*.json`` records.

Each ``BENCH_*.json`` in the repository root holds the benchmark pairs of
one change. For each file this prints its label and, per workload, the
parent and change medians of every end-to-end metric ``BENCHMARK.json``
declares, with the change's difference from the parent. The medians come
from the first of three layouts the file has:

1. summary blocks: top-level keys containing ``summary`` whose
   ``<workload>.<metric>`` entries hold ``parent_median`` and
   ``change_median``, printed under each block's key;
2. otherwise per-run records: the ``runs`` of each entry of ``sets``, each
   with a ``side`` and ``workloads.<workload>.metrics.<metric>.value`` (or
   the number itself at ``workloads.<workload>.<metric>``), whose medians
   are taken here, per set;
3. otherwise the file prints "no per-run records".

Files are ordered by where their ``parent_rev`` lies in ``git rev-list
HEAD``, oldest first, and a file whose ``parent_rev`` is not there comes
last. A shallow checkout (or a copy outside git) lacks that history, so
there the files are in name order, and the output says so. The script gates nothing: it exits 0
whatever the files hold. Standard library only; run from anywhere::

    python scripts/bench_history.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str | None:
    """The output of ``git args`` in the repository, or None if it fails."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def commit_ages() -> dict[str, int] | None:
    """Each commit of ``HEAD``'s history by its age, oldest 0; None on a shallow checkout."""
    if (git("rev-parse", "--is-shallow-repository") or "").strip() != "false":
        return None
    revs = (git("rev-list", "HEAD") or "").split()
    return {rev: age for age, rev in enumerate(reversed(revs))}


def summary_medians(data: dict, metrics: list[str]) -> dict:
    """``{block: {workload: {metric: (parent, change)}}}`` from the file's summary blocks."""
    blocks = {}
    for key, block in data.items():
        if "summary" not in key or not isinstance(block, dict):
            continue
        found = {}
        for workload, entries in block.items():
            medians = {m: entries[m] for m in metrics
                       if isinstance(entries, dict) and isinstance(entries.get(m), dict)}
            pairs = {m: (entry["parent_median"], entry["change_median"])
                     for m, entry in medians.items()
                     if {"parent_median", "change_median"} <= entry.keys()}
            if pairs:
                found[workload] = pairs
        if found:
            blocks[key] = found
    return blocks


def run_value(record, metric: str):
    """A metric's value in one run's workload record, or None."""
    value = record.get("metrics", {}).get(metric, {}).get("value", record.get(metric))
    return value if isinstance(value, (int, float)) else None


def run_medians(data: dict, metrics: list[str]) -> dict:
    """``{set: {workload: {metric: (parent, change)}}}`` from the file's per-run records."""
    blocks = {}
    sets = data.get("sets")
    for name, entry in (sets.items() if isinstance(sets, dict) else ()):
        runs = entry.get("runs") if isinstance(entry, dict) else None
        values: dict = {}
        for run in runs if isinstance(runs, list) else ():
            if not isinstance(run, dict) or run.get("side") not in SIDES:
                continue
            for workload, record in (run.get("workloads") or {}).items():
                for metric in metrics:
                    value = run_value(record, metric)
                    if value is not None:
                        (values.setdefault(workload, {}).setdefault(metric, {})
                         .setdefault(run["side"], []).append(value))
        found = {}
        for workload, per_metric in values.items():
            pairs = {m: tuple(statistics.median(sides[s]) for s in SIDES)
                     for m, sides in per_metric.items() if len(sides) == len(SIDES)}
            if pairs:
                found[workload] = pairs
        if found:
            blocks[name] = found
    return blocks


def metric_text(metric: str, parent: float, change: float) -> str:
    shift = f" ({(change - parent) / parent:+.1%})" if parent else ""
    return f"{metric} {parent:.4g} -> {change:.4g}{shift}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    files = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        try:
            files.append((path, json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, ValueError) as exc:
            files.append((path, exc))
    ages = commit_ages()
    if ages is None:
        print("no full commit history (a shallow checkout): files in name order")
    else:
        def age(item):
            data = item[1]
            rev = data.get("parent_rev") if isinstance(data, dict) else None
            return ages.get(rev, len(ages))
        files.sort(key=age)  # stable, so files of one parent stay in name order

    for path, data in files:
        if not isinstance(data, dict):
            print(f"{path.name}: unreadable: {data}")
            continue
        print(f"{data.get('label', path.stem)}  ({path.name}, parent "
              f"{str(data.get('parent_rev', '?'))[:10]})")
        blocks = summary_medians(data, metrics) or run_medians(data, metrics)
        if not blocks:
            print("  no per-run records")
        for block, workloads in blocks.items():
            print(f"  {block}")
            for workload, pairs in workloads.items():
                print(f"    {workload:<14}  " + "  ".join(
                    metric_text(m, *pairs[m]) for m in metrics if m in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
