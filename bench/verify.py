"""Independent checks of budgetmax CLI outputs.

Nothing here imports budgetmax: every check re-derives its expectation from
the files the CLI wrote (``stream.csv``, ``trace_seed<k>.csv``,
``report.json``) or from the text it printed, using the standard library
only. Each check raises :class:`VerifyError` with a message naming the file
and line at fault.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

BUDGET_SLACK = 1e-12
TRACE_HEADER = "trial,selected,profit,cum_profit,grad_norm,eta"


class VerifyError(Exception):
    """An output failed an independent check."""


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(scale))


class StreamFile:
    """Lazily parsed ``stream.csv``: the preamble eagerly, trial rows on demand.

    Only the fields a trace row selects are converted to floats, so checking
    a trace against a wide stream stays cheap.
    """

    def __init__(self, path):
        self.path = Path(path)
        lines = self.path.read_text(encoding="ascii").splitlines()
        if not lines:
            raise VerifyError(f"{self.path}: empty stream file")
        head = lines[0].split(",")
        self.n, self.T = int(head[0]), int(head[1])
        self.z = [float(v) for v in head[2:]]
        if len(self.z) != self.n or len(lines) != self.T + 1:
            raise VerifyError(f"{self.path}: preamble says n={self.n}, T={self.T} "
                              f"but the file has {len(self.z)} energies, {len(lines) - 1} trials")
        self._rows = lines[1:]

    def fields(self, t: int) -> list[str]:
        """Raw fields of trial ``t`` (1-based): ``[t, r_1..r_n, c_1..c_n]``."""
        fields = self._rows[t - 1].split(",")
        if len(fields) != 1 + 2 * self.n or int(fields[0]) != t:
            raise VerifyError(f"{self.path} line {t + 1}: malformed trial row")
        return fields


def check_trace(path, stream: StreamFile) -> float:
    """Check one trace against its stream; return the final cumulative profit.

    Every row's selection must fit the unit budget of the stream's energies,
    its profit must recompute from the stream's rewards and costs, and
    ``cum_profit`` must chain from row to row.
    """
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise VerifyError(f"{path}: missing trace header")
    if len(lines) != stream.T + 1:
        raise VerifyError(f"{path}: {len(lines) - 1} rows for a stream of {stream.T} trials")
    cum = 0.0
    for t, line in enumerate(lines[1:], start=1):
        where = f"{path} line {t + 1}"
        row = line.split(",")
        if len(row) != 6 or int(row[0]) != t:
            raise VerifyError(f"{where}: malformed row")
        idx = [int(i) for i in row[1].split(";")] if row[1] else []
        if idx != sorted(set(idx)) or any(i < 0 or i >= stream.n for i in idx):
            raise VerifyError(f"{where}: selection {row[1]!r} is not ascending distinct indices")
        energy = math.fsum(stream.z[i] for i in idx)
        if energy > 1.0 + BUDGET_SLACK:
            raise VerifyError(f"{where}: selection energy {energy!r} exceeds the budget")
        prof, cum_read = float(row[2]), float(row[3])
        if idx:
            fields = stream.fields(t)
            best = max(float(fields[1 + i]) for i in idx)
            expect = best - math.fsum(float(fields[1 + stream.n + i]) for i in idx)
        else:
            expect = 0.0
        if not _close(prof, expect, expect):
            raise VerifyError(f"{where}: profit {prof!r}, recomputed {expect!r}")
        cum += prof
        if not _close(cum, cum_read, cum):
            raise VerifyError(f"{where}: cum_profit {cum_read!r}, chained {cum!r}")
    return cum


def read_report(out_dir) -> dict:
    path = Path(out_dir) / "report.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise VerifyError(f"{path}: unreadable report: {exc}") from None


def check_run_dir(out_dir, seeds, stream: StreamFile | None = None,
                  require_bound: bool = False) -> dict:
    """Check every trace of a ``run``/``replay`` output directory.

    ``report.json``'s ``per_seed_profit`` must equal each trace's final
    total, and with ``require_bound`` the report must say the performance
    bound holds. Returns the report.
    """
    out_dir = Path(out_dir)
    if stream is None:
        stream = StreamFile(out_dir / "stream.csv")
    report = read_report(out_dir)
    if list(report.get("seeds", [])) != list(seeds):
        raise VerifyError(f"{out_dir}: report seeds {report.get('seeds')} != {list(seeds)}")
    if (report.get("n"), report.get("T")) != (stream.n, stream.T):
        raise VerifyError(f"{out_dir}: report shape does not match the stream")
    totals = [check_trace(out_dir / f"trace_seed{s}.csv", stream) for s in seeds]
    for seed, total, claimed in zip(seeds, totals, report["per_seed_profit"]):
        if not _close(total, claimed, total):
            raise VerifyError(f"{out_dir}: seed {seed} trace totals {total!r}, report says {claimed!r}")
    if not _close(math.fsum(totals) / len(totals), report["mean_profit"], report["mean_profit"]):
        raise VerifyError(f"{out_dir}: mean_profit does not match the traces")
    if require_bound and report.get("bound_satisfied") is not True:
        raise VerifyError(f"{out_dir}: bound_satisfied is {report.get('bound_satisfied')!r}")
    return report


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_same_bytes(out_dir, expected: dict) -> None:
    """Each named file in ``out_dir`` must hash to the expected sha256."""
    for name, digest in expected.items():
        path = Path(out_dir) / name
        if not path.is_file() or sha256(path) != digest:
            raise VerifyError(f"{path}: differs from the set-up run's {name}")


def check_summary(text: str, kind: str, n: int, T: int, mean_profit: float) -> None:
    """The printed run summary names the stream and the expected mean profit."""
    lines = text.splitlines()
    head = f"environment: {kind} (n={n}, T={T})"
    if not lines or lines[0] != head:
        raise VerifyError(f"summary starts {lines[:1]!r}, expected {head!r}")
    want = f"mean cumulative profit: {mean_profit:.6g} "
    if not any(line.startswith(want) for line in lines):
        raise VerifyError(f"summary lacks {want.strip()!r}")


def check_probcheck(text: str, actions: int) -> None:
    """Probcheck printed one ``ok`` line per action and ended in ``PASS``."""
    lines = [line for line in text.splitlines() if line.strip()]
    rows = [line for line in lines if line.lstrip().startswith("action ")]
    if len(rows) != actions or not all(line.endswith(" ok") for line in rows):
        raise VerifyError(f"probcheck printed {len(rows)} action rows, "
                          f"{sum(not r.endswith(' ok') for r in rows)} not ok")
    if not lines or lines[-1] != "probcheck: PASS":
        raise VerifyError(f"probcheck ended with {lines[-1:]!r}")
