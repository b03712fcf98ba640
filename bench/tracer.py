"""In-memory spans around budgetmax's public functions, for the traced run.

Each function is wrapped where its caller looks it up (for example
``budgetmax.engine.sample_selection`` rather than
``budgetmax.sampler.sample_selection``), so a call is seen exactly once at
the boundary between two layers. A name that no longer exists at any of its
sites is reported as absent instead of failing, which keeps the traced run
working while the package's API changes.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index of
the enclosing span or -1. Self time is a span's duration minus the time its
direct children cover. Some spans carry a hook that measures a ratio at the
boundary (how often the projection binds, how many distinct actions a draw
yields); hooks run outside the wrapped call and are recorded as
``trace.hook`` spans, so they count as tracing cost, not as the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bind_hook(tracer, args, kwargs, result):
    y = np.asarray(_arg(args, kwargs, 0, "y"), dtype=float)
    z = np.asarray(_arg(args, kwargs, 1, "z"), dtype=float)
    tracer.counters["projection.bound_calls"] += float(np.clip(y, 0.0, 1.0) @ z) > 1.0


def _draw_hook(tracer, args, kwargs, result):
    tracer.counters["sampler.selected"] += len(result)
    if tracer.build_draw_plans is not None:
        plans = tracer.build_draw_plans(_arg(args, kwargs, 0, "w"),
                                        _arg(args, kwargs, 1, "partition"))
        tracer.counters["sampler.expected_draws"] += sum(
            p.full_draws + p.residual_mass for p in plans if p.weight_sum > 0.0)


def _membership_hook(tracer, args, kwargs, result):
    tracer.counters["sampler.membership_samples"] += int(_arg(args, kwargs, 4, "n_samples"))


def _read_hook(tracer, args, kwargs, result):
    tracer.counters["environments.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_hook(tracer, args, kwargs, result):
    tracer.counters["environments.write_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# span name -> (lookup sites, hook). A site is "module" or "module.Class".
TARGETS = {
    "cli.main": (["budgetmax.cli"], None),
    "cli.trace_write": (["budgetmax.cli.TraceWriter:write"], None),
    "environments.generate": (["budgetmax.cli"], None),
    "environments.check_constraints": (["budgetmax.cli", "budgetmax.environments"], None),
    "environments.read_stream": (["budgetmax.cli"], _read_hook),
    "environments.write_stream": (["budgetmax.cli"], _write_hook),
    "oracles.best_fixed_subset": (["budgetmax.cli"], None),
    "oracles.estimate_selection_probs": (["budgetmax.cli"], None),
    "oracles.exact_selection_probs": (["budgetmax.cli"], None),
    "engine.select": (["budgetmax.engine.Engine"], None),
    "engine.observe": (["budgetmax.engine.Engine"], None),
    "surrogate.surrogate_gradient": (["budgetmax.engine", "budgetmax.cli"], None),
    "surrogate.update_weights": (["budgetmax.engine", "budgetmax.cli"], None),
    "projection.project_onto_feasible": (["budgetmax.surrogate", "budgetmax.cli"], _bind_hook),
    "sampler.sample_selection": (["budgetmax.engine", "budgetmax.cli"], _draw_hook),
    "sampler.sample_membership": (["budgetmax.oracles"], _membership_hook),
    "core.profit": (["budgetmax.engine", "budgetmax.cli"], None),
    "core.Selection.from_indices": (["budgetmax.core.Selection"], None),
    "core.TrialData.from_arrays": (["budgetmax.core.TrialData"], None),
}


def _resolve(site: str):
    """Import the longest module prefix of ``site`` and walk the rest."""
    parts = site.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Collects spans and boundary counters for one process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: dict = defaultdict(int)
        self.build_draw_plans = None
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        """Wrap every target found; record the names found at no site."""
        sampler = _resolve("budgetmax.sampler")
        self.build_draw_plans = getattr(sampler, "build_draw_plans", None)
        if self.build_draw_plans is None:
            self.absent.append("sampler.build_draw_plans")
        for name, (sites, hook) in TARGETS.items():
            short = name.rsplit(".", 1)[-1]
            found = False
            for site in sites:
                site, _, attr = site.partition(":")
                found |= self._wrap_attr(_resolve(site), attr or short, name, hook)
            if not found:
                self.absent.append(name)
        return self

    def _wrap_attr(self, owner, attr: str, name: str, hook) -> bool:
        if owner is None:
            return False
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._span(name, raw.__func__, hook)))
        elif callable(raw):
            setattr(owner, attr, self._span(name, raw, hook))
        else:
            return False
        return True

    def _span(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                spans.append(None)
                hook_index = len(spans) - 1
                hook_start = clock()
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors[name] += 1
                spans[hook_index] = (HOOK, hook_start, clock(), parent)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self time, p50/p99 duration (µs)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        durations = defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - inner
            durations[name].append(end - start)
        out = {}
        for name in calls:
            d = sorted(durations[name])
            out[name] = {
                "calls": calls[name],
                "total_us": total[name] / 1e3,
                "self_us": self_ns[name] / 1e3,
                "p50_us": statistics.median(d) / 1e3,
                "p99_us": d[min(len(d) - 1, int(0.99 * len(d)))] / 1e3,
            }
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: index,parent,name,start_ns,end_ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")
