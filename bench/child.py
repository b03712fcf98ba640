"""Run one budgetmax CLI command in this fresh process and report it as JSON.

Usage: ``python3 child.py SRC_DIR TRACE -- ARGV...``

Imports ``budgetmax.cli`` from ``SRC_DIR`` (and refuses any other copy),
calls ``main(ARGV)`` once with its printed output captured, and prints one
JSON line: the monotonic time at which ``main`` became callable, the wall
time of the call, its exit code and output, and this process's peak RSS.
With ``TRACE`` = 1 the package's public functions are wrapped first (see
``tracer.py``), the span summary is added to the JSON and every span is
written to ``spans.csv`` in the working directory.
"""

import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak resident set size in KiB.

    ``VmHWM`` belongs to the process's current address space, unlike
    ``ru_maxrss``, which keeps the larger resident size of the parent that
    was copied before ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run() -> int:
    src, trace, sep, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    if sep != "--":
        print("usage: child.py SRC_DIR TRACE -- ARGV...", file=sys.stderr)
        return 2
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import budgetmax.cli
    if src not in Path(budgetmax.cli.__file__).resolve().parents:
        print(f"budgetmax imported from {budgetmax.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ready = time.monotonic()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        rc = budgetmax.cli.main(argv, out=out)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start

    import numpy
    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "rc": rc,
        "out": out.getvalue(),
        "maxrss_kb": peak_rss_kb(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["absent"] = tracer.absent
        result["hook_errors"] = dict(tracer.hook_errors)
        result["span_count"] = len(tracer.spans)
        tracer.write_spans("spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
