"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine the same code can run markedly slower for minutes at a
time. The benchmark times this kernel between its executions and scales
every time it reports by the kernel's speed, so such periods cancel out.
Nothing here depends on budgetmax, so a change to the package cannot move it.
"""

import time

import numpy as np


def reference_seconds() -> float:
    """Time a fixed mix of the kinds of work budgetmax does.

    Small-vector numpy calls in a Python loop (the learner), float
    formatting and parsing (the stream and trace files) and a batched
    searchsorted (Monte Carlo sampling). Nothing here changes with the
    package, so the time tracks only the machine.
    """
    rng = np.random.default_rng(12345)
    y = rng.random(100)
    z = rng.random(100) * 0.02
    cum = np.cumsum(y) / y.sum()
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        x = np.clip(y - (i % 40) * 1e-3 * z, 0.0, 1.0)
        order = np.argsort(-x, kind="stable")
        acc += float(np.cumsum(x[order])[-1]) + float(x @ z)
        text = ",".join(format(v, ".17g") for v in x[:20])
        acc += sum(float(f) for f in text.split(","))
    for _ in range(20):
        acc += float(np.searchsorted(cum, rng.random((20000, 2))).sum())
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("reference kernel produced no work")
    return elapsed
