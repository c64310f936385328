"""The machine-speed reference: a fixed kernel timed next to every operation.

The machine this benchmark was tuned on is shared, and its speed drifts by
20-25 % for minutes at a time; CPU time drifts with wall time. A fixed
kernel, timed between the operations, slows down with the machine but not
with a change to drcw. run.py divides each operation's wall time by the
kernel time measured just before and just after it and multiplies by
REFERENCE_S, so the timing metrics read in reference seconds: wall seconds
on a machine on which the kernel takes REFERENCE_S. After an operation the
kernel runs for REFERENCE_SHARE of the operation's time, at least once,
and its median counts, so one disturbed kernel run does not skew a long
operation.

The kernel mixes the kinds of work the workloads do: Python arithmetic,
number formatting, float64 BLAS, longdouble element-wise numpy and passes
over an array larger than the private caches. Its inputs are fixed; they
do not depend on the seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median wall time on the tuning machine (see README.md)
REFERENCE_S = 0.028
REFERENCE_SHARE = 0.05

_N = 160
_A = np.random.default_rng(12345).standard_normal((_N, _N)) / _N**0.5
_L = np.linspace(0.5, 1.5, 4096, dtype=np.longdouble)
_B = np.ones(1 << 20)  # 8 MB: larger than the private caches


def _kernel() -> float:
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    text = ",".join(f"{i * 0.37:.9e}" for i in range(6000))
    b = _A
    for _ in range(12):
        b = np.tanh(_A @ b)
    v = _L
    for _ in range(40):
        v = v * np.longdouble(0.999) + _L / (v + np.longdouble(1))
    total = 0.0
    for _ in range(12):
        np.negative(_B, out=_B)
        total += float(_B.sum())
    return acc + len(text) + float(b[0, 0]) + float(v[0]) + total


def reference_s(budget_s: float = 0.0) -> float:
    """Wall seconds the kernel takes now: the median of as many runs as fit
    in ``budget_s``, and at least one."""
    times = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < budget_s:
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
