"""Machine-speed probe of the benchmark.

On a shared machine the same Python code runs at two speeds, the slower
about 1.7 times the faster, switching every few seconds; the share of slow
time differs between runs by more than the seeds differ in work, and
between the minutes of a long series of runs by more still.  A time divided
by the speed factor measured next to it is that time at the reference
speed, so runs taken at different moments can be compared.  ``run.py``
scales each invocation's latency by the mean factor of the probes before
and after it.  ``collect.py`` reports the unscaled figures beside the
scaled ones (``README.md`` has both spreads).  ``setup_s``, the median
time of set-up interpreters run between the invocations, is scaled by the
mean factor of the run: the speed changes within one set-up, so the
probes next to it fit it poorly.

The probe runs with the garbage collector off, so collecting the
program's heap is not divided out.  It runs in the benchmark's process, so
a slowdown the program causes there that also slows the probe (a bloated
memory footprint) partly is; ``peak_rss_mb`` shows it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 0.003  # the probe's duration at the reference speed


def _reference_work() -> list:
    """Fixed pure-Python work that uses nothing from seqreg."""
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 800):
        total += Fraction(i % 13 + 1, i % 11 + 2)
        table[i % 64] = table.get(i % 64, 0) + i * i
    return [total, *sorted(table.values())]


def speed_factor() -> float:
    """The probe's duration now over its duration at the reference speed."""
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return (perf_counter() - start) / REF_PROBE_S
    finally:
        gc.enable()
