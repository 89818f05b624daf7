"""Host-speed reference probe.

The host this benchmark was written on swings between speeds about 35 %
(and for parse-heavy code up to 80 %) apart, for periods of seconds, and
CPU time swings with wall time. A fixed stdlib-only workload, run right
before and right after each timed call, tracks those swings; scaling the
call's time by REF_PROBE_MS / (median of the nearby probe times) reports
it at a fixed reference speed. The probe runs no backpenta code, so a
change to the program moves the scaled times exactly as it moves the raw
ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

# Probe time on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7)
# in its fast periods. Only ratios between runs on one host matter.
REF_PROBE_MS = 3.5

_TOKENS = [str((i * 7919) % 201 - 100) for i in range(1500)]


def probe_ms() -> float:
    """Time of one probe: Fraction parsing, float tuples, big integers."""
    start = perf_counter_ns()
    xs = tuple(float(Fraction(t)) for t in _TOKENS)
    acc = 0.0
    for a, b in zip(xs, xs[1:]):
        acc = acc * 0.5 + a * b
    big = 1
    for i in range(1, 400):
        big = big * (i | 1) + i
    return (perf_counter_ns() - start) / 1e6


def scale(probes_ms) -> float:
    """Factor taking a time measured among these probes to reference
    speed; the median damps the jitter of a single probe."""
    return REF_PROBE_MS / statistics.median(probes_ms)
