"""Machine-speed normalization for every reported time.

Shared hosts change speed by up to 1.7x within seconds (neighbours,
frequency scaling): the same pure-Python loop was measured at 12 ms and
at 20 ms a few seconds apart on the 2-core VM this benchmark was built on.
So each timed interval is measured between two runs of a fixed reference
loop and scaled to the nominal machine, on which the reference takes
``REF_S``.
The program's ops slow down less than the tight reference loop does: on
that VM their time went as the reference's to the power 0.72-0.79
(log-log fit over 2 s windows, for each workload), so the correction
uses ``ELASTICITY``.  A change to the program moves the scaled times
exactly as it moves wall time; a change in the machine's speed mostly
does not.  The runner prints raw wall-clock medians beside the scaled
ones.
"""

from __future__ import annotations

import math
import time

#: what one reference loop takes at the nominal machine speed all
#: reported times are scaled to (its typical time on the 2-core x86 VM
#: the benchmark was built on)
REF_S = 0.08e-3

#: op time ~ reference time ** ELASTICITY under a machine-speed change
ELASTICITY = 0.75

_REF_KEYS = tuple(f"k{i}" for i in range(64))


def _reference() -> int:
    """A fixed pure-Python loop (dict lookups and updates, method calls,
    integer work) with almost no allocation, so it neither triggers nor
    absorbs the program's garbage collections."""
    d: dict = {}
    acc = 0
    keys = _REF_KEYS
    for i in range(400):
        key = keys[i & 63]
        d[key] = d.get(key, 0) + i
        acc = (acc + len(key) * i) & 0xFFFFF
    return acc + len(d)


def machine_scale() -> float:
    """How much faster this machine is right now than the nominal one:
    multiply a wall time measured now by this factor (fastest of three
    reference loops)."""
    best = min(_timed(_reference) for _ in range(3))
    return (REF_S / best) ** ELASTICITY


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def timed(fn) -> float:
    """Seconds ``fn()`` takes, scaled to the nominal machine by the
    readings just before and just after it."""
    before = machine_scale()
    elapsed = _timed(fn)
    return elapsed * math.sqrt(before * machine_scale())
