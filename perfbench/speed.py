"""A fixed reference computation that tracks how fast the CPU runs right now.

On a shared host the same operation can take 40% longer in one minute than in
the next, because other tenants slow the cores down.  The benchmark times
``reference()`` next to every operation and rescales the operation's wall
time by ``REF_S / reference time``: the result is the operation's time on a
CPU that runs the reference in ``REF_S`` seconds.  A change to the program
moves the rescaled times exactly as it moves wall times, while a slow spell
of the host moves the operation and the reference together and cancels out.

The reference mixes interpreter work (arithmetic, a dict, a list) with numpy
work (elementwise math and a sort), as the program does.  It never touches
the program, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time

# About the median time of one reference() on a 2-vCPU Intel Xeon host.
REF_S = 0.008

_LOOP = 45_000
_ARRAY = 40_000
_data = None


def reference() -> float:
    """Wall seconds of one fixed piece of interpreter and numpy work."""
    global _data
    import numpy as np

    if _data is None:
        _data = np.random.default_rng(0).random(_ARRAY)
    start = time.perf_counter()
    acc = 0.0
    seen = {}
    parts = []
    for k in range(_LOOP):
        acc += (k % 13) * 0.5 - acc * 1e-6
        seen[k & 255] = acc
        if not k & 63:
            parts.append(acc)
    np.sort(np.exp(-_data * acc * 1e-9) * _data).sum()
    return time.perf_counter() - start


def median_reference(n: int) -> float:
    return statistics.median(reference() for _ in range(n))


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time, as taken at the reference speed."""
    return seconds * REF_S * 2.0 / (ref_before + ref_after)
