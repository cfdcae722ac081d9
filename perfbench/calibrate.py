"""A fixed measure of how fast the host runs Python at this moment.

A shared host's speed swings by a factor of up to 1.6 within a minute,
and trial times swing with it.  :func:`calibration_s` times two fixed
loops that do not touch ``repro``: an event loop shaped like the
simulator's (a heap of timed events, small objects, records appended to
a list) and a loop of integer arithmetic.  Host phases slow the first
more than a trial and the second less, so their geometric mean is
the measure.  ``run.py`` takes one before and one after every trial,
campaign batch and cold start, and scales its times by ``NOMINAL_S``
over their mean, so that a run reports times at one nominal host speed
whatever phase of the host it fell in.

    python3 perfbench/calibrate.py    # median of 50 passes, CPU seconds
"""

from __future__ import annotations

import gc
import heapq
from time import process_time

#: A typical median of :func:`calibration_s` on a 2-vCPU Intel Xeon VM
#: with CPython 3.11.7, the host the benchmark's baseline was measured
#: on; by host phase it ranged 0.019-0.035 s.
NOMINAL_S = 0.03

_LIVE_EVENTS = 1000
_STEPS = 15000
_ADDS = 300000


class _Event:
    __slots__ = ("time", "kind", "data")

    def __init__(self, time: float, kind: int, data: dict) -> None:
        self.time = time
        self.kind = kind
        self.data = data


def _events() -> int:
    heap: list = []
    records: list = []
    for i in range(_LIVE_EVENTS):
        heapq.heappush(heap, (i * 0.37 % 11.0, i, _Event(i, i % 7, {"n": i})))
    steps = 0
    while steps < _STEPS:
        time, seq, event = heapq.heappop(heap)
        steps += 1
        records.append((time, event.kind, str(event.data["n"])))
        heapq.heappush(
            heap, (time + (seq % 13) * 0.1, _LIVE_EVENTS + steps,
                   _Event(time, event.kind, {"n": steps}))
        )
    return len(records)


def _arithmetic() -> int:
    total = 0
    for i in range(_ADDS):
        total = (total + i * 7) % 1000003
    return total


def _seconds(loop, clock) -> float:
    start = clock()
    loop()
    return clock() - start


def calibration_s(clock=process_time) -> float:
    """Geometric mean of the two loops' times on ``clock``, in seconds.

    Scale a time by a calibration taken on the same clock: CPU time by
    CPU time, wall time by wall time.  Neither loop makes reference
    cycles; the cyclic collector is held off so that their time does not
    depend on what else lives on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_seconds(_events, clock) * _seconds(_arithmetic, clock)) ** 0.5
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    import statistics

    print(statistics.median(calibration_s() for _ in range(50)))
