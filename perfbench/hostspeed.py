"""Host time normalized for the host's speed at the moment.

The 2-core VM this benchmark was built on (Python 3.11) does not run at
one speed: a fixed piece of Python work takes from 1x to over 2x its
fastest time, in phases that last from under a second to minutes.  Raw
``perf_counter`` rates of identical runs differed by up to 2x depending
on when they ran, and a calibration taken only before and after a
repetition missed the changes in between.

So every timed stretch of work is cut into segments, and between
segments the benchmark times one short calibration slice: fixed
pure-Python work (an integer loop, then a walk over a dict of short
lists) that uses no code of the program, so no program change can move
it.  Of the slices tried, integer work alone tracked the batched and
read-only workloads best and a dict walk alone the MVCC-bound one; the
mix of both, with a table of a few MB, kept every workload's
repetition-to-repetition spread over six minutes of changing host
speed at 7% (interquartile range) against 20-40% raw.

Each segment's host seconds are scaled by ``REFERENCE_S`` over the mean
of the slices on either side of it, which expresses it in seconds of a
reference host on which one slice takes ``REFERENCE_S`` (about the
fastest it ran on that VM).  Slice time itself is excluded from every
figure.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

#: Seconds one calibration slice takes on the reference host.
REFERENCE_S = 0.005

_ROUNDS = 20_000
#: Read-only table the slice walks, shaped like the simulator's dicts
#: of short lists and, at a few MB, too big for the core's own caches
#: (built once, never changed).
_TABLE = {b"user%010d" % index: [index, index + 1, index + 2]
          for index in range(30_000)}


def slice_s() -> float:
    """Time one calibration slice, in host seconds: integer arithmetic
    followed by one walk over a dict of lists."""
    started = time.perf_counter()
    state = 0
    for index in range(_ROUNDS):
        state = (state * 31 + index) & 0xFFFFFFFF
    seen = 0
    for chain in _TABLE.values():
        for value in chain:
            if value <= seen:
                seen += 1
    return time.perf_counter() - started


class HostClock:
    """Accumulates the raw and the reference seconds of a stretch of
    work, cut into segments by :meth:`split`.

    ``on_segment`` (if given) receives each segment's raw length in
    nanoseconds, e.g. to extend a tracer's window by exactly the time
    that was measured.
    """

    def __init__(self,
                 on_segment: Optional[Callable[[int], None]] = None) -> None:
        self.raw_s = 0.0
        self.reference_s = 0.0
        self._on_segment = on_segment
        self._slice_before = slice_s()
        self._started = time.perf_counter_ns()

    def split(self) -> None:
        """End the current segment and start the next one."""
        ended = time.perf_counter_ns()
        slice_after = slice_s()
        segment_ns = ended - self._started
        segment_s = segment_ns * 1e-9
        self.raw_s += segment_s
        self.reference_s += (segment_s * REFERENCE_S * 2
                             / (self._slice_before + slice_after))
        if self._on_segment is not None:
            self._on_segment(segment_ns)
        self._slice_before = slice_after
        self._started = time.perf_counter_ns()
