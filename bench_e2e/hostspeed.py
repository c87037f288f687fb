"""How fast the host is running, sampled beside the work it is used to judge.

The build VM's two cores are shared: for minutes at a time the same code
runs up to 1.6x slower (even the fastest of thousands of 0.2 ms samples
does, and process CPU time rises with the wall, so it is the core being
slower, not time taken away).  No statistic over the walls of a 25 s run
removes a spell that outlasts the run.  A fixed piece of reference work
timed in the same spell does: it slows by the same factor, so the ratio of
the two does not move.

A :class:`Probe` runs :func:`reference_work` every few trace rounds inside
the timed region (sampling evenly in *work*, which keeps the ratio exact
when the speed changes mid-run; about 2 % of the wall, subtracted from it).
``slowdown`` is the mean sample over :data:`REFERENCE_NOMINAL_S`, and a host
time divided by it is that time *at the nominal host speed*.  The reference
lives here and calls nothing under ``src/``, so a change to the program
moves the ratio exactly as it moves the wall.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator
from zlib import crc32

#: What one sample takes on the build VM while nothing else is busy (the best
#: replays averaged 0.215-0.225 ms).  Only a scale: it makes the normalised
#: seconds read like seconds of a quiet host.
REFERENCE_NOMINAL_S = 0.00022

#: Samples taken back to back on either side of a timed region, so that a
#: region too short for ``tick()`` to fire is judged by some.
EDGE_SAMPLES = 25

_DATA = bytes(range(256)) * 16
_CHAIN = [0] * 1001


def reference_work() -> None:
    """A crc32 chain over 4-byte slices: byte slicing, a C call, a fresh
    integer and a list store per step, allocating nothing the collector
    tracks.  Which work is timed matters, because a slow spell does not slow
    all code alike: over replays of one sub-trace whose walls ranged over
    1.6x, wall / reference spread 5 % with this loop, 19 % with a loop of
    dictionary reads and integer arithmetic only (4 / 10 % on
    ``cache_contended``, 3 / 4 % on ``gateway_live``), and 15 % with a walk
    over a 10 MB table, which follows memory latency instead."""
    data, chain, acc = _DATA, _CHAIN, 0
    for i in range(1000):
        acc = crc32(data[i * 4 : (i + 1) * 4], acc)
        chain[i + 1] = acc


class Probe:
    """Accumulates reference samples; ``tick()`` is called once per round."""

    def __init__(self, every: int = 0) -> None:
        self._every = every
        self._left = every  # 0 never fires: tick() only counts down from it
        self.samples = 0
        self.seconds = 0.0
        self._started = (0.0, 0.0)  # clock and self.seconds at start()

    @contextmanager
    def edges(self) -> Iterator[None]:
        """Samples on either side of the block that holds a timed region."""
        self.sample(EDGE_SAMPLES)
        yield
        self.sample(EDGE_SAMPLES)

    def start(self) -> float:
        """Open a timed region; the clock reading it starts at."""
        self._started = (time.perf_counter(), self.seconds)
        return self._started[0]

    def stop(self) -> float:
        """Close the region: its wall without the samples taken inside it."""
        started, sampled = self._started
        return time.perf_counter() - started - (self.seconds - sampled)

    def mute(self) -> None:
        """No samples from ``tick()`` (the traced replay times its spans)."""
        self._left = 0

    def tick(self) -> None:
        self._left -= 1
        if self._left:
            return
        self._left = self._every
        self.sample(1)

    def sample(self, n: int) -> None:
        clock = time.perf_counter
        for _ in range(n):
            start = clock()
            reference_work()
            self.seconds += clock() - start
        self.samples += n

    @property
    def slowdown(self) -> float:
        """Mean sample over the nominal one: 1.0 on a quiet build VM."""
        return self.seconds / self.samples / REFERENCE_NOMINAL_S
