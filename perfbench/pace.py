"""Host speed, measured alongside the timed work, to scale timings by.

The vCPU this benchmark was written on changes speed by a factor of 1.5 to
2 on scales from seconds to many minutes (see README.md, Steadiness).  No
statistic of raw times within a 36 s run removes a slow stretch that lasts
the whole run.  So the benchmark also times a fixed reference chunk of work
that does not use ``ietskew``:

- from a SIGALRM handler every ``INTERVAL_S`` while a command runs, so the
  chunks see the same stretches of host speed as the command;
- right before and after each set-up probe.

A timing is then scaled to the host speed at which one chunk takes
``NOMINAL_CHUNK_S``: scaled = raw * NOMINAL_CHUNK_S / (mean chunk time).
The chunk's own time is taken out of the command's time.  The chunk mixes
the kinds of work the package does: an integer loop and small tuples and
dicts for about a quarter of its time each, 8x8 numpy products for about
half.  Each part alone followed the commands' slow-downs less well than the
mix (README.md, Steadiness).  The chunk runs with the garbage collector
off, so its time does not depend on how many objects the command holds.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.15
# About one chunk's median time on the 2-vCPU VM the benchmark was written
# on, so scaled figures read as seconds on that VM.
NOMINAL_CHUNK_S = 0.006

_MATRIX = np.random.default_rng(0).random((8, 8))


def _integers() -> int:
    total = 0
    for i in range(16000):
        total += i * i % 7
    return total


def _objects() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i * 7919 % 61, i * 104729 % 59)
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


def _matrices() -> float:
    x = _MATRIX
    for _ in range(500):
        x = (x @ _MATRIX) / np.abs(x).sum()
    return float(x[0, 0])


class Pace:
    """Reference chunks timed over one run, and the command time they took."""

    def __init__(self):
        self.chunks: list[float] = []  # run during commands
        self._spent = 0.0  # chunk time inside the current command
        self._active = False
        # Installed once for the whole process: restoring the default
        # handler could let a late SIGALRM end the process.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def chunk(self) -> float:
        """Run one reference chunk; returns its seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _integers()
            _objects()
            _matrices()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self.chunks.append(self.chunk())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        """Start sampling during a command."""
        self._spent = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; returns the seconds the chunks took since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        return self._spent

    def scale(self, chunks: list[float] | None = None) -> float:
        """Factor that turns raw seconds into seconds at nominal speed."""
        chunks = self.chunks if chunks is None else chunks
        return NOMINAL_CHUNK_S * len(chunks) / sum(chunks)
