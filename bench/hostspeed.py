"""A fixed pure-Python kernel that measures how fast the host runs right now,
and a clock that uses it to time work in seconds at the host's quiet speed.

The benchmark's host is a share of a busy machine: the same work takes up to
1.7 times longer in one stretch of seconds than in the next, and process CPU
time stretches with it. ScaledClock runs the kernel when it starts, when it
stops and, if asked, every PERIOD_S in between from a timer signal. It
scales each stretch of work between two kernel runs by REFERENCE_S over
their mean time. The kernel's own time is left out.

The kernel imports nothing from the program, so a change to the program
moves the scaled times as it moves the raw ones. It mixes what the program
spends its time on: integer arithmetic, dict lookups, sorting, and small
integer matrix products.
"""

from __future__ import annotations

import signal
import time

# the kernel's time on a 2-vCPU cloud VM (Python 3.11) while the host was
# quiet; it only fixes the scale of the reported seconds
REFERENCE_S = 0.0080
PERIOD_S = 0.25


def kernel() -> int:
    # Few containers are alive at once, so a run of it inside a document
    # neither moves the process's peak memory nor shifts when the garbage
    # collector runs.
    x, table = 1, {}
    for _ in range(9000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (x >> 7) & 1023
        table[key] = table.get(key, 0) + (x >> 60)
    ordered = sorted(table.values())
    m = [[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 0, 2]]
    p = m
    for _ in range(190):
        p = [[sum(a * b for a, b in zip(r, c)) % 1000003 for c in zip(*m)]
             for r in p]
    return len(ordered) + ordered[0] + p[0][0]


def sample() -> tuple[float, float]:
    """Wall and process CPU seconds of one run of the kernel."""
    start, cpu_start = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - start, time.process_time() - cpu_start


class ScaledClock:
    """Context manager: ``wall`` and ``cpu`` are the scaled seconds of the
    work inside it, ``raw_wall`` the unscaled wall seconds.

    With ``ticks`` the kernel also runs from SIGALRM every PERIOD_S. Leave
    it off while a child process does the work: the kernel would compete
    with the child instead of pausing it.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.wall = self.cpu = self.raw_wall = 0.0

    def _mark(self):
        return time.perf_counter(), time.process_time()

    def _stretch(self, now):
        """Add the work from the last mark to ``now``, then run the kernel."""
        speed = sample()
        (wall, cpu), (wall0, cpu0) = now, self._last_mark
        (kwall0, kcpu0), (kwall, kcpu) = self._last_speed, speed
        self.raw_wall += wall - wall0
        self.wall += (wall - wall0) * REFERENCE_S * 2 / (kwall0 + kwall)
        self.cpu += (cpu - cpu0) * REFERENCE_S * 2 / (kcpu0 + kcpu)
        self._last_speed = speed

    def _tick(self, signum, frame):
        if self._in_tick:
            return
        self._in_tick = True
        self._stretch(self._mark())
        self._last_mark = self._mark()
        self._in_tick = False

    def __enter__(self):
        self._in_tick = False
        self._last_speed = sample()
        if self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._last_mark = self._mark()
        return self

    def __exit__(self, *exc):
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a signal already raised must find no handler to run
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._stretch(self._mark())
        return False
