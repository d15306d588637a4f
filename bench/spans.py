"""Call tracing from outside the program.

A Tracer replaces functions and methods by wrappers that record, per span
name, the number of calls, the inclusive time and the self time (inclusive
time minus the time of the traced calls made inside it). Observers read
work counters from a call's arguments and result. Spans nest through one
stack, so the program must be run from one thread while it is traced.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []        # child time of each open span
        self._undo: list[tuple] = []

    def wrap(self, owner, attr, name, observe=None):
        """Trace ``owner.attr`` as span ``name``.

        ``owner`` is the module or class where the program looks the name up;
        wrapping the defining module misses callers that imported the name.
        ``observe(count, args, result)`` runs after each successful call and
        adds to counters through ``count(counter_name, amount)``.
        """
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        count = self.count

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if observe is not None:
                observe(count, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def snapshot(self):
        """(calls per span and counters, times per span) since the last reset."""
        counts = {name: stat[0] for name, stat in self.stats.items()}
        counts.update(self.counters)
        times = {name: (stat[1], stat[2]) for name, stat in self.stats.items()}
        return counts, times

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
