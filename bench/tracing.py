"""Spans the benchmark records around its own calls into the package.

The untraced run passes `NULL`, whose `call` is a plain call.  A `Tracer`
keeps per-span-name totals in memory: calls, self time (span time minus
the time of spans opened inside it) and failures by error code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class NullTracer:
    active = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = NullTracer()


class Tracer:
    active = True

    def __init__(self, error_code):
        self.error_code = error_code
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.failed = Counter()
        self.failed_by_code = Counter()  # (span name, code) -> count
        self.counters = Counter()
        self._child_time = []  # one accumulator per open span

    def call(self, name, fn, *args, **kwargs):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed[name] += 1
            self.failed_by_code[name, self.error_code(exc)] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            self.calls[name] += 1
            self.self_s[name] += elapsed - self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed

    def count(self, name, value):
        self.counters[name] += value
