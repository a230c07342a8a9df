"""Spans around the benchmark's own calls into the library's modules.

Nothing inside ``secrecy_rates`` is instrumented: a span covers one call the
benchmark makes into a module's public function.  Spans are kept in memory
as (name, start, end, item) tuples, where ``item`` is the sequence number of
the benchmark item that caused the call, and reduced to per-layer totals
when the run ends.  A disabled tracer calls straight through, so the
untraced run pays one attribute test per call.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.item = 0
        self.spans = []
        self.counts = Counter()

    def call(self, name: str, fn, *args):
        """Return fn(*args), recording a span called ``name`` when enabled."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.item))

    def count(self, name: str, n=1) -> None:
        """Add n to a counter that only the traced run reports."""
        if self.enabled:
            self.counts[name] += n

    def busy(self, *names: str) -> float:
        """Total seconds spent in spans with any of these names."""
        return sum(end - start for name, start, end, _ in self.spans if name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)
