"""Live crawl progress derived from span events.

A :class:`ProgressTracker` is a :class:`~repro.obs.spans.SpanRecorder`
listener: every completed ``visit`` span updates its counters, and at a
bounded real-time cadence it rewrites one stderr status line —
visits/s (real wall-clock), ETA, and per-shard completion.  Shard
recorders inherit the campaign recorder's listener, so a sharded crawl
reports every shard through one tracker (all state changes happen under
a lock, so any calling thread is safe).

The tracker measures *real* elapsed time (it exists for a human watching
a terminal), but reads nothing else from the environment: the time
source and output stream are injectable for tests.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, TextIO

from repro.obs.spans import SPAN_VISIT, Span

#: Phase label of the Before-Accept protocol leg (mirrors
#: :data:`repro.crawler.dataset.PHASE_BEFORE` without importing the
#: crawler package from ``obs``).
_PHASE_BEFORE = "before-accept"


class ProgressTracker:
    """Periodic one-line progress report over completed visit spans.

    ``targets`` is the number of ranked domains the campaign will
    process (Before-Accept visits are the unit of completion — every
    target gets exactly one, After-Accept visits ride along in the
    visits/s rate).  ``shard_sizes`` maps shard index → its target count
    for the per-shard completion column.
    """

    def __init__(
        self,
        targets: int,
        shard_sizes: dict[int, int] | None = None,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self._targets = max(int(targets), 0)
        self._shard_sizes = dict(shard_sizes or {})
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._time_fn = time_fn
        self._started = time_fn()
        self._last_render = float("-inf")
        self._last_width = 0
        self._visits = 0
        self._completed = 0
        self._shard_done: dict[int, int] = {}
        self._lines_written = 0
        self._lock = threading.Lock()

    # -- listener -------------------------------------------------------------

    def __call__(self, span: Span) -> None:
        """SpanRecorder listener: account one completed span."""
        if span.name != SPAN_VISIT:
            return
        with self._lock:
            self._visits += 1
            if span.fields.get("phase", _PHASE_BEFORE) == _PHASE_BEFORE:
                self._completed += 1
                shard = span.fields.get("shard")
                if shard is not None:
                    shard = int(shard)
                    self._shard_done[shard] = self._shard_done.get(shard, 0) + 1
            now = self._time_fn()
            if now - self._last_render >= self._min_interval:
                self._last_render = now
                self._write(self.render_line())

    # -- rendering ------------------------------------------------------------

    def render_line(self) -> str:
        """The current status line (no trailing newline)."""
        elapsed = max(self._time_fn() - self._started, 1e-9)
        rate = self._visits / elapsed
        if self._targets:
            fraction = min(self._completed / self._targets, 1.0)
            percent = f"{fraction:.1%}"
        else:
            fraction, percent = 0.0, "?"
        if 0 < fraction < 1:
            eta = f"{elapsed * (1 - fraction) / fraction:,.0f}s"
        elif fraction >= 1:
            eta = "0s"
        else:
            eta = "?"
        parts = [
            f"crawl: {self._completed:,}/{self._targets:,} sites ({percent})",
            f"{rate:,.1f} visits/s",
            f"ETA {eta}",
        ]
        if self._shard_sizes:
            shard_bits = []
            for shard in sorted(self._shard_sizes):
                size = self._shard_sizes[shard]
                done = self._shard_done.get(shard, 0)
                share = done / size if size else 0.0
                shard_bits.append(f"{shard}:{share:.0%}")
            parts.append("shards " + " ".join(shard_bits))
        return " | ".join(parts)

    def finish(self) -> None:
        """Write the final line and terminate it with a newline."""
        with self._lock:
            self._write(self.render_line())
            self._stream.write("\n")
            self._stream.flush()

    @property
    def lines_written(self) -> int:
        return self._lines_written

    def _write(self, line: str) -> None:
        # Overwrite the previous line in place; pad so a shorter line
        # fully covers a longer one.
        padded = line.ljust(self._last_width)
        self._last_width = len(line)
        self._stream.write("\r" + padded)
        self._stream.flush()
        self._lines_written += 1
