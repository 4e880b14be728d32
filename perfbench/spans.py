"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer's public function, timed from outside
the layer: name, start, end, parent span and the trace id of the
operation (campaign, job or study) it belongs to.  Spans stay in memory
until the run ends and are then written as JSONL.

Times come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which
is one clock for every process on the host, so spans recorded in a child
process line up with the parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator


class SpanRecorder:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self, prefix: str = "") -> None:
        # The prefix keeps ids unique when spans from several processes
        # are merged into one file.
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": f"{self._prefix}{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "trace": trace if trace is not None else (parent or {}).get("trace"),
            "name": name,
            "thread": threading.get_ident(),
            "start": time.monotonic(),
            "end": None,
            **attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda span: span["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Span id → duration minus the time its direct children cover.

    Children run on their parent's thread, nested inside it, so their
    intervals never overlap and their durations simply add up.
    """
    spans = list(spans)
    covered: dict[str, float] = {}
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] = covered.get(record["parent"], 0.0) + (
                record["end"] - record["start"]
            )
    return {
        record["id"]: (record["end"] - record["start"]) - covered.get(record["id"], 0.0)
        for record in spans
    }


def self_time_table(spans: Iterable[dict]) -> list[tuple[str, int, float, float]]:
    """Per span name: (name, calls, total self seconds, total seconds)."""
    spans = list(spans)
    own = self_times(spans)
    rows: dict[str, list] = {}
    for record in spans:
        row = rows.setdefault(record["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[record["id"]]
        row[2] += record["end"] - record["start"]
    return sorted(
        ((name, calls, self_s, total) for name, (calls, self_s, total) in rows.items()),
        key=lambda row: -row[2],
    )


def render_table(title: str, spans: Iterable[dict]) -> str:
    lines = [
        f"self-time table: {title}",
        f"  {'span':<34} {'calls':>6} {'self_s':>10} {'total_s':>10}",
    ]
    for name, calls, self_s, total in self_time_table(spans):
        lines.append(f"  {name:<34} {calls:>6} {self_s:>10.4f} {total:>10.4f}")
    return "\n".join(lines)


# -- wrapping layer functions that are entered only from inside another layer --


def _job_of(path: object) -> str | None:
    """The service job id a path belongs to (``.../jobs/<id>/...``)."""
    parts = Path(str(path)).parts
    for index, part in enumerate(parts[:-1]):
        if part == "jobs":
            return parts[index + 1]
    return None


def _tree_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.iterdir() if entry.is_file())


def _traced(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    path_of: Callable[[tuple, object], object],
    size_of: Callable[[object], int] | None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = fn(*args, **kwargs)
            path = path_of(args, result)
            if record["trace"] is None:
                record["trace"] = _job_of(path)
            if size_of is not None:
                record["bytes"] = size_of(result)
            return result

    return wrapper


def _rebind(original: object, replacement: object) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (modules import the fsio helpers by name)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_wrappers(recorder: SpanRecorder, *, service: bool) -> None:
    """Wrap the inner-layer public functions the traced run may observe.

    ``util.fsio`` everywhere; with ``service`` also ``CheckpointStore``
    reads/writes and the archive write inside ``run_job``.  Import the
    modules that bind these names before calling this.
    """
    from repro.util import fsio

    original = fsio.atomic_write_text
    _rebind(
        original,
        _traced(
            recorder,
            original,
            "util.fsio.write",
            lambda args, result: result,
            lambda result: os.path.getsize(result),
        ),
    )
    if not service:
        return
    from repro.crawler.checkpoint import CheckpointStore
    from repro.service import runner

    CheckpointStore.write = _traced(
        recorder,
        CheckpointStore.write,
        "crawler.checkpoint.write",
        lambda args, result: result,
        lambda result: os.path.getsize(result),
    )
    CheckpointStore.load = _traced(
        recorder,
        CheckpointStore.load,
        "crawler.checkpoint.load",
        lambda args, result: args[1],
        None,
    )
    runner.save_crawl = _traced(
        recorder,
        runner.save_crawl,
        "crawler.archive.save",
        lambda args, result: result,
        lambda result: _tree_bytes(Path(result)),
    )
