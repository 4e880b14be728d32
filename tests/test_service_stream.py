"""Property test: the event stream reassembles the batch result, always.

For arbitrary small worlds and shard counts, the ordered stream of a
job's events must be a lossless, duplicate-free encoding of the batch
campaign:

* sequence numbers are contiguous from 1 and end in exactly one
  terminal event;
* each effective shard produces exactly one ``shard-result``;
* the rebased Before-Accept rows in the ``shard-result`` events,
  ordered by shard, are **byte-identical** to the batch ``save_crawl``
  archive's ``d_ba.jsonl``;
* a reconnect from any ``since`` offset replays exactly the suffix —
  no duplicates, no gaps.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crawler.archive import save_crawl
from repro.crawler.resumable import ResumableCrawl
from repro.service import (
    CrawlService,
    EVENT_JOB_DONE,
    EVENT_SHARD_RESULT,
    JobSpec,
    JobState,
)
from repro.web.generator import WebGenerator


async def _run_streamed(spec: JobSpec, data_dir: Path):
    """Submit one job and live-consume its full event stream."""
    service = CrawlService(data_dir, backend="serial")
    await service.start()
    job_id = await service.submit(spec)
    replay, sub = service.subscribe(job_id)
    events = list(replay)
    while not (events and events[-1].terminal):
        events.append(await sub.get())
    service.unsubscribe(sub)
    record = await service.wait(job_id)
    # Reconnect semantics, checked while the log is still live: from any
    # offset, the replay is exactly the suffix.
    probe = len(events) // 2
    suffix, sub2 = service.subscribe(job_id, since=probe)
    service.unsubscribe(sub2)
    await service.close()
    return record, events, probe, suffix


@given(
    sites=st.integers(min_value=24, max_value=96),
    shards=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=1, max_value=5),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stream_reassembles_batch_result(sites: int, shards: int, seed: int):
    spec = JobSpec(
        sites=sites,
        seed=seed,
        shards=shards,
        checkpoint_every=10,
        progress_every=5,
    )
    with tempfile.TemporaryDirectory(prefix="repro-service-prop-") as tmp:
        tmp_path = Path(tmp)
        record, events, probe, suffix = asyncio.run(
            _run_streamed(spec, tmp_path / "svc")
        )
        assert record.state is JobState.DONE

        # Contiguity and single termination.
        assert [event.seq for event in events] == list(
            range(1, len(events) + 1)
        )
        terminals = [event for event in events if event.terminal]
        assert len(terminals) == 1 and terminals[0] is events[-1]
        assert events[-1].kind == EVENT_JOB_DONE

        # One shard-result per effective shard, none duplicated.
        results = [e for e in events if e.kind == EVENT_SHARD_RESULT]
        shard_ids = [e.payload["shard"] for e in results]
        assert len(shard_ids) == len(set(shard_ids))
        batch_world = WebGenerator(spec.world_config()).generate()
        batch = ResumableCrawl(
            batch_world, None, shard_count=shards, backend="serial"
        ).run().result
        archive = save_crawl(batch, tmp_path / "batch")
        assert sorted(shard_ids) == list(range(len(results)))

        # Completeness: shard-ordered streamed rows == the batch archive.
        streamed = [
            line
            for _, payload in sorted(
                (e.payload["shard"], e.payload) for e in results
            )
            for line in payload["d_ba"]
        ]
        archived = (
            (archive / "d_ba.jsonl").read_text(encoding="utf-8").splitlines()
        )
        assert streamed == archived

        # Per-shard totals in the stream match the batch report.
        assert sum(e.payload["ok"] for e in results) == batch.report.ok
        assert (
            sum(e.payload["accepted"] for e in results)
            == batch.report.accepted
        )

        # Reconnect from the middle: exactly the suffix, nothing else.
        assert [event.seq for event in suffix] == [
            event.seq for event in events[probe:]
        ]
        assert [event.kind for event in suffix] == [
            event.kind for event in events[probe:]
        ]
