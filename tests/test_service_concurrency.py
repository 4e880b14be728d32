"""Concurrent campaigns: shared world builds, independent results.

Two jobs submitted together over the same ``(sites, seed, vantage)``
must share **one** world build (pinned via the service's world-build
counter) and still archive byte-identically to the same jobs submitted
one at a time — concurrency is a scheduling detail, never a data
difference.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.service import CrawlService, JobSpec, JobState

SITES = 100
EVERY = 20


def _spec(seed: int = 4, shards: int = 2) -> JobSpec:
    return JobSpec(
        sites=SITES, seed=seed, shards=shards, checkpoint_every=EVERY
    )


async def _submit_all(
    service: CrawlService, specs: list[JobSpec]
) -> list[Path]:
    job_ids = [await service.submit(spec) for spec in specs]
    archives = []
    for job_id in job_ids:
        record = await service.wait(job_id)
        assert record.state is JobState.DONE, record.error
        archives.append(Path(record.archive_dir))
    return archives


def _read_archive(archive: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in sorted(archive.iterdir())
    }


class TestSharedWorldCache:
    def test_concurrent_same_world_builds_once(self, tmp_path):
        """Two concurrent campaigns over one world fingerprint: one build,
        one cache hit, and archives identical to serial submission."""

        # Same world, different shard layouts — the cache key is the
        # world, not the campaign.
        specs = [_spec(shards=2), _spec(shards=3)]

        async def concurrent():
            service = CrawlService(
                tmp_path / "concurrent", max_jobs=2, backend="serial"
            )
            await service.start()
            archives = await _submit_all(service, specs)
            snapshot = service.metrics.snapshot()
            await service.close()
            return archives, snapshot

        archives, snapshot = asyncio.run(concurrent())
        assert snapshot.counter_value("service_world_builds_total") == 1
        assert snapshot.counter_value("service_world_cache_hits_total") == 1

        async def serial():
            # max_jobs=1 forces one-at-a-time execution of the same specs.
            service = CrawlService(
                tmp_path / "serial", max_jobs=1, backend="serial"
            )
            await service.start()
            archives = await _submit_all(service, specs)
            await service.close()
            return archives

        serial_archives = asyncio.run(serial())
        for concurrent_dir, serial_dir in zip(archives, serial_archives):
            assert _read_archive(concurrent_dir) == _read_archive(serial_dir)

    def test_distinct_worlds_build_separately(self, tmp_path):
        async def run():
            service = CrawlService(tmp_path / "svc", max_jobs=2)
            await service.start()
            await _submit_all(service, [_spec(seed=4), _spec(seed=9)])
            snapshot = service.metrics.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(run())
        assert snapshot.counter_value("service_world_builds_total") == 2
        assert snapshot.counter_value("service_world_cache_hits_total") == 0

    def test_sequential_jobs_reuse_the_cached_world(self, tmp_path):
        async def run():
            service = CrawlService(tmp_path / "svc", max_jobs=1)
            await service.start()
            await _submit_all(service, [_spec(), _spec()])
            snapshot = service.metrics.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(run())
        assert snapshot.counter_value("service_world_builds_total") == 1
        assert snapshot.counter_value("service_world_cache_hits_total") == 1
