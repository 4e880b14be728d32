"""System benchmark — execution-backend matrix for the sharded campaign.

Runs the 8-shard campaign under every backend × worker-count combination
(serial, and process at 1/2/4/8 workers), prints each run's wall-clock
speedup over the sequential protocol, and asserts that every backend
produced identical results — the determinism contract that makes the
backend a pure scheduling choice.

The process backend is the one expected to scale with cores.  On a
single-core runner the matrix still verifies correctness; the
process-vs-serial separation shows up on multi-core hardware.
"""

import json
import time

from conftest import show

from repro.crawler.resumable import ResumableCrawl

SHARDS = 8

#: (backend, max_workers) grid; serial ignores the worker count.
MATRIX = (
    ("serial", 1),
    ("process", 1),
    ("process", 2),
    ("process", 4),
    ("process", 8),
)


def _result_key(result):
    return (
        tuple(record.to_json() for record in result.d_ba),
        tuple(record.to_json() for record in result.d_aa),
        result.report.ok,
        result.report.failed,
        result.report.accepted,
        tuple(sorted(result.allowed_domains)),
    )


def test_backend_matrix(benchmark, world, crawl):
    timings: list[tuple[str, int, float]] = []
    keys = {}
    for backend, workers in MATRIX:
        started = time.perf_counter()
        result = ResumableCrawl(
            world, None, shard_count=SHARDS, backend=backend, max_workers=workers
        ).run().result
        timings.append((backend, workers, time.perf_counter() - started))
        keys[(backend, workers)] = _result_key(result)

    # One representative run under pytest-benchmark's timer so the
    # matrix shows up in the saved benchmark JSON.  A warmup round keeps
    # the recorded figure a steady-state one (plans and caches hot),
    # matching how test_crawl_throughput measures.
    representative = benchmark.pedantic(
        lambda: ResumableCrawl(
            world, None, shard_count=SHARDS, backend="serial"
        ).run().result,
        rounds=1,
        iterations=1,
        warmup_rounds=1,
    )
    bench_visits = (
        representative.report.ok
        + representative.report.failed
        + representative.report.accepted
    )
    bench_elapsed = benchmark.stats.stats.total
    benchmark.extra_info["visits"] = bench_visits
    benchmark.extra_info["visits_per_second"] = (
        bench_visits / bench_elapsed if bench_elapsed else 0.0
    )

    # The session `crawl` fixture already ran the sequential campaign;
    # time a fresh run so the speedup baseline is measured, not cached.
    from repro.crawler.campaign import CrawlCampaign

    started = time.perf_counter()
    CrawlCampaign(world, corrupt_allowlist=True).run()
    sequential = time.perf_counter() - started

    lines = [f"sequential protocol: {sequential:8.2f}s  (speedup 1.00x)"]
    for backend, workers, elapsed in timings:
        speedup = sequential / elapsed if elapsed else float("inf")
        lines.append(
            f"{backend:>7} x{workers}:         {elapsed:8.2f}s  "
            f"(speedup {speedup:4.2f}x)"
        )
    show(f"Backend matrix ({SHARDS}-shard campaign)", "\n".join(lines))

    # Cross-backend result equality: every cell produced byte-identical
    # datasets, counters and allow-lists.
    reference = keys[("serial", 1)]
    for cell, key in keys.items():
        assert key == reference, f"backend cell {cell} diverged from serial"

    # Counters also match the sequential campaign's headline numbers.
    _d_ba, d_aa_json, ok, _failed, accepted, _allowed = reference
    assert crawl.report.ok == ok, "sharded ok-count diverged from sequential"
    assert crawl.report.accepted == accepted
    assert {record.domain for record in crawl.d_aa} == {
        json.loads(line)["domain"] for line in d_aa_json
    }
