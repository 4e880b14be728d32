"""Benchmark fixtures: one paper-scale world and crawl per session.

Every bench regenerates one of the paper's tables/figures from this shared
campaign and prints the rows next to the published values.  Scale is
controlled with ``REPRO_BENCH_SITES`` (default: the paper's 50,000).
"""

from __future__ import annotations

import os

import pytest

from repro.crawler.campaign import CrawlCampaign, CrawlResult
from repro.web.config import WorldConfig
from repro.web.generator import SyntheticWeb, WebGenerator

BENCH_SITES = int(os.environ.get("REPRO_BENCH_SITES", "50000"))

#: Ratio to the paper's scale, used to scale absolute expectations.
SCALE = BENCH_SITES / 50_000


def bench_config(seed: int = 1) -> WorldConfig:
    return WorldConfig.small(BENCH_SITES, seed=seed)


@pytest.fixture(scope="session")
def world() -> SyntheticWeb:
    return WebGenerator(bench_config()).generate()


@pytest.fixture(scope="session")
def crawl(world: SyntheticWeb) -> CrawlResult:
    return CrawlCampaign(world, corrupt_allowlist=True).run()


def show(title: str, body: str) -> None:
    """Print a regenerated artefact under a banner (visible with -s, and
    in pytest's captured-output section otherwise)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def run_scenario(benchmark, out_dir, name: str):
    """Run one declared scenario sweep at bench scale and show its report.

    The scenario benches are thin wrappers over the declared specs under
    ``scenarios/``: the spec owns the axes and cross-cell assertions, the
    bench just executes the sweep (shrunk to ``REPRO_BENCH_SITES`` when
    that is below the declared world size) and surfaces the report.
    """
    from repro.scenarios import render_sweep_report, resolve_spec, run_sweep

    spec = resolve_spec(name)
    declared = int(spec.world_dict().get("sites", 50_000))
    if BENCH_SITES < declared:
        spec = spec.with_world_overrides({"sites": BENCH_SITES})
    outcome = benchmark.pedantic(
        lambda: run_sweep(spec, out_dir, backend="serial"),
        rounds=1,
        iterations=1,
    )
    show(f"Scenario sweep: {name}", render_sweep_report(outcome.report))
    return outcome
