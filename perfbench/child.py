"""One timed operation in a fresh interpreter.

``python3 perfbench/child.py <mode> '<json params>'`` runs one operation
and prints its measurements as one JSON line.  Every operation runs in
its own process so that it starts as a user's command does: imports and
every process-level cache cold.  Modes:

* ``batch`` — generate a world, ``CrawlCampaign(world).run()``,
  ``save_crawl``, then ``load_crawl`` + Table 1 + Figure 5; after the
  timed part the archive is digested and, unless ``"audit": false``,
  audited.
* ``reid`` — one ``run_reidentification`` study on the default backend
  (``"backend": "serial"`` gives the reference ranks).
* ``service-ref`` — reference archives for service jobs: a plain
  ``ResumableCrawl`` of the same spec per requested limit.

With ``"trace": true`` the same work is done as separate calls into each
layer's public functions, each inside a span; the spans go to
``params["spans_out"]``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    archive_digest,
    cpu_seconds,
    peak_rss_mb,
    use_checkout_source,
)
from spans import SpanRecorder, install_wrappers  # noqa: E402


def _world_config(sites: int, seed: int, vantage: str | None = None):
    from repro.service.jobs import JobSpec

    return JobSpec(sites=sites, seed=seed, vantage=vantage or "eu").world_config()


def _violations(directory: Path) -> int:
    from repro.validate.engine import audit_archive

    report = audit_archive(directory)
    return sum(len(outcome.violations) for outcome in report.outcomes)


def batch(params: dict) -> dict:
    from repro.analysis.classify import build_table1
    from repro.analysis.questionable import figure5
    from repro.browser.script import ScriptOriginMode
    from repro.crawler.archive import load_crawl, save_crawl
    from repro.crawler.campaign import CrawlCampaign, CrawlResult, attestation_targets
    from repro.crawler.wellknown import survey_attestations
    from repro.obs import MetricsRegistry
    from repro.web.generator import WebGenerator

    imports_done = time.monotonic()
    out = Path(params["out"])
    config = _world_config(params["sites"], params["seed"])
    traced = params.get("trace", False)
    trace_id = params.get("trace_id", "op")
    recorder = SpanRecorder(prefix=f"{trace_id}.")
    span = recorder.span if traced else (lambda *args, **kwargs: nullcontext())
    if traced:
        install_wrappers(recorder, service=False)
        recorder.spans.append(
            {
                "id": f"{trace_id}.0",
                "parent": None,
                "trace": trace_id,
                "name": "bench.imports",
                "thread": 0,
                "start": params["spawned_at"],
                "end": imports_done,
            }
        )

    with span("web.generator", trace=trace_id):
        world = WebGenerator(config).generate()
    ready, ready_cpu = time.monotonic(), cpu_seconds()
    sites = len(world.tranco)

    counts: dict = {"web.generator.sites": sites}
    if not traced:
        result = CrawlCampaign(world).run()
        save_crawl(result, out)
        saved, saved_cpu = time.monotonic(), cpu_seconds()
        loaded = load_crawl(out)
        build_table1(loaded.d_ba, loaded.d_aa, loaded.allowed_domains, loaded.survey)
        figure5(loaded.d_ba, loaded.allowed_domains, loaded.survey)
        done, done_cpu = time.monotonic(), cpu_seconds()
    else:
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)
        with span("browser.plan", trace=trace_id):
            for _, domain in world.tranco:
                planner.plan_for(domain, False)
                planner.plan_for(domain, True)
        counts["browser.plan.plans"] = 2 * sites
        with span("crawler.campaign", trace=trace_id):
            crawl = CrawlCampaign(world, survey=False).run()
        report = crawl.report
        counts["crawler.campaign.visits"] = report.targets + report.accepted
        with span("crawler.wellknown", trace=trace_id):
            targets = attestation_targets(crawl.d_ba, crawl.d_aa, crawl.allowed_domains)
            survey = survey_attestations(world, targets, report.finished_at)
        counts["crawler.wellknown.probes"] = len(survey)
        result = CrawlResult(
            d_ba=crawl.d_ba,
            d_aa=crawl.d_aa,
            report=report,
            allowed_domains=crawl.allowed_domains,
            survey=survey,
        )
        with span("crawler.archive.save", trace=trace_id):
            save_crawl(result, out)
        saved, saved_cpu = time.monotonic(), cpu_seconds()
        with span("crawler.archive.load", trace=trace_id):
            loaded = load_crawl(out)
        with span("analysis.classify.table1", trace=trace_id):
            build_table1(
                loaded.d_ba, loaded.d_aa, loaded.allowed_domains, loaded.survey
            )
        with span("analysis.questionable.figure5", trace=trace_id):
            figure5(loaded.d_ba, loaded.allowed_domains, loaded.survey)
        done, done_cpu = time.monotonic(), cpu_seconds()
        # Off the blocking path: the instrumented/plain warm-loop ratio.
        with span("crawler.campaign.rerun_plain", trace=trace_id):
            CrawlCampaign(world, survey=False).run()
        with span("crawler.campaign.rerun_metrics", trace=trace_id):
            CrawlCampaign(world, survey=False, metrics=MetricsRegistry()).run()
        recorder.write_jsonl(params["spans_out"])

    rss = peak_rss_mb()
    return {
        "ready": ready,
        "saved": saved,
        "done": done,
        "ready_cpu": ready_cpu,
        "saved_cpu": saved_cpu,
        "done_cpu": done_cpu,
        "sites": sites,
        "visits": result.report.targets + result.report.accepted,
        "archive_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "peak_rss_mb": rss,
        "violations": _violations(out) if params.get("audit", True) else 0,
        "digest": archive_digest(out),
        "counts": counts,
    }


def _reid_config(params: dict):
    from repro.privacy.experiment import ReidentificationConfig

    return ReidentificationConfig(population_size=params["users"], seed=params["seed"])


def _ranks_digest(ranks) -> str:
    return hashlib.sha256(",".join(map(str, ranks)).encode()).hexdigest()


def reid(params: dict) -> dict:
    from repro.obs import MetricsRegistry
    from repro.privacy.attack import SequenceMatcher, link_profiles
    from repro.privacy.experiment import run_reidentification
    from repro.users.browsing import TraceGenerator
    from repro.users.population import Population
    from repro.util.executor import resolve_backend_name

    backend = params.get("backend")
    resolved = resolve_backend_name(backend)
    config = _reid_config(params)
    ready, ready_cpu = time.monotonic(), cpu_seconds()
    counts: dict = {}
    trace_id = params.get("trace_id", "op")
    if not params.get("trace", False):
        ranks = run_reidentification(config, backend=backend).linkage.true_match_ranks
    else:
        # run_reidentification's steps, one span per layer call.
        recorder = SpanRecorder(prefix=f"{trace_id}.")
        metrics = MetricsRegistry()
        with recorder.span("users.population", trace=trace_id):
            population = Population.generate(config.population_size, seed=config.seed)
        with recorder.span("users.browsing", trace=trace_id):
            generator = TraceGenerator(
                population,
                callers=[config.caller_a, config.caller_b],
                visits_per_epoch=config.visits_per_epoch,
                noise_probability=config.noise_probability,
            )
            total_epochs = config.burn_in_epochs + config.observation_epochs
            buffers = generator.run_many(
                total_epochs,
                range(config.burn_in_epochs, total_epochs),
                metrics=metrics,
            )
            views_a = buffers.views_for(config.caller_a)
            views_b = buffers.views_for(config.caller_b)
        with recorder.span("privacy.attack", trace=trace_id):
            linkage = link_profiles(views_a, views_b, SequenceMatcher(), metrics=metrics)
        ranks = linkage.true_match_ranks
        recorder.write_jsonl(params["spans_out"])
        counters = {name: value for (name, _), value in metrics.snapshot().counters.items()}
        counts = {
            "users.browsing.users": counters.get("reid_users_total", 0),
            "privacy.attack.pairs_scored": counters.get("reid_pairs_scored_total", 0),
            "privacy.attack.pairs_pruned": counters.get("reid_candidates_pruned_total", 0),
        }
    done, done_cpu = time.monotonic(), cpu_seconds()
    return {
        "ready": ready,
        "done": done,
        "ready_cpu": ready_cpu,
        "done_cpu": done_cpu,
        "users": config.population_size,
        "backend": resolved,
        "peak_rss_mb": peak_rss_mb(),
        "digest": _ranks_digest(ranks),
        "counts": counts,
    }


def service_ref(params: dict) -> dict:
    """Reference archives for one world: a plain ``ResumableCrawl`` per limit."""
    from repro.crawler.archive import save_crawl
    from repro.crawler.campaign import attestation_targets
    from repro.crawler.checkpoint import RetryPolicy
    from repro.crawler.resumable import ResumableCrawl
    from repro.crawler.wellknown import survey_attestations
    from repro.service.jobs import JobSpec
    from repro.web.generator import WebGenerator

    out = Path(params["out"])
    started = time.monotonic()
    config = _world_config(params["sites"], params["seed"], params["vantage"])
    world = WebGenerator(config).generate()
    generated = time.monotonic()
    digests, probes, survey_s = {}, 0, 0.0
    for limit in params["limits"]:
        spec = JobSpec(
            sites=params["sites"],
            seed=params["seed"],
            vantage=params["vantage"],
            limit=limit,
        )
        target = out / f"limit-{limit}"
        crawl = ResumableCrawl(
            world,
            target / "checkpoints",
            shard_count=spec.shards,
            checkpoint_every=spec.checkpoint_every,
            corrupt_allowlist=spec.corrupt_allowlist,
            backend="serial",
            limit=spec.limit,
            retry_policy=RetryPolicy(max_retries=spec.max_shard_retries),
        ).run()
        save_crawl(crawl.result, target / "archive")
        digests[str(limit)] = archive_digest(target / "archive")
        if params.get("trace", False):
            # The survey the service's merge runs, timed on the same input.
            result = crawl.result
            began = time.monotonic()
            survey = survey_attestations(
                world,
                attestation_targets(result.d_ba, result.d_aa, result.allowed_domains),
                result.report.finished_at,
            )
            survey_s += time.monotonic() - began
            probes += len(survey)
    return {
        "generate_s": generated - started,
        "digests": digests,
        "survey_s": survey_s,
        "probes": probes,
    }


MODES = {"batch": batch, "reid": reid, "service-ref": service_ref}


def main(argv: list[str]) -> int:
    use_checkout_source()
    mode, params = argv[0], json.loads(argv[1])
    print(json.dumps(MODES[mode](params)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
