"""Sharded campaigns: split, checkpoint, crash, retry, resume, merge.

Real measurement campaigns parallelise exactly this way — the ranking is
partitioned, each worker drives its own browser profile, and the shards'
records are merged afterwards.  Shards are *fully deterministic and
order-independent*: every shard gets its own browser (history, cache,
consent ledger, clock) and its own user seed, so the merged datasets are
identical no matter how the backend schedules the work.

:class:`ResumableCrawl` is the one sharded-campaign orchestrator.  With
a checkpoint directory it adds the durability layer a weeks-long
campaign needs:

* every shard writes periodic atomic checkpoints
  (:mod:`repro.crawler.checkpoint`) while it crawls;
* a shard that dies is retried from its **own last checkpoint** — not
  from scratch — after capped exponential backoff on the simulated
  clock (retry pauses live on the orchestrator timeline, never the
  browsing timeline, so the dataset stays byte-identical to an
  uninterrupted run);
* a campaign killed outright is restarted with ``resume=True`` and
  picks every shard up from its newest durable checkpoint (finished
  shards load without re-running a single visit);
* with ``allow_partial=True`` a shard that exhausts its retries
  degrades gracefully: its checkpointed prefix is merged into the
  dataset and the missing global-rank ranges are named in a
  :class:`~repro.crawler.checkpoint.PartialManifest` instead of the
  whole campaign aborting.

``checkpoint_dir=None`` runs the same campaign without a store: nothing
is written or fingerprinted, and a retried shard starts over.

Execution is backend-pluggable (:mod:`repro.crawler.executor`): shards
run serially or in worker processes.  A non-picklable
``fault_injector`` (e.g. a test closure) silently downgrades
``process`` to ``serial`` rather than failing the campaign — use
:class:`~repro.crawler.executor.CrashSchedule` for process-backend
fault injection.

The merge must reproduce what :meth:`CrawlCampaign.run` would have done
over the whole ranking: the attestation survey is built from the shared
:func:`repro.crawler.campaign.attestation_targets` helper (both datasets,
not just ``D_BA``), and the merged report keeps honest timestamps —
``started_at`` is the earliest shard start, ``finished_at`` the latest
shard finish, so ``duration_seconds`` stays the parallel wall-clock.
Every shard, on either backend, finishes as one plain-data
:class:`~repro.crawler.executor.ShardResult`.  With instrumentation on
it carries the shard's trace events, metrics snapshot and spans; the
merge re-emits the events into the campaign-level tracer tagged with the
shard index, folds the metric snapshots together (adding per-shard skew
gauges) and grafts the spans under one campaign root.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.crawler.campaign import CrawlReport, CrawlResult, attestation_targets
from repro.crawler.checkpoint import (
    CheckpointStore,
    MissingRange,
    PartialManifest,
    RetryPolicy,
    ShardCheckpoint,
    campaign_fingerprint,
    restore_datasets,
)
from repro.crawler.dataset import Dataset
from repro.crawler.executor import (
    FaultInjector,
    ShardPlan,
    ShardResult,
    ShardRetryRecord,
    ShardTask,
    WorldSpec,
    effective_shard_count,
    execute_shard,
    plan_shards,
    run_shard_task,
)
from repro.crawler.wellknown import survey_attestations
from repro.obs import (
    EventKind,
    MetricsRegistry,
    NULL_METRICS,
    NULL_RECORDER,
    NULL_TRACER,
    SpanRecorder,
    Tracer,
)
from repro.obs.spans import SPAN_CAMPAIGN
from repro.util.executor import ExecutionBackend, create_backend, is_picklable
from repro.web.tranco import TrancoList

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: Streaming hook: called with each finished shard's plan and result —
#: in completion order, before the merge runs.  The crawl service hangs
#: incremental result events off this seam.
ShardListener = Callable[[ShardPlan, ShardResult], None]


@dataclass
class ResumableOutcome:
    """Everything a sharded campaign produces beyond the crawl itself."""

    result: CrawlResult
    retries: tuple[ShardRetryRecord, ...] = ()
    resumed_shards: tuple[int, ...] = ()  # shards revived from disk at start
    partial: PartialManifest | None = None

    @property
    def is_partial(self) -> bool:
        return self.partial is not None and bool(self.partial.missing)


class ResumableCrawl:
    """A sharded campaign with optional durable progress and shard retry."""

    def __init__(
        self,
        world: "SyntheticWeb",
        checkpoint_dir: str | Path | None,
        shard_count: int = 4,
        checkpoint_every: int = 500,
        corrupt_allowlist: bool = True,
        max_workers: int | None = None,
        backend: "str | ExecutionBackend | None" = None,
        limit: int | None = None,
        resume: bool = False,
        allow_partial: bool = False,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
        spans: SpanRecorder = NULL_RECORDER,
        fault_injector: FaultInjector | None = None,
        shard_listener: ShardListener | None = None,
    ) -> None:
        if shard_count <= 0:
            # Fail at construction, not at run(): a zero/negative count is
            # always a caller bug, and surfacing it here keeps the
            # traceback next to the mistake.
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        self._world = world
        self._store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._shard_count = shard_count
        self._checkpoint_every = checkpoint_every
        self._corrupt_allowlist = corrupt_allowlist
        self._max_workers = max_workers
        self._backend = backend
        self._limit = limit
        self._resume = resume
        self._allow_partial = allow_partial
        self._policy = retry_policy or RetryPolicy()
        self._tracer = tracer
        self._metrics = metrics
        self._spans = spans
        self._fault_injector = fault_injector
        self._shard_listener = shard_listener

    # -- orchestration --------------------------------------------------------

    def run(self) -> ResumableOutcome:
        domains = self._world.tranco.domains
        if self._limit is not None:
            domains = domains[: self._limit]
        shard_count = effective_shard_count(
            self._shard_count, len(domains), self._tracer
        )
        if self._store is not None:
            self._store.initialize(
                campaign_fingerprint(
                    domains, shard_count, self._corrupt_allowlist
                )
            )
        plans = plan_shards(TrancoList(domains), shard_count)
        results = self._execute(self._resolve_backend(len(plans)), plans)

        mergeable: list[ShardResult] = []
        missing: list[MissingRange] = []
        for plan, shard in zip(plans, results):
            if shard.failure is None:
                mergeable.append(shard)
                continue
            # Degraded shard: merge its durable prefix, name the hole.
            checkpoint = (
                self._store.latest(plan.shard_index)
                if self._store is not None
                else None
            )
            visits_done = checkpoint.visits_done if checkpoint is not None else 0
            missing.append(
                MissingRange(
                    shard_index=plan.shard_index,
                    from_rank=plan.rank_offset + visits_done + 1,
                    to_rank=plan.rank_offset + len(plan.domains),
                    error=shard.failure,
                )
            )
            mergeable.append(self._degraded_result(shard, plan, checkpoint))

        result = self._merge(plans, mergeable)
        self._emit_recovery_accounting(results, missing)
        return ResumableOutcome(
            result=result,
            retries=tuple(retry for shard in results for retry in shard.retries),
            resumed_shards=tuple(
                plan.shard_index
                for plan, shard in zip(plans, results)
                if shard.resumed_from is not None
            ),
            partial=PartialManifest(missing=missing) if missing else None,
        )

    def _resolve_backend(self, plan_count: int) -> ExecutionBackend:
        workers = min(
            self._max_workers or self._shard_count, max(plan_count, 1)
        )
        backend = create_backend(self._backend, workers)
        if (
            backend.name == "process"
            and self._fault_injector is not None
            and not is_picklable(self._fault_injector)
        ):
            # Closures cannot cross the process-pool boundary; running
            # the campaign beats crashing it.  Picklable injectors
            # (CrashSchedule) keep the process backend.
            return create_backend("serial", workers)
        return backend

    def _execute(
        self, backend: ExecutionBackend, plans: list[ShardPlan]
    ) -> list[ShardResult]:
        """Run every shard; returns their results in plan order.

        Shards stream back in completion order — each one is handed to
        the shard listener the moment it finishes — then the merge
        consumes them in plan order, so the output stays byte-identical
        however the backend interleaved the work.
        """
        span_listener = self._spans.listener if self._spans.enabled else None
        process = backend.name == "process"
        # Process workers share nothing: each task also carries the world
        # config + fingerprint, and the worker rebuilds the world.
        spec = WorldSpec.of(self._world) if process else None
        checkpoint_dir = (
            str(self._store.directory) if self._store is not None else None
        )
        tasks = [
            ShardTask(
                plan=plan,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=self._checkpoint_every,
                resume=self._resume,
                corrupt_allowlist=self._corrupt_allowlist,
                policy=self._policy,
                allow_partial=self._allow_partial,
                fault_injector=self._fault_injector,
                trace=self._tracer.enabled,
                metrics=self._metrics.enabled,
                spans=self._spans.enabled,
                spec=spec,
            )
            for plan in plans
        ]
        worker = (
            run_shard_task
            if process
            else functools.partial(
                execute_shard, self._world, span_listener=span_listener
            )
        )
        results: list = [None] * len(plans)
        for index, shard in backend.stream(worker, tasks):
            if process and span_listener is not None and shard.spans:
                # Serial shards fed the listener live; a worker's spans
                # reach it when its result arrives.
                for span in shard.spans:
                    span_listener(span)
            results[index] = shard
            if self._shard_listener is not None and shard.failure is None:
                self._shard_listener(plans[index], shard)
        return results

    # -- degraded shards ------------------------------------------------------

    @staticmethod
    def _degraded_result(
        shard: ShardResult, plan: ShardPlan, checkpoint: ShardCheckpoint | None
    ) -> ShardResult:
        """A mergeable result for a shard that gave up: its durable prefix."""
        if checkpoint is None:
            d_ba, d_aa = Dataset("D_BA"), Dataset("D_AA")
            report = CrawlReport(targets=len(plan.domains))
        else:
            d_ba, d_aa = restore_datasets(checkpoint)
            report = CrawlReport(**dataclasses.asdict(checkpoint.report))
            report.finished_at = checkpoint.clock_now
        return dataclasses.replace(
            shard, d_ba=d_ba.buffers, d_aa=d_aa.buffers, report=report
        )

    # -- merge ------------------------------------------------------------------

    def _merge(
        self, plans: list[ShardPlan], results: list[ShardResult]
    ) -> CrawlResult:
        merged_ba = Dataset("D_BA")
        merged_aa = Dataset("D_AA")
        report = CrawlReport()
        instrumented = self._tracer.enabled or self._metrics.enabled

        for position, (plan, shard) in enumerate(zip(plans, results)):
            shard_report = shard.report
            # Whole-column splice with the rank rebase applied in bulk —
            # the merge never touches per-record objects.
            merged_ba.extend_rebased(shard.d_ba, plan.rank_offset)
            merged_aa.extend_rebased(shard.d_aa, plan.rank_offset)
            report.targets += shard_report.targets
            report.ok += shard_report.ok
            report.failed += shard_report.failed
            report.banners_seen += shard_report.banners_seen
            report.accepted += shard_report.accepted
            report.retried += shard_report.retried
            report.recovered += shard_report.recovered
            for kind, count in shard_report.failure_kinds.items():
                report.failure_kinds[kind] = (
                    report.failure_kinds.get(kind, 0) + count
                )
            # Honest campaign timestamps: the parallel campaign starts
            # when the first shard starts and finishes when the slowest
            # one does, so duration_seconds stays the wall-clock.
            if position == 0:
                report.started_at = shard_report.started_at
            else:
                report.started_at = min(
                    report.started_at, shard_report.started_at
                )
            report.finished_at = max(
                report.finished_at, shard_report.finished_at
            )

        if instrumented:
            self._fold_instrumentation(plans, results)
            self._metrics.gauge("crawl_targets", report.targets)
            self._metrics.gauge("crawl_duration_seconds", report.duration_seconds)
            self._metrics.gauge("shard_count", len(plans))

        root_id = None
        if self._spans.enabled:
            root_id = self._fold_spans(plans, results, report)

        allowed = frozenset(self._world.registry.allowed_domains())
        encountered = attestation_targets(merged_ba, merged_aa, allowed)
        survey = survey_attestations(
            self._world,
            encountered,
            report.finished_at,
            tracer=self._tracer,
            metrics=self._metrics,
            spans=self._spans,
        )
        if root_id is not None:
            self._spans.exit(at=float(report.finished_at))
        return CrawlResult(
            d_ba=merged_ba,
            d_aa=merged_aa,
            report=report,
            allowed_domains=allowed,
            survey=survey,
        )

    def _fold_instrumentation(
        self, plans: list[ShardPlan], results: list[ShardResult]
    ) -> None:
        """Fold shard events and metrics into the campaign-level pair.

        Shard events interleave in *time* order — sorted by
        ``(at, shard_index, seq)`` — so the merged trace reads as one
        chronological campaign rather than shard 0's full history
        followed by shard 1's.  Per-shard gauges and the ``shard-merged``
        lifecycle events follow the re-emitted history.
        """
        entries = []
        for plan, shard in zip(plans, results):
            for event in shard.events or ():
                entries.append((event.at, plan.shard_index, event.seq, event))
        entries.sort(key=lambda entry: entry[:3])
        for at, shard_index, _seq, event in entries:
            self._tracer.emit(
                event.kind, at, **{**event.fields, "shard": shard_index}
            )

        for plan, shard in zip(plans, results):
            report = shard.report
            if shard.metrics is not None:
                self._metrics.absorb(shard.metrics)
            self._metrics.gauge(
                "shard_duration_seconds",
                report.duration_seconds,
                shard=plan.shard_index,
            )
            self._metrics.gauge("shard_visits", report.ok, shard=plan.shard_index)
            self._tracer.emit(
                EventKind.SHARD_MERGED,
                at=report.finished_at,
                shard=plan.shard_index,
                ok=report.ok,
                failed=report.failed,
                accepted=report.accepted,
                duration_seconds=report.duration_seconds,
            )

    def _fold_spans(
        self,
        plans: list[ShardPlan],
        results: list[ShardResult],
        report: CrawlReport,
    ) -> int:
        """Graft shard span trees under one campaign-level root.

        Shard spans fold sorted by ``(start, shard_index, span_id)`` —
        within a shard a parent never sorts after its child, so ids can
        be remapped in one pass.  Returns the root span id; the caller
        closes it once the merged survey has recorded its spans.
        """
        root_id = self._spans.enter(
            SPAN_CAMPAIGN,
            at=float(report.started_at),
            targets=report.targets,
            shards=len(plans),
        )
        entries = []
        for plan, shard in zip(plans, results):
            for span in shard.spans or ():
                entries.append((span.start, plan.shard_index, span.span_id, span))
        entries.sort(key=lambda entry: entry[:3])
        id_map: dict[tuple[int, int], int] = {}
        for _start, shard_index, old_id, span in entries:
            parent = id_map.get((shard_index, span.parent_id), root_id)
            id_map[(shard_index, old_id)] = self._spans.adopt(
                span, parent_id=parent
            )
        return root_id

    # -- recovery accounting --------------------------------------------------

    def _emit_recovery_accounting(
        self, results: list[ShardResult], missing: list[MissingRange]
    ) -> None:
        """Campaign-level accounting for shards that never recovered."""
        instrumented = self._tracer.enabled or self._metrics.enabled
        if not instrumented:
            return
        for shard in results:
            if shard.failure is None:
                continue  # recovered shards folded their own retries
            for retry in shard.retries:
                self._metrics.counter("shard_retries_total")
                self._metrics.counter(
                    "shard_backoff_seconds_total", retry.backoff_seconds
                )
                self._tracer.emit(
                    EventKind.SHARD_RETRIED,
                    at=0,
                    shard=retry.shard_index,
                    attempt=retry.attempt,
                    backoff_seconds=retry.backoff_seconds,
                    resumed_from=retry.resumed_from,
                    error=retry.error,
                )
        if missing:
            self._metrics.gauge(
                "crawl_missing_targets",
                sum(entry.count for entry in missing),
            )
            self._metrics.gauge("crawl_degraded_shards", len(missing))
