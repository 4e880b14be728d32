"""Shard execution: plan, run and ship one campaign shard.

A sharded campaign splits the ranking into contiguous :class:`ShardPlan`
slices and runs each slice as its own :class:`CrawlCampaign` with a
private browser.  :func:`execute_shard` is the one shard runner: it runs
a shard to completion, checkpointing into an optional
:class:`CheckpointStore` and retrying a dying shard from its newest
checkpoint (or from scratch, without a store).

Shards run on one of the two strategies in :mod:`repro.util.executor`:

* ``serial``  — in the calling thread (the default; the visit loop is
  CPU-bound pure Python, so threads would buy no parallelism);
* ``process`` — one worker **process** per shard, for multi-core
  parallelism.

Either way a shard is described by one picklable :class:`ShardTask`
and finishes as one plain-data :class:`ShardResult`:

* a :class:`ShardTask` carries the shard's :class:`ShardPlan` (rank
  slice) and the campaign knobs.  A process task also carries a
  :class:`WorldSpec` — the :class:`~repro.web.config.WorldConfig` plus a
  fingerprint of the ranking.  The worker **reconstructs the world from
  the deterministic generator** and verifies the fingerprint, so a shard
  can never silently crawl a different world than its parent planned;
* a :class:`ShardResult` carries the visit columns, report counters,
  trace events, metrics snapshot and span tree.  A serial shard returns
  it directly and a process worker pickles it back, so the merge reads
  one record shape on both backends.

Reconstructed worlds are cached per worker process (keyed by
fingerprint) and worker pools are reused across runs, so repeated
campaigns over the same world pay the generator cost once per worker.
Both backends produce **byte-identical** datasets, reports and merged
traces — shards are deterministic and order-independent, and the tests
pin this, including resumed-after-crash process runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.crawler.campaign import CrawlCampaign, CrawlReport
from repro.crawler.checkpoint import CheckpointStore, RetryPolicy
from repro.crawler.columnar import VisitBuffers
from repro.obs import (
    EventKind,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NULL_RECORDER,
    NULL_TRACER,
    Span,
    SpanRecorder,
    TraceEvent,
    Tracer,
)
from repro.obs.spans import SPAN_SHARD, SPAN_SHARD_RETRY
from repro.util.executor import contiguous_slices
from repro.util.text import stable_digest
from repro.web.tranco import TrancoList

if TYPE_CHECKING:
    from repro.web.config import WorldConfig
    from repro.web.generator import SyntheticWeb

#: A fault hook: called with (position, domain) before each visit.
FaultHook = Callable[[int, str], None]

#: Test seam: (shard_index, attempt) -> per-visit fault hook (or None).
FaultInjector = Callable[[int, int], "FaultHook | None"]


# -- shard planning ------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of the ranking (picklable by construction)."""

    shard_index: int
    domains: tuple[str, ...]
    rank_offset: int  # rank of the first domain, minus one


def plan_shards(tranco: TrancoList, shard_count: int) -> list[ShardPlan]:
    """Partition the ranking into contiguous slices.

    Contiguity keeps each worker's page-popularity profile realistic and
    makes rank bookkeeping trivial.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    domains = tranco.domains
    return [
        ShardPlan(shard_index=index, domains=domains[start:stop], rank_offset=start)
        for index, (start, stop) in enumerate(
            contiguous_slices(len(domains), shard_count)
        )
    ]


def effective_shard_count(
    requested: int, targets: int, tracer: Tracer = NULL_TRACER
) -> int:
    """Clamp a shard count to the number of crawl targets.

    A campaign asked to split 6 domains across 16 shards used to plan 10
    empty shards (filtered later) while still sizing its worker pool for
    16 — pure overhead.  Clamping keeps the plan layout identical (the
    remainder distribution gives the same slices either way) and records
    the adjustment as a ``shard-empty`` trace event.
    """
    if requested <= 0:
        raise ValueError(f"shard_count must be positive, got {requested}")
    effective = max(1, min(requested, targets))
    if effective < requested:
        tracer.emit(
            EventKind.SHARD_EMPTY,
            at=0,
            requested=requested,
            effective=effective,
            targets=targets,
        )
    return effective


class _ShardView:
    """A world view whose Tranco ranking is one shard's slice.

    Everything else delegates to the real world; campaigns only consume
    ``tranco`` plus the lookup/ecosystem surface.
    """

    def __init__(self, world: "SyntheticWeb", tranco: TrancoList) -> None:
        self._world = world
        self.tranco = tranco

    def __getattr__(self, name: str):
        return getattr(self._world, name)


# -- shard task and result -----------------------------------------------------


@dataclass(frozen=True)
class ShardRetryRecord:
    """One shard restart, for the campaign's retry accounting."""

    shard_index: int
    attempt: int  # 1-based retry number
    backoff_seconds: int
    resumed_from: int  # visits_done of the checkpoint the retry started at
    error: str


@dataclass(frozen=True)
class ShardTask:
    """A shard's complete, picklable execution order.

    ``checkpoint_dir`` is ``None`` for a campaign that writes no
    checkpoints; the shard then runs without a store.  ``spec`` is set
    only for process workers, which rebuild the world from it.
    """

    plan: ShardPlan
    checkpoint_dir: str | None
    checkpoint_every: int
    resume: bool
    corrupt_allowlist: bool
    policy: RetryPolicy
    allow_partial: bool
    fault_injector: FaultInjector | None  # picklable for process workers
    trace: bool
    metrics: bool
    spans: bool
    spec: WorldSpec | None = None


@dataclass(frozen=True)
class ShardResult:
    """A finished shard as plain, picklable data — on every backend.

    Datasets travel as flat :class:`VisitBuffers` columns rather than
    record-object trees: a worker's result pickles as a handful of
    primitive arrays/lists, and the merge ingests them without ever
    materialising per-visit objects.

    A degraded shard (retries exhausted under ``allow_partial``) has
    ``failure`` set, no ``report`` and empty columns; the merge fills in
    its durable prefix.  ``events``/``metrics``/``spans`` are ``None``
    when the corresponding instrumentation was disabled for the run.
    Trace events keep their shard-local order (the merge's
    ``(at, shard, seq)`` sort only needs relative order within a shard);
    spans keep their shard-local ids so the merge's parent remapping
    works on them directly.
    """

    d_ba: VisitBuffers
    d_aa: VisitBuffers
    report: CrawlReport | None
    events: tuple[TraceEvent, ...] | None
    metrics: MetricsSnapshot | None
    spans: tuple[Span, ...] | None
    retries: tuple[ShardRetryRecord, ...] = ()
    resumed_from: int | None = None  # on-disk checkpoint the first attempt used
    failure: str | None = None


class ShardFailedError(RuntimeError):
    """A shard kept dying after exhausting its retry budget."""

    def __init__(self, shard_index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_index} failed {attempts} time(s); "
            f"last error: {cause!r} (re-run with --resume to continue from "
            "the last checkpoint, or --allow-partial to merge what exists)"
        )
        self.shard_index = shard_index
        self.attempts = attempts
        self.cause = cause

    def __reduce__(self):
        # Default exception pickling replays __init__ with the formatted
        # message as the only argument — wrong arity.  Worker processes
        # must be able to raise this across the pool boundary.
        return (type(self), (self.shard_index, self.attempts, self.cause))


# -- the shard runner (shared by every backend) --------------------------------


def execute_shard(
    world: "SyntheticWeb",
    task: ShardTask,
    span_listener: Callable[[Span], None] | None = None,
) -> ShardResult:
    """Run one shard to completion, retrying from its checkpoints.

    Without a checkpoint directory nothing is written and a retry starts
    the shard over.  Raises :class:`ShardFailedError` once the retry
    budget is exhausted unless ``allow_partial`` — then the shard is
    reported as a degraded :class:`ShardResult` with ``failure`` set.
    ``span_listener`` observes the shard's spans live as they complete.
    """
    plan = task.plan
    store = (
        CheckpointStore(task.checkpoint_dir)
        if task.checkpoint_dir is not None
        else None
    )
    retries: list[ShardRetryRecord] = []
    initial_resume: int | None = None
    while True:
        checkpoint = None
        if store is not None and (task.resume or retries):
            checkpoint = store.latest(plan.shard_index)
        if not retries and checkpoint is not None:
            initial_resume = checkpoint.visits_done
        try:
            return _attempt_shard(
                world, task, store, checkpoint, retries, initial_resume,
                span_listener,
            )
        except Exception as exc:  # noqa: BLE001 — any shard death is retryable
            failures = len(retries) + 1
            if failures > task.policy.max_retries:
                if task.allow_partial:
                    return ShardResult(
                        d_ba=VisitBuffers(),
                        d_aa=VisitBuffers(),
                        report=None,
                        events=None,
                        metrics=None,
                        spans=None,
                        retries=tuple(retries),
                        resumed_from=initial_resume,
                        failure=repr(exc),
                    )
                raise ShardFailedError(plan.shard_index, failures, exc) from exc
            # Capped exponential backoff on the *simulated* retry
            # timeline: the pause is accounted for in spans/metrics but
            # never advances the shard's browsing clock, so the resumed
            # dataset stays byte-identical.
            resumed_from = store.latest(plan.shard_index) if store else None
            retries.append(
                ShardRetryRecord(
                    shard_index=plan.shard_index,
                    attempt=failures,
                    backoff_seconds=task.policy.backoff_seconds(failures),
                    resumed_from=(
                        resumed_from.visits_done
                        if resumed_from is not None
                        else 0
                    ),
                    error=repr(exc),
                )
            )


def _attempt_shard(
    world: "SyntheticWeb",
    task: ShardTask,
    store: CheckpointStore | None,
    checkpoint,
    retries: list[ShardRetryRecord],
    initial_resume: int | None,
    span_listener: Callable[[Span], None] | None,
) -> ShardResult:
    """One execution attempt of a shard, with fresh private instrumentation.

    Each shard records into its own tracer/metrics/spans so the merge can
    fold them deterministically.  The span recorder takes the campaign
    recorder's listener so a live progress line keeps updating (process
    workers deliver their spans when the shard completes instead).
    """
    plan = task.plan
    attempt = len(retries) + 1
    tracer = Tracer() if task.trace else NULL_TRACER
    registry = MetricsRegistry() if task.metrics else NULL_METRICS
    recorder = (
        SpanRecorder(
            common_fields={"shard": plan.shard_index},
            listener=span_listener,
        )
        if task.spans
        else NULL_RECORDER
    )
    tracer.emit(
        EventKind.SHARD_STARTED,
        at=checkpoint.clock_now if checkpoint is not None else 0,
        shard=plan.shard_index,
        domains=len(plan.domains),
        rank_offset=plan.rank_offset,
        attempt=attempt,
        resumed_from=checkpoint.visits_done if checkpoint is not None else 0,
    )
    fault_hook = None
    if task.fault_injector is not None:
        fault_hook = task.fault_injector(plan.shard_index, attempt)
    # A private ranking restores the shard's global ranks via the
    # campaign's enumerate; ranks are rebased during the merge.
    shard_world = _ShardView(world, TrancoList(plan.domains))
    result = CrawlCampaign(
        shard_world,  # type: ignore[arg-type]  # structural stand-in
        corrupt_allowlist=task.corrupt_allowlist,
        user_seed=plan.shard_index,
        tracer=tracer,
        metrics=registry,
        spans=recorder,
        span_root=SPAN_SHARD,
        survey=False,
        shard_index=plan.shard_index,
        checkpoint_store=store,
        checkpoint_every=task.checkpoint_every,
        resume_from=checkpoint,
        fault_hook=fault_hook,
    ).run()
    _record_shard_recovery(result.report, retries, tracer, registry, recorder)
    return ShardResult(
        d_ba=result.d_ba.buffers,
        d_aa=result.d_aa.buffers,
        report=result.report,
        events=tuple(tracer) if tracer.enabled else None,
        metrics=registry.snapshot() if registry.enabled else None,
        spans=tuple(recorder.spans()) if recorder.enabled else None,
        retries=tuple(retries),
        resumed_from=initial_resume,
    )


def _record_shard_recovery(
    report: CrawlReport,
    retries: list[ShardRetryRecord],
    tracer: Tracer,
    registry: MetricsRegistry,
    recorder: SpanRecorder,
) -> None:
    """Stamp a recovered shard's retries into its own instrumentation.

    Recorded into the successful attempt's tracer/metrics/spans (not the
    shared campaign-level ones) so the standard shard fold merges them
    deterministically.
    """
    for retry in retries:
        registry.counter("shard_retries_total")
        registry.counter("shard_backoff_seconds_total", retry.backoff_seconds)
        tracer.emit(
            EventKind.SHARD_RETRIED,
            at=report.started_at,
            shard=retry.shard_index,
            attempt=retry.attempt,
            backoff_seconds=retry.backoff_seconds,
            resumed_from=retry.resumed_from,
            error=retry.error,
        )
        if recorder.enabled:
            # The backoff interval sits on the retry timeline anchored
            # at the checkpoint the retry restarted from.
            start = float(report.started_at)
            recorder.record(
                SPAN_SHARD_RETRY,
                start,
                start + retry.backoff_seconds,
                attempt=retry.attempt,
                backoff_seconds=retry.backoff_seconds,
                resumed_from=retry.resumed_from,
            )


# -- world reconstruction ------------------------------------------------------


class WorldReconstructionError(RuntimeError):
    """A worker-rebuilt world does not match the parent's fingerprint."""


def world_fingerprint(world: "SyntheticWeb") -> str:
    """Identity of a generated world for cross-process verification.

    The ranking is the terminal artefact of the generator's full RNG
    cascade, so fingerprinting the ordered domains (plus the seed and
    scale) detects any config or generator divergence between parent
    and worker.
    """
    config = world.config
    return "{:016x}".format(
        stable_digest(
            "world",
            str(config.seed),
            str(config.site_count),
            config.vantage.name,
            *world.tranco.domains,
        )
    )


@dataclass(frozen=True)
class WorldSpec:
    """Everything a worker process needs to rebuild the parent's world."""

    config: "WorldConfig"
    fingerprint: str

    @classmethod
    def of(cls, world: "SyntheticWeb") -> "WorldSpec":
        return cls(config=world.config, fingerprint=world_fingerprint(world))


#: Per-worker-process world cache: (fingerprint, world).  Size one — a
#: worker serves one campaign's shards at a time, and holding more than
#: the active world would pin generator-sized memory per process.
_WORKER_WORLD: tuple[str, "SyntheticWeb"] | None = None


def worker_world(spec: WorldSpec) -> "SyntheticWeb":
    """The worker-side world for ``spec``, rebuilt and verified on miss.

    Shard tasks and the scenario sweep engine's cell tasks share this
    single-slot per-worker cache, so tasks over one world configuration
    pay the generator once per worker process.
    """
    global _WORKER_WORLD
    if _WORKER_WORLD is not None and _WORKER_WORLD[0] == spec.fingerprint:
        return _WORKER_WORLD[1]
    from repro.web.generator import WebGenerator

    world = WebGenerator(spec.config).generate()
    rebuilt = world_fingerprint(world)
    if rebuilt != spec.fingerprint:
        raise WorldReconstructionError(
            f"worker rebuilt a world with fingerprint {rebuilt}, parent "
            f"expected {spec.fingerprint}; the parent world was not produced "
            "by WebGenerator(config).generate() — use the serial backend "
            "for hand-modified worlds"
        )
    _WORKER_WORLD = (spec.fingerprint, world)
    return world


def run_shard_task(task: ShardTask) -> ShardResult:
    """Worker-process entry point: rebuild the world, run the shard.

    Module-level so the spawn context can pickle it by reference; the
    per-process world cache makes repeated shards over one world pay the
    generator exactly once per worker.  Each worker opens its own
    :class:`CheckpointStore` on the shared directory — checkpoint files
    are per-shard, and the manifest update takes a cross-process lock.
    """
    return execute_shard(worker_world(task.spec), task)  # type: ignore[arg-type]


# -- deterministic, picklable fault injection (test seam) ----------------------


@dataclass(frozen=True)
class CrashSchedule:
    """A picklable fault injector: kill one shard at scheduled visits.

    ``points`` maps a 1-based attempt number to the visit position at
    which that attempt dies.  Being a module-level dataclass, it crosses
    the process-pool boundary — the seam the crash/resume tests use to
    kill shards inside worker processes.
    """

    shard_index: int
    points: tuple[tuple[int, int], ...]  # (attempt, position) pairs

    def __call__(self, shard: int, attempt: int):
        if shard != self.shard_index:
            return None
        position = dict(self.points).get(attempt)
        if position is None:
            return None
        return _CrashAt(position)


@dataclass(frozen=True)
class _CrashAt:
    position: int

    def __call__(self, position: int, domain: str) -> None:
        if position == self.position:
            raise RuntimeError(f"injected crash at visit {position}")


# -- cooperative cancellation (service seam) ------------------------------------


class JobCancelled(BaseException):
    """A campaign was cancelled from outside while shards were running.

    Deliberately a :class:`BaseException`: the resumable shard loop
    retries any ``Exception`` from its last checkpoint, but a cancelled
    shard must **stop**, not restart — cancellation flies past the retry
    machinery the way ``KeyboardInterrupt`` would.  Instances pickle, so
    a process-backend worker can raise one across the pool boundary.
    """


@dataclass(frozen=True)
class CancelFlag:
    """A picklable fault injector: stop every shard once a flag file exists.

    The service cancels a running job by *touching a file*; shard
    workers — in any thread or process — poll for it between visits
    (every ``check_every`` positions, so the hot loop pays one ``stat``
    per batch, not per visit) and raise :class:`JobCancelled`.  The
    periodic checkpoints already written stay durable and the manifest
    stays consistent, so a cancelled campaign can later be resumed or
    inspected like a crashed one.
    """

    path: str
    check_every: int = 8

    def __call__(self, shard: int, attempt: int):  # noqa: ARG002 — injector shape
        return _CancelCheck(self.path, max(self.check_every, 1))


@dataclass(frozen=True)
class _CancelCheck:
    path: str
    check_every: int

    def __call__(self, position: int, domain: str) -> None:
        if position % self.check_every == 0 or position == 1:
            if os.path.exists(self.path):
                raise JobCancelled(
                    f"cancelled before visit {position} of {domain}"
                )


@dataclass(frozen=True)
class CompositeInjector:
    """Combine fault injectors; each shard attempt runs every armed hook.

    Stays picklable as long as its members are — the service composes a
    :class:`CancelFlag` with an optional :class:`CrashSchedule` and the
    result still crosses the process-pool boundary.
    """

    injectors: tuple[object, ...]

    def __call__(self, shard: int, attempt: int):
        hooks = tuple(
            hook
            for injector in self.injectors
            if (hook := injector(shard, attempt)) is not None  # type: ignore[operator]
        )
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]
        return _CompositeHook(hooks)


@dataclass(frozen=True)
class _CompositeHook:
    hooks: tuple[object, ...]

    def __call__(self, position: int, domain: str) -> None:
        for hook in self.hooks:
            hook(position, domain)  # type: ignore[operator]
