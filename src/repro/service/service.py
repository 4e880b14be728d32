"""The long-lived crawl service: submit, stream, cancel, resume.

:class:`CrawlService` turns a campaign from a CLI invocation into a
*submitted job*.  It owns:

* the durable :class:`~repro.service.jobs.JobTable` (one directory per
  job: record, checkpoints, archive);
* a bounded worker pool — at most ``max_jobs`` campaigns run at once,
  each on its own thread via ``asyncio.to_thread`` (the crawl stack is
  synchronous; the service is its async face);
* the :class:`~repro.service.events.EventBroker` every job publishes
  through, with per-subscription backpressure;
* a **world cache** keyed by ``JobSpec.world_key()``: concurrent
  campaigns over the same deterministic world share one generator build
  (the parent-side sibling of the worker-process ``worker_world``
  cache).  Per-key asyncio locks make the build single-flight — the
  second job awaits the first build instead of duplicating it.

Crash recovery mirrors the resumable crawl's contract one level up:
``start()`` requeues every job the previous process left ``queued`` or
``running``.  Running jobs restart with ``resume=True``; the checkpoint
layer then replays nothing and the final archive is byte-identical to an
uninterrupted run.  Their one-shot fault specs are disarmed first — a
fault does not survive the process it killed.

Thread discipline: all public methods run on the service's event loop.
Worker threads touch the loop only through
:class:`~repro.obs.bridge.BlockingLoopBridge`, so event publication
blocks the producing thread until every ``block``-policy subscriber has
accepted the event — queue backpressure reaches the crawl hot loop.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.crawler.executor import JobCancelled
from repro.obs import MetricsRegistry, render_exposition
from repro.obs.bridge import BlockingLoopBridge
from repro.service.events import (
    EVENT_JOB_CANCELLED,
    EVENT_JOB_DONE,
    EVENT_JOB_FAILED,
    EVENT_JOB_STARTED,
    EVENT_JOB_SUBMITTED,
    EventBroker,
    POLICY_BLOCK,
    ServiceEvent,
    Subscription,
)
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobSpecError,
    JobState,
    JobTable,
    TERMINAL_STATES,
    interrupted_jobs,
)
from repro.service.runner import JobPaths, ServiceKilled, run_job
from repro.util.executor import resolve_backend_name

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb


class CrawlService:
    """Async job front-end over the synchronous crawl stack."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        max_jobs: int = 2,
        backend: str | None = None,
        max_workers: int | None = None,
    ) -> None:
        if max_jobs <= 0:
            raise ValueError(f"max_jobs must be positive, got {max_jobs}")
        self._data_dir = Path(data_dir)
        self._table = JobTable(self._data_dir / "jobs")
        self._broker = EventBroker()
        self._metrics = MetricsRegistry()
        self._backend = backend
        self._max_workers = max_workers
        self._semaphore = asyncio.Semaphore(max_jobs)
        self._records: dict[str, JobRecord] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._worlds: dict[tuple, "SyntheticWeb"] = {}
        self._world_locks: dict[tuple, asyncio.Lock] = {}
        #: Set when a kill-service fault fired; the "dead" service stops
        #: starting queued work, mimicking a process that no longer exists.
        self.killed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> list[str]:
        """Load the job table and requeue interrupted jobs; returns their ids."""
        revived: list[str] = []
        for record in self._table.load_all():
            self._records[record.job_id] = record
            if record.state in TERMINAL_STATES:
                continue
        for record in interrupted_jobs(self._records.values()):
            resume = record.state is JobState.RUNNING
            if resume:
                record.resumed += 1
                record.disarm_fault()
                self._table.save(record)
                self._metrics.counter("service_jobs_resumed_total")
            revived.append(record.job_id)
            self._spawn(record, resume=resume)
        return revived

    async def close(self) -> None:
        """Cancel running jobs (via their flag files) and drain the pool."""
        for job_id, task in list(self._tasks.items()):
            record = self._records.get(job_id)
            if record is not None and record.state is JobState.RUNNING:
                self._paths(job_id).cancel_flag.touch()
            if record is not None and record.state is JobState.QUEUED:
                await self.cancel(job_id)
        if self._tasks:
            await asyncio.gather(
                *self._tasks.values(), return_exceptions=True
            )

    # -- submission and queries -----------------------------------------------

    async def submit(self, spec: JobSpec) -> str:
        """Persist a new job and queue it; returns the job id.

        An unknown ``backend`` name raises :class:`JobSpecError` here, at
        submit, rather than failing the job once it runs.  Records
        already on disk are not re-validated.
        """
        if spec.backend is not None:
            try:
                resolve_backend_name(spec.backend)
            except ValueError as exc:
                raise JobSpecError(str(exc)) from exc
        job_id = self._table.next_id()
        record = JobRecord(job_id=job_id, spec=spec)
        self._records[job_id] = record
        self._table.save(record)
        self._metrics.counter("service_jobs_submitted_total")
        await self._publish(
            job_id, EVENT_JOB_SUBMITTED, {"spec": spec.to_dict()}
        )
        self._spawn(record, resume=False)
        return job_id

    def status(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"no such job: {job_id}")
        return record

    def jobs(self) -> list[JobRecord]:
        """Every known job, in submission order."""
        return [self._records[key] for key in sorted(self._records)]

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job's task finishes; returns its final record."""
        task = self._tasks.get(job_id)
        if task is not None:
            await asyncio.shield(task)
        return self.status(job_id)

    async def cancel(self, job_id: str) -> JobRecord:
        """Stop a job: queued jobs never start, running shards stop at the
        next cancel poll with their checkpoints durable."""
        record = self.status(job_id)
        if record.state in TERMINAL_STATES:
            return record
        if record.state is JobState.QUEUED:
            record.transition(JobState.CANCELLED)
            self._table.save(record)
            self._metrics.counter("service_jobs_cancelled_total")
            await self._publish(
                job_id, EVENT_JOB_CANCELLED, {"while": "queued"}
            )
            return record
        # Running: the flag file reaches every shard on every backend.
        self._paths(job_id).cancel_flag.touch()
        return record

    # -- event streaming ------------------------------------------------------

    def subscribe(
        self,
        job_id: str,
        *,
        since: int = 0,
        policy: str = POLICY_BLOCK,
        maxsize: int = 64,
    ) -> tuple[list[ServiceEvent], Subscription]:
        return self._broker.subscribe(
            job_id, since=since, policy=policy, maxsize=maxsize
        )

    def unsubscribe(self, sub: Subscription) -> None:
        self._broker.unsubscribe(sub)

    def history(self, job_id: str) -> list[ServiceEvent]:
        return self._broker.history(job_id)

    @property
    def broker(self) -> EventBroker:
        return self._broker

    @property
    def data_dir(self) -> Path:
        return self._data_dir

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def exposition(self) -> str:
        """Prometheus text exposition of the service's live metrics."""
        running = sum(
            1
            for record in self._records.values()
            if record.state is JobState.RUNNING
        )
        self._metrics.gauge("service_jobs_running", running)
        self._metrics.gauge(
            "service_events_dropped_total", self._broker.dropped_total
        )
        return render_exposition(self._metrics.snapshot())

    # -- internals ------------------------------------------------------------

    def _paths(self, job_id: str) -> JobPaths:
        return JobPaths(self._table.job_dir(job_id))

    async def _publish(self, job_id: str, kind: str, payload: Mapping) -> None:
        await self._broker.publish(job_id, kind, payload)

    def _spawn(self, record: JobRecord, *, resume: bool) -> None:
        task = asyncio.get_running_loop().create_task(
            self._run(record, resume=resume), name=f"job:{record.job_id}"
        )
        self._tasks[record.job_id] = task

    async def _world_for(self, spec: JobSpec) -> "SyntheticWeb":
        """The (possibly shared) world for a spec; builds are single-flight."""
        key = spec.world_key()
        lock = self._world_locks.setdefault(key, asyncio.Lock())
        async with lock:
            world = self._worlds.get(key)
            if world is None:
                self._metrics.counter("service_world_builds_total")
                config = spec.world_config()
                from repro.web.generator import WebGenerator

                world = await asyncio.to_thread(
                    lambda: WebGenerator(config).generate()
                )
                self._worlds[key] = world
            else:
                self._metrics.counter("service_world_cache_hits_total")
            return world

    async def _run(self, record: JobRecord, *, resume: bool) -> None:
        job_id = record.job_id
        try:
            async with self._semaphore:
                if record.state is not JobState.QUEUED and not resume:
                    return  # cancelled while queued
                if record.state in TERMINAL_STATES or self.killed:
                    return
                if record.state is JobState.QUEUED:
                    record.transition(JobState.RUNNING)
                    self._table.save(record)
                await self._publish(
                    job_id, EVENT_JOB_STARTED, {"resumed": record.resumed}
                )
                world = await self._world_for(record.spec)
                loop = asyncio.get_running_loop()
                bridge = BlockingLoopBridge(loop)

                def emit(kind: str, payload: Mapping) -> None:
                    bridge.submit(self._publish(job_id, kind, payload))

                try:
                    outcome = await asyncio.to_thread(
                        run_job,
                        record.spec,
                        self._paths(job_id),
                        world,
                        emit,
                        resume=resume,
                        backend=self._backend,
                        max_workers=self._max_workers,
                    )
                except JobCancelled as exc:
                    record.transition(JobState.CANCELLED)
                    record.error = str(exc)
                    self._table.save(record)
                    self._metrics.counter("service_jobs_cancelled_total")
                    await self._publish(
                        job_id, EVENT_JOB_CANCELLED, {"error": str(exc)}
                    )
                    return
                except ServiceKilled:
                    # Simulated SIGKILL: the durable record stays RUNNING
                    # — exactly what a real dead process leaves — and this
                    # "dead" service starts nothing further.
                    self.killed = True
                    return
                except Exception as exc:  # noqa: BLE001 — job isolation
                    record.transition(JobState.FAILED)
                    record.error = repr(exc)
                    self._table.save(record)
                    self._metrics.counter("service_jobs_failed_total")
                    await self._publish(
                        job_id, EVENT_JOB_FAILED, {"error": repr(exc)}
                    )
                    return
                record.archive_dir = str(outcome.archive_dir)
                record.summary = outcome.summary
                record.transition(JobState.DONE)
                self._table.save(record)
                self._metrics.counter("service_jobs_done_total")
                self._metrics.absorb(outcome.metrics)
                await self._publish(
                    job_id,
                    EVENT_JOB_DONE,
                    {
                        "archive_dir": str(outcome.archive_dir),
                        "summary": outcome.summary,
                    },
                )
        finally:
            self._tasks.pop(job_id, None)
