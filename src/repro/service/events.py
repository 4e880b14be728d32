"""Typed service events and the bounded fan-out broker.

Every observable fact about a job — submitted, started, per-shard
progress, each shard's incremental results, the terminal verdict — is a
:class:`ServiceEvent`: ``(job_id, seq, kind, payload)`` with a per-job
sequence number that is **contiguous from 1**.  Contiguity is the whole
streaming contract: a consumer that remembers the last ``seq`` it saw
can reconnect with ``since=seq`` and receive exactly the events it
missed — no duplicates, no gaps — because the broker keeps each job's
full event log and replays from any offset.

Delivery runs through bounded :class:`asyncio.Queue` subscriptions with
an explicit per-subscription backpressure policy:

* ``block`` — ``publish`` awaits ``queue.put``; a slow consumer stalls
  the publisher, and (because the service's runner threads publish
  through a blocking loop bridge) the stall propagates all the way back
  into the crawl hot loop.  Nothing is ever lost.
* ``drop``  — ``publish`` never waits: when the queue is full the event
  is counted against :attr:`Subscription.dropped` and discarded for
  that subscriber only.  The count is surfaced to the consumer (the
  NDJSON protocol emits ``dropped`` notices), mirroring the tracer's
  ring-buffer drop accounting — losing data silently is the one
  unforgivable failure mode of a measurement system.

The broker is **not** thread-safe: every method runs on the service's
event loop.  Worker threads reach it through
:class:`repro.obs.bridge.BlockingLoopBridge`.
"""

from __future__ import annotations

import asyncio
import json
import zlib
from dataclasses import dataclass, field
from typing import Mapping

# -- event kinds ---------------------------------------------------------------

EVENT_JOB_SUBMITTED = "job-submitted"
EVENT_JOB_STARTED = "job-started"
EVENT_SHARD_PROGRESS = "shard-progress"
EVENT_SHARD_RESULT = "shard-result"
EVENT_JOB_DONE = "job-done"
EVENT_JOB_FAILED = "job-failed"
EVENT_JOB_CANCELLED = "job-cancelled"

#: Kinds that end a job's stream; exactly one terminates every job.
TERMINAL_KINDS = frozenset(
    {EVENT_JOB_DONE, EVENT_JOB_FAILED, EVENT_JOB_CANCELLED}
)

#: Every kind the protocol may carry (unknown kinds are a bug).
EVENT_KINDS = frozenset(
    {
        EVENT_JOB_SUBMITTED,
        EVENT_JOB_STARTED,
        EVENT_SHARD_PROGRESS,
        EVENT_SHARD_RESULT,
    }
) | TERMINAL_KINDS

# -- backpressure policies -----------------------------------------------------

POLICY_BLOCK = "block"
POLICY_DROP = "drop"
POLICIES = (POLICY_BLOCK, POLICY_DROP)


@dataclass(frozen=True)
class ServiceEvent:
    """One fact about one job, with its position in the job's stream."""

    job_id: str
    seq: int  # 1-based, contiguous per job
    kind: str
    payload: Mapping

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceEvent":
        kind = str(data["kind"])
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown service event kind: {kind!r}")
        return cls(
            job_id=str(data["job_id"]),
            seq=int(data["seq"]),
            kind=kind,
            payload=dict(data.get("payload", {})),
        )

    @classmethod
    def from_json(cls, line: str) -> "ServiceEvent":
        return cls.from_dict(json.loads(line))


@dataclass
class Subscription:
    """One consumer's bounded view of one job's event stream."""

    job_id: str
    policy: str
    queue: asyncio.Queue = field(repr=False)
    dropped: int = 0  # events discarded for THIS subscriber (drop policy)
    closed: bool = False

    async def get(self) -> ServiceEvent:
        """The next live event (replayed history is handed out separately)."""
        return await self.queue.get()

    def close(self) -> None:
        """Detach the subscriber and unblock any publisher stuck on us.

        Draining the queue frees a ``block``-policy publisher awaiting
        ``put`` on a full queue; the drained events go nowhere — the
        consumer is gone.
        """
        self.closed = True
        while True:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break


class EventBroker:
    """Per-job event logs plus bounded fan-out to live subscriptions.

    Owns seq assignment: :meth:`publish` appends to the job's log first,
    so the log IS the source of truth and any subscription can be
    reconstructed from it by replay.
    """

    def __init__(self) -> None:
        self._logs: dict[str, list[ServiceEvent]] = {}
        #: Finished jobs' logs as zlib-compressed JSON lines.  A long-lived
        #: service keeps every job's history for replay, and shard-result
        #: rows dominate it; packed, they cost about a tenth as much.
        self._packed: dict[str, bytes] = {}
        self._subs: dict[str, list[Subscription]] = {}
        #: Lifetime count of events dropped across all subscriptions,
        #: including ones since closed (per-subscription counts die with
        #: their Subscription objects; the service's metrics need the sum).
        self.dropped_total = 0

    def history(self, job_id: str) -> list[ServiceEvent]:
        """The job's full event log so far (do not mutate)."""
        packed = self._packed.get(job_id)
        if packed is not None:
            return [
                ServiceEvent.from_json(line)
                for line in zlib.decompress(packed).decode().splitlines()
            ]
        return self._logs.get(job_id, [])

    async def publish(self, job_id: str, kind: str, payload: Mapping) -> ServiceEvent:
        """Append one event to the job's log and fan it out.

        ``block``-policy queues are awaited (in subscription order), so
        the returned coroutine completes only once every blocking
        subscriber has accepted the event.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown service event kind: {kind!r}")
        log = self._logs.setdefault(job_id, [])
        event = ServiceEvent(
            job_id=job_id, seq=len(log) + 1, kind=kind, payload=dict(payload)
        )
        log.append(event)
        for sub in list(self._subs.get(job_id, ())):
            if sub.closed:
                continue
            if sub.policy == POLICY_BLOCK:
                await sub.queue.put(event)
            else:
                try:
                    sub.queue.put_nowait(event)
                except asyncio.QueueFull:
                    sub.dropped += 1
                    self.dropped_total += 1
        if event.terminal:
            self._packed[job_id] = zlib.compress(
                "\n".join(logged.to_json() for logged in log).encode()
            )
            del self._logs[job_id]
        return event

    def subscribe(
        self,
        job_id: str,
        *,
        since: int = 0,
        policy: str = POLICY_BLOCK,
        maxsize: int = 64,
    ) -> tuple[list[ServiceEvent], Subscription]:
        """Attach a consumer; returns ``(replay, subscription)``.

        ``replay`` holds every logged event with ``seq > since``; the
        subscription is registered in the same (loop-side, await-free)
        step, so an event is either in the replay or will arrive on the
        queue — never both, never neither.
        """
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        replay = [event for event in self.history(job_id) if event.seq > since]
        sub = Subscription(
            job_id=job_id, policy=policy, queue=asyncio.Queue(maxsize)
        )
        self._subs.setdefault(job_id, []).append(sub)
        return replay, sub

    def unsubscribe(self, sub: Subscription) -> None:
        sub.close()
        subs = self._subs.get(sub.job_id)
        if subs is not None and sub in subs:
            subs.remove(sub)

    def forget(self, job_id: str) -> None:
        """Drop a job's log and detach its subscribers (job eviction)."""
        for sub in self._subs.pop(job_id, ()):
            sub.close()
        self._logs.pop(job_id, None)
        self._packed.pop(job_id, None)
