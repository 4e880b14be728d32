"""Shared execution backends: serial and process.

The backend strategies are workload-agnostic: they map a worker function
over a sequence of picklable tasks and return the results in task order.
Sharded crawls (:mod:`repro.crawler.executor`), population trace
generation (:mod:`repro.users.columnar`), re-identification ranking
(:mod:`repro.privacy.attack`) and scenario sweeps all shard their work
over the same two strategies:

* ``serial``  — run tasks one after another in the calling thread (the
  reference executor and the default: zero scheduling noise, easiest to
  debug, and as fast as any thread pool for these CPU-bound loops);
* ``process`` — worker **processes** via ``ProcessPoolExecutor`` on the
  spawn context: true multi-core parallelism for CPU-bound loops.
  Tasks and results must be picklable, and the worker function must be
  importable (module-level) in a fresh interpreter.

The backend is chosen per run: explicitly (``backend=`` / ``--backend``),
or via the ``REPRO_CRAWL_BACKEND`` environment variable, defaulting to
``serial``.  Every workload built on these strategies is required to be
deterministic and order-independent per task, so both backends produce
byte-identical outputs — the tests pin this for crawls and for
population traces alike.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_CRAWL_BACKEND"

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("serial", "process")

#: The default when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "serial"


class ExecutionBackend:
    """Strategy interface: run a function over task inputs, in order."""

    name: str = "abstract"

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        """Run ``fn`` over every item; results in task order."""
        results: list = [None] * len(items)
        for index, result in self.stream(fn, items):
            results[index] = result
        return results

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        """Yield ``(index, result)`` pairs as tasks complete.

        Same contract as :meth:`map` — every item runs exactly once and
        every result is yielded exactly once — but delivery order is
        completion order, so a consumer can act on each finished task
        (stream it, persist it) while slower siblings are still running.
        The first task exception propagates to the consumer after the
        in-flight siblings have been allowed to finish (they hold
        resources — checkpoints, world caches — that must settle).
        """
        raise NotImplementedError  # pragma: no cover - interface


class SerialBackend(ExecutionBackend):
    """Run tasks one after another in the calling thread."""

    name = "serial"

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        for index, item in enumerate(items):
            yield index, fn(item)


#: Live process pools, keyed by worker count.  Reused across runs so
#: worker-side caches (worlds, populations) survive between runs in one
#: session.
_PROCESS_POOLS: dict[int, ProcessPoolExecutor] = {}


def _process_pool(max_workers: int) -> ProcessPoolExecutor:
    pool = _PROCESS_POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
        _PROCESS_POOLS[max_workers] = pool
    return pool


@atexit.register
def _shutdown_process_pools() -> None:
    for pool in _PROCESS_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _PROCESS_POOLS.clear()


def _stream_pool(pool, fn, items) -> Iterator[tuple[int, _R]]:
    """Completion-order streaming over a concurrent.futures pool.

    On a task failure the remaining futures are drained (awaited, their
    own errors discarded) before the first failure is re-raised, so the
    pool is quiescent by the time the caller sees the exception.
    """
    futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
    pending = set(futures)
    failure: BaseException | None = None
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=futures.__getitem__):
            try:
                result = future.result()
            except BaseException as exc:  # noqa: BLE001 — drained, then re-raised
                if failure is None:
                    failure = exc
                continue
            if failure is None:
                yield futures[future], result
    if failure is not None:
        raise failure


class ProcessBackend(ExecutionBackend):
    """One worker process per task: true multi-core parallelism.

    Requires picklable tasks and a module-level worker function; worker
    processes are spawned (not forked), so they import the package fresh
    and share no state with the parent beyond what the task carries.
    """

    name = "process"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    def stream(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R]]:
        if not items:
            return
        pool = _process_pool(self.max_workers)
        try:
            yield from _stream_pool(pool, fn, items)
        except BrokenProcessPool:
            # A worker died hard (OOM, signal); the pool is unusable.
            # Evict it so the next run starts a healthy one.
            _PROCESS_POOLS.pop(self.max_workers, None)
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def resolve_backend_name(name: str | None = None) -> str:
    """The effective backend name: explicit > environment > default."""
    resolved = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    resolved = resolved.strip().lower()
    if resolved not in BACKEND_NAMES:
        raise ValueError(
            f"unknown crawl backend {resolved!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return resolved


def create_backend(
    backend: "str | ExecutionBackend | None", max_workers: int
) -> ExecutionBackend:
    """Materialise a backend from a name, an instance, or the environment."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if resolve_backend_name(backend) == "process":
        return ProcessBackend(max_workers)
    return SerialBackend()


def contiguous_slices(total: int, count: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``count`` contiguous ``(start, stop)`` slices.

    The first ``total % count`` slices take one extra item; empty slices
    (only ever trailing ones, when ``count > total``) are dropped.  Every
    sharded workload partitions its inputs with this one helper.
    """
    base, remainder = divmod(total, count)
    slices: list[tuple[int, int]] = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < remainder else 0)
        if stop > start:
            slices.append((start, stop))
        start = stop
    return slices


def is_picklable(value: object) -> bool:
    """Whether ``value`` survives the process-pool boundary."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 — pickle raises a zoo of types
        return False
    return True
