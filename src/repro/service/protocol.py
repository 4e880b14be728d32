"""Newline-delimited-JSON protocol over a local Unix socket.

One request per connection, one JSON object per line:

* ``{"op": "ping"}``                      → ``{"ok": true, "pong": true}``
* ``{"op": "submit", "spec": {...}}``     → ``{"ok": true, "job_id": ...}``
* ``{"op": "status", "job_id": ...}``     → ``{"ok": true, "job": {...}}``
* ``{"op": "list"}``                      → ``{"ok": true, "jobs": [...]}``
* ``{"op": "cancel", "job_id": ...}``     → ``{"ok": true, "job": {...}}``
* ``{"op": "metrics"}``                   → ``{"ok": true, "exposition": ...}``
* ``{"op": "shutdown"}``                  → ``{"ok": true}`` and the server exits
* ``{"op": "watch", "job_id": ..., "since": N, "policy": "block"|"drop"}``
  → one ``{"ok": true, "job": {...}}`` header line, then a stream of
  ``{"event": {...}}`` lines (replay from ``since``, then live) until a
  terminal event closes the stream.  Under the ``drop`` policy, a
  ``{"dropped": total}`` notice precedes the next event whenever the
  subscription discarded events since the last notice — lost data is
  always visible, never silent.

Errors come back as ``{"ok": false, "error": "..."}``: a line that is
not JSON, not a JSON object, longer than :data:`MAX_REQUEST_BYTES`, or
carries mistyped fields gets exactly one error line, never a traceback,
and never kills the server.

Backpressure end-to-end: ``watch`` writes are followed by
``writer.drain()``, so a consumer that stops reading fills the socket
buffer → the server coroutine parks in ``drain()`` → the bounded
subscription queue fills → a ``block``-policy publish awaits → the
worker thread blocks inside its emit bridge.  The crawl slows to the
pace of its slowest blocking consumer, by construction.

:class:`ServiceClient` is the synchronous face (stdlib sockets only) —
the CLI, tests and benches talk to a running service without touching
asyncio themselves.
"""

from __future__ import annotations

import asyncio
import json
import socket
from pathlib import Path
from typing import Iterator

from repro.service.events import POLICY_BLOCK, POLICIES
from repro.service.jobs import JobRecord, JobSpec, JobSpecError
from repro.service.service import CrawlService

#: Cap on one request line; a campaign spec is tiny, anything bigger is abuse.
MAX_REQUEST_BYTES = 1 << 20


def record_to_wire(record: JobRecord) -> dict:
    """A job record as the protocol ships it (faults and all — the wire
    form is for observers, not for persistence)."""
    return record.to_dict()


class ServiceServer:
    """Serve a :class:`CrawlService` over a Unix socket, one op per line."""

    def __init__(self, service: CrawlService, socket_path: str | Path) -> None:
        self._service = service
        self._socket_path = Path(socket_path)
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    @property
    def socket_path(self) -> Path:
        return self._socket_path

    async def start(self) -> None:
        self._socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self._socket_path.exists():
            self._socket_path.unlink()
        # The reader's line limit must admit every request the protocol
        # accepts; the default (64 KiB) would reject valid ones first.
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self._socket_path), limit=MAX_REQUEST_BYTES
        )

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then close everything."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._service.close()
        if self._socket_path.exists():
            self._socket_path.unlink()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # -- connection handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await reader.readline()
            except ValueError:  # no newline within the reader's limit
                line = None
            if line is None or len(line) > MAX_REQUEST_BYTES:
                await self._send(writer, {"ok": False, "error": "request too large"})
                return
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self._send(
                    writer, {"ok": False, "error": f"bad JSON: {exc}"}
                )
                return
            if not isinstance(request, dict):
                await self._send(
                    writer, {"ok": False, "error": "request must be a JSON object"}
                )
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload, sort_keys=True).encode() + b"\n")
        await writer.drain()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        try:
            if op == "ping":
                await self._send(writer, {"ok": True, "pong": True})
            elif op == "submit":
                spec = JobSpec.from_dict(request.get("spec", {}))
                job_id = await self._service.submit(spec)
                await self._send(writer, {"ok": True, "job_id": job_id})
            elif op == "status":
                record = self._service.status(str(request.get("job_id")))
                await self._send(
                    writer, {"ok": True, "job": record_to_wire(record)}
                )
            elif op == "list":
                await self._send(
                    writer,
                    {
                        "ok": True,
                        "jobs": [
                            record_to_wire(record)
                            for record in self._service.jobs()
                        ],
                    },
                )
            elif op == "cancel":
                record = await self._service.cancel(str(request.get("job_id")))
                await self._send(
                    writer, {"ok": True, "job": record_to_wire(record)}
                )
            elif op == "metrics":
                await self._send(
                    writer,
                    {"ok": True, "exposition": self._service.exposition()},
                )
            elif op == "shutdown":
                await self._send(writer, {"ok": True})
                self.request_shutdown()
            elif op == "watch":
                await self._watch(request, writer)
            else:
                await self._send(
                    writer, {"ok": False, "error": f"unknown op: {op!r}"}
                )
        except (JobSpecError, KeyError, TypeError, ValueError) as exc:
            message = str(exc) if str(exc) else repr(exc)
            await self._send(writer, {"ok": False, "error": message})

    async def _watch(self, request: dict, writer: asyncio.StreamWriter) -> None:
        job_id = str(request.get("job_id"))
        since = int(request.get("since", 0))
        policy = str(request.get("policy", POLICY_BLOCK))
        maxsize = int(request.get("maxsize", 64))
        if policy not in POLICIES:
            await self._send(
                writer, {"ok": False, "error": f"unknown policy: {policy!r}"}
            )
            return
        record = self._service.status(job_id)  # raises KeyError → error line
        # Subscribe before inspecting history: registration is atomic with
        # the replay snapshot, so no event can fall between them.
        replay, sub = self._service.subscribe(
            job_id, since=since, policy=policy, maxsize=maxsize
        )
        try:
            await self._send(
                writer, {"ok": True, "job": record_to_wire(record)}
            )
            reported_drops = 0
            terminal = False
            for event in replay:
                await self._send(writer, {"event": event.to_dict()})
                if event.terminal:
                    terminal = True
            # A finished job whose terminal event predates `since` has
            # nothing more to say; without this check we would wait on a
            # queue that will never receive another event.  (A terminal
            # event with seq > since is in the replay or the queue —
            # subscription is atomic — so the loop below will see it.)
            if not terminal:
                history = self._service.history(job_id)
                if history and history[-1].terminal and history[-1].seq <= since:
                    terminal = True
            while not terminal:
                event = await sub.get()
                if sub.dropped > reported_drops:
                    await self._send(writer, {"dropped": sub.dropped})
                    reported_drops = sub.dropped
                await self._send(writer, {"event": event.to_dict()})
                if event.terminal:
                    terminal = True
            if sub.dropped > reported_drops:
                await self._send(writer, {"dropped": sub.dropped})
        finally:
            self._service.unsubscribe(sub)


# -- synchronous client --------------------------------------------------------


class ServiceClientError(RuntimeError):
    """The service answered an op with ``ok: false``."""


class ServiceClient:
    """Blocking stdlib-socket client for the NDJSON protocol."""

    def __init__(self, socket_path: str | Path, timeout: float = 60.0) -> None:
        self._socket_path = str(socket_path)
        self._timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        sock.connect(self._socket_path)
        return sock

    def _request(self, payload: dict) -> dict:
        with self._connect() as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            with sock.makefile("r", encoding="utf-8") as stream:
                line = stream.readline()
        if not line:
            raise ServiceClientError("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceClientError(response.get("error", "unknown error"))
        return response

    # -- one-shot ops ---------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def submit(self, spec: JobSpec | dict) -> str:
        body = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        return str(self._request({"op": "submit", "spec": body})["job_id"])

    def status(self, job_id: str) -> dict:
        return dict(self._request({"op": "status", "job_id": job_id})["job"])

    def list_jobs(self) -> list[dict]:
        return list(self._request({"op": "list"})["jobs"])

    def cancel(self, job_id: str) -> dict:
        return dict(self._request({"op": "cancel", "job_id": job_id})["job"])

    def metrics(self) -> str:
        return str(self._request({"op": "metrics"})["exposition"])

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    # -- streaming ------------------------------------------------------------

    def watch(
        self,
        job_id: str,
        *,
        since: int = 0,
        policy: str = POLICY_BLOCK,
        maxsize: int = 64,
        timeout: float | None = None,
    ) -> Iterator[dict]:
        """Yield the watch stream's lines (``event`` / ``dropped`` objects)
        until the job's terminal event; raises on an error header."""
        sock = self._connect()
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            sock.sendall(
                json.dumps(
                    {
                        "op": "watch",
                        "job_id": job_id,
                        "since": since,
                        "policy": policy,
                        "maxsize": maxsize,
                    }
                ).encode()
                + b"\n"
            )
            with sock.makefile("r", encoding="utf-8") as stream:
                header = stream.readline()
                if not header:
                    raise ServiceClientError("service closed the connection")
                parsed = json.loads(header)
                if not parsed.get("ok"):
                    raise ServiceClientError(
                        parsed.get("error", "unknown error")
                    )
                for line in stream:
                    if not line.strip():
                        continue
                    item = json.loads(line)
                    yield item
                    event = item.get("event")
                    if event is not None and _is_terminal(event):
                        return
        finally:
            sock.close()


def _is_terminal(event: dict) -> bool:
    from repro.service.events import TERMINAL_KINDS

    return event.get("kind") in TERMINAL_KINDS
