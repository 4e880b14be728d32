"""NDJSON protocol tests: the socket surface the CLI verbs stand on.

A real :class:`ServiceServer` runs on a background thread's event loop;
the synchronous :class:`ServiceClient` (what ``repro submit`` / ``watch``
use) talks to it over the Unix socket exactly as a separate process
would.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from pathlib import Path

import pytest

from repro.service import (
    CrawlService,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
)
from repro.service.protocol import MAX_REQUEST_BYTES

SITES = 90
SPEC = {"sites": SITES, "seed": 2, "shards": 2, "checkpoint_every": 20}


class ServiceHarness:
    """A live service + socket server on a background event loop."""

    def __init__(self, root: Path) -> None:
        self.data_dir = root / "service"
        self.socket_path = root / "service.sock"
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(timeout=30), "service failed to start"
        if self._failure is not None:
            raise self._failure
        return self

    def join(self, timeout: float = 120.0) -> None:
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "service did not shut down"
        if self._failure is not None:
            raise self._failure

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in the test
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        service = CrawlService(self.data_dir, backend="serial")
        await service.start()
        server = ServiceServer(service, self.socket_path)
        await server.start()
        self._ready.set()
        await server.serve_until_shutdown()


@pytest.fixture
def harness(tmp_path) -> ServiceHarness:
    h = ServiceHarness(tmp_path).start()
    yield h
    if h._thread.is_alive():
        ServiceClient(h.socket_path).shutdown()
    h.join()


class TestRoundTrips:
    def test_full_job_lifecycle_over_the_socket(self, harness):
        client = ServiceClient(harness.socket_path)
        assert client.ping()

        job_id = client.submit(SPEC)
        assert job_id == "job-000001"

        kinds = []
        seqs = []
        for item in client.watch(job_id):
            event = item.get("event")
            if event is not None:
                kinds.append(event["kind"])
                seqs.append(event["seq"])
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-done"
        assert "shard-result" in kinds
        assert seqs == list(range(1, len(seqs) + 1))

        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["summary"]["targets"] == SITES
        assert Path(status["archive_dir"]).is_dir()

        jobs = client.list_jobs()
        assert [job["job_id"] for job in jobs] == [job_id]

        # Reconnect from an offset: only the suffix comes back.
        tail = [
            item["event"]["seq"]
            for item in client.watch(job_id, since=seqs[2])
            if "event" in item
        ]
        assert tail == seqs[3:]

        # Reconnect after the terminal event was already delivered: the
        # stream closes immediately instead of hanging.
        assert list(client.watch(job_id, since=seqs[-1])) == []

    def test_metrics_exposition(self, harness):
        client = ServiceClient(harness.socket_path)
        job_id = client.submit(SPEC)
        for _ in client.watch(job_id):
            pass
        exposition = client.metrics()
        assert "# TYPE service_jobs_submitted_total counter" in exposition
        assert "service_jobs_done_total 1" in exposition
        assert "service_world_builds_total 1" in exposition
        # Job-level crawl metrics were absorbed into the service registry.
        assert "crawl_visits_total" in exposition

    def test_errors_come_back_as_error_lines(self, harness):
        client = ServiceClient(harness.socket_path)
        with pytest.raises(ServiceClientError, match="no such job"):
            client.status("job-999999")
        with pytest.raises(ServiceClientError, match="unknown job spec field"):
            client.submit({"sites": 50, "sides": 3})
        with pytest.raises(ServiceClientError, match="sites must be positive"):
            client.submit({"sites": -1})
        with pytest.raises(ServiceClientError, match="unknown op"):
            client._request({"op": "frobnicate"})
        with pytest.raises(ServiceClientError, match="policy"):
            list(client.watch("job-000001", policy="mystery"))

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1,2]",
            b'"x"',
            b'{"op":"submit","spec":[1]}',
            b'{"op":"watch","job_id":"j","since":[1]}',
            b'{"op":"frobnicate","pad":"' + b"x" * 100_000 + b'"}',
            b"x" * (MAX_REQUEST_BYTES + 1000),
        ],
        ids=["array", "string", "spec-array", "since-array", "100k", "over-limit"],
    )
    def test_malformed_request_gets_one_error_line(self, harness, payload):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(str(harness.socket_path))
            sock.sendall(payload + b"\n")
            with sock.makefile("rb") as stream:
                lines = stream.readlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["ok"] is False
        assert ServiceClient(harness.socket_path).ping()

    def test_cancel_over_the_socket(self, harness):
        client = ServiceClient(harness.socket_path)
        job_id = client.submit(
            {
                "sites": 240,
                "seed": 5,
                "shards": 2,
                "checkpoint_every": 10,
                "progress_every": 10,
            }
        )
        cancelled = False
        for item in client.watch(job_id):
            event = item.get("event")
            if event is None:
                continue
            if event["kind"] == "shard-progress" and not cancelled:
                client.cancel(job_id)
                cancelled = True
            if event["kind"] == "job-cancelled":
                break
        assert cancelled
        assert client.status(job_id)["state"] == "cancelled"

    def test_shutdown_stops_the_server(self, harness):
        client = ServiceClient(harness.socket_path)
        client.shutdown()
        harness.join()
        assert not harness.socket_path.exists()


class TestBackendValidation:
    @pytest.mark.parametrize("backend", ["thread", "fork"])
    def test_unknown_backend_rejected_at_submit(self, harness, backend):
        client = ServiceClient(harness.socket_path)
        with pytest.raises(ServiceClientError, match="unknown crawl backend"):
            client.submit({**SPEC, "backend": backend})
        assert client.list_jobs() == []
        assert client.ping()

    def test_stored_record_with_removed_backend_still_loads(self, tmp_path):
        """A finished job recorded under a backend that no longer exists
        is history, not a submission: the service starts and lists it."""
        from repro.service.jobs import JobRecord, JobSpec, JobState, JobTable

        h = ServiceHarness(tmp_path)
        JobTable(h.data_dir / "jobs").save(
            JobRecord(
                job_id="job-000001",
                spec=JobSpec(sites=SITES, backend="thread"),
                state=JobState.DONE,
                summary={"targets": SITES},
            )
        )
        h.start()
        try:
            client = ServiceClient(h.socket_path)
            (job,) = client.list_jobs()
            assert job["job_id"] == "job-000001"
            assert job["state"] == "done"
            assert job["spec"]["backend"] == "thread"
        finally:
            ServiceClient(h.socket_path).shutdown()
            h.join()
