"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``batch_cold`` — ``repro crawl`` then ``repro analyze`` in a fresh
  process per operation: world generation, a cold ``CrawlCampaign``,
  ``save_crawl``, ``load_crawl`` + Table 1 + Figure 5.
* ``service_jobs`` — a closed loop of two clients submitting seeded jobs
  to ``repro serve`` over its Unix socket and watching each to its
  terminal event.
* ``reid_population`` — ``run_reidentification`` on a population well
  above the sparse-linkage threshold, one study per fresh process.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs traced operations beside untraced ones and reports
the per-layer metrics.  Either way the outputs are checked, human-readable
lines go first and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
each run (environment, named metrics, checks) is appended to
``perfbench/_runs/results.jsonl`` and the spans of a traced run are
written to ``perfbench/_runs/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    RUNS,
    SRC,
    MissingSourceError,
    archive_digest,
    process_cpu_seconds,
    use_checkout_source,
)
import spans as spanlib  # noqa: E402

#: Seeds reserved as held-out input: never used while tuning the benchmark.
HELD_OUT_SEEDS = frozenset({9001})

#: Input sizes per workload; ``--tiny`` is the self-test's scale.
SCALES = {
    "default": {"sites": 5_000, "service_sites": 2_000, "job_limit": 1_000, "users": 3_000},
    "tiny": {"sites": 300, "service_sites": 300, "job_limit": 150, "users": 200},
}

#: Service job mix: in each block of this many jobs (in submit order) one
#: carries a one-shot shard crash.
JOB_BLOCK = 5
#: Seed of the service's two worlds.  The run seed drives the job mix;
#: the worlds stay fixed so that runs on different seeds do comparable work.
SERVICE_WORLD_SEED = 1
#: Service set-ups per untraced run; the median is ``setup_s``.
SERVICE_SETUPS = 3
CLIENTS = 2
CHILD_TIMEOUT_S = 100


def child_env() -> dict:
    """Environment of every process the benchmark starts: one fixed hash
    seed, so that set and dict layouts, and the work they cost, do not
    vary from one operation to the next."""
    return dict(os.environ, PYTHONHASHSEED="0")


class ChildError(RuntimeError):
    """A benchmark child process failed."""


def run_child(mode: str, params: dict) -> dict:
    """Run one ``child.py`` operation; returns its JSON result line."""
    params = dict(params, spawned_at=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, json.dumps(params)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildError(
            f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned_at"] = params["spawned_at"]
    result["wall_s"] = time.monotonic() - params["spawned_at"]
    return result


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -- run context -------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: dict
    work: Path
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    named: dict = field(default_factory=dict)  # the workload's own metric names
    inputs: dict = field(default_factory=dict)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    details: dict = field(default_factory=dict)  # per-operation samples
    host_probe_s: list = field(default_factory=list)

    @property
    def deadline(self) -> float:
        return self.started + self.seconds

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)

    def more(self, *needed: bool, expected: float = 0.0) -> bool:
        """Start another operation: if one taking ``expected`` seconds ends
        by the deadline, or while a required kind of operation has not run
        yet and none has failed."""
        return time.monotonic() + expected <= self.deadline or (
            any(needed) and not self.failed
        )


def check_history(run: Run, key: str, digest: str) -> None:
    """Two runs on one seed and scale must produce the same output digest."""
    path = RUNS / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    previous = known.setdefault(key, digest)
    if previous != digest:
        run.fail(
            f"{key}: digest {digest[:12]} differs from an earlier run's {previous[:12]}"
        )
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")


# -- batch_cold ---------------------------------------------------------------------


BLOCKING_PATH = (
    "bench.imports",
    "web.generator",
    "browser.plan",
    "crawler.campaign",
    "crawler.wellknown",
    "crawler.archive.save",
    "util.fsio.write",
)


def _by_name(spans: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in spans:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


def _dur(record: dict) -> float:
    return record["end"] - record["start"]


def _busy(spans: list[dict], name: str) -> float:
    """Total self time of the spans called ``name``."""
    own = spanlib.self_times(spans)
    return sum(own[s["id"]] for s in spans if s["name"] == name)


def batch_cold(run: Run) -> None:
    sites = run.scale["sites"]
    plain, traced = [], []
    index = 0
    while run.more(
        not plain, run.trace and not traced, expected=median(r["wall_s"] for r in plain)
    ):
        use_trace = run.trace and index % 2 == 1
        out = run.work / f"op-{index}"
        params = {
            "sites": sites,
            "seed": run.seed,
            "out": str(out),
            "trace": use_trace,
            # Later operations must write the same bytes (checked below),
            # so auditing the first archive of a run covers them all.
            "audit": index == 0,
            "trace_id": f"batch-{index}",
            "spans_out": str(run.work / f"op-{index}.spans.jsonl"),
        }
        run.attempted += 1
        index += 1
        try:
            result = run_child("batch", params)
        except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
            run.fail(f"batch op {index - 1}: {exc}")
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result["violations"]:
            run.fail(
                f"batch op {index - 1}: audit found {result['violations']} violation(s)"
            )
            continue
        if use_trace:
            result["spans"] = spanlib.read_jsonl(params["spans_out"])
            run.spans.extend(result["spans"])
        (traced if use_trace else plain).append(result)

    done = plain + traced
    digests = {result["digest"] for result in done}
    if len(digests) > 1:
        run.fail("batch ops on one seed wrote different archives", len(done))
    if done:
        check_history(run, f"batch_cold:{run.seed}:{sites}", done[0]["digest"])
    run.inputs = {"sites": sites, "world_seed": run.seed}
    if not plain:
        return

    setup = [r["ready"] - r["spawned_at"] for r in plain]
    campaign = [r["saved"] - r["ready"] for r in plain]
    analyze = [r["done"] - r["saved"] for r in plain]
    op = [r["done"] - r["ready"] for r in plain]
    campaign_cpu = [r["saved_cpu"] - r["ready_cpu"] for r in plain]
    analyze_cpu = [r["done_cpu"] - r["saved_cpu"] for r in plain]
    op_cpu = [r["done_cpu"] - r["ready_cpu"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    run.details["ops"] = [
        {"setup_s": a, "op_s": b, "op_cpu_s": c} for a, b, c in zip(setup, op, op_cpu)
    ]
    run.e2e = {
        "setup_s": median(setup),
        "op_cpu_s": median(op_cpu),
        "peak_rss_mb": median(rss),
    }
    run.named = {
        "setup_s": (median(setup), "s", len(setup)),
        "campaign_s": (median(campaign), "s", len(campaign)),
        "analyze_s": (median(analyze), "s", len(analyze)),
        "campaign_cpu_s": (median(campaign_cpu), "s", len(campaign_cpu)),
        "analyze_cpu_s": (median(analyze_cpu), "s", len(analyze_cpu)),
        "op_cpu_s": (median(op_cpu), "s", len(op_cpu)),
        "sites_per_s": (sites / median(op), "1/s", len(op)),
        "sites_per_cpu_s": (sites / median(op_cpu), "1/s", len(op_cpu)),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
        "archive_digest": (done[0]["digest"][:16], "sha256", len(done)),
    }
    if not traced:
        return

    layer_rows = []
    for result in traced:
        grouped = _by_name(result["spans"])

        def busy(name: str) -> float:
            return _busy(result["spans"], name)

        save_ids = {s["id"] for s in grouped.get("crawler.archive.save", [])}
        fsio = grouped.get("util.fsio.write", [])
        counts = result["counts"]
        campaign_busy = busy("crawler.campaign")
        rerun_plain = sum(_dur(s) for s in grouped["crawler.campaign.rerun_plain"])
        rerun_metrics = sum(_dur(s) for s in grouped["crawler.campaign.rerun_metrics"])
        layer_rows.append(
            {
                "web.generator.busy_s": busy("web.generator"),
                "web.generator.sites": counts["web.generator.sites"],
                "browser.plan.busy_s": busy("browser.plan"),
                "browser.plan.plans": counts["browser.plan.plans"],
                "browser.plan.cold_warm_ratio": busy("browser.plan") / campaign_busy,
                "crawler.campaign.busy_s": campaign_busy,
                "crawler.campaign.visits": counts["crawler.campaign.visits"],
                "crawler.campaign.visits_per_s": (
                    counts["crawler.campaign.visits"] / campaign_busy
                ),
                "crawler.campaign.instrumented_ratio": rerun_metrics / rerun_plain,
                "crawler.wellknown.busy_s": busy("crawler.wellknown"),
                "crawler.wellknown.probes": counts["crawler.wellknown.probes"],
                "crawler.archive.encode_s": busy("crawler.archive.save"),
                "crawler.archive.write_s": sum(
                    _dur(s) for s in fsio if s["parent"] in save_ids
                ),
                "crawler.archive.read_s": busy("crawler.archive.load"),
                "crawler.archive.bytes": result["archive_bytes"],
                "util.fsio.busy_s": busy("util.fsio.write"),
                "util.fsio.files": len(fsio),
                "util.fsio.bytes": sum(s["bytes"] for s in fsio),
                "analysis.classify.table1_s": busy("analysis.classify.table1"),
                "analysis.questionable.figure5_s": busy("analysis.questionable.figure5"),
                "blocking_self_s": sum(busy(name) for name in BLOCKING_PATH),
                "wall_s": result["done"] - result["spawned_at"],
            }
        )
        title = f"batch_cold op {result['spans'][0]['trace']}"
        run.tables.append(spanlib.render_table(title, result["spans"]))
    layers = {key: median(row[key] for row in layer_rows) for key in layer_rows[0]}
    untraced_wall = median(r["done"] - r["spawned_at"] for r in plain)
    run.layers = {k: v for k, v in layers.items() if k not in ("blocking_self_s", "wall_s")}
    run.layers["batch_cold.trace_overhead_ratio"] = layers["wall_s"] / untraced_wall

    # Decomposition: the layer self-times on the blocking path account for
    # the untraced set-up plus campaign.
    expected = median(setup) + median(campaign)
    share = abs(layers["blocking_self_s"] - expected) / expected
    bound = bound_of("op_cpu_s")
    run.named["decomposition_gap"] = (share, "ratio", len(layer_rows))
    if share > bound:
        run.fail(
            f"decomposition: blocking-path self time {layers['blocking_self_s']:.3f}s vs "
            f"untraced setup+campaign {expected:.3f}s ({share:.1%} > {bound:.0%})"
        )


# -- reid_population --------------------------------------------------------------


def reid_population(run: Run) -> None:
    users = run.scale["users"]
    plain, traced = [], []
    index = 0
    while run.more(
        not plain, run.trace and not traced, expected=median(r["wall_s"] for r in plain)
    ):
        use_trace = run.trace and index % 2 == 1
        params = {
            "users": users,
            "seed": run.seed,
            "trace": use_trace,
            "trace_id": f"reid-{index}",
            "spans_out": str(run.work / f"op-{index}.spans.jsonl"),
        }
        run.attempted += 1
        index += 1
        try:
            result = run_child("reid", params)
        except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
            run.fail(f"reid op {index - 1}: {exc}")
            continue
        if use_trace:
            result["spans"] = spanlib.read_jsonl(params["spans_out"])
            run.spans.extend(result["spans"])
        (traced if use_trace else plain).append(result)

    # Output check, untimed: ranks equal a serial-backend reference.
    try:
        reference = run_child(
            "reid", {"users": users, "seed": run.seed, "backend": "serial"}
        )
    except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
        run.fail(f"reid reference: {exc}", len(plain) + len(traced))
        return
    for result in plain + traced:
        if result["digest"] != reference["digest"]:
            run.fail(f"reid ranks differ from the serial reference ({result['backend']})")
    check_history(run, f"reid_population:{run.seed}:{users}", reference["digest"])
    run.inputs = {
        "users": users,
        "population_seed": run.seed,
        "backend": plain[0]["backend"] if plain else None,
    }
    if not plain:
        return

    setup = [r["ready"] - r["spawned_at"] for r in plain]
    study = [r["done"] - r["ready"] for r in plain]
    study_cpu = [r["done_cpu"] - r["ready_cpu"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    run.details["ops"] = [
        {"setup_s": a, "op_s": b, "op_cpu_s": c} for a, b, c in zip(setup, study, study_cpu)
    ]
    run.e2e = {
        "setup_s": median(setup),
        "op_cpu_s": median(study_cpu),
        "peak_rss_mb": median(rss),
    }
    run.named = {
        "setup_s": (median(setup), "s", len(setup)),
        "reid_users_per_s": (users / median(study), "1/s", len(study)),
        "study_s": (median(study), "s", len(study)),
        "op_cpu_s": (median(study_cpu), "s", len(study_cpu)),
        "users_per_cpu_s": (users / median(study_cpu), "1/s", len(study_cpu)),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
        "ranks_digest": (reference["digest"][:16], "sha256", len(plain) + len(traced)),
    }
    if not traced:
        return
    rows = []
    for result in traced:
        spans = result["spans"]
        counts = result["counts"]
        scored = counts["privacy.attack.pairs_scored"]
        rows.append(
            {
                "users.population.busy_s": _busy(spans, "users.population"),
                "users.browsing.busy_s": _busy(spans, "users.browsing"),
                "users.browsing.users": counts["users.browsing.users"],
                "privacy.attack.busy_s": _busy(spans, "privacy.attack"),
                "privacy.attack.pairs_scored": scored,
                "privacy.attack.pairs_pruned": counts["privacy.attack.pairs_pruned"],
                "privacy.attack.scored_ratio": scored / users**2,
                "wall_s": result["done"] - result["spawned_at"],
            }
        )
        title = f"reid_population op {result['spans'][0]['trace']}"
        run.tables.append(spanlib.render_table(title, result["spans"]))
    layers = {key: median(row[key] for row in rows) for key in rows[0]}
    untraced_wall = median(r["done"] - r["spawned_at"] for r in plain)
    run.layers = {k: v for k, v in layers.items() if k != "wall_s"}
    run.layers["reid_population.trace_overhead_ratio"] = layers["wall_s"] / untraced_wall


# -- service_jobs ------------------------------------------------------------------


def job_mix(seed: int, scale: dict):
    """The seeded job sequence, in submit order (endless)."""
    rng = random.Random(f"service_jobs:{seed}")
    limit = scale["job_limit"]
    shard_size = math.ceil(limit / 4)
    while True:
        faulty = rng.randrange(JOB_BLOCK)
        for slot in range(JOB_BLOCK):
            spec = {
                "sites": scale["service_sites"],
                "seed": SERVICE_WORLD_SEED,
                "vantage": rng.choice(("eu", "us")),
                "limit": limit,
            }
            if slot == faulty:
                # Crash shard 0 once, past its first checkpoint when it has one.
                if shard_size > 240:
                    position = 200 + rng.randint(1, 40)
                else:
                    position = rng.randint(1, shard_size)
                spec["fault"] = {"shard_index": 0, "points": [[1, position]]}
            yield spec


def mix_digest(seed: int, scale: dict) -> str:
    """Fingerprint of the first two blocks of a seed's job mix."""
    mix = job_mix(seed, scale)
    specs = [next(mix) for _ in range(2 * JOB_BLOCK)]
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()[:16]


def parse_exposition(text: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


class ServiceSession:
    """One ``repro serve`` process, booted and with both worlds built."""

    def __init__(self, run: Run, name: str, traced: bool) -> None:
        from repro.service.protocol import ServiceClient

        self.run = run
        self.dir = run.work / name
        self.dir.mkdir(parents=True)
        # Relative to the checkout root (every process's cwd): keeps the
        # socket path under the AF_UNIX length limit wherever the checkout is.
        self.socket = os.path.relpath(self.dir / "s.sock", ROOT)
        self.traced = traced
        self.spans_out = self.dir / "service.spans.jsonl"
        self.exit_out = self.dir / "exit.json"
        params = {
            "data_dir": str(self.dir / "data"),
            "socket": self.socket,
            "trace": traced,
            "spans_out": str(self.spans_out),
            "exit_out": str(self.exit_out),
        }
        self.started = time.monotonic()
        with (self.dir / "serve.stderr").open("w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve.py"), json.dumps(params)],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        self.client = ServiceClient(self.socket, timeout=60.0)
        try:
            self._wait_ready()
            warmups = [self.watch_job(self.submit(spec)) for spec in self.warmup_specs()]
            self.ready = time.monotonic()
            if any(job["state"] != "done" for job in warmups):
                raise ChildError(f"service warm-up failed: {warmups}")
        except BaseException:
            self.kill()
            raise

    def warmup_specs(self) -> list[dict]:
        sites = self.run.scale["service_sites"]
        return [
            {"sites": sites, "seed": SERVICE_WORLD_SEED, "vantage": vantage, "limit": 8}
            for vantage in ("eu", "us")
        ]

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise ChildError(f"service exited {self.proc.returncode} during boot")
            try:
                if self.client.ping():
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ChildError("service did not answer within 60 s")
            time.sleep(0.01)

    def submit(self, spec: dict) -> dict:
        job = {"spec": spec, "submitted": time.monotonic()}
        job["id"] = self.client.submit(spec)
        job["accepted"] = time.monotonic()
        return job

    def watch_job(self, job: dict) -> dict:
        job.update(events=0, bytes=0, dropped=0, shard_results=[], started=None)
        for item in self.client.watch(job["id"]):
            now = time.monotonic()
            job.setdefault("first_event", now)
            if self.traced:
                # Re-serialised size of the line: only the traced run pays it.
                job["bytes"] += len(json.dumps(item)) + 1
            if "dropped" in item:
                job["dropped"] = item["dropped"]
                continue
            event = item["event"]
            job["events"] += 1
            kind = event["kind"]
            if kind == "job-started":
                job["started"] = now
            elif kind == "shard-result":
                job["shard_results"].append(now)
            elif kind in ("job-done", "job-failed", "job-cancelled"):
                job["state"] = kind.removeprefix("job-")
                job["terminal"] = now
                job["payload"] = event.get("payload", {})
        job.setdefault("state", "lost")
        return job

    def cpu_seconds(self) -> float:
        """CPU time the service process has used so far."""
        return process_cpu_seconds(self.proc.pid)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> dict:
        """Shut the service down; returns its exit record."""
        try:
            self.metrics = parse_exposition(self.client.metrics())
            self.client.shutdown()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return json.loads(self.exit_out.read_text(encoding="utf-8"))


def closed_loop(session: ServiceSession, mix, until: float) -> list[dict]:
    """Two clients; each submits its next job only after the last ends,
    and stops after the first job that ends past ``until``."""
    lock = threading.Lock()
    jobs: list[dict] = []

    def client() -> None:
        while True:
            with lock:
                spec = next(mix)
            submitted = time.monotonic()
            try:
                job = session.watch_job(session.submit(spec))
            except Exception as exc:  # noqa: BLE001 — a failed job is counted
                job = {
                    "spec": spec,
                    "state": f"error: {exc!r}",
                    "submitted": submitted,
                }
            with lock:
                jobs.append(job)
            if time.monotonic() >= until:
                return

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs


def _job_key(spec: dict) -> tuple[str, str]:
    return spec["vantage"], str(spec["limit"])


def service_check(run: Run, jobs: list[dict], trace: bool) -> dict:
    """Compare every DONE job's archive with a reference ``ResumableCrawl``."""
    needed: dict[str, set] = {}
    for job in jobs:
        if job["state"] == "done":
            vantage, limit = _job_key(job["spec"])
            needed.setdefault(vantage, set()).add(int(limit))
    references, generate_s, survey = {}, [], {"s": 0.0, "probes": 0, "archives": 0}
    for vantage, limits in sorted(needed.items()):
        out = run.work / f"reference-{vantage}"
        try:
            ref = run_child(
                "service-ref",
                {
                    "sites": run.scale["service_sites"],
                    "seed": SERVICE_WORLD_SEED,
                    "vantage": vantage,
                    "limits": sorted(limits),
                    "out": str(out),
                    "trace": trace,
                },
            )
        except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
            run.fail(f"service reference {vantage}: {exc}")
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)
        generate_s.append(ref["generate_s"])
        survey["s"] += ref["survey_s"]
        survey["probes"] += ref["probes"]
        survey["archives"] += len(limits)
        for limit, digest in ref["digests"].items():
            references[(vantage, limit)] = digest
    for job in jobs:
        if job["state"] != "done":
            run.fail(f"job {job.get('id')} ended {job['state']}")
            continue
        expected = references.get(_job_key(job["spec"]))
        archive = ROOT / job["payload"]["archive_dir"]
        if expected is None or archive_digest(archive) != expected:
            run.fail(f"job {job['id']}: archive differs from its reference")
            job["state"] = "wrong-archive"
    for (vantage, limit), digest in sorted(references.items()):
        check_history(
            run,
            f"service_jobs:{SERVICE_WORLD_SEED}:{run.scale['service_sites']}"
            f":{vantage}/{limit}",
            digest,
        )
    combined = hashlib.sha256(
        ",".join(f"{k[0]}/{k[1]}={v}" for k, v in sorted(references.items())).encode()
    ).hexdigest()
    return {"generate_s": generate_s, "survey": survey, "digest": combined}


def _job_stats(jobs: list[dict]) -> dict:
    done = [job for job in jobs if job["state"] == "done"]
    latency = [job["terminal"] - job["submitted"] for job in done]
    first = min(job["submitted"] for job in jobs)
    last = max(job["terminal"] for job in done) if done else first
    sites = sum(job["payload"]["summary"]["targets"] for job in done)
    return {
        "done": done,
        "latency": latency,
        "sites_per_s": sites / (last - first) if last > first else 0.0,
    }


def service_jobs(run: Run) -> None:
    mix = job_mix(run.seed, run.scale)
    setups, sessions = [], []
    untraced_jobs: list[dict] = []
    traced_jobs: list[dict] = []
    try:
        rounds = SERVICE_SETUPS if not run.trace else 1
        for number in range(rounds):
            session = ServiceSession(run, f"svc-{number}", traced=False)
            sessions.append(session)
            setups.append(session.ready - session.started)
            if number < rounds - 1:
                session.close()
        # The window opens once the service is ready: set-up is timed apart.
        window = run.seconds / 2 if run.trace else run.seconds
        cpu_before = sessions[-1].cpu_seconds()
        untraced_jobs = closed_loop(sessions[-1], mix, time.monotonic() + window)
        service_cpu = sessions[-1].cpu_seconds() - cpu_before
        exit_record = sessions[-1].close()
        if run.trace:
            session = ServiceSession(run, "svc-traced", traced=True)
            sessions.append(session)
            traced_jobs = closed_loop(session, mix, time.monotonic() + window)
            session.close()
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        run.attempted += 1
        run.fail(f"service session: {exc!r}")
        return
    finally:
        for session in sessions:
            session.kill()
    all_jobs = untraced_jobs + traced_jobs
    run.attempted += len(all_jobs)
    check = service_check(run, all_jobs, trace=run.trace)
    run.inputs = {
        "world_sites": run.scale["service_sites"],
        "world_seed": SERVICE_WORLD_SEED,
        "mix_seed": run.seed,
        "job_limit": run.scale["job_limit"],
        "jobs": len(all_jobs),
        "fault_jobs": sum(1 for j in all_jobs if "fault" in j["spec"]),
        "clients": CLIENTS,
    }
    stats = _job_stats(untraced_jobs)
    run.details["jobs"] = [
        {
            "limit": job["spec"]["limit"],
            "vantage": job["spec"]["vantage"],
            "fault": "fault" in job["spec"],
            "state": job["state"],
            "latency_s": job["terminal"] - job["submitted"] if "terminal" in job else None,
        }
        for job in untraced_jobs
    ]
    if not stats["done"]:
        run.fail("no service job completed")
        return
    value, pct, n = tail(stats["latency"])
    # Every job of the window ran to its end inside it, so the service's
    # CPU time over the window divides over all of them.
    job_cpu = service_cpu / len(untraced_jobs)
    run.e2e = {
        "setup_s": median(setups),
        "op_cpu_s": job_cpu,
        "peak_rss_mb": exit_record["peak_rss_mb"],
    }
    run.named = {
        "setup_s": (median(setups), "s", len(setups)),
        "job_cpu_s": (job_cpu, "s", len(untraced_jobs)),
        "job_p50_s": (median(stats["latency"]), "s", len(stats["latency"])),
        f"job_tail_s(p{pct:.0f})": (value, "s", n),
        "service_sites_per_s": (stats["sites_per_s"], "1/s", len(stats["done"])),
        "peak_rss_mb": (exit_record["peak_rss_mb"], "MB", 1),
        "reference_digest": (check["digest"][:16], "sha256", len(all_jobs)),
        "mix_digest": (mix_digest(run.seed, run.scale), "sha256", 2 * JOB_BLOCK),
    }
    if not run.trace:
        return

    session = sessions[-1]
    traced_stats = _job_stats(traced_jobs)
    done = traced_stats["done"]
    # The traced session's spans of its timed jobs (not of its warm-up jobs).
    timed = {job["id"] for job in done}
    recorded = spanlib.read_jsonl(session.spans_out) if session.spans_out.exists() else []
    server_spans = [span for span in recorded if span["trace"] in timed]
    client_spans = []
    for job in done:
        for name, start, end in (
            ("service.protocol.submit", job["submitted"], job.get("accepted")),
            ("service.events.watch", job.get("accepted"), job.get("terminal")),
        ):
            if start is not None and end is not None:
                client_spans.append(
                    {"id": f"client.{job['id']}.{name}", "parent": None, "trace": job["id"],
                     "name": name, "thread": 0, "start": start, "end": end}
                )
    run.spans.extend(server_spans + client_spans)
    run.tables.append(
        spanlib.render_table("service_jobs (traced session)", server_spans + client_spans)
    )
    own = spanlib.self_times(server_spans)
    grouped = _by_name(server_spans)
    jobs_n = max(len(done), 1)

    def total(name: str, key=None) -> float:
        return sum(own[s["id"]] if key is None else key(s) for s in grouped.get(name, []))

    saves = grouped.get("crawler.archive.save", [])
    save_ids = {s["id"] for s in saves}
    fsio = grouped.get("util.fsio.write", [])
    ckpt = grouped.get("crawler.checkpoint.write", [])
    ckpt_bytes = sum(s["bytes"] for s in ckpt)
    archive_bytes = sum(s["bytes"] for s in saves)
    shard_times = [t - job["started"] for job in done for t in job["shard_results"]]
    shard_max = [
        max(t - job["started"] for t in job["shard_results"])
        for job in done
        if job["shard_results"]
    ]
    metrics = session.metrics
    survey = check["survey"]
    run.layers = {
        "web.generator.busy_s": median(check["generate_s"]),
        "web.generator.sites": run.scale["service_sites"],
        "crawler.wellknown.busy_s": survey["s"] / max(survey["archives"], 1),
        "crawler.wellknown.probes": survey["probes"] / max(survey["archives"], 1),
        "crawler.archive.encode_s": total("crawler.archive.save") / jobs_n,
        "crawler.archive.write_s": (
            sum(_dur(s) for s in fsio if s["parent"] in save_ids) / jobs_n
        ),
        "crawler.archive.bytes": archive_bytes / jobs_n,
        "util.fsio.busy_s": total("util.fsio.write") / jobs_n,
        "util.fsio.files": len(fsio) / jobs_n,
        "util.fsio.bytes": sum(s["bytes"] for s in fsio) / jobs_n,
        "crawler.checkpoint.write_s": sum(_dur(s) for s in ckpt) / jobs_n,
        "crawler.checkpoint.writes": len(ckpt) / jobs_n,
        "crawler.checkpoint.bytes": ckpt_bytes / jobs_n,
        "crawler.checkpoint.bytes_per_archive_byte": (
            ckpt_bytes / archive_bytes if archive_bytes else 0.0
        ),
        "crawler.checkpoint.load_s": total("crawler.checkpoint.load", _dur) / jobs_n,
        "crawler.checkpoint.loads": (
            len(grouped.get("crawler.checkpoint.load", [])) / jobs_n
        ),
        "crawler.executor.shard_p50_s": median(shard_times),
        "crawler.executor.shard_max_s": median(shard_max),
        "crawler.executor.shard_retries": (
            metrics.get("shard_retries_total", 0.0) / jobs_n
        ),
        "service.service.queue_wait_s": mean(j["started"] - j["submitted"] for j in done),
        "service.service.run_s": mean(j["terminal"] - j["started"] for j in done),
        "service.service.world_builds": metrics.get("service_world_builds_total", 0.0),
        "service.service.world_cache_hits": (
            metrics.get("service_world_cache_hits_total", 0.0)
        ),
        "service.protocol.submit_ms": (
            1000 * mean(j["accepted"] - j["submitted"] for j in done)
        ),
        "service.events.first_event_ms": (
            1000 * mean(j["first_event"] - j["submitted"] for j in done)
        ),
        "service.events.events": mean(j["events"] for j in done),
        "service.events.dropped": sum(j["dropped"] for j in done),
        "service.events.bytes": mean(j["bytes"] for j in done),
        "service_jobs.trace_overhead_ratio": (
            median(traced_stats["latency"]) / median(stats["latency"]) if done else 0.0
        ),
    }


WORKLOADS = {
    "batch_cold": batch_cold,
    "service_jobs": service_jobs,
    "reid_population": reid_population,
}


# -- output --------------------------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bound_of(name: str) -> float:
    return next(m["bound"] for m in load_benchmark()["end_to_end"] if m["name"] == name)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: taken at the start and end of
    each run, it shows how fast the host was running while measured."""
    started = time.perf_counter()
    sum(i * i for i in range(10**6))
    return time.perf_counter() - started


def environment(run: Run) -> dict:
    from repro.util.executor import resolve_backend_name

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_digest": source_digest(),
        "seed": run.seed,
        "held_out_seed": run.seed in HELD_OUT_SEEDS,
        "seconds": run.seconds,
        "trace": run.trace,
        "backend": resolve_backend_name(),
        "inputs": run.inputs,
        "host_probe_s": run.host_probe_s,
    }


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def emit(run: Run, bench: dict) -> dict:
    env = environment(run)
    print(
        f"workload {run.workload}: seed {run.seed}, {run.seconds:g}s, "
        f"trace={int(run.trace)}"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in run.named.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {unit:<7} (n={n})")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':<28} {ratio:>14.6g} ratio   ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    if run.trace:
        for table in run.tables:
            print(table)
        spans_path = RUNS / f"{run.workload}-seed{run.seed}.spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as handle:
            for record in sorted(run.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(run.spans)})")
        wanted = bench["per_layer"]
        values = run.layers
    else:
        wanted = bench["end_to_end"]
        values = run.e2e
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if not run.trace:
            print(f"  {metric['name']:<28} {value:>14.6g} {metric['unit']}")
    correct = run.failed == 0 and (run.trace or bool(run.e2e))
    record = {
        "workload": run.workload,
        "environment": env,
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in run.named.items()},
        "failed_ratio": ratio,
        "problems": run.problems,
        "details": run.details,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with (RUNS / "results.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    bench = load_benchmark()
    RUNS.mkdir(parents=True, exist_ok=True)
    work = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=SCALES["tiny" if args.tiny else "default"],
        work=work,
    )
    work.mkdir(parents=True)
    run.host_probe_s.append(host_probe())
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.host_probe_s.append(host_probe())
    print(json.dumps(emit(run, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
