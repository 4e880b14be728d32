"""Unit tests for the observability layer: tracer, metrics, round-trips."""

import hashlib

import pytest

from repro.analysis.obs_report import (
    build_metrics_report,
    diff_snapshots,
    render_divergences,
    render_metrics_report,
)
from repro.obs import (
    EventKind,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
    NULL_TRACER,
    NullMetrics,
    NullTracer,
    Tracer,
)
from repro.cli import main
from repro.obs.metrics import format_series


class TestTracer:
    def test_emit_and_read_back(self):
        tracer = Tracer()
        tracer.emit(EventKind.VISIT_STARTED, at=10, domain="a.com")
        tracer.emit(EventKind.VISIT_FINISHED, at=12, domain="a.com", ok=True)
        assert len(tracer) == 2
        started = tracer.events(EventKind.VISIT_STARTED)
        assert len(started) == 1
        assert started[0].at == 10
        assert started[0].fields == {"domain": "a.com"}

    def test_sequence_numbers_order_events(self):
        tracer = Tracer()
        for index in range(5):
            tracer.emit(EventKind.TOPICS_CALL, at=0, index=index)
        assert [event.seq for event in tracer] == [0, 1, 2, 3, 4]

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(10):
            tracer.emit(EventKind.VISIT_STARTED, at=index)
        assert len(tracer) == 3
        assert tracer.emitted == 10
        assert tracer.dropped == 7
        assert [event.at for event in tracer] == [7, 8, 9]

    def test_counts_by_kind_survive_drops(self):
        tracer = Tracer(capacity=2)
        for _ in range(6):
            tracer.emit(EventKind.TOPICS_CALL, at=0)
        assert tracer.counts_by_kind() == {"topics-call": 6}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(EventKind.BANNER_INTERACTION, at=5, domain="b.com", found=True)
        tracer.emit(
            EventKind.TOPICS_CALL, at=7, caller="c.com", decision="allowed-corrupt"
        )
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        events = Tracer.read_jsonl(path)
        assert events == tracer.events()

    def test_jsonl_meta_records_drops(self, tmp_path):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.emit(EventKind.VISIT_STARTED, at=index)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        meta = Tracer.read_meta(path)
        assert (meta.emitted, meta.dropped, meta.capacity) == (5, 3, 2)
        assert meta.drop_rate == pytest.approx(0.6)
        # The meta line does not leak into the event stream.
        events = Tracer.read_jsonl(path)
        assert [event.at for event in events] == [3, 4]

    def test_read_meta_none_for_legacy_trace(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"at": 1, "kind": "visit-started", "seq": 0}\n')
        assert Tracer.read_meta(path) is None
        assert len(Tracer.read_jsonl(path)) == 1

    def test_replay_tags_events(self):
        shard = Tracer()
        shard.emit(EventKind.VISIT_STARTED, at=1, domain="a.com")
        parent = Tracer()
        parent.replay(shard, shard=3)
        (event,) = parent.events()
        assert event.fields == {"domain": "a.com", "shard": 3}
        assert event.at == 1

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(EventKind.VISIT_STARTED, at=0, domain="x.com")
        assert len(NULL_TRACER) == 0
        assert isinstance(NULL_TRACER, NullTracer)


class TestMetricsRegistry:
    def test_counter_accumulates_per_labelset(self):
        metrics = MetricsRegistry()
        metrics.counter("visits", phase="before")
        metrics.counter("visits", phase="before")
        metrics.counter("visits", phase="after")
        snapshot = metrics.snapshot()
        assert snapshot.counter_value("visits", phase="before") == 2
        assert snapshot.counter_value("visits", phase="after") == 1
        assert snapshot.counter_total("visits") == 3

    def test_label_order_is_canonical(self):
        metrics = MetricsRegistry()
        metrics.counter("calls", type="js", decision="allowed")
        metrics.counter("calls", decision="allowed", type="js")
        assert metrics.snapshot().counter_value(
            "calls", type="js", decision="allowed"
        ) == 2

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("duration", 10)
        metrics.gauge("duration", 7)
        assert metrics.snapshot().gauge_value("duration") == 7

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in (1, 2, 2, 40):
            metrics.observe("visit_seconds", value)
        data = metrics.snapshot().histogram("visit_seconds")
        assert data.count == 4
        assert data.total == 45
        assert data.min == 1
        assert data.max == 40
        assert data.mean == pytest.approx(11.25)
        # bounds (1, 2, 5, ...): 1 falls in the first bucket, both 2s in
        # the second, 40 in the (30, 60] bucket.
        assert data.bucket_counts[0] == 1
        assert data.bucket_counts[1] == 2
        assert sum(data.bucket_counts) == 4

    def test_quantile_interpolates_within_buckets(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):  # 1..100 over buckets (1,2,5,...,1800)
            metrics.observe("seconds", value)
        data = metrics.snapshot().histogram("seconds")
        assert data.quantile(0.0) == 1
        assert data.quantile(1.0) == 100
        # p50 = 50th of 100 observations: inside the (30, 60] bucket.
        assert 30 <= data.quantile(0.50) <= 60
        assert data.quantile(0.95) >= data.quantile(0.50)
        # Estimates never leave the observed range.
        assert 1 <= data.quantile(0.99) <= 100

    def test_quantile_single_observation(self):
        metrics = MetricsRegistry()
        metrics.observe("seconds", 3.5)
        data = metrics.snapshot().histogram("seconds")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert data.quantile(q) == 3.5

    def test_quantile_of_empty_histogram(self):
        from repro.obs import HistogramData

        empty = HistogramData(
            bounds=(1.0,), bucket_counts=(0, 0), count=0, total=0.0,
            min=float("inf"), max=float("-inf"),
        )
        assert empty.quantile(0.5) == 0.0

    def test_histogram_total_merges_labelsets(self):
        metrics = MetricsRegistry()
        metrics.observe("visit_seconds", 1, outcome="ok")
        metrics.observe("visit_seconds", 2, outcome="failed")
        merged = metrics.snapshot().histogram_total("visit_seconds")
        assert merged.count == 2
        assert merged.min == 1 and merged.max == 2
        assert metrics.snapshot().histogram_total("absent") is None

    def test_snapshot_is_detached(self):
        metrics = MetricsRegistry()
        metrics.counter("visits")
        snapshot = metrics.snapshot()
        metrics.counter("visits")
        assert snapshot.counter_value("visits") == 1
        assert metrics.snapshot().counter_value("visits") == 2

    def test_null_metrics_is_inert(self):
        NULL_METRICS.counter("visits")
        NULL_METRICS.gauge("duration", 3)
        NULL_METRICS.observe("seconds", 1)
        snapshot = NULL_METRICS.snapshot()
        assert snapshot.counters == {} and snapshot.gauges == {}
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetrics)


class TestSnapshotMerge:
    def test_counters_add_and_gauges_keep_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("visits", 3, shard="0")
        b.counter("visits", 4, shard="0")
        b.counter("failures", 1)
        a.gauge("duration", 100)
        b.gauge("duration", 250)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counter_value("visits", shard="0") == 7
        assert merged.counter_value("failures") == 1
        assert merged.gauge_value("duration") == 250

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("seconds", 1)
        a.observe("seconds", 100)
        b.observe("seconds", 2)
        merged = a.snapshot().merge(b.snapshot())
        data = merged.histogram("seconds")
        assert data.count == 3
        assert data.min == 1 and data.max == 100
        assert sum(data.bucket_counts) == 3

    def test_mismatched_histogram_bounds_refuse_to_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("seconds", 1, buckets=(1, 2))
        b.observe("seconds", 1, buckets=(5, 10))
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())

    def test_merge_all_and_absorb_agree(self):
        shards = []
        for index in range(3):
            registry = MetricsRegistry()
            registry.counter("visits", index + 1)
            shards.append(registry.snapshot())
        merged = MetricsSnapshot.merge_all(shards)
        aggregator = MetricsRegistry()
        for snapshot in shards:
            aggregator.absorb(snapshot)
        assert merged.counter_value("visits") == 6
        assert aggregator.snapshot().counters == merged.counters

    def test_json_round_trip(self):
        metrics = MetricsRegistry()
        metrics.counter("visits", 5, phase="before")
        metrics.gauge("duration", 42)
        metrics.observe("seconds", 1.5)
        snapshot = metrics.snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored.counters == snapshot.counters
        assert restored.gauges == snapshot.gauges
        assert restored.histograms == snapshot.histograms

    def test_save_load(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("visits", 2)
        path = tmp_path / "metrics.json"
        metrics.snapshot().save(path)
        assert MetricsSnapshot.load(path).counter_value("visits") == 2


class TestDiffSnapshots:
    def test_equal_snapshots_have_no_divergence(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.counter("visits", 3, phase="before")
        assert diff_snapshots(a.snapshot(), b.snapshot()) == []

    def test_divergence_is_reported_per_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("visits", 3, phase="before")
        b.counter("visits", 2, phase="before")
        b.counter("probes", 1)
        divergences = diff_snapshots(a.snapshot(), b.snapshot())
        assert {d.series for d in divergences} == {
            'visits{phase="before"}',
            "probes",
        }
        rendered = render_divergences(divergences, "sequential", "sharded")
        assert "2 counter(s) diverge" in rendered

    def test_ignore_prefixes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shard_retries", 1)
        divergences = diff_snapshots(
            a.snapshot(), b.snapshot(), ignore_prefixes=("shard_",)
        )
        assert divergences == []

    def test_gauges_and_histograms_excluded(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("duration", 100)
        b.gauge("duration", 50)
        a.observe("seconds", 1)
        assert diff_snapshots(a.snapshot(), b.snapshot()) == []


class TestMetricsReport:
    def _snapshot(self) -> MetricsSnapshot:
        metrics = MetricsRegistry()
        metrics.counter("browser_visits_total", 80, outcome="ok")
        metrics.counter("browser_visits_total", 20, outcome="failed")
        metrics.counter("topics_calls_total", 50, type="javascript", decision="allowed")
        metrics.counter("crawl_failures_total", 20, kind="dns-resolution-failed")
        metrics.counter("crawl_banners_total", 30, result="accepted")
        metrics.counter("attestation_probes_total", 12, result="attested")
        for value in (1, 1, 2, 2):
            metrics.observe("visit_seconds", value, outcome="ok")
        metrics.gauge("crawl_duration_seconds", 200)
        metrics.gauge("shard_visits", 30, shard=0)
        metrics.gauge("shard_visits", 50, shard=1)
        metrics.gauge("shard_duration_seconds", 90, shard=0)
        metrics.gauge("shard_duration_seconds", 110, shard=1)
        return metrics.snapshot()

    def test_rates_and_breakdowns(self):
        report = build_metrics_report(self._snapshot())
        assert report.visits_total == 100
        assert report.visits_per_second == pytest.approx(0.5)
        assert report.calls_per_second == pytest.approx(0.25)
        assert report.failures_by_kind == {"dns-resolution-failed": 20}
        assert report.probes_by_result == {"attested": 12}
        assert report.shard_visits == {0: 30, 1: 50}

    def test_shard_skew(self):
        report = build_metrics_report(self._snapshot())
        assert report.shard_skew == pytest.approx((50 - 30) / 40)

    def test_skew_undefined_for_single_shard(self):
        metrics = MetricsRegistry()
        metrics.gauge("shard_visits", 10, shard=0)
        assert build_metrics_report(metrics.snapshot()).shard_skew is None

    def test_render_mentions_the_essentials(self):
        rendered = render_metrics_report(build_metrics_report(self._snapshot()))
        assert "visits:" in rendered
        assert "topics calls:" in rendered
        assert "shard skew:" in rendered
        assert "dns-resolution-failed" in rendered

    def test_visit_latency_quantiles(self):
        report = build_metrics_report(self._snapshot())
        assert report.visit_mean == pytest.approx(1.5)
        assert report.visit_p50 is not None
        assert report.visit_p50 <= report.visit_p95 <= report.visit_p99
        rendered = render_metrics_report(report)
        assert "visit latency:" in rendered
        assert "p95=" in rendered

    def test_latency_omitted_without_histogram(self):
        metrics = MetricsRegistry()
        metrics.gauge("crawl_duration_seconds", 10)
        report = build_metrics_report(metrics.snapshot())
        assert report.visit_mean is None
        assert "visit latency" not in render_metrics_report(report)


class TestTraceHealth:
    def test_complete_trace(self):
        from repro.analysis.obs_report import render_trace_health

        tracer = Tracer()
        tracer.emit(EventKind.VISIT_STARTED, at=0)
        assert "complete" in render_trace_health(tracer.meta())

    def test_dropped_events_warn(self):
        from repro.analysis.obs_report import render_trace_health

        tracer = Tracer(capacity=2)
        for index in range(10):
            tracer.emit(EventKind.VISIT_STARTED, at=index)
        rendered = render_trace_health(tracer.meta())
        assert rendered.startswith("WARNING")
        assert "8" in rendered and "80.0%" in rendered

    def test_legacy_trace_is_unknown(self):
        from repro.analysis.obs_report import render_trace_health

        assert "unknown" in render_trace_health(None)


def test_format_series():
    assert format_series("visits", ()) == "visits"
    assert (
        format_series("visits", (("outcome", "ok"), ("phase", "before")))
        == 'visits{outcome="ok",phase="before"}'
    )


def test_format_series_escapes_label_values():
    # Prometheus exposition format: backslash, quote and newline must be
    # escaped inside label values.
    assert (
        format_series("errors", (("msg", 'a "quoted" \\ path\nnext'),))
        == 'errors{msg="a \\"quoted\\" \\\\ path\\nnext"}'
    )


class TestExposition:
    """The Prometheus text exposition: headers, ordering, histograms."""

    @staticmethod
    def _snapshot():
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("topics_calls_total", type="js")
        registry.counter("topics_calls_total", type="header")
        registry.counter("browser_visits_total", outcome="ok")
        registry.gauge("crawl_duration_seconds", 12.5)
        registry.observe("visit_seconds", 1.5)
        registry.observe("visit_seconds", 4.0)
        return registry.snapshot()

    def test_every_family_has_help_and_type_headers(self):
        from repro.obs import render_exposition

        exposition = render_exposition(self._snapshot())
        lines = exposition.splitlines()
        families = (
            ("browser_visits_total", "counter"),
            ("topics_calls_total", "counter"),
            ("crawl_duration_seconds", "gauge"),
            ("visit_seconds", "histogram"),
        )
        for name, kind in families:
            type_line = f"# TYPE {name} {kind}"
            assert type_line in lines
            # HELP immediately precedes TYPE for every family.
            help_line = lines[lines.index(type_line) - 1]
            assert help_line.startswith(f"# HELP {name} ")

    def test_headers_precede_their_samples(self):
        from repro.obs import render_exposition

        lines = render_exposition(self._snapshot()).splitlines()
        type_index = lines.index("# TYPE topics_calls_total counter")
        samples = [
            i for i, line in enumerate(lines)
            if line.startswith("topics_calls_total{")
        ]
        assert samples and min(samples) == type_index + 1
        # Series within the family are label-sorted (deterministic).
        assert lines[samples[0]].startswith('topics_calls_total{type="header"}')

    def test_histogram_expands_cumulative_buckets(self):
        from repro.obs import render_exposition

        exposition = render_exposition(self._snapshot())
        assert 'visit_seconds_bucket{le="2"} 1' in exposition
        assert 'visit_seconds_bucket{le="5"} 2' in exposition
        assert 'visit_seconds_bucket{le="+Inf"} 2' in exposition
        assert "visit_seconds_sum 5.5" in exposition
        assert "visit_seconds_count 2" in exposition

    def test_deterministic_and_newline_terminated(self):
        from repro.obs import render_exposition

        first = render_exposition(self._snapshot())
        assert first == render_exposition(self._snapshot())
        assert first.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        from repro.obs import MetricsRegistry, render_exposition

        assert render_exposition(MetricsRegistry().snapshot()) == ""


class TestCrawlTelemetryBytes:
    """The trace, metrics and span files of a seeded crawl are pinned.

    Their bytes are a deterministic function of the world and the
    visit protocol; a change here is a telemetry format change and must
    be declared as one.  The digests were recorded from
    ``python -m repro crawl --sites 200 --seed 1`` with all three
    outputs on.
    """

    DIGESTS = {
        "trace.jsonl": (
            "1111b150e2c1f7071be4a64044910941b7c376d5760725ab1b42c9eb8bac441b"
        ),
        "metrics.json": (
            "03bf1300261ed4b30940cc924c5c0d8de97663b4ac91bb58b458099b10436d14"
        ),
        "spans.jsonl": (
            "332c6ff8adfd7c7e6b58adaa447a248cb13e76ed7076b3e411f73f89de9a8bdc"
        ),
    }

    def test_crawl_telemetry_bytes_pinned(self, tmp_path, capsys):
        code = main(
            [
                "crawl",
                "--sites", "200",
                "--seed", "1",
                "--out", str(tmp_path / "archive"),
                "--trace-out", str(tmp_path / "trace.jsonl"),
                "--metrics-out", str(tmp_path / "metrics.json"),
                "--span-out", str(tmp_path / "spans.jsonl"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS
