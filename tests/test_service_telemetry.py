"""Tests for :mod:`repro.service.telemetry` and its wiring.

Covers the registry/tracer primitives, the scheduler and HTTP-server
instrumentation (span trees, Prometheus exposition, Chrome export), the
cluster-merged ``GET /workers`` straggler view over in-process worker
doubles, and the batch timing satellites (``duration_seconds``/``since``
in the stats block).  Every integration test uses a private
``MetricsRegistry``/``Tracer`` so suites never share counters through the
process-wide defaults.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from service_helpers import SlowWorkerServer

from repro.cli import main as cli_main, render_top
from repro.service import telemetry
from repro.service.remote import RemoteWorkerPool
from repro.service.scheduler import BatchResult, ScenarioScheduler
from repro.service.server import create_server
from repro.service.spec import SimulateSpec
from repro.service.telemetry import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    flag_stragglers,
    histogram_percentile,
    merge_histograms,
    parse_prometheus,
    render_span_tree,
    summarize_histogram,
)


def _grid(count: int):
    return [
        SimulateSpec(num_rays=2, num_robots=1, num_faulty=0, horizon=float(h))
        for h in range(10, 10 + count)
    ]


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bounds_are_fixed_increasing_and_span_us_to_minutes(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert len(set(BUCKET_BOUNDS)) == len(BUCKET_BOUNDS)
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert BUCKET_BOUNDS[-1] > 30.0

    def test_observe_and_percentile(self):
        histogram = Histogram()
        for value in [0.001] * 90 + [1.0] * 10:
            histogram.observe(value)
        assert histogram.count == 100
        # Percentiles report the matched bucket's upper bound.
        assert histogram.percentile(0.5) >= 0.001
        assert histogram.percentile(0.5) < 0.01
        assert histogram.percentile(0.99) >= 1.0

    def test_merge_adds_bucket_for_bucket(self):
        a, b = Histogram(), Histogram()
        a.observe(0.002)
        b.observe(0.002)
        b.observe(5.0)
        merged = merge_histograms([a.snapshot(), b.snapshot()])
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(5.004)
        assert sum(merged["buckets"]) == 3

    def test_merge_skips_malformed_snapshots(self):
        histogram = Histogram()
        histogram.observe(0.5)
        merged = merge_histograms(
            [None, {}, {"buckets": [1, 2]}, histogram.snapshot(), "nope"]
        )
        assert merged["count"] == 1

    def test_percentile_of_empty_is_zero(self):
        assert histogram_percentile(Histogram().snapshot(), 0.95) == 0.0
        assert histogram_percentile(None, 0.95) == 0.0

    def test_overflow_bucket_reports_at_least_top_bound(self):
        histogram = Histogram()
        histogram.observe(1e4)  # beyond the last finite bound
        assert histogram.percentile(0.99) >= BUCKET_BOUNDS[-1]

    def test_summarize_shape(self):
        summary = summarize_histogram(Histogram().snapshot())
        assert set(summary) == {"count", "p50_seconds", "p95_seconds", "p99_seconds"}


class TestStragglerRule:
    def test_slow_entry_flagged_fast_entry_not(self):
        entries = [
            {"count": 50, "p95_seconds": 0.002},
            {"count": 5, "p95_seconds": 1.0},
        ]
        flag_stragglers(entries, cluster_p50=0.002)
        assert entries[0]["straggler"] is False
        assert entries[1]["straggler"] is True

    def test_idle_worker_never_flagged(self):
        entries = [{"count": 0, "p95_seconds": 99.0}]
        flag_stragglers(entries, cluster_p50=0.001)
        assert entries[0]["straggler"] is False

    def test_microsecond_jitter_below_floor_not_flagged(self):
        entries = [{"count": 10, "p95_seconds": 5e-4}]
        flag_stragglers(entries, cluster_p50=1e-6)
        assert entries[0]["straggler"] is False


class TestRegistry:
    def test_series_shared_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"tier": "memory"}).inc()
        registry.counter("hits", {"tier": "memory"}).inc()
        registry.counter("hits", {"tier": "disk"}).inc()
        snapshot = registry.snapshot()
        values = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in snapshot["counters"]
        }
        assert values[(("tier", "memory"),)] == 2
        assert values[(("tier", "disk"),)] == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_find_histogram_merges_label_series(self):
        registry = MetricsRegistry()
        registry.histogram("lat", {"w": "a"}).observe(0.1)
        registry.histogram("lat", {"w": "b"}).observe(0.2)
        assert registry.find_histogram("lat")["count"] == 2

    def test_prometheus_exposition_is_strictly_parseable(self):
        registry = MetricsRegistry()
        registry.counter("repro_batches_total", help="Batches.").inc(3)
        registry.gauge("repro_jobs_running").add(2)
        histogram = registry.histogram("repro_batch_seconds", {"q": 'a"b\\c'})
        histogram.observe(0.004)
        histogram.observe(2.0)
        text = registry.render_prometheus()
        values = parse_prometheus(text)
        assert values["repro_batches_total"] == 3
        assert values["repro_jobs_running"] == 2
        assert values['repro_batch_seconds_count{q="a\\"b\\\\c"}'] == 2
        assert values["repro_telemetry_since_seconds"] == pytest.approx(
            registry.since
        )
        # Cumulative le buckets: the +Inf bucket equals the count.
        inf_series = [
            (series, value)
            for series, value in values.items()
            if series.startswith("repro_batch_seconds_bucket")
            and 'le="+Inf"' in series
        ]
        assert inf_series and inf_series[0][1] == 2
        assert "# TYPE repro_batch_seconds histogram" in text
        assert "# HELP repro_batches_total Batches." in text

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not a metric line")
        with pytest.raises(ValueError):
            parse_prometheus("metric_name not_a_number")
        with pytest.raises(ValueError):
            parse_prometheus('bad{unterminated="yes" 1.0')

    def test_kill_switch_drops_writes(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        telemetry.set_enabled(False)
        try:
            registry.counter("c").inc()
            registry.gauge("g").set(5)
            registry.histogram("h").observe(1.0)
            span = tracer.span("op")
            with span:
                span.set_attr("k", "v")
        finally:
            telemetry.set_enabled(True)
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value == 0
        assert registry.histogram("h").count == 0
        assert tracer.trace_ids() == []
        # Re-enabled: the same instruments record again.
        registry.counter("c").inc()
        assert registry.counter("c").value == 1


# ----------------------------------------------------------------------
# Tracer correctness
# ----------------------------------------------------------------------
class TestTracer:
    def test_implicit_nesting_within_thread(self):
        tracer = Tracer()
        with tracer.span("outer", trace_id="t") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.trace_id == "t"
        assert inner.parent_id == outer.span_id
        tree = tracer.span_tree("t")
        assert [root["name"] for root in tree["roots"]] == ["outer"]
        assert [child["name"] for child in tree["roots"][0]["children"]] == ["inner"]

    def test_explicit_parent_across_threads(self):
        tracer = Tracer()
        with tracer.span("batch", trace_id="t") as batch_span:
            def worker():
                with tracer.span("shard", parent=batch_span):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        tree = tracer.span_tree("t")
        (root,) = tree["roots"]
        assert [child["name"] for child in root["children"]] == ["shard"]

    def test_record_span_retroactive(self):
        tracer = Tracer()
        with tracer.span("batch", trace_id="t") as batch_span:
            start = time.monotonic()
            tracer.record_span(
                "shard", "t", start, 0.25, parent=batch_span, attrs={"shard": 0}
            )
        tree = tracer.span_tree("t")
        child = tree["roots"][0]["children"][0]
        assert child["duration_seconds"] == 0.25
        assert child["attrs"]["shard"] == 0

    def test_durations_and_relative_starts_non_negative(self):
        tracer = Tracer()
        with tracer.span("a", trace_id="t"):
            with tracer.span("b"):
                time.sleep(0.01)
        tree = tracer.span_tree("t")

        def walk(node):
            assert node["start_seconds"] >= 0.0
            assert node["duration_seconds"] >= 0.0
            for child in node["children"]:
                # A child never starts before its parent.
                assert child["start_seconds"] >= node["start_seconds"]
                walk(child)

        for root in tree["roots"]:
            walk(root)

    def test_exception_recorded_as_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", trace_id="t"):
                raise RuntimeError("kaput")
        (span,) = tracer.get_trace("t")
        assert span["attrs"]["error"] == "kaput"

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_spans_per_trace=3)
        for index in range(5):
            tracer.record_span(f"s{index}", "t", 0.0, 0.0)
        tree = tracer.span_tree("t")
        assert tree["num_spans"] == 3
        assert tree["dropped_spans"] == 2

    def test_trace_ring_evicts_oldest(self):
        tracer = Tracer(max_traces=2)
        for name in ("t1", "t2", "t3"):
            tracer.record_span("s", name, 0.0, 0.0)
        assert tracer.trace_ids() == ["t2", "t3"]
        assert tracer.span_tree("t1") is None

    def test_unknown_trace_is_none(self):
        tracer = Tracer()
        assert tracer.span_tree("nope") is None
        assert tracer.chrome_trace("nope") is None

    def test_chrome_trace_schema(self):
        tracer = Tracer()
        with tracer.span("batch", trace_id="t", attrs={"n": 2}):
            with tracer.span("shard"):
                time.sleep(0.002)
        payload = tracer.chrome_trace("t")
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["trace_id"] == "t"
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        meta = [event for event in events if event["ph"] == "M"]
        assert {event["name"] for event in complete} == {"batch", "shard"}
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
        assert meta and all(event["name"] == "thread_name" for event in meta)
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_exporter_output_pinned(self):
        # Four retroactive spans on two threads, starts out of order: the
        # exact records, tree and Chrome events the readers build.
        tracer = Tracer()
        tracer.record_span("batch", "t", 10.0, 0.5, attrs={"num_scenarios": 2})
        batch = Span(tracer, "batch", "t", "1", None, None)  # the span just recorded
        tracer.record_span("shard", "t", 10.25, 0.125, parent=batch, attrs={"shard": 1})
        tracer.record_span("shard", "t", 10.125, 0.0625, parent=batch, attrs={"shard": 0})
        thread = threading.Thread(
            target=tracer.record_span,
            args=("remote", "t", 10.375, 0.125),
            kwargs={"parent": batch},
            name="repro-dispatch-0",
        )
        thread.start()
        thread.join()

        def record(name, span_id, parent_id, start, duration, thread, attrs):
            return {
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "start": start,
                "duration_seconds": duration,
                "thread": thread,
                "attrs": attrs,
            }

        records = tracer.get_trace("t")
        assert records == [
            record("batch", "1", None, 10.0, 0.5, "MainThread", {"num_scenarios": 2}),
            record("shard", "2", "1", 10.25, 0.125, "MainThread", {"shard": 1}),
            record("shard", "3", "1", 10.125, 0.0625, "MainThread", {"shard": 0}),
            record("remote", "4", "1", 10.375, 0.125, "repro-dispatch-0", {}),
        ]
        fields = ["name", "span_id", "parent_id", "start", "duration_seconds", "thread", "attrs"]
        assert [list(span) for span in records] == [fields] * 4
        # get_trace hands out copies: mutating one changes no later read.
        records[0]["attrs"]["num_scenarios"] = 99
        assert tracer.get_trace("t")[0]["attrs"] == {"num_scenarios": 2}

        def node(span, start, children=()):
            return {
                "name": span["name"],
                "span_id": span["span_id"],
                "parent_id": span["parent_id"],
                "start_seconds": start,
                "duration_seconds": span["duration_seconds"],
                "thread": span["thread"],
                "attrs": span["attrs"],
                "children": list(children),
            }

        batch_rec, shard1, shard0, remote = tracer.get_trace("t")
        assert tracer.span_tree("t") == {
            "trace_id": "t",
            "num_spans": 4,
            "dropped_spans": 0,
            "roots": [
                node(
                    batch_rec,
                    0.0,
                    [node(shard0, 0.125), node(shard1, 0.25), node(remote, 0.375)],
                )
            ],
        }

        def event(span, ts, tid):
            return {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": ts,
                "dur": span["duration_seconds"] * 1e6,
                "pid": 1,
                "tid": tid,
                "args": dict(span["attrs"], span_id=span["span_id"]),
            }

        def lane(name, tid):
            return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                    "args": {"name": name}}

        assert tracer.chrome_trace("t") == {
            "traceEvents": [
                lane("MainThread", 1),
                event(batch_rec, 0.0, 1),
                event(shard1, 250000.0, 1),
                event(shard0, 125000.0, 1),
                lane("repro-dispatch-0", 2),
                event(remote, 375000.0, 2),
            ],
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": "t"},
        }

    def test_render_span_tree_text(self):
        tracer = Tracer()
        with tracer.span("batch", trace_id="t", attrs={"num_scenarios": 4}):
            pass
        text = render_span_tree(tracer.span_tree("t"))
        assert "trace t — 1 spans" in text
        assert "batch" in text
        assert "num_scenarios=4" in text


# ----------------------------------------------------------------------
# Scheduler integration
# ----------------------------------------------------------------------
class TestSchedulerTelemetry:
    def test_batch_trace_has_one_shard_span_per_shard(self):
        metrics, tracer = MetricsRegistry(), Tracer()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=tracer)
        batch = scheduler.run_batch(_grid(16), max_workers=1, shard_size=2)
        assert batch.trace_id
        tree = tracer.span_tree(batch.trace_id)
        (root,) = tree["roots"]
        assert root["name"] == "batch"
        phases = [child["name"] for child in root["children"]]
        for name in ("dedup", "cache_consult", "shard_build"):
            assert name in phases
        shard_spans = [
            child for child in root["children"] if child["name"] == "shard"
        ]
        assert len(shard_spans) == batch.num_shards == 8
        for span in shard_spans:
            assert span["duration_seconds"] >= 0.0
            assert span["attrs"]["executor"] in (
                "local-serial",
                "local-pool",
                "remote",
            )
            assert span["attrs"]["num_specs"] == 2

    def test_small_batch_skips_phase_spans(self):
        # Worker-side shard evaluations arrive as small batches; they get
        # batch + shard spans but not the three ~0-duration phase spans.
        metrics, tracer = MetricsRegistry(), Tracer()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=tracer)
        batch = scheduler.run_batch(_grid(4), max_workers=1)
        tree = tracer.span_tree(batch.trace_id)
        (root,) = tree["roots"]
        names = {child["name"] for child in root["children"]}
        assert "shard" in names
        assert names.isdisjoint({"dedup", "cache_consult", "shard_build"})

    def test_batch_metrics_and_timing_fields(self):
        metrics, tracer = MetricsRegistry(), Tracer()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=tracer)
        wall_start = time.time()
        batch = scheduler.run_batch(_grid(6) + _grid(6), max_workers=1)
        assert batch.duration_seconds > 0.0
        assert wall_start - 1.0 <= batch.since <= time.time()
        assert metrics.counter("repro_batches_total").value == 1
        assert metrics.find_histogram("repro_batch_seconds")["count"] == 1
        assert metrics.find_histogram("repro_shard_seconds")["count"] == batch.num_shards
        outcome = {
            tuple(entry["labels"].items()): entry["value"]
            for entry in metrics.snapshot()["counters"]
            if entry["name"] == "repro_scenarios_total"
        }
        assert outcome[(("outcome", "deduped"),)] == 6
        assert outcome[(("outcome", "evaluated"),)] == 6
        # Second identical batch resolves from the cache.
        again = scheduler.run_batch(_grid(6), max_workers=1)
        assert again.cache_hits == 6
        assert again.trace_id != batch.trace_id

    def test_stats_round_trip_with_timing_fields(self):
        metrics, tracer = MetricsRegistry(), Tracer()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=tracer)
        batch = scheduler.run_batch(_grid(3), max_workers=1)
        restored = BatchResult.from_stats(batch.to_dict())
        assert restored.duration_seconds == batch.duration_seconds
        assert restored.since == batch.since
        assert restored.trace_id == batch.trace_id
        # Malformed blocks still fall back to the zero values.
        sloppy = BatchResult.from_stats(
            {"duration_seconds": "fast", "since": None, "trace_id": 7}
        )
        assert sloppy.duration_seconds == 0.0
        assert sloppy.since == 0.0
        assert sloppy.trace_id == ""

    def test_job_traced_under_job_id_and_gauge_settles(self):
        metrics, tracer = MetricsRegistry(), Tracer()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=tracer)
        job = scheduler.submit_job(_grid(4), max_workers=1, shard_size=2)
        assert job.wait(timeout=120)
        batch = job.result()
        assert batch.trace_id == job.job_id
        tree = tracer.span_tree(job.job_id)
        shard_spans = [
            child for child in tree["roots"][0]["children"]
            if child["name"] == "shard"
        ]
        assert len(shard_spans) == batch.num_shards
        assert metrics.gauge("repro_jobs_running").value == 0
        assert metrics.gauge("repro_shard_queue_depth").value == 0

    def test_disabled_telemetry_changes_nothing_numeric(self):
        specs = _grid(5)
        baseline = ScenarioScheduler(
            metrics=MetricsRegistry(), tracer=Tracer()
        ).run_batch(specs, max_workers=1)
        metrics, tracer = MetricsRegistry(), Tracer()
        telemetry.set_enabled(False)
        try:
            silent = ScenarioScheduler(metrics=metrics, tracer=tracer).run_batch(
                specs, max_workers=1
            )
        finally:
            telemetry.set_enabled(True)
        assert list(silent.results) == list(baseline.results)  # bit-identical
        assert tracer.trace_ids() == []
        assert metrics.counter("repro_batches_total").value == 0


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
def _get_json(url: str):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_text(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read().decode("utf-8"),
        )


def _post_json(url: str, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def telemetry_server():
    metrics, tracer = MetricsRegistry(), Tracer()
    server = create_server(host="127.0.0.1", port=0, metrics=metrics, tracer=tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url, metrics, tracer
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServerTelemetryEndpoints:
    @pytest.fixture(scope="class")
    def batch_stats(self, telemetry_server):
        url, _metrics, _tracer = telemetry_server
        status, body = _post_json(
            url + "/batch",
            {
                "scenarios": [spec.to_dict() for spec in _grid(6)],
                "max_workers": 1,
                "shard_size": 2,
            },
        )
        assert status == 200
        return body["stats"]

    def test_batch_stats_carry_timing_and_trace_id(self, batch_stats):
        assert batch_stats["duration_seconds"] > 0.0
        assert batch_stats["since"] > 0.0
        assert batch_stats["trace_id"]

    def test_metrics_text_parses_and_counts_batches(
        self, telemetry_server, batch_stats
    ):
        url, _metrics, _tracer = telemetry_server
        status, content_type, text = _get_text(url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        values = parse_prometheus(text)
        assert values["repro_batches_total"] >= 1
        assert values["repro_worker_batch_seconds_count"] >= 1
        assert any(
            series.startswith("repro_http_requests_total") for series in values
        )

    def test_metrics_json_shape(self, telemetry_server, batch_stats):
        url, _metrics, _tracer = telemetry_server
        status, body = _get_json(url + "/metrics.json")
        assert status == 200
        assert body["since"] > 0
        names = {entry["name"] for entry in body["histograms"]}
        assert "repro_worker_batch_seconds" in names
        assert "repro_batch_seconds" in names

    def test_trace_endpoint_serves_span_tree(self, telemetry_server, batch_stats):
        url, _metrics, _tracer = telemetry_server
        status, tree = _get_json(url + "/trace/" + batch_stats["trace_id"])
        assert status == 200
        (root,) = tree["roots"]
        assert root["name"] == "batch"
        shard_spans = [c for c in root["children"] if c["name"] == "shard"]
        assert len(shard_spans) == batch_stats["num_shards"]

    def test_trace_chrome_export(self, telemetry_server, batch_stats):
        url, _metrics, _tracer = telemetry_server
        status, payload = _get_json(
            url + "/trace/" + batch_stats["trace_id"] + "/chrome"
        )
        assert status == 200
        assert payload["displayTimeUnit"] == "ms"
        names = {
            event["name"] for event in payload["traceEvents"] if event["ph"] == "X"
        }
        assert {"batch", "shard"} <= names

    def test_trace_listing_and_unknown_404(self, telemetry_server, batch_stats):
        url, _metrics, _tracer = telemetry_server
        status, listing = _get_json(url + "/trace")
        assert status == 200
        assert batch_stats["trace_id"] in listing["traces"]
        status, body = _get_json(url + "/trace/deadbeef")
        assert status == 404
        assert "deadbeef" in body["error"]

    def test_cache_stats_report_since(self, telemetry_server):
        url, _metrics, _tracer = telemetry_server
        status, body = _get_json(url + "/cache/stats")
        assert status == 200
        assert body["since"] > 0

    def test_http_request_labels_are_bounded(self, telemetry_server, batch_stats):
        url, metrics, _tracer = telemetry_server
        _get_json(url + "/jobs/nope")
        _get_json(url + "/definitely/not/a/path")
        paths = {
            entry["labels"]["path"]
            for entry in metrics.snapshot()["counters"]
            if entry["name"] == "repro_http_requests_total"
        }
        assert "/jobs/:id" in paths
        assert "/:other" in paths
        assert not any(path.startswith("/definitely") for path in paths)


# ----------------------------------------------------------------------
# Cluster view: straggler detection over in-process worker doubles
# ----------------------------------------------------------------------
class TestClusterStragglerView:
    @pytest.fixture()
    def doubles(self):
        fast = SlowWorkerServer(delay=0.0)
        slow = SlowWorkerServer(delay=1.0)
        threads = []
        for server in (fast, slow):
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            threads.append(thread)
        try:
            yield fast, slow
        finally:
            for server, thread in zip((fast, slow), threads):
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_slow_worker_flagged_and_histograms_merge(self, doubles):
        fast, slow = doubles
        metrics, tracer = MetricsRegistry(), Tracer()
        pool = RemoteWorkerPool([fast.url, slow.url])
        server = create_server(
            host="127.0.0.1",
            port=0,
            scheduler=ScenarioScheduler(
                workers=pool, metrics=metrics, tracer=tracer
            ),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            batch = server.scheduler.run_batch(
                _grid(10), max_workers=1, shard_size=1
            )
            assert batch.remote_evaluated > 0
            status, body = _get_json(server.url + "/workers")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        assert status == 200
        by_url = {entry["url"]: entry for entry in body["workers"]}
        # The pull loop hands the slow worker at least its first shard.
        assert by_url[slow.url]["count"] >= 1
        assert by_url[slow.url]["straggler"] is True
        assert by_url[slow.url]["p95_seconds"] > by_url[fast.url]["p95_seconds"]
        assert by_url[fast.url]["straggler"] is False

        client = body["shard_latency"]["client"]
        assert client["count"] == by_url[fast.url]["count"] + by_url[slow.url]["count"]
        # Worker-reported view: merged from the doubles' own /metrics.json.
        reported = body["shard_latency"]["worker_reported"]
        assert reported["workers_reporting"] == 2
        assert reported["count"] == fast.batches_served + slow.batches_served
        assert reported["p95_seconds"] >= 1.0


# ----------------------------------------------------------------------
# repro top / repro trace
# ----------------------------------------------------------------------
class TestCliTelemetry:
    def test_render_top_pure(self):
        registry = MetricsRegistry()
        registry.counter("repro_batches_total").inc(2)
        registry.gauge("repro_jobs_running").add(1)
        registry.histogram("repro_batch_seconds").observe(0.5)
        workers = {
            "num_workers": 2,
            "num_live": 1,
            "queue_depth": 3,
            "failovers": 1,
            "workers": [
                {
                    "url": "http://w1",
                    "alive": True,
                    "shards_completed": 9,
                    "p50_seconds": 0.01,
                    "p95_seconds": 0.02,
                    "straggler": False,
                },
                {
                    "url": "http://w2",
                    "alive": False,
                    "shards_completed": 1,
                    "p50_seconds": 1.0,
                    "p95_seconds": 2.0,
                    "straggler": True,
                },
            ],
        }
        frame = render_top(registry.snapshot(), workers)
        assert "repro top" in frame
        assert "repro_batches_total" in frame
        assert "repro_batch_seconds" in frame
        assert "STRAGGLER" in frame
        assert "DOWN" in frame
        assert "1/2 live" in frame

    def test_top_once_and_trace_against_live_server(self, tmp_path, capsys):
        metrics, tracer = MetricsRegistry(), Tracer()
        server = create_server(
            host="127.0.0.1", port=0, metrics=metrics, tracer=tracer
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _status, body = _post_json(
                server.url + "/batch",
                {"scenarios": [spec.to_dict() for spec in _grid(4)],
                 "max_workers": 1, "shard_size": 2},
            )
            trace_id = body["stats"]["trace_id"]

            assert cli_main(["top", "--url", server.url, "--once"]) == 0
            frame = capsys.readouterr().out
            assert "repro top" in frame
            assert "repro_batches_total" in frame

            assert cli_main(["trace", trace_id, "--url", server.url]) == 0
            text = capsys.readouterr().out
            assert "batch" in text and "shard" in text

            chrome_path = tmp_path / "trace.json"
            assert (
                cli_main(
                    ["trace", trace_id, "--url", server.url,
                     "--chrome", str(chrome_path)]
                )
                == 0
            )
            capsys.readouterr()
            payload = json.loads(chrome_path.read_text())
            assert payload["displayTimeUnit"] == "ms"
            assert any(
                event["ph"] == "X" for event in payload["traceEvents"]
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_trace_unknown_id_exits_2(self, capsys):
        metrics, tracer = MetricsRegistry(), Tracer()
        server = create_server(
            host="127.0.0.1", port=0, metrics=metrics, tracer=tracer
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert cli_main(["trace", "nope", "--url", server.url]) == 2
            assert "nope" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
