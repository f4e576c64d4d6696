"""Binary wire format, content negotiation and keep-alive protocol fixes.

Three layers:

* the frame codec itself (:mod:`repro.service.wire`) — exact round-trips,
  float bit-identity, column packing, compression, every malformed-input
  error path;
* negotiation — a real ``repro serve`` advertises the frame format and
  answers frames with frames, JSON with JSON; the coordinator's worker
  client speaks JSON to advertising and non-advertising workers alike,
  and a pooled batch stays bit-identical to serial evaluation, goldens
  included;
* the HTTP/1.1 keep-alive bugfixes the persistent connections exposed —
  error responses drain the request body so the next pipelined request
  stays in sync, and unhandled handler exceptions produce a structured
  500 with ``Connection: close`` instead of stranding the client.
"""

from __future__ import annotations

import http.client
import json
import math
import struct
import threading

import pytest

from service_helpers import AdvertisingWorkerServer, DroppingWorkerServer

from repro.service import wire
from repro.service.remote import RemoteWorker, RemoteWorkerPool
from repro.service.scheduler import ScenarioScheduler
from repro.service.server import MAX_BODY_BYTES, create_server
from repro.service.spec import MonteCarloRandomizedSpec, SimulateSpec
from repro.service.telemetry import MetricsRegistry, Tracer
from repro.service.wire import (
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    WireError,
    decode_frame,
    encode_frame,
)

GOLDEN_SIMULATE = SimulateSpec(num_rays=2, num_robots=1, num_faulty=0, horizon=200.0)
GOLDEN_RANDOMIZED = MonteCarloRandomizedSpec(
    num_rays=2, num_samples=4000, seed=7, horizon=1000.0
)


def _grid():
    """>= 200 scenarios, 50% duplicates, with both golden scenarios inside."""
    unique = [
        SimulateSpec(num_rays=m, num_robots=k, num_faulty=f, horizon=float(horizon))
        for m, k, f in [(2, 1, 0), (2, 3, 1)]
        for horizon in range(10, 60)
    ]
    unique += [GOLDEN_SIMULATE, GOLDEN_RANDOMIZED]
    return unique + list(reversed(unique))


# ----------------------------------------------------------------------
class TestFrameCodec:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            2**70,
            -(2**70),
            1.5,
            -0.0,
            1e308,
            5e-324,
            "",
            "héllo ∞",
            [],
            {},
            [1, 2.0, "x", None, True, [{"a": []}]],
            {"a": 1, "b": [0.1, 0.2], "inf": "inf", "nan": "nan"},
            {"quantiles": [0.1 * i for i in range(64)]},
        ],
    )
    def test_round_trip_equals_json_round_trip(self, payload):
        decoded = decode_frame(encode_frame(payload))
        assert decoded == payload
        # The frame path must agree byte-for-byte with what the JSON wire
        # would have delivered for the same tree.
        assert json.dumps(decoded, sort_keys=True, allow_nan=False) == json.dumps(
            payload, sort_keys=True, allow_nan=False
        )

    def test_floats_are_bit_identical(self):
        values = [0.1 + 0.2, 1.0 / 3.0, math.pi, 4.5911234, -0.0, 2.0**-1074]
        decoded = decode_frame(encode_frame(values + [0.5] * 4))
        for original, roundtripped in zip(values, decoded):
            assert struct.pack("!d", roundtripped) == struct.pack("!d", original)
        assert math.copysign(1.0, decode_frame(encode_frame(-0.0))) == -1.0

    def test_types_survive_where_json_text_would_too(self):
        # ints stay ints, floats stay floats, bools stay bools — the same
        # distinctions JSON text preserves.
        decoded = decode_frame(encode_frame([1, 1.0, True, False]))
        assert [type(item) for item in decoded] == [int, float, bool, bool]

    def test_float_column_packs_and_round_trips(self):
        # A homogeneous float list >= COLUMN_MIN_LENGTH packs as one <f8
        # block: tag + varint + 8n bytes, far below per-element tagging.
        column = [0.123456789 * i for i in range(100)]
        frame = encode_frame(column, compress_threshold=None)
        assert len(frame) < 8 + 1 + 2 + 8 * 100 + 16
        assert decode_frame(frame) == column
        # Heterogeneous and short lists take the generic path but still
        # round-trip exactly.
        assert decode_frame(encode_frame([0.1, 0.2, 0.3])) == [0.1, 0.2, 0.3]
        mixed = [0.1, 0.2, 0.3, 0.4, 1]
        assert decode_frame(encode_frame(mixed)) == mixed

    def test_column_struct_fallback_matches_numpy(self, monkeypatch):
        column = [1.5 * i for i in range(32)]
        with_numpy = encode_frame(column)
        monkeypatch.setattr(wire, "_np", None)
        without_numpy = encode_frame(column)
        assert with_numpy == without_numpy
        assert decode_frame(with_numpy) == column  # decoded via struct too

    def test_compression_above_threshold_round_trips(self):
        payload = {"rows": [[float(i % 7)] * 64 for i in range(200)]}
        frame = encode_frame(payload)
        assert frame[3] & 0x01  # zlib flag set
        assert len(frame) < len(json.dumps(payload).encode())
        assert decode_frame(frame) == payload
        # Below the threshold the flag stays clear.
        small = encode_frame({"a": 1.0})
        assert not small[3] & 0x01

    def test_incompressible_payload_stays_raw(self):
        import hashlib

        # zlib would *grow* a column of incompressible doubles; the encoder
        # must keep the raw payload rather than flag a bigger "compressed"
        # one.  SHA-256 output is deterministic pseudo-random bytes.
        blob = b"".join(
            hashlib.sha256(bytes([i % 256, i // 256])).digest() for i in range(325)
        )
        doubles = struct.unpack(f"!{len(blob) // 8}d", blob)
        payload = [value for value in doubles if math.isfinite(value)][:1150]
        assert len(payload) == 1150  # 9200-byte column, above the threshold
        frame = encode_frame(payload)
        assert not frame[3] & 0x01
        assert decode_frame(frame) == payload

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda frame: b"",
            lambda frame: frame[:4],
            lambda frame: b"XX" + frame[2:],
            lambda frame: frame[:2] + bytes([WIRE_VERSION + 1]) + frame[3:],
            lambda frame: frame[:3] + bytes([0x80]) + frame[4:],  # unknown flag
            lambda frame: frame[:-1],  # truncated payload
            lambda frame: frame + b"\x00",  # length mismatch
        ],
    )
    def test_malformed_frames_raise_wire_error(self, mutate):
        frame = encode_frame({"a": [1.0, 2.0]})
        with pytest.raises(WireError):
            decode_frame(mutate(frame))

    def test_trailing_garbage_inside_payload_raises(self):
        frame = encode_frame(True)
        # Splice an extra payload byte in and fix up the declared length.
        header = struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0, 2)
        with pytest.raises(WireError, match="trailing garbage"):
            decode_frame(header + frame[8:] + b"\x00")

    def test_unknown_tag_and_corrupt_zlib_raise(self):
        with pytest.raises(WireError, match="unknown frame tag"):
            decode_frame(struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0, 1) + b"\xfe")
        with pytest.raises(WireError, match="compressed"):
            decode_frame(
                struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0x01, 4) + b"junk"
            )

    def test_unsupported_types_raise_wire_error(self):
        with pytest.raises(WireError, match="not frame-encodable"):
            encode_frame({"key": object()})
        with pytest.raises(WireError, match="dict keys must be str"):
            encode_frame({1: "value"})

    def test_tuples_encode_as_lists(self):
        assert decode_frame(encode_frame((1, 2, 3))) == [1, 2, 3]


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker_server():
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestNegotiation:
    def test_healthz_advertises_wire(self, worker_server):
        host, port = worker_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("GET", "/healthz")
            advert = json.loads(connection.getresponse().read())["wire"]
        finally:
            connection.close()
        assert advert == {"version": WIRE_VERSION, "content_type": WIRE_CONTENT_TYPE}

    def test_worker_client_speaks_json_to_an_advertising_worker(self):
        # The advert is for clients that opt into frames; the coordinator's
        # worker client always sends JSON, whatever the worker offers.
        double = AdvertisingWorkerServer()
        thread = threading.Thread(target=double.serve_forever, daemon=True)
        thread.start()
        try:
            worker = RemoteWorker(double.url)
            assert worker.check_health()
            results = worker.evaluate_shard([GOLDEN_SIMULATE.to_dict()])
            assert results[0]["theoretical"] == 9.0
            assert double.request_headers
            for headers in double.request_headers:
                assert headers["Content-Type"] == "application/json"
                assert WIRE_CONTENT_TYPE not in headers.get("Accept", "")
        finally:
            double.shutdown()
            double.server_close()
            thread.join(timeout=10)

    def test_non_advertising_worker_silently_stays_on_json(self):
        # An old worker (no "wire" in /healthz) must keep working over
        # JSON with no error; the double parses every body as JSON.
        double = DroppingWorkerServer()
        thread = threading.Thread(target=double.serve_forever, daemon=True)
        thread.start()
        try:
            worker = RemoteWorker(double.url)
            assert worker.check_health()
            results = worker.evaluate_shard([GOLDEN_SIMULATE.to_dict()])
            assert results[0]["theoretical"] == 9.0
            assert double.batches_served == 1
        finally:
            double.shutdown()
            double.server_close()
            thread.join(timeout=10)

    def test_pool_batch_bit_identical_to_serial(self, worker_server):
        scenarios = _grid()
        assert len(scenarios) >= 200
        serial = ScenarioScheduler().run_batch(scenarios, max_workers=1)

        pool = RemoteWorkerPool([worker_server.url])
        pooled = ScenarioScheduler(workers=pool).run_batch(
            scenarios, max_workers=1, shard_size=8
        )
        assert pooled.remote_evaluated > 0
        assert list(pooled.results) == list(serial.results)  # bit-identical
        # Shards travelled over pooled keep-alive connections.
        assert pool.workers[0].connection_stats()["reuses"] > 0

        # The goldens rode along: line ratio exactly 9, randomized 4.5911.
        golden = next(
            payload
            for payload in pooled.results
            if payload["kind"] == "simulate" and payload["spec"]["horizon"] == 200.0
        )
        assert golden["theoretical"] == 9.0
        randomized = next(
            payload
            for payload in pooled.results
            if payload["kind"] == "montecarlo_randomized"
        )
        assert randomized["closed_form"] == pytest.approx(4.5911, abs=5e-5)

        pool.close()

    def test_frame_request_gets_frame_response(self, worker_server):
        host, port = worker_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            body = encode_frame({"scenarios": [GOLDEN_SIMULATE.to_dict()]})
            connection.request(
                "POST",
                "/batch",
                body=body,
                headers={"Content-Type": WIRE_CONTENT_TYPE},
            )
            response = connection.getresponse()
            raw = response.read()
            assert response.status == 200
            assert response.getheader("Content-Type") == WIRE_CONTENT_TYPE
            payload = decode_frame(raw)
            assert payload["results"][0]["theoretical"] == 9.0

            # Same request as JSON gets JSON back — and the exact same tree.
            connection.request(
                "POST",
                "/batch",
                body=json.dumps({"scenarios": [GOLDEN_SIMULATE.to_dict()]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            json_payload = json.loads(response.read())
            assert response.getheader("Content-Type") == "application/json"
            assert json_payload["results"] == payload["results"]
        finally:
            connection.close()


# ----------------------------------------------------------------------
class TestKeepAliveProtocol:
    """The satellite bugfixes, exercised over raw persistent connections."""

    def _connect(self, server):
        host, port = server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=60)

    def test_error_response_drains_body_and_keeps_connection(self, worker_server):
        # A 400 must leave the socket usable: the follow-up request on the
        # SAME connection would desync (or hang) if the unread body bytes
        # were left behind.
        connection = self._connect(worker_server)
        try:
            connection.request(
                "POST",
                "/batch",
                body=b'{"scenarios": [}' + b"x" * 4096,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON body" in body["error"]
            assert response.getheader("Connection") != "close"

            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_get_with_request_body_stays_in_sync(self, worker_server):
        # GET handlers never read a body; without the drain the body bytes
        # would be parsed as the next request line.
        connection = self._connect(worker_server)
        try:
            connection.request("GET", "/healthz", body=b'{"stray": "body"}')
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

            connection.request("GET", "/cache/stats")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        finally:
            connection.close()

    def test_oversize_body_closes_connection(self, worker_server):
        # A body too large to drain: the 400 must carry Connection: close
        # instead of reading 32 MiB (the body is never sent here — the
        # server must answer from the headers alone).
        connection = self._connect(worker_server)
        try:
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "exceeds" in body["error"]
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()

    def test_malformed_frame_body_structured_400_keeps_connection(
        self, worker_server
    ):
        connection = self._connect(worker_server)
        try:
            bad = struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0, 1) + b"\xfe"
            connection.request(
                "POST",
                "/batch",
                body=bad,
                headers={"Content-Type": WIRE_CONTENT_TYPE},
            )
            response = connection.getresponse()
            raw = response.read()
            assert response.status == 400
            # The error itself is negotiated: frame in, frame out.
            assert response.getheader("Content-Type") == WIRE_CONTENT_TYPE
            assert "invalid frame body" in decode_frame(raw)["error"]

            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        finally:
            connection.close()


class TestUnhandledExceptionHandling:
    """Satellite 2: no handler may strand a keep-alive client."""

    @pytest.fixture()
    def broken_server(self):
        server = create_server(
            host="127.0.0.1", port=0, metrics=MetricsRegistry(), tracer=Tracer()
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def _error_count(self, server):
        snapshot = server.scheduler.metrics.snapshot()
        return sum(
            entry["value"]
            for entry in snapshot.get("counters", [])
            if entry["name"] == "repro_http_errors_total"
        )

    def test_unhandled_get_exception_returns_structured_500(self, broken_server):
        def explode():
            raise RuntimeError("stats backend exploded")

        broken_server.scheduler.cache.stats = explode
        host, port = broken_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request("GET", "/cache/stats")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert "internal error" in body["error"]
            assert "exploded" in body["error"]
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()
        assert self._error_count(broken_server) == 1

    def test_unhandled_post_exception_returns_structured_500(self, broken_server):
        def explode(spec):
            raise RuntimeError("evaluator exploded")

        broken_server.scheduler.evaluate = explode
        host, port = broken_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST",
                "/evaluate",
                body=json.dumps(GOLDEN_SIMULATE.to_dict()).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert "internal error" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert self._error_count(broken_server) == 1

    def test_healthy_request_does_not_count_errors(self, broken_server):
        worker = RemoteWorker(broken_server.url)
        assert worker.check_health()
        assert self._error_count(broken_server) == 0


# ----------------------------------------------------------------------
class TestTopIntervalValidation:
    """Satellite 3: `repro top --interval` rejects sub-clamp values."""

    @pytest.mark.parametrize("value", ["0.05", "0", "-1", "nan", "abc"])
    def test_rejects_invalid_intervals(self, value, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["top", "--interval", value])
        assert excinfo.value.code == 2
        assert "interval" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.1", "2", "30.5"])
    def test_accepts_valid_intervals(self, value):
        from repro.cli import build_parser

        args = build_parser().parse_args(["top", "--interval", value])
        assert args.interval == float(value)

    def test_throughput_line_guarded_against_zero_elapsed(self):
        from repro.cli import render_top

        def snapshot(total):
            return {
                "since": 0,
                "counters": [
                    {
                        "name": "repro_scenarios_total",
                        "labels": {"outcome": "computed"},
                        "value": total,
                    }
                ],
                "gauges": [],
                "histograms": [],
            }

        # A normal refresh shows the rate...
        frame = render_top(snapshot(100), previous=snapshot(40), elapsed=2.0)
        assert "30.0 scenarios/s" in frame
        # ... a zero-elapsed refresh must not divide by zero ...
        frame = render_top(snapshot(100), previous=snapshot(40), elapsed=0.0)
        assert "scenarios/s" not in frame
        # ... and a counter that moved backwards (server restart) is
        # omitted rather than shown as a negative rate.
        frame = render_top(snapshot(10), previous=snapshot(40), elapsed=2.0)
        assert "scenarios/s" not in frame
        # No previous frame at all (the first paint) renders fine too.
        assert render_top(snapshot(100)).startswith("repro top")
