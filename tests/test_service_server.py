"""End-to-end tests of the HTTP evaluation server on an ephemeral port."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.server import create_server


@pytest.fixture(scope="module")
def server_url():
    server = create_server(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server_url):
        status, body = _get(server_url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "simulate" in body["kinds"]

    def test_unknown_path_404(self, server_url):
        status, body = _get(server_url + "/nope")
        assert status == 404
        assert "error" in body

    def test_invalid_spec_400(self, server_url):
        status, body = _post(server_url + "/evaluate", {"kind": "quantum"})
        assert status == 400
        assert "unknown scenario kind" in body["error"]

    def test_invalid_body_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/evaluate",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400


class TestGoldenScenarios:
    def test_deterministic_line_ratio_nine_and_cache_hit(self, server_url):
        scenario = {"kind": "simulate", "num_rays": 2, "num_robots": 1,
                    "num_faulty": 0, "horizon": 200.0}
        status, body = _post(server_url + "/evaluate", scenario)
        assert status == 200
        assert body["cached"] is False
        assert body["result"]["theoretical"] == 9.0  # the cow-path golden
        assert body["result"]["measured"] <= 9.0
        assert body["result"]["measured"] == pytest.approx(9.0, rel=0.05)

        # The second identical request must be served from the cache.
        status, again = _post(server_url + "/evaluate", scenario)
        assert status == 200
        assert again["cached"] is True
        assert again["result"] == body["result"]
        assert again["key"] == body["key"]

        status, stats = _get(server_url + "/cache/stats")
        assert status == 200
        assert stats["hits"] >= 1

    def test_seeded_randomized_montecarlo_golden(self, server_url):
        scenario = {"kind": "montecarlo_randomized", "num_rays": 2,
                    "num_samples": 4000, "seed": 7, "horizon": 1000.0}
        status, body = _post(server_url + "/evaluate", scenario)
        assert status == 200
        result = body["result"]
        assert result["closed_form"] == pytest.approx(4.5911, abs=5e-5)
        assert result["within_3_std_errors"] is True
        assert result["estimate"] == pytest.approx(
            4.5911, abs=4 * result["std_error"]
        )
        # Seeded: repeating the request reproduces the identical payload.
        _status, again = _post(server_url + "/evaluate", scenario)
        assert again["cached"] is True
        assert again["result"] == result

    def test_batch_endpoint_dedups(self, server_url):
        scenario = {"kind": "bounds", "num_robots": 3, "num_faulty": 1}
        status, body = _post(
            server_url + "/batch",
            {"scenarios": [scenario, scenario, scenario], "max_workers": 1},
        )
        assert status == 200
        assert body["stats"]["num_scenarios"] == 3
        assert body["stats"]["num_unique"] == 1
        assert body["stats"]["evaluated"] <= 1
        ratios = [result["ratio"] for result in body["results"]]
        assert ratios == [pytest.approx(5.2331, abs=5e-5)] * 3

    def test_batch_accepts_bare_list(self, server_url):
        status, body = _post(
            server_url + "/batch",
            [{"kind": "bounds", "num_robots": 1}],
        )
        assert status == 200
        assert body["results"][0]["ratio"] == 9.0

    def test_batch_rejects_empty(self, server_url):
        status, body = _post(server_url + "/batch", {"scenarios": []})
        assert status == 400

    def test_batch_rejects_primitive_body_as_400(self, server_url):
        status, body = _post(server_url + "/batch", "hello")
        assert status == 400
        assert "error" in body

    def test_evaluate_malformed_targets_400(self, server_url):
        status, body = _post(
            server_url + "/evaluate",
            {"kind": "montecarlo_randomized", "targets": [[0]]},
        )
        assert status == 400
        assert "target" in body["error"]


class TestRobustness:
    """Regression tests: structured errors, never tracebacks or 500s."""

    def test_malformed_json_body_returns_structured_400(self, server_url):
        for path in ("/evaluate", "/batch", "/jobs"):
            request = urllib.request.Request(
                server_url + path,
                data=b'{"scenarios": [}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=60)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "invalid JSON body" in body["error"]

    def test_unknown_spec_kind_returns_structured_400(self, server_url):
        for path in ("/evaluate", "/batch", "/jobs"):
            payload = {"kind": "quantum"}
            if path != "/evaluate":
                payload = {"scenarios": [payload]}
            status, body = _post(server_url + path, payload)
            assert status == 400
            assert "unknown scenario kind" in body["error"]

    def test_non_object_scenario_returns_400(self, server_url):
        status, body = _post(server_url + "/evaluate", [1, 2, 3])
        assert status == 400
        status, body = _post(server_url + "/batch", {"scenarios": [42]})
        assert status == 400
        assert "error" in body

    def test_empty_body_returns_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/evaluate", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_job_returns_404(self, server_url):
        status, body = _get(server_url + "/jobs/deadbeef")
        assert status == 404
        assert "unknown job" in body["error"]

    def test_workers_endpoint_404_without_pool(self, server_url):
        status, body = _get(server_url + "/workers")
        assert status == 404
        assert "worker pool" in body["error"]


class TestJobsEndpoint:
    def test_submit_poll_and_list(self, server_url):
        scenarios = [
            {"kind": "simulate", "num_rays": 2, "num_robots": 1,
             "num_faulty": 0, "horizon": float(horizon)}
            for horizon in range(300, 310)
        ]
        status, submitted = _post(
            server_url + "/jobs", {"scenarios": scenarios, "max_workers": 1}
        )
        assert status == 202
        assert submitted["num_scenarios"] == len(scenarios)

        import time

        deadline = time.monotonic() + 60
        while True:
            status, body = _get(server_url + submitted["path"])
            assert status == 200
            if body["state"] != "running":
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)

        assert body["state"] == "done"
        assert body["progress"] == {"completed": len(scenarios),
                                    "total": len(scenarios)}
        assert body["stats"]["num_scenarios"] == len(scenarios)
        assert len(body["results"]) == len(scenarios)
        assert body["results"][0]["theoretical"] == 9.0

        status, listing = _get(server_url + "/jobs")
        assert status == 200
        assert submitted["job_id"] in {job["job_id"] for job in listing["jobs"]}

    def test_jobs_rejects_empty_scenarios(self, server_url):
        status, body = _post(server_url + "/jobs", {"scenarios": []})
        assert status == 400
        assert "non-empty" in body["error"]


def _cap_malloc_arenas_in_child(arena_max=None) -> str:
    """What ``cap_malloc_arenas()`` returns in a fresh interpreter, so the
    test process's allocator settings stay untouched."""
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_ARENA_MAX"}
    if arena_max is not None:
        env["MALLOC_ARENA_MAX"] = arena_max
    code = "from repro.service.server import cap_malloc_arenas; print(cap_malloc_arenas())"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


class TestMallocArenaCap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt only")
    def test_applied_on_glibc(self):
        assert _cap_malloc_arenas_in_child() == "True"

    def test_explicit_environment_setting_rules(self):
        assert _cap_malloc_arenas_in_child("4") == "False"
