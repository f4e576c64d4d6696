#!/usr/bin/env python
"""CI smoke test for multi-node dispatch, auto-recovery and async jobs.

Spins up, as subprocesses on ephemeral ports:

* two ``repro serve`` **workers**;
* one ``repro serve --workers w1,w2 --reprobe-interval 0.2`` **coordinator**.

Then

1. checks the coordinator's ``GET /workers`` sees both workers live and
   that every worker's ``GET /healthz`` advertises the binary frame
   format (shard traffic itself rides JSON over pooled keep-alive
   connections — asserted after the first job);
2. submits a deduplicated scenario grid (with the two golden scenarios
   inside) as an **async job** (``POST /jobs``) and polls
   ``GET /jobs/<id>`` — while the job runs, ``GET /healthz`` must keep
   answering (the job never blocks the HTTP thread);
3. kills one worker right after submission, so a mid-batch death is
   likely — the job must still complete via the pull queue's failover;
4. asserts the goldens (line ratio exactly 9, randomized closed form
   4.5911 +- 5e-5) and the dedup/batch counters, and that the finished
   job **spilled**: two ``GET /jobs/<id>`` polls return identical result
   payloads rehydrated from the content-addressed cache;
5. **auto-recovery**: restarts the killed worker on its old port, waits
   for the coordinator's supervisor to re-probe it back to live (no
   coordinator restart, no batch traffic), then runs a second job and
   asserts the revived worker served shards for it;
6. checks ``GET /workers`` exposes the queue-depth/backpressure counters.

Run from the repository root:  ``python scripts/distributed_smoke.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.parse
import urllib.request

GOLDEN_SIMULATE = {"kind": "simulate", "num_rays": 2, "num_robots": 1,
                   "num_faulty": 0, "horizon": 200.0}
GOLDEN_RANDOMIZED = {"kind": "montecarlo_randomized", "num_rays": 2,
                     "num_samples": 4000, "seed": 7, "horizon": 1000.0}


def _grid(seed_base: int = 0):
    unique = [
        {"kind": "montecarlo_faults", "num_rays": m, "num_robots": k,
         "num_faulty": f, "num_trials": 64, "seed": seed_base + seed,
         "horizon": 100.0}
        for m, k, f in [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)]
        for seed in range(12)
    ]
    unique += [GOLDEN_SIMULATE, GOLDEN_RANDOMIZED]
    return unique + list(reversed(unique))  # 100 scenarios, 50% duplicates


def _request(base: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def _start(extra_args, env, port=0):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         *extra_args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = process.stdout.readline().strip()
    assert banner.startswith("serving on http://"), f"unexpected banner: {banner!r}"
    return process, banner.split()[-1]


def _poll_job(base: str, job_path: str, deadline_seconds: float = 300):
    deadline = time.monotonic() + deadline_seconds
    while True:
        # The job must never block the coordinator's HTTP thread.
        health = _request(base, "/healthz")
        assert health["status"] == "ok", health
        body = _request(base, job_path)
        if body["state"] != "running":
            return body
        assert time.monotonic() < deadline, "async job did not finish"
        time.sleep(0.2)


def _worker_stats(base: str, worker_url: str):
    stats = _request(base, "/workers")
    return next(w for w in stats["workers"] if w["url"] == worker_url)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    processes = []
    try:
        worker_a, url_a = _start([], env)
        processes.append(worker_a)
        worker_b, url_b = _start([], env)
        processes.append(worker_b)
        coordinator, url_c = _start(
            ["--workers", f"{url_a},{url_b}", "--reprobe-interval", "0.2"], env
        )
        processes.append(coordinator)
        print(f"workers at {url_a} and {url_b}, coordinator at {url_c}")

        workers = _request(url_c, "/workers")
        assert workers["num_workers"] == 2, workers
        assert "queue_depth" in workers and "active_batches" in workers, workers
        assert workers["supervisor"]["running"] is True, workers

        # Every worker advertises the binary frame format on /healthz,
        # for clients that opt into frames.
        for worker_url in (url_a, url_b):
            advert = _request(worker_url, "/healthz").get("wire")
            assert advert and advert.get("version") == 1, advert
            assert advert.get("content_type") == "application/x-repro-frame"

        scenarios = _grid()
        submitted = _request(url_c, "/jobs", {"scenarios": scenarios,
                                              "shard_size": 4})
        assert submitted["state"] == "running", submitted
        job_path = submitted["path"]
        print(f"async job {submitted['job_id']} submitted "
              f"({submitted['num_scenarios']} scenarios)")

        # Kill one worker right away: with 100 scenarios in flight this is
        # almost surely mid-batch, and the pull queue must absorb it.
        worker_b.terminate()

        body = _poll_job(url_c, job_path)
        assert body["state"] == "done", body.get("error", body["state"])
        stats = body["stats"]
        assert stats["num_scenarios"] == len(scenarios), stats
        assert stats["num_unique"] == len(scenarios) // 2, stats
        assert stats["evaluated"] <= stats["num_unique"], stats

        results = body["results"]
        simulate = next(r for r in results if r["kind"] == "simulate")
        assert simulate["theoretical"] == 9.0, simulate["theoretical"]
        randomized = next(
            r for r in results if r["kind"] == "montecarlo_randomized"
        )
        assert abs(randomized["closed_form"] - 4.5911) <= 5e-5, (
            randomized["closed_form"]
        )
        assert randomized["within_3_std_errors"] is True, randomized

        # Duplicates share their first occurrence's payload, in order.
        assert results == results[: len(results) // 2] + list(
            reversed(results[: len(results) // 2])
        )

        # The finished job spilled its payloads into the content-addressed
        # cache; rehydration is stable poll over poll.
        assert body["spilled"] is True, body.get("spilled")
        again = _request(url_c, job_path)
        assert again["results"] == results, "spilled rehydration drifted"

        # The surviving worker's shard traffic rode pooled keep-alive
        # connections.
        alive_entry = _worker_stats(url_c, url_a)
        assert alive_entry["connections"]["reuses"] > 0, alive_entry

        print(
            f"distributed smoke OK: {stats['num_unique']} unique of "
            f"{stats['num_scenarios']} scenarios, "
            f"{stats['remote_evaluated']} evaluated remotely, "
            f"{stats['failovers']} shard failovers, goldens 9 / "
            f"{randomized['closed_form']:.4f}, spill stable"
        )

        # --- auto-recovery: restart the killed worker on its old port ----
        worker_b.wait(timeout=30)
        processes.remove(worker_b)
        before = _worker_stats(url_c, url_b)["shards_completed"]
        port_b = urllib.parse.urlsplit(url_b).port
        worker_b, url_b2 = _start([], env, port=port_b)
        processes.append(worker_b)
        assert url_b2 == url_b, (url_b, url_b2)

        # The supervisor must re-probe it back to live with no batch
        # traffic and no coordinator restart.
        deadline = time.monotonic() + 60
        while not _worker_stats(url_c, url_b)["alive"]:
            assert time.monotonic() < deadline, (
                f"supervisor never revived {url_b}: "
                f"{_request(url_c, '/workers')}"
            )
            time.sleep(0.2)
        print(f"worker {url_b} restarted and re-probed back to live")

        # A fresh grid (new seeds: nothing cached) must now use it again.
        second = _request(
            url_c, "/jobs", {"scenarios": _grid(seed_base=100), "shard_size": 4}
        )
        body = _poll_job(url_c, second["path"])
        assert body["state"] == "done", body.get("error", body["state"])
        after = _worker_stats(url_c, url_b)["shards_completed"]
        assert after > before, (
            f"revived worker took no shards (before={before}, after={after})"
        )
        workers = _request(url_c, "/workers")
        assert workers["num_live"] == 2, workers
        assert workers["supervisor"]["recoveries"] >= 1, workers["supervisor"]
        assert workers["queue_depth"] == 0, workers  # drained after the job

        # Persistent connections: across both jobs the pool must have
        # reused far more sockets than it dialed (the revived worker's
        # stale sockets redial transparently — never a retry).
        connections = workers["connections"]
        assert connections["reuses"] > connections["dials"], connections
        assert connections["reuse_fraction"] > 0.5, connections
        # The never-killed worker ran both jobs without a single retry:
        # its stale sockets (if any) redialed transparently.  (The killed
        # worker legitimately retried its in-flight shard.)
        assert _worker_stats(url_c, url_a)["retries"] == 0

        print(
            f"auto-recovery OK: revived worker served "
            f"{after - before} shards of the second job; supervisor "
            f"recoveries={workers['supervisor']['recoveries']}; "
            f"connection reuse {connections['reuse_fraction']:.1%} "
            f"({connections['redials']} redials)"
        )
        return 0
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
