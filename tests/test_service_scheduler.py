"""Tests for :mod:`repro.service.scheduler`: dedup, cache, bit-identity."""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import urllib.request
from multiprocessing.connection import wait as wait_for_exits

import pytest

from repro.analysis.sweep import (
    interesting_grid,
    sweep_optimal_strategies,
    sweep_random_faults,
)
from repro.service import scheduler as scheduler_module
from repro.service.cache import ResultCache
from repro.service.scheduler import (
    BatchJob,
    ScenarioScheduler,
    montecarlo_grid_specs,
    simulate_grid_specs,
)
from repro.service.server import create_server
from repro.service.spec import BoundsSpec, SimulateSpec
from repro.service.telemetry import MetricsRegistry, Tracer


class TestEvaluate:
    def test_second_evaluation_is_cached(self):
        scheduler = ScenarioScheduler()
        payload, cached = scheduler.evaluate(SimulateSpec(num_robots=1, horizon=50.0))
        assert not cached
        again, cached = scheduler.evaluate(SimulateSpec(num_robots=1, horizon=50.0))
        assert cached
        assert again == payload

    def test_engine_version_isolates_results(self):
        cache = ResultCache()
        old = ScenarioScheduler(cache=cache, engine_version="repro/test+engine.1")
        new = ScenarioScheduler(cache=cache, engine_version="repro/test+engine.2")
        spec = BoundsSpec(num_robots=3, num_faulty=1)
        old.evaluate(spec)
        _payload, cached = new.evaluate(spec)
        assert not cached  # the engine bump invalidated the old entry


class TestBatchDedupAndCache:
    def test_200_scenario_grid_with_half_duplicates(self):
        # The acceptance grid: 200 scenarios, 50% duplicate specs, at most
        # 100 engine evaluations (here: exactly 100).
        unique = [
            SimulateSpec(num_rays=m, num_robots=k, num_faulty=f,
                         horizon=float(horizon))
            for m, k, f in [(2, 1, 0), (2, 3, 1)]
            for horizon in range(10, 60)
        ]
        assert len(unique) == 100
        scenarios = unique + list(reversed(unique))  # 50% duplicates
        scheduler = ScenarioScheduler()
        batch = scheduler.run_batch(scenarios, max_workers=2)
        assert batch.num_scenarios == 200
        assert batch.num_unique == 100
        assert batch.evaluated <= 100
        stats = scheduler.cache.stats()
        assert stats.stores == batch.evaluated

        # Duplicates share the payload of their first occurrence, in order.
        assert list(batch.results) == (
            list(batch.results[:100]) + list(reversed(batch.results[:100]))
        )

        # A warm re-run performs zero engine evaluations.
        warm = scheduler.run_batch(scenarios, max_workers=2)
        assert warm.evaluated == 0
        assert warm.cache_hits == 100
        assert list(warm.results) == list(batch.results)

    def test_sharding_does_not_change_results(self):
        specs = simulate_grid_specs(interesting_grid(3, 4, 1), horizon=80.0)
        by_one = ScenarioScheduler().run_batch(specs, max_workers=1, shard_size=1)
        by_three = ScenarioScheduler().run_batch(specs, max_workers=2, shard_size=3)
        assert list(by_one.results) == list(by_three.results)
        assert by_three.num_shards == -(-len(specs) // 3)

    def test_submit_batch_future(self):
        scheduler = ScenarioScheduler()
        future = scheduler.submit_batch([BoundsSpec(num_robots=3, num_faulty=1)])
        batch = future.result(timeout=60)
        assert batch.num_scenarios == 1
        assert batch.results[0]["ratio"] == pytest.approx(5.2331, abs=5e-5)


class TestBitIdenticalToSerialSweeps:
    def test_simulate_batch_matches_sweep_optimal_strategies(self):
        grid = interesting_grid(3, 4, 1)
        rows = sweep_optimal_strategies(grid, horizon=150.0, max_workers=1)
        batch = ScenarioScheduler().run_batch(
            simulate_grid_specs(grid, horizon=150.0), max_workers=2
        )
        assert len(batch.results) == len(rows)
        for payload, row in zip(batch.results, rows):
            assert payload["theoretical"] == row.theoretical  # bit-identical
            assert payload["measured"] == row.measured
            assert payload["strategy_name"] == row.strategy_name
            assert payload["horizon"] == row.horizon

    def test_montecarlo_batch_matches_sweep_random_faults(self):
        grid = [(2, 1, 0), (2, 3, 1), (3, 2, 0)]
        rows = sweep_random_faults(
            grid, horizon=100.0, num_trials=64, seed=11, max_workers=1
        )
        batch = ScenarioScheduler().run_batch(
            montecarlo_grid_specs(grid, horizon=100.0, num_trials=64, seed=11),
            max_workers=2,
        )
        for payload, row in zip(batch.results, rows):
            assert payload["spec"]["seed"] == row.seed  # same spawned seeds
            assert payload["adversarial_ratio"] == row.adversarial
            assert payload["mean_ratio"] == row.mean_ratio  # bit-identical
            assert payload["std_error"] == row.std_error
            assert payload["quantile_95"] == row.quantile_95
            assert payload["max_ratio"] == row.max_ratio
            assert payload["num_trials"] == row.num_trials


def _fresh_specs(offset: float, count: int = 16):
    """``count`` distinct simulate specs no other test evaluates."""
    return [
        SimulateSpec(num_rays=2, num_robots=3, num_faulty=1,
                     horizon=1000.0 + offset + 0.25 * index)
        for index in range(count)
    ]


def _pool_processes():
    """The warm local pool and a snapshot of its ``{pid: process}`` map."""
    executor = scheduler_module._LOCAL_POOL._executor
    assert executor is not None
    return executor, dict(executor._processes)


def _pool_batch(specs):
    """``run_batch(max_workers=2)`` on a fresh scheduler; also returns how
    many of its shards the local pool executed."""
    metrics = MetricsRegistry()
    scheduler = ScenarioScheduler(metrics=metrics, tracer=Tracer())
    batch = scheduler.run_batch(specs, max_workers=2)
    pooled = metrics.histogram("repro_shard_seconds", {"executor": "local-pool"})
    return batch, pooled.count


class TestWarmLocalPool:
    def test_consecutive_batches_run_on_the_same_children(self):
        scheduler = ScenarioScheduler()
        scheduler.run_batch(_fresh_specs(0.0), max_workers=2)
        executor, first = _pool_processes()
        scheduler.run_batch(_fresh_specs(100.0), max_workers=2)
        again, second = _pool_processes()
        assert again is executor
        # No child was replaced: every first-batch process still serves.
        assert first and set(first) <= set(second)
        assert len(second) <= (os.cpu_count() or 1)
        assert all(process.exitcode is None for process in second.values())

    def test_killed_child_is_replaced_and_payloads_stay_bit_identical(self):
        owner = ScenarioScheduler()  # keeps the pool up between batches
        _pool_batch(_fresh_specs(200.0))
        executor, processes = _pool_processes()
        pid, process = next(iter(processes.items()))
        os.kill(pid, signal.SIGKILL)
        # Block on the child's exit sentinel: no sleep, no reaping.
        assert wait_for_exits([process.sentinel], timeout=60)

        specs = _fresh_specs(300.0)
        batch, pooled = _pool_batch(specs)
        rebuilt, now = _pool_processes()
        assert rebuilt is not executor
        assert pid not in now
        assert pooled == batch.num_shards > 1  # ran on the rebuilt pool
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        assert list(batch.results) == list(serial.results)
        # The old pool's other children exit too, even one left waiting on
        # a queue lock the killed child held.
        for process in processes.values():
            assert wait_for_exits([process.sentinel], timeout=60)
        del owner

    def test_pool_closes_when_its_last_owner_is_collected(self):
        class Owner:
            pass

        pool = scheduler_module._LocalPool()
        first, second = Owner(), Owner()
        pool.attach(first)
        pool.attach(second)
        executor = pool.get()
        assert executor.submit(os.getpid).result(timeout=60) in executor._processes
        processes = list(executor._processes.values())
        del first
        assert pool.get() is executor  # the remaining owner keeps it
        del second
        assert pool._executor is None
        assert processes
        assert all(process.exitcode is not None for process in processes)

    def test_error_raised_by_the_work_propagates_and_keeps_the_pool(self):
        owner = ScenarioScheduler()
        owner.run_batch(_fresh_specs(900.0), max_workers=2)
        executor, _processes = _pool_processes()
        specs = _fresh_specs(950.0)
        # Specs validate on construction; this one skips it and fails
        # inside the engine, in a pool child, with a TypeError.
        object.__setattr__(specs[-1], "horizon", None)
        metrics = MetricsRegistry()
        scheduler = ScenarioScheduler(metrics=metrics, tracer=Tracer())
        with pytest.raises(TypeError):
            scheduler.run_batch(specs, max_workers=2)
        # Not taken for a pool failure: no serial rerun, no new pool.
        serial = metrics.histogram("repro_shard_seconds", {"executor": "local-serial"})
        assert serial.count == 0
        assert _pool_processes()[0] is executor
        del owner

    def test_close_stops_every_child_and_the_pool_rebuilds_on_use(self):
        scheduler = ScenarioScheduler()
        scheduler.run_batch(_fresh_specs(400.0), max_workers=2)
        _executor, processes = _pool_processes()
        scheduler.close()
        assert scheduler_module._LOCAL_POOL._executor is None
        assert processes
        assert all(process.exitcode is not None for process in processes.values())

        specs = _fresh_specs(500.0)
        batch, pooled = _pool_batch(specs)
        assert pooled == batch.num_shards > 1
        serial = ScenarioScheduler().run_batch(specs, max_workers=1)
        assert list(batch.results) == list(serial.results)

    def test_stopped_server_leaves_no_pool_child(self):
        server = create_server(host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = {"scenarios": [s.to_dict() for s in _fresh_specs(600.0)],
                    "max_workers": 2}
            request = urllib.request.Request(
                server.url + "/batch",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
            _executor, processes = _pool_processes()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert processes
        assert all(process.exitcode is not None for process in processes.values())


    def test_concurrent_batches_and_closes_stay_bit_identical(self):
        # More batch threads than cores share the one pool while the pool
        # is closed under them: every batch must still complete with the
        # serial payloads (a batch whose pool vanishes goes serial).
        specs = [_fresh_specs(800.0 + 10.0 * thread) for thread in range(4)]
        serial = [
            ScenarioScheduler().run_batch(chunk, max_workers=1).results
            for chunk in specs
        ]
        results = [None] * len(specs)

        def run(index):
            batches = []
            for _round in range(3):
                batch = ScenarioScheduler().run_batch(specs[index], max_workers=2)
                batches.append(batch.results)
            results[index] = batches

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for _close in range(3):
                ScenarioScheduler().close()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        for index, batches in enumerate(results):
            assert batches == [serial[index]] * 3


class TestStreamedDoneEvent:
    def test_done_event_reports_done_on_20_consecutive_jobs(self, monkeypatch):
        # Hold every job's finish until its subscriber has read the last
        # row: the stream then has no finished job to report until the
        # gate opens, so a done event sent early would say "running".
        release = threading.Event()
        finish = BatchJob._finish

        def gated_finish(job, *args, **kwargs):
            release.wait(60)
            finish(job, *args, **kwargs)

        monkeypatch.setattr(BatchJob, "_finish", gated_finish)
        server = create_server(host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for job in range(20):
                release.clear()
                specs = _fresh_specs(700.0 + 10.0 * job, count=2)
                request = urllib.request.Request(
                    server.url + "/jobs",
                    data=json.dumps(
                        {"scenarios": [s.to_dict() for s in specs]}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    job_id = json.loads(response.read())["job_id"]
                rows_url = f"{server.url}/jobs/{job_id}/rows"
                with urllib.request.urlopen(rows_url, timeout=60) as response:
                    rows = 0
                    while rows < len(specs):
                        rows += response.readline() == b"event: row\n"
                    release.set()
                    lines = response.read().decode("utf-8").splitlines()
                done = lines.index("event: done")
                assert json.loads(lines[done + 1][len("data: "):]) == {
                    "state": "done",
                    "num_rows": 2,
                }
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
