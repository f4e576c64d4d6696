"""Traced run: the per-layer split of one workload.

The run sets the workload's servers up once, then

1. drives the same closed loop as the untraced run for half of
   ``--seconds`` with tracing off and half with the benchmark's spans on
   (``trace.overhead_pct`` is the throughput gap between the halves);
2. replays fresh batches of the same generated stream through each
   layer's public functions in this process, one span per call:
   ``spec_from_dict`` / ``cache_key``, ``ResultCache.get`` / ``put``,
   ``ScenarioScheduler.run_batch`` (default executor and
   ``max_workers=1``), ``BatchJob.iter_rows``, ``execute_spec``,
   ``to_jsonable``, strategy materialisation, ``Trajectory.compiled``,
   the simulation and Monte-Carlo kernels, ``simulate_random_faults``,
   the wire codec against JSON, and ``RemoteWorker.evaluate_shard``;
3. reads ``/metrics.json`` deltas of every serving process.

Spans are written as a Chrome trace to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import json
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
import statistics
import threading
from typing import Dict, List, Tuple

from cluster import get_json
from harness import (
    CLIENT_BOUND_SHARE, ROOT, Run, Verifier, canonical, loop_summary, print_metric,
)
from tracing import Tracer
from workloads import GOLDEN_PROBES, MC_TRIALS

#: Fresh batches replayed in process, per workload.
REPLAY_BATCHES = {"sim-small": 4, "mc-stream": 2, "hot-mixed": 16, "cluster-sim": 3}
#: Specs per shard sent straight to a worker (the coordinator's default
#: sharding of a 32-spec batch over two local slots and one worker).
REMOTE_SHARD = 3
REMOTE_SHARDS = 4
#: Distinct specs decomposed into materialise / lower / kernel.
SIMULATE_SPECS = 8
MONTECARLO_SPECS = 3
WIRE_REPEATS = {1: 400, 64: 20}
SELF_TIME_LAYERS = (
    "server", "spec", "cache", "scheduler", "execute", "strategies",
    "geometry", "simulation", "faults", "wire", "remote",
)

UNITS: Dict[str, str] = {
    "server.overhead_ms": "ms",
    "server.response_kb": "KiB",
    "server.done_running_events": "count",
    "spec.parse_us": "us",
    "spec.key_us": "us",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.hit_ratio": "ratio",
    "scheduler.batch_ms": "ms",
    "scheduler.serial_batch_ms": "ms",
    "scheduler.executor_overhead_ms": "ms",
    "scheduler.default_vs_serial_ratio": "ratio",
    "scheduler.shards": "count",
    "scheduler.dedup_ratio": "ratio",
    "scheduler.first_row_ms": "ms",
    "execute.simulate_ms": "ms",
    "execute.montecarlo_faults_ms": "ms",
    "execute.encode_ms": "ms",
    "strategies.materialise_ms": "ms",
    "geometry.lower_ms": "ms",
    "simulation.kernel_ms": "ms",
    "monte_carlo.kernel_ms": "ms",
    "faults.campaign_ms": "ms",
    "faults.overhead_ms": "ms",
    "faults.to_dict_ms": "ms",
    **{
        f"wire.{name}.shard{size}": unit
        for size in (1, 64)
        for name, unit in (
            ("frame_encode_us", "us"), ("frame_decode_us", "us"),
            ("frame_kb", "KiB"), ("json_encode_us", "us"),
            ("json_decode_us", "us"), ("json_kb", "KiB"),
        )
    },
    "remote.dispatch_ms": "ms",
    "remote.share": "ratio",
    "remote.conn_reuse_ratio": "ratio",
    "remote.failovers": "count",
    "telemetry.execute_coverage": "ratio",
    "telemetry.shards.local-serial": "count",
    "telemetry.shards.local-pool": "count",
    "telemetry.shards.remote": "count",
    "telemetry.cache_hits": "count",
    "client.cpu_share": "ratio",
    "client.requests": "count",
    "client.request_p50_ms": "ms",
    "client.request_p90_ms": "ms",
    "client.first_row_p50_ms": "ms",
    "client.bottleneck": "count",
    "client.error_rate": "ratio",
    "trace.overhead_pct": "%",
    **{f"trace.self_ms.{layer}": "ms" for layer in SELF_TIME_LAYERS},
}


def stop_pool_helpers() -> None:
    """Stop the forkserver and resource tracker a process pool may leave.

    Both outlive their pools; stopping them here waits for them to exit,
    so a run leaves no process behind.
    """
    for helper in (
        getattr(multiprocessing.forkserver, "_forkserver", None),
        getattr(multiprocessing.resource_tracker, "_resource_tracker", None),
    ):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# ----------------------------------------------------------------------
# /metrics.json helpers
def _series(snapshot: dict, group: str, name: str, **labels):
    for entry in snapshot.get(group, ()):
        if entry["name"] == name and all(
            entry["labels"].get(key) == value for key, value in labels.items()
        ):
            yield entry


def _counter(snapshot: dict, name: str, **labels) -> float:
    return sum(entry["value"] for entry in _series(snapshot, "counters", name, **labels))


def _observations(snapshot: dict, name: str, **labels) -> float:
    return sum(entry["count"] for entry in _series(snapshot, "histograms", name, **labels))


def _seconds(snapshot: dict, name: str) -> float:
    return sum(entry["sum"] for entry in _series(snapshot, "histograms", name))


def _delta(before: List[dict], after: List[dict], read) -> float:
    return sum(read(new) - read(old) for old, new in zip(before, after))


# ----------------------------------------------------------------------
def _median_ms(values: List[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _decomposition_specs(workload, batches: List[List[dict]]) -> Tuple[list, list, List[str]]:
    """Distinct simulate and montecarlo_faults specs to decompose.

    A workload without one of the two kinds gets companions with the same
    ``(m, k, f)`` drawn from its own stream, and the run says so.
    """
    seen, simulate, montecarlo = set(), [], []
    for scenario in (s for batch in batches for s in batch):
        key = canonical(scenario)
        if key in seen:
            continue
        seen.add(key)
        if scenario["kind"] == "simulate" and len(simulate) < SIMULATE_SPECS:
            simulate.append(scenario)
        elif scenario["kind"] == "montecarlo_faults" and len(montecarlo) < MONTECARLO_SPECS:
            montecarlo.append(scenario)
    notes = []
    rng = workload.rng

    def problem(scenario):
        return {f: scenario[f] for f in ("num_rays", "num_robots", "num_faulty")}
    if not montecarlo:
        montecarlo = [
            {"kind": "montecarlo_faults", **problem(s), "num_trials": MC_TRIALS,
             "seed": rng.randrange(2**31), "horizon": 1e3}
            for s in simulate[:MONTECARLO_SPECS]
        ]
        notes.append("execute.montecarlo_faults_ms, monte_carlo.kernel_ms, faults.*: "
                     f"no montecarlo_faults spec in {workload.name}; measured on "
                     "companions with the workload's (m, k, f) and mc-stream's trials")
    if not simulate:
        simulate = [
            {"kind": "simulate", **problem(s), "horizon": rng.uniform(1e3, 2e4)}
            for s in montecarlo
        ]
        notes.append("execute.simulate_ms, simulation.kernel_ms: no simulate spec in "
                     f"{workload.name}; measured on companions with the workload's (m, k, f)")
    return simulate, montecarlo, notes


def _engine_layers(tracer: Tracer, simulate: list, montecarlo: list) -> Dict[str, float]:
    """Time execute_spec and its engine layers, spec by spec."""
    from repro.core.problem import ray_problem
    from repro.faults.injection import sample_spread_targets, simulate_random_faults
    from repro.reporting import to_jsonable
    from repro.service.execute import execute_spec
    from repro.service.spec import spec_from_dict
    from repro.simulation.competitive import evaluate_trajectories
    from repro.simulation.monte_carlo import (
        as_generator, fault_detection_times, sample_fault_trials,
        target_arrival_matrix,
    )
    from repro.strategies.optimal import optimal_strategy

    def executed_and_lowered(spec):
        """execute_spec and its payload encoding, then a fresh lowered strategy."""
        with tracer.span(f"execute.{spec.kind}"):
            payload = execute_spec(spec)
        with tracer.span("execute.encode"):
            to_jsonable(payload)
        problem = ray_problem(spec.num_rays, spec.num_robots, spec.num_faulty)
        with tracer.span("strategies.materialise"):
            trajectories = optimal_strategy(problem).trajectories(spec.horizon)
        with tracer.span("geometry.lower"):
            for trajectory in trajectories:
                trajectory.compiled()
        return problem, trajectories

    for scenario in simulate:
        spec = spec_from_dict(scenario)
        with tracer.span("replay.engine", tracer.new_request()):
            problem, trajectories = executed_and_lowered(spec)
            with tracer.span("simulation.kernel"):
                evaluate_trajectories(trajectories, problem, spec.horizon, engine=spec.engine)
    for scenario in montecarlo:
        spec = spec_from_dict(scenario)
        with tracer.span("replay.engine", tracer.new_request()):
            problem, trajectories = executed_and_lowered(spec)
            with tracer.span("monte_carlo.kernel"):
                rng = as_generator(spec.seed)
                targets = sample_spread_targets(rng, spec.num_rays, spec.horizon)
                batch = sample_fault_trials(
                    rng, spec.num_trials, spec.num_robots, spec.num_faulty,
                    targets, crash_model=spec.crash_model, horizon=spec.horizon,
                )
                target_arrival_matrix(trajectories, targets)
                fault_detection_times(trajectories, batch, engine=spec.engine)
            with tracer.span("faults.campaign"):
                report = simulate_random_faults(
                    optimal_strategy(problem), spec.horizon,
                    num_trials=spec.num_trials, seed=spec.seed,
                    engine=spec.engine, crash_model=spec.crash_model,
                )
            with tracer.span("faults.to_dict"):
                report.to_dict()
    campaign = tracer.mean("faults.campaign", 1e3)
    return {
        "execute.simulate_ms": tracer.mean("execute.simulate", 1e3),
        "execute.montecarlo_faults_ms": tracer.mean("execute.montecarlo_faults", 1e3),
        "execute.encode_ms": tracer.mean("execute.encode", 1e3),
        "strategies.materialise_ms": tracer.mean("strategies.materialise", 1e3),
        "geometry.lower_ms": tracer.mean("geometry.lower", 1e3),
        "simulation.kernel_ms": tracer.mean("simulation.kernel", 1e3),
        "monte_carlo.kernel_ms": tracer.mean("monte_carlo.kernel", 1e3),
        "faults.campaign_ms": campaign,
        "faults.overhead_ms": campaign - tracer.mean("monte_carlo.kernel", 1e3),
        "faults.to_dict_ms": tracer.mean("faults.to_dict", 1e3),
    }


def _wire_layer(tracer: Tracer, payloads: List[dict]) -> Dict[str, float]:
    """The shard-response codec at 1 and 64 specs per shard, frame vs JSON."""
    from repro.service.wire import decode_frame, encode_frame

    metrics = {}
    for size, repeats in WIRE_REPEATS.items():
        body = {"results": [payloads[i % len(payloads)] for i in range(size)]}
        frame = encode_frame(body)
        text = json.dumps(body).encode("utf-8")
        if decode_frame(frame) != body or json.loads(text) != body:
            raise RuntimeError("wire or JSON round trip changed a payload")
        for name, call in (
            ("frame_encode", lambda: encode_frame(body)),
            ("frame_decode", lambda: decode_frame(frame)),
            ("json_encode", lambda: json.dumps(body).encode("utf-8")),
            ("json_decode", lambda: json.loads(text)),
        ):
            span_name = f"wire.{name}.shard{size}"
            with tracer.span("replay.wire", tracer.new_request()):
                for _ in range(repeats):
                    with tracer.span(span_name):
                        call()
            metrics[f"wire.{name}_us.shard{size}"] = tracer.mean(span_name, 1e6)
        metrics[f"wire.frame_kb.shard{size}"] = len(frame) / 1024
        metrics[f"wire.json_kb.shard{size}"] = len(text) / 1024
    return metrics


def _remote_layer(tracer: Tracer, workload, target) -> Dict[str, float]:
    """``RemoteWorker.evaluate_shard`` against a live server, minus its own time."""
    from repro.service.remote import RemoteWorker

    worker = RemoteWorker(target.url)
    try:
        if not worker.check_health():
            raise RuntimeError(f"remote layer: {target.url} failed the handshake")
        before = target.metrics()
        for _ in range(REMOTE_SHARDS):
            shard = workload.next_batch()[:REMOTE_SHARD]
            with tracer.span("replay.remote", tracer.new_request()):
                with tracer.span("remote.evaluate_shard"):
                    worker.evaluate_shard(shard)
        after = target.metrics()
        reuse = worker.connection_stats()["reuse_fraction"]
    finally:
        worker.close()
    served = _seconds(after, "repro_worker_batch_seconds") - _seconds(
        before, "repro_worker_batch_seconds")
    round_trips = sum(tracer.durations("remote.evaluate_shard"))
    return {
        "remote.dispatch_ms": 1e3 * (round_trips - served) / REMOTE_SHARDS,
        "remote.conn_reuse_ratio": reuse,
    }


def _on_handler_thread(call):
    """Run ``call`` beside the main thread, as the server's handler threads do.

    The scheduler picks its pool's start method from the live thread count,
    so a call from a lone main thread would not take the served path.
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised on the calling thread
            outcome["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _served_path(tracer: Tracer, run: Run, cluster, client, caches):
    """Spec, cache and scheduler layers on fresh batches, plus HTTP pairing."""
    from repro.service.cache import ResultCache
    from repro.service.remote import RemoteWorkerPool
    from repro.service.scheduler import ScenarioScheduler
    from repro.service.spec import spec_from_dict

    workload = run.workload
    default_ms, serial_ms, first_ms, http_ms, shards, dedup = [], [], [], [], [], []
    batches = []
    # Start the pool's forkserver before timing, as the server's first
    # request does during setup.
    warm = [spec_from_dict(spec) for spec, *_ in GOLDEN_PROBES]
    _on_handler_thread(lambda: ScenarioScheduler().run_batch(warm))
    pool = RemoteWorkerPool([w.url for w in cluster.workers]) if cluster.workers else None
    try:
        for _ in range(REPLAY_BATCHES[workload.name]):
            scenarios = workload.next_batch()
            batches.append(scenarios)
            with tracer.span("replay.batch", tracer.new_request()):
                cache = caches()
                specs, keys = [], []
                for scenario in scenarios:
                    with tracer.span("spec.parse"):
                        spec = spec_from_dict(scenario)
                    with tracer.span("spec.key"):
                        key = spec.cache_key()
                    specs.append(spec)
                    keys.append(key)
                unique = dict(zip(keys, scenarios))
                for key in unique:
                    with tracer.span("cache.get"):
                        cache.get(key)
                # Stores go to a fresh cache, so hot workloads time them too.
                fresh = ResultCache()
                for key, scenario in unique.items():
                    payload = json.loads(run.verifier.reference(scenario))
                    with tracer.span("cache.put"):
                        fresh.put(key, payload)

                scheduler = ScenarioScheduler(cache=caches(), workers=pool)
                with tracer.span("scheduler.run_batch") as span:
                    batch = _on_handler_thread(lambda: scheduler.run_batch(specs))
                default_ms.append(span.seconds)
                shards.append(batch.num_shards)
                dedup.append(1 - batch.num_unique / batch.num_scenarios)
                run.check_results(scenarios, batch.results)

                serial = ScenarioScheduler(cache=caches())
                with tracer.span("scheduler.run_batch_serial") as span:
                    _on_handler_thread(lambda: serial.run_batch(specs, max_workers=1))
                serial_ms.append(span.seconds)

                job_specs = [spec_from_dict(s) for s in workload.next_batch()]
                job_scheduler = ScenarioScheduler(cache=caches(), workers=pool)
                with tracer.span("scheduler.first_row") as span:
                    job = job_scheduler.submit_job(job_specs)
                    rows = job.iter_rows()
                    next(rows)
                first_ms.append(span.seconds)
                for _row in rows:
                    pass
                job.wait()

                # The same batch over HTTP; through a coordinator its worker
                # would now answer from cache, so cluster-sim sends a sibling.
                paired = workload.next_batch() if cluster.workers else scenarios
                reply = tracer.http_request(client, workload.endpoint, paired)
                run.record(paired, reply)
                http_ms.append(reply.done - reply.sent)
    finally:
        if pool is not None:
            pool.close()
    overhead = [http - local for http, local in zip(http_ms, default_ms)]
    batch_ms = _median_ms(default_ms)
    serial_batch_ms = _median_ms(serial_ms)
    return batches, {
        "server.overhead_ms": _median_ms(overhead),
        "spec.parse_us": tracer.mean("spec.parse", 1e6),
        "spec.key_us": tracer.mean("spec.key", 1e6),
        "cache.get_us": tracer.mean("cache.get", 1e6),
        "cache.put_us": tracer.mean("cache.put", 1e6),
        "scheduler.batch_ms": batch_ms,
        "scheduler.serial_batch_ms": serial_batch_ms,
        "scheduler.executor_overhead_ms": batch_ms - serial_batch_ms,
        "scheduler.default_vs_serial_ratio": batch_ms / serial_batch_ms,
        "scheduler.shards": statistics.mean(shards),
        "scheduler.dedup_ratio": statistics.mean(dedup),
        "scheduler.first_row_ms": _median_ms(first_ms),
    }


def run_traced(workload, seconds: float):
    verifier = Verifier()
    run = Run(workload, verifier)
    tracer = Tracer()
    verifier.prepare(workload)
    from repro.service.cache import ResultCache
    from repro.service.spec import spec_from_dict

    primed = [(spec_from_dict(s).cache_key(), verifier.reference(s))
              for s in workload.primed]

    def caches():
        """A cache in the state the served workload's cache is in."""
        cache = ResultCache()
        for key, text in primed:
            cache.put(key, json.loads(text))
        return cache

    cluster, client, before, _elapsed = run.set_up()
    try:
        warm = workload.next_batch()
        run.record(warm, client.send(workload.endpoint, warm))
        start = [server.metrics() for server in cluster.servers]
        plain, plain_wall, plain_cpu = run.closed_loop(client, seconds / 2)
        traced, traced_wall, traced_cpu = run.closed_loop(client, seconds / 2, tracer)
        after = [server.metrics() for server in cluster.servers]
        workers_view = (
            get_json(cluster.front.host, cluster.front.port, "/workers")[1]
            if cluster.workers else None
        )
        batches, metrics = _served_path(tracer, run, cluster, client, caches)
        simulate, montecarlo, notes = _decomposition_specs(workload, batches)
        metrics.update(_engine_layers(tracer, simulate, montecarlo))
        payloads = [json.loads(verifier.reference(s)) for b in batches for s in b]
        metrics.update(_wire_layer(tracer, payloads))
        target = cluster.workers[0] if cluster.workers else cluster.front
        metrics.update(_remote_layer(tracer, workload, target))
    finally:
        client.close()
        cluster.stop()
        stop_pool_helpers()
    run.verify()

    summary_plain = loop_summary(plain, plain_wall, plain_cpu)
    summary = loop_summary(traced, traced_wall, traced_cpu)
    everything = plain + traced
    stats = [json.loads(reply.raw).get("stats", {}) for _s, reply in everything
             if reply.ok and reply.raw]
    evaluated = sum(block.get("evaluated", 0) for block in stats)
    # Counters over the request window; execute coverage from just after
    # health, so hot-mixed's evaluations (its priming) are counted too.
    front = (start[:1], after[:1])
    hits = _delta(*front, lambda s: _counter(s, "repro_cache_hits_total"))
    misses = _delta(*front, lambda s: _counter(s, "repro_cache_misses_total"))
    scenario_evals = _delta(
        before[:1], after[:1],
        lambda s: _counter(s, "repro_scenarios_total", outcome="evaluated"))
    executed = _delta(before, after, lambda s: _observations(s, "repro_execute_seconds"))
    if workers_view is not None:
        reuse = workers_view["connections"]["reuse_fraction"]
        metrics["remote.conn_reuse_ratio"] = reuse
        notes.append("remote.conn_reuse_ratio: the coordinator's own pool (GET /workers)")
        notes.append("server.overhead_ms: HTTP batches paired with sibling in-process "
                     "batches, since the worker would answer the same batch from cache")
    else:
        notes.append("remote.conn_reuse_ratio, remote.dispatch_ms: a client-side "
                     "RemoteWorker against this workload's server (it has no workers)")
    response_bytes = [len(reply.raw) or sum(len(d) for _i, d in reply.rows)
                      for _s, reply in everything if reply.ok]
    metrics.update({
        "server.response_kb": statistics.mean(response_bytes) / 1024,
        "server.done_running_events": sum(
            reply.done_state == "running" for _s, reply in everything),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "remote.share": sum(b.get("remote_evaluated", 0) for b in stats) / evaluated
        if evaluated else 0.0,
        "remote.failovers": _delta(*front, lambda s: _counter(s, "repro_failovers_total")),
        "telemetry.execute_coverage": executed / scenario_evals if scenario_evals else 0.0,
        "telemetry.cache_hits": _delta(
            start, after, lambda s: _counter(s, "repro_cache_hits_total")),
        "client.cpu_share": summary_plain["client_cpu_share"],
        "client.requests": summary_plain["requests"] + summary["requests"],
        "client.request_p50_ms": summary_plain["request_p50_ms"],
        "client.request_p90_ms": summary_plain["request_p90_ms"],
        "client.first_row_p50_ms": summary_plain["first_row_p50_ms"],
        "client.bottleneck": float(summary_plain["client_cpu_share"] >= CLIENT_BOUND_SHARE),
        "client.error_rate": len(run.failures) / run.attempted,
        "trace.overhead_pct": 100 * (1 - summary["scenarios_per_s"]
                                     / summary_plain["scenarios_per_s"]),
    })
    for executor in ("local-serial", "local-pool", "remote"):
        metrics[f"telemetry.shards.{executor}"] = _delta(
            start, after,
            lambda s: _observations(s, "repro_shard_seconds", executor=executor))
    self_seconds = tracer.self_seconds()
    for layer in SELF_TIME_LAYERS:
        prefixes = (layer + ".",) + (("monte_carlo.",) if layer == "simulation" else ())
        metrics[f"trace.self_ms.{layer}"] = 1e3 * sum(
            value for name, value in self_seconds.items() if name.startswith(prefixes))
    if not scenario_evals:
        notes.append("telemetry.execute_coverage: no scenario was evaluated in the window")

    path = os.path.join(ROOT, ".bench_out", f"trace-{workload.name}.json")
    tracer.write_chrome(path)
    print(f"servebench {workload.name} (traced): {workload.shape}")
    print(f"  why: {workload.why}")
    print(f"  heavy layers: {', '.join(workload.heavy)}; light: {', '.join(workload.light)}")
    for name in UNITS:
        print_metric(name, metrics[name], UNITS[name])
    for note in notes:
        print(f"  note: {note}")
    print(f"  chrome trace: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    return run, {name: metrics[name] for name in UNITS}, UNITS
