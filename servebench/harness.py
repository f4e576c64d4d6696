"""Shared pieces of the untraced and traced runs: verification and the closed loop."""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


#: Client CPU time over wall time from which the client, not the server,
#: is taken to limit a run.
CLIENT_BOUND_SHARE = 0.8


class Verifier:
    """Reference payloads from in-process ``execute_spec``, memoised per spec."""

    def __init__(self) -> None:
        self._references: Dict[str, str] = {}

    def prepare(self, workload) -> None:
        """References for the setup probes and the primed working set."""
        from workloads import GOLDEN_PROBES

        for scenario in [spec for spec, *_ in GOLDEN_PROBES] + workload.primed:
            self.reference(scenario)

    def reference(self, scenario: dict) -> str:
        key = canonical(scenario)
        text = self._references.get(key)
        if text is None:
            from repro.service.execute import execute_spec
            from repro.service.spec import spec_from_dict

            text = canonical(execute_spec(spec_from_dict(scenario)))
            self._references[key] = text
        return text

    def check(self, scenarios: List[dict], reply) -> Optional[str]:
        """``None`` when every payload of a reply matches, else what went wrong."""
        if not reply.ok:
            return reply.error
        if reply.raw:
            return self.check_results(scenarios, json.loads(reply.raw)["results"])
        indices = [index for index, _data in reply.rows]
        if indices != list(range(len(scenarios))):
            return "streamed rows not exactly once and in index order"
        return self.check_results(
            scenarios, [json.loads(data)["result"] for _index, data in reply.rows])

    def check_results(self, scenarios: List[dict], results) -> Optional[str]:
        if len(results) != len(scenarios):
            return f"{len(results)} results for {len(scenarios)} scenarios"
        for scenario, result in zip(scenarios, results):
            if canonical(result) != self.reference(scenario):
                return f"payload differs from execute_spec for {scenario}"
        return None


def check_goldens(scenarios: List[dict], reply) -> Optional[str]:
    from workloads import GOLDEN_PROBES

    results = json.loads(reply.raw)["results"]
    for (_spec, field, value, tolerance), result in zip(GOLDEN_PROBES, results):
        if not abs(result[field] - value) <= tolerance:
            return f"golden {field} = {result[field]!r}, expected {value} ± {tolerance}"
    return None


class Run:
    """Bookkeeping shared by the untraced and traced modes of one run."""

    def __init__(self, workload, verifier: Verifier) -> None:
        self.workload = workload
        self.verifier = verifier
        self.attempted = 0
        self.failures: List[str] = []
        self._pending: List[Tuple[List[dict], object, bool]] = []

    def record(self, scenarios, reply, golden: bool = False) -> None:
        """Keep a reply for verification after the timed window."""
        self.attempted += 1
        self._pending.append((scenarios, reply, golden))

    def check_results(self, scenarios: List[dict], results) -> None:
        """Check payloads computed in this process (the layer replay)."""
        self.attempted += 1
        problem = self.verifier.check_results(scenarios, list(results))
        if problem is not None:
            self.failures.append(problem)

    def verify(self) -> None:
        for scenarios, reply, golden in self._pending:
            problem = self.verifier.check(scenarios, reply)
            if problem is None and golden:
                problem = check_goldens(scenarios, reply)
            if problem is not None:
                self.failures.append(problem)
        self._pending.clear()

    def set_up(self):
        """Launch the serving processes, wait for health, prime; time it all."""
        from cluster import Client, launch
        from workloads import GOLDEN_PROBES

        start = time.perf_counter()
        cluster = launch(ROOT, self.workload.workers)
        client = Client(cluster.front)
        try:
            before = [server.metrics() for server in cluster.servers]
            primes = [[spec for spec, _field, _value, _tol in GOLDEN_PROBES]]
            if self.workload.primed:
                primes.append(self.workload.primed)
            replies = [(batch, client.batch(batch)) for batch in primes]
        except BaseException:
            client.close()
            cluster.stop()
            raise
        elapsed = time.perf_counter() - start
        for index, (batch, reply) in enumerate(replies):
            self.record(batch, reply, golden=index == 0)
        return cluster, client, before, elapsed

    def closed_loop(self, client, seconds: float, tracer=None):
        """Send requests back to back for ``seconds``; returns the replies."""
        workload = self.workload
        sent: List[Tuple[List[dict], object]] = []
        cpu_start = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            scenarios = workload.next_batch()
            if tracer is None:
                reply = client.send(workload.endpoint, scenarios)
            else:
                reply = tracer.http_request(client, workload.endpoint, scenarios)
            sent.append((scenarios, reply))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        for scenarios, reply in sent:
            self.record(scenarios, reply)
        return sent, wall, cpu


def loop_summary(sent, wall: float, cpu: float) -> Dict[str, float]:
    ok = [reply for _scenarios, reply in sent if reply.ok]
    latencies = sorted(reply.latency_ms for reply in ok)
    first_rows = [reply.first_row_ms for reply in ok]
    rows = sum(len(scenarios) for scenarios, reply in sent if reply.ok)
    p90 = latencies[max(0, math.ceil(0.9 * len(latencies)) - 1)] if latencies else math.nan
    return {
        "scenarios_per_s": rows / wall,
        "request_mean_ms": statistics.mean(latencies) if latencies else math.nan,
        "request_p50_ms": statistics.median(latencies) if latencies else math.nan,
        "request_p90_ms": p90,
        "first_row_mean_ms": statistics.mean(first_rows) if first_rows else math.nan,
        "first_row_p50_ms": statistics.median(first_rows) if first_rows else math.nan,
        "requests": len(sent),
        "client_cpu_share": cpu / wall,
    }


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"  {name:<36} {value:>14.6g} {unit}{suffix}")


def client_note(share: float) -> str:
    if share >= CLIENT_BOUND_SHARE:
        return "CLIENT-BOUND: the load generator, not the server, limits this run"
    return "server-bound"
