"""Served-path benchmark: drives real `repro serve` processes end to end.

Run from the root of a repository checkout::

    python3 servebench/run.py --workload sim-small --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` measures the
end-to-end metrics of a workload with tracing off:

* ``scenarios_per_s`` -- scenario rows delivered per second of wall time;
* ``request_mean_ms`` -- mean request latency: send to the last response
  byte for ``/batch``, ``POST /jobs`` to the ``done`` event for jobs;
* ``first_row_mean_ms`` -- mean time to the first result row (the
  response head for ``/batch``, the first SSE row for jobs);
* ``setup_s`` -- median over five set-ups of launch to first good
  ``/healthz`` plus the workload's priming;
* ``server_rss_mb`` -- summed peak RSS (``VmHWM``) of the serving processes.

Means, not medians, are gated: cluster-sim's latency is bimodal (the
worker takes one shard or two), so its per-run median jumps between the
modes.  p50 and p90 (with their sample count) are printed alongside.
``--trace 1`` gives the per-layer split instead (see ``layers.py``).

The last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  Every returned payload is compared bit for bit
with an in-process ``execute_spec`` of the same spec, computed outside the
timed window; any mismatch makes the run fail.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from harness import ROOT, Run, Verifier, client_note, loop_summary, print_metric

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Requests a run needs before its p90 counts as resolved.
P90_MIN_REQUESTS = 100

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "request_mean_ms": "ms",
    "first_row_mean_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MB",
}


def run_untraced(workload, seconds: float) -> Tuple[Run, Dict[str, float]]:
    verifier = Verifier()
    run = Run(workload, verifier)
    verifier.prepare(workload)
    setup_times = []
    cluster = None
    try:
        for attempt in range(SETUPS):
            cluster, client, _before, elapsed = run.set_up()
            setup_times.append(elapsed)
            if attempt < SETUPS - 1:
                client.close()
                cluster.stop()
                cluster = None
        warm = workload.next_batch()
        run.record(warm, client.send(workload.endpoint, warm))
        sent, wall, cpu = run.closed_loop(client, seconds)
        client.close()
        rss = sum(server.peak_rss_mb() for server in cluster.servers)
    finally:
        if cluster is not None:
            cluster.stop()
    run.verify()
    summary = loop_summary(sent, wall, cpu)
    metrics = {
        "scenarios_per_s": summary["scenarios_per_s"],
        "request_mean_ms": summary["request_mean_ms"],
        "first_row_mean_ms": summary["first_row_mean_ms"],
        "setup_s": statistics.median(setup_times),
        "server_rss_mb": rss,
    }
    print(f"servebench {workload.name}: {workload.shape}")
    print(f"  why: {workload.why}")
    for name, unit in END_TO_END_UNITS.items():
        print_metric(name, metrics[name], unit)
    requests = summary["requests"]
    print_metric("request_p50_ms", summary["request_p50_ms"], "ms", f"n={requests}")
    print_metric(
        "request_p90_ms", summary["request_p90_ms"], "ms",
        f"n={requests}" + ("" if requests >= P90_MIN_REQUESTS
                           else f", unresolved: needs >= {P90_MIN_REQUESTS} requests"),
    )
    print_metric("first_row_p50_ms", summary["first_row_p50_ms"], "ms", f"n={requests}")
    print_metric("error_rate", len(run.failures) / run.attempted, "ratio",
                 f"{len(run.failures)} of {run.attempted} requests")
    print_metric("client.cpu_share", summary["client_cpu_share"], "ratio",
                 client_note(summary["client_cpu_share"]))
    print_metric("client.requests", requests, "count")
    print_metric("setup_s.samples", len(setup_times), "count",
                 ", ".join(f"{value:.3f}" for value in setup_times))
    return run, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"servebench: no src/repro package under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, make_workload

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected 'all' or one of {sorted(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failures, reported = 0, [], {}
    for name in names:
        workload = make_workload(name, args.seed)
        if args.trace:
            from layers import run_traced

            run, metrics, units = run_traced(workload, args.seconds)
        else:
            run, metrics = run_untraced(workload, args.seconds)
            units = END_TO_END_UNITS
        for failure in run.failures[:5]:
            print(f"MISMATCH: {failure}")
        attempted += run.attempted
        failures += run.failures
        # With every workload in one run, metric names carry the workload.
        prefix = f"{name}/" if len(names) > 1 else ""
        reported.update({
            prefix + metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        })
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
