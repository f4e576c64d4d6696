"""Perf — adaptive (sequential) Monte-Carlo versus fixed-count, + streaming.

Two claims of the adaptive-precision pipeline, measured on seeded runs:

* **Trials saved at matched precision.**  For each grid cell, a fixed-count
  campaign's achieved standard error becomes the adaptive campaign's
  ``target_se`` with the same trial budget; sequential stopping must reach
  that target without exceeding the fixed trial count, and across the grid
  it must save a non-trivial fraction of the trials.
* **Time to first row.**  Streaming a batch job's rows via
  ``BatchJob.iter_rows`` must deliver the first result row well before the
  full batch completes — the latency gap is the whole point of the row
  sink.

The measured counts and timings land in ``extra_info`` so the BENCH JSON
tracks both advantages over time.
"""

from __future__ import annotations

import time

from repro.core.problem import ray_problem
from repro.faults.injection import simulate_random_faults
from repro.service.scheduler import ScenarioScheduler
from repro.service.spec import MonteCarloFaultsSpec
from repro.strategies.optimal import optimal_strategy

HORIZON = 200.0
FIXED_TRIALS = 2_048
CHUNK_TRIALS = 256
SEED = 20260808
GRID = [(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 4, 1)]

STREAM_SPECS = [
    MonteCarloFaultsSpec(
        num_rays=m, num_robots=k, num_faulty=f, num_trials=3_000,
        seed=seed, horizon=HORIZON,
    )
    for m, k, f in GRID
    for seed in range(6)
]


def test_perf_adaptive_precision(benchmark):
    # ------------------------------------------------------------------
    # Trials saved at matched standard error.
    # ------------------------------------------------------------------
    total_fixed = 0
    total_adaptive = 0
    per_cell = []
    for m, k, f in GRID:
        strategy = optimal_strategy(ray_problem(m, k, f))
        fixed = simulate_random_faults(
            strategy, horizon=HORIZON, num_trials=FIXED_TRIALS, seed=SEED
        )
        # Match the fixed run's achieved precision (a 5% tolerance absorbs
        # the sample-variance wobble between the two seed streams) with a
        # budget well above the fixed count, so hitting the target — not
        # the cap — is what stops the run.
        target_se = fixed.std_error * 1.05
        adaptive = simulate_random_faults(
            strategy,
            horizon=HORIZON,
            seed=SEED,
            target_se=target_se,
            max_trials=2 * FIXED_TRIALS,
            chunk_trials=CHUNK_TRIALS,
        )
        used = adaptive.num_trials
        assert adaptive.converged is True, (
            f"({m},{k},{f}): adaptive never reached the fixed run's "
            f"SE {fixed.std_error:.4f} (+5%)"
        )
        assert used <= FIXED_TRIALS, (
            f"({m},{k},{f}): adaptive needed {used} trials to match the "
            f"precision a fixed run got from {FIXED_TRIALS}"
        )
        assert adaptive.std_error <= target_se, (
            f"({m},{k},{f}): matched-precision contract broken "
            f"({adaptive.std_error:.5f} > {target_se:.5f})"
        )
        total_fixed += FIXED_TRIALS
        total_adaptive += used
        per_cell.append(((m, k, f), used))
    saved_fraction = 1.0 - total_adaptive / total_fixed
    assert saved_fraction > 0.0, "adaptive stopping saved nothing on the grid"

    # ------------------------------------------------------------------
    # Time to first streamed row versus full-batch latency.
    # ------------------------------------------------------------------
    def first_row_and_full():
        scheduler = ScenarioScheduler()  # fresh cache: nothing precomputed
        job = scheduler.submit_job(STREAM_SPECS, max_workers=1, shard_size=1)
        start = time.perf_counter()
        next(iter(job.iter_rows()))
        first_row_seconds = time.perf_counter() - start
        job.result()
        full_seconds = time.perf_counter() - start
        return first_row_seconds, full_seconds

    first_row_seconds, full_seconds = first_row_and_full()
    assert first_row_seconds < full_seconds, (
        "first streamed row must beat full-batch completion"
    )

    benchmark.extra_info["experiment"] = "PERF-ADAPTIVE-MC"
    benchmark.extra_info["seed"] = SEED
    benchmark.extra_info["fixed_trials_per_cell"] = FIXED_TRIALS
    benchmark.extra_info["adaptive_trials_total"] = total_adaptive
    benchmark.extra_info["fixed_trials_total"] = total_fixed
    benchmark.extra_info["trials_saved_fraction"] = round(saved_fraction, 4)
    benchmark.extra_info["stream_scenarios"] = len(STREAM_SPECS)
    benchmark.extra_info["first_row_seconds"] = round(first_row_seconds, 6)
    benchmark.extra_info["full_batch_seconds"] = round(full_seconds, 6)
    benchmark.extra_info["first_row_speedup"] = round(
        full_seconds / max(first_row_seconds, 1e-9), 2
    )
    print(
        f"\nadaptive MC @ matched SE over {len(GRID)} cells: "
        f"{total_adaptive}/{total_fixed} trials "
        f"({saved_fraction:.1%} saved; per cell "
        f"{', '.join(f'{cell}={used}' for cell, used in per_cell)})\n"
        f"streaming {len(STREAM_SPECS)} scenarios: first row in "
        f"{first_row_seconds * 1e3:.1f} ms vs full batch "
        f"{full_seconds * 1e3:.1f} ms "
        f"({full_seconds / max(first_row_seconds, 1e-9):.1f}x earlier)"
    )

    benchmark.pedantic(
        lambda: simulate_random_faults(
            optimal_strategy(ray_problem(2, 3, 1)),
            horizon=HORIZON,
            seed=SEED,
            target_se=0.1,
            max_trials=FIXED_TRIALS,
            chunk_trials=CHUNK_TRIALS,
        ),
        rounds=3,
        iterations=1,
    )
