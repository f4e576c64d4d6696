"""Column-backed fault-injection reports.

:class:`~repro.faults.injection.FaultInjectionReport` keeps its trials as
arrays (target indices, fault matrix, detection times, ratios) and builds
per-trial :class:`~repro.faults.injection.RandomFaultTrial` records only
when ``.trials`` is read.  These tests pin that the columns reproduce the
per-trial records and the served payloads of the earlier
one-object-per-trial report exactly, and that the served path never builds
trial objects.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.problem import ray_problem
from repro.faults import injection
from repro.faults.injection import simulate_random_faults
from repro.service.execute import execute_spec
from repro.service.spec import spec_from_dict
from repro.strategies.optimal import optimal_strategy


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Digests of the per-trial records and of the summary properties, as the
# one-object-per-trial report produced them on a (3 rays, 4 robots, 1
# faulty) problem at horizon 300.
TRIAL_RUNS = {
    "fixed": (dict(num_trials=256, seed=42), "d6a71a88f7cc461d", "52d170ad6169e4c2"),
    "uniform": (
        dict(num_trials=256, seed=3, crash_model="uniform"),
        "979b9c1d0c8808af",
        "77115b916efe9fb3",
    ),
    "adaptive": (
        dict(num_trials=512, seed=5, target_se=0.05, chunk_trials=64),
        "381a805f5636630a",
        "f69549ae922851b5",
    ),
    "scalar": (
        dict(num_trials=128, seed=9, engine="scalar"),
        "98c3da2f66b327d1",
        "ba06f4e03fe28c26",
    ),
}


@pytest.fixture(scope="module")
def strategy():
    return optimal_strategy(ray_problem(3, 4, 1))


class TestLazyTrials:
    @pytest.mark.parametrize("name", sorted(TRIAL_RUNS))
    def test_trials_match_per_trial_records(self, strategy, name):
        kwargs, records_digest, summary_digest = TRIAL_RUNS[name]
        report = simulate_random_faults(strategy, 300.0, **kwargs)
        records = [
            (t.target.ray, t.target.distance, t.faulty_robots, t.detection_time, t.ratio)
            for t in report.trials
        ]
        assert _digest(repr(records)) == records_digest
        summary = (
            report.mean_ratio,
            report.max_ratio,
            report.quantile(0.5),
            report.std_error,
            len(report.trials),
            report.converged,
        )
        assert _digest(repr(summary)) == summary_digest

    @pytest.mark.parametrize("name", sorted(TRIAL_RUNS))
    def test_records_agree_with_columns(self, strategy, name):
        report = simulate_random_faults(strategy, 300.0, **TRIAL_RUNS[name][0])
        trials = report.trials
        assert len(trials) == report.num_trials == report.statistics.num_trials
        for index, trial in enumerate(trials):
            assert trial.target == report.targets[report.target_indices[index]]
            assert trial.faulty_robots == tuple(
                np.flatnonzero(report.fault_matrix[index]).tolist()
            )
            assert trial.detection_time == report.detection_times[index]
            assert trial.ratio == report.ratios[index]
            assert type(trial.ratio) is float
            assert all(type(robot) is int for robot in trial.faulty_robots)

    def test_trials_built_once(self, strategy):
        report = simulate_random_faults(strategy, 300.0, num_trials=32, seed=1)
        assert report.trials is report.trials

    def test_mean_ratio_matches_per_trial_sum(self, strategy):
        report = simulate_random_faults(strategy, 300.0, num_trials=999, seed=4)
        expected = sum(trial.ratio for trial in report.trials) / len(report.trials)
        assert report.mean_ratio == expected


# Payload digests of served montecarlo_faults specs from the
# one-object-per-trial report: sha256 of the sorted, compact JSON.
BASE_SPEC = {"kind": "montecarlo_faults", "num_rays": 2, "horizon": 1000.0}
PAYLOAD_DIGESTS = [
    (dict(num_robots=3, num_faulty=1, num_trials=16384, seed=7919), "e6754d9b2c427e13"),
    (
        dict(num_robots=3, num_faulty=1, num_trials=4096, seed=3, crash_model="uniform"),
        "02c99179b1476866",
    ),
    (
        dict(num_rays=3, num_robots=4, num_faulty=1, num_trials=4096, seed=5, target_se=0.01),
        "05d72051452ace97",
    ),
    (
        dict(num_robots=3, num_faulty=1, num_trials=2048, seed=5, engine="scalar"),
        "2543228774445c3c",
    ),
]


class TestServedPayloads:
    @pytest.mark.parametrize("fields,digest", PAYLOAD_DIGESTS)
    def test_payload_digest_pinned(self, fields, digest):
        payload = execute_spec(spec_from_dict(dict(BASE_SPEC, **fields)))
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert _digest(text) == digest

    @pytest.mark.parametrize("fields", [fields for fields, _ in PAYLOAD_DIGESTS])
    def test_execute_spec_builds_no_trial_objects(self, monkeypatch, fields):
        class NoTrials:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the served path built a RandomFaultTrial")

        monkeypatch.setattr(injection, "RandomFaultTrial", NoTrials)
        payload = execute_spec(spec_from_dict(dict(BASE_SPEC, **fields)))
        assert payload["trials_used"] >= 1
