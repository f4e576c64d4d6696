"""Random (non-adversarial) fault injection.

The paper's competitive ratios are worst-case: the adversary chooses both
the target and the faulty robots after seeing the strategy.  In practice
faults are often random, and a natural question for a user of the library is
how much slack the adversarial bound leaves on average.  This module
injects *uniformly random* crash-fault sets and measures the resulting
detection ratios, so that average-case behaviour can be compared against
the adversarial guarantee:

* every random-fault ratio is at most the adversarial ratio for the same
  target (the adversarial fault set dominates any fixed one);
* the mean over fault sets is typically well below the bound — quantified
  by :func:`simulate_random_faults` and asserted in the failure-injection
  tests.

Seeding and reproducibility
---------------------------
All randomness flows through an explicit :class:`numpy.random.Generator`
(built from the ``seed`` argument by
:func:`repro.simulation.monte_carlo.as_generator`); a fixed seed yields a
bit-identical report.  Trials are sampled *once* as matrices
(:func:`repro.simulation.monte_carlo.sample_fault_trials`) and then
evaluated by either engine — ``engine="vectorized"`` (default, one batched
pass over the compiled arrival arrays) or ``engine="scalar"`` (the
per-trial reference loop) — so the two engines see identical draws and are
differentially testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import SearchProblem
from ..exceptions import InvalidProblemError
from ..geometry.rays import RayPoint
from ..geometry.trajectory import Trajectory
from ..geometry.visits import first_visits
from ..simulation.engine import DEFAULT_ENGINE
from ..simulation.monte_carlo import (
    FaultTrialBatch,
    SeedLike,
    SequentialEstimator,
    TrialStatistics,
    as_generator,
    fault_detection_times,
    iter_chunk_seeds,
    sample_fault_trials,
    trial_detection_time,
)
from ..strategies.base import Strategy

__all__ = [
    "RandomFaultTrial",
    "FaultInjectionReport",
    "detection_time_with_faults",
    "detection_time_with_crash_times",
    "sample_spread_targets",
    "simulate_random_faults",
]


def detection_time_with_faults(
    trajectories: Sequence[Trajectory],
    target: RayPoint,
    faulty_robots: Sequence[int],
) -> float:
    """Detection time when a *fixed* set of robots is crash-faulty.

    The target is confirmed at the first visit by a robot outside
    ``faulty_robots`` (``math.inf`` if no healthy robot ever reaches it).
    """
    faulty = set(faulty_robots)
    for visit in first_visits(trajectories, target):
        if visit.robot not in faulty:
            return visit.time
    return math.inf


def detection_time_with_crash_times(
    trajectories: Sequence[Trajectory],
    target: RayPoint,
    crash_times: Sequence[float],
) -> float:
    """Detection time when each robot reports visits only up to a cut-off.

    ``crash_times[r]`` is robot ``r``'s report cut-off: its visit counts
    when the arrival is no later than the cut-off (``inf`` for a healthy
    robot, 0 for a classically silent crash fault).  This is the scalar
    reference semantics of the ``"uniform"`` crash model of
    :func:`repro.simulation.monte_carlo.sample_fault_trials`.
    """
    if len(crash_times) != len(trajectories):
        raise InvalidProblemError(
            f"need one crash time per robot: got {len(crash_times)} "
            f"for {len(trajectories)} trajectories"
        )
    return trial_detection_time(trajectories, target, crash_times)


@dataclass(frozen=True)
class RandomFaultTrial:
    """One fault-injection trial: the sampled fault set, target and outcome."""

    target: RayPoint
    faulty_robots: Tuple[int, ...]
    detection_time: float
    ratio: float


@dataclass(eq=False)
class FaultInjectionReport:
    """Aggregate of a fault-injection campaign, held as trial columns.

    Trial ``i`` drew target ``targets[target_indices[i]]`` and the fault
    set ``fault_matrix[i]`` (True where the robot is faulty), and was
    detected at ``detection_times[i]``; ``ratios`` is derived from those
    columns.  ``adversarial_ratio`` is the worst-case ratio over the same
    targets with the adversarial fault assignment, for comparison.
    ``engine`` records which evaluation path produced the detection times.
    Every summary reads the arrays directly; per-trial
    :class:`RandomFaultTrial` records are built only when :attr:`trials`
    is read.
    """

    targets: Tuple[RayPoint, ...]
    target_indices: np.ndarray
    fault_matrix: np.ndarray
    detection_times: np.ndarray
    adversarial_ratio: float
    engine: str = DEFAULT_ENGINE
    #: ``None`` for a fixed-count campaign; for an adaptive campaign, True
    #: when the target standard error was reached before the trial budget.
    converged: Optional[bool] = None

    def __post_init__(self) -> None:
        distances = np.asarray([target.distance for target in self.targets], dtype=float)
        self.ratios: np.ndarray = self.detection_times / distances[self.target_indices]

    @property
    def num_trials(self) -> int:
        """Number of evaluated trials."""
        return int(self.ratios.size)

    @cached_property
    def trials(self) -> List[RandomFaultTrial]:
        """Per-trial records, built on first access from the columns."""
        robots = np.arange(self.fault_matrix.shape[1])
        return [
            RandomFaultTrial(
                target=self.targets[index],
                faulty_robots=tuple(robots[faulty].tolist()),
                detection_time=detection_time,
                ratio=ratio,
            )
            for index, faulty, detection_time, ratio in zip(
                self.target_indices.tolist(),
                self.fault_matrix,
                self.detection_times.tolist(),
                self.ratios.tolist(),
            )
        ]

    @property
    def mean_ratio(self) -> float:
        """Average ratio over all trials (``inf`` if any trial never detects)."""
        if not self.num_trials:
            return math.nan
        # Python's built-in float sum (what the per-trial records were
        # summed with), not numpy's pairwise one: the mean stays
        # bit-identical.
        return sum(self.ratios.tolist()) / self.num_trials

    @property
    def max_ratio(self) -> float:
        """Worst ratio observed across the random trials."""
        if not self.num_trials:
            return math.nan
        return float(self.ratios.max())

    @property
    def slack(self) -> float:
        """How much head-room the adversarial bound leaves on average."""
        return self.adversarial_ratio - self.mean_ratio

    @cached_property
    def statistics(self) -> TrialStatistics:
        """Rich trial statistics (mean, standard error, quantiles, batches).

        Computed once and cached on the report — the trial columns are
        treated as immutable after construction.
        """
        return TrialStatistics.from_sample(self.ratios)

    @property
    def std_error(self) -> float:
        """Standard error of the mean ratio."""
        return self.statistics.std_error

    def to_dict(self) -> dict:
        """Summary dict (trial statistics, not the raw trial columns).

        The stochastic columns mirror
        :class:`repro.analysis.sweep.StochasticSweepRow`, so a serialised
        report is directly comparable to a serial sweep row.
        """
        statistics = self.statistics
        return {
            "num_trials": statistics.num_trials,
            "trials_used": statistics.num_trials,
            "converged": self.converged,
            "adversarial_ratio": self.adversarial_ratio,
            "mean_ratio": statistics.mean,
            "std_error": statistics.std_error,
            "quantile_95": statistics.quantile(0.95),
            "max_ratio": statistics.maximum,
            "slack": self.adversarial_ratio - statistics.mean,
            "engine": self.engine,
            "statistics": statistics.to_dict(),
        }

    def quantile(self, q: float) -> float:
        """Empirical ``q``-quantile of the trial ratios (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise InvalidProblemError(f"quantile must be in [0, 1], got {q}")
        if not self.num_trials:
            return math.nan
        ordered = np.sort(self.ratios)
        index = min(self.num_trials - 1, int(q * self.num_trials))
        return float(ordered[index])


def sample_spread_targets(
    rng: np.random.Generator,
    num_rays: int,
    horizon: float,
    count: int = 32,
) -> List[RayPoint]:
    """Sample targets geometrically spread over ``[1, horizon]`` on random rays.

    The distance exponent is uniform, so target magnitudes cover every
    decade of the horizon equally — the spread the default fault-injection
    campaign draws its target pool from.
    """
    if count < 1:
        raise InvalidProblemError("need at least one target")
    targets: List[RayPoint] = []
    for _ in range(count):
        exponent = rng.uniform(0.0, math.log10(max(horizon, 10.0)))
        targets.append(
            RayPoint(
                ray=int(rng.integers(0, num_rays)),
                distance=min(horizon, max(1.0, 10.0**exponent)),
            )
        )
    return targets


def simulate_random_faults(
    strategy: Strategy,
    horizon: float,
    num_trials: int = 200,
    seed: SeedLike = 0,
    targets: Optional[Sequence[RayPoint]] = None,
    engine: str = DEFAULT_ENGINE,
    crash_model: str = "silent",
    target_se: Optional[float] = None,
    max_trials: Optional[int] = None,
    chunk_trials: Optional[int] = None,
    on_chunk: Optional[Callable[[int, int, int, float], None]] = None,
) -> FaultInjectionReport:
    """Run a random fault-injection campaign against a strategy.

    Each trial samples a uniformly random set of ``f`` faulty robots and a
    target (uniformly among the provided targets, or geometrically spread
    over ``[1, horizon]`` on random rays when none are given), then records
    the detection ratio with that fixed fault set.  ``engine`` selects the
    batched (``"vectorized"``, default) or per-trial (``"scalar"``)
    evaluation path over the *same* seeded draws; ``crash_model`` is
    ``"silent"`` (faulty robots never report) or ``"uniform"`` (faulty
    robots report visits up to a uniform random cut-off).

    Setting any of ``target_se``/``max_trials``/``chunk_trials`` switches
    to *adaptive* (sequential) estimation: trials are evaluated in seeded
    chunks (per-chunk streams from :func:`iter_chunk_seeds`) and the run
    stops as soon as the sample's standard error reaches ``target_se``, or
    after ``max_trials`` (default ``num_trials``) regardless.
    ``chunk_trials`` defaults to an eighth of the budget.  The chunk
    schedule is a pure function of the spec, so adaptive runs are exactly
    as reproducible as fixed-count ones; with all three unset the legacy
    single-draw path runs unchanged, bit-identical to earlier versions.
    ``on_chunk(index, size, trials_used, std_error)`` is invoked after
    each evaluated chunk (telemetry hook; never affects results).
    """
    problem: SearchProblem = strategy.problem
    if num_trials < 1:
        raise InvalidProblemError("need at least one trial")
    adaptive = (
        target_se is not None or max_trials is not None or chunk_trials is not None
    )
    rng = as_generator(seed)
    trajectories = strategy.materialise(horizon)

    if targets is None:
        targets = sample_spread_targets(rng, problem.num_rays, horizon)

    # Adversarial reference over the same targets.
    from .adversary import Adversary

    adversary = Adversary(problem)
    adversarial_ratio = max(
        adversary.response_at(trajectories, target).ratio for target in targets
    )

    if not adaptive:
        batch: FaultTrialBatch = sample_fault_trials(
            rng,
            num_trials=num_trials,
            num_robots=problem.num_robots,
            num_faulty=problem.num_faulty,
            targets=targets,
            crash_model=crash_model,
            horizon=horizon,
        )
        return FaultInjectionReport(
            targets=batch.targets,
            target_indices=batch.target_indices,
            fault_matrix=batch.fault_matrix,
            detection_times=fault_detection_times(trajectories, batch, engine=engine),
            adversarial_ratio=adversarial_ratio,
            engine=engine,
        )

    estimator = SequentialEstimator(
        max_trials=max_trials if max_trials is not None else num_trials,
        chunk_trials=chunk_trials,
        target_se=target_se,
    )
    chunk_seeds = iter_chunk_seeds(seed)
    distances = np.asarray([target.distance for target in targets], dtype=float)
    chunks: List[Tuple[FaultTrialBatch, np.ndarray]] = []
    chunk_index = 0
    while True:
        size = estimator.next_chunk()
        if size == 0:
            break
        chunk_batch = sample_fault_trials(
            as_generator(next(chunk_seeds)),
            num_trials=size,
            num_robots=problem.num_robots,
            num_faulty=problem.num_faulty,
            targets=targets,
            crash_model=crash_model,
            horizon=horizon,
        )
        chunk_times = fault_detection_times(trajectories, chunk_batch, engine=engine)
        std_error = estimator.add_chunk(
            chunk_times / distances[chunk_batch.target_indices]
        )
        chunks.append((chunk_batch, chunk_times))
        if on_chunk is not None:
            on_chunk(chunk_index, size, estimator.trials_used, std_error)
        chunk_index += 1
    return FaultInjectionReport(
        targets=tuple(targets),
        target_indices=np.concatenate([b.target_indices for b, _ in chunks]),
        fault_matrix=np.concatenate([b.fault_matrix for b, _ in chunks]),
        detection_times=np.concatenate([times for _, times in chunks]),
        adversarial_ratio=adversarial_ratio,
        engine=engine,
        converged=estimator.converged,
    )
