"""Seeded input generators for the served-path benchmark workloads.

Every workload is a closed loop: one client, one keep-alive connection,
the next request sent only after the previous one completed.  The
generators here turn the workload seed into the scenario JSON the server
sees; nothing else about a run depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

SIM_PROBLEMS = (
    (2, 1, 0), (2, 3, 1), (2, 4, 1), (3, 2, 0),
    (3, 4, 1), (4, 3, 0), (2, 5, 2), (3, 5, 1),
)
MC_PROBLEMS = ((2, 3, 1), (2, 4, 1), (3, 4, 1), (2, 5, 2))
MC_TRIALS = 16384
WORKING_SET = 256

#: Setup probes: each pins one of the paper's numbers.
GOLDEN_PROBES = (
    ({"kind": "simulate", "num_rays": 2, "num_robots": 1, "num_faulty": 0,
      "horizon": 200.0}, "theoretical", 9.0, 0.0),
    ({"kind": "montecarlo_randomized", "num_rays": 2, "num_samples": 4000,
      "seed": 7, "horizon": 1000.0}, "closed_form", 4.5911, 5e-5),
    ({"kind": "bounds", "num_rays": 2, "num_robots": 3, "num_faulty": 1},
     "ratio", 5.2331, 5e-5),
)


def simulate_spec(rng: random.Random) -> dict:
    m, k, f = rng.choice(SIM_PROBLEMS)
    return {"kind": "simulate", "num_rays": m, "num_robots": k,
            "num_faulty": f, "horizon": rng.uniform(1e3, 2e4)}


def montecarlo_spec(rng: random.Random) -> dict:
    m, k, f = rng.choice(MC_PROBLEMS)
    return {"kind": "montecarlo_faults", "num_rays": m, "num_robots": k,
            "num_faulty": f, "num_trials": MC_TRIALS,
            "seed": rng.randrange(2**31), "horizon": 1e3}


def _mixed_spec(rng: random.Random, kind: str) -> dict:
    """One cheap, always-valid spec of ``kind`` for the hot working set."""
    if kind == "bounds":
        robots = rng.randint(1, 6)
        return {"kind": kind, "num_rays": rng.randint(2, 5),
                "num_robots": robots, "num_faulty": rng.randrange(robots)}
    m, k, f = rng.choice(SIM_PROBLEMS)
    if kind == "simulate":
        return {"kind": kind, "num_rays": m, "num_robots": k,
                "num_faulty": f, "horizon": rng.uniform(100.0, 2e3)}
    if kind == "family":
        family = rng.choice(("optimal", "replication"))
        return {"kind": kind, "num_rays": m, "num_robots": k, "num_faulty": f,
                "horizon": rng.uniform(100.0, 2e3), "family": family}
    if kind == "montecarlo_faults":
        m, k, f = rng.choice(MC_PROBLEMS)
        return {"kind": kind, "num_rays": m, "num_robots": k, "num_faulty": f,
                "num_trials": 256, "seed": rng.randrange(2**31),
                "horizon": 1e3}
    if kind == "montecarlo_randomized":
        return {"kind": kind, "num_rays": rng.randint(2, 4),
                "num_samples": 256, "seed": rng.randrange(2**31),
                "horizon": 1e3}
    if kind == "timeline":
        return {"kind": kind, "num_rays": m, "num_robots": k, "num_faulty": f,
                "target_ray": rng.randrange(m),
                "target_distance": rng.uniform(1.0, 500.0)}
    if kind == "contract":
        return {"kind": kind, "num_problems": rng.randint(1, 4),
                "num_processors": rng.randint(1, 4),
                "horizon": rng.uniform(100.0, 5e3)}
    if kind == "hybrid":
        algorithms = rng.randint(2, 6)
        return {"kind": kind, "num_algorithms": algorithms,
                "num_areas": rng.randint(1, algorithms - 1),
                "horizon": rng.uniform(100.0, 5e3)}
    if kind == "orc":
        robots = rng.randint(1, 4)
        return {"kind": kind, "num_robots": robots,
                "fold": robots + rng.randint(1, 4),
                "horizon": rng.uniform(100.0, 5e3)}
    if kind == "fractional":
        return {"kind": kind, "eta": rng.uniform(1.2, 4.0),
                "num_robots": rng.randint(1, 4),
                "horizon": rng.uniform(100.0, 5e3)}
    if kind == "lemmas":
        return {"kind": kind, "num_robots": rng.randint(1, 6),
                "shortfall": rng.randint(1, 4),
                "grid_points": rng.randint(101, 401), "mu_star_samples": 5}
    if kind == "certificate":
        faulty = rng.randint(1, 2)
        robots = rng.randint(faulty + 1, 2 * faulty + 1)
        return {"kind": kind, "setting": rng.choice(("line", "orc")),
                "num_robots": robots, "num_faulty": faulty,
                "fold": robots + rng.randint(1, 3),
                "claim_fraction": rng.uniform(0.8, 0.95),
                "horizon": rng.uniform(100.0, 1e3)}
    raise ValueError(f"no generator for kind {kind!r}")


MIXED_KINDS = (
    "bounds", "simulate", "family", "montecarlo_faults",
    "montecarlo_randomized", "timeline", "contract", "hybrid", "orc",
    "fractional", "lemmas", "certificate",
)


def working_set(rng: random.Random) -> List[dict]:
    """256 distinct specs spanning all twelve kinds, round-robin by kind."""
    specs: List[dict] = []
    seen = set()
    while len(specs) < WORKING_SET:
        spec = _mixed_spec(rng, MIXED_KINDS[len(specs) % len(MIXED_KINDS)])
        key = repr(sorted(spec.items()))
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


@dataclass
class Workload:
    """One benchmark workload: its topology, endpoint and request stream."""

    name: str
    endpoint: str  # "/batch" or "/jobs"
    workers: int  # remote worker servers behind the front server
    batch_size: int
    why: str
    shape: str
    heavy: Tuple[str, ...]
    light: Tuple[str, ...]
    make_spec: Optional[Callable[[random.Random], dict]] = None
    primed: List[dict] = field(default_factory=list)
    rng: random.Random = field(default_factory=random.Random)

    def next_batch(self) -> List[dict]:
        """The scenario list of the next request."""
        if self.primed:
            return [self.rng.choice(self.primed) for _ in range(self.batch_size)]
        return [self.make_spec(self.rng) for _ in range(self.batch_size)]


#: The seed held out while the benchmark was tuned (a claim must also hold there).
HELD_OUT_SEED = 7919


def make_workload(name: str, seed: int) -> Workload:
    """Build workload ``name`` with every input drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    spec = WORKLOADS[name]
    workload = Workload(name=name, rng=rng, **spec)
    if name == "hot-mixed":
        workload.primed = working_set(rng)
    return workload


WORKLOADS: Dict[str, dict] = {
    "sim-small": dict(
        endpoint="/batch", workers=0, batch_size=16, make_spec=simulate_spec,
        why="engine work per spec is small, so executor choice, strategy "
        "materialisation and cache writes dominate",
        shape="closed loop, 1 client, keep-alive; POST /batch of 16 fresh "
        "simulate specs (all cache misses), server-chosen executor",
        heavy=("scheduler", "cache.put", "strategies", "geometry"),
        light=("remote", "wire", "faults"),
    ),
    "mc-stream": dict(
        endpoint="/jobs", workers=0, batch_size=16, make_spec=montecarlo_spec,
        why="the engine dominates and the process pool beats serial; the "
        "only workload using job streaming and first-row delivery",
        shape="closed loop, 1 client; POST /jobs of 16 fresh "
        "montecarlo_faults specs (16384 trials), then GET /jobs/<id>/rows "
        "as SSE until done",
        heavy=("faults", "simulation", "scheduler.first_row"),
        light=("spec", "cache", "server", "remote", "wire"),
    ),
    # Not listed in BENCHMARK.json: its throughput follows the host's load
    # (it halved between two ten-seed sets of the same code), so it is kept
    # for its traced per-layer split of the cache-hit path only.
    "hot-mixed": dict(
        endpoint="/batch", workers=0, batch_size=64,
        why="all cache hits with in-batch duplicates, so parsing, spec "
        "hashing, dedup, cache reads and response encoding dominate",
        shape="closed loop, 1 client, keep-alive; POST /batch of 64 specs "
        "drawn with replacement from a 256-spec, twelve-kind working set "
        "primed at setup",
        heavy=("server", "spec", "cache.get", "scheduler.dedup"),
        light=("execute", "strategies", "geometry", "simulation", "faults"),
    ),
    "cluster-sim": dict(
        endpoint="/batch", workers=1, batch_size=32, make_spec=simulate_spec,
        why="the only workload through service.remote and service.wire",
        shape="closed loop, 1 client, keep-alive; POST /batch of 32 fresh "
        "simulate specs to a coordinator fronting one worker, default "
        "sharding",
        heavy=("remote", "wire", "scheduler"),
        light=("faults", "cache.get"),
    ),
}
