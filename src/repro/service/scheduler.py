"""Sharded batch scheduler: dedup, cache, process-pool and remote fan-out.

The scheduler turns a heterogeneous list of
:class:`~repro.service.spec.ScenarioSpec` into result payloads while doing
as little engine work as possible:

1. **Dedup** — scenarios are content-addressed, so identical specs inside a
   batch (whatever their construction order) collapse onto one cache key
   and are evaluated at most once;
2. **Cache** — each unique key is looked up in the
   :class:`~repro.service.cache.ResultCache` before any compute;
3. **Shard + pull dispatch** — the remaining unique specs are split into
   shards on one shared work queue, and every executor *pulls* the next
   shard when it is free: the local slot, working one warm, process-wide
   local process pool (built once, reused by every batch, with a serial
   fallback), plus one dispatcher thread per live remote ``repro serve``
   worker when the batch has a
   :class:`~repro.service.remote.RemoteWorkerPool` (or worker URLs).  A
   batch without workers is the same loop with zero remote executors.
   Each shard's payloads are stored into the cache — and journaled, when
   a journal is attached — the moment the shard completes;
4. **Failover** — a slow or loaded worker naturally takes fewer shards
   (backpressure-aware placement), a worker that dies mid-batch is marked
   dead while the shard it held goes back on the queue for another
   executor — the batch always completes — and a worker revived mid-batch
   (by the pool's :class:`~repro.service.remote.WorkerSupervisor` or a
   concurrent batch's refresh) is admitted back while shards remain.

Determinism: every stochastic spec carries its own explicit seed, so batch
results are bit-identical to evaluating the specs serially, whatever the
sharding, worker count or remote/local placement — pull-based placement
changes *where* a shard runs, never *what* a seeded spec computes.  The
grid helpers (:func:`montecarlo_grid_specs`, :func:`simulate_grid_specs`)
derive per-scenario seeds from one root seed via
:func:`repro.simulation.monte_carlo.spawn_seeds` with exactly the
derivation :func:`repro.analysis.sweep.sweep_random_faults` uses, so a
scheduled grid reproduces the serial sweep bit for bit.

Long grids need not block: :meth:`ScenarioScheduler.submit_job` runs a
batch on a background thread and returns a :class:`BatchJob` handle with
live partial-progress counts — the object the HTTP server exposes as
``POST /jobs`` + ``GET /jobs/<id>``.  A finished job **spills** its result
payloads into the content-addressed cache and retains only the keys (plus
the canonical spec JSON texts as a recompute fallback), so
:data:`MAX_RETAINED_JOBS` of large grids never pin full payload copies in
coordinator memory; ``GET /jobs/<id>`` rehydrates bit-identically on
demand.

Durability: constructed with a :class:`~repro.service.journal.JobJournal`,
the scheduler journals every submission, per-shard completion and terminal
state; :meth:`ScenarioScheduler.recover_jobs` replays that journal on
startup — finished jobs come back as spilled handles, interrupted jobs are
*resumed* with only their unjournaled shards re-run (completed payloads
are read back from the disk cache under their journaled keys).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import uuid
import warnings
import weakref
import zlib
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_for_exits
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analysis.sweep import _pool_context, suggest_shard_size
from ..exceptions import InvalidProblemError
from ..simulation.engine import DEFAULT_ENGINE
from ..simulation.monte_carlo import SeedLike, spawn_seeds
from . import telemetry
from .cache import ResultCache
from .execute import ensure_executable, execute_shard, execute_spec
from .journal import JobJournal, JournalJobRecord
from .remote import RemoteWorker, RemoteWorkerError, RemoteWorkerPool
from .telemetry import _NULL_SPAN, MetricsRegistry, Tracer
from .spec import (
    ENGINE_VERSION,
    MonteCarloFaultsSpec,
    ScenarioSpec,
    SimulateSpec,
    spec_from_dict,
)

__all__ = [
    "BatchResult",
    "BatchJob",
    "ScenarioScheduler",
    "simulate_grid_specs",
    "montecarlo_grid_specs",
]

#: How many finished jobs the scheduler remembers for ``GET /jobs/<id>``.
MAX_RETAINED_JOBS = 256

#: Batches with fewer specs than this skip the dedup / cache_consult /
#: shard_build phase spans (the batch and shard spans are always
#: recorded).  Remote workers serve every shard as a small ``POST
#: /batch``, and three ~0-duration phase spans per shard would dominate
#: that hot path's tracing cost while saying nothing useful.
_PHASE_SPAN_MIN_SPECS = 16

#: Request-level (4xx/malformed) rejections in a row after which a batch
#: retires a worker's dispatcher thread for the rest of the batch.  The
#: worker stays alive (single rejections are shard-specific), but a worker
#: rejecting everything must not claim the whole queue.
_MAX_CONSECUTIVE_REJECTS = 3


WorkersLike = Union[RemoteWorkerPool, Sequence[Union[str, RemoteWorker]]]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one scheduled batch.

    ``results`` is in scenario order (duplicates included — they share the
    payload of their first occurrence).  The counters make the dedup,
    cache and dispatch savings auditable: ``evaluated`` is the number of
    *engine* evaluations actually performed, at most ``num_unique`` and
    often far below ``num_scenarios``; ``remote_evaluated`` of those ran
    on remote workers, and ``failovers`` counts shards that had to be
    re-dispatched (back onto the work queue, or onto the local pool) after
    a worker failed.
    """

    results: Tuple[dict, ...]
    num_scenarios: int
    num_unique: int
    cache_hits: int
    evaluated: int
    num_shards: int
    remote_evaluated: int = 0
    failovers: int = 0
    num_remote_workers: int = 0
    #: Wall-clock seconds the batch took, measured on the scheduler's
    #: monotonic clock from dedup to last shard.
    duration_seconds: float = 0.0
    #: Unix timestamp the batch started.  Batch counters are **per-batch**
    #: (they restart from zero every ``run_batch``), unlike the
    #: process-lifetime ``/cache/stats`` counters; ``since`` marks where
    #: this batch's window began, symmetric with the cache payload's
    #: ``since`` so scrapers can anchor both kinds of counter in time.
    since: float = 0.0
    #: Trace id of the batch's span tree (the job id for scheduled jobs);
    #: feed it to ``GET /trace/<id>`` / ``repro trace``.
    trace_id: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form (the ``stats`` block of ``POST /batch``)."""
        return {
            "num_scenarios": self.num_scenarios,
            "num_unique": self.num_unique,
            "num_duplicates": self.num_scenarios - self.num_unique,
            "cache_hits": self.cache_hits,
            "evaluated": self.evaluated,
            "num_shards": self.num_shards,
            "remote_evaluated": self.remote_evaluated,
            "failovers": self.failovers,
            "num_remote_workers": self.num_remote_workers,
            "duration_seconds": self.duration_seconds,
            "since": self.since,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_stats(
        cls,
        stats: Optional[Mapping[str, object]] = None,
        num_scenarios: int = 0,
        num_unique: int = 0,
    ) -> "BatchResult":
        """Inverse of :meth:`to_dict` for journal rehydration.

        The results tuple is empty (a recovered job rehydrates payloads
        from the cache by key); missing or non-numeric counters fall back
        to the given defaults so a partially journaled stats block still
        yields a well-formed result.
        """
        block = dict(stats or {})

        def counter(name: str, default: int = 0) -> int:
            value = block.get(name, default)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return default
            return int(value)

        def seconds(name: str) -> float:
            value = block.get(name, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return 0.0
            return float(value)

        trace_id = block.get("trace_id", "")
        return cls(
            results=(),
            num_scenarios=counter("num_scenarios", num_scenarios),
            num_unique=counter("num_unique", num_unique),
            cache_hits=counter("cache_hits"),
            evaluated=counter("evaluated"),
            num_shards=counter("num_shards"),
            remote_evaluated=counter("remote_evaluated"),
            failovers=counter("failovers"),
            num_remote_workers=counter("num_remote_workers"),
            duration_seconds=seconds("duration_seconds"),
            since=seconds("since"),
            trace_id=trace_id if isinstance(trace_id, str) else "",
        )


class BatchJob:
    """Handle to one asynchronously running batch with partial progress.

    ``completed``/``total`` count *unique* scenarios resolved (cache hits
    count immediately, evaluations as their shard completes), so pollers
    see monotone progress even on heavily deduplicated grids.  Until the
    batch has deduplicated its input the exact unique total is unknown;
    :meth:`to_dict` then reports ``num_scenarios`` (an upper bound) so the
    progress block is always well-formed.  Thread-safe: the batch thread
    writes, any number of HTTP poller threads read.

    When constructed with a ``cache`` (the scheduler always passes its
    own), a finished job *spills*: payloads go into the content-addressed
    cache and the job retains only the ordered cache keys plus each unique
    scenario's canonical spec JSON text (compressed).  :meth:`to_dict` and
    :meth:`result` rehydrate from the cache on demand, recomputing any
    evicted entry from its retained spec — bit-identical either way, since
    specs are deterministic under their embedded seeds.  A job whose unique result
    count exceeds the cache's in-memory capacity (with no disk tier to
    fall back on) declines to spill and keeps its payloads: rehydrating it
    would recompute most of the grid on every poll.
    """

    def __init__(
        self,
        job_id: str,
        num_scenarios: int,
        cache: Optional[ResultCache] = None,
        spill_results: bool = True,
        recovered: bool = False,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        self.job_id = job_id
        self.num_scenarios = num_scenarios
        #: True when this handle was rebuilt (or its batch resumed) from a
        #: journal after a coordinator restart rather than submitted live.
        self.recovered = bool(recovered)
        self._cache = cache
        self._spill = bool(spill_results) and cache is not None
        self._lock = threading.Lock()
        self._state = "running"
        self._completed = 0
        self._total: Optional[int] = None
        self._batch: Optional[BatchResult] = None
        self._result_keys: Optional[Tuple[str, ...]] = None
        #: Spilled jobs only: the canonical spec JSON texts of the unique
        #: keys in ``_result_keys`` order (see :func:`_pack_spec_texts`), to
        #: recompute a payload evicted from the cache.  Assigned once when
        #: the job finishes and never mutated after, so readers may use it
        #: outside the lock.
        self._spec_texts: Optional[bytes] = None
        self._error: Optional[str] = None
        self._done = threading.Event()
        # Row streaming: per-scenario cache keys (known at submit time)
        # plus the payloads of keys resolved so far.  The condition guards
        # the payload map and wakes blocked iter_rows subscribers whenever
        # new rows land or the job reaches a terminal state.
        self._row_keys: Optional[Tuple[str, ...]] = (
            tuple(keys) if keys is not None else None
        )
        self._rows_cond = threading.Condition()
        self._row_payloads: Dict[str, dict] = {}

    # -- written by the batch thread -----------------------------------
    def _on_progress(self, completed: int, total: int) -> None:
        with self._lock:
            self._total = total
            if completed > self._completed:
                self._completed = completed

    def _publish_rows(self, rows: Sequence[Tuple[int, str, dict]]) -> None:
        """Make finished rows available to :meth:`iter_rows` subscribers.

        Idempotent per key: a shard re-executed after a pool or worker
        failover republishes the same (key, payload) pairs, and the first
        payload wins — subscribers therefore never see a duplicate row.
        """
        with self._rows_cond:
            for _index, key, payload in rows:
                self._row_payloads.setdefault(key, payload)
            self._rows_cond.notify_all()

    def _finish(
        self,
        batch: BatchResult,
        keys: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[ScenarioSpec]] = None,
    ) -> None:
        spill = self._spill and keys is not None and specs is not None
        result_keys: Optional[Tuple[str, ...]] = None
        spec_texts: Optional[bytes] = None
        if spill:
            first_payload: Dict[str, dict] = {}
            texts: List[str] = []
            for key, spec, payload in zip(keys, specs, batch.results):
                if key not in first_payload:
                    first_payload[key] = payload
                    texts.append(spec.canonical_json())
            # Spill only when the cache can actually retain the result
            # set: the in-memory LRU fits it, or a disk tier (which never
            # evicts) is configured.  Otherwise rehydration would recompute
            # most of the grid on *every* poll — each put() evicting an
            # earlier key — so an oversized job keeps its payloads instead.
            if (
                len(first_payload) > self._cache.max_entries
                and not self._cache.persistent
            ):
                spill = False
        if spill:
            # Make sure every payload is in the cache before dropping it
            # from the job (run_batch already stored computed entries; this
            # covers a churned LRU at the cost of one lookup per unique
            # key).
            for key, payload in first_payload.items():
                self._cache.ensure(key, payload)
            result_keys = tuple(keys)
            if result_keys == self._row_keys:
                result_keys = self._row_keys
            spec_texts = _pack_spec_texts(texts)
            batch = replace(batch, results=())
        with self._lock:
            self._batch = batch
            self._result_keys = result_keys
            self._spec_texts = spec_texts
            self._completed = batch.num_unique
            self._total = batch.num_unique
            self._state = "done"
        self._done.set()
        with self._rows_cond:
            if result_keys is not None:
                # Spilled: streamed payloads now live in the cache — drop
                # the row map so the job pins no payload copies; late
                # subscribers rehydrate per key instead.
                self._row_payloads.clear()
            self._rows_cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = str(error)
            self._state = "error"
        self._done.set()
        with self._rows_cond:
            self._rows_cond.notify_all()

    # -- read by pollers ------------------------------------------------
    @property
    def state(self) -> str:
        """``running``, ``done`` or ``error``."""
        with self._lock:
            return self._state

    @property
    def done(self) -> bool:
        """True once the batch finished (successfully or not)."""
        return self._done.is_set()

    @property
    def spilled(self) -> bool:
        """True once the finished results live in the cache, not the job."""
        with self._lock:
            return self._result_keys is not None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; returns False on timeout."""
        return self._done.wait(timeout)

    def iter_rows(self, start: int = 0):
        """Yield ``(index, key, payload)`` per scenario row, in index order.

        A row becomes available the moment the shard computing its key
        lands (cache hits at batch start), so a subscriber sees the first
        row long before the batch finishes.  Blocks between rows.  The
        stream is pull-based — any number of subscribers each receive the
        full ordered sequence independently, and ``start`` is a resume
        cursor skipping rows below that index.  On a finished job
        (including spilled and journal-recovered handles) rows rehydrate
        from the cache by key, recomputing evicted entries from the
        retained spec.  Raises :class:`InvalidProblemError` once the
        stream reaches a row of a failed job.
        """
        if start < 0:
            raise InvalidProblemError(f"row start must be >= 0, got {start}")
        for index in range(start, self.num_scenarios):
            key: Optional[str] = None
            payload: Optional[dict] = None
            with self._rows_cond:
                while True:
                    keys = (
                        self._row_keys
                        if self._row_keys is not None
                        else self._result_keys
                    )
                    if keys is not None:
                        key = keys[index]
                        payload = self._row_payloads.get(key)
                        if payload is not None:
                            break
                    if self._done.is_set():
                        break
                    # The timeout is pure defence in depth: _finish/_fail
                    # notify under the condition, so a terminal state is
                    # never silently missed.
                    self._rows_cond.wait(1.0)
            if payload is None:
                payload, key = self._finished_row(index)
            yield index, key, payload

    def _finished_row(self, index: int) -> Tuple[dict, str]:
        """One row of a terminal job: ``(payload, key)``, raising on error.

        Spilled jobs fetch the payload from the cache (recomputing an
        evicted entry from its retained canonical spec — bit-identical by
        seeded determinism); unspilled jobs index straight into the
        retained results tuple.
        """
        with self._lock:
            error = self._error
            batch = self._batch
            keys = self._row_keys if self._row_keys is not None else self._result_keys
            spilled = self._result_keys is not None
        if batch is None:
            raise InvalidProblemError(f"job {self.job_id} failed: {error}")
        key = keys[index] if keys is not None else ""
        if not spilled:
            return batch.results[index], key
        return self._spilled_payload(key), key

    def _spilled_payload(self, key: str) -> dict:
        """A spilled job's payload for ``key``: cached, or recomputed and stored."""
        assert self._cache is not None and self._spec_texts is not None
        payload = self._cache.get(key)
        if payload is None:
            texts = zlib.decompress(self._spec_texts).decode("utf-8").split("\n")
            text = dict(zip(dict.fromkeys(self._result_keys), texts))[key]
            payload = execute_spec(spec_from_dict(json.loads(text)))
            self._cache.put(key, payload)
        return payload

    def _rehydrated_results(self) -> List[dict]:
        """Rebuild the ordered results list from the cache.

        An entry evicted from every cache tier is recomputed from its
        retained canonical spec — deterministic seeds make the recomputed
        payload bit-identical — and stored back for the next poller.  Runs
        without the job lock so a recompute never blocks progress polls.
        """
        with self._lock:
            keys = self._result_keys
        assert keys is not None
        payload_by_key: Dict[str, dict] = {}
        for key in keys:
            if key not in payload_by_key:
                payload_by_key[key] = self._spilled_payload(key)
        return [payload_by_key[key] for key in keys]

    def result(self, timeout: Optional[float] = None) -> BatchResult:
        """The finished :class:`BatchResult`; raises on failure/timeout.

        For a spilled job the ``results`` tuple is rehydrated from the
        cache on each call.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still running")
        with self._lock:
            batch = self._batch
            spilled = self._result_keys is not None
            error = self._error
        if batch is None:
            raise InvalidProblemError(f"job {self.job_id} failed: {error}")
        if not spilled:
            return batch
        return replace(batch, results=tuple(self._rehydrated_results()))

    def to_dict(self, include_results: bool = True) -> dict:
        """JSON form for ``GET /jobs/<id>``: state, progress, result."""
        with self._lock:
            total = self._total if self._total is not None else self.num_scenarios
            payload: Dict[str, object] = {
                "job_id": self.job_id,
                "state": self._state,
                "num_scenarios": self.num_scenarios,
                "progress": {
                    "completed": self._completed,
                    "total": total,
                },
            }
            if self.recovered:
                payload["recovered"] = True
            if self._error is not None:
                payload["error"] = self._error
            batch = self._batch
            spilled = self._result_keys is not None
            if batch is not None:
                payload["stats"] = batch.to_dict()
                payload["spilled"] = spilled
                if include_results and not spilled:
                    payload["results"] = list(batch.results)
        if batch is not None and include_results and spilled:
            payload["results"] = self._rehydrated_results()
        return payload


class _ShardQueue:
    """Thread-safe pull queue of shard indices for one batch.

    ``pop`` hands work to whichever executor asks first — that is the
    whole backpressure mechanism.  ``push_front`` returns the shard a
    dying worker held so the next puller takes it immediately, preserving
    approximate ordering.

    Every mutation moves ``gauge`` (``repro_shard_queue_depth``) by the
    delta, so concurrent batches sharing one metrics registry sum to the
    cluster-visible queue depth and an emptied batch nets to zero.
    """

    def __init__(self, indices: Iterable[int], gauge: telemetry.Gauge) -> None:
        self._items = deque(indices)
        self._lock = threading.Lock()
        self._gauge = gauge
        if self._items:
            gauge.add(len(self._items))

    def pop(self) -> Optional[int]:
        with self._lock:
            item = self._items.popleft() if self._items else None
        if item is not None:
            self._gauge.add(-1)
        return item

    def push_front(self, index: int) -> None:
        with self._lock:
            self._items.appendleft(index)
        self._gauge.add(1)

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def drain(self) -> List[int]:
        with self._lock:
            items = list(self._items)
            self._items.clear()
        if items:
            self._gauge.add(-len(items))
        return items


class _PoolFailed(Exception):
    """The local process pool, not the work, failed a shard."""


class _LocalPool:
    """The one warm local process pool of this process.

    Built lazily on first use with ``os.cpu_count()`` processes and the
    start method :func:`repro.analysis.sweep._pool_context` picks at that
    moment (forkserver once other threads are alive, as in ``repro
    serve``), then reused by every batch of every scheduler in the process.
    Building a pool costs about half a second; a served batch of small
    specs costs a few milliseconds, so a pool per batch was almost all
    overhead.  A pool per scheduler would bring that cost back wherever a
    scheduler lives for one batch: :meth:`repro.experiment.Experiment.run`
    without a scheduler, or servebench's traced split, where it measured
    464 ms of executor overhead on a 21 ms sim-small batch (2 CPUs).
    Hence one pool per process, shared.  A pool that lost a child (or
    was retired after a failure) is replaced on the next :meth:`get`;
    :meth:`close` stops the children and the next :meth:`get` builds a
    fresh pool.

    The pool lives only while a scheduler does: every
    :class:`ScenarioScheduler` :meth:`attach`-es itself, and the pool is
    closed once the last one is garbage-collected.  Idle children would
    otherwise keep the multiprocessing forkserver and resource tracker
    alive, so a process that has dropped its schedulers could not stop
    those helpers.
    """

    def __init__(self) -> None:
        # Re-entrant: a garbage collection inside get() can run a
        # scheduler's finalizer (_detach) on the same thread.
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._owners = 0

    def attach(self, owner: object) -> None:
        """Keep the pool available for as long as ``owner`` lives."""
        with self._lock:
            self._owners += 1
        # Not at exit: concurrent.futures stops every pool then.
        weakref.finalize(owner, self._detach).atexit = False

    def _detach(self) -> None:
        with self._lock:
            self._owners -= 1
            if self._owners:
                return
            executor, self._executor = self._executor, None
        if executor is not None:
            _stop(executor, wait=True)

    def get(self) -> Optional[ProcessPoolExecutor]:
        """The live pool, built on demand; ``None`` when none can be built."""
        with self._lock:
            executor = self._executor
            if executor is not None and _lost_a_child(executor):
                _stop(executor, wait=False)
                executor = self._executor = None
            if executor is None:
                try:
                    executor = ProcessPoolExecutor(
                        max_workers=os.cpu_count() or 1, mp_context=_pool_context()
                    )
                except OSError:
                    return None
                self._executor = executor
            return executor

    def retire(self, executor: ProcessPoolExecutor) -> None:
        """Stop using ``executor`` after a failure; the next get() rebuilds.

        No wait: futures other batches still hold on it resolve (or fail
        as broken) on their own.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
        _stop(executor, wait=False)

    def close(self) -> None:
        """Shut the pool down and wait for its processes to exit."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _stop(executor, wait=True)


def _processes(executor: ProcessPoolExecutor) -> list:
    return list((getattr(executor, "_processes", None) or {}).values())


def _lost_a_child(executor: ProcessPoolExecutor) -> bool:
    """True when ``executor`` is broken, shut down or has a dead process.

    The pool's manager thread notices a dead child only asynchronously;
    checking the process sentinels (a zero-timeout poll, no reaping) lets
    the next batch start on a fresh pool instead of failing over mid-run.
    """
    if getattr(executor, "_broken", False) or getattr(
        executor, "_shutdown_thread", False
    ):
        return True
    try:
        sentinels = [process.sentinel for process in _processes(executor)]
    except ValueError:  # a process object already closed
        return True
    return bool(sentinels) and bool(wait_for_exits(sentinels, timeout=0))


def _stop(executor: ProcessPoolExecutor, wait: bool) -> None:
    """Shut ``executor`` down; first terminate its children if one died.

    An idle child waits for work holding the call queue's read lock.  If
    that child is killed, its siblings block on the lock for good, and
    when the shutdown wakes the pool's manager thread before it has seen
    the death, the manager joins those siblings forever — and so does the
    interpreter at exit.  Terminating them first makes every shutdown
    finish.
    """
    if _lost_a_child(executor):
        for process in _processes(executor):
            try:
                process.terminate()
            except ValueError:  # already closed by the pool itself
                pass
    executor.shutdown(wait=wait)


#: Shared by every :class:`ScenarioScheduler` in the process.
_LOCAL_POOL = _LocalPool()


class ScenarioScheduler:
    """Evaluate scenario specs through the cache, the pool and remote workers.

    Parameters
    ----------
    cache:
        The :class:`~repro.service.cache.ResultCache` consulted before any
        computation; a private in-memory cache is created when omitted.
    engine_version:
        Version string folded into every cache key (see
        :data:`repro.service.spec.ENGINE_VERSION`).
    workers:
        Default remote executors for every batch: a
        :class:`~repro.service.remote.RemoteWorkerPool` or a sequence of
        ``repro serve`` base URLs.  ``None`` keeps the scheduler
        single-machine; per-call ``workers=`` overrides this default.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`.  When given,
        every :meth:`submit_job` submission, per-shard completion and
        terminal state is journaled (best-effort — a failing journal warns,
        it never fails a batch), and :meth:`recover_jobs` can rebuild the
        job table after a restart.
    metrics / tracer:
        The :class:`~repro.service.telemetry.MetricsRegistry` and
        :class:`~repro.service.telemetry.Tracer` batch metrics and spans
        are recorded into.  Default to the process-wide
        :data:`~repro.service.telemetry.METRICS` /
        :data:`~repro.service.telemetry.TRACER` (what a normal ``repro
        serve`` process wants — one ``/metrics`` covers everything); pass
        private instances to isolate several in-process schedulers, as the
        telemetry tests do.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        engine_version: str = ENGINE_VERSION,
        workers: Optional[WorkersLike] = None,
        journal: Optional[JobJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.engine_version = engine_version
        self.worker_pool = self._as_pool(workers)
        self.journal = journal
        self.metrics = metrics if metrics is not None else telemetry.METRICS
        self.tracer = tracer if tracer is not None else telemetry.TRACER
        self._jobs: "OrderedDict[str, BatchJob]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._evicted_jobs = 0
        _LOCAL_POOL.attach(self)
        # Instruments bound once: every registry access canonicalises the
        # label set under the registry lock (~1.5 us), and run_batch is
        # also the per-shard hot path of a remote worker serving
        # ``POST /batch``, where that lookup cost is pure dispatch
        # overhead.
        metrics = self.metrics
        self._batches_total = metrics.counter(
            "repro_batches_total", help="Batches completed by this scheduler."
        )
        self._batch_seconds = metrics.histogram(
            "repro_batch_seconds", help="End-to-end batch wall-clock time."
        )
        self._scenarios_total = {
            outcome: metrics.counter(
                "repro_scenarios_total",
                {"outcome": outcome},
                help="Unique-scenario resolutions by outcome "
                "(duplicates count as deduped).",
            )
            for outcome in ("deduped", "cache_hit", "evaluated")
        }
        self._shard_seconds = {
            executor: metrics.histogram(
                "repro_shard_seconds",
                {"executor": executor},
                help="Per-shard execution time as seen by the scheduler "
                "(queue pop to payloads in hand), by executor.",
            )
            for executor in ("local-serial", "local-pool", "remote")
        }
        self._failovers_total = metrics.counter(
            "repro_failovers_total",
            help="Shards re-dispatched after a remote "
            "worker failure or rejection.",
        )
        self._jobs_running = metrics.gauge(
            "repro_jobs_running", help="Background batch jobs currently executing."
        )
        self._queue_depth = metrics.gauge(
            "repro_shard_queue_depth",
            help="Shards waiting on the work queues of in-flight "
            "batches (summed across concurrent batches).",
        )

    def _as_pool(self, workers: Optional[WorkersLike]) -> Optional[RemoteWorkerPool]:
        if workers is None:
            return None
        if isinstance(workers, RemoteWorkerPool):
            return workers
        workers = list(workers)
        if not workers:
            return None
        return RemoteWorkerPool(workers, engine_version=self.engine_version)

    def _journal_write(self, method: Callable, *args, **kwargs) -> None:
        """Run one journal write, degrading to a warning on failure.

        Durability is best-effort by contract: a full disk or a journal on
        a dying filesystem must never fail a batch that can still compute.
        """
        try:
            method(*args, **kwargs)
        except Exception as error:
            warnings.warn(
                f"journal write failed ({method.__name__}): {error}",
                RuntimeWarning,
                stacklevel=2,
            )

    def close(self) -> None:
        """Stop the warm local process pool and wait for its children.

        The pool is process-wide (:class:`_LocalPool`), so this stops it
        for every scheduler in the process; any later batch — on this
        scheduler or another — builds a fresh one on demand.
        """
        _LOCAL_POOL.close()

    # ------------------------------------------------------------------
    def evaluate(self, spec: ScenarioSpec) -> Tuple[dict, bool]:
        """Evaluate one scenario; returns ``(payload, was_cached)``."""
        key = spec.cache_key(self.engine_version)
        payload = self.cache.get(key)
        if payload is not None:
            return payload, True
        payload = execute_spec(spec)
        self.cache.put(key, payload)
        return payload, False

    def run_batch(
        self,
        specs: Iterable[ScenarioSpec],
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[WorkersLike] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        on_rows: Optional[Callable[[Sequence[Tuple[int, str, dict]]], None]] = None,
        _keys: Optional[Sequence[str]] = None,
        _journal_job_id: Optional[str] = None,
    ) -> BatchResult:
        """Evaluate a heterogeneous scenario list with dedup + cache + shards.

        ``max_workers`` caps the shards the local slot keeps in flight on
        the warm process pool (``1`` forces serial evaluation).
        ``shard_size`` is the number of specs grouped into one dispatch
        unit; ``None`` picks a size that gives every executor
        a few shards.  ``workers`` selects remote executors for this batch
        (defaulting to the pool given at construction).  ``progress`` is
        called as ``progress(completed_unique, total_unique)`` while the
        batch runs; invocations are serialised under the batch's progress
        lock, so consecutive calls never report a lower count after a
        higher one — keep the callback fast and never let it raise.
        ``on_rows`` receives finished *scenario rows* as
        ``[(index, key, payload), ...]`` — cache hits at batch start, then
        every shard's rows the moment it completes (duplicate scenarios
        resolve together with the first occurrence of their key); calls
        are serialised under the same progress lock.  A shard re-executed
        after a failover may republish rows, so the callback must be
        idempotent per key (:meth:`BatchJob._publish_rows` is).  None
        of these parameters affect the numeric results.

        Every batch is traced (batch span → dedup / cache_consult /
        shard_build phase spans → one span per executed shard) under the
        job id when journaled, else a fresh ``trace_id`` reported in the
        stats block, and timed into the scheduler's metrics registry.
        Batches under ``_PHASE_SPAN_MIN_SPECS`` specs skip the three
        phase spans (worker-side shard evaluations are such batches —
        the per-shard tracing cost stays at two spans).
        Telemetry is observation only: payloads are bit-identical with it
        on, off or absent.
        """
        specs = list(specs)
        # Fail fast on registry drift: a registered-but-unhandled kind must
        # surface as a structured error before any shard is dispatched.
        ensure_executable(specs)
        started_at = time.time()
        start = time.monotonic()
        # Jobs trace under their job id, so ``GET /trace/<job_id>`` works
        # straight off the handle; synchronous batches get a fresh id,
        # reported back through the stats block.
        trace_id = _journal_job_id if _journal_job_id is not None else uuid.uuid4().hex
        with self.tracer.span(
            "batch", trace_id=trace_id, attrs={"num_scenarios": len(specs)}
        ) as batch_span:
            batch = self._run_batch_inner(
                specs,
                max_workers,
                shard_size,
                workers,
                progress,
                on_rows,
                _keys,
                _journal_job_id,
                batch_span,
            )
        duration = time.monotonic() - start
        batch = replace(
            batch, duration_seconds=duration, since=started_at, trace_id=trace_id
        )
        self._batches_total.inc()
        self._batch_seconds.observe(duration)
        for outcome, count in (
            ("deduped", batch.num_scenarios - batch.num_unique),
            ("cache_hit", batch.cache_hits),
            ("evaluated", batch.evaluated),
        ):
            self._scenarios_total[outcome].inc(count)
        return batch

    def _run_batch_inner(
        self,
        specs: List[ScenarioSpec],
        max_workers: Optional[int],
        shard_size: Optional[int],
        workers: Optional[WorkersLike],
        progress: Optional[Callable[[int, int], None]],
        on_rows: Optional[Callable[[Sequence[Tuple[int, str, dict]]], None]],
        _keys: Optional[Sequence[str]],
        _journal_job_id: Optional[str],
        batch_span,
    ) -> BatchResult:
        """The body of :meth:`run_batch`, traced under ``batch_span``.

        Returns the batch *without* the timing fields —
        :meth:`run_batch` measures the full duration (including this
        method's own bookkeeping) and grafts them on via ``replace``.
        """
        # ``_keys`` lets submit_job hand down the cache keys it already
        # computed for the result spill instead of hashing every spec a
        # second time; it must be spec-for-spec aligned.
        keys = (
            list(_keys)
            if _keys is not None
            else [spec.cache_key(self.engine_version) for spec in specs]
        )

        # Phase spans (dedup / cache_consult / shard_build) carry signal
        # only on batches big enough for the phases to take measurable
        # time.  Skipping them below the threshold keeps the worker-side
        # hot path lean: every remote shard arrives as a small
        # ``POST /batch``, and three near-zero-duration spans per shard
        # would be most of that batch's tracing cost (shard and batch
        # spans are always recorded).
        trace_phases = len(specs) >= _PHASE_SPAN_MIN_SPECS

        # Dedup: first occurrence of each key owns the evaluation.
        unique_keys: List[str] = []
        unique_specs: List[ScenarioSpec] = []
        seen: Dict[str, int] = {}
        with self.tracer.span("dedup") if trace_phases else _NULL_SPAN as span:
            for key, spec in zip(keys, specs):
                if key not in seen:
                    seen[key] = len(unique_keys)
                    unique_keys.append(key)
                    unique_specs.append(spec)
            span.set_attr("num_unique", len(unique_keys))

        # Cache consultation, one lookup per unique key.
        payload_by_key: Dict[str, dict] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        hit_keys: List[str] = []
        cache_hits = 0
        with self.tracer.span("cache_consult") if trace_phases else _NULL_SPAN as span:
            for key, spec in zip(unique_keys, unique_specs):
                payload = self.cache.get(key)
                if payload is not None:
                    payload_by_key[key] = payload
                    hit_keys.append(key)
                    cache_hits += 1
                else:
                    pending.append((key, spec))
            span.set_attr("cache_hits", cache_hits)

        journal_id = _journal_job_id if self.journal is not None else None
        if journal_id is not None and hit_keys:
            # Cache hits are durably resolved for this job too: journaling
            # them keeps the completion set equal to the job's key set at
            # the end of an uninterrupted run.
            self._journal_write(self.journal.record_completed, journal_id, hit_keys)

        total_unique = len(unique_keys)
        progress_lock = threading.Lock()
        completed = {"specs": cache_hits}

        # Scenario indices per cache key, duplicates included: when a key
        # resolves, *every* row sharing it becomes ready at once.
        indices_by_key: Dict[str, List[int]] = {}
        if on_rows is not None:
            for index, key in enumerate(keys):
                indices_by_key.setdefault(key, []).append(index)

        def publish(resolved: Sequence[Tuple[str, dict]]) -> None:
            # Caller holds progress_lock: row publication is serialised
            # with progress notes, so a subscriber that already saw row N
            # can never observe a progress count from before N resolved.
            if on_rows is None:
                return
            rows = [
                (index, key, payload)
                for key, payload in resolved
                for index in indices_by_key.get(key, ())
            ]
            if rows:
                on_rows(rows)

        def note(num_specs: int, resolved: Sequence[Tuple[str, dict]] = ()) -> None:
            if progress is None and on_rows is None:
                return
            # The callbacks fire while the lock is held: concurrent
            # dispatcher threads would otherwise race between computing
            # ``done`` and reporting it, letting a lower count land after a
            # higher one.
            with progress_lock:
                publish(resolved)
                if progress is not None:
                    completed["specs"] = min(
                        total_unique, completed["specs"] + num_specs
                    )
                    progress(completed["specs"], total_unique)

        if progress is not None or on_rows is not None:
            with progress_lock:
                publish([(key, payload_by_key[key]) for key in hit_keys])
                if progress is not None:
                    progress(cache_hits, total_unique)

        pool = self.worker_pool if workers is None else self._as_pool(workers)
        if pool is None:
            # No workers: the same dispatch loop with zero remote executors.
            pool = RemoteWorkerPool((), engine_version=self.engine_version)
        num_executors = 1 + len(pool)
        with self.tracer.span("shard_build") if trace_phases else _NULL_SPAN as span:
            shards = _split_shards(
                [spec for _key, spec in pending], shard_size, max_workers, num_executors
            )
            # Key lists aligned shard-for-shard with ``shards`` (same
            # slicing), so a completed shard can be cached + journaled
            # immediately.
            shard_keys: List[List[str]] = []
            offset = 0
            for shard in shards:
                chunk = pending[offset : offset + len(shard)]
                shard_keys.append([key for key, _spec in chunk])
                offset += len(shard)
            span.set_attr("num_shards", len(shards))

        def record(index: int, payloads: Sequence[dict]) -> None:
            # Called (possibly from a dispatcher thread) the moment shard
            # ``index`` completes: its payloads become durable — cache
            # first, then the journal row that declares them recoverable —
            # before the progress note, so a crash can under-journal but
            # never journal a key whose payload was not stored.
            for key, payload in zip(shard_keys[index], payloads):
                self.cache.put(key, payload)
            if journal_id is not None:
                self._journal_write(
                    self.journal.record_completed, journal_id, shard_keys[index]
                )
            note(len(shards[index]), list(zip(shard_keys[index], payloads)))

        shard_payloads, dispatch = self._dispatch(
            shards, pool, max_workers, record, batch_span=batch_span
        )
        computed = [payload for shard in shard_payloads for payload in shard]
        for (key, _spec), payload in zip(pending, computed):
            payload_by_key[key] = payload

        return BatchResult(
            results=tuple(payload_by_key[key] for key in keys),
            num_scenarios=len(specs),
            num_unique=total_unique,
            cache_hits=cache_hits,
            evaluated=len(pending),
            num_shards=len(shards),
            remote_evaluated=dispatch["remote_specs"],
            failovers=dispatch["failovers"],
            num_remote_workers=dispatch["num_workers"],
        )

    # ------------------------------------------------------------------
    def _note_shard(
        self,
        batch_span,
        index: int,
        num_specs: int,
        executor: str,
        start: float,
        worker: Optional[str] = None,
        queue_wait: Optional[float] = None,
        serialize_seconds: Optional[float] = None,
    ) -> None:
        """Record one executed shard: a metric observation plus a trace span.

        Shard spans parent explicitly to the batch span because they are
        recorded from dispatcher threads (or retroactively for pool
        futures), where the thread-local implicit-parent stack is empty.
        Exactly one ``shard`` span is recorded per *successful* execution;
        failed remote attempts appear as ``failover`` spans instead, so a
        healthy batch's shard-span count equals its shard count.
        """
        duration = time.monotonic() - start
        self._shard_seconds[executor].observe(duration)
        if batch_span is None or not batch_span.trace_id:
            return
        attrs: Dict[str, object] = {
            "shard": index,
            "num_specs": num_specs,
            "executor": executor,
        }
        if worker is not None:
            attrs["worker"] = worker
        if queue_wait is not None:
            attrs["queue_wait_seconds"] = queue_wait
        if serialize_seconds is not None:
            attrs["serialize_seconds"] = serialize_seconds
        self.tracer.record_span(
            "shard",
            batch_span.trace_id,
            start,
            duration,
            parent=batch_span,
            attrs=attrs,
        )

    def _dispatch(
        self,
        shards: List[tuple],
        pool: RemoteWorkerPool,
        max_workers: Optional[int],
        record: Callable[[int, Sequence[dict]], None],
        batch_span=None,
    ) -> Tuple[List[list], Dict[str, int]]:
        """Pull-based dispatch over the local slot plus live remote workers.

        This is the one dispatch loop: a batch without workers runs it with
        an empty ``pool``, i.e. zero remote executors, so the local slot
        drains the whole queue.  All shard indices go onto one shared
        :class:`_ShardQueue`.  One
        dispatcher thread per live worker pulls the next index whenever its
        worker is free, and the calling thread pulls for the local process
        pool (submitting one shard per free process slot and refilling as
        each completes — no round barrier; see :meth:`_local_slot`), so
        placement follows each executor's actual throughput: a slow or
        loaded worker simply pulls less often (backpressure-aware), while
        results stay bit-identical because placement never changes what a
        seeded spec computes.  ``record(index, payloads)`` fires once per
        completed shard, from whichever thread finished it — the caller
        uses it for cache/journal writes and progress accounting.

        A worker that fails fatally is marked dead, its in-flight shard
        goes back on the queue and its dispatcher thread exits; a
        request-level 4xx leaves the worker in rotation and sends just
        that shard to the local drain pass, which re-runs anything still
        missing once the queue empties.  Conversely a worker that comes
        *back* — revived by the pool's supervisor or a concurrent batch's
        refresh — is admitted mid-batch: the local slot spawns it a fresh
        dispatcher thread while work remains on the queue.
        """
        if not shards:  # fully cached: nothing to place, no health probes
            return [], {"remote_specs": 0, "failovers": 0, "num_workers": 0}
        live = pool.refresh()

        dispatch_start = time.monotonic()
        queue = _ShardQueue(range(len(shards)), gauge=self._queue_depth)
        results: List[Optional[list]] = [None] * len(shards)
        batch_counters = {"remote_specs": 0, "failovers": 0}
        counters_lock = threading.Lock()
        admit_lock = threading.Lock()
        dispatching: set = set()
        # Workers retired for rejecting too many shards in a row: still
        # alive (4xx is request-level), but never re-admitted this batch —
        # without this, maybe_admit would hand a reject-everything worker
        # a fresh dispatcher as soon as its old one retired.
        retired: set = set()
        threads: List[threading.Thread] = []
        worker_errors: List[BaseException] = []

        def run_worker(worker: RemoteWorker) -> None:
            # Pull until the queue is dry or this worker dies.  Death is a
            # thread-local decision: a concurrent supervisor probe may
            # resurrect worker.alive, but this dispatcher stays retired
            # (re-admission spawns a fresh thread).
            try:
                consecutive_rejects = 0
                while True:
                    shard_index = queue.pop()
                    if shard_index is None:
                        return
                    shard = shards[shard_index]
                    queue_wait = time.monotonic() - dispatch_start
                    serialize_start = time.monotonic()
                    shard_dicts = [spec.to_dict() for spec in shard]
                    attempt_start = time.monotonic()
                    serialize_seconds = attempt_start - serialize_start
                    try:
                        payloads = worker.evaluate_shard(shard_dicts)
                    except RemoteWorkerError as error:
                        pool.note_failover()
                        with counters_lock:
                            batch_counters["failovers"] += 1
                        self._failovers_total.inc()
                        if batch_span is not None and batch_span.trace_id:
                            self.tracer.record_span(
                                "failover",
                                batch_span.trace_id,
                                attempt_start,
                                time.monotonic() - attempt_start,
                                parent=batch_span,
                                attrs={
                                    "shard": shard_index,
                                    "worker": worker.url,
                                    "error": str(error),
                                    "worker_dead": bool(
                                        error.worker_dead
                                        or worker.alive is False
                                    ),
                                },
                            )
                        if error.worker_dead or worker.alive is False:
                            # Fatal failure — or the worker was marked dead
                            # externally (another batch, the supervisor)
                            # and evaluate_shard refuses it.  Either way
                            # this dispatcher retires instead of draining
                            # the whole queue into the local fallback.
                            pool.mark_dead(worker, error)
                            # Hand the shard to the next free executor.
                            queue.push_front(shard_index)
                            return
                        # 4xx: the worker is healthy but rejected this
                        # shard — leave it for the local drain pass to
                        # surface the real error.  A rejection round-trip
                        # is far cheaper than an evaluation, so a worker
                        # that rejects *everything* would race the healthy
                        # executors to the queue and push the whole batch
                        # into the serial drain; retire its dispatcher
                        # (worker stays alive) after a few rejections in a
                        # row.
                        consecutive_rejects += 1
                        if consecutive_rejects >= _MAX_CONSECUTIVE_REJECTS:
                            with admit_lock:
                                retired.add(id(worker))
                            return
                        continue
                    consecutive_rejects = 0
                    pool.note_remote(len(shard))
                    with counters_lock:
                        batch_counters["remote_specs"] += len(shard)
                    results[shard_index] = payloads
                    self._note_shard(
                        batch_span,
                        shard_index,
                        len(shard),
                        "remote",
                        attempt_start,
                        worker=worker.url,
                        queue_wait=queue_wait,
                        serialize_seconds=serialize_seconds,
                    )
                    record(shard_index, payloads)
            except BaseException as error:  # surfaced after the joins
                worker_errors.append(error)
            finally:
                with admit_lock:
                    dispatching.discard(id(worker))

        def spawn(worker: RemoteWorker) -> None:
            # Only ever called from the calling thread (initial live set,
            # then maybe_admit inside run_local), so `threads` needs no
            # lock.
            thread = threading.Thread(
                target=run_worker,
                args=(worker,),
                name=f"repro-remote-{len(threads)}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()

        def maybe_admit() -> None:
            # Mid-batch rejoin: a worker that flipped back to live gets a
            # dispatcher thread while shards are still waiting.
            if queue.depth() == 0:
                return
            for worker in pool.live_workers():
                with admit_lock:
                    if id(worker) in dispatching or id(worker) in retired:
                        continue
                    dispatching.add(id(worker))
                spawn(worker)

        run_local = self._local_slot(
            shards, queue, results, max_workers, record, batch_span, dispatch_start
        )

        pool.attach_queue_probe(queue.depth)
        try:
            for worker in live:
                with admit_lock:
                    dispatching.add(id(worker))
                spawn(worker)
            # The calling thread works the local slot while remote shards
            # are in flight.
            run_local(maybe_admit)
            while True:
                for thread in threads:
                    thread.join()
                if worker_errors:
                    raise worker_errors[0]  # propagate unexpected errors
                # Anything still missing: shards requeued by a worker that
                # died after the local slot finished, plus 4xx-rejected
                # shards.  Drain them locally (no new admissions, so this
                # terminates); payloads are bit-identical to what the
                # worker would have returned.
                missing = [
                    index
                    for index, payloads in enumerate(results)
                    if payloads is None
                ]
                if not missing:
                    break
                # A worker that died after the local slot drained the
                # queue left its requeued shard sitting there — and that
                # same index is in `missing`.  Drop the residue before
                # re-pushing so no shard runs twice (and note() never
                # double-counts).
                queue.drain()
                for index in reversed(missing):
                    queue.push_front(index)
                run_local(None)
        finally:
            pool.detach_queue_probe(queue.depth)

        return results, {  # type: ignore[return-value]
            "remote_specs": batch_counters["remote_specs"],
            "failovers": batch_counters["failovers"],
            "num_workers": len(live),
        }

    # ------------------------------------------------------------------
    def _local_slot(
        self,
        shards: List[tuple],
        queue: _ShardQueue,
        results: List[Optional[list]],
        max_workers: Optional[int],
        record: Callable[[int, Sequence[dict]], None],
        batch_span,
        dispatch_start: float,
    ) -> Callable[[Optional[Callable[[], None]]], None]:
        """The local executor of one batch: ``run(admit)`` drains ``queue``.

        ``run`` keeps up to ``max_workers`` shards (default: the CPU count)
        in flight on the process-wide warm pool (:data:`_LOCAL_POOL`),
        refilling as each completes, so it competes with remote workers
        for queue items instead of owning a fixed share.  One slot
        (``max_workers=1``, or a single shard) is serial evaluation on the
        calling thread, with no pool.  ``admit``, when given, runs before
        every pull — the dispatch loop's mid-batch worker rejoin.  Each
        finished shard lands in ``results`` and fires ``record(index,
        payloads)`` at once, which is what lets the caller persist shard
        results incrementally, as a crash-recoverable journal needs.

        A failure of the pool itself — a broken pool, a failed process
        spawn, a pool shut down under the batch, a shard that does not
        pickle — falls back to serial, never an infrastructure error: the
        failed pool instance is retired (the next batch builds a fresh
        one), and the rest of this batch, including later drain passes,
        runs serially.  An exception raised by the work itself propagates
        and leaves the pool in service.
        """
        slots = min(
            len(shards),
            max_workers if max_workers is not None else (os.cpu_count() or 1),
        )
        serial = slots <= 1

        def finish(index: int, executor: str, start: float) -> None:
            self._note_shard(
                batch_span,
                index,
                len(shards[index]),
                executor,
                start,
                queue_wait=start - dispatch_start,
            )
            record(index, results[index])

        def run_serially(index: int) -> None:
            start = time.monotonic()
            results[index] = execute_shard(shards[index])
            finish(index, "local-serial", start)

        def run_serial(admit: Optional[Callable[[], None]]) -> None:
            while True:
                if admit is not None:
                    admit()
                index = queue.pop()
                if index is None:
                    return
                run_serially(index)

        def run(admit: Optional[Callable[[], None]]) -> None:
            nonlocal serial
            executor = None if serial else _LOCAL_POOL.get()
            if executor is None:
                run_serial(admit)
                return
            inflight: Dict["Future[list]", int] = {}
            submitted_at: Dict["Future[list]", float] = {}
            try:
                while True:
                    if admit is not None:
                        admit()
                    while len(inflight) < slots:
                        index = queue.pop()
                        if index is None:
                            break
                        try:
                            future = executor.submit(execute_shard, shards[index])
                        except (RuntimeError, OSError) as error:
                            # A broken pool (BrokenProcessPool is a
                            # RuntimeError), one shut down by close() or
                            # another batch's retire, or a failed process
                            # spawn.  The popped index must never be lost.
                            queue.push_front(index)
                            raise _PoolFailed from error
                        inflight[future] = index
                        submitted_at[future] = time.monotonic()
                    if not inflight:
                        return
                    finished, _pending = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        try:
                            payloads = future.result()
                        except (BrokenProcessPool, pickle.PicklingError) as error:
                            # The pool lost a child, or a shard or its
                            # payloads did not pickle.  Any other exception
                            # was raised by the work and propagates.
                            raise _PoolFailed from error
                        index = inflight.pop(future)
                        results[index] = payloads
                        finish(index, "local-pool", submitted_at.pop(future))
            except _PoolFailed:
                _LOCAL_POOL.retire(executor)
                serial = True
                # Shards the pool may have dropped are recomputed —
                # deterministic specs make that at worst repeated work, and
                # record() is idempotent (same key, same payload).
                for index in inflight.values():
                    run_serially(index)
                run_serial(admit)

        return run

    # ------------------------------------------------------------------
    def submit_batch(
        self,
        specs: Iterable[ScenarioSpec],
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[WorkersLike] = None,
    ) -> "Future[BatchResult]":
        """Asynchronous :meth:`run_batch`: returns a future immediately.

        The batch runs on a background thread (the heavy lifting still
        happens in the process pool or on remote workers), so callers can
        overlap scheduling with other work and collect the
        :class:`BatchResult` later.
        """
        specs = list(specs)
        future: "Future[BatchResult]" = Future()

        def _run() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                future.set_result(
                    self.run_batch(specs, max_workers, shard_size, workers)
                )
            except BaseException as error:  # propagate through the future
                future.set_exception(error)

        thread = threading.Thread(target=_run, name="repro-batch", daemon=True)
        thread.start()
        return future

    def submit_job(
        self,
        specs: Iterable[ScenarioSpec],
        max_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[WorkersLike] = None,
        spill_results: bool = True,
        job_id: Optional[str] = None,
        recovered: bool = False,
    ) -> BatchJob:
        """Start a batch in the background and return a pollable job handle.

        The HTTP layer maps this to ``POST /jobs`` (job id back
        immediately) and ``GET /jobs/<id>`` (state + partial progress, and
        the full results once done), so long grids never block a request
        thread.  Finished jobs are retained up to :data:`MAX_RETAINED_JOBS`;
        with ``spill_results`` (the default) a finished job's payloads live
        in the scheduler's content-addressed cache and the job keeps only
        their keys, rehydrating on access.

        With a journal attached, the submission (keys, canonical spec
        dicts, options) is journaled *before* the batch thread starts, so
        a coordinator killed a millisecond after ``POST /jobs`` returns
        still resumes the job on restart.  ``job_id``/``recovered`` are
        for :meth:`recover_jobs`, which resubmits an interrupted job under
        its original id — journaling is idempotent per id, and already
        completed shards resolve as disk-cache hits.
        """
        specs = list(specs)
        # Validate executability *before* the 202-style handle exists: an
        # unhandled kind must be a submit-time error, not a background
        # failure discovered by polling.
        ensure_executable(specs)
        keys = [spec.cache_key(self.engine_version) for spec in specs]
        job = BatchJob(
            job_id=job_id if job_id is not None else uuid.uuid4().hex,
            num_scenarios=len(specs),
            cache=self.cache,
            spill_results=spill_results,
            recovered=recovered,
            keys=keys,
        )
        if self.journal is not None:
            self._journal_write(
                self.journal.record_submission,
                job.job_id,
                keys,
                [spec.to_dict() for spec in specs],
                options={
                    "max_workers": max_workers,
                    "shard_size": shard_size,
                    "spill_results": bool(spill_results),
                },
                engine_version=self.engine_version,
            )
        self._register_job(job)

        jobs_running = self._jobs_running

        def _run() -> None:
            jobs_running.add(1)
            try:
                batch = self.run_batch(
                    specs,
                    max_workers,
                    shard_size,
                    workers,
                    progress=job._on_progress,
                    on_rows=job._publish_rows,
                    _keys=keys,
                    _journal_job_id=job.job_id,
                )
                job._finish(batch, keys=keys, specs=specs)
                if self.journal is not None:
                    self._journal_write(
                        self.journal.record_state,
                        job.job_id,
                        "done",
                        stats=batch.to_dict(),
                    )
            except BaseException as error:
                job._fail(error)
                if self.journal is not None:
                    self._journal_write(
                        self.journal.record_state,
                        job.job_id,
                        "error",
                        error=str(error),
                    )
            finally:
                jobs_running.add(-1)

        thread = threading.Thread(
            target=_run, name=f"repro-job-{job.job_id[:8]}", daemon=True
        )
        thread.start()
        return job

    def _register_job(self, job: BatchJob) -> None:
        with self._jobs_lock:
            self._jobs[job.job_id] = job
            while len(self._jobs) > MAX_RETAINED_JOBS:
                # Prefer evicting finished jobs; never drop a running one
                # unless every retained job is still running.
                for job_id, retained in self._jobs.items():
                    if retained.done:
                        del self._jobs[job_id]
                        break
                else:
                    self._jobs.popitem(last=False)
                self._evicted_jobs += 1

    @property
    def evicted_jobs(self) -> int:
        """How many retained jobs the retention cap has silently dropped."""
        with self._jobs_lock:
            return self._evicted_jobs

    def get_job(self, job_id: str) -> Optional[BatchJob]:
        """Look up a previously submitted job (``None`` when unknown)."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[BatchJob]:
        """All retained jobs, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    def recover_jobs(self) -> Dict[str, int]:
        """Rebuild the job table from the journal after a restart.

        Finished jobs come back as spilled handles (keys + spec dicts;
        payloads rehydrate from the cache, recomputing on eviction exactly
        like a live spilled job).  Jobs journaled as ``running`` — the
        coordinator died mid-batch — are *resumed* under their original
        id and options: shards journaled complete resolve as disk-cache
        hits, only the rest re-run, and embedded seeds make the final
        payload bit-identical to an uninterrupted run.  Jobs journaled
        under a different engine version are skipped (their keys are
        unreachable under current hashing; recomputing under stale keys
        would poison the shared cache).

        Returns a summary: ``{"rehydrated", "resumed", "failed",
        "skipped"}`` counts.
        """
        summary = {"rehydrated": 0, "resumed": 0, "failed": 0, "skipped": 0}
        if self.journal is None:
            return summary
        for record in self.journal.load_jobs():
            if record.engine_version != self.engine_version:
                self.journal.note_skipped(
                    f"job {record.job_id}: engine version "
                    f"{record.engine_version!r} != {self.engine_version!r}"
                )
                summary["skipped"] += 1
                continue
            if record.state == "running":
                try:
                    specs = [spec_from_dict(d) for d in record.spec_dicts]
                except Exception as error:
                    self.journal.note_skipped(
                        f"job {record.job_id}: undecodable spec ({error})"
                    )
                    summary["skipped"] += 1
                    continue
                options = record.options
                max_workers = options.get("max_workers")
                shard_size = options.get("shard_size")
                self.submit_job(
                    specs,
                    max_workers=max_workers if isinstance(max_workers, int) else None,
                    shard_size=shard_size if isinstance(shard_size, int) else None,
                    spill_results=bool(options.get("spill_results", True)),
                    job_id=record.job_id,
                    recovered=True,
                )
                summary["resumed"] += 1
            elif record.state == "error":
                job = BatchJob(
                    record.job_id,
                    record.num_scenarios,
                    cache=self.cache,
                    recovered=True,
                )
                job._fail(
                    InvalidProblemError(record.error or "failed before shutdown")
                )
                self._register_job(job)
                summary["failed"] += 1
            else:  # done
                job = self._rehydrate_finished_job(record)
                self._register_job(job)
                summary["rehydrated"] += 1
        return summary

    def _rehydrate_finished_job(self, record: JournalJobRecord) -> BatchJob:
        """A spilled ``done`` handle rebuilt from one journal record.

        Equivalent to the state :meth:`BatchJob._finish` leaves behind
        after spilling: ordered keys plus one canonical spec JSON text per
        unique key, payloads fetched from the cache (or recomputed from
        the spec) on access.
        """
        job = BatchJob(
            record.job_id,
            record.num_scenarios,
            cache=self.cache,
            spill_results=True,
            recovered=True,
        )
        spec_by_key: Dict[str, str] = {}
        for key, spec_dict in zip(record.keys, record.spec_dicts):
            if key not in spec_by_key:
                spec_by_key[key] = json.dumps(
                    spec_dict, sort_keys=True, separators=(",", ":")
                )
        batch = BatchResult.from_stats(
            record.stats,
            num_scenarios=record.num_scenarios,
            num_unique=len(spec_by_key),
        )
        with job._lock:
            job._batch = batch
            job._result_keys = tuple(record.keys)
            job._spec_texts = _pack_spec_texts(spec_by_key.values())
            job._completed = batch.num_unique
            job._total = batch.num_unique
            job._state = "done"
        job._done.set()
        return job


def _pack_spec_texts(texts: Iterable[str]) -> bytes:
    """A spilled job's recompute fallback: its unique specs' canonical JSON.

    Newline-joined (compact JSON never contains a raw newline) and
    zlib-compressed: the texts of one grid share most of their bytes, so
    16 served specs keep ~0.3 KB instead of ~3.5 KB of strings for as long
    as the job is retained.  Decompressed only to recompute a payload the
    cache evicted.
    """
    return zlib.compress("\n".join(texts).encode("utf-8"))


def _split_shards(
    specs: Sequence[ScenarioSpec],
    shard_size: Optional[int],
    max_workers: Optional[int],
    num_executors: int = 1,
) -> List[tuple]:
    if not specs:
        return []
    if shard_size is None:
        local_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        # Executors beyond the local pool (remote workers) each count once:
        # a remote shard is one HTTP round-trip whatever its size, and the
        # worker parallelises internally.
        shard_size = suggest_shard_size(
            len(specs), max(1, local_workers) + max(0, num_executors - 1)
        )
    if shard_size < 1:
        raise InvalidProblemError(f"shard_size must be positive, got {shard_size}")
    return [
        tuple(specs[lo : lo + shard_size]) for lo in range(0, len(specs), shard_size)
    ]


# ----------------------------------------------------------------------
# Grid helpers: canonical spec lists matching the serial sweeps
# ----------------------------------------------------------------------
def simulate_grid_specs(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e4,
    engine: str = DEFAULT_ENGINE,
) -> List[SimulateSpec]:
    """One :class:`SimulateSpec` per ``(m, k, f)`` triple.

    A batch of these evaluates to exactly the rows of
    :func:`repro.analysis.sweep.sweep_optimal_strategies` for the same
    grid, horizon and engine.
    """
    return [
        SimulateSpec(
            num_rays=m, num_robots=k, num_faulty=f, horizon=horizon, engine=engine
        )
        for m, k, f in parameters
    ]


def montecarlo_grid_specs(
    parameters: Iterable[Tuple[int, int, int]],
    horizon: float = 1e3,
    num_trials: int = 256,
    seed: SeedLike = 0,
    engine: str = DEFAULT_ENGINE,
) -> List[MonteCarloFaultsSpec]:
    """One seeded :class:`MonteCarloFaultsSpec` per ``(m, k, f)`` triple.

    Per-scenario seeds are spawned from ``seed`` with the same
    ``SeedSequence`` derivation as
    :func:`repro.analysis.sweep.sweep_random_faults`, so the scheduled
    batch is bit-identical to the serial sweep row for row.
    """
    parameters = list(parameters)
    seeds = spawn_seeds(seed, len(parameters))
    return [
        MonteCarloFaultsSpec(
            num_rays=m,
            num_robots=k,
            num_faulty=f,
            num_trials=num_trials,
            seed=row_seed,
            horizon=horizon,
            engine=engine,
        )
        for (m, k, f), row_seed in zip(parameters, seeds)
    ]
