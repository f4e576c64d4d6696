"""Remote worker pool: dispatch scenario shards to ``repro serve`` nodes.

PR 3 made every scenario JSON-round-trippable and content-addressed, so a
remote shard is just ``POST /batch`` against another ``repro serve``
instance.  This module supplies the client side of that contract, stdlib
only (:mod:`http.client`):

* :class:`RemoteWorker` — one HTTP worker: health check (``GET /healthz``)
  with an engine-version handshake against
  :data:`repro.service.spec.ENGINE_VERSION`, shard evaluation with bounded
  retries and exponential backoff, separate connect-vs-read timeouts (a
  hung or vanished worker costs seconds, not a full read timeout, before
  failover), and liveness bookkeeping;
* :class:`RemoteWorkerPool` — a set of workers the scheduler's pull-based
  dispatch loop draws from, with failover counters and live queue-depth
  probes.  A worker that dies mid-batch is marked dead and the shard it
  held goes back onto the shared work queue for another executor, so a
  batch always completes with bit-identical results (every stochastic spec
  carries its own seed — *where* a shard runs never changes *what* it
  computes);
* :class:`WorkerSupervisor` — a background thread that re-probes dead
  workers with exponential backoff, so a long-running coordinator heals
  when a crashed worker is restarted, without a coordinator restart.  A
  recovered worker rejoins at the next batch's health refresh — or
  mid-batch: the scheduler's dispatch loop admits revived workers while
  shards are still queued.

Each worker holds a small pool of persistent keep-alive connections
(HTTP/1.1) and exchanges shard traffic as JSON, the one worker codec: on
the small shards a coordinator dispatches, a full JSON request/response
round trip costs a fraction of the binary frame codec's (see
PERFORMANCE.md, "Wire protocol"), and the payloads are barely larger.
Reused sockets can go stale between batches — the worker restarted, an
idle timeout fired — so a *reused* connection that fails fast (reset,
closed, protocol garbage; never a read timeout) is transparently redialed
exactly once before the failure surfaces as a :class:`RemoteWorkerError`.
Dial/reuse/redial counts feed ``repro_remote_connections_total`` and the
existing connect histogram only observes real dials, so the reuse rate is
visible in ``GET /workers`` and ``repro top``.

The pool never raises for infrastructure failures: an unreachable or
version-mismatched worker is simply excluded, and with no live worker the
scheduler's dispatch loop runs every shard on its local executor.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..exceptions import ReproError
from . import telemetry
from .spec import ENGINE_VERSION
from .telemetry import METRICS

__all__ = [
    "RemoteWorkerError",
    "RemoteWorker",
    "RemoteWorkerPool",
    "WorkerSupervisor",
    "CachePeer",
]

#: Wall-clock budget for reading one shard-evaluation response, seconds.
DEFAULT_SHARD_TIMEOUT = 300.0
#: Wall-clock budget for establishing a TCP connection, seconds.  Kept far
#: below the read timeout: a vanished worker fails the *connect*, so it
#: must not cost a full shard-read budget before failover.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Wall-clock budget for one health probe (connect and read), seconds.
DEFAULT_HEALTH_TIMEOUT = 5.0
#: Base sleep between shard-evaluation retries, seconds (doubles per retry).
DEFAULT_RETRY_BACKOFF = 0.25
#: Base interval between supervisor re-probes of a dead worker, seconds.
DEFAULT_REPROBE_INTERVAL = 5.0
#: Upper bound on the supervisor's per-worker probe backoff, seconds.
DEFAULT_REPROBE_MAX_BACKOFF = 60.0
#: Wall-clock budget for reading one peer cache lookup, seconds.  A peer
#: fetch races recomputation, so it must stay far below a typical
#: evaluation-from-scratch; a slow peer degrades to a miss.
DEFAULT_PEER_TIMEOUT = 10.0
#: Wall-clock budget for dialing a cache peer, seconds.
DEFAULT_PEER_CONNECT_TIMEOUT = 2.0
#: Idle keep-alive connections retained per worker.  One dispatcher
#: thread drives each worker, with occasional overlap from health probes
#: and metrics fetches — two parked sockets cover both without hoarding
#: file descriptors across a large pool.
DEFAULT_MAX_IDLE_CONNECTIONS = 2


class RemoteWorkerError(ReproError):
    """A remote worker failed to serve a request.

    ``worker_dead`` distinguishes infrastructure failures (connection
    refused, timeout, 5xx, protocol garbage — the worker should be dropped
    from the rotation) from request-level rejections (4xx — the worker is
    healthy, this particular shard must be re-run locally to surface the
    real error).
    """

    def __init__(self, message: str, worker_dead: bool = True) -> None:
        super().__init__(message)
        self.worker_dead = worker_dead


class RemoteWorker:
    """One remote ``repro serve`` instance, addressed by base URL.

    Instances are mutable bookkeeping objects: ``alive`` is ``None`` until
    the first health check, then tracks the last known liveness.  A
    coordinator server shares one pool across concurrent batches, so the
    completion counters increment under a lock; ``alive``/``last_error``
    are single atomic assignments (each batch makes its own failover
    decisions from thread-local state, never from ``alive`` mid-dispatch).
    """

    def __init__(
        self,
        url: str,
        engine_version: str = ENGINE_VERSION,
        timeout: float = DEFAULT_SHARD_TIMEOUT,
        health_timeout: float = DEFAULT_HEALTH_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        max_retries: int = 1,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        max_workers: Optional[int] = None,
        max_idle_connections: int = DEFAULT_MAX_IDLE_CONNECTIONS,
    ) -> None:
        self.url = url.rstrip("/")
        self.engine_version = engine_version
        self.timeout = float(timeout)
        self.health_timeout = float(health_timeout)
        self.connect_timeout = float(connect_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        #: Forwarded as the remote batch's ``max_workers`` when set, to
        #: bound the worker's own process fan-out per shard.
        self.max_workers = max_workers
        self.alive: Optional[bool] = None
        self.last_error: Optional[str] = None
        self.shards_completed = 0
        self.specs_completed = 0
        self.retries = 0
        self._counter_lock = threading.Lock()
        # Connection pool: a LIFO stack of idle keep-alive connections
        # (most recently used first, so extras go cold and get culled by
        # the server side).  Guarded by its own lock — dispatch, health
        # probes and metrics fetches touch it from different threads.
        self._pool_lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        self.max_idle_connections = int(max_idle_connections)
        self.dials = 0
        self.reuses = 0
        self.redials = 0
        #: Client-observed shard round-trip latencies (dispatch to parsed
        #: response).  A standalone histogram per worker *object* — not a
        #: registry series keyed by URL — so two pool entries for the same
        #: URL (tuned subclasses, test doubles on one port) keep separate
        #: percentiles; :meth:`RemoteWorkerPool.stats` merges and compares
        #: them for straggler detection.
        self.latency = telemetry.Histogram()
        self._connect_seconds = METRICS.histogram(
            "repro_remote_connect_seconds",
            {"worker": self.url},
            help="TCP dial time of requests to remote workers.",
        )
        self._read_seconds = METRICS.histogram(
            "repro_remote_read_seconds",
            {"worker": self.url},
            help="Request-to-parsed-response time against remote workers "
            "(excludes the dial).",
        )
        self._conn_events = {
            event: METRICS.counter(
                "repro_remote_connections_total",
                {"worker": self.url, "event": event},
                help="Connection-pool events against remote workers: fresh "
                "dials, keep-alive reuses, and redials after a stale "
                "pooled socket.",
            )
            for event in ("dial", "reuse", "redial")
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteWorker({self.url!r}, alive={self.alive})"

    # ------------------------------------------------------------------
    # connection pool
    def _note_conn(self, event: str) -> None:
        with self._counter_lock:
            if event == "dial":
                self.dials += 1
            elif event == "reuse":
                self.reuses += 1
            else:
                self.redials += 1
        self._conn_events[event].inc()

    def _dial(self, dial_timeout: float) -> http.client.HTTPConnection:
        """Open and connect a fresh socket to this worker's base URL.

        Raises :class:`RemoteWorkerError` for every failure mode —
        including a malformed URL (bad port digits, missing scheme/host),
        which must mark the worker dead with a readable ``last_error``
        exactly like an unreachable one, never escape as a raw
        ``ValueError``.
        """
        try:
            parsed = urllib.parse.urlsplit(self.url)
            if parsed.scheme not in ("http", "https") or not parsed.hostname:
                raise ValueError(f"unsupported worker URL {self.url!r}")
            connection_class = (
                http.client.HTTPSConnection
                if parsed.scheme == "https"
                else http.client.HTTPConnection
            )
            connection = connection_class(
                parsed.hostname, parsed.port, timeout=dial_timeout
            )
            # Connect and read are timed separately: the split is what
            # tells a hung dial (network/worker down) apart from a slow
            # evaluation when reading `repro_remote_*_seconds` — and only
            # real dials are observed, so the connect histogram's count
            # over the request count *is* the miss rate of the pool.
            dial_start = time.monotonic()
            connection.connect()
            self._connect_seconds.observe(time.monotonic() - dial_start)
            # Nagle + delayed ACK can stall multi-write requests on a
            # reused socket by ~40 ms (the server disables it for its
            # responses too); a pooled connection must never be slower
            # than the dial-per-request client it replaced.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except (OSError, http.client.HTTPException, ValueError) as error:
            raise RemoteWorkerError(
                f"worker {self.url} unreachable: {error}"
            ) from error
        return connection

    def _acquire(self, dial_timeout: float):
        """One ready connection plus whether it came from the idle pool."""
        with self._pool_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            self._note_conn("reuse")
            return connection, True
        connection = self._dial(dial_timeout)
        self._note_conn("dial")
        return connection, False

    def _release(self, connection: http.client.HTTPConnection) -> None:
        """Park a healthy connection for reuse (or close the overflow)."""
        with self._pool_lock:
            if len(self._idle) < self.max_idle_connections:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection (in-flight ones drain on release)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def connection_stats(self) -> Dict[str, object]:
        """Pool counters: dials, keep-alive reuses, stale-socket redials."""
        with self._counter_lock:
            dials = self.dials
            reuses = self.reuses
            redials = self.redials
        total = dials + reuses
        return {
            "dials": dials,
            "reuses": reuses,
            "redials": redials,
            "reuse_fraction": round(reuses / total, 4) if total else 0.0,
            "idle": len(self._idle),
        }

    # ------------------------------------------------------------------
    def _request(
        self,
        path: str,
        payload=None,
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = None,
    ):
        """One HTTP round-trip over a pooled keep-alive connection.

        :mod:`urllib` applies a single socket timeout to connect *and*
        every read, so a hung worker would cost the full shard budget just
        to notice it never answers the dial.  Driving
        :class:`http.client.HTTPConnection` directly lets the connect fail
        within ``connect_timeout`` while the response read keeps the long
        shard budget — and lets the socket outlive the exchange.

        Stale-socket semantics: a connection parked between batches may
        have been closed by the far side (worker restart, idle timeout).
        That surfaces as a *fast* failure on a *reused* connection —
        reset, broken pipe, empty status line — and is transparently
        redialed exactly once.  A read timeout is never retried here: a
        hung worker must cost one read timeout, not two, before failover.
        """
        read_timeout = self.timeout if timeout is None else timeout
        dial_timeout = (
            self.connect_timeout if connect_timeout is None else connect_timeout
        )
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        try:
            base_path = urllib.parse.urlsplit(self.url).path
        except ValueError as error:
            raise RemoteWorkerError(
                f"worker {self.url} unreachable on {path}: {error}"
            ) from error
        request_path = (base_path + path) or path
        for retry_stale in (True, False):
            connection, reused = self._acquire(dial_timeout)
            try:
                if connection.sock is not None:
                    connection.sock.settimeout(read_timeout)
                read_start = time.monotonic()
                connection.request(
                    "GET" if body is None else "POST",
                    request_path or path,
                    body=body,
                    headers=headers,
                )
                response = connection.getresponse()
                raw = response.read()
                status = response.status
                keep = not response.will_close
                self._read_seconds.observe(time.monotonic() - read_start)
            except (OSError, http.client.HTTPException, ValueError) as error:
                # socket.timeout is an OSError: connect and read timeouts
                # both land here, as do refused connections and protocol
                # garbage.
                connection.close()
                if reused and retry_stale and not isinstance(error, TimeoutError):
                    self._note_conn("redial")
                    continue
                raise RemoteWorkerError(
                    f"worker {self.url} unreachable on {path}: {error}"
                ) from error
            if keep:
                self._release(connection)
            else:
                connection.close()
            if status >= 400:
                # 4xx means the worker is up and rejected this request; 5xx
                # means the worker itself is broken.  The body was read
                # either way, so the connection stayed reusable.
                raise RemoteWorkerError(
                    f"worker {self.url} returned HTTP {status} for {path}",
                    worker_dead=status >= 500,
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise RemoteWorkerError(
                    f"worker {self.url} returned non-JSON for {path}: {error}"
                ) from error
        raise AssertionError("unreachable")  # pragma: no cover

    def check_health(self) -> bool:
        """``GET /healthz`` with the engine-version handshake.

        Returns ``True`` only when the worker responds, reports ``ok`` and
        runs exactly this client's engine version — a version-skewed worker
        would compute under a different cache-key space, silently breaking
        the bit-identical-results guarantee, so it is treated as dead.
        """
        try:
            body = self._request(
                "/healthz",
                timeout=self.health_timeout,
                connect_timeout=min(self.health_timeout, self.connect_timeout),
            )
        except RemoteWorkerError as error:
            self.alive = False
            self.last_error = str(error)
            return False
        if not isinstance(body, dict) or body.get("status") != "ok":
            self.alive = False
            self.last_error = f"worker {self.url} unhealthy: {body!r}"
            return False
        remote_version = body.get("engine_version")
        if remote_version != self.engine_version:
            self.alive = False
            self.last_error = (
                f"worker {self.url} engine version {remote_version!r} does not "
                f"match local {self.engine_version!r}"
            )
            return False
        self.alive = True
        self.last_error = None
        return True

    def evaluate_shard(self, scenario_dicts: Sequence[dict]) -> List[dict]:
        """``POST /batch`` one shard; returns the result payloads in order.

        Retries transient failures up to ``max_retries`` times with
        exponential backoff (``retry_backoff``, doubling per attempt), then
        raises :class:`RemoteWorkerError` so the dispatcher can put the
        shard back on the work queue for another executor.
        """
        if self.alive is False:
            raise RemoteWorkerError(
                f"worker {self.url} already marked dead: {self.last_error}",
                worker_dead=False,
            )
        # results_only trims the stats/cache diagnostic blocks from every
        # shard response — pure payload, measurably cheaper to encode and
        # decode per round-trip.  Old workers ignore the key and send the
        # full body; `results` is read either way.
        payload: Dict[str, object] = {
            "scenarios": list(scenario_dicts),
            "results_only": True,
        }
        if self.max_workers is not None:
            payload["max_workers"] = self.max_workers
        last: Optional[RemoteWorkerError] = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                with self._counter_lock:
                    self.retries += 1
                if self.retry_backoff > 0:
                    time.sleep(
                        min(self.retry_backoff * (2 ** (attempt - 1)), 30.0)
                    )
            shard_start = time.monotonic()
            try:
                body = self._request("/batch", payload)
            except RemoteWorkerError as error:
                last = error
                if not error.worker_dead:
                    break  # a 4xx will not improve on retry
                continue
            results = body.get("results") if isinstance(body, dict) else None
            if not isinstance(results, list) or len(results) != len(scenario_dicts):
                last = RemoteWorkerError(
                    f"worker {self.url} returned a malformed batch response"
                )
                continue
            with self._counter_lock:
                self.shards_completed += 1
                self.specs_completed += len(results)
            # Only successful round-trips are observed: the histogram feeds
            # straggler detection, where a fast-failing dead worker must not
            # read as a fast worker.
            self.latency.observe(time.monotonic() - shard_start)
            return results
        assert last is not None
        raise last


class CachePeer:
    """Read-only client for another node's ``GET /cache/<key>`` endpoint.

    The cluster-shared result store: a :class:`~repro.service.cache.ResultCache`
    configured with ``peers`` asks each of these after a local miss, so a
    grid computed once anywhere in the cluster is warm everywhere.  Every
    failure mode — unreachable peer, 404 (key absent), malformed body — is
    a *miss*, never an error: a degraded peer can slow a cold lookup by at
    most its timeouts, but it can never break local computation.  The
    remote endpoint serves only its own local tiers, so peer graphs with
    cycles (two coordinators pointing at each other) terminate trivially.
    """

    def __init__(
        self,
        url: str,
        timeout: float = DEFAULT_PEER_TIMEOUT,
        connect_timeout: float = DEFAULT_PEER_CONNECT_TIMEOUT,
    ) -> None:
        self._worker = RemoteWorker(url, timeout=timeout, connect_timeout=connect_timeout)
        self.url = self._worker.url
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachePeer({self.url!r}, hits={self.hits})"

    def fetch(self, key: str) -> Optional[dict]:
        """The payload stored under ``key`` on the peer, or ``None``."""
        try:
            body = self._worker._request(f"/cache/{key}")
        except RemoteWorkerError as error:
            with self._lock:
                if error.worker_dead:
                    self.errors += 1
                else:
                    self.misses += 1  # 404: the peer is fine, the key absent
            return None
        payload = body.get("result") if isinstance(body, dict) else None
        if not isinstance(payload, dict) or body.get("key") != key:
            with self._lock:
                self.errors += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def stats(self) -> Dict[str, object]:
        """Per-peer lookup counters."""
        with self._lock:
            return {
                "url": self.url,
                "hits": self.hits,
                "misses": self.misses,
                "errors": self.errors,
            }


class WorkerSupervisor:
    """Background re-prober that heals a pool's dead workers over time.

    Without a supervisor, a worker marked dead stays out of the rotation
    until some batch's health refresh happens to probe it — a long-running
    coordinator with no traffic never heals.  The supervisor thread wakes
    on its own schedule and re-runs the health handshake on dead workers
    with exponential backoff: the first re-probe comes ``reprobe_interval``
    seconds after a death is noticed, then the per-worker interval doubles
    up to ``max_backoff`` while the worker stays down.  A successful probe
    flips ``worker.alive`` back to ``True``, so the next batch's refresh —
    or the running batch's mid-batch admission check — hands it shards
    again.

    The thread is a daemon and idles cheaply (one monotonic-clock
    comparison per tick); :meth:`stop` shuts it down deterministically —
    the pool calls it from ``stop_supervisor``/server close.
    """

    def __init__(
        self,
        pool: "RemoteWorkerPool",
        reprobe_interval: float = DEFAULT_REPROBE_INTERVAL,
        max_backoff: float = DEFAULT_REPROBE_MAX_BACKOFF,
    ) -> None:
        if reprobe_interval <= 0:
            raise ValueError(
                f"reprobe_interval must be positive, got {reprobe_interval}"
            )
        self.pool = pool
        self.reprobe_interval = float(reprobe_interval)
        self.max_backoff = max(float(max_backoff), self.reprobe_interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: id(worker) -> (next probe deadline on the monotonic clock,
        #: current backoff).  Keyed by identity, not URL: a pool may hold
        #: several worker objects for one URL (duplicate --workers entries,
        #: tuned subclasses), and a live sibling must not clear a dead
        #: worker's schedule.
        self._schedule: Dict[int, tuple] = {}
        self._probes = 0
        self._recoveries = 0

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the supervisor thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "WorkerSupervisor":
        """Start the background thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-worker-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread to exit and wait for it (bounded)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _run(self) -> None:
        while not self._stop.wait(self._next_wait()):
            self.probe_once()

    def _next_wait(self) -> float:
        """Seconds until the earliest scheduled probe (or one base interval)."""
        now = time.monotonic()
        with self._lock:
            deadlines = [deadline for deadline, _backoff in self._schedule.values()]
        if not deadlines:
            # Nothing known-dead yet: wake once per base interval to notice
            # new deaths promptly even for large backoff settings.
            return self.reprobe_interval
        return max(0.01, min(min(deadlines) - now, self.reprobe_interval))

    # ------------------------------------------------------------------
    def probe_once(self) -> List[RemoteWorker]:
        """One supervision pass; returns the workers revived by it.

        Exposed separately from the thread loop so tests (and impatient
        callers) can drive supervision synchronously.
        """
        now = time.monotonic()
        revived: List[RemoteWorker] = []
        for worker in self.pool.workers:
            key = id(worker)
            if worker.alive is not False:
                # Healthy (or never probed): forget any pending schedule so
                # a future death restarts from the base interval.
                with self._lock:
                    self._schedule.pop(key, None)
                continue
            with self._lock:
                deadline, backoff = self._schedule.get(
                    key, (now + self.reprobe_interval, self.reprobe_interval)
                )
                if key not in self._schedule:
                    # First time this worker is seen dead: schedule the
                    # initial re-probe one base interval out.
                    self._schedule[key] = (deadline, backoff)
                    continue
            if deadline > now:
                continue
            with self._lock:
                self._probes += 1
            if worker.check_health():
                revived.append(worker)
                with self._lock:
                    self._recoveries += 1
                    self._schedule.pop(key, None)
            else:
                next_backoff = min(backoff * 2.0, self.max_backoff)
                with self._lock:
                    self._schedule[key] = (now + next_backoff, next_backoff)
        return revived

    def stats(self) -> Dict[str, object]:
        """Counters plus the per-worker re-probe schedule."""
        now = time.monotonic()
        with self._lock:
            schedule = dict(self._schedule)
            probes = self._probes
            recoveries = self._recoveries
        return {
            "running": self.running,
            "reprobe_interval": self.reprobe_interval,
            "max_backoff": self.max_backoff,
            "probes": probes,
            "recoveries": recoveries,
            "pending": [
                {
                    "url": worker.url,
                    "next_probe_in": round(
                        max(0.0, schedule[id(worker)][0] - now), 3
                    ),
                    "backoff": schedule[id(worker)][1],
                }
                for worker in self.pool.workers
                if id(worker) in schedule
            ],
        }


class RemoteWorkerPool:
    """A health-checked set of :class:`RemoteWorker` with failover counters.

    Construct from URLs or prebuilt workers.  :meth:`refresh` runs the
    health handshake on every worker (concurrently, so one dead node costs
    one health timeout, not one per node) and returns the live ones; the
    scheduler calls it once per batch.  The counters aggregate across
    batches and are exposed by :meth:`stats`, together with the live queue
    depth of any batch currently pulling shards and, when
    :meth:`start_supervisor` has been called, the supervisor's re-probe
    schedule.
    """

    def __init__(
        self,
        workers: Iterable[Union[str, RemoteWorker]],
        engine_version: str = ENGINE_VERSION,
        timeout: float = DEFAULT_SHARD_TIMEOUT,
        health_timeout: float = DEFAULT_HEALTH_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        max_retries: int = 1,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ) -> None:
        self.workers: List[RemoteWorker] = [
            worker
            if isinstance(worker, RemoteWorker)
            else RemoteWorker(
                worker,
                engine_version=engine_version,
                timeout=timeout,
                health_timeout=health_timeout,
                connect_timeout=connect_timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
            )
            for worker in workers
        ]
        self.engine_version = engine_version
        self.supervisor: Optional[WorkerSupervisor] = None
        self._lock = threading.Lock()
        self._failovers = 0
        self._remote_shards = 0
        self._remote_specs = 0
        self._queue_probes: List[Callable[[], int]] = []

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def refresh(self) -> List[RemoteWorker]:
        """Health-check every worker; returns the live, version-matched ones."""
        if not self.workers:
            return []
        if len(self.workers) == 1:
            self.workers[0].check_health()
        else:
            threads = [
                threading.Thread(target=worker.check_health, daemon=True)
                for worker in self.workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return self.live_workers()

    def live_workers(self) -> List[RemoteWorker]:
        """Workers whose last health check (or dispatch) found them alive."""
        return [worker for worker in self.workers if worker.alive]

    def mark_dead(self, worker: RemoteWorker, error: Exception) -> None:
        """Record that ``worker`` failed mid-batch; excluded until re-probed."""
        worker.alive = False
        worker.last_error = str(error)

    # ------------------------------------------------------------------
    def start_supervisor(
        self,
        reprobe_interval: float = DEFAULT_REPROBE_INTERVAL,
        max_backoff: float = DEFAULT_REPROBE_MAX_BACKOFF,
    ) -> WorkerSupervisor:
        """Start (or return) the background re-prober for this pool."""
        if self.supervisor is None:
            self.supervisor = WorkerSupervisor(
                self, reprobe_interval=reprobe_interval, max_backoff=max_backoff
            )
        self.supervisor.start()
        return self.supervisor

    def stop_supervisor(self) -> None:
        """Stop the supervisor thread, if one is running (idempotent)."""
        if self.supervisor is not None:
            self.supervisor.stop()

    def close(self) -> None:
        """Stop the supervisor and drop every worker's idle connections."""
        self.stop_supervisor()
        for worker in self.workers:
            worker.close()

    # ------------------------------------------------------------------
    def attach_queue_probe(self, probe: Callable[[], int]) -> None:
        """Register a live queue-depth gauge for an in-flight batch."""
        with self._lock:
            self._queue_probes.append(probe)

    def detach_queue_probe(self, probe: Callable[[], int]) -> None:
        """Remove a gauge registered by :meth:`attach_queue_probe`."""
        with self._lock:
            try:
                self._queue_probes.remove(probe)
            except ValueError:
                pass

    def note_failover(self, num_shards: int = 1) -> None:
        """Count shards re-dispatched after a worker failure."""
        with self._lock:
            self._failovers += num_shards

    def note_remote(self, num_specs: int, num_shards: int = 1) -> None:
        """Count work actually completed on remote workers."""
        with self._lock:
            self._remote_shards += num_shards
            self._remote_specs += num_specs

    def stats(self) -> Dict[str, object]:
        """Aggregate dispatch counters plus per-worker liveness and latency.

        ``queue_depth`` is the number of shards currently waiting on the
        work queues of in-flight batches (0 when idle) and
        ``active_batches`` how many batches are pulling right now — the
        backpressure signal ``GET /workers`` exposes.  ``supervisor`` is
        present once :meth:`start_supervisor` has been called.

        Every worker entry carries a ``latency`` block (count + p50/p95/p99
        of its client-observed shard round-trips) and a ``straggler`` flag:
        true when that worker's p95 exceeds
        :data:`~repro.service.telemetry.STRAGGLER_FACTOR` times the
        cluster-merged median (see
        :func:`~repro.service.telemetry.flag_stragglers`).
        ``shard_latency.client`` is the merged view — the client-observed
        cluster percentiles; the HTTP layer adds a ``worker_reported``
        sibling merged from the workers' own ``/metrics.json``.
        """
        with self._lock:
            failovers = self._failovers
            remote_shards = self._remote_shards
            remote_specs = self._remote_specs
            probes = list(self._queue_probes)
        snapshots = [worker.latency.snapshot() for worker in self.workers]
        merged = telemetry.merge_histograms(snapshots)
        cluster_p50 = telemetry.histogram_percentile(merged, 0.50)
        worker_entries = []
        for worker, snapshot in zip(self.workers, snapshots):
            entry: Dict[str, object] = {
                "url": worker.url,
                "alive": worker.alive,
                "shards_completed": worker.shards_completed,
                "specs_completed": worker.specs_completed,
                "retries": worker.retries,
                "last_error": worker.last_error,
                "connections": worker.connection_stats(),
            }
            entry.update(telemetry.summarize_histogram(snapshot))
            entry["latency"] = snapshot
            worker_entries.append(entry)
        telemetry.flag_stragglers(worker_entries, cluster_p50)
        dials = sum(worker.dials for worker in self.workers)
        reuses = sum(worker.reuses for worker in self.workers)
        redials = sum(worker.redials for worker in self.workers)
        payload: Dict[str, object] = {
            "num_workers": len(self.workers),
            "num_live": len(self.live_workers()),
            "connections": {
                "dials": dials,
                "reuses": reuses,
                "redials": redials,
                "reuse_fraction": round(reuses / (dials + reuses), 4)
                if dials + reuses
                else 0.0,
            },
            "failovers": failovers,
            "remote_shards": remote_shards,
            "remote_specs": remote_specs,
            "queue_depth": sum(probe() for probe in probes),
            "active_batches": len(probes),
            "workers": worker_entries,
            "shard_latency": {
                "client": dict(
                    telemetry.summarize_histogram(merged), histogram=merged
                ),
            },
        }
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.stats()
        return payload

    def metrics_snapshots(
        self, timeout: float = 2.0
    ) -> List[Optional[dict]]:
        """Best-effort fetch of every live worker's ``GET /metrics.json``.

        Used by the coordinator's ``GET /workers`` to merge worker-side
        histograms into cluster percentiles.  Strictly best-effort: a dead,
        slow or pre-telemetry worker contributes ``None`` (filtered by the
        caller) and costs at most ``timeout`` seconds; fetches run
        concurrently so one slow worker does not serialise the rest.
        """
        workers = self.live_workers()
        snapshots: List[Optional[dict]] = [None] * len(workers)

        def fetch(index: int, worker: RemoteWorker) -> None:
            try:
                body = worker._request(
                    "/metrics.json",
                    timeout=timeout,
                    connect_timeout=min(timeout, worker.connect_timeout),
                )
            except RemoteWorkerError:
                return
            if isinstance(body, dict):
                snapshots[index] = body

        if len(workers) == 1:
            fetch(0, workers[0])
        elif workers:
            threads = [
                threading.Thread(target=fetch, args=(i, w), daemon=True)
                for i, w in enumerate(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return snapshots
