"""`repro serve` subprocesses and the closed-loop HTTP client that drives them."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

REQUEST_TIMEOUT = 120.0
START_TIMEOUT = 60.0


class Server:
    """One `repro serve --port 0` process in its own process group."""

    def __init__(self, root: str, extra_args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (os.path.join(root, "src"), env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            cwd=root,
            env=env,
            start_new_session=True,
        )
        banner = self.process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = banner.split()[-1]
        host, port = self.url[len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def wait_healthy(self) -> dict:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                status, body = get_json(self.host, self.port, "/healthz")
                if status == 200 and body.get("status") == "ok":
                    return body
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.url} never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the serving process, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict:
        return get_json(self.host, self.port, "/metrics.json")[1]

    def stop(self) -> None:
        """SIGTERM, wait, then clear the whole process group (pool helpers)."""
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if process.stdout is not None:
            process.stdout.close()


@dataclass
class Cluster:
    """The serving processes of one workload: a front server and its workers."""

    front: Server
    workers: List[Server] = field(default_factory=list)

    @property
    def servers(self) -> List[Server]:
        return [self.front, *self.workers]

    def stop(self) -> None:
        for server in self.servers:
            server.stop()


def launch(root: str, num_workers: int) -> Cluster:
    """Start the workers, then the front server dispatching to them."""
    workers: List[Server] = []
    try:
        for _ in range(num_workers):
            worker = Server(root, [])
            workers.append(worker)
            worker.wait_healthy()
        args = [arg for worker in workers for arg in ("--workers", worker.url)]
        front = Server(root, args)
    except BaseException:
        for worker in workers:
            worker.stop()
        raise
    cluster = Cluster(front, workers)
    try:
        front.wait_healthy()
    except BaseException:
        cluster.stop()
        raise
    return cluster


def _connection(host: str, port: int) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def get_json(host: str, port: int, path: str) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@dataclass
class Reply:
    """One request as the client saw it (times from ``time.perf_counter``)."""

    sent: float
    first_row: float
    done: float
    ok: bool
    error: str = ""
    raw: bytes = b""  # /batch response body
    rows: List[Tuple[int, str]] = field(default_factory=list)  # /jobs rows
    done_state: str = ""  # state named by the /jobs terminal event

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def first_row_ms(self) -> float:
        return (self.first_row - self.sent) * 1e3


class Client:
    """One closed-loop client holding one keep-alive connection."""

    def __init__(self, server: Server) -> None:
        self.host, self.port = server.host, server.port
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _post(self, path: str, body: bytes):
        if self._conn is None:
            self._conn = _connection(self.host, self.port)
        self._conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        return self._conn.getresponse()

    def batch(self, scenarios: List[dict]) -> Reply:
        """``POST /batch``; the first row arrives with the response head."""
        body = json.dumps({"scenarios": scenarios}).encode("utf-8")
        sent = time.perf_counter()
        try:
            response = self._post("/batch", body)
            first = time.perf_counter()
            raw = response.read()
            done = time.perf_counter()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            now = time.perf_counter()
            return Reply(sent, now, now, False, f"transport: {error}")
        if response.status != 200:
            return Reply(sent, first, done, False, f"HTTP {response.status}")
        return Reply(sent, first, done, True, raw=raw)

    def job(self, scenarios: List[dict]) -> Reply:
        """``POST /jobs``, then read ``GET /jobs/<id>/rows`` as SSE to ``done``.

        The row stream ends at EOF (the server closes it), so it runs on a
        second connection; the keep-alive one carries the submissions.
        """
        body = json.dumps({"scenarios": scenarios}).encode("utf-8")
        sent = time.perf_counter()
        first = None
        rows: List[Tuple[int, str]] = []
        stream = None
        try:
            response = self._post("/jobs", body)
            submitted = response.read()
            if response.status != 202:
                now = time.perf_counter()
                return Reply(sent, now, now, False, f"HTTP {response.status}")
            path = json.loads(submitted)["path"] + "/rows"
            stream = _connection(self.host, self.port)
            stream.request("GET", path)
            response = stream.getresponse()
            if response.status != 200:
                now = time.perf_counter()
                return Reply(sent, now, now, False, f"HTTP {response.status}")
            event = data = index = None
            done_payload = None
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.rstrip(b"\n")
                if line.startswith(b"event: "):
                    event = line[7:]
                elif line.startswith(b"data: "):
                    data = line[6:]
                elif line.startswith(b"id: "):
                    index = int(line[4:])
                elif not line and event is not None:
                    if event == b"done":
                        done_payload = data
                        break
                    if first is None:
                        first = time.perf_counter()
                    rows.append((index, data.decode("utf-8")))
                    event = data = None
            done = time.perf_counter()
        except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
            self.close()
            now = time.perf_counter()
            return Reply(sent, first or now, now, False, f"transport: {error}")
        finally:
            if stream is not None:
                stream.close()
        if done_payload is None:
            return Reply(sent, first or done, done, False, "stream ended without done")
        state = json.loads(done_payload)
        # The terminal event can race the job's own bookkeeping and report
        # "running" after the last row; the rows themselves are complete,
        # so only an error state or a short stream fails the request (the
        # verifier then checks the rows' indices and payloads).
        if state.get("state") == "error" or len(rows) != len(scenarios):
            return Reply(sent, first or done, done, False, f"job {state}")
        return Reply(sent, first or done, done, True, rows=rows,
                     done_state=state.get("state", ""))

    def send(self, endpoint: str, scenarios: List[dict]) -> Reply:
        return self.batch(scenarios) if endpoint == "/batch" else self.job(scenarios)
