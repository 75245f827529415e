"""The daemon as a black box: spawn, probe, drive, measure, reap.

The daemon counts as up only when it answers a ``ping`` over its
socket (a bounded wait); the socket file existing proves nothing,
because ``bind()`` creates it before ``listen()``.  Every daemon is
stopped with ``shutdown`` and reaped under a deadline, and its process
group is killed if anything outlives that.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

from e2ebench.workloads import PORTFOLIO, Request

#: Pool size.  The load is one closed-loop or pipelined connection, so
#: one worker is never idle-starved, and it makes the worker-side
#: network memo deterministic (an evaluate always finds the network its
#: program's solve just built).
WORKERS = 1
READY_TIMEOUT = 60.0
RESPONSE_TIMEOUT = 60.0
REAP_TIMEOUT = 15.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def daemon_command(socket_path: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.service", "--serve",
        "--socket", socket_path,
        "--portfolio", ",".join(PORTFOLIO), "--sequential",
        "--workers", str(WORKERS),
        "--no-cache",  # memory-only result cache
        "--log-level", "warning",
    ]


class Daemon:
    """One ``python -m repro.service --serve`` process and its pool.

    Use as a context manager: leaving it always shuts the daemon down
    and reaps it, whatever happened inside.
    """

    def __init__(self, root: str, socket_path: str, log_path: str):
        self._root = root
        self.socket_path = socket_path
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.connection: Connection | None = None
        self.setup_seconds = 0.0
        self.pids: list[int] = []

    def __enter__(self) -> "Daemon":
        env = dict(os.environ)
        src = os.path.join(self._root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                daemon_command(self.socket_path),
                cwd=self._root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        try:
            self.connection = wait_until_serving(
                self.process, self.socket_path, self.log_path, READY_TIMEOUT
            )
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - start
        self.pids = [self.process.pid] + child_pids(self.process.pid)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        response = self.connection.call({"id": "stats", "kind": "stats"})
        return response["result"]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_kb(pid) for pid in self.pids) / 1024.0

    def close(self) -> None:
        """``shutdown``, then reap under a deadline; kill what remains."""
        process = self.process
        if process is None:
            return
        self.process = None
        if self.connection is not None:
            try:
                self.connection.call({"id": "shutdown", "kind": "shutdown"})
            except (OSError, ValueError):
                pass
            self.connection.close()
            self.connection = None
        try:
            process.wait(REAP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait(REAP_TIMEOUT)
        leftovers = [self.socket_path]
        if process.returncode == 0:
            leftovers.append(self.log_path)  # kept only when the daemon failed
        for path in leftovers:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


class Connection:
    """A raw JSON-lines socket: the load generator writes bytes itself."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def readline(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def call(self, payload: dict) -> dict:
        self.send(json.dumps(payload).encode("utf-8") + b"\n")
        return json.loads(self.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def wait_until_serving(
    process, path: str, log_path: str, timeout: float
) -> Connection:
    """Connect and ``ping`` until the daemon answers, or raise.

    A refused or absent socket is retried until ``timeout``; a daemon
    that exits meanwhile fails at once.
    """
    deadline = time.monotonic() + timeout
    while True:
        if process.poll() is not None:
            with open(log_path, "rb") as log:
                stderr = log.read().decode("utf-8", "replace")
            raise RuntimeError(
                f"daemon exited with {process.returncode} before serving: "
                f"{stderr.strip()[-2000:]}"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"daemon did not answer ping within {timeout}s")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(min(remaining, RESPONSE_TIMEOUT))
        try:
            sock.connect(path)
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            time.sleep(0.01)
            continue
        connection = Connection(sock)
        reply = connection.call({"id": "ready", "kind": "ping"})
        if not reply.get("ok"):
            connection.close()
            raise RuntimeError(f"ping refused: {reply}")
        sock.settimeout(RESPONSE_TIMEOUT)
        return connection


def child_pids(parent: int) -> list[int]:
    """Direct children of ``parent`` (the daemon's pool workers)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of one live process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def closed_loop(connection: Connection, requests: list[Request], first_id: int):
    """One request outstanding at a time; per-request round trips.

    Returns ``(lines, round_trip_seconds)`` in request order.
    """
    lines, latencies = [], []
    for offset, request in enumerate(requests):
        data = request.line(first_id + offset)
        start = time.perf_counter()
        connection.send(data)
        line = connection.readline()
        latencies.append(time.perf_counter() - start)
        lines.append(line)
    return lines, latencies


def pipelined(connection: Connection, lines: list[bytes]):
    """Write a window of lines at once, then read as many responses.

    Returns ``(responses, seconds_from_send)`` in arrival order; the
    caller pairs them with requests by ``id``.
    """
    start = time.perf_counter()
    connection.send(b"".join(lines))
    responses, latencies = [], []
    for _ in lines:
        responses.append(connection.readline())
        latencies.append(time.perf_counter() - start)
    return responses, latencies
