"""Drive the sweep service as its own process: spawn, load, stop.

The server always runs as a separate ``python -m repro.cli serve``
process (what ``repro-sim serve`` runs), so the load generator and the
server never share an interpreter lock.  Load is at most two client
threads, each a closed loop: it submits its next campaign only after
the previous one has completed or failed.  Each client submits its own
spec (``specs[index]``).
"""

from __future__ import annotations

import contextvars
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: How long a server may take to accept its first connection.
READY_TIMEOUT_S = 60.0

#: Closed-loop resubmissions a cold client makes before the run fails.
MAX_COLD_ATTEMPTS = 5

#: Timeout of the status and shutdown requests.
CONTROL_TIMEOUT_S = 30.0

#: A warm phase that has not reached its minimum by then fails the run.
WARM_MAX_WALL_S = 120.0


def _die_with_parent() -> None:
    """Have the kernel stop the server if the benchmark itself dies."""
    import ctypes
    import signal

    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)


class ServerProcess:
    """One ``serve --fleet 2`` process on a fresh cache directory.

    ``argv_prefix`` is the interpreter command that starts the server:
    ``[python, -m, repro.cli]`` for the plain service, or the traced
    launcher for the per-layer run.  ``socket_path`` is relative to
    ``cwd`` so it stays under the Unix socket path length limit.
    """

    def __init__(self, argv_prefix: list[str], *, cwd: Path,
                 socket_path: str, cache_dir: Path, env: dict,
                 log_path: Path) -> None:
        self.socket_path = socket_path
        self.cwd = cwd
        self._log = open(log_path, "wb")
        argv = [*argv_prefix, "serve", "--socket", socket_path,
                "--cache-dir", str(cache_dir), "--fleet", "2"]
        self.started = time.perf_counter()
        # Spawned only while no client thread runs, so preexec_fn is
        # safe here.
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log,
                                     preexec_fn=_die_with_parent)

    def wait_ready(self) -> float:
        """Seconds from spawn until the socket answers ``ping``."""
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(self.cwd / self.socket_path, timeout=5.0)
        deadline = self.started + READY_TIMEOUT_S
        while True:
            try:
                client.ping()
                return time.perf_counter() - self.started
            except ServiceError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode} "
                        f"before accepting; see {self._log.name}")
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not accept within "
                                       f"{READY_TIMEOUT_S:.0f}s")
                time.sleep(0.002)

    def client(self):
        """A campaign client built as ``repro-sim submit`` builds it.

        The CLI sets no socket timeout, and neither does this: with one
        set, a reader that wakes up must take the interpreter lock back
        from the other client thread before it reads, more lines pile
        up meanwhile, and the client's stream-header read then drops
        the lines it read past the header (see README, Failures).
        """
        from repro.service import ServiceClient

        return ServiceClient(self.cwd / self.socket_path)

    def control(self):
        """A client for ``status`` and ``shutdown``, with a timeout."""
        from repro.service import ServiceClient

        return ServiceClient(self.cwd / self.socket_path,
                             timeout=CONTROL_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the live server, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self) -> None:
        """Shut down gracefully; kill if it does not exit in time."""
        try:
            if self.proc.poll() is None:
                try:
                    self.control().shutdown()
                    self.proc.wait(timeout=30)
                except Exception:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._log.close()


@dataclass
class ClientLog:
    """What one closed-loop client saw."""

    #: Latency in seconds of every successful campaign.
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Raw point dicts of the last successful campaign, in cell order.
    raw_points: Optional[list[dict]] = None
    #: Whether every successful campaign returned the same points.
    consistent: bool = True
    error: Optional[BaseException] = None


def _submit_once(client, spec: dict, log: ClientLog, index: int,
                 run_id: str, tag) -> bool:
    from repro.service import ServiceError

    started = time.perf_counter()
    try:
        with tag(index, run_id):
            result = client.run(spec)
    except ServiceError as exc:
        log.failures.append(str(exc))
        return False
    log.latencies.append(time.perf_counter() - started)
    if log.raw_points is None:
        log.raw_points = result.raw_points
    elif result.raw_points != log.raw_points:
        log.consistent = False
    return True


def cold_phase(server: ServerProcess, specs: list[dict],
               tag) -> tuple[float, list[ClientLog]]:
    """Two clients submit their campaigns at the same moment.

    A client whose submission fails resubmits, as a user regenerating
    the figure would; every failure is kept in its log.  Returns the
    wall time until both clients hold every point.
    """
    logs = [ClientLog(), ClientLog()]
    gate = threading.Barrier(3)

    def body(index: int) -> None:
        log = logs[index]
        try:
            client = server.client()
            gate.wait()
            for attempt in range(MAX_COLD_ATTEMPTS):
                if _submit_once(client, specs[index], log, index,
                                f"cold-c{index}-{attempt}", tag):
                    return
        except BaseException as exc:  # reported by the caller
            log.error = exc

    threads = _client_threads(body)
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for log in logs:
        if log.error is not None:
            raise log.error
        if log.raw_points is None:
            raise RuntimeError(f"cold client failed {MAX_COLD_ATTEMPTS} "
                               f"times: {log.failures[-1]}")
    return elapsed, logs


def warm_phase(server: ServerProcess, specs: list[dict], *,
               seconds: float, min_campaigns: int,
               tag) -> tuple[float, list[ClientLog]]:
    """Two closed-loop clients resubmit their specs against a warm cache.

    Runs for ``seconds`` and until ``min_campaigns`` campaigns have
    succeeded in total.  Returns the phase's wall time and the logs.
    """
    logs = [ClientLog(), ClientLog()]
    stop = threading.Event()
    gate = threading.Barrier(3)

    def body(index: int) -> None:
        log = logs[index]
        try:
            client = server.client()
            gate.wait()
            n = 0
            while not stop.is_set():
                _submit_once(client, specs[index], log, index,
                             f"warm-c{index}-{n}", tag)
                n += 1
        except BaseException as exc:  # reported by the caller
            log.error = exc
            stop.set()

    threads = _client_threads(body)
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    try:
        while not stop.is_set():
            elapsed = time.perf_counter() - started
            done = sum(len(log.latencies) for log in logs)
            if elapsed >= seconds and done >= min_campaigns:
                break
            if elapsed > WARM_MAX_WALL_S:
                raise RuntimeError(f"warm phase held only {done} "
                                   f"campaigns after {elapsed:.0f}s")
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started
    for log in logs:
        if log.error is not None:
            raise log.error
    return elapsed, logs


def _client_threads(body) -> list[threading.Thread]:
    """Two client threads, each starting in a copy of our context.

    New threads otherwise start with an empty context, which would cut
    the clients' spans off from the arm that started them.
    """
    return [threading.Thread(target=contextvars.copy_context().run,
                             args=(body, index), name=f"client-{index}")
            for index in (0, 1)]


def server_env(src: Path) -> dict:
    """The server's environment: the checkout's ``src`` on the path."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    return env

