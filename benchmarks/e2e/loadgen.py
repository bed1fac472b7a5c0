"""The load generator: two keep-alive HTTP connections, one thread each.

Open loop: every request has a due time (seeded Poisson arrivals) and its
latency is timed from that due time, so a stall also charges the requests
queued behind it.  Unpinned requests go to whichever connection frees up
first; pinned requests (a session's turns) wait for their own connection,
which keeps each session's turns in order.  For requests a connection was
idle for, ``sent - due`` is how late the generator itself ran.

Closed loop: each connection sends its next request as soon as the previous
answer is read, until the deadline.

Two things keep the generator on time.  Its threads run as ``SCHED_FIFO``
when the process may do that (:func:`_realtime`), and :class:`IdleSpinners`
keep every CPU from going idle, because an idle vCPU of the VM halts and
wakes late.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e.workloads import Request, SharedStream

__all__ = ["CONNECTIONS", "IdleSpinners", "LoadClient", "Sample"]

CONNECTIONS = 2
_HEADERS = {"Content-Type": "application/json"}

#: a busy loop pinned to CPU ``argv[1]`` at ``SCHED_IDLE`` priority, which
#: ends when its parent does.
_SPIN = """\
import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per CPU, for the life of a ``with`` block.

    On the 2-vCPU VM the README describes, whose kernel has no cpuidle back
    end, an idle vCPU halts and the host has to schedule it again before a
    woken thread runs.  With the CPUs left idle there,
    ``loadgen.oversleep_p99_ms`` crossed 2 ms in 6 of 8 ``utterance_search``
    runs (up to 11.8 ms) and p90 ranged over 51.6-65.1 ms; with a spinner on
    each CPU, 1 of 8 crossed it and p90 ranged over 51.5-54.0 ms.  At
    ``SCHED_IDLE`` a spinner gets a CPU only when nothing else wants it, and
    its CPU time counts in no metric.
    """

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "IdleSpinners":
        for cpu in sorted(os.sched_getaffinity(0)):
            self._procs.append(subprocess.Popen([sys.executable, "-c", _SPIN, str(cpu)]))
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        self._procs = []


@dataclass
class Sample:
    """One request as the client saw it (``perf_counter`` seconds)."""

    request: Request
    conn: int
    due: float
    sent: float
    head: float
    end: float
    #: HTTP status, or -1 for a transport error.
    status: int
    #: the connection was idle when the request fell due.
    idle: bool
    payload: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """Due time to body read (includes waiting for a connection)."""
        return (self.end - self.due) * 1000.0

    @property
    def service_ms(self) -> float:
        """Request written to body read."""
        return (self.end - self.sent) * 1000.0

    @property
    def header_gap_ms(self) -> float:
        """Response headers parsed to body read."""
        return (self.end - self.head) * 1000.0


class _Connection:
    def __init__(self, port: int):
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def send(self, request: Request) -> Tuple[float, float, float, int, Optional[dict]]:
        sent = time.perf_counter()
        try:
            self.http.request("POST", request.path, body=request.body, headers=_HEADERS)
            response = self.http.getresponse()
            head = time.perf_counter()
            body = response.read()
            end = time.perf_counter()
            status = response.status
        except (OSError, http.client.HTTPException):
            end = time.perf_counter()
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return sent, end, end, -1, None
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        return sent, head, end, status, payload if isinstance(payload, dict) else None

    def close(self) -> None:
        self.http.close()


#: sleep until this close to the due time, then spin: a spinning thread
#: does not wait for the kernel to wake it or for the interpreter lock.
_SPIN_S = 0.001


def _sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter() - _SPIN_S
    if remaining > 0:
        time.sleep(remaining)
    while time.perf_counter() < deadline:
        pass


def _realtime() -> None:
    """Move the calling thread to ``SCHED_FIFO`` so it wakes on time.

    At normal priority a woken load thread waited for the server's running
    thread to use up its time slice: on the README's 2-vCPU VM, with
    :class:`IdleSpinners` running, ``loadgen.oversleep_p99_ms`` read 0.6-2 ms
    on ``utterance_search``; as ``SCHED_FIFO`` it read 0.02-0.45 ms.  Without the privilege the thread
    stays as it is, and the oversleep metric shows the cost.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except PermissionError:
        pass


class LoadClient:
    """Two keep-alive connections to one server; at most two load threads."""

    def __init__(self, port: int, connections: Optional[Sequence] = None):
        #: ``connections`` stands in for the sockets in tests (``send``/``close``).
        self._conns = (
            list(connections)
            if connections is not None
            else [_Connection(port) for _ in range(CONNECTIONS)]
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "LoadClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, index: int, request: Request, due: float, idle: bool) -> Sample:
        sent, head, end, status, payload = self._conns[index].send(request)
        return Sample(request, index, due, sent, head, end, status, idle, payload)

    @staticmethod
    def _threads(target) -> None:
        """Run ``target(conn)`` on one real-time thread per connection.

        The collector is off meanwhile: a full collection over the client's
        heap would stall whichever thread is due to send.
        """

        def run(conn: int) -> None:
            _realtime()
            target(conn)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(CONNECTIONS)]
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()

    def sequential(self, requests: Sequence[Request]) -> List[Sample]:
        """One request at a time on connection 0 (the probes)."""
        samples = []
        for request in requests:
            now = time.perf_counter()
            samples.append(self._send(0, request, now, True))
        return samples

    def open_loop(self, requests: Sequence[Request], offsets: Sequence[float]) -> List[Sample]:
        """Send each request at its due offset; pinned requests keep their connection."""
        pinned = requests[0].conn is not None
        if any((request.conn is not None) != pinned for request in requests):
            raise ValueError("an open-loop phase is either all pinned or all unpinned")
        start = time.perf_counter() + 0.05
        samples: List[Optional[Sample]] = [None] * len(requests)
        shared = itertools.count()
        own = [
            iter([i for i, request in enumerate(requests) if request.conn == conn])
            for conn in range(CONNECTIONS)
        ]

        def run(conn: int) -> None:
            while True:
                position = next(own[conn], None) if pinned else next(shared)
                if position is None or position >= len(requests):
                    return
                due = start + offsets[position]
                idle = time.perf_counter() < due
                if idle:
                    _sleep_until(due)
                samples[position] = self._send(conn, requests[position], due, idle)

        self._threads(run)
        return samples  # type: ignore[return-value]

    def closed_loop(
        self, streams: Sequence[Iterator[Request]], seconds: float
    ) -> Tuple[List[Sample], float]:
        """Back-to-back requests until ``seconds`` pass; returns (samples, elapsed)."""
        start = time.perf_counter()
        deadline = start + seconds
        per_conn: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]

        def run(conn: int) -> None:
            for request in streams[conn]:
                now = time.perf_counter()
                if now >= deadline:
                    return
                per_conn[conn].append(self._send(conn, request, now, False))

        self._threads(run)
        samples = [sample for conn in per_conn for sample in conn]
        finished = max((sample.end for sample in samples), default=deadline)
        return samples, finished - start

    def drain(self, requests: Sequence[Request]) -> List[Sample]:
        """Send a finite list closed-loop over both connections (warm-up)."""
        if requests and requests[0].conn is not None:
            streams = [iter([r for r in requests if r.conn == conn]) for conn in range(CONNECTIONS)]
        else:
            streams = [SharedStream(iter(requests))] * CONNECTIONS
        samples, _ = self.closed_loop(streams, float("inf"))
        return samples
