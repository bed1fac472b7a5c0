"""The server as a separate process: spawn, time to first healthy answer, stop."""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["ServerProcess"]

#: a cold start that takes longer than this is a failure, not a measurement.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``benchmarks.e2e.server`` process, started cold."""

    def __init__(self, root: Path, model_dir: Path, log: Path, spans: Optional[Path] = None):
        self.root = root
        self.model_dir = model_dir
        self.log = log
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        #: spawn -> first 200 on /healthz, seconds.
        self.setup_s = 0.0
        #: the server's own phase timings (world, model, ingest, index, serve).
        self.phases: Dict[str, float] = {}

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [sys.executable, "-m", "benchmarks.e2e.server", "--model", str(self.model_dir)]
        if self.spans is not None:
            command += ["--spans", str(self.spans)]
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log
            )
        try:
            announced = json.loads(self._first_line(started + START_TIMEOUT_S))
            self.port = int(announced["port"])
            self.phases = {name: float(value) for name, value in announced["setup"].items()}
            while True:
                status = self._healthz()
                if status == 200:
                    break
                if time.perf_counter() - started > START_TIMEOUT_S:
                    raise RuntimeError(f"server never became healthy (last status {status})")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _first_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                raise RuntimeError(f"server did not announce its port; see {self.log}")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited during set-up; see {self.log}")
        return line.decode("utf-8")

    def _healthz(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            return response.status
        except OSError:
            return -1
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def thread_cpu(self) -> Dict[int, int]:
        """CPU nanoseconds per live thread of the server (``schedstat``).

        Nanosecond counters, where ``/proc/<pid>/stat`` counts 10 ms ticks.
        A thread that exits between two readings drops out of the delta;
        none do during a load phase (keep-alive connections, fixed pools).
        """
        cpu: Dict[int, int] = {}
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                cpu[int(task.name)] = int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                continue
        return cpu

    @staticmethod
    def cpu_seconds_between(before: Dict[int, int], after: Dict[int, int]) -> float:
        return sum(ns - before.get(tid, 0) for tid, ns in after.items()) / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait; the server writes its spans before exiting."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        code = self.proc.returncode
        self.proc = None
        if code not in (0, -signal.SIGKILL):
            raise RuntimeError(f"server exited with code {code}; see {self.log}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is not None:
            self.kill()
        self.stop()
