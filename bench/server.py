"""`vitalink serve` in a child process: spawn, readiness, CPU and memory
readings, SIGTERM shutdown, and the server's log lines.

The child's stderr goes to a file. The server writes at least two INFO
lines per session plus ALERT lines, so an unread pipe would fill and stall
it mid-run. Readiness comes from the `listening addr=` line: a probe
connection would show up in the log as a suspicious termination.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from fleet import Fleet

BENCH_DIR = Path(__file__).resolve().parent
LISTENING = re.compile(r"listening addr=([\d.]+):(\d+)")
HANDSHAKE_FAILED = re.compile(r"handshake_failed cause=\S+ detail=(\S+)")
# Log events that no workload should cause; each one is a check failure.
UNEXPECTED = ("suspicious_termination", "record_auth_failure", "session_fatal",
              "connection_error", "peer_abort", "Traceback")
HR_LOW, HR_HIGH, HR_CONSECUTIVE = 40, 150, 3
CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class ServerProc:
    def __init__(self, src_dir: Path, fleet: Fleet, workdir: Path, spans_path: Path | None = None):
        self.store_dir = workdir / "store"
        self.log_path = workdir / "server.log"
        self.spans_path = spans_path
        workdir.mkdir(parents=True, exist_ok=True)
        if spans_path is None:
            launcher = ["-m", "vitalink.cli"]
        else:
            launcher = [str(BENCH_DIR / "traced_serve.py"), str(spans_path)]
        self.argv = [
            sys.executable, *launcher, "serve", "--listen", "127.0.0.1:0",
            "--key", fleet.server_key, "--cred", fleet.server_cred, "--root", fleet.root_path,
            "--store-dir", str(self.store_dir), "--hr-low", str(HR_LOW),
            "--hr-high", str(HR_HIGH), "--hr-consecutive", str(HR_CONSECUTIVE),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(src_dir), VITALINK_LOG="INFO")
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 30.0) -> float:
        """Spawns the server; returns seconds from spawn to its listening line."""
        with open(self.log_path, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(self.argv, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log, env=self.env)
        while True:
            m = LISTENING.search(self.log_text())
            if m:
                self.port = int(m.group(2))
                return time.perf_counter() - t0
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode}:\n{self.log_text()}")
            if time.perf_counter() - t0 > timeout:
                self.stop()
                raise ServerError("server did not report listening in time")
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def maxrss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, then wait; SIGKILL if the server ignores it."""
        if self.proc is None or self.proc.returncode is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ServerError("server ignored SIGTERM")

    def log_text(self) -> str:
        return self.log_path.read_text(errors="replace")

    def log_counts(self) -> tuple[int, Counter, Counter]:
        """(sessions established, handshake failures by cause, unexpected events)."""
        text = self.log_text()
        failed = Counter(HANDSHAKE_FAILED.findall(text))
        unexpected = Counter({e: text.count(e) for e in UNEXPECTED if e in text})
        return text.count("session_established"), failed, unexpected
