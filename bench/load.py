"""The load generator: workloads, and device sessions driven through the
device's public entry point `vitalink.endpoints.run_device`.

Every session gets its own seed, because `run_device(seed=...)` seeds the
ephemeral keys and randoms and real devices never repeat them.
"""

from __future__ import annotations

import hashlib
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from fleet import ROGUE_CAUSES, Fleet, Identity
from server import HR_HIGH, HR_LOW
from vitalink import curves, endpoints
from vitalink.endpoints import DeviceConfig, DeviceReport

BASE_MS = 1_700_000_000_000
N_SCRIPTS = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix; BENCHMARK.json and README.md say why each exists."""

    name: str
    n_devices: int
    rogues_per_cause: int
    readings: int  # per good session
    min_per_thread: int  # sessions each connection runs even past the deadline
    # At most nproc (= 2): more threads on 2 vCPUs would measure the scheduler.
    connections: int = 2

    def plan(self, fleet: Fleet, t: int, k: int) -> tuple[Identity, int]:
        """The identity and reading count of connection t's k-th session."""
        own = fleet.devices[t::self.connections]
        if not self.rogues_per_cause:
            return own[k % len(own)], self.readings
        if k % 2 == 0:
            return own[(k // 2) % len(own)], self.readings
        rogues = fleet.rogues[ROGUE_CAUSES[(k // 2 + 2 * t) % len(ROGUE_CAUSES)]]
        return rogues[t % len(rogues)], 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("connect", n_devices=16, rogues_per_cause=0, readings=1, min_per_thread=1),
        # The server runs each connection in a thread under one GIL, so a
        # second stream adds no readings per second, only GIL hand-offs.
        Workload("stream", n_devices=4, rogues_per_cause=0, readings=1000, min_per_thread=1,
                 connections=1),
        # 8 sessions per connection cover all four rogue causes on each
        Workload("reject_mix", n_devices=16, rogues_per_cause=2, readings=1,
                 min_per_thread=8),
    )
}


@dataclass
class Session:
    ident: Identity
    report: DeviceReport
    cpu_s: float  # thread CPU time of the run_device call
    t_end: float


def session_seed(seed: int, tag: str, t: int, k: int) -> int:
    digest = hashlib.sha256(f"{seed}/{tag}/{t}/{k}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def write_scripts(directory: Path, seed: int, readings: int) -> list[str]:
    """Anomaly scripts with breach episodes: high, low, too short to alert,
    and high straight into low (no re-arm, so only the high one alerts)."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = []
    for s in range(N_SCRIPTS):
        kinds = ["high", "low", "short", "high_low"]
        rng.shuffle(kinds)
        slot = readings // len(kinds)
        lines = []
        for i, kind in enumerate(kinds):
            start = i * slot + rng.randrange(1, max(2, slot - 12))
            high = rng.randint(HR_HIGH + 5, 200)
            low = rng.randint(30, HR_LOW - 2)
            if kind == "high":
                lines.append((start, start + rng.randint(2, 5), high))
            elif kind == "low":
                lines.append((start, start + rng.randint(2, 4), low))
            elif kind == "short":
                lines.append((start, start + 1, high))
            else:
                lines.append((start, start + 2, high))
                lines.append((start + 3, start + 5, low))
        path = directory / f"script-{s}.txt"
        path.write_text("".join(f"{a} {b} {bpm}\n" for a, b, bpm in lines))
        paths.append(str(path))
    return paths


def run_session(port: int, fleet: Fleet, ident: Identity, count: int, seed: int,
                script: str | None) -> Session:
    cfg = DeviceConfig(
        server_port=port, key_path=ident.key_path, cred_path=ident.cred_path,
        root_path=fleet.root_path, suite=curves.P256, count=count, seed=seed,
        start_ms=BASE_MS + seed % 10**9, anomaly_script=script,
    )
    c0 = time.thread_time()
    report = endpoints.run_device(cfg)
    cpu = time.thread_time() - c0
    return Session(ident, report, cpu, time.perf_counter())


def warm_up(port: int, fleet: Fleet, seed: int, tag: str) -> list[Session]:
    """Two short good sessions, so lazily built tables exist before timing."""
    return [run_session(port, fleet, fleet.devices[j % len(fleet.devices)], 1,
                        session_seed(seed, tag, 0, j), None) for j in range(2)]


def drive(port: int, fleet: Fleet, workload: Workload, seed: int, scripts: list[str],
          seconds: float, tag: str) -> tuple[list[Session], float]:
    """Closed loop: one thread per connection, each starting its next session when
    the last ends, until the deadline. Returns the sessions and the start."""

    def loop(t):
        out = []
        k = 0
        while k < workload.min_per_thread or time.perf_counter() < deadline:
            ident, count = workload.plan(fleet, t, k)
            script = (scripts[(t + workload.connections * k) % len(scripts)]
                      if count > 1 else None)
            out.append(run_session(port, fleet, ident, count,
                                   session_seed(seed, tag, t, k), script))
            k += 1
        return out

    t0 = time.perf_counter()
    deadline = t0 + seconds
    with ThreadPoolExecutor(workload.connections) as pool:
        futures = [pool.submit(loop, t) for t in range(workload.connections)]
        sessions = [s for f in futures for s in f.result()]
    return sessions, t0
