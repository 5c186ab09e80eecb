"""vitalink benchmark: `vitalink serve` in its own process on loopback, driven
by this process through the device entry point `run_device` over
one or two connections in a closed loop.

    python3 bench/run.py                          # every workload, with a table
    python3 bench/run.py --workload connect --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --quick                  # smoke test of schema and oracles

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json, rescaled to the sizing machine's
speed (speed.py); the table before it also gives them as measured. With
--trace 1 the timed window is split in two halves: the first is untraced,
the second runs against a traced server with traced devices. The JSON
then holds the per-layer metrics, and the lines before it give the
tracing overhead (traced minus untraced end-to-end). Every run checks the
server's outputs and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
SETUPS = 5  # setup_s is the median of this many server spawns per run
RATES = ("sessions_per_s", "readings_per_s")
MEMORY = ("server_maxrss_mb",)  # not scaled by the machine's speed
# Printed but not in BENCHMARK.json. The first three are wall-clock figures,
# which stretch whenever the hypervisor runs something else on our vCPUs
# (`steal_share`); each of the others is missing or zero on some workload.
REPORTED_UNITS = {
    "sessions_per_s": "1/s", "readings_per_s": "1/s", "session_p50_ms": "ms",
    "session_p95_ms": "ms", "rejected_per_s": "1/s", "failed_share": "ratio",
    "reuse_ratio": "ratio", "server_cpu_util": "ratio", "good_sessions": "count",
    "steal_share": "ratio",
}
OUT_OF_SCOPE = {
    "store_fsync": "serve has no flag for Store(fsync=True), and disk timing on a "
                   "shared machine is not meaningful",
    "records_4KiB": "the protocol never carries them: reading_decode accepts only 19 B",
    "proxy": "test tooling; a third busy process on 2 vCPUs would measure the scheduler",
    "clients_over_2": "2 connections on 2 vCPUs; more would measure the scheduler",
}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info() -> dict:
    loc = sum(1 for p in sorted((SRC / "vitalink").glob("*.py"))
              for line in p.read_text().splitlines() if line.strip())
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "network": "loopback only",
            "src_vitalink_nonblank_loc": loc}


def rescale(raw: dict, speed: float) -> dict:
    """The metrics as on the machine the benchmark was sized on: times
    divided by the run's speed factor, rates multiplied by it."""
    return {m: v if m in MEMORY else v * speed if m in RATES else v / speed
            for m, v in raw.items()}


def window_metrics(server, sessions, t0, cpu_s) -> tuple[dict, dict]:
    """(end-to-end metrics, reported-only metrics) of one timed window."""
    elapsed = max(s.t_end for s in sessions) - t0
    ok = [s for s in sessions if s.ident.cause is None and s.report.error is None]
    readings = sum(len(s.report.sent) for s in ok)
    latency = [s.report.duration_s * 1e3 for s in ok]
    device_cpu = sum(s.cpu_s for s in sessions)
    m = {
        "sessions_per_s": len(ok) / elapsed,
        "readings_per_s": readings / elapsed,
        "session_p50_ms": statistics.median(latency),
        "server_cpu_ms_per_session": cpu_s * 1e3 / len(sessions),
        "device_cpu_ms_per_session": device_cpu * 1e3 / len(sessions),
        "server_cpu_us_per_reading": cpu_s * 1e6 / readings,
        "device_cpu_us_per_reading": device_cpu * 1e6 / readings,
        "server_maxrss_mb": server.maxrss_mb(),
    }
    extra = {"server_cpu_util": cpu_s / elapsed, "good_sessions": len(ok),
             "reuse_ratio": len(sessions) / len({s.ident.name for s in sessions})}
    if len(latency) >= 200:  # at least 10 samples beyond the 95th percentile
        extra["session_p95_ms"] = statistics.quantiles(latency, n=20)[18]
    rogue = [s for s in sessions if s.ident.cause is not None]
    if rogue:
        extra["rejected_per_s"] = len(rogue) / elapsed
    return m, extra


class Run:
    """One workload at one seed: set-ups, the timed window, the checks and,
    with tracing, a second window against a traced server."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, setups: int,
                 workdir: Path):
        self.w, self.seed = workload, seed
        self.seconds = seconds / 2 if trace else seconds
        self.trace, self.setups, self.workdir = trace, setups, workdir
        self.live = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def spawn(self, name: str, spans_path=None):
        from load import warm_up
        from server import ServerProc

        server = ServerProc(SRC, self.fleet, self.workdir / name, spans_path)
        self.live.append(server)
        t0 = time.perf_counter()
        spawn_s = server.start()
        warm = warm_up(server.port, self.fleet, self.seed, name)
        return server, warm, spawn_s, time.perf_counter() - t0

    def finish(self, server, sessions) -> None:
        from checks import check_server

        code = server.stop()
        self.live.remove(server)
        if code != 0:
            self.problems.append(f"server exited with code {code}")
        problems, failed = check_server(server, sessions)
        self.problems += problems
        self.attempted += len(sessions)
        self.failed += failed

    def window(self, server, tag: str):
        from load import drive
        from speed import cpu_ticks

        cpu0, ticks0 = server.cpu_s(), cpu_ticks()
        sessions, t0 = drive(server.port, self.fleet, self.w, self.seed, self.scripts,
                             self.seconds, tag)
        cpu, ticks1 = server.cpu_s() - cpu0, cpu_ticks()
        m, extra = window_metrics(server, sessions, t0, cpu)
        extra["steal_share"] = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
        return sessions, (m, extra)

    def execute(self) -> dict:
        from fleet import build_fleet
        from load import write_scripts

        w = self.w
        self.fleet = build_fleet(self.workdir / "pki", self.seed, w.n_devices,
                                 w.rogues_per_cause)
        self.scripts = (write_scripts(self.workdir / "scripts", self.seed, w.readings)
                        if w.readings > 1 else [None])
        try:
            result = self._measure()
        finally:
            for server in list(self.live):
                server.stop()
        result.update(problems=self.problems, attempted=self.attempted, failed=self.failed)
        return result

    def _measure(self) -> dict:
        from speed import SpeedProbe

        setup_s, spawn_s = [], []
        with SpeedProbe() as probe:
            for i in range(self.setups):
                server, warm, spawn, setup = self.spawn(f"server-{i}")
                setup_s.append(setup)
                spawn_s.append(spawn)
                if i < self.setups - 1:
                    self.finish(server, warm)
            sessions, (raw, extra) = self.window(server, "window")
        self.finish(server, warm + sessions)
        raw["setup_s"] = statistics.median(setup_s)
        extra["failed_share"] = self.failed / self.attempted
        speed = probe.speed()
        result = {"e2e": rescale(raw, speed), "raw": raw, "speed": speed,
                  "extra": extra, "spawn_to_listen_s": statistics.median(spawn_s)}
        if self.trace:
            result["trace"] = self._traced()
            result["trace"]["metrics"]["server.cli.spawn_to_listen_s"] = \
                result["spawn_to_listen_s"]
        return result

    def _traced(self) -> dict:
        from tracing import Tracer, install, layer_metrics

        spans_path = self.workdir / "server.spans"
        server, warm, _, _ = self.spawn("server-traced", spans_path)
        tracer = Tracer()
        undo = install(tracer)
        try:
            sessions, (e2e, extra) = self.window(server, "traced")
        finally:
            undo()
        self.finish(server, warm + sessions)
        with open(spans_path, "rb") as fh:
            metrics, counts = layer_metrics(pickle.load(fh), "server", len(warm))
        device, device_counts = layer_metrics(tracer.spans(), "device", 0)
        metrics.update(device)
        counts.update(device_counts)
        established, rejected, _ = server.log_counts()
        metrics["server.cpu_util"] = extra["server_cpu_util"]
        metrics["server.endpoints.sessions_established"] = established - len(warm)
        for cause, n in rejected.items():
            counts[f"server.endpoints.handshake_failed.{cause}"] = n
        return {"metrics": metrics, "counts": counts, "e2e": e2e}


def spec_units(kind: str) -> dict:
    """{metric: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(workload, args, quick: bool) -> dict:
    if quick:
        workload = replace(workload, readings=min(workload.readings, 60))
    workdir = RUNS_DIR / f"{workload.name}-{args.seed}-{int(time.time() * 1000)}"
    run = Run(workload, args.seed, args.seconds, args.trace, 1 if quick else SETUPS, workdir)
    result = run.execute()
    result["workdir"] = workdir
    return result


def print_result(name: str, result: dict, trace: bool) -> dict:
    """Prints the table rows of one workload; returns its JSON metrics."""
    e2e, e2e_units = result["e2e"], spec_units("end_to_end")
    units = {**REPORTED_UNITS, **e2e_units}
    for metric, unit in e2e_units.items():
        print(f"{name:<11} {metric:<32} {e2e[metric]:>14.4f} {unit}")
    ungated = {m: v for m, v in e2e.items() if m not in e2e_units}
    for metric, value in {**ungated, **result["extra"]}.items():
        print(f"{name:<11} {metric:<32} {value:>14.4f} {units[metric]}  (not gated)")
    print(f"{name:<11} {'spawn_to_listen_s':<32} {result['spawn_to_listen_s']:>14.4f} s"
          "  (not gated)")
    print(f"{name:<11} {'speed_factor':<32} {result['speed']:>14.4f} ratio  (not gated)")
    for metric, value in result["raw"].items():
        print(f"{name:<11} raw.{metric:<28} {value:>14.4f} {units[metric]}  (not gated)")
    if not trace:
        return {m: {"value": e2e[m], "unit": u} for m, u in e2e_units.items()}
    tr = result["trace"]
    for metric, traced in tr["e2e"].items():
        plain = result["raw"][metric]
        print(f"{name:<11} overhead.{metric:<23} {traced - plain:>+14.4f} {units[metric]}"
              f"  ({(traced - plain) / plain:+.1%} traced vs untraced)")
    layer_units = spec_units("per_layer")
    for metric in sorted(tr["metrics"]):
        print(f"{name:<11} {metric:<56} {tr['metrics'][metric]:>12.3f} "
              f"{layer_units.get(metric, '')}")
    for metric in sorted(tr["counts"]):
        print(f"{name:<11} {metric:<56} {tr['counts'][metric]:>12} count  (not gated)")
    return {m: {"value": tr["metrics"][m], "unit": u} for m, u in layer_units.items()}


def schema_problems(metrics: dict, kind: str) -> list[str]:
    names = set(spec_units(kind))
    problems = []
    if set(metrics) != names:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ names)}")
    for name, v in metrics.items():
        value = v["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            problems.append(f"metric {name} = {value!r} is not a positive number")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("connect", "stream", "reject_mix"),
                        help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny traced runs that check schema and oracles; not a timing")
    args = parser.parse_args(argv)

    if not (SRC / "vitalink").is_dir():
        print(f"error: no vitalink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import self_test
    from load import WORKLOADS

    quick = args.quick
    if quick:
        args.seconds, args.trace = 1.0, 1
    names = [args.workload] if args.workload else ["connect", "stream", "reject_mix"]
    print(f"# vitalink benchmark seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key, value in machine_info().items():
        print(f"info {key}={value}")
    for key, why in OUT_OF_SCOPE.items():
        print(f"info out_of_scope.{key}: {why}")

    problems = self_test()
    attempted = failed = 0
    metrics = {}
    for name in names:
        w = WORKLOADS[name]
        print(f"# {name}: {w.connections} connection(s), {w.readings} reading(s) per good "
              "session")
        try:
            result = run_one(w, args, quick)
        except Exception as exc:  # a run that cannot finish prints no result
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        wm = print_result(name, result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        problems += [f"{name}: {p}" for p in result["problems"]]
        if quick:
            problems += [f"{name}: {p}" for p in schema_problems(wm, "per_layer")]
            problems += [f"{name}: {p}" for p in schema_problems(
                {m: {"value": v} for m, v in result["e2e"].items() if m not in REPORTED_UNITS},
                "end_to_end")]
        metrics.update(wm if len(names) == 1 else
                       {f"{name}.{m}": v for m, v in wm.items()})
        if result["problems"]:
            print(f"# {name} work directory kept: {result['workdir']}", file=sys.stderr)
        else:
            shutil.rmtree(result["workdir"], ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if quick:
        print(f"# quick self-check: {'FAILED' if problems else 'ok'}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
