"""Smoke run of the benchmark harness: every workload runs briefly against a
traced `vitalink serve` subprocess and the harness's own oracles pass. It
checks that the harness runs, not how fast anything is."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_quick_self_check_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "# quick self-check: ok" in proc.stdout
