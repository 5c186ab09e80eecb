"""The machine's speed during a run, from a fixed reference loop.

On a shared machine the speed of plain CPU work drifts by tens of percent
over minutes, and every timing of vitalink drifts with it. `SpeedProbe`
runs `reference_loop`, which shares no code with vitalink, every
PERIOD_S seconds on its own thread in this process and times it on the
thread's CPU clock, so waits for the GIL stay out. `speed()` is the mean
time of the loop over REF_S: above 1 the machine ran slower than the one
the benchmark was sized on. A change to vitalink does not move it, so
dividing a time by it (or multiplying a rate) cancels the machine's drift
and keeps the change.
"""

from __future__ import annotations

import statistics
import threading
import time

# Mean thread CPU time of one reference_loop call on the 2-vCPU Xeon the
# benchmark was sized on (CPython 3.11.7).
REF_S = 350e-6
PERIOD_S = 0.1
_MOD = (1 << 255) - 19


def reference_loop() -> int:
    """Big-integer and byte work of the kind vitalink does, in its own code."""
    x = 0x1234567
    buf = bytearray(64)
    for i in range(300):
        x = (x * x + i) % _MOD
        buf[i & 63] ^= x & 0xFF
    return x


def cpu_ticks() -> tuple[int, int]:
    """(stolen, busy + stolen) clock ticks of all CPUs so far, from
    /proc/stat: time the hypervisor ran something else while a vCPU had
    work. The probe's CPU clock cannot see it; wall-clock metrics do."""
    with open("/proc/stat") as fh:
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(
            int, fh.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while True:
            c0 = time.thread_time()
            reference_loop()
            self.samples.append(time.thread_time() - c0)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        return statistics.fmean(self.samples) / REF_S
