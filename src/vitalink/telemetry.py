"""Heart-rate readings: wire codec, a deterministic simulated sensor, and
threshold-based anomaly detection.

Thresholds and simulator dynamics are demo configuration values, not
clinical claims.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MalformedReading

READING_LEN = 19
BPM_MAX = 300

STATUS_OK = 0
STATUS_OFF_BODY = 1
STATUS_LOW_CONFIDENCE = 2
STATUS_NAMES = {STATUS_OK: "ok", STATUS_OFF_BODY: "off_body", STATUS_LOW_CONFIDENCE: "low_confidence"}


class HeartRateReading(NamedTuple):
    device_id: bytes
    timestamp_ms: int
    bpm: int
    status: int = STATUS_OK


def reading_encode(r: HeartRateReading) -> bytes:
    if len(r.device_id) != 8:
        raise MalformedReading("device_id must be 8 bytes")
    if not 0 <= r.bpm <= BPM_MAX:
        raise MalformedReading(f"bpm {r.bpm} out of range")
    if r.status not in STATUS_NAMES:
        raise MalformedReading(f"unknown status {r.status}")
    return (
        r.device_id
        + r.timestamp_ms.to_bytes(8, "big")
        + r.bpm.to_bytes(2, "big")
        + bytes([r.status])
    )


def reading_decode(data: bytes) -> HeartRateReading:
    if len(data) != READING_LEN:
        raise MalformedReading(f"payload length {len(data)}, expected {READING_LEN}")
    bpm = int.from_bytes(data[16:18], "big")
    if bpm > BPM_MAX:
        raise MalformedReading(f"bpm {bpm} out of range")
    status = data[18]
    if status not in STATUS_NAMES:
        raise MalformedReading(f"unknown status {status}")
    return HeartRateReading(data[:8], int.from_bytes(data[8:16], "big"), bpm, status)


@dataclass
class ScriptSegment:
    """Force a fixed bpm for reading indices start..end inclusive."""

    start: int
    end: int
    bpm: int


def parse_anomaly_script(text: str) -> list[ScriptSegment]:
    segments = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"script line {lineno}: expected 'start end bpm'")
        start, end, bpm = (int(p) for p in parts)
        if start < 0 or end < start or not 0 <= bpm <= BPM_MAX:
            raise ValueError(f"script line {lineno}: values out of range")
        segments.append(ScriptSegment(start, end, bpm))
    return segments


class SensorSim:
    """Sinusoidal baseline plus gaussian noise; fully determined by the seed."""

    def __init__(
        self,
        device_id: bytes,
        seed: int = 0,
        baseline: float = 75.0,
        amplitude: float = 5.0,
        period_s: float = 60.0,
        sigma: float = 3.0,
        script: list[ScriptSegment] | None = None,
    ):
        self.device_id = device_id
        self.baseline = baseline
        self.amplitude = amplitude
        self.period_s = period_s
        self.sigma = sigma
        self.script = script or []
        self.index = 0
        self._rng = random.Random(seed)

    def next_reading(self, now_ms: int) -> HeartRateReading:
        bpm = None
        for seg in self.script:
            if seg.start <= self.index <= seg.end:
                bpm = seg.bpm
                break
        if bpm is None:
            phase = 2.0 * math.pi * (now_ms / 1000.0) / self.period_s
            noise = self._rng.gauss(0.0, self.sigma) if self.sigma > 0 else 0.0
            bpm = round(self.baseline + self.amplitude * math.sin(phase) + noise)
            bpm = max(30, min(220, bpm))
        self.index += 1
        return HeartRateReading(self.device_id, now_ms, bpm, STATUS_OK)


@dataclass(frozen=True)
class AnomalyConfig:
    low: int = 40
    high: int = 150
    consecutive: int = 3

    def __post_init__(self):
        if self.consecutive < 1:
            raise ValueError(f"consecutive must be at least 1, not {self.consecutive}")


@dataclass(frozen=True)
class AnomalyAlert:
    device_id: bytes
    window_start_ms: int
    window_end_ms: int
    observed_bpm: tuple
    rule: str


class AnomalyDetector:
    """Fires once per breach episode when the last N ok-status readings all
    sit below the low threshold or all above the high one. A reading back
    inside the normal band re-arms the detector; off-body and
    low-confidence readings are ignored entirely.

    O(1) per reading: it counts the run of consecutive ok-readings above
    the high threshold and the run below the low one, and keeps the last N
    ok-readings only to name the alert's window."""

    def __init__(self, cfg: AnomalyConfig):
        self.cfg = cfg
        self.window: deque[HeartRateReading] = deque(maxlen=cfg.consecutive)
        self.high_run = 0
        self.low_run = 0
        self.armed = True

    def check(self, r: HeartRateReading) -> AnomalyAlert | None:
        if r.status != STATUS_OK:
            return None
        cfg = self.cfg
        self.window.append(r)
        if r.bpm > cfg.high:
            self.high_run += 1
            self.low_run = 0
            run, rule = self.high_run, "high_hr"
        elif r.bpm < cfg.low:
            self.low_run += 1
            self.high_run = 0
            run, rule = self.low_run, "low_hr"
        else:
            self.high_run = self.low_run = 0
            self.armed = True
            return None
        if run < cfg.consecutive or not self.armed:
            return None
        self.armed = False
        return AnomalyAlert(
            device_id=r.device_id,
            window_start_ms=self.window[0].timestamp_ms,
            window_end_ms=r.timestamp_ms,
            observed_bpm=tuple(w.bpm for w in self.window),
            rule=rule,
        )
