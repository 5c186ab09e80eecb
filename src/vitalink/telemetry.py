"""Heart-rate readings: wire codec, a deterministic simulated sensor, and
threshold-based anomaly detection.

A reading is 11 bytes on the wire, big-endian with no padding: the
timestamp in ms as an unsigned 64-bit integer, the bpm as an unsigned
16-bit integer (at most `BPM_MAX`) and one status byte. It names no
device: the handshake authenticated the sender once for the whole
session, and the server's session names whom its alerts are about. One
`struct.Struct` packs a reading, and unpacks a whole Data payload in one
`iter_unpack` pass that checks each reading as it reaches it, so the
readings before a bad one come first. A failure is a `MalformedReading`.

Thresholds and simulator dynamics are demo configuration values, not
clinical claims.
"""

from __future__ import annotations

import math
import random
import struct
from collections import deque, namedtuple
from typing import Iterator, NamedTuple

from .errors import MalformedReading

# timestamp ms, bpm, status
_READING = struct.Struct(">QHB")
READING_LEN = _READING.size  # 11
BPM_MAX = 300

STATUS_OK = 0
STATUS_OFF_BODY = 1
STATUS_LOW_CONFIDENCE = 2
STATUS_NAMES = {STATUS_OK: "ok", STATUS_OFF_BODY: "off_body", STATUS_LOW_CONFIDENCE: "low_confidence"}


class HeartRateReading(NamedTuple):
    timestamp_ms: int
    bpm: int
    status: int = STATUS_OK


def reading_encode(r: HeartRateReading) -> bytes:
    if not 0 <= r.timestamp_ms < 1 << 64:
        raise MalformedReading(f"timestamp {r.timestamp_ms} out of range")
    if not 0 <= r.bpm <= BPM_MAX:
        raise MalformedReading(f"bpm {r.bpm} out of range")
    if r.status not in STATUS_NAMES:
        raise MalformedReading(f"unknown status {r.status}")
    return _READING.pack(*r)


def reading_decode(payload: bytes) -> Iterator[tuple[int, int, int]]:
    """`(timestamp_ms, bpm, status)` per reading; the length is checked now,
    each reading's bpm and status when the iterator reaches it."""
    if not payload or len(payload) % READING_LEN:
        raise MalformedReading(f"payload length {len(payload)}, not n * {READING_LEN}, n >= 1")
    return _checked(_READING.iter_unpack(payload))


def _checked(readings: Iterator[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    for r in readings:
        if r[1] > BPM_MAX:
            raise MalformedReading(f"bpm {r[1]} out of range")
        if r[2] not in STATUS_NAMES:
            raise MalformedReading(f"unknown status {r[2]}")
        yield r


class ScriptSegment(NamedTuple):
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
        seed: int = 0,
        baseline: float = 75.0,
        amplitude: float = 5.0,
        period_s: float = 60.0,
        sigma: float = 3.0,
        script: list[ScriptSegment] | None = None,
    ):
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
        return HeartRateReading(now_ms, bpm, STATUS_OK)


class AnomalyConfig(namedtuple("AnomalyConfig", "low high consecutive", defaults=(40, 150, 3))):
    """The detector's thresholds. A `consecutive` below 1, or thresholds
    out of order or out of range, raise `ValueError`."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):  # the fields are set before it runs
        if self.consecutive < 1:
            raise ValueError(f"consecutive must be at least 1, not {self.consecutive}")
        if not 0 <= self.low < self.high <= BPM_MAX:
            raise ValueError(f"thresholds must satisfy 0 <= low < high <= {BPM_MAX}, "
                             f"not low={self.low} high={self.high}")


class AnomalyAlert(NamedTuple):
    window_start_ms: int
    window_end_ms: int
    observed_bpm: tuple
    rule: str


class AnomalyDetector:
    """Fires once per breach episode when the last N ok-status readings all
    sit below the low threshold or all above the high one. A reading back
    inside the normal band re-arms the detector; off-body and
    low-confidence readings are ignored entirely.

    O(1) per reading, any `(timestamp_ms, bpm, status)` tuple: it counts
    the runs of consecutive ok-readings above the high threshold and below
    the low one. An in-band reading resets both and skips the window, so
    the window holds the last N out-of-band ok-readings: when a run reaches
    N, the last N ok-readings, which name the alert's window. Its alerts
    name no one: the session that feeds it knows whose readings they are."""

    def __init__(self, cfg: AnomalyConfig):
        self.cfg = cfg
        self.window: deque[tuple[int, int, int]] = deque(maxlen=cfg.consecutive)
        self.high_run = 0
        self.low_run = 0
        self.armed = True

    def check(self, r: tuple[int, int, int]) -> AnomalyAlert | None:
        timestamp_ms, bpm, status = r
        if status != STATUS_OK:
            return None
        cfg = self.cfg
        if bpm > cfg.high:
            self.high_run += 1
            self.low_run = 0
            run, rule = self.high_run, "high_hr"
        elif bpm < cfg.low:
            self.low_run += 1
            self.high_run = 0
            run, rule = self.low_run, "low_hr"
        else:
            self.high_run = self.low_run = 0
            self.armed = True
            return None
        self.window.append(r)
        if run < cfg.consecutive or not self.armed:
            return None
        self.armed = False
        return AnomalyAlert(
            window_start_ms=self.window[0][0],
            window_end_ms=timestamp_ms,
            observed_bpm=tuple(w[1] for w in self.window),
            rule=rule,
        )
