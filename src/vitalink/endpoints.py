"""The two ends of the wire: the edge-device client that samples, seals,
and ships heart-rate readings, and the ingestion server that terminates
the secure channel, persists readings, and raises anomaly alerts.

Persistence is append-only line-delimited text. Each line is written in
a single unbuffered write so concurrent sessions never interleave within
a line and a crash never leaves a torn line behind.
"""

from __future__ import annotations

import logging
import os
import select
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import curves, keyfiles, records, telemetry
from .credentials import credential_len, decode_subject
from .curves import SUITES, CurveSuite
from .errors import (
    AuthFailure,
    ConfigurationError,
    ConnectionAborted,
    EndOfStream,
    FrameTimeout,
    HandshakeError,
    MalformedFrame,
    MalformedReading,
    SequenceExhausted,
    VitalinkError,
)
from .handshake import ClientHandshake, LocalIdentity, ServerHandshake
from .listener import Listener
from .records import (
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    TYPE_SERVER_HELLO,
    DirectionState,
    Frame,
    frame_read,
    frame_write,
    record_open,
    record_seal,
)
from .telemetry import (
    AnomalyAlert,
    AnomalyConfig,
    AnomalyDetector,
    SensorSim,
    STATUS_NAMES,
    reading_decode,
    reading_encode,
)

log = logging.getLogger("vitalink")

_STATUS_BY_NAME = {v: k for k, v in STATUS_NAMES.items()}


def load_identity(key_path, cred_path, suite: CurveSuite) -> LocalIdentity:
    """Reads a key and its credential; refuses a key whose public point is
    not the credential's, which peers would otherwise only see as a bad
    transcript signature."""
    d = keyfiles.read_private_key(key_path, suite)
    cred = keyfiles.read_credential(cred_path, suite)
    if curves.scalar_mul(d, suite.G, suite) != cred.static_pub:
        raise ConfigurationError(f"{key_path}: private key does not match {cred_path}")
    return LocalIdentity(static_priv=d, credential=cred)


def detect_suite_for_credential(path) -> CurveSuite:
    """Credential wire lengths are distinct per suite, so the file length
    identifies which curve it belongs to."""
    size = Path(path).stat().st_size
    for suite in SUITES.values():
        if size == credential_len(suite):
            return suite
    raise ValueError(f"{path}: not a credential for any known suite")


# ---------------------------------------------------------------------------
# persistence


@dataclass(frozen=True)
class StoreRecord:
    session_id: str  # hex of the transcript digest
    subject_id: str
    device_id: str  # hex
    timestamp_ms: int
    bpm: int
    status: str
    received_at_ms: int

    def line(self) -> str:
        return "\t".join(
            [
                self.session_id,
                self.subject_id,
                self.device_id,
                str(self.timestamp_ms),
                str(self.bpm),
                self.status,
                str(self.received_at_ms),
            ]
        )


def parse_reading_line(line: str) -> StoreRecord:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise ValueError(f"bad readings line: {line!r}")
    if parts[5] not in _STATUS_BY_NAME:
        raise ValueError(f"bad status in line: {line!r}")
    return StoreRecord(
        session_id=parts[0],
        subject_id=parts[1],
        device_id=parts[2],
        timestamp_ms=int(parts[3]),
        bpm=int(parts[4]),
        status=parts[5],
        received_at_ms=int(parts[6]),
    )


def alert_line(a: AnomalyAlert) -> str:
    return "\t".join(
        [
            a.device_id.hex(),
            a.rule,
            str(a.window_start_ms),
            str(a.window_end_ms),
            ",".join(str(b) for b in a.observed_bpm),
        ]
    )


def parse_alert_line(line: str) -> AnomalyAlert:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise ValueError(f"bad alerts line: {line!r}")
    return AnomalyAlert(
        device_id=bytes.fromhex(parts[0]),
        rule=parts[1],
        window_start_ms=int(parts[2]),
        window_end_ms=int(parts[3]),
        observed_bpm=tuple(int(b) for b in parts[4].split(",")),
    )


class Store:
    """Append-only readings and alerts logs, safe for concurrent sessions."""

    def __init__(self, directory, fsync: bool = False):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._readings = open(self.dir / "readings.log", "ab", buffering=0)
        self._alerts = open(self.dir / "alerts.log", "ab", buffering=0)

    def append_reading(self, rec: StoreRecord) -> None:
        self._append(self._readings, rec.line())

    def append_alert(self, a: AnomalyAlert) -> None:
        self._append(self._alerts, alert_line(a))

    def _append(self, fh, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        with self._lock:
            fh.write(data)
            if self.fsync:
                os.fsync(fh.fileno())

    def close(self) -> None:
        with self._lock:
            self._readings.close()
            self._alerts.close()


# ---------------------------------------------------------------------------
# server


@dataclass
class ServerConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    key_path: str = ""
    cred_path: str = ""
    root_path: str = ""
    store_dir: str = "store"
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    fsync: bool = False
    read_timeout_s: float = records.READ_TIMEOUT_S


class IngestionServer:
    """Accepts concurrent device sessions; one worker thread per connection.
    A failed connection never perturbs the listener or other sessions."""

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self.suite = detect_suite_for_credential(cfg.cred_path)
        self.identity = load_identity(cfg.key_path, cfg.cred_path, self.suite)
        self.trust_root = keyfiles.read_credential(cfg.root_path, self.suite)
        self.store = Store(cfg.store_dir, fsync=cfg.fsync)
        self._listener: Listener | None = None
        self.port = 0

    def start(self) -> None:
        self._listener = Listener(self.cfg.listen_host, self.cfg.listen_port, self._handle)
        self.port = self._listener.port
        log.info("listening addr=%s:%d", self.cfg.listen_host, self.port)

    def _abort(self, conn: socket.socket) -> None:
        try:
            frame_write(conn, Frame(TYPE_ABORT, b""))
        except OSError:
            pass

    def _handle(self, conn: socket.socket, addr) -> None:
        recv_dir: DirectionState | None = None
        session_hex = "-"
        try:
            fr = frame_read(conn, self.cfg.read_timeout_s)
            if fr.frame_type != TYPE_CLIENT_HELLO:
                raise MalformedFrame("expected ClientHello")
            hs = ServerHandshake(self.identity, self.trust_root, suite=self.suite)
            frame_write(conn, Frame(TYPE_SERVER_HELLO, hs.respond(fr.body)))
            fr = frame_read(conn, self.cfg.read_timeout_s)
            if fr.frame_type != TYPE_CLIENT_FINISH:
                raise MalformedFrame("expected ClientFinish")
            keys, peer_subject = hs.complete(fr.body)
            session_hex = keys.session_id.hex()
            subject = decode_subject(peer_subject)
            log.info("session_established peer=%s session=%s", subject, session_hex[:16])

            recv_dir = DirectionState(keys.c2s_key, keys.c2s_salt)
            detector = AnomalyDetector(self.cfg.anomaly)
            last_ts = -1
            clean_close = False
            while True:
                fr = frame_read(conn, self.cfg.read_timeout_s)
                if fr.frame_type == TYPE_ABORT:
                    log.warning("peer_abort session=%s", session_hex[:16])
                    break
                if fr.frame_type not in (TYPE_DATA, TYPE_CLOSE):
                    raise MalformedFrame("unexpected frame type mid-session")
                ftype, payload = record_open(recv_dir, fr)
                if ftype == TYPE_CLOSE:
                    clean_close = True
                    log.info("session_closed session=%s", session_hex[:16])
                    break
                reading = reading_decode(payload)
                if reading.timestamp_ms < last_ts:
                    raise MalformedReading("timestamps went backwards")
                last_ts = reading.timestamp_ms
                self.store.append_reading(
                    StoreRecord(
                        session_id=session_hex,
                        subject_id=subject,
                        device_id=reading.device_id.hex(),
                        timestamp_ms=reading.timestamp_ms,
                        bpm=reading.bpm,
                        status=STATUS_NAMES[reading.status],
                        received_at_ms=int(time.time() * 1000),
                    )
                )
                alert = detector.check(reading)
                if alert is not None:
                    self.raise_alert(alert)
        except EndOfStream:
            log.warning("suspicious_termination session=%s cause=no_authenticated_close",
                        session_hex[:16])
            self._abort(conn)
        except AuthFailure:
            log.error("record_auth_failure session=%s action=abort", session_hex[:16])
            self._abort(conn)
        except (MalformedFrame, FrameTimeout, MalformedReading, SequenceExhausted) as exc:
            log.error("session_fatal session=%s cause=%s", session_hex[:16],
                      type(exc).__name__)
            self._abort(conn)
        except HandshakeError as exc:
            log.error("handshake_failed cause=%s detail=%s", type(exc).__name__, exc)
            self._abort(conn)
        except OSError as exc:
            log.error("connection_error session=%s cause=%s", session_hex[:16], exc)
        except VitalinkError as exc:
            log.error("session_fatal session=%s cause=%s", session_hex[:16],
                      type(exc).__name__)
            self._abort(conn)
        finally:
            if recv_dir is not None:
                recv_dir.zeroize()
            try:
                conn.close()
            except OSError:
                pass

    def raise_alert(self, alert: AnomalyAlert) -> None:
        self.store.append_alert(alert)
        print(
            f"ALERT device={alert.device_id.hex()} rule={alert.rule} "
            f"bpm={','.join(str(b) for b in alert.observed_bpm)} "
            f"window={alert.window_start_ms}..{alert.window_end_ms}",
            file=sys.stderr,
            flush=True,
        )

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        self.store.close()


def run_server(cfg: ServerConfig, shutdown: threading.Event | None = None) -> None:
    """Blocks until the shutdown event fires (or forever)."""
    server = IngestionServer(cfg)
    server.start()
    try:
        (shutdown or threading.Event()).wait()
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# device


@dataclass
class DeviceConfig:
    server_host: str = "127.0.0.1"
    server_port: int = 0
    key_path: str = ""
    cred_path: str = ""
    root_path: str = ""
    suite: CurveSuite | None = None
    interval_ms: int = 1000
    count: int = 10
    seed: int | None = None
    baseline: float = 75.0
    amplitude: float = 5.0
    period_s: float = 60.0
    sigma: float = 3.0
    anomaly_script: str | None = None
    realtime: bool = False
    start_ms: int | None = None


@dataclass
class DeviceReport:
    sent_count: int = 0
    session_id: str = ""
    duration_s: float = 0.0
    start_ms: int = 0
    sent: list = field(default_factory=list)  # (timestamp_ms, bpm) pairs
    error: str | None = None


def _check_for_abort(sock: socket.socket) -> bool:
    ready, _, _ = select.select([sock], [], [], 0)
    if not ready:
        return False
    try:
        fr = frame_read(sock, timeout=1.0)
    except VitalinkError:
        return True
    return fr.frame_type == TYPE_ABORT


def run_device(cfg: DeviceConfig) -> DeviceReport:
    """Connects, authenticates, streams readings, and closes cleanly.

    Failures are reported in DeviceReport.error rather than raised, so
    callers get the partial-progress counters either way.
    """
    if cfg.interval_ms < 100:
        raise ValueError("sample interval must be at least 100 ms")
    if cfg.count < 1:
        raise ValueError("count must be at least 1")
    suite = cfg.suite or detect_suite_for_credential(cfg.cred_path)
    identity = load_identity(cfg.key_path, cfg.cred_path, suite)
    trust_root = keyfiles.read_credential(cfg.root_path, suite)
    rng = keyfiles.drbg(cfg.seed) if cfg.seed is not None else os.urandom
    device_id = identity.credential.subject_id[:8]
    script = None
    if cfg.anomaly_script:
        script = telemetry.parse_anomaly_script(Path(cfg.anomaly_script).read_text())
    sim = SensorSim(
        device_id,
        seed=cfg.seed or 0,
        baseline=cfg.baseline,
        amplitude=cfg.amplitude,
        period_s=cfg.period_s,
        sigma=cfg.sigma,
        script=script,
    )

    report = DeviceReport()
    t0 = time.monotonic()
    try:
        sock = socket.create_connection((cfg.server_host, cfg.server_port), timeout=10.0)
    except OSError as exc:
        report.error = f"connection refused: {exc}"
        return report
    sock.settimeout(None)
    send_dir: DirectionState | None = None
    try:
        hs = ClientHandshake(suite, identity, trust_root, rng)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        fr = frame_read(sock)
        if fr.frame_type == TYPE_ABORT:
            raise ConnectionAborted("server aborted during handshake")
        if fr.frame_type != TYPE_SERVER_HELLO:
            raise MalformedFrame("expected ServerHello")
        finish_body, keys = hs.finish(fr.body)
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish_body))
        report.session_id = keys.session_id.hex()
        send_dir = DirectionState(keys.c2s_key, keys.c2s_salt)

        start_ms = cfg.start_ms if cfg.start_ms is not None else int(time.time() * 1000)
        report.start_ms = start_ms
        for i in range(cfg.count):
            ts = start_ms + i * cfg.interval_ms
            reading = sim.next_reading(ts)
            frame_write(sock, record_seal(send_dir, TYPE_DATA, reading_encode(reading)))
            report.sent.append((reading.timestamp_ms, reading.bpm))
            report.sent_count += 1
            if _check_for_abort(sock):
                raise ConnectionAborted("server aborted mid-stream")
            if cfg.realtime:
                time.sleep(cfg.interval_ms / 1000.0)
        frame_write(sock, record_seal(send_dir, TYPE_CLOSE, b""))
        # drain until the server hangs up so a late Abort is not missed
        sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                fr = frame_read(sock, timeout=2.0)
                if fr.frame_type == TYPE_ABORT:
                    raise ConnectionAborted("server aborted the session")
        except (EndOfStream, FrameTimeout, MalformedFrame, OSError):
            pass
    except (VitalinkError, OSError) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    finally:
        if send_dir is not None:
            send_dir.zeroize()
        try:
            sock.close()
        except OSError:
            pass
    report.duration_s = time.monotonic() - t0
    return report
