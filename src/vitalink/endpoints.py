"""The two ends of the wire: the edge-device client that samples, seals,
and ships heart-rate readings, and the ingestion server that terminates
the secure channel, persists readings, and raises anomaly alerts.

Persistence is append-only line-delimited text. The server opens, checks
and formats every reading already buffered on a connection, then writes
the burst's lines in one unbuffered write under the store's lock, so
concurrent sessions never interleave within a burst and a crash never
leaves a torn line behind.
"""

from __future__ import annotations

import logging
import os
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import credentials, curves, gcm, keyfiles, records, telemetry
from .credentials import Credential, Role, credential_len, decode_subject
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
    FrameReader,
    frame_read,
    frame_write,
    record_open,
    record_seal,
)
from .telemetry import (
    AnomalyAlert,
    AnomalyConfig,
    AnomalyDetector,
    HeartRateReading,
    SensorSim,
    STATUS_NAMES,
    reading_decode,
    reading_encode,
)

log = logging.getLogger("vitalink")

_STATUS_BY_NAME = {v: k for k, v in STATUS_NAMES.items()}
# the only records a device sends: one sealed reading, and an empty Close
_RECORD_BODY_LEN = {TYPE_DATA: telemetry.READING_LEN + gcm.TAG_LEN, TYPE_CLOSE: gcm.TAG_LEN}


def log_value(value) -> str:
    """`value` as one `key=value` field: bare if it is one word, else
    double-quoted with backslash escapes, so a line splits with `shlex`."""
    text = str(value)
    if text and not any(c.isspace() or c in "\"'=\\" for c in text):
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def load_identity(key_path, cred_path, suite: CurveSuite) -> LocalIdentity:
    """Reads a key and its credential; refuses a key whose public point is
    not the credential's, which peers would otherwise only see as a bad
    transcript signature."""
    d = keyfiles.read_private_key(key_path, suite)
    cred = keyfiles.read_credential(cred_path, suite)
    if curves.scalar_mul(d, suite.G, suite) != cred.static_pub:
        raise ConfigurationError(f"{key_path}: private key does not match {cred_path}")
    return LocalIdentity(static_priv=d, credential=cred)


def check_trust(cred: Credential, root: Credential, role: Role, suite: CurveSuite) -> None:
    """Refuses a trust root that is not a valid self-signed issuer, and an
    own credential that does not verify against it in `role`: either would
    otherwise show only as every peer's handshake failing."""
    now = int(time.time())
    cause = credentials.verify_trust_root(root, now, suite)
    if cause is not None:
        raise ConfigurationError(f"trust root rejected: {cause}")
    cause = credentials.credential_verify(cred, root, now, suite, expected_role=role)
    if cause is not None:
        raise ConfigurationError(f"own credential rejected by the trust root: {cause}")


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
    """One parsed readings line."""

    session_id: str  # hex of the transcript digest
    subject_id: str
    device_id: str  # hex
    timestamp_ms: int
    bpm: int
    status: str
    received_at_ms: int


def reading_line(session_id: str, subject_id: str, r: HeartRateReading,
                 received_at_ms: int) -> str:
    """The readings line of `r`, without its newline."""
    return (f"{session_id}\t{subject_id}\t{r.device_id.hex()}\t{r.timestamp_ms}\t"
            f"{r.bpm}\t{STATUS_NAMES[r.status]}\t{received_at_ms}")


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
    """Append-only readings and alerts logs, safe for concurrent sessions.

    Each call is one unbuffered write under one lock, so the lines of one
    call never interleave with another's. The server writes each burst of
    readings in one call (`IngestionServer._ingest`), so a crash loses at
    most the unwritten part of one burst; the protocol has no Ack, so
    none of those readings was promised stored. Nothing is fsynced.
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._readings = open(self.dir / "readings.log", "ab", buffering=0)
        self._alerts = open(self.dir / "alerts.log", "ab", buffering=0)

    def append_reading(self, lines: list[str]) -> None:
        """Appends a burst of `reading_line`s in one write."""
        self._append(self._readings, lines)

    def append_alert(self, a: AnomalyAlert) -> None:
        self._append(self._alerts, [alert_line(a)])

    def _append(self, fh, lines: list[str]) -> None:
        data = ("\n".join(lines) + "\n").encode("utf-8")
        with self._lock:
            fh.write(data)

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
    read_timeout_s: float = records.READ_TIMEOUT_S


class IngestionServer:
    """Accepts concurrent device sessions; one worker thread per connection.
    A failed connection never perturbs the listener or other sessions."""

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self.suite = detect_suite_for_credential(cfg.cred_path)
        self.identity = load_identity(cfg.key_path, cfg.cred_path, self.suite)
        self.trust_root = keyfiles.read_credential(cfg.root_path, self.suite)
        check_trust(self.identity.credential, self.trust_root, Role.SERVER, self.suite)
        self.store = Store(cfg.store_dir)
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
        # one deadline for ClientHello and ClientFinish together
        handshake_deadline = time.monotonic() + self.cfg.read_timeout_s
        # one reader for the whole connection: a ClientFinish and the first
        # records may arrive in one segment
        reader = FrameReader(conn)
        try:
            fr = frame_read(reader, handshake_deadline - time.monotonic())
            if fr.frame_type != TYPE_CLIENT_HELLO:
                raise MalformedFrame("expected ClientHello")
            hs = ServerHandshake(self.identity, self.trust_root, suite=self.suite)
            frame_write(conn, Frame(TYPE_SERVER_HELLO, hs.respond(fr.body)))
            fr = frame_read(reader, handshake_deadline - time.monotonic())
            if fr.frame_type != TYPE_CLIENT_FINISH:
                raise MalformedFrame("expected ClientFinish")
            keys, peer_subject = hs.complete(fr.body)
            session_hex = keys.session_id.hex()
            subject = decode_subject(peer_subject)
            log.info("session_established session=%s subject=%s peer=%s:%s",
                     session_hex[:16], log_value(subject), *addr[:2])

            recv_dir = DirectionState(keys.c2s_key, keys.c2s_salt)
            if self._ingest(reader, recv_dir, session_hex, subject) == TYPE_ABORT:
                # plaintext: rewriting one type byte on the path forges it
                log.warning("peer_abort session=%s cause=unauthenticated", session_hex[:16])
                self._abort(conn)
            else:
                log.info("session_closed session=%s", session_hex[:16])
        except EndOfStream:
            log.warning("suspicious_termination session=%s cause=no_authenticated_close",
                        session_hex[:16])
            self._abort(conn)
        except AuthFailure:
            log.error("record_auth_failure session=%s action=abort", session_hex[:16])
            self._abort(conn)
        except HandshakeError as exc:
            log.error("handshake_failed cause=%s detail=%s peer=%s:%s",
                      type(exc).__name__, log_value(exc), *addr[:2])
            self._abort(conn)
        except OSError as exc:
            log.error("connection_error session=%s cause=%s detail=%s peer=%s:%s",
                      session_hex[:16], type(exc).__name__, log_value(exc), *addr[:2])
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

    def _ingest(self, reader: FrameReader, recv_dir: DirectionState, session_hex: str,
                subject: str) -> int:
        """Reads one session's records up to its Close (returns TYPE_CLOSE) or a
        plaintext Abort (returns TYPE_ABORT); raises on any fault.

        While the reader holds whole frames it opens, decodes and checks
        each and formats its line; the lines go to the store in one write
        before the reader waits on the socket, before an alert is stored,
        and however the session ends. So a fault in the k-th record of a
        burst still persists the k readings before it, and none after."""
        detector = AnomalyDetector(self.cfg.anomaly)
        last_ts = -1
        pending: list[str] = []
        try:
            while True:
                if pending and not reader.has_frame():
                    self.store.append_reading(pending)
                    pending = []
                fr = frame_read(reader, self.cfg.read_timeout_s)
                if fr.frame_type == TYPE_ABORT:
                    return TYPE_ABORT
                if len(fr.body) != _RECORD_BODY_LEN.get(fr.frame_type):
                    # refused before any GCM work on it
                    raise MalformedFrame(f"{len(fr.body)}-byte record of type {fr.frame_type}")
                ftype, payload = record_open(recv_dir, fr)
                if ftype == TYPE_CLOSE:
                    return TYPE_CLOSE
                reading = reading_decode(payload)
                if reading.timestamp_ms < last_ts:
                    raise MalformedReading("timestamps went backwards")
                last_ts = reading.timestamp_ms
                pending.append(reading_line(session_hex, subject, reading,
                                            int(time.time() * 1000)))
                alert = detector.check(reading)
                if alert is not None:
                    self.store.append_reading(pending)
                    pending = []
                    self.raise_alert(alert, session_hex)
        finally:
            if pending:
                self.store.append_reading(pending)

    def raise_alert(self, alert: AnomalyAlert, session_hex: str) -> None:
        self.store.append_alert(alert)
        log.warning("alert session=%s device=%s rule=%s bpm=%s window=%d..%d",
                    session_hex[:16], alert.device_id.hex(), alert.rule,
                    ",".join(str(b) for b in alert.observed_bpm),
                    alert.window_start_ms, alert.window_end_ms)

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        self.store.close()


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


def _check_for_abort(reader: FrameReader) -> bool:
    # a frame may already sit in the buffer, where select cannot see it
    if not reader.buffered() and not select.select([reader.sock], [], [], 0)[0]:
        return False
    try:
        fr = frame_read(reader, timeout=1.0)
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
    sim = SensorSim(device_id, seed=cfg.seed or 0, script=script)

    report = DeviceReport()
    t0 = time.monotonic()
    try:
        sock = socket.create_connection((cfg.server_host, cfg.server_port), timeout=10.0)
    except OSError as exc:
        report.error = f"connection refused: {exc}"
        return report
    sock.settimeout(None)
    send_dir: DirectionState | None = None
    reader = FrameReader(sock)
    try:
        hs = ClientHandshake(suite, identity, trust_root, rng)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        fr = frame_read(reader)
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
            if _check_for_abort(reader):
                raise ConnectionAborted("server aborted mid-stream")
            if cfg.realtime:
                time.sleep(cfg.interval_ms / 1000.0)
        frame_write(sock, record_seal(send_dir, TYPE_CLOSE, b""))
        # drain until the server hangs up so a late Abort is not missed
        sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                fr = frame_read(reader, timeout=2.0)
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
