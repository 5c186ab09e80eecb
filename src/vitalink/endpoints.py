"""The two ends of the wire: the edge-device client that samples, seals,
and ships heart-rate readings, and the ingestion server that terminates
the secure channel, persists readings, and raises anomaly alerts.

Persistence is append-only line-delimited text. The server opens, checks
and formats every reading of every record already buffered on a
connection, then writes the burst's lines under the store's lock until
all are on disk, so concurrent sessions never interleave within a burst.

Every established session ends its handshake with a NewTicket from the
server, sealed under a ticket key made when the server starts and never
stored. `run_device` keeps the last ticket per server address, own
credential and trust root in a process-wide cache and offers it once,
on its next session there, to skip both transcript signatures (see
`handshake`). A refused ticket costs one `resumption_refused` INFO line
and a full handshake on the same connection. A resumed session's ticket
keeps the issue time of the one it resumed, so resumptions end
`TICKET_LIFETIME_S` after the last full handshake.

A device session makes three reads, through one reader in `run_device`:
the ServerHello; the server's verdict on the ClientFinish, a NewTicket or
an Abort, before any reading is sealed; and after its Close the server's
hang-up, which means it read the Close and is the only success. Each
Data record carries every reading the device has ready: one per interval
for a `realtime` device, else all of them, MAX_READINGS_PER_RECORD to a
record (one `frame_write` each). Records go out with no read between
them, so an Abort mid-stream shows as the write error the server's
hang-up causes, or after the Close. A frame read
waits at most `records.READ_TIMEOUT_S`, read as it starts; the server's
two handshake reads share one deadline.

A process checks its own identity once, at startup, with `check_identity`:
`IngestionServer` when it is made, and the `device` command before its
session. `run_device` runs once per session and does not check it. A
library caller of `run_device` whose key does not match its credential
still fails closed: the server refuses its transcript signature, and a
resumed session, which needs a ticket from a full one, never uses the key.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from contextlib import suppress
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
    HandshakeError,
    MalformedFrame,
    MalformedReading,
    VitalinkError,
)
from .handshake import ClientHandshake, LocalIdentity, Resumption, ServerHandshake
from .listener import Listener
from .records import (
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    TYPE_NEW_TICKET,
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
# the most readings one Data record carries: a 1232-byte body
MAX_READINGS_PER_RECORD = 64
# the only records a device sends, as (type, body length): 1 to
# MAX_READINGS_PER_RECORD sealed readings, and an empty Close
_RECORD_BODIES = {(TYPE_CLOSE, gcm.TAG_LEN)} | {
    (TYPE_DATA, j * telemetry.READING_LEN + gcm.TAG_LEN)
    for j in range(1, MAX_READINGS_PER_RECORD + 1)}


def log_value(value) -> str:
    """`value` as one `key=value` field: bare if it is one word, else
    double-quoted with backslash escapes, so a line splits with `shlex`."""
    text = str(value)
    if text and not any(c.isspace() or c in "\"'=\\" for c in text):
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def load_identity(key_path, cred_path, suite: CurveSuite) -> LocalIdentity:
    """Reads a key and its credential. It does not check that they belong
    together: `check_identity` does, once per process at startup."""
    return LocalIdentity(static_priv=keyfiles.read_private_key(key_path, suite),
                         credential=keyfiles.read_credential(cred_path, suite))


def check_identity(identity: LocalIdentity, root: Credential, role: Role,
                   suite: CurveSuite) -> None:
    """The startup check of a process's own identity. Refuses, in this order,
    a key whose public point is not its credential's, a trust root that is
    not a valid self-signed issuer, and a credential that does not verify
    against the root in `role`: each would otherwise show only as every
    peer's handshake failing."""
    cred = identity.credential
    if curves.scalar_mul(identity.static_priv, suite.G, suite) != cred.static_pub:
        raise ConfigurationError("private key does not match its credential's public key")
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
    raise ConfigurationError(f"credential file {path}: not a credential for any known suite")


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

    Each call writes until all its bytes are on disk, under one lock, so
    the lines of one call never interleave with another's. The server
    writes each burst of readings in one call (`IngestionServer._ingest`),
    so a crash loses at most the unwritten part of one burst, none of it
    promised stored (the protocol has no Ack). Nothing is fsynced.
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self._lock = threading.Lock()
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            self._readings = open(self.dir / "readings.log", "ab", buffering=0)
            self._alerts = open(self.dir / "alerts.log", "ab", buffering=0)
        except OSError as exc:
            raise ConfigurationError(
                f"store directory {self.dir}: {exc.strerror or exc}") from exc

    def append_reading(self, lines: list[str]) -> None:
        """Appends a burst of `reading_line`s in one write."""
        self._append(self._readings, lines)

    def append_alert(self, a: AnomalyAlert) -> None:
        self._append(self._alerts, [alert_line(a)])

    def _append(self, fh, lines: list[str]) -> None:
        data = memoryview(("\n".join(lines) + "\n").encode("utf-8"))
        with self._lock:
            while data:  # an unbuffered write may take only part of it
                data = data[fh.write(data):]

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


class IngestionServer:
    """Accepts concurrent device sessions, each on a worker thread that the
    listener reuses across connections. A failed connection never perturbs
    the listener or other sessions."""

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self.suite = detect_suite_for_credential(cfg.cred_path)
        self.identity = load_identity(cfg.key_path, cfg.cred_path, self.suite)
        self.trust_root = keyfiles.read_credential(cfg.root_path, self.suite)
        check_identity(self.identity, self.trust_root, Role.SERVER, self.suite)
        # this process's tickets only; the GHASH table is built now, since
        # every session seals one ticket and nearly every one opens one. Every
        # handler shares the key: past this point a seal or open changes
        # nothing in it, since a ticket's 4 counter blocks run block by
        # block, never through `encrypt_blocks`.
        self.ticket_key = gcm.GcmKey(os.urandom(16))
        self.ticket_key.build_table()
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
        peer = f"{addr[0]}:{addr[1]}"
        # one deadline for ClientHello and ClientFinish together
        handshake_deadline = time.monotonic() + records.READ_TIMEOUT_S
        # one reader for the whole connection: a ClientFinish and the first
        # records may arrive in one segment
        reader = FrameReader(conn)
        try:
            fr = frame_read(reader, handshake_deadline - time.monotonic())
            if fr.frame_type != TYPE_CLIENT_HELLO:
                raise MalformedFrame("expected ClientHello")
            hs = ServerHandshake(self.identity, self.trust_root, suite=self.suite,
                                 ticket_key=self.ticket_key)
            server_hello = hs.respond(fr.body)
            if hs.refusal is not None:
                log.info("resumption_refused cause=%s peer=%s", hs.refusal, peer)
            frame_write(conn, Frame(TYPE_SERVER_HELLO, server_hello))
            fr = frame_read(reader, handshake_deadline - time.monotonic())
            if fr.frame_type != TYPE_CLIENT_FINISH:
                raise MalformedFrame("expected ClientFinish")
            keys, peer_subject = hs.complete(fr.body)
            session_hex = keys.session_id.hex()
            subject = decode_subject(peer_subject)
            log.info("session_established session=%s subject=%s peer=%s",
                     session_hex[:16], log_value(subject), peer)
            try:
                frame_write(conn, Frame(TYPE_NEW_TICKET, hs.new_ticket()))
            except OSError:
                pass  # a device that sent its records and left loses only its ticket

            recv_dir = DirectionState(keys.c2s_key, keys.c2s_salt)
            if self._ingest(reader, recv_dir, session_hex, subject, peer) == TYPE_ABORT:
                # plaintext: rewriting one type byte on the path forges it
                log.warning("peer_abort session=%s cause=unauthenticated peer=%s",
                            session_hex[:16], peer)
                self._abort(conn)
            else:
                log.info("session_closed session=%s peer=%s", session_hex[:16], peer)
        except EndOfStream:
            log.warning("suspicious_termination session=%s cause=no_authenticated_close "
                        "peer=%s", session_hex[:16], peer)
            self._abort(conn)
        except AuthFailure:
            log.error("record_auth_failure session=%s action=abort peer=%s",
                      session_hex[:16], peer)
            self._abort(conn)
        except HandshakeError as exc:
            log.error("handshake_failed cause=%s detail=%s peer=%s",
                      type(exc).__name__, log_value(exc), peer)
            self._abort(conn)
        except OSError as exc:
            log.error("connection_error session=%s cause=%s detail=%s peer=%s",
                      session_hex[:16], type(exc).__name__, log_value(exc), peer)
        except VitalinkError as exc:
            log.error("session_fatal session=%s cause=%s peer=%s", session_hex[:16],
                      type(exc).__name__, peer)
            self._abort(conn)
        finally:
            if recv_dir is not None:
                recv_dir.zeroize()
            try:
                conn.close()
            except OSError:
                pass

    def _ingest(self, reader: FrameReader, recv_dir: DirectionState, session_hex: str,
                subject: str, peer: str) -> int:
        """Reads one session's records up to its Close (returns TYPE_CLOSE) or a
        plaintext Abort (returns TYPE_ABORT); raises on any fault.

        A Data record carries 1 to MAX_READINGS_PER_RECORD readings; its
        length is checked against `_RECORD_BODIES` before any GCM work, and
        its tag before any of its readings is decoded. While the reader
        holds whole frames it opens each record, then decodes, order-checks
        and formats each of its readings in turn; the lines go to the store
        in one write before the reader waits on the socket, before an alert
        is stored, and however the session ends. So a fault at the k-th
        reading, counted across records (a bad tag faults at the record's
        first), still persists the k readings before it, and none after."""
        detector = AnomalyDetector(self.cfg.anomaly)
        last_ts = -1
        pending: list[str] = []
        size = telemetry.READING_LEN
        try:
            while True:
                if pending and not reader.has_frame():
                    self.store.append_reading(pending)
                    pending = []
                fr = frame_read(reader)
                if fr.frame_type == TYPE_ABORT:
                    return TYPE_ABORT
                if (fr.frame_type, len(fr.body)) not in _RECORD_BODIES:
                    raise MalformedFrame(f"{len(fr.body)}-byte record of type {fr.frame_type}")
                ftype, payload = record_open(recv_dir, fr)
                if ftype == TYPE_CLOSE:
                    return TYPE_CLOSE
                received_ms = int(time.time() * 1000)
                for i in range(0, len(payload), size):
                    reading = reading_decode(payload[i : i + size])
                    if reading.timestamp_ms < last_ts:
                        raise MalformedReading("timestamps went backwards")
                    last_ts = reading.timestamp_ms
                    pending.append(reading_line(session_hex, subject, reading, received_ms))
                    alert = detector.check(reading)
                    if alert is not None:
                        self.store.append_reading(pending)
                        pending = []
                        self.raise_alert(alert, session_hex, peer)
        finally:
            if pending:
                self.store.append_reading(pending)

    def raise_alert(self, alert: AnomalyAlert, session_hex: str, peer: str) -> None:
        self.store.append_alert(alert)
        log.warning("alert session=%s device=%s rule=%s bpm=%s window=%d..%d peer=%s",
                    session_hex[:16], alert.device_id.hex(), alert.rule,
                    ",".join(str(b) for b in alert.observed_bpm),
                    alert.window_start_ms, alert.window_end_ms, peer)

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        self.ticket_key.zeroize()
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


# (server host, port, own credential bytes, trust-root bytes) -> the ticket
# of the last session there, taken by the next
_TICKETS: dict[tuple, Resumption] = {}
_TICKETS_LOCK = threading.Lock()


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

    cache_key = (cfg.server_host, cfg.server_port, identity.credential.encode(suite),
                 trust_root.encode(suite))
    with _TICKETS_LOCK:
        resumption = _TICKETS.pop(cache_key, None)  # each ticket is offered once

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
    hs = ClientHandshake(suite, identity, trust_root, rng, resumption=resumption)

    def read_server_frame(expected: int | None) -> bytes:
        """The body of the next frame, which must be of type `expected` (with
        None, no frame may come): an Abort or any other frame ends the session."""
        fr = frame_read(reader)
        if fr.frame_type != expected:
            raise ConnectionAborted("server aborted the session" if fr.frame_type == TYPE_ABORT
                                    else f"unexpected frame type {fr.frame_type} from the server")
        return fr.body

    try:
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish_body, keys = hs.finish(read_server_frame(TYPE_SERVER_HELLO))
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish_body))
        report.session_id = keys.session_id.hex()
        # the server's verdict on the ClientFinish, before any reading is sealed
        ticket = read_server_frame(TYPE_NEW_TICKET)
        with _TICKETS_LOCK:
            _TICKETS[cache_key] = hs.resumption_for(ticket)
        send_dir = DirectionState(keys.c2s_key, keys.c2s_salt)

        start_ms = cfg.start_ms if cfg.start_ms is not None else int(time.time() * 1000)
        report.start_ms = start_ms
        # every reading that is ready goes in one record: one per interval in
        # real time, else all of them, MAX_READINGS_PER_RECORD at a time
        per_record = 1 if cfg.realtime else MAX_READINGS_PER_RECORD
        for first in range(0, cfg.count, per_record):
            readings = [sim.next_reading(start_ms + i * cfg.interval_ms)
                        for i in range(first, min(first + per_record, cfg.count))]
            payload = b"".join([reading_encode(r) for r in readings])
            frame_write(sock, record_seal(send_dir, TYPE_DATA, payload))
            report.sent += [(r.timestamp_ms, r.bpm) for r in readings]
            report.sent_count += len(readings)
            if cfg.realtime:
                time.sleep(cfg.interval_ms / 1000.0)
        frame_write(sock, record_seal(send_dir, TYPE_CLOSE, b""))
        sock.shutdown(socket.SHUT_WR)
        with suppress(EndOfStream):  # the hang-up; any frame, a late NewTicket too, fails
            read_server_frame(None)
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
