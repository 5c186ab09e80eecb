"""The two ends of the wire: the edge-device client that samples, seals,
and ships heart-rate readings, and the ingestion server that terminates
the secure channel, persists readings, and raises anomaly alerts.

On the server, a `ServerSession` per connection, fed whole frames, makes
every decision; `IngestionServer._handle` only reads, feeds and writes.
Persistence is append-only line-delimited text, one write per Data
record's readings as it is opened, so concurrent sessions never
interleave within a record.

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
for a `realtime` device, which sleeps an interval between records, else
all of them, MAX_READINGS_PER_RECORD (256) to a record, so 1000 go out as
256, 256, 256 and 232 (one `frame_write` each). Records go out with no
read between them, so an Abort mid-stream shows as the write error the
server's hang-up causes, or after the Close. A frame read waits at most
`records.READ_TIMEOUT_S`, read as it starts.

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
    StoreError,
    VitalinkError,
)
from .handshake import ClientHandshake, LocalIdentity, Phase, Resumption, ServerHandshake
from .listener import Listener, host_port
from .records import (
    MAX_READINGS_PER_RECORD,
    RECORD_BODIES,
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
    AnomalyConfig,
    AnomalyDetector,
    SensorSim,
    STATUS_NAMES,
    reading_decode,
    reading_encode,
)

log = logging.getLogger("vitalink")


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


def parse_reading_line(line: str) -> StoreRecord:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise ValueError(f"bad readings line: {line!r}")
    if parts[5] not in STATUS_NAMES.values():
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


class Store:
    """Append-only readings and alerts logs, safe for concurrent sessions.

    Each call writes until all its bytes are on disk, under one lock, so
    the lines of one call never interleave with another's. The server
    writes each Data record's readings in one call as it opens the record,
    so a crash loses at most the record being opened, none of it promised
    stored (the protocol has no Ack). Nothing is fsynced. It writes the
    lines `ServerSession` builds; a failed write is a `StoreError`.
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
        """Appends one record's readings lines in one write."""
        self._append(self._readings, lines)

    def append_alert(self, line: str) -> None:
        self._append(self._alerts, [line])

    def _append(self, fh, lines: list[str]) -> None:
        data = memoryview(("\n".join(lines) + "\n").encode("utf-8"))
        with self._lock:
            try:
                while data:  # an unbuffered write may take only part of it
                    data = data[fh.write(data):]
            except OSError as exc:
                raise StoreError(str(exc)) from exc

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
        log.info("listening addr=%s", host_port(self.cfg.listen_host, self.port))

    def _handle(self, conn: socket.socket, addr) -> None:
        session = ServerSession(self, host_port(addr[0], addr[1]))
        reader = FrameReader(conn)
        try:
            while not session.ended:
                for reply in session.receive(frame_read(reader, session.timeout())):
                    frame_write(conn, reply)
        except (VitalinkError, OSError) as exc:
            with suppress(OSError):
                for reply in session.fail(exc):
                    frame_write(conn, reply)
        finally:  # the listener shuts conn down and closes it
            session.close()

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
        self.ticket_key.zeroize()
        self.store.close()


# how a fault ends a session, by the first row it is an instance of: (class,
# level, event, cause or None for the fault's class name, whether to Abort)
_FAULTS = (
    # a plaintext Abort: rewriting one type byte on the path forges it
    (ConnectionAborted, logging.WARNING, "peer_abort", "unauthenticated", True),
    (EndOfStream, logging.WARNING, "suspicious_termination", "no_authenticated_close", True),
    (AuthFailure, logging.ERROR, "record_auth_failure", None, True),
    (HandshakeError, logging.ERROR, "handshake_failed", None, True),
    (OSError, logging.ERROR, "connection_error", None, False),
    (VitalinkError, logging.ERROR, "session_fatal", None, True),
)


class ServerSession:
    """One connection's session on the server, fed whole frames; it holds no
    socket and waits on nothing. `receive` answers each frame and raises on
    any fault; `fail` answers the fault, from `receive` or the connection,
    that ended the session. Either way it logs one terminal line and is
    `ended`: `<event> cause=… detail=… session=… handshake=full|resumed|-
    readings=N alerts=K cpu_ms=… wall_ms=… peer=…`, `-` where there is none.

    The ClientHello and ClientFinish share one deadline (`timeout`). A
    record's body length is checked against `records.RECORD_BODIES` before
    any GCM work, and its tag before any reading is decoded. One pass over
    the payload then checks each reading and its order, formats its line
    and runs the detector. The record's lines then go to the store in one
    write, before its alerts, within the `receive` that opened it; a bad
    reading takes the same write before it raises. So a fault at the k-th
    reading, counted across records, persists the k readings before it and
    none after, and no line is held between frames. Only the session names
    whom its lines are about: the authenticated subject and the device id,
    its first 8 bytes in hex, set as the handshake ends. A failed store
    write ends it as `session_fatal cause=StoreError`."""

    def __init__(self, server: IngestionServer, peer: str):
        self.server, self.peer = server, peer
        self.ended = False
        self._stored = self._alerts = 0
        # a listener's worker is reused, so its CPU time is a difference
        self._cpu0, self._wall0 = time.thread_time(), time.monotonic()
        self._deadline = self._wall0 + records.READ_TIMEOUT_S
        self._hs = ServerHandshake(server.identity, server.trust_root, suite=server.suite,
                                   ticket_key=server.ticket_key)
        # set once the handshake ends
        self._session_hex, self._recv, self._detector, self._prefix = "-", None, None, ""
        self._subject = self._device = ""
        self._last_ts = -1

    def timeout(self) -> float | None:
        """The handshake's time left, then None: `frame_read`'s READ_TIMEOUT_S."""
        return None if self._recv is not None else self._deadline - time.monotonic()

    def receive(self, frame: Frame) -> list[Frame]:
        """The frames that answer `frame`; raises on any fault, a peer's Abort too."""
        if self._recv is not None:
            return self._record(frame)
        hs = self._hs
        if hs.phase is Phase.START:
            if frame.frame_type != TYPE_CLIENT_HELLO:
                raise MalformedFrame("expected ClientHello")
            server_hello = hs.respond(frame.body)
            if hs.refusal is not None:
                log.info("resumption_refused cause=%s peer=%s", hs.refusal, self.peer)
            return [Frame(TYPE_SERVER_HELLO, server_hello)]
        if frame.frame_type != TYPE_CLIENT_FINISH:
            raise MalformedFrame("expected ClientFinish")
        keys, peer_subject = hs.complete(frame.body)
        self._session_hex = session_hex = keys.session_id.hex()
        subject = decode_subject(peer_subject)
        log.info("session_established session=%s subject=%s peer=%s",
                 session_hex[:16], log_value(subject), self.peer)
        self._recv = DirectionState(keys.c2s_key, keys.c2s_salt)
        self._detector = AnomalyDetector(self.server.cfg.anomaly)
        self._subject, self._device = subject, peer_subject[:8].hex()
        # a readings line: the columns of `StoreRecord`, tab-separated
        self._prefix = f"{session_hex}\t{subject}\t{self._device}\t"
        return [Frame(TYPE_NEW_TICKET, hs.new_ticket())]

    def _record(self, frame: Frame) -> list[Frame]:
        if frame.frame_type == TYPE_ABORT:
            raise ConnectionAborted()
        if (frame.frame_type, len(frame.body)) not in RECORD_BODIES:
            raise MalformedFrame(f"{len(frame.body)}-byte record of type {frame.frame_type}")
        ftype, payload = record_open(self._recv, frame)
        if ftype == TYPE_CLOSE:
            self._end(logging.INFO, "session_closed", "-")
            return []
        received = f"\t{int(time.time() * 1000)}"
        prefix, last_ts, detector = self._prefix, self._last_ts, self._detector
        lines, alerts = [], []
        try:
            for r in reading_decode(payload):
                ts, bpm, status = r
                if ts < last_ts:
                    raise MalformedReading("timestamps went backwards")
                last_ts = ts
                lines.append(f"{prefix}{ts}\t{bpm}\t{STATUS_NAMES[status]}{received}")
                alert = detector.check(r)
                if alert is not None:
                    alerts.append(alert)
            self._last_ts = last_ts
        finally:  # a bad reading ends the session, and the ones before it are stored
            if lines:
                self.server.store.append_reading(lines)
                self._stored += len(lines)
            for alert in alerts:
                start, end, bpms = (alert.window_start_ms, alert.window_end_ms,
                                    ",".join(map(str, alert.observed_bpm)))
                self.server.store.append_alert(  # device, rule, window, bpms
                    f"{self._device}\t{alert.rule}\t{start}\t{end}\t{bpms}")
                self._alerts += 1
                log.warning("alert session=%s subject=%s device=%s rule=%s bpm=%s window=%d..%d "
                            "peer=%s", self._session_hex[:16], log_value(self._subject),
                            self._device, alert.rule, bpms, start, end, self.peer)
        return []

    def fail(self, exc: VitalinkError | OSError) -> list[Frame]:
        """Logs the terminal line of the fault `exc` and returns the reply."""
        _, level, event, cause, abort = next(f for f in _FAULTS if isinstance(exc, f[0]))
        self._end(level, event, cause or type(exc).__name__, str(exc) or "-")
        return [Frame(TYPE_ABORT, b"")] if abort else []

    def _end(self, level: int, event: str, cause: str, detail: str = "-") -> None:
        self.ended = True
        handshake = "-" if self._recv is None else "resumed" if self._hs.resumed else "full"
        log.log(level, "%s cause=%s detail=%s session=%s handshake=%s readings=%d alerts=%d "
                "cpu_ms=%.2f wall_ms=%.2f peer=%s", event, cause, log_value(detail),
                self._session_hex[:16], handshake, self._stored, self._alerts,
                1000 * (time.thread_time() - self._cpu0),
                1000 * (time.monotonic() - self._wall0), self.peer)

    def close(self) -> None:
        """Zeroizes the record key."""
        if self._recv is not None:
            self._recv.zeroize()


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
    session_id: str = ""
    duration_s: float = 0.0
    sent: list = field(default_factory=list)  # (timestamp_ms, bpm) pairs
    error: str | None = None

    @property
    def sent_count(self) -> int:
        return len(self.sent)


# (server host, port, own credential, trust root) -> the ticket of the last
# session there, taken by the next
_TICKETS: dict[tuple, Resumption] = {}


def run_device(cfg: DeviceConfig) -> DeviceReport:
    """Connects, authenticates, streams readings, and closes cleanly.

    Failures are reported in DeviceReport.error rather than raised, so
    callers get the partial-progress counters either way.
    """
    if cfg.interval_ms < 100:
        raise ValueError("sample interval must be at least 100 ms")
    if cfg.count < 1:
        raise ValueError("count must be at least 1")
    if cfg.start_ms is not None and cfg.start_ms < 0:
        raise ValueError("start time must not be negative")
    suite = cfg.suite or detect_suite_for_credential(cfg.cred_path)
    identity = load_identity(cfg.key_path, cfg.cred_path, suite)
    trust_root = keyfiles.read_credential(cfg.root_path, suite)
    rng = keyfiles.drbg(cfg.seed) if cfg.seed is not None else os.urandom
    script = None
    if cfg.anomaly_script:
        script = telemetry.parse_anomaly_script(Path(cfg.anomaly_script).read_text())
    sim = SensorSim(seed=cfg.seed or 0, script=script)

    cache_key = (cfg.server_host, cfg.server_port, identity.credential, trust_root)
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
        _TICKETS[cache_key] = hs.resumption_for(ticket)
        send_dir = DirectionState(keys.c2s_key, keys.c2s_salt)

        start_ms = cfg.start_ms if cfg.start_ms is not None else int(time.time() * 1000)
        per_record = 1 if cfg.realtime else MAX_READINGS_PER_RECORD
        for first in range(0, cfg.count, per_record):
            if cfg.realtime and first:  # between records only: none after the last
                time.sleep(cfg.interval_ms / 1000.0)
            readings = [sim.next_reading(start_ms + i * cfg.interval_ms)
                        for i in range(first, min(first + per_record, cfg.count))]
            payload = b"".join([reading_encode(r) for r in readings])
            frame_write(sock, record_seal(send_dir, TYPE_DATA, payload))
            report.sent += [(r.timestamp_ms, r.bpm) for r in readings]
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
