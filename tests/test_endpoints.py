"""End-to-end loopback sessions: honest runs, rejection paths, persistence."""

import logging
import os
import re
import resource
import select
import shlex
import socket
import struct
import sys
import threading
import time
from contextlib import suppress
from types import SimpleNamespace

import pytest

from vitalink import credentials as creds
from vitalink import curves, endpoints, gcm, handshake, keyfiles, records
from vitalink.credentials import Role
from vitalink.endpoints import (
    DeviceConfig,
    IngestionServer,
    ServerConfig,
    Store,
    StoreRecord,
    check_identity,
    detect_suite_for_credential,
    load_identity,
    parse_reading_line,
    run_device,
)
from vitalink.errors import ConfigurationError, EndOfStream, FrameTimeout, InvalidPeerKey
from vitalink.handshake import TICKET_LIFETIME_S, ClientHandshake, Resumption, ServerHandshake
from vitalink.records import (
    MAGIC,
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    TYPE_NEW_TICKET,
    TYPE_SERVER_HELLO,
    VERSION,
    DirectionState,
    Frame,
    FrameReader,
    frame_read,
    frame_write,
    record_seal,
)

from conftest import (BAD_ROOTS, FullDisk, Pki, bad_root, count_polls, forged_ticket, terminal,
                      terminal_lines)


@pytest.fixture()
def files(pki, tmp_path):
    pki.write_files(tmp_path)
    return tmp_path


@pytest.fixture()
def server(files, tmp_path):
    cfg = ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    )
    srv = IngestionServer(cfg)
    srv.start()
    yield srv
    srv.stop()


def device_cfg(files, port, **kw):
    defaults = dict(
        server_port=port,
        key_path=str(files / "device.vlk"),
        cred_path=str(files / "device.vlc"),
        root_path=str(files / "root.vlc"),
        count=10,
        seed=7,
        start_ms=1_000_000,
    )
    defaults.update(kw)
    return DeviceConfig(**defaults)


def read_store_lines(srv, name="readings.log"):
    path = srv.store.dir / name
    if not path.exists():
        return []
    return path.read_text().splitlines()


def test_suite_detection_from_credential_file(files):
    from vitalink.curves import P256

    assert detect_suite_for_credential(files / "device.vlc") is P256
    bogus = files / "junk.vlc"
    bogus.write_bytes(b"\x00" * 33)
    with pytest.raises(ConfigurationError, match="junk.vlc"):
        detect_suite_for_credential(bogus)


def test_honest_session_persists_every_reading(files, server):
    report = run_device(device_cfg(files, server.port))
    assert report.error is None
    assert report.sent_count == 10
    lines = read_store_lines(server)
    assert len(lines) == 10
    recs = [parse_reading_line(l) for l in lines]
    assert [(r.timestamp_ms, r.bpm) for r in recs] == report.sent
    assert all(r.session_id == report.session_id for r in recs)
    assert all(r.subject_id == "watch-1" for r in recs)


# a Data frame is an 8-byte header, 11 bytes a reading and a 16-byte tag
@pytest.mark.parametrize("realtime, count, frames", [
    (False, 2 * records.MAX_READINGS_PER_RECORD + 2,
     [records.HEADER_LEN + records.MAX_BODY] * 2 + [8 + 2 * 11 + 16]),
    (True, 130, [8 + 11 + 16] * 130),
], ids=["backlog", "realtime"])
def test_a_device_seals_every_reading_it_has_ready_in_one_record(files, server, monkeypatch,
                                                                 realtime, count, frames):
    sent = bytearray()  # every byte the device writes to its socket

    class Counting(socket.socket):
        def sendall(self, data, *args):
            sent.extend(data)
            return super().sendall(data, *args)

    real_connect = socket.create_connection

    def connect(*args, **kwargs):
        plain = real_connect(*args, **kwargs)
        return Counting(plain.family, plain.type, plain.proto, fileno=plain.detach())

    monkeypatch.setattr(socket, "create_connection", connect)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    report = run_device(device_cfg(files, server.port, count=count, realtime=realtime))
    assert report.error is None and report.sent_count == count
    data_frames, at = [], 0
    while at < len(sent):
        frame_type, length = records.parse_header(bytes(sent[at : at + records.HEADER_LEN]))
        if frame_type == TYPE_DATA:
            data_frames.append(records.HEADER_LEN + length)
        at += records.HEADER_LEN + length
    assert data_frames == frames
    stored = [parse_reading_line(line) for line in read_store_lines(server)]
    assert [(r.timestamp_ms, r.bpm) for r in stored] == report.sent
    assert [ts for ts, _ in report.sent] == [1_000_000 + 1000 * i for i in range(count)]


def test_a_realtime_device_sleeps_between_records_not_after_its_last(files, server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    report = run_device(device_cfg(files, server.port, count=3, realtime=True))
    assert report.error is None and report.sent_count == 3
    assert sleeps == [1.0, 1.0]


@pytest.mark.parametrize("bad", [dict(interval_ms=99), dict(count=0), dict(start_ms=-1),
                                 dict(realtime=True, interval_ms=10_000)],
                         ids=["interval", "count", "start", "realtime_interval"])
def test_run_device_refuses_a_bad_config_before_it_connects(files, monkeypatch, bad):
    monkeypatch.setattr(socket, "create_connection", None)  # any connect would fail loudly
    with pytest.raises(ValueError):
        run_device(device_cfg(files, 9, **bad))


def test_a_timestamp_past_64_bits_is_reported_not_raised(files, server):
    # the 7th reading's timestamp is 2^64: the device reports the fault
    report = run_device(device_cfg(files, server.port, start_ms=2**64 - 6001))
    assert report.error is not None and report.error.startswith("MalformedReading: timestamp")
    assert report.sent_count == 0 and read_store_lines(server) == []


def test_reading_line_round_trip():
    line = "\t".join(["ab" * 32, "watch-1", "cc" * 8, "123", "72", "ok", "456"])
    rec = StoreRecord("ab" * 32, "watch-1", "cc" * 8, 123, 72, "ok", 456)
    assert parse_reading_line(line + "\n") == rec
    with pytest.raises(ValueError):
        parse_reading_line("only\tthree\tfields")
    with pytest.raises(ValueError):
        parse_reading_line(line.replace("\tok\t", "\twat\t"))


def test_wrong_trust_root_device_rejected(files, server, tmp_path):
    # device credential chained to a different root: the server must
    # abort before persisting anything
    rogue = Pki(server.suite, seed=999)
    rogue_dir = tmp_path / "rogue"
    rogue_dir.mkdir()
    rogue.write_files(rogue_dir)
    cfg = device_cfg(
        files,
        server.port,
        key_path=str(rogue_dir / "device.vlk"),
        cred_path=str(rogue_dir / "device.vlc"),
    )
    report = run_device(cfg)
    assert report.error is not None
    assert report.sent_count == 0 or read_store_lines(server) == []
    assert read_store_lines(server) == []


def test_server_absent_is_reported_not_raised(files):
    report = run_device(device_cfg(files, 1))  # port 1: nothing listens there
    assert report.error is not None and "connection" in report.error.lower()
    assert report.sent_count == 0


def test_oversize_record_ends_in_abort_and_one_log_line(pki, server, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    sock = socket.create_connection(("127.0.0.1", server.port))
    peer = "%s:%d" % sock.getsockname()
    reader = FrameReader(sock)
    try:
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, _ = hs.finish(frame_read(reader).body)
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_NEW_TICKET
        # built by hand: Frame.encode refuses a body this large
        body_len = 65560
        sock.sendall(MAGIC + bytes([VERSION, TYPE_DATA]) + struct.pack(">I", body_len)
                     + bytes(body_len))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
    finally:
        sock.close()
    [line] = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    event, pairs = terminal(line)
    assert (event, pairs["cause"], pairs["handshake"], pairs["readings"], pairs["peer"]) == (
        "session_fatal", "OversizeFrame", "full", "0", peer)


def test_concurrent_devices_attributed_correctly(files, server):
    n = 5
    pki = Pki(server.suite)  # same seed as the fixture -> same root
    tmp = files
    identities = []
    for i in range(n):
        ident = pki.issue_device(f"watch-{i+2}", keyfiles.drbg(100 + i))
        keyfiles.write_private_key(tmp / f"d{i}.vlk", ident.static_priv, server.suite)
        keyfiles.write_credential(tmp / f"d{i}.vlc", ident.credential, server.suite)
        identities.append(ident)

    reports = [None] * n

    def run(i):
        cfg = device_cfg(
            tmp, server.port,
            key_path=str(tmp / f"d{i}.vlk"),
            cred_path=str(tmp / f"d{i}.vlc"),
            count=20, seed=50 + i, start_ms=2_000_000 + i,
        )
        reports[i] = run_device(cfg)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert all(r.error is None for r in reports), [r.error for r in reports]
    recs = [parse_reading_line(l) for l in read_store_lines(server)]
    assert len(recs) == n * 20
    by_subject = {}
    for r in recs:
        by_subject.setdefault(r.subject_id, []).append(r)
    assert set(by_subject) == {f"watch-{i+2}" for i in range(n)}
    # each device's persisted stream matches exactly what it sent
    for i, report in enumerate(reports):
        got = sorted((r.timestamp_ms, r.bpm) for r in by_subject[f"watch-{i+2}"])
        assert got == sorted(report.sent)
        assert {r.session_id for r in by_subject[f"watch-{i+2}"]} == {report.session_id}


def test_scripted_anomaly_produces_alert(files, server, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("5 9 180\n")
    cfg = device_cfg(files, server.port, count=15, anomaly_script=str(script))
    report = run_device(cfg)
    assert report.error is None
    # an alerts line: device, rule, window start and end, bpms
    [alert] = [l.split("\t") for l in read_store_lines(server, "alerts.log")]
    assert alert[1] == "high_hr"
    assert alert[4] == "180,180,180"


def test_a_server_that_cannot_store_is_an_error_to_the_device(files, server):
    # not the hang-up after the device's Close, which it counts as success
    server.store._readings = FullDisk(server.store._readings)
    report = run_device(device_cfg(files, server.port, count=3))
    assert report.error is not None and report.sent_count == 3
    assert read_store_lines(server) == []


def test_a_short_write_still_puts_the_whole_burst_on_disk(tmp_path):
    store = Store(tmp_path / "s")

    class Trickle:
        """An unbuffered file that takes at most 40 bytes a write."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            return self.fh.write(data[:40])

        def close(self):
            self.fh.close()

    store._readings = Trickle(store._readings)
    burst = [f"line-{i:03d}\t" + "x" * 30 for i in range(3)]
    store.append_reading(burst)
    store.close()
    assert (tmp_path / "s" / "readings.log").read_text() == "\n".join(burst) + "\n"


def test_store_appends_are_atomic_lines(tmp_path):
    # 8 writers append bursts of 1..60 lines; each burst must land whole,
    # its lines adjacent and in order, never interleaved with another's
    store = Store(tmp_path / "s")

    def burst(writer, k):
        return [f"{writer:02x}\tw{k}\t{'bb' * 8}\t{j}\t70\tok\t{k}"
                for j in range(1 + (writer * 7 + k) % 60)]

    def writer(w):
        for k in range(100):
            store.append_reading(burst(w, k))

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    store.close()
    lines = (tmp_path / "s" / "readings.log").read_text().splitlines()
    assert len(lines) == sum(len(burst(w, k)) for w in range(8) for k in range(100))
    seen = {w: 0 for w in range(8)}
    i = 0
    while i < len(lines):
        rec = parse_reading_line(lines[i])
        w, k = int(rec.session_id, 16), int(rec.subject_id[1:])
        assert k == seen[w]  # each writer's bursts in its own order
        want = burst(w, k)
        assert lines[i : i + len(want)] == want
        seen[w] += 1
        i += len(want)
    assert seen == {w: 100 for w in range(8)}


def test_invalid_peer_key_is_logged_as_a_handshake_failure(pki, server, caplog, monkeypatch):
    def degenerate(*args):
        raise InvalidPeerKey("shared point is the identity")

    caplog.set_level(logging.INFO, logger="vitalink")
    sock = socket.create_connection(("127.0.0.1", server.port))
    reader = FrameReader(sock)
    try:
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        hello = hs.start()
        monkeypatch.setattr(curves, "shared_secret", degenerate)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hello))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
        peer = "%s:%d" % sock.getsockname()
    finally:
        sock.close()
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("handshake_failed cause=HandshakeError detail=")
    assert problems[0].endswith(f" peer={peer}")


def test_a_truncated_client_hello_is_logged_as_a_handshake_error(toy_pki, tmp_path, caplog):
    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    caplog.set_level(logging.INFO, logger="vitalink")
    sock = socket.create_connection(("127.0.0.1", srv.port))
    reader = FrameReader(sock)
    try:
        hello = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root).start()
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hello[:-1]))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
    finally:
        sock.close()
        srv.stop()
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith(
        'handshake_failed cause=HandshakeError detail="malformed ClientHello: ')


def test_the_session_established_line_names_the_subject_and_the_socket_address(
        pki, server, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    device = pki.issue_device("ward 3 watch", keyfiles.drbg(21))
    sock = socket.create_connection(("127.0.0.1", server.port))
    reader = FrameReader(sock)
    try:
        hs = ClientHandshake(pki.suite, device, pki.root)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish))
        send_dir = DirectionState(keys.c2s_key, keys.c2s_salt)
        frame_write(sock, record_seal(send_dir, TYPE_CLOSE, b""))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_NEW_TICKET
        with pytest.raises(EndOfStream):  # the server hangs up after the Close
            frame_read(reader, timeout=5.0)
        peer = "%s:%d" % sock.getsockname()
    finally:
        sock.close()
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("session_established ")]
    event, *pairs = shlex.split(line)
    assert dict(p.split("=", 1) for p in pairs) == {
        "session": keys.session_id.hex()[:16],
        "subject": "ward 3 watch",
        "peer": peer,
    }


def test_an_ipv6_address_is_logged_in_brackets(toy_pki, tmp_path, caplog):
    # RFC 5952 section 6: `::1:7700` would read as an address with no port
    caplog.set_level(logging.INFO, logger="vitalink")
    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        listen_host="::1", key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"), root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    try:
        report = run_device(device_cfg(tmp_path, srv.port, server_host="::1", count=1))
    finally:
        srv.stop()
    assert report.error is None
    messages = [r.getMessage() for r in caplog.records]
    assert f"listening addr=[::1]:{srv.port}" in messages
    [(event, pairs)] = terminal_lines(messages)
    assert event == "session_closed" and re.fullmatch(r"\[::1\]:\d+", pairs["peer"])


def test_a_session_runs_on_descriptors_past_1024(toy_pki, tmp_path):
    # `select` refuses a descriptor of 1024 or more; past 1030 held here, the
    # server's and the device's sockets both get one
    held_count = 1030
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = held_count + 64
    if soft < want:
        if hard != resource.RLIM_INFINITY and hard < want:
            pytest.skip(f"the hard limit of {hard} descriptors is too low")
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    toy_pki.write_files(tmp_path)
    held = []
    try:
        for _ in range(held_count):
            held.append(os.open(os.devnull, os.O_RDONLY))
        srv = IngestionServer(ServerConfig(
            key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
            root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
        ))
        srv.start()
        try:
            report = run_device(device_cfg(tmp_path, srv.port, count=3))
        finally:
            srv.stop()
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert max(held) >= 1024
    assert report.error is None and report.sent_count == 3
    assert len(read_store_lines(srv)) == 3


def test_a_trickling_client_is_cut_at_the_frame_deadline(pki, files, tmp_path, caplog,
                                                          monkeypatch):
    caplog.set_level(logging.INFO, logger="vitalink")
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 1.0)
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    sock = socket.create_connection(("127.0.0.1", srv.port))
    peer = "%s:%d" % sock.getsockname()
    reader = FrameReader(sock)
    reply = None
    try:
        hello = Frame(TYPE_CLIENT_HELLO,
                      ClientHandshake(pki.suite, pki.device, pki.root).start()).encode()
        t0 = time.monotonic()
        # one byte every 0.3 s: each byte lands well inside a per-recv timeout
        for byte in hello:
            if time.monotonic() - t0 > 2.0:
                break
            try:
                sock.sendall(bytes([byte]))
            except OSError:
                break
            if select.select([sock], [], [], 0.3)[0]:
                reply = frame_read(reader, timeout=1.0)
                break
        elapsed = time.monotonic() - t0
    finally:
        sock.close()
        srv.stop()
    assert reply is not None and reply.frame_type == TYPE_ABORT
    assert elapsed < 2.0
    [line] = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    event, pairs = terminal(line)
    assert (event, pairs["cause"], pairs["session"], pairs["handshake"], pairs["peer"]) == (
        "session_fatal", "FrameTimeout", "-", "-", peer)


@pytest.mark.parametrize("suite_name", ["toy", "p256"])
def test_a_key_that_does_not_match_its_credential_is_refused(suite_name, tmp_path):
    pki = Pki(curves.SUITE_NAMES[suite_name])
    pki.write_files(tmp_path)
    suite = pki.suite
    good = load_identity(tmp_path / "server.vlk", tmp_path / "server.vlc", suite)
    assert good.static_priv == pki.server.static_priv
    wrong = pki.server.static_priv % (suite.n - 1) + 1
    keyfiles.write_private_key(tmp_path / "wrong.vlk", wrong, suite)
    # loading does not check the pair; the startup check does, in either role
    mismatched = load_identity(tmp_path / "wrong.vlk", tmp_path / "server.vlc", suite)
    for role in (Role.SERVER, Role.DEVICE):
        with pytest.raises(ConfigurationError, match="does not match"):
            check_identity(mismatched, pki.root, role, suite)
    with pytest.raises(ConfigurationError):
        IngestionServer(ServerConfig(
            key_path=str(tmp_path / "device.vlk"),
            cred_path=str(tmp_path / "server.vlc"),
            root_path=str(tmp_path / "root.vlc"),
            store_dir=str(tmp_path / "store"),
        ))


def test_a_device_whose_key_does_not_match_its_credential_fails_closed(
        pki, files, tmp_path, caplog):
    # run_device leaves the key check to startup; the server refuses the
    # transcript signature instead. On P-256, since on the toy curve a wrong
    # key's signature passes whenever its challenge is 0 mod 19.
    caplog.set_level(logging.INFO, logger="vitalink")
    suite = pki.suite
    wrong = pki.device.static_priv % (suite.n - 1) + 1
    keyfiles.write_private_key(tmp_path / "wrong.vlk", wrong, suite)
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"), cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    try:
        report = run_device(device_cfg(files, srv.port, count=3,
                                       key_path=str(tmp_path / "wrong.vlk")))
    finally:
        srv.stop()
    assert report.error == "ConnectionAborted: server aborted the session"
    failures = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("handshake_failed ")]
    assert len(failures) == 1 and "cause=BadTranscriptSignature" in failures[0]
    assert read_store_lines(srv) == []
    assert endpoints._TICKETS == {}


@pytest.mark.parametrize("kind", BAD_ROOTS)
def test_a_server_refuses_a_bad_trust_configuration(kind, pki, files, tmp_path):
    keyfiles.write_credential(files / "bad-root.vlc", bad_root(pki, kind), pki.suite)
    with pytest.raises(ConfigurationError):
        IngestionServer(ServerConfig(
            key_path=str(files / "server.vlk"),
            cred_path=str(files / "server.vlc"),
            root_path=str(files / "bad-root.vlc"),
            store_dir=str(tmp_path / "store"),
        ))
    assert not (tmp_path / "store").exists()


def test_a_server_refuses_its_credential_in_the_wrong_role(files, tmp_path):
    # the device's own key and credential, offered as the server's
    with pytest.raises(ConfigurationError, match="RoleMismatch"):
        IngestionServer(ServerConfig(
            key_path=str(files / "device.vlk"),
            cred_path=str(files / "device.vlc"),
            root_path=str(files / "root.vlc"),
            store_dir=str(tmp_path / "store"),
        ))


def test_the_whole_handshake_shares_one_deadline(pki, files, tmp_path, caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="vitalink")
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 1.0)
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    sock = socket.create_connection(("127.0.0.1", srv.port))
    peer = "%s:%d" % sock.getsockname()
    reader = FrameReader(sock)
    try:
        t0 = time.monotonic()
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        hello = hs.start()
        time.sleep(0.7)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hello))
        finish, _ = hs.finish(frame_read(reader, timeout=5.0).body)
        # each frame inside READ_TIMEOUT_S, both together past it
        ready = select.select([sock], [], [], 0.7)[0]
        elapsed = time.monotonic() - t0
        if not ready:
            frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish))
        reply = frame_read(reader, timeout=2.0)
    finally:
        sock.close()
        srv.stop()
    assert ready and elapsed < 1.2
    assert reply.frame_type == TYPE_ABORT
    [line] = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    event, pairs = terminal(line)
    assert (event, pairs["cause"], pairs["session"], pairs["handshake"], pairs["peer"]) == (
        "session_fatal", "FrameTimeout", "-", "-", peer)
    assert read_store_lines(srv) == []


def test_the_device_sees_an_abort_that_came_with_the_server_hello(pki, files):
    """Both frames land in the device's buffer in one read; the read of the
    server's verdict must find the Abort there, where `select` on the socket
    cannot, and end the session before any reading is sealed."""
    listener = socket.create_server(("127.0.0.1", 0))
    served = []

    def fake_server():
        conn, _ = listener.accept()
        with conn:
            hs = ServerHandshake(pki.server, pki.root, suite=pki.suite)
            hello = hs.respond(frame_read(FrameReader(conn), timeout=5.0).body)
            conn.sendall(Frame(TYPE_SERVER_HELLO, hello).encode()
                         + Frame(TYPE_ABORT, b"").encode())
            conn.settimeout(10.0)
            while conn.recv(4096):  # keep the socket open until the device leaves
                pass
        served.append(True)

    server = threading.Thread(target=fake_server)
    server.start()
    try:
        report = run_device(device_cfg(files, listener.getsockname()[1], count=5))
    finally:
        server.join(timeout=15.0)
        listener.close()
    assert not server.is_alive() and served
    assert report.error == "ConnectionAborted: server aborted the session"
    assert report.sent_count == 0


def serve_one_session(pki, ending):
    """A fake server on a thread for one device session. It answers the
    handshake, then gives its verdict on the ClientFinish: a NewTicket, or
    for the `no_verdict` and `hang_up_for_verdict` endings none. It reads up
    to the device's hang-up, then ends as `ending` names. Returns the port,
    a function that lets go of the connection and waits for the thread, and
    the list the ticket it made goes into."""
    listener = socket.create_server(("127.0.0.1", 0))
    device_left, tickets = threading.Event(), []

    def run():
        conn, _ = listener.accept()
        with conn:
            reader = FrameReader(conn)
            hs = ServerHandshake(pki.server, pki.root, suite=pki.suite,
                                 ticket_key=gcm.GcmKey(bytes(16)))
            frame_write(conn, Frame(TYPE_SERVER_HELLO,
                                    hs.respond(frame_read(reader, timeout=5.0).body)))
            hs.complete(frame_read(reader, timeout=5.0).body)
            tickets.append(hs.new_ticket())
            if ending == "hang_up_for_verdict":
                return
            if ending == "no_verdict":
                device_left.wait(10.0)
                return
            if ending == "held_verdict":
                with suppress(FrameTimeout):  # a record that comes before it is aborted
                    frame_read(reader, timeout=0.3)
                    frame_write(conn, Frame(TYPE_ABORT, b""))
            frame_write(conn, Frame(TYPE_NEW_TICKET, tickets[0]))
            conn.settimeout(10.0)
            while conn.recv(4096):  # the readings and the Close, up to SHUT_WR
                pass
            if ending == "late_abort":  # seconds after the Close, within READ_TIMEOUT_S
                time.sleep(2.5)
                frame_write(conn, Frame(TYPE_ABORT, b""))
            elif ending == "garbage":
                conn.sendall(bytes(8))
            elif ending == "reset":
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            elif ending == "no_hang_up":
                device_left.wait(10.0)
            elif ending == "ticket_every_0.3s":  # until the device leaves
                try:
                    while not device_left.wait(0.3):
                        frame_write(conn, Frame(TYPE_NEW_TICKET, tickets[0]))
                except OSError:
                    pass

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        device_left.set()
        thread.join(timeout=15.0)
        listener.close()
        assert not thread.is_alive() and tickets

    return listener.getsockname()[1], join, tickets


# what the device reports for each way a fake server ends after the Close
POST_CLOSE_ERRORS = {
    "hang_up": None,
    "late_abort": "ConnectionAborted: server aborted the session",
    "garbage": "BadMagic: 0000",
    "reset": "ConnectionResetError: ",
    "no_hang_up": "FrameTimeout: ",
}


@pytest.mark.parametrize("ending", list(POST_CLOSE_ERRORS))
def test_after_its_close_only_the_server_hanging_up_is_a_success(toy_pki, tmp_path,
                                                                 monkeypatch, ending):
    toy_pki.write_files(tmp_path)
    if ending == "no_hang_up":
        monkeypatch.setattr(records, "READ_TIMEOUT_S", 0.5)
    port, join, _ = serve_one_session(toy_pki, ending)
    try:
        report = run_device(device_cfg(tmp_path, port, count=3))
    finally:
        join()
    assert report.sent_count == 3
    error = POST_CLOSE_ERRORS[ending]
    if error is None:
        assert report.error is None
    else:
        assert report.error is not None and report.error.startswith(error)


def device_report_within(cfg, seconds):
    """`run_device`'s report, or None if it has not returned within `seconds`.
    It runs on a daemon thread, so a device that never returns fails the
    test instead of hanging it."""
    reports = []
    thread = threading.Thread(target=lambda: reports.append(run_device(cfg)), daemon=True)
    thread.start()
    thread.join(seconds)
    return reports[0] if reports else None


def test_frames_after_the_close_cannot_hold_the_device_past_one_deadline(
        toy_pki, tmp_path, monkeypatch):
    # a NewTicket is plaintext, so an on-path attacker can trickle them too;
    # the first one after the Close ends the session
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 1.0)
    port, join, _ = serve_one_session(toy_pki, "ticket_every_0.3s")
    try:
        report = device_report_within(device_cfg(tmp_path, port, count=3), 2.0)
    finally:
        join()
    assert report is not None and report.sent_count == 3
    assert report.error == "ConnectionAborted: unexpected frame type 4 from the server"


def test_a_silent_listener_holds_the_device_for_one_read_timeout(toy_pki, tmp_path,
                                                                monkeypatch):
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 0.5)
    listener = socket.create_server(("127.0.0.1", 0))
    device_left = threading.Event()

    def silent_server():
        conn, _ = listener.accept()
        with conn:
            device_left.wait(10.0)  # holds the connection and never answers

    server = threading.Thread(target=silent_server)
    server.start()
    try:
        report = device_report_within(device_cfg(tmp_path, listener.getsockname()[1]), 2.0)
    finally:
        device_left.set()
        server.join(timeout=15.0)
        listener.close()
    assert not server.is_alive()
    assert report is not None and report.session_id == ""
    assert report.error is not None and report.error.startswith("FrameTimeout: ")


# what the device reports when the server gives no verdict on its ClientFinish
NO_VERDICT_ERRORS = {
    "no_verdict": "FrameTimeout: ",
    "hang_up_for_verdict": "EndOfStream: ",
}


@pytest.mark.parametrize("ending", list(NO_VERDICT_ERRORS))
def test_a_device_with_no_verdict_seals_no_reading(toy_pki, tmp_path, monkeypatch, ending):
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 0.5)
    port, join, _ = serve_one_session(toy_pki, ending)
    try:
        report = device_report_within(device_cfg(tmp_path, port, count=3), 2.0)
    finally:
        join()
    assert report is not None and report.duration_s < 1.0
    assert report.error is not None and report.error.startswith(NO_VERDICT_ERRORS[ending])
    assert report.sent_count == 0
    assert endpoints._TICKETS == {}


def test_the_device_writes_no_reading_before_the_verdict(toy_pki, tmp_path):
    # the fake server holds its NewTicket 0.3 s and aborts if a record comes first
    toy_pki.write_files(tmp_path)
    port, join, sent = serve_one_session(toy_pki, "held_verdict")
    try:
        report = run_device(device_cfg(tmp_path, port, count=3))
    finally:
        join()
    assert report.error is None and report.sent_count == 3
    assert [r.ticket for r in endpoints._TICKETS.values()] == sent


def test_a_session_makes_no_poll_per_reading(toy_pki, tmp_path, monkeypatch):
    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    polls = count_polls(monkeypatch, threading.current_thread())
    try:
        report = run_device(device_cfg(tmp_path, srv.port, count=50))
    finally:
        monkeypatch.undo()
        srv.stop()
    assert report.error is None and report.sent_count == 50
    # one per read, at most two for a frame split across segments
    assert 3 <= len(polls) <= 6


# ---------------------------------------------------------------------------
# resumption


def spy_on_the_curve(monkeypatch) -> dict:
    """Counts per side of the curve and Schnorr work made through the
    modules: the device runs on this thread, the server on its own."""
    counts = {}
    main = threading.current_thread()

    def count(name):
        side = "device" if threading.current_thread() is main else "server"
        counts.setdefault(side, {}).setdefault(name, 0)
        counts[side][name] += 1

    real_mul = curves.scalar_mul

    def scalar_mul(k, P, suite):
        count("mul_G" if P == suite.G else "ecdh")
        return real_mul(k, P, suite)

    monkeypatch.setattr(curves, "scalar_mul", scalar_mul)
    for fn in ("schnorr_sign", "schnorr_verify"):
        real = getattr(creds, fn)
        monkeypatch.setattr(creds, fn, lambda *a, _fn=fn, _real=real: count(_fn) or _real(*a))
    return counts


def test_a_second_session_to_the_same_server_resumes(files, tmp_path, monkeypatch):
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"), cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    try:
        first = run_device(device_cfg(files, srv.port, count=2))
        counts = spy_on_the_curve(monkeypatch)
        second = run_device(device_cfg(files, srv.port, count=3, seed=8, start_ms=2_000_000))
    finally:
        srv.stop()  # joins the handler, so the server's counts are final
    assert first.error is None and second.error is None
    # no Schnorr work; one multiply by G for the ephemeral key and one ECDH
    # per side: the device's key was checked at startup, not per session
    assert counts == {"server": {"mul_G": 1, "ecdh": 1},
                      "device": {"mul_G": 1, "ecdh": 1}}
    assert second.session_id != first.session_id
    recs = [parse_reading_line(l) for l in read_store_lines(srv)]
    assert [(r.timestamp_ms, r.bpm) for r in recs if r.session_id == second.session_id] \
        == second.sent
    assert {r.subject_id for r in recs} == {"watch-1"}


def refusal_lines(caplog) -> list:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith(("resumption_refused ", "handshake_failed "))]


@pytest.mark.parametrize("case", ["another_server", "bad_binder", "over_age", "Expired"])
def test_a_refused_ticket_costs_one_line_and_a_full_handshake(case, pki, files, server,
                                                              tmp_path, caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="vitalink")
    other = None
    if case == "another_server":
        other = IngestionServer(ServerConfig(
            key_path=str(files / "server.vlk"), cred_path=str(files / "server.vlc"),
            root_path=str(files / "root.vlc"), store_dir=str(tmp_path / "other-store"),
        ))
        other.start()
    try:
        assert run_device(device_cfg(files, (other or server).port, count=1)).error is None
        [(key, kept)] = endpoints._TICKETS.items()
        now = int(time.time())
        if case == "bad_binder":
            kept = Resumption(kept.ticket, bytes(32), kept.server)
        elif case == "over_age":
            later = time.time() + TICKET_LIFETIME_S + 1
            monkeypatch.setattr(handshake, "time", SimpleNamespace(time=lambda: later))
        elif case != "another_server":  # sealed under the server's own ticket key
            kept = Resumption(forged_ticket(server.ticket_key, kept.secret, pki, case, now),
                              kept.secret, kept.server)
        endpoints._TICKETS.clear()
        endpoints._TICKETS[(key[0], server.port, *key[2:])] = kept
        caplog.clear()
        report = run_device(device_cfg(files, server.port, count=2, seed=9))
    finally:
        if other is not None:
            other.stop()
    assert report.error is None and report.sent_count == 2
    cause = {"another_server": "BadTicket", "bad_binder": "BadBinder",
             "over_age": "TicketExpired"}.get(case, case)
    peer = [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("session_established ")][0].rsplit("peer=", 1)[1]
    assert refusal_lines(caplog) == [f"resumption_refused cause={cause} peer={peer}"]
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    recs = [parse_reading_line(l) for l in read_store_lines(server)]
    assert [(r.timestamp_ms, r.bpm) for r in recs if r.session_id == report.session_id] \
        == report.sent


def test_concurrent_devices_each_resume_with_their_own_ticket(toy_pki, tmp_path, monkeypatch):
    # more devices than cores and a short switch interval: a ticket kept
    # under another device's key, or a race on the server's shared ticket
    # key, shows as a refusal or as readings stored under another subject
    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    resumed = []
    respond = ServerHandshake.respond

    def spy(hs, hello):
        body = respond(hs, hello)
        resumed.append((hs.resumed, hs.refusal))
        return body

    monkeypatch.setattr(ServerHandshake, "respond", spy)
    names = [f"watch-{i}" for i in range(4)]
    for i, name in enumerate(names):
        device = toy_pki.issue_device(name, keyfiles.drbg(60 + i))
        keyfiles.write_private_key(tmp_path / f"{name}.vlk", device.static_priv, toy_pki.suite)
        keyfiles.write_credential(tmp_path / f"{name}.vlc", device.credential, toy_pki.suite)
    reports = {}

    def sessions(i, name):
        reports[name] = [run_device(DeviceConfig(
            server_port=srv.port, key_path=str(tmp_path / f"{name}.vlk"),
            cred_path=str(tmp_path / f"{name}.vlc"), root_path=str(tmp_path / "root.vlc"),
            count=2, seed=100 * i + k, start_ms=1_000_000 * (k + 1))) for k in range(3)]

    srv.start()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=sessions, args=(i, n)) for i, n in enumerate(names)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
        srv.stop()
    assert not any(t.is_alive() for t in threads)
    assert all(r.error is None for rs in reports.values() for r in rs)
    # each device's first session is full and its next two resume
    assert sorted(resumed) == [(False, None)] * 4 + [(True, None)] * 8
    subjects = {parse_reading_line(l).session_id: parse_reading_line(l).subject_id
                for l in read_store_lines(srv)}
    assert subjects == {r.session_id: name for name, rs in reports.items() for r in rs}
