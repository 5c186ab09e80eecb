"""End-to-end loopback sessions: honest runs, rejection paths, persistence."""

import logging
import select
import shlex
import socket
import struct
import sys
import threading
import time

import pytest

from vitalink import curves, keyfiles
from vitalink.endpoints import (
    DeviceConfig,
    IngestionServer,
    ServerConfig,
    Store,
    StoreRecord,
    detect_suite_for_credential,
    load_identity,
    parse_alert_line,
    parse_reading_line,
    reading_line,
    run_device,
)
from vitalink.errors import ConfigurationError, EndOfStream, InvalidPeerKey
from vitalink.handshake import ClientHandshake, ServerHandshake
from vitalink.records import (
    MAGIC,
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    TYPE_SERVER_HELLO,
    VERSION,
    DirectionState,
    Frame,
    FrameReader,
    frame_read,
    frame_write,
    record_seal,
)
from vitalink.telemetry import STATUS_OK, AnomalyAlert, HeartRateReading

from conftest import BAD_ROOTS, Pki, bad_root


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
    with pytest.raises(ValueError):
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


def test_reading_line_round_trip():
    reading = HeartRateReading(b"\xcc" * 8, 123, 72, STATUS_OK)
    line = reading_line("ab" * 32, "watch-1", reading, 456)
    rec = StoreRecord("ab" * 32, "watch-1", "cc" * 8, 123, 72, "ok", 456)
    assert parse_reading_line(line + "\n") == rec
    with pytest.raises(ValueError):
        parse_reading_line("only\tthree\tfields")
    with pytest.raises(ValueError):
        parse_reading_line(line.replace("\tok\t", "\twat\t"))


def test_alert_line_round_trip():
    from vitalink.endpoints import alert_line

    a = AnomalyAlert(b"\xcc" * 8, 0, 2000, (160, 165, 158), "high_hr")
    assert parse_alert_line(alert_line(a) + "\n") == a


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
    reader = FrameReader(sock)
    try:
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, _ = hs.finish(frame_read(reader).body)
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish))
        # built by hand: Frame.encode refuses a body this large
        body_len = 65560
        sock.sendall(MAGIC + bytes([VERSION, TYPE_DATA]) + struct.pack(">I", body_len)
                     + bytes(body_len))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
    finally:
        sock.close()
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("session_fatal ")
    assert problems[0].endswith("cause=OversizeFrame")


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
    alerts = [parse_alert_line(l) for l in read_store_lines(server, "alerts.log")]
    assert len(alerts) == 1
    assert alerts[0].rule == "high_hr"
    assert alerts[0].observed_bpm == (180, 180, 180)


def test_store_appends_are_atomic_lines(tmp_path):
    # 8 writers append bursts of 1..60 lines; each burst must land whole,
    # its lines adjacent and in order, never interleaved with another's
    store = Store(tmp_path / "s")

    def burst(writer, k):
        return [reading_line(f"{writer:02x}", f"w{k}",
                             HeartRateReading(b"\xbb" * 8, j, 70, STATUS_OK), k)
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


def test_a_trickling_client_is_cut_at_the_frame_deadline(pki, files, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(tmp_path / "store"),
        read_timeout_s=1.0,
    ))
    srv.start()
    sock = socket.create_connection(("127.0.0.1", srv.port))
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
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("session_fatal ")
    assert problems[0].endswith("cause=FrameTimeout")


@pytest.mark.parametrize("suite_name", ["toy", "p256"])
def test_a_key_that_does_not_match_its_credential_is_refused(suite_name, tmp_path):
    pki = Pki(curves.SUITE_NAMES[suite_name])
    pki.write_files(tmp_path)
    suite = pki.suite
    good = load_identity(tmp_path / "server.vlk", tmp_path / "server.vlc", suite)
    assert good.static_priv == pki.server.static_priv
    wrong = pki.server.static_priv % (suite.n - 1) + 1
    keyfiles.write_private_key(tmp_path / "wrong.vlk", wrong, suite)
    with pytest.raises(ConfigurationError):
        load_identity(tmp_path / "wrong.vlk", tmp_path / "server.vlc", suite)
    with pytest.raises(ConfigurationError):
        IngestionServer(ServerConfig(
            key_path=str(tmp_path / "device.vlk"),
            cred_path=str(tmp_path / "server.vlc"),
            root_path=str(tmp_path / "root.vlc"),
            store_dir=str(tmp_path / "store"),
        ))
    with pytest.raises(ConfigurationError):
        run_device(device_cfg(tmp_path, 1, key_path=str(tmp_path / "wrong.vlk"),
                              cred_path=str(tmp_path / "server.vlc"), suite=suite))


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


def test_the_whole_handshake_shares_one_deadline(pki, files, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(tmp_path / "store"),
        read_timeout_s=1.0,
    ))
    srv.start()
    sock = socket.create_connection(("127.0.0.1", srv.port))
    reader = FrameReader(sock)
    try:
        t0 = time.monotonic()
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        hello = hs.start()
        time.sleep(0.7)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hello))
        finish, _ = hs.finish(frame_read(reader, timeout=5.0).body)
        # each frame inside read_timeout_s, both together past it
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
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("session_fatal ")
    assert problems[0].endswith("cause=FrameTimeout")
    assert read_store_lines(srv) == []


def test_the_device_sees_an_abort_that_came_with_the_server_hello(pki, files):
    """Both frames land in the device's buffer in one read; the abort check
    must find the second there, where `select` on the socket cannot."""
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
    assert report.error == "ConnectionAborted: server aborted mid-stream"
    assert report.sent_count == 1
