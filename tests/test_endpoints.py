"""End-to-end loopback sessions: honest runs, rejection paths, persistence."""

import logging
import select
import socket
import struct
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
    run_device,
)
from vitalink.errors import ConfigurationError, InvalidPeerKey
from vitalink.handshake import ClientHandshake
from vitalink.records import (
    MAGIC,
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_DATA,
    VERSION,
    Frame,
    frame_read,
    frame_write,
)
from vitalink.telemetry import AnomalyAlert

from conftest import Pki


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
    rec = StoreRecord("ab" * 32, "watch-1", "cc" * 8, 123, 72, "ok", 456)
    assert parse_reading_line(rec.line() + "\n") == rec
    with pytest.raises(ValueError):
        parse_reading_line("only\tthree\tfields")
    with pytest.raises(ValueError):
        parse_reading_line(rec.line().replace("\tok\t", "\twat\t"))


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
    try:
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, _ = hs.finish(frame_read(sock).body)
        frame_write(sock, Frame(TYPE_CLIENT_FINISH, finish))
        # built by hand: Frame.encode refuses a body this large
        body_len = 65560
        sock.sendall(MAGIC + bytes([VERSION, TYPE_DATA]) + struct.pack(">I", body_len)
                     + bytes(body_len))
        assert frame_read(sock, timeout=5.0).frame_type == TYPE_ABORT
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
    store = Store(tmp_path / "s")
    rec = StoreRecord("aa", "w", "bb", 1, 70, "ok", 2)

    def writer():
        for _ in range(200):
            store.append_reading(rec)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close()
    lines = (tmp_path / "s" / "readings.log").read_text().splitlines()
    assert len(lines) == 1600
    assert all(l == rec.line() for l in lines)


def test_invalid_peer_key_is_logged_as_a_handshake_failure(pki, server, caplog, monkeypatch):
    def degenerate(*args):
        raise InvalidPeerKey("shared point is the identity")

    caplog.set_level(logging.INFO, logger="vitalink")
    sock = socket.create_connection(("127.0.0.1", server.port))
    try:
        hs = ClientHandshake(pki.suite, pki.device, pki.root)
        hello = hs.start()
        monkeypatch.setattr(curves, "shared_secret", degenerate)
        frame_write(sock, Frame(TYPE_CLIENT_HELLO, hello))
        assert frame_read(sock, timeout=5.0).frame_type == TYPE_ABORT
    finally:
        sock.close()
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("handshake_failed cause=HandshakeError")


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
                reply = frame_read(sock, timeout=1.0)
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
