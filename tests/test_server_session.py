"""`endpoints.ServerSession` fed frames directly on the toy suite, with no
socket and no thread: the frames come from `ClientHandshake` and
`record_seal`, and a fault goes to `fail` as `_handle` hands it over. Each
way a session ends returns its reply and logs exactly one terminal line
with the right counts."""

import logging
import time

import pytest

from vitalink import keyfiles
from vitalink.endpoints import IngestionServer, ServerConfig, ServerSession, parse_reading_line
from vitalink.errors import EndOfStream, VitalinkError
from vitalink.handshake import ClientHandshake
from vitalink.records import (
    MAX_READINGS_PER_RECORD,
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    TYPE_NEW_TICKET,
    TYPE_SERVER_HELLO,
    DirectionState,
    Frame,
    record_seal,
)
from vitalink.telemetry import HeartRateReading, SensorSim, reading_encode

from conftest import FullDisk, fields, terminal_lines

PEER = "127.0.0.1:4000"


@pytest.fixture()
def server(toy_pki, tmp_path):
    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(  # never started: no socket
        key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    yield srv
    srv.stop()


@pytest.fixture()
def endings(caplog):
    """The terminal lines logged so far, as `terminal` reads them."""
    caplog.set_level(logging.INFO, logger="vitalink")
    return lambda: terminal_lines(r.getMessage() for r in caplog.records)


def feed(session, frame) -> list:
    """The types of the frames `_handle` writes back for `frame`."""
    try:
        replies = session.receive(frame)
    except (VitalinkError, OSError) as exc:
        replies = session.fail(exc)
    return [f.frame_type for f in replies]


def establish(session, pki, seed=31, device=None):
    """Runs the handshake through `session` as `device`, by default `pki`'s;
    returns the session id and the device's sending direction."""
    hs = ClientHandshake(pki.suite, device or pki.device, pki.root, rng=keyfiles.drbg(seed))
    [hello] = session.receive(Frame(TYPE_CLIENT_HELLO, hs.start()))
    assert hello.frame_type == TYPE_SERVER_HELLO
    finish, keys = hs.finish(hello.body)
    assert feed(session, Frame(TYPE_CLIENT_FINISH, finish)) == [TYPE_NEW_TICKET]
    return keys.session_id.hex()[:16], DirectionState(keys.c2s_key, keys.c2s_salt)


def data_records(tx, count, seed=31) -> list:
    """`count` full Data records of sensor readings, one second apart."""
    sim = SensorSim(seed=seed)
    readings = [reading_encode(sim.next_reading(1000 * i))
                for i in range(count * MAX_READINGS_PER_RECORD)]
    return [record_seal(tx, TYPE_DATA, b"".join(readings[i : i + MAX_READINGS_PER_RECORD]))
            for i in range(0, len(readings), MAX_READINGS_PER_RECORD)]


def stored(server) -> list:
    path = server.store.dir / "readings.log"
    return [parse_reading_line(l) for l in path.read_text().splitlines()] if path.exists() else []


def counts(session_hex, handshake, readings) -> dict:
    return {"session": session_hex, "handshake": handshake, "readings": str(readings),
            "alerts": "0", "peer": PEER}


def test_an_honest_session_runs_through_the_session_alone(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root, rng=keyfiles.drbg(31))
    [hello] = session.receive(Frame(TYPE_CLIENT_HELLO, hs.start()))
    finish, keys = hs.finish(hello.body)
    [ticket] = session.receive(Frame(TYPE_CLIENT_FINISH, finish))
    tx = DirectionState(keys.c2s_key, keys.c2s_salt)
    replies = [session.receive(record) for record in data_records(tx, 1)]
    replies.append(session.receive(record_seal(tx, TYPE_CLOSE, b"")))
    assert [hello.frame_type, ticket.frame_type] == [TYPE_SERVER_HELLO, TYPE_NEW_TICKET]
    assert replies == [[], []] and session.ended
    session.close()
    assert len(stored(server)) == MAX_READINGS_PER_RECORD
    assert endings() == [("session_closed", {
        "cause": "-", "detail": "-",
        **counts(keys.session_id.hex()[:16], "full", MAX_READINGS_PER_RECORD)})]


def test_the_handshake_has_one_deadline_and_records_a_deadline_each(toy_pki, server):
    session = ServerSession(server, PEER)
    handshake = session.deadline
    assert 0 < handshake - time.monotonic() <= 10.0
    hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root, rng=keyfiles.drbg(31))
    [hello] = session.receive(Frame(TYPE_CLIENT_HELLO, hs.start()))
    assert session.deadline == handshake  # the ClientFinish has what is left
    finish, keys = hs.finish(hello.body)
    session.receive(Frame(TYPE_CLIENT_FINISH, finish))
    time.sleep(0.01)
    before = time.monotonic()
    [record] = data_records(DirectionState(keys.c2s_key, keys.c2s_salt), 1)
    session.receive(record)
    # each record gets READ_TIMEOUT_S from the one before
    assert before + 10.0 <= session.deadline <= time.monotonic() + 10.0
    session.close()


def test_a_peer_abort_is_answered_with_an_abort(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    session_hex, tx = establish(session, toy_pki)
    assert feed(session, data_records(tx, 1)[0]) == []
    assert feed(session, Frame(TYPE_ABORT, b"")) == [TYPE_ABORT] and session.ended
    session.close()
    assert endings() == [("peer_abort", {
        "cause": "unauthenticated", "detail": "-",
        **counts(session_hex, "full", MAX_READINGS_PER_RECORD)})]
    assert len(stored(server)) == MAX_READINGS_PER_RECORD


def test_a_failed_handshake_stores_nothing(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root, rng=keyfiles.drbg(32))
    [hello] = session.receive(Frame(TYPE_CLIENT_HELLO, hs.start()))
    finish, _ = hs.finish(hello.body)
    forged = finish[:-1] + bytes([finish[-1] ^ 1])  # the finished MAC
    assert feed(session, Frame(TYPE_CLIENT_FINISH, forged)) == [TYPE_ABORT]
    session.close()
    assert endings() == [("handshake_failed", {
        "cause": "BadFinishedMac", "detail": "client finished MAC mismatch",
        **counts("-", "-", 0)})]
    assert stored(server) == []


def test_a_bad_tag_on_the_third_record_keeps_the_first_two(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    session_hex, tx = establish(session, toy_pki)
    first, second, third = data_records(tx, 3)
    third = third._replace(body=third.body[:-1] + bytes([third.body[-1] ^ 1]))
    assert [feed(session, r) for r in (first, second, third)] == [[], [], [TYPE_ABORT]]
    session.close()
    assert endings() == [("record_auth_failure", {
        "cause": "AuthFailure", "detail": "-",
        **counts(session_hex, "full", 2 * MAX_READINGS_PER_RECORD)})]
    assert len(stored(server)) == 2 * MAX_READINGS_PER_RECORD


def test_a_reading_back_in_time_keeps_the_readings_before_it(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    session_hex, tx = establish(session, toy_pki)
    sim = SensorSim(seed=33)
    readings = [sim.next_reading(1000 * i) for i in range(10)]
    readings[7] = readings[7]._replace(timestamp_ms=0)
    record = record_seal(tx, TYPE_DATA, b"".join(reading_encode(r) for r in readings))
    assert feed(session, record) == [TYPE_ABORT]
    session.close()
    assert endings() == [("session_fatal", {
        "cause": "MalformedReading", "detail": "timestamps went backwards",
        **counts(session_hex, "full", 7)})]
    assert [r.timestamp_ms for r in stored(server)] == [1000 * i for i in range(7)]


def test_a_stream_that_ends_without_a_close_is_suspicious(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    session_hex, tx = establish(session, toy_pki)
    assert feed(session, data_records(tx, 1)[0]) == []
    assert session.fail(EndOfStream("mid-frame")) == [Frame(TYPE_ABORT, b"")]
    session.close()
    assert endings() == [("suspicious_termination", {
        "cause": "no_authenticated_close", "detail": "mid-frame",
        **counts(session_hex, "full", MAX_READINGS_PER_RECORD)})]


def test_a_connection_error_gets_no_reply(toy_pki, server, endings):
    session = ServerSession(server, PEER)
    assert session.fail(ConnectionResetError(104, "Connection reset by peer")) == []
    assert session.ended
    session.close()
    assert endings() == [("connection_error", {
        "cause": "ConnectionResetError", "detail": "[Errno 104] Connection reset by peer",
        **counts("-", "-", 0)})]


def test_a_data_record_is_on_disk_when_receive_returns(toy_pki, server):
    session = ServerSession(server, PEER)
    _, tx = establish(session, toy_pki)
    for n, record in enumerate(data_records(tx, 2), 1):
        assert session.receive(record) == []
        assert len(stored(server)) == n * MAX_READINGS_PER_RECORD


@pytest.mark.parametrize("at", ["readings", "alerts"])
def test_a_store_that_cannot_write_ends_the_session_in_one_line(toy_pki, server, endings, at):
    # the store fails at the record's own readings write or at its alert's:
    # the server's fault, answered with an Abort, so a device that has sent its
    # Close does not take the hang-up for success
    session = ServerSession(server, PEER)
    session_hex, tx = establish(session, toy_pki)
    breach = b"".join(reading_encode(HeartRateReading(1000 * i, 180)) for i in range(3))
    name = f"_{at}"
    setattr(server.store, name, FullDisk(getattr(server.store, name)))
    assert feed(session, record_seal(tx, TYPE_DATA, breach)) == [TYPE_ABORT]
    session.close()
    kept = 0 if at == "readings" else 3
    assert endings() == [("session_fatal", {
        "cause": "StoreError", "detail": "[Errno 28] No space left on device",
        **counts(session_hex, "full", kept)})]
    assert len(stored(server)) == kept


def test_an_alert_line_names_the_subject_the_device_id_cannot(toy_pki, server, caplog):
    # the device id is a subject's first 8 bytes: both read "watch-00"
    caplog.set_level(logging.WARNING, logger="vitalink")
    breach = b"".join(reading_encode(HeartRateReading(1000 * i, 180)) for i in range(3))
    for seed, name in enumerate(["watch-000", "watch-001"], 40):
        session = ServerSession(server, PEER)
        _, tx = establish(session, toy_pki, seed,
                          toy_pki.issue_device(name, keyfiles.drbg(seed)))
        assert feed(session, record_seal(tx, TYPE_DATA, breach)) == []
        session.close()
    alerts = [fields(r.getMessage())[1] for r in caplog.records
              if r.getMessage().startswith("alert ")]
    assert [a["subject"] for a in alerts] == ["watch-000", "watch-001"]
    assert [a["device"] for a in alerts] == [b"watch-00".hex()] * 2
    assert list(alerts[0]) == ["session", "subject", "device", "rule", "bpm", "window", "peer"]
