"""One mutated frame, fed to `IngestionServer._handle` over a socketpair on the
toy suite: a ClientHello or ClientFinish, or a Data or Close frame after a
live handshake. Whatever the mutation, the session must end in exactly one
classified outcome: the readings before the mutated frame persisted and none
after, an Abort back to the device, one log line naming the cause, and no
exception out of the handler."""

import logging
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink import endpoints, gcm, keyfiles, records
from vitalink.endpoints import IngestionServer, ServerConfig, Store, log_value, parse_reading_line
from vitalink.errors import EndOfStream, HandshakeError
from vitalink.handshake import ClientHandshake, Resumption
from vitalink.records import (
    FRAME_TYPES,
    MAX_BODY,
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
    record_seal,
)
from vitalink.telemetry import READING_LEN, STATUS_NAMES, ScriptSegment, SensorSim, reading_encode

from conftest import fields, terminal

CLASSIFIED = ("record_auth_failure ", "session_fatal ", "suspicious_termination ")
# a handshake frame may also fail the handshake; a record frame never can
HANDSHAKE_CLASSIFIED = CLASSIFIED + ("handshake_failed ",)
MUTATIONS = ("flip", "truncate", "swap_type", "drop")


class Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def problems(self):
        return [r.getMessage() for r in self.records if r.levelno >= logging.WARNING]


@pytest.fixture()
def server(toy_pki, tmp_path, monkeypatch):
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 5.0)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    ))
    yield srv
    srv.stop()


@pytest.fixture()
def lines():
    handler = Lines()
    logger = logging.getLogger("vitalink")
    logger.addHandler(handler)
    old_level = logger.level
    logger.setLevel(logging.INFO)
    yield handler
    logger.removeHandler(handler)
    logger.setLevel(old_level)


def persisted(server, session_hex=None) -> list:
    path = server.store.dir / "readings.log"
    recs = map(parse_reading_line, path.read_text().splitlines()) if path.exists() else []
    return [r for r in recs if session_hex is None or r.session_id == session_hex]


def serve_one(server, device_side):
    """Runs `device_side(reader)` against `server._handle` on the other end of a
    socketpair, with one `FrameReader` over the device's end for its whole
    life; returns what it returns once the handler has finished, and fails
    if an exception escaped the handler. The server's end is closed when the
    handler returns, as the listener does. `_handle` only reads, feeds a
    `ServerSession` and writes its replies, so this checks the session
    through its read loop; `test_server_session.py` feeds one directly."""
    device, server_end = socket.socketpair()
    escaped = []

    def handle():
        try:
            server._handle(server_end, ("socketpair", 0))
        except Exception as exc:  # the property: nothing gets here
            escaped.append(exc)
        finally:
            server_end.close()

    handler = threading.Thread(target=handle)
    handler.start()
    try:
        result = device_side(FrameReader(device))
    finally:
        device.close()
        handler.join(timeout=10.0)
    assert not handler.is_alive() and escaped == []
    return result


def header(frame_type: int, length: int) -> bytes:
    """A frame header announcing `length` body bytes, which `Frame.encode`
    refuses to write past MAX_BODY."""
    return records.MAGIC + bytes([records.VERSION, frame_type]) + length.to_bytes(4, "big")


def send_and_hang_up(sock, data: bytes) -> None:
    try:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
    except OSError:  # the server may have hung up already
        pass


def replies_until_abort(reader) -> list:
    types = []
    while TYPE_ABORT not in types:
        types.append(frame_read(reader, timeout=5.0).frame_type)
    return types


def mutate(raw: bytes, mutation: str, draw) -> list[bytes]:
    """The frames that go on the wire in place of `raw`."""
    if mutation == "flip":  # any bit of the header or the body
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        return [bytes(flipped)]
    if mutation == "truncate":
        return [raw[: draw(st.integers(0, len(raw) - 1))]]
    if mutation == "swap_type":
        # an injected Abort has its own test below
        other = sorted(FRAME_TYPES - {raw[3], TYPE_ABORT})
        return [raw[:3] + bytes([draw(st.sampled_from(other))]) + raw[4:]]
    return []  # dropped


def handshake(reader, pki, seed):
    hs = ClientHandshake(pki.suite, pki.device, pki.root, rng=keyfiles.drbg(seed))
    frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
    finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
    frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
    assert frame_read(reader, timeout=5.0).frame_type == TYPE_NEW_TICKET
    return keys


def sensor_readings(seed, readings, script=None) -> list:
    sim = SensorSim(seed=seed, script=script)
    return [sim.next_reading(1000 * i) for i in range(readings)]


def sealed_session(keys, seed, readings, script=None) -> list[bytes]:
    """`readings` Data frames and a Close, as they go on the wire."""
    tx = DirectionState(keys.c2s_key, keys.c2s_salt)
    wire = [record_seal(tx, TYPE_DATA, reading_encode(r)).encode()
            for r in sensor_readings(seed, readings, script)]
    return wire + [record_seal(tx, TYPE_CLOSE, b"").encode()]


def test_one_mutated_record_ends_in_one_classified_outcome(toy_pki, server, lines):
    @settings(max_examples=80, deadline=None)
    @given(
        # 9 readings and a Close hash past the 36 blocks before a GHASH table
        readings=st.integers(9, 24),
        mutation=st.sampled_from(MUTATIONS),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def session(readings, mutation, seed, data):
        target = data.draw(st.integers(0, readings), label="target")  # readings: the Close
        lines.records.clear()

        def device_side(reader):
            keys = handshake(reader, toy_pki, seed)
            wire = sealed_session(keys, seed, readings)
            wire[target : target + 1] = mutate(wire[target], mutation, data.draw)
            send_and_hang_up(reader.sock, b"".join(wire))
            return keys, frame_read(reader, timeout=5.0)

        keys, reply = serve_one(server, device_side)
        assert reply.frame_type == TYPE_ABORT
        problems = lines.problems()
        assert len(problems) == 1 and problems[0].startswith(CLASSIFIED), problems
        assert problems[0].endswith(" peer=socketpair:0"), problems
        assert len(persisted(server, keys.session_id.hex())) == target

    session()


def test_one_mutated_handshake_frame_ends_in_one_classified_outcome(toy_pki, server, lines):
    # one good session first, so that both credentials are remembered and a
    # mutated credential or signature meets a warm memo
    def good(reader):
        keys = handshake(reader, toy_pki, 0)
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 0, 2)))
        return keys

    keys = serve_one(server, good)
    assert lines.problems() == [] and len(persisted(server, keys.session_id.hex())) == 2

    @settings(max_examples=80, deadline=None)
    @given(
        frame=st.sampled_from(("ClientHello", "ClientFinish")),
        mutation=st.sampled_from(MUTATIONS),
        seed=st.integers(1, 2**32),
        data=st.data(),
    )
    def session(frame, mutation, seed, data):
        lines.records.clear()

        def device_side(reader):
            hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                                 rng=keyfiles.drbg(seed))
            raw = Frame(TYPE_CLIENT_HELLO, hs.start()).encode()
            if frame == "ClientFinish":
                reader.sock.sendall(raw)
                finish, _ = hs.finish(frame_read(reader, timeout=5.0).body)
                raw = Frame(TYPE_CLIENT_FINISH, finish).encode()
            send_and_hang_up(reader.sock, b"".join(mutate(raw, mutation, data.draw)))
            return replies_until_abort(reader)

        serve_one(server, device_side)
        problems = lines.problems()
        assert len(problems) == 1 and problems[0].startswith(HANDSHAKE_CLASSIFIED), problems
        assert problems[0].endswith(" peer=socketpair:0"), problems
        assert len(persisted(server)) == 2

    session()


def test_a_plaintext_abort_mid_session_is_logged_as_possible_tampering(toy_pki, server, lines):
    def device_side(reader):
        keys = handshake(reader, toy_pki, 5)
        wire = sealed_session(keys, 5, 5)
        wire[2] = wire[2][:3] + bytes([TYPE_ABORT]) + wire[2][4:]  # an on-path rewrite
        send_and_hang_up(reader.sock, b"".join(wire))
        return keys, replies_until_abort(reader)

    keys, replies = serve_one(server, device_side)
    assert replies == [TYPE_ABORT]
    session_hex = keys.session_id.hex()
    [line] = lines.problems()
    assert terminal(line) == ("peer_abort", {
        "cause": "unauthenticated", "detail": "-", "session": session_hex[:16],
        "handshake": "full", "readings": "2", "alerts": "0", "peer": "socketpair:0"})
    assert len(persisted(server, session_hex)) == 2


def test_a_client_finish_and_records_in_one_segment_are_all_read(toy_pki, server, lines):
    # one reader spans the handshake and the record loop
    def device_side(reader):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(11))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        wire = [Frame(TYPE_CLIENT_FINISH, finish).encode()]
        send_and_hang_up(reader.sock, b"".join(wire + sealed_session(keys, 11, 1)))
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_NEW_TICKET
        with pytest.raises(EndOfStream, match="at-boundary"):
            frame_read(reader, timeout=5.0)
        return keys

    keys = serve_one(server, device_side)
    session_hex = keys.session_id.hex()
    assert lines.problems() == []
    event, summary = fields([r.getMessage() for r in lines.records][-1])
    assert event == "session_closed"
    assert list(summary) == ["cause", "detail", "session", "handshake", "readings", "alerts",
                             "cpu_ms", "wall_ms", "peer"]
    assert (summary["cause"], summary["detail"]) == ("-", "-")
    assert summary["session"] == session_hex[:16] and summary["handshake"] == "full"
    assert (summary["readings"], summary["alerts"]) == ("1", "0")
    assert 0 < float(summary["cpu_ms"]) and 0 < float(summary["wall_ms"])
    assert summary["peer"] == "socketpair:0"
    assert len(persisted(server, session_hex)) == 1


def test_the_summary_line_counts_readings_and_alerts_and_names_a_resumed_session(
        toy_pki, server, lines):
    # 20 readings with one breach episode, on a session that resumes the first
    script = [ScriptSegment(5, 9, 190)]

    def device_side(reader, resumption=None):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(41), resumption=resumption)
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
        ticket = frame_read(reader, timeout=5.0)
        assert ticket.frame_type == TYPE_NEW_TICKET
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 41, 20, script)))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)
        return hs.resumption_for(ticket.body)

    resumption = serve_one(server, device_side)
    serve_one(server, lambda reader: device_side(reader, resumption))
    summaries = [fields(r.getMessage())[1] for r in lines.records
                 if r.getMessage().startswith("session_closed ")]
    assert [(f["handshake"], f["readings"], f["alerts"]) for f in summaries] == [
        ("full", "20", "1"), ("resumed", "20", "1")]


@pytest.mark.parametrize("value, logged", [
    ("UnknownIssuer", "UnknownIssuer"),
    ("two words", '"two words"'),
    ('say "hi"', '"say \\"hi\\""'),
    ("a=b", '"a=b"'),
    ("back\\slash", '"back\\\\slash"'),
    ("", '""'),
])
def test_a_log_value_is_one_field(value, logged):
    assert log_value(value) == logged
    assert fields(f"event key={log_value(value)} next=1")[1] == {"key": value, "next": "1"}


def test_a_handshake_failure_line_quotes_a_multi_word_detail(toy_pki, server, lines):
    def device_side(reader):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(12))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, _ = hs.finish(frame_read(reader, timeout=5.0).body)
        # flip the low bit of the signature point's y: off the curve
        cred_len = int.from_bytes(finish[:2], "big")
        y_end = 2 + cred_len + 2 + 1 + 2 * toy_pki.suite.field_len
        finish = bytearray(finish)
        finish[y_end - 1] ^= 1
        frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, bytes(finish)))
        return replies_until_abort(reader)

    assert serve_one(server, device_side) == [TYPE_ABORT]
    [line] = lines.problems()
    assert 'detail="malformed ClientFinish: coordinates not on curve"' in line
    assert line.startswith("handshake_failed cause=BadClientCredential detail=")
    assert terminal(line) == ("handshake_failed", {
        "cause": "BadClientCredential",
        "detail": "malformed ClientFinish: coordinates not on curve",
        "session": "-", "handshake": "-", "readings": "0", "alerts": "0",
        "peer": "socketpair:0",
    })


@pytest.mark.parametrize("subject", [b"a\tb", b"\xff\xfe"], ids=["tab", "not_utf8"])
def test_a_root_signed_subject_that_is_not_printable_utf8_is_refused(toy_pki, server, lines,
                                                                      subject):
    # a tab would split the readings line; bytes that are not UTF-8 would
    # raise out of the handler when the subject is decoded
    device = toy_pki.device_with_raw_subject(subject)

    def device_side(reader):
        hs = ClientHandshake(toy_pki.suite, device, toy_pki.root, rng=keyfiles.drbg(13))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 13, 1)))
        return replies_until_abort(reader)

    assert serve_one(server, device_side) == [TYPE_ABORT]
    [line] = lines.problems()
    event, pairs = fields(line)
    assert event == "handshake_failed" and pairs["cause"] == "BadClientCredential"
    assert pairs["detail"].startswith("malformed ClientFinish: subject ")
    assert persisted(server) == []


def test_a_connection_error_line_names_the_error_type(toy_pki, server, lines, monkeypatch):
    def reset(sock, frame):
        raise ConnectionResetError(104, "Connection reset by peer")

    monkeypatch.setattr(endpoints, "frame_write", reset)

    def device_side(reader):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(13))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)

    serve_one(server, device_side)
    [line] = lines.problems()
    assert terminal(line) == ("connection_error", {
        "cause": "ConnectionResetError",
        "detail": "[Errno 104] Connection reset by peer",
        "session": "-", "handshake": "-", "readings": "0", "alerts": "0",
        "peer": "socketpair:0",
    })


def refuse_writes_of(monkeypatch, frame_type):
    """Makes the server's write of each frame of `frame_type` fail as a
    peer that has gone would make it fail; returns the types written."""
    written = []

    def write(sock, frame):
        if frame.frame_type == frame_type:
            raise BrokenPipeError(32, "Broken pipe")
        written.append(frame.frame_type)
        frame_write(sock, frame)

    monkeypatch.setattr(endpoints, "frame_write", write)
    return written


def test_a_new_ticket_that_cannot_be_written_ends_the_session_at_once(
        toy_pki, server, lines, monkeypatch):
    written = refuse_writes_of(monkeypatch, TYPE_NEW_TICKET)

    def device_side(reader):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(14))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
        with pytest.raises(EndOfStream):  # no Abort, only the hang-up
            frame_read(reader, timeout=5.0)
        return keys

    t0 = time.monotonic()
    keys = serve_one(server, device_side)
    assert time.monotonic() - t0 < 2.0  # not a read timeout later
    assert written == [TYPE_SERVER_HELLO]
    [line] = lines.problems()
    assert terminal(line) == ("connection_error", {
        "cause": "BrokenPipeError", "detail": "[Errno 32] Broken pipe",
        "session": keys.session_id.hex()[:16], "handshake": "full", "readings": "0",
        "alerts": "0", "peer": "socketpair:0"})
    assert persisted(server) == []


def test_a_reply_to_a_peer_abort_that_cannot_be_written_adds_no_second_line(
        toy_pki, server, lines, monkeypatch):
    refuse_writes_of(monkeypatch, TYPE_ABORT)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 15)
        wire = sealed_session(keys, 15, 3)
        send_and_hang_up(reader.sock, b"".join(wire[:3]) + Frame(TYPE_ABORT, b"").encode())
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)

    serve_one(server, device_side)
    [line] = lines.problems()
    event, pairs = terminal(line)
    assert (event, pairs["readings"]) == ("peer_abort", "3")
    assert len(persisted(server)) == 3


# ---------------------------------------------------------------------------
# ingest: each Data record's readings go to the store in one write as the
# record is opened, before its alerts are stored


def as_rows(readings) -> list:
    return [(r.timestamp_ms, r.bpm, STATUS_NAMES[r.status]) for r in readings]


def stored_rows(server, session_hex=None) -> list:
    return [(r.timestamp_ms, r.bpm, r.status) for r in persisted(server, session_hex)]


@pytest.mark.parametrize("readings", [1, 95, 200])
def test_a_burst_is_persisted_in_order_in_one_write_per_record(toy_pki, server, lines,
                                                                monkeypatch, readings):
    writes = []
    append = Store.append_reading

    def spy(store, lines):
        writes.append(len(lines))
        append(store, lines)

    monkeypatch.setattr(Store, "append_reading", spy)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 21)
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 21, readings)))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)
        return keys

    keys = serve_one(server, device_side)
    assert lines.problems() == []
    assert stored_rows(server, keys.session_id.hex()) == as_rows(
        sensor_readings(21, readings))
    assert writes == [1] * readings  # one write per one-reading record


def test_buffered_readings_are_on_disk_before_the_server_waits_again(toy_pki, server, lines):
    def device_side(reader):
        keys = handshake(reader, toy_pki, 24)
        wire = sealed_session(keys, 24, 5)
        reader.sock.sendall(b"".join(wire[:5]))
        deadline = time.monotonic() + 5.0
        while len(persisted(server, keys.session_id.hex())) < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        on_disk = len(persisted(server, keys.session_id.hex()))
        send_and_hang_up(reader.sock, wire[5])
        return on_disk

    assert serve_one(server, device_side) == 5
    assert lines.problems() == []


@pytest.mark.parametrize("fault", ["tag", "backwards", "oversize"])
@pytest.mark.parametrize("k", [2, 17, 39])
def test_a_fault_at_position_k_of_a_burst_persists_the_k_readings_before_it(
        toy_pki, server, lines, monkeypatch, fault, k):
    sent = sensor_readings(22, 40)
    if fault == "backwards":
        sent[k] = sent[k]._replace(timestamp_ms=sent[k - 1].timestamp_ms - 1)
    opened = []
    real_open = gcm.open_

    def spy(gk, nonce, aad, record):
        opened.append(len(record))
        return real_open(gk, nonce, aad, record)

    monkeypatch.setattr(gcm, "open_", spy)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 22)
        tx = DirectionState(keys.c2s_key, keys.c2s_salt)
        wire = [bytearray(record_seal(tx, TYPE_DATA, reading_encode(r)).encode()) for r in sent]
        if fault == "tag":
            wire[k][-1] ^= 1
        if fault == "oversize":  # a header no device sends, under any key
            wire[k] = header(TYPE_DATA, MAX_BODY + 1)
        wire.append(record_seal(tx, TYPE_CLOSE, b"").encode())
        send_and_hang_up(reader.sock, b"".join(wire))
        return keys, replies_until_abort(reader)

    keys, replies = serve_one(server, device_side)
    assert replies == [TYPE_ABORT]
    [problem] = lines.problems()
    assert problem.startswith("record_auth_failure " if fault == "tag" else "session_fatal ")
    assert stored_rows(server, keys.session_id.hex()) == as_rows(sent[:k])
    # only sealed readings reach GCM: an oversize record is refused before it
    assert opened == [READING_LEN + 16] * (k if fault == "oversize" else k + 1)


def test_a_reading_is_on_disk_before_its_alert_is_stored(toy_pki, server, lines, monkeypatch):
    script = [ScriptSegment(5, 9, 180)]  # alerts at index 7, once 5, 6 and 7 are high
    on_disk_at_alert = []
    append_alert = Store.append_alert

    def spy(store, line):
        window_end_ms = int(line.split("\t")[3])
        on_disk_at_alert.append((window_end_ms, [ts for ts, _, _ in stored_rows(server)]))
        append_alert(store, line)

    monkeypatch.setattr(Store, "append_alert", spy)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 23)
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 23, 20, script)))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)
        return keys

    keys = serve_one(server, device_side)
    assert on_disk_at_alert == [(7000, [1000 * i for i in range(8)])]
    assert stored_rows(server, keys.session_id.hex()) == as_rows(
        sensor_readings(23, 20, script))
    alert_lines = [r.getMessage() for r in lines.records if r.getMessage().startswith("alert ")]
    assert [fields(l) for l in alert_lines] == [("alert", {
        "session": keys.session_id.hex()[:16],
        "subject": "watch-1",
        "device": toy_pki.device_cred.subject_id[:8].hex(),
        "rule": "high_hr",
        "bpm": "180,180,180",
        "window": "5000..7000",
        "peer": "socketpair:0",
    })]


# ---------------------------------------------------------------------------
# resumption: a mutated resumed ClientHello or NewTicket body never resumes


def server_hello_proves(body: bytes) -> bool:
    """Whether a ServerHello carries a credential: a full handshake's does,
    a resumed one's is empty."""
    eph_len = int.from_bytes(body[32:34], "big")
    return int.from_bytes(body[34 + eph_len : 36 + eph_len], "big") > 0


def test_a_mutated_resumed_hello_or_ticket_never_resumes(toy_pki, server, lines):
    def first(reader):
        hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                             rng=keyfiles.drbg(30))
        frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hs.start()))
        finish, keys = hs.finish(frame_read(reader, timeout=5.0).body)
        frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
        ticket = frame_read(reader, timeout=5.0)
        assert ticket.frame_type == TYPE_NEW_TICKET
        send_and_hang_up(reader.sock, b"".join(sealed_session(keys, 30, 1)))
        return hs.resumption_for(ticket.body)

    resumption = serve_one(server, first)

    def flip(data: bytes, draw) -> bytes:
        out = bytearray(data)
        out[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)

    @settings(max_examples=80, deadline=None)
    @given(target=st.sampled_from(("ClientHello", "NewTicket")), seed=st.integers(1, 2**32),
           data=st.data())
    def session(target, seed, data):
        lines.records.clear()
        offered = resumption
        if target == "NewTicket":
            offered = Resumption(flip(resumption.ticket, data.draw), resumption.secret,
                                 resumption.server)

        def device_side(reader):
            hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                                 rng=keyfiles.drbg(seed), resumption=offered)
            hello = hs.start()
            if target == "ClientHello":
                hello = flip(hello, data.draw)
            frame_write(reader.sock, Frame(TYPE_CLIENT_HELLO, hello))
            reply = frame_read(reader, timeout=5.0)
            if reply.frame_type == TYPE_ABORT:
                return "rejected"
            assert reply.frame_type == TYPE_SERVER_HELLO and server_hello_proves(reply.body)
            try:
                finish, keys = hs.finish(reply.body)
            except HandshakeError:  # the server read another hello than was sent
                send_and_hang_up(reader.sock, b"")
                replies_until_abort(reader)
                return "refused by the device"
            assert not hs.resumed
            frame_write(reader.sock, Frame(TYPE_CLIENT_FINISH, finish))
            assert frame_read(reader, timeout=5.0).frame_type == TYPE_NEW_TICKET
            send_and_hang_up(reader.sock, b"".join(sealed_session(keys, seed, 1)))
            return "full"

        outcome = serve_one(server, device_side)
        messages = [r.getMessage() for r in lines.records]
        refusals = [m for m in messages if m.startswith("resumption_refused ")]
        assert len(refusals) <= 1
        if target == "NewTicket":
            assert outcome == "full" and lines.problems() == []
            assert [fields(m)[1]["cause"] for m in refusals] == ["BadTicket"]
        else:
            assert outcome in ("rejected", "refused by the device")
            assert not any(m.startswith("session_established ") for m in messages)
            problems = lines.problems()
            assert len(problems) == 1 and problems[0].startswith(HANDSHAKE_CLASSIFIED), problems

    session()


# ---------------------------------------------------------------------------
# Data records of several readings: one length rule before any GCM work, one
# tag per record, then each reading decoded and order-checked in turn


def sealed_records(keys, readings, sizes) -> list[bytes]:
    """Data frames of `sizes` readings each, taken in order, and a Close."""
    tx = DirectionState(keys.c2s_key, keys.c2s_salt)
    wire, first = [], 0
    for n in sizes:
        payload = b"".join(reading_encode(r) for r in readings[first : first + n])
        wire.append(record_seal(tx, TYPE_DATA, payload).encode())
        first += n
    return wire + [record_seal(tx, TYPE_CLOSE, b"").encode()]


def spy_on_open(monkeypatch) -> list:
    opened = []
    real_open = gcm.open_

    def spy(gk, nonce, aad, record):
        opened.append(len(record))
        return real_open(gk, nonce, aad, record)

    monkeypatch.setattr(gcm, "open_", spy)
    return opened


# past MAX_BODY, a record of MAX_READINGS_PER_RECORD (the cap) readings, the
# header alone is refused
@pytest.mark.parametrize("body_len, cause", [
    (16, "MalformedFrame"), (MAX_BODY + READING_LEN, "OversizeFrame"), (11 + 17, "MalformedFrame"),
    (MAX_BODY + 1, "OversizeFrame"),
], ids=["no_reading", "cap_plus_1_readings", "1_reading_plus_1", "cap_readings_plus_1"])
def test_a_data_body_that_is_no_whole_count_of_readings_is_refused_before_gcm(
        toy_pki, server, lines, monkeypatch, body_len, cause):
    opened = spy_on_open(monkeypatch)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 31)
        send_and_hang_up(reader.sock, header(TYPE_DATA, body_len) + bytes(body_len))
        return replies_until_abort(reader)

    assert serve_one(server, device_side) == [TYPE_ABORT]
    [problem] = lines.problems()
    assert problem.startswith("session_fatal ") and f"cause={cause} " in problem
    assert opened == []
    assert persisted(server) == []


def test_a_live_session_refuses_an_oversize_header_before_its_body(toy_pki, server, lines):
    server.start()
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        reader = FrameReader(sock)
        handshake(reader, toy_pki, 34)
        t0 = time.monotonic()
        sock.sendall(header(TYPE_DATA, MAX_BODY + 1))  # and the connection stays open
        assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
        # well before the 5 s read timeout a body wait would end in
        assert time.monotonic() - t0 < 4.0
    [problem] = lines.problems()
    assert problem.startswith("session_fatal ") and "cause=OversizeFrame " in problem


def test_a_bad_tag_in_the_second_of_three_records_stores_the_first_records_readings(
        toy_pki, server, lines, monkeypatch):
    sent = sensor_readings(32, 10 + 64 + 30)
    opened = spy_on_open(monkeypatch)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 32)
        wire = sealed_records(keys, sent, (10, 64, 30))
        wire[1] = wire[1][:-1] + bytes([wire[1][-1] ^ 1])
        send_and_hang_up(reader.sock, b"".join(wire))
        return keys, replies_until_abort(reader)

    keys, replies = serve_one(server, device_side)
    assert replies == [TYPE_ABORT]
    [problem] = lines.problems()
    assert problem.startswith("record_auth_failure ")
    assert stored_rows(server, keys.session_id.hex()) == as_rows(sent[:10])
    assert opened == [11 * 10 + 16, 11 * 64 + 16]


def test_a_timestamp_that_goes_back_inside_a_record_stores_the_readings_before_it(
        toy_pki, server, lines):
    sent = sensor_readings(33, 5 + 10 + 5)
    sent[9] = sent[9]._replace(timestamp_ms=sent[8].timestamp_ms - 1)  # 5th of record 2

    def device_side(reader):
        keys = handshake(reader, toy_pki, 33)
        send_and_hang_up(reader.sock, b"".join(sealed_records(keys, sent, (5, 10, 5))))
        return keys, replies_until_abort(reader)

    keys, replies = serve_one(server, device_side)
    assert replies == [TYPE_ABORT]
    [problem] = lines.problems()
    assert problem.startswith("session_fatal ") and "cause=MalformedReading" in problem
    assert stored_rows(server, keys.session_id.hex()) == as_rows(sent[:9])


@pytest.mark.parametrize("fault", ["bpm", "status"])
@pytest.mark.parametrize("j", [0, 5, 63])
def test_a_bad_reading_inside_a_record_stores_the_readings_before_it(
        toy_pki, server, lines, fault, j):
    sent = sensor_readings(35, 128)

    def device_side(reader):
        keys = handshake(reader, toy_pki, 35)
        tx = DirectionState(keys.c2s_key, keys.c2s_salt)
        second = bytearray(b"".join(reading_encode(r) for r in sent[64:]))
        if fault == "bpm":  # one past BPM_MAX, which the encoder refuses to write
            second[11 * j + 8 : 11 * j + 10] = (301).to_bytes(2, "big")
        else:
            second[11 * j + 10] = 9
        wire = [record_seal(tx, TYPE_DATA, b"".join(reading_encode(r) for r in sent[:64])),
                record_seal(tx, TYPE_DATA, bytes(second)), record_seal(tx, TYPE_CLOSE, b"")]
        send_and_hang_up(reader.sock, b"".join(f.encode() for f in wire))
        return keys, replies_until_abort(reader)

    keys, replies = serve_one(server, device_side)
    assert replies == [TYPE_ABORT]
    [problem] = lines.problems()
    assert problem.startswith("session_fatal ") and "cause=MalformedReading " in problem
    assert stored_rows(server, keys.session_id.hex()) == as_rows(sent[:64 + j])


def test_records_of_1_to_256_readings_are_stored_in_order(toy_pki, server, lines):
    sizes = (256, 1, 2, 255, 7)
    sent = sensor_readings(34, sum(sizes))

    def device_side(reader):
        keys = handshake(reader, toy_pki, 34)
        send_and_hang_up(reader.sock, b"".join(sealed_records(keys, sent, sizes)))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)
        return keys

    keys = serve_one(server, device_side)
    assert lines.problems() == []
    assert stored_rows(server, keys.session_id.hex()) == as_rows(sent)


def test_the_lines_of_a_1000_reading_session_have_the_reference_format(
        toy_pki, server, lines):
    # every field of every line, against the format written out here in full
    script = [ScriptSegment(100, 104, 20), ScriptSegment(500, 502, 250)]
    sent = sensor_readings(36, 1000, script)
    sent[3] = sent[3]._replace(status=1)  # off body
    sent[4] = sent[4]._replace(status=2)  # low confidence

    def device_side(reader):
        keys = handshake(reader, toy_pki, 36)
        send_and_hang_up(reader.sock, b"".join(sealed_records(keys, sent, [64] * 15 + [40])))
        with pytest.raises(EndOfStream):
            frame_read(reader, timeout=5.0)
        return keys

    before = int(time.time() * 1000)
    keys = serve_one(server, device_side)
    after = int(time.time() * 1000)
    assert [p.split()[0] for p in lines.problems()] == ["alert", "alert"]
    stored = (server.store.dir / "readings.log").read_text().splitlines()
    assert len(stored) == 1000
    subject = toy_pki.device_cred.subject_id.rstrip(b"\x00").decode()
    # no reading names a device: the lines name the authenticated subject's first 8 bytes
    device = toy_pki.device_cred.subject_id[:8].hex()
    for r, line in zip(sent, stored):
        head, received = line.rsplit("\t", 1)
        assert before <= int(received) <= after
        assert head == "\t".join([keys.session_id.hex(), subject, device,
                                  str(r.timestamp_ms), str(r.bpm),
                                  ("ok", "off_body", "low_confidence")[r.status]])
    assert (server.store.dir / "alerts.log").read_text().splitlines() == [
        f"{device}\tlow_hr\t100000\t102000\t20,20,20",
        f"{device}\thigh_hr\t500000\t502000\t250,250,250",
    ]
