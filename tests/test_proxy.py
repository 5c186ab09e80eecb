"""Tamper proxy: pure fault transforms plus end-to-end fault injection."""

import logging
import socket
import time

import pytest

from vitalink import records
from vitalink.endpoints import (MAX_READINGS_PER_RECORD, DeviceConfig, IngestionServer,
                                ServerConfig, run_device)
from vitalink.errors import EndOfStream
from vitalink.listener import Listener
from vitalink.proxy import MODES, Relay, TamperPlan, TamperProxy, apply_tamper
from vitalink.records import (TYPE_ABORT, TYPE_CLIENT_FINISH, TYPE_CLIENT_HELLO, TYPE_CLOSE,
                              TYPE_DATA, TYPE_SERVER_HELLO, Frame, FrameReader, frame_read,
                              frame_write)

BODY = bytes(range(48))  # pretend ciphertext (32) + tag (16)
FRAME = Frame(TYPE_DATA, BODY)


def test_plan_validation():
    TamperPlan("passthrough")
    with pytest.raises(ValueError):
        TamperPlan("explode")
    with pytest.raises(ValueError):
        TamperPlan("drop_frame", target_index=-1)


def test_passthrough_sends_the_frame_as_it_came():
    assert apply_tamper(TamperPlan("passthrough"), FRAME) == FRAME.encode()


def _body_sent(plan):
    out = apply_tamper(plan, FRAME)
    assert out[:8] == FRAME.encode()[:8]  # the header is untouched
    return out[8:]


def test_flip_ciphertext_bit_changes_exactly_one_bit_in_ct():
    body = _body_sent(TamperPlan("flip_ciphertext_bit", target_index=0, bit_offset=13))
    diff = [i for i in range(len(BODY)) if body[i] != BODY[i]]
    assert len(diff) == 1 and diff[0] < len(BODY) - 16
    assert bin(body[diff[0]] ^ BODY[diff[0]]).count("1") == 1


def test_flip_tag_bit_lands_in_tag():
    for off in (0, 64, 127, 500):
        body = _body_sent(TamperPlan("flip_tag_bit", target_index=0, bit_offset=off))
        diff = [i for i in range(len(BODY)) if body[i] != BODY[i]]
        assert len(diff) == 1 and diff[0] >= len(BODY) - 16


@pytest.mark.parametrize("mode", ["flip_ciphertext_bit", "flip_tag_bit"])
def test_a_bit_flip_relays_an_empty_data_body_unchanged(mode):
    # nothing to flip; the receiver rejects a body shorter than a tag
    empty = Frame(TYPE_DATA, b"")
    assert apply_tamper(TamperPlan(mode, bit_offset=13), empty) == empty.encode()


def test_replay_drop_reorder_truncate_outputs():
    raw = FRAME.encode()
    assert apply_tamper(TamperPlan("replay_frame"), FRAME) == raw + raw
    assert apply_tamper(TamperPlan("drop_frame"), FRAME) == b""
    assert apply_tamper(TamperPlan("reorder_pair"), FRAME) == b""  # the relay holds it
    assert apply_tamper(TamperPlan("truncate_stream"), FRAME) == raw[: 8 + len(BODY) // 2]


def test_modes_registry_is_complete():
    assert set(MODES) == {
        "passthrough", "flip_ciphertext_bit", "flip_tag_bit", "replay_frame",
        "reorder_pair", "drop_frame", "truncate_stream", "forge_handshake",
    }


def relay_on_a_loop(client, upstream, plan, report):
    """Serves a `Relay` between two sockets on a `Listener` loop of its own;
    returns a function that waits for the relay to close both, stops the
    loop, and says whether the relay had closed them."""
    loop = Listener("127.0.0.1", 0, lambda conn: conn.state.pump(conn))
    Relay(loop.attach(client, ("device", 0)), loop.attach(upstream, ("server", 0)), plan,
          report)
    loop.start()

    def finish():
        deadline = time.monotonic() + 5.0
        while (client.fileno(), upstream.fileno()) != (-1, -1):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        loop.stop()
        return (client.fileno(), upstream.fileno()) == (-1, -1)

    return finish


def test_relay_carries_a_late_abort_after_the_device_half_closes():
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    finish = relay_on_a_loop(client, upstream, TamperPlan(), [])
    try:
        frame_write(device, FRAME)
        device.shutdown(socket.SHUT_WR)
        from_device = FrameReader(server)
        assert frame_read(from_device, timeout=2.0) == FRAME
        with pytest.raises(EndOfStream):
            frame_read(from_device, timeout=2.0)  # the half-close reached the server
        time.sleep(0.3)
        frame_write(server, Frame(TYPE_ABORT, b""))
        server.close()
        assert frame_read(FrameReader(device), timeout=2.0).frame_type == TYPE_ABORT
        assert finish()
    finally:
        device.close()
        server.close()


# --- the relay's output, frame by frame --------------------------------------

HELLO = Frame(TYPE_CLIENT_HELLO, b"client hello")
FINISH = Frame(TYPE_CLIENT_FINISH, b"client finish")
# 19 B of "ciphertext" and a 16 B "tag", distinct per frame
DATA = [Frame(TYPE_DATA, bytes([i]) * 19 + bytes([0x80 | i]) * 16) for i in range(8)]
CLOSE = Frame(TYPE_CLOSE, b"\xcc" * 16)
S2C = [Frame(TYPE_SERVER_HELLO, b"server hello"), Frame(TYPE_ABORT, b"")]


def _xor_byte(frame, at, mask):
    body = bytearray(frame.body)
    body[at] ^= mask
    return Frame(frame.frame_type, bytes(body))


def _wire(frames):
    return b"".join(f.encode() for f in frames)


def _expected_upstream(mode, idx):
    """The bytes the server must see for a c2s plan, written out per mode."""
    frames = [HELLO, FINISH, *DATA, CLOSE]
    at, target = 2 + idx, DATA[idx]
    if mode == "flip_ciphertext_bit":  # bit 13: byte 1, mask 0x04
        frames[at] = _xor_byte(target, 1, 0x04)
    elif mode == "flip_tag_bit":  # bit 13 of the 16 B tag
        frames[at] = _xor_byte(target, len(target.body) - 16 + 1, 0x04)
    elif mode == "replay_frame":
        frames.insert(at, target)
    elif mode == "drop_frame":
        del frames[at]
    elif mode == "reorder_pair":  # after the last Data frame, the Close goes first
        frames[at], frames[at + 1] = frames[at + 1], target
    elif mode == "truncate_stream":  # the header and half the body, then EOF
        return _wire(frames[:at]) + target.encode()[: 8 + len(target.body) // 2]
    return _wire(frames)


def _recv_all(sock):
    sock.settimeout(5.0)
    out = bytearray()
    while chunk := sock.recv(4096):
        out += chunk
    return bytes(out)


C2S_MODES = [m for m in MODES if m != "forge_handshake"]


@pytest.mark.parametrize("idx", (0, 1, 7))
@pytest.mark.parametrize("mode", C2S_MODES)
def test_the_relay_sends_upstream_exactly_the_planned_frames(mode, idx):
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    finish = relay_on_a_loop(client, upstream,
                             TamperPlan(mode, target_index=idx, bit_offset=13), [])
    try:
        device.sendall(_wire([HELLO, FINISH, *DATA, CLOSE]))
        device.shutdown(socket.SHUT_WR)
        server.sendall(_wire(S2C))
        server.shutdown(socket.SHUT_WR)
        assert _recv_all(server) == _expected_upstream(mode, idx)
        assert _recv_all(device) == _wire(S2C)  # s2c frames pass untouched
        assert finish()
    finally:
        device.close()
        server.close()


def test_a_held_frame_goes_upstream_even_if_a_server_frame_comes_first():
    # both directions share one relay; reorder_pair's held frame is the device's
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    finish = relay_on_a_loop(client, upstream, TamperPlan("reorder_pair", target_index=0), [])
    try:
        device.sendall(_wire([HELLO, FINISH, DATA[0]]))
        server.settimeout(5.0)
        before = _wire([HELLO, FINISH])  # DATA[0] is held
        assert b"".join(server.recv(1) for _ in before) == before
        server.sendall(_wire(S2C))
        server.shutdown(socket.SHUT_WR)
        assert _recv_all(device) == _wire(S2C)
        device.sendall(_wire([DATA[1], CLOSE]))
        device.shutdown(socket.SHUT_WR)
        assert _recv_all(server) == _wire([DATA[1], DATA[0], CLOSE])
        assert finish()
    finally:
        device.close()
        server.close()


def test_frame_lines_go_to_the_proxy_logger_not_stdout(caplog, capsys):
    caplog.set_level(logging.INFO, logger="vitalink.proxy")
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    report = []
    finish = relay_on_a_loop(client, upstream, TamperPlan("drop_frame", target_index=1),
                             report)
    try:
        device.sendall(_wire([HELLO, *DATA[:2]]))
        device.shutdown(socket.SHUT_WR)
        server.shutdown(socket.SHUT_WR)
        _recv_all(server)
        assert finish()
    finally:
        device.close()
        server.close()
    lines = [r.getMessage() for r in caplog.records if r.name == "vitalink.proxy"]
    assert lines == report == [
        "frame dir=c2s type=0x01 len=12 fault=none",
        "frame dir=c2s type=0x10 len=35 fault=none",
        "frame dir=c2s type=0x10 len=35 fault=drop_frame",
    ]
    assert capsys.readouterr().out == ""


# --- end to end -----------------------------------------------------------


def start_server(files):
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(files / "store"),
    ))
    srv.start()
    return srv


@pytest.fixture()
def stack(pki, tmp_path):
    pki.write_files(tmp_path)
    srv = start_server(tmp_path)
    yield srv, tmp_path
    srv.stop()


def run_through_proxy(srv, files, plan, count=8, **device):
    proxy = TamperProxy("127.0.0.1", 0, "127.0.0.1", srv.port, plan)
    proxy.start()
    try:
        cfg = DeviceConfig(
            server_port=proxy.port,
            key_path=str(files / "device.vlk"),
            cred_path=str(files / "device.vlc"),
            root_path=str(files / "root.vlc"),
            count=count,
            seed=3,
            start_ms=1_000_000,
            **device,
        )
        report = run_device(cfg)
    finally:
        proxy.stop()
    return report, proxy.report


def persisted(srv):
    path = srv.store.dir / "readings.log"
    return path.read_text().splitlines() if path.exists() else []


def test_passthrough_proxy_preserves_fidelity(stack):
    srv, files = stack
    report, notes = run_through_proxy(srv, files, TamperPlan("passthrough"))
    assert report.error is None and report.sent_count == 8
    assert len(persisted(srv)) == 8
    assert all("fault=none" in n for n in notes)


def test_tag_flip_detected_and_stream_cut(stack):
    srv, files = stack
    plan = TamperPlan("flip_tag_bit", target_index=3)
    # Data records of 64, 64, 64, 64 and 1 readings
    report, notes = run_through_proxy(srv, files, plan, count=4 * MAX_READINGS_PER_RECORD + 1)
    # the server must detect the flip: only the pre-fault records' readings
    # persist (whether the device observes the Abort in time is a race we
    # don't pin)
    assert len(persisted(srv)) == 3 * MAX_READINGS_PER_RECORD
    assert any("fault=flip_tag_bit" in n for n in notes)


def test_a_silent_server_direction_outlasts_one_read_timeout_while_the_device_sends(
        toy_pki, tmp_path, monkeypatch):
    # a server sends nothing between its NewTicket and its hang-up; were that
    # direction cut one read timeout after the NewTicket, the device would
    # take the early FIN for the hang-up and never see the server's Abort
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 0.5)
    srv = start_server(tmp_path)
    try:
        report, notes = run_through_proxy(srv, tmp_path, TamperPlan("flip_tag_bit",
                                                                    target_index=14),
                                          count=15, realtime=True, interval_ms=100)
    finally:
        srv.stop()
    assert report.sent_count == 15 and report.duration_s > 1.0  # well past one timeout
    assert report.error == "ConnectionAborted: server aborted the session"
    assert len(persisted(srv)) == 14
    assert "frame dir=s2c type=0x1f len=0 fault=none" in notes


def test_forged_handshake_rejected_before_any_data(stack):
    srv, files = stack
    report, _ = run_through_proxy(srv, files, TamperPlan("forge_handshake"))
    assert report.error is not None
    assert "BadServerCredential" in report.error
    assert persisted(srv) == []
