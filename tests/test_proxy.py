"""Tamper proxy: pure fault transforms plus end-to-end fault injection."""

import logging
import socket
import threading
import time

import pytest

from vitalink.endpoints import DeviceConfig, IngestionServer, ServerConfig, run_device
from vitalink.errors import EndOfStream
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


def test_relay_carries_a_late_abort_after_the_device_half_closes():
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    relay = threading.Thread(target=Relay(client, upstream, TamperPlan(), []).run)
    relay.start()
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
        relay.join(timeout=5.0)
        assert not relay.is_alive()
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
    relay = threading.Thread(
        target=Relay(client, upstream, TamperPlan(mode, target_index=idx, bit_offset=13),
                     []).run)
    relay.start()
    try:
        device.sendall(_wire([HELLO, FINISH, *DATA, CLOSE]))
        device.shutdown(socket.SHUT_WR)
        server.sendall(_wire(S2C))
        server.shutdown(socket.SHUT_WR)
        assert _recv_all(server) == _expected_upstream(mode, idx)
        assert _recv_all(device) == _wire(S2C)  # s2c frames pass untouched
        relay.join(timeout=5.0)
        assert not relay.is_alive()
    finally:
        device.close()
        server.close()


def test_frame_lines_go_to_the_proxy_logger_not_stdout(caplog, capsys):
    caplog.set_level(logging.INFO, logger="vitalink.proxy")
    device, client = socket.socketpair()
    upstream, server = socket.socketpair()
    report = []
    relay = threading.Thread(
        target=Relay(client, upstream, TamperPlan("drop_frame", target_index=1), report).run)
    relay.start()
    try:
        device.sendall(_wire([HELLO, *DATA[:2]]))
        device.shutdown(socket.SHUT_WR)
        server.shutdown(socket.SHUT_WR)
        _recv_all(server)
        relay.join(timeout=5.0)
        assert not relay.is_alive()
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


@pytest.fixture()
def stack(pki, tmp_path):
    pki.write_files(tmp_path)
    cfg = ServerConfig(
        key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    )
    srv = IngestionServer(cfg)
    srv.start()
    yield srv, tmp_path
    srv.stop()


def run_through_proxy(srv, files, plan, count=8):
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
    report, notes = run_through_proxy(srv, files, plan)
    # the server must detect the flip: only the pre-fault frames persist
    # (whether the device observes the Abort in time is a race we don't pin)
    assert len(persisted(srv)) == 3
    assert any("fault=flip_tag_bit" in n for n in notes)


def test_forged_handshake_rejected_before_any_data(stack):
    srv, files = stack
    report, _ = run_through_proxy(srv, files, TamperPlan("forge_handshake"))
    assert report.error is not None
    assert "BadServerCredential" in report.error
    assert persisted(srv) == []
