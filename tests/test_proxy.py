"""Tamper proxy: pure fault transforms plus end-to-end fault injection."""

import socket
import threading
import time

import pytest

from vitalink.endpoints import DeviceConfig, IngestionServer, ServerConfig, run_device
from vitalink.errors import EndOfStream
from vitalink.proxy import MODES, TRUNCATE, Relay, TamperPlan, TamperProxy, apply_tamper
from vitalink.records import TYPE_ABORT, TYPE_CLOSE, TYPE_DATA, Frame, frame_read, frame_write

BODY = bytes(range(48))  # pretend ciphertext (32) + tag (16)
FRAME = Frame(TYPE_DATA, BODY)


def test_plan_validation():
    TamperPlan("passthrough")
    with pytest.raises(ValueError):
        TamperPlan("explode")
    with pytest.raises(ValueError):
        TamperPlan("drop_frame", target_index=-1)
    with pytest.raises(ValueError):
        TamperPlan("drop_frame", direction="up")


def test_passthrough_and_non_target_frames_are_identity():
    plan = TamperPlan("flip_tag_bit", target_index=3)
    assert apply_tamper(TamperPlan("passthrough"), FRAME, 3, "c2s") == [FRAME]
    assert apply_tamper(plan, FRAME, 2, "c2s") == [FRAME]  # wrong index
    assert apply_tamper(plan, FRAME, 3, "s2c") == [FRAME]  # wrong direction
    close = Frame(TYPE_CLOSE, BODY)
    assert apply_tamper(plan, close, 3, "c2s") == [close]  # wrong type


def test_flip_ciphertext_bit_changes_exactly_one_bit_in_ct():
    plan = TamperPlan("flip_ciphertext_bit", target_index=0, bit_offset=13)
    (out,) = apply_tamper(plan, FRAME, 0, "c2s")
    diff = [i for i in range(len(BODY)) if out.body[i] != BODY[i]]
    assert len(diff) == 1 and diff[0] < len(BODY) - 16
    assert bin(out.body[diff[0]] ^ BODY[diff[0]]).count("1") == 1


def test_flip_tag_bit_lands_in_tag():
    for off in (0, 64, 127, 500):
        plan = TamperPlan("flip_tag_bit", target_index=0, bit_offset=off)
        (out,) = apply_tamper(plan, FRAME, 0, "c2s")
        diff = [i for i in range(len(BODY)) if out.body[i] != BODY[i]]
        assert len(diff) == 1 and diff[0] >= len(BODY) - 16


def test_replay_drop_truncate_outputs():
    assert apply_tamper(TamperPlan("replay_frame"), FRAME, 0, "c2s") == [FRAME, FRAME]
    assert apply_tamper(TamperPlan("drop_frame"), FRAME, 0, "c2s") == []
    assert apply_tamper(TamperPlan("truncate_stream"), FRAME, 0, "c2s") == [TRUNCATE]


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
        assert frame_read(server, timeout=2.0) == FRAME
        with pytest.raises(EndOfStream):
            frame_read(server, timeout=2.0)  # the half-close reached the server
        time.sleep(0.3)
        frame_write(server, Frame(TYPE_ABORT, b""))
        server.close()
        assert frame_read(device, timeout=2.0).frame_type == TYPE_ABORT
        relay.join(timeout=5.0)
        assert not relay.is_alive()
    finally:
        device.close()
        server.close()


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
    plan = TamperPlan("flip_tag_bit", target_index=3, direction="c2s")
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
