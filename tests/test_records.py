"""Frame codec and record protection: framing errors, replay/reorder/drop."""

import socket
import threading
import time

import pytest

from vitalink.errors import (
    AuthFailure,
    BadMagic,
    BadVersion,
    EndOfStream,
    FrameTimeout,
    MalformedFrame,
    OversizeFrame,
    SequenceExhausted,
)
from vitalink.records import (
    HEADER_LEN,
    MAX_BODY,
    TYPE_CLOSE,
    TYPE_DATA,
    DirectionState,
    Frame,
    frame_read,
    frame_write,
    parse_header,
    record_open,
    record_seal,
)

KEY = bytes(range(16))
SALT = b"\x0a\x0b\x0c\x0d"


def socket_pair():
    a, b = socket.socketpair()
    return a, b


def test_frame_write_read_round_trip():
    a, b = socket_pair()
    frame_write(a, Frame(TYPE_DATA, b"hello frame"))
    got = frame_read(b, timeout=2.0)
    assert got == Frame(TYPE_DATA, b"hello frame")
    a.close(); b.close()


def test_bad_magic_and_version_rejected():
    with pytest.raises(BadMagic):
        parse_header(b"\x00\x00\x01\x10\x00\x00\x00\x00")
    with pytest.raises(BadVersion):
        parse_header(b"\xa5\x5a\x02\x10\x00\x00\x00\x00")
    with pytest.raises(MalformedFrame):
        parse_header(b"\xa5\x5a\x01\x77\x00\x00\x00\x00")


def test_oversize_declared_length_rejected_before_body():
    hdr = b"\xa5\x5a\x01\x10" + (2**31).to_bytes(4, "big")
    with pytest.raises(OversizeFrame):
        parse_header(hdr)


def test_eof_and_timeout():
    a, b = socket_pair()
    a.close()
    with pytest.raises(EndOfStream):
        frame_read(b, timeout=1.0)
    b.close()
    a, b = socket_pair()
    with pytest.raises(FrameTimeout):
        frame_read(b, timeout=0.1)
    a.close(); b.close()


def test_mid_frame_eof_is_truncation():
    a, b = socket_pair()
    raw = Frame(TYPE_DATA, b"x" * 50).encode()
    a.sendall(raw[: HEADER_LEN + 10])
    a.close()
    with pytest.raises(EndOfStream):
        frame_read(b, timeout=1.0)
    b.close()


def test_seal_open_round_trip_and_lengths():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    for i in range(5):
        payload = bytes([i]) * 19
        frame = record_seal(tx, TYPE_DATA, payload)
        assert len(frame.body) == len(payload) + 16
        assert record_open(rx, frame) == (TYPE_DATA, payload)
    assert tx.seq == rx.seq == 5


def test_identical_payloads_get_distinct_ciphertexts():
    tx = DirectionState(KEY, SALT)
    f1 = record_seal(tx, TYPE_DATA, b"same")
    f2 = record_seal(tx, TYPE_DATA, b"same")
    assert f1.body != f2.body


def test_replay_is_rejected():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    frame = record_seal(tx, TYPE_DATA, b"once")
    assert record_open(rx, frame)[1] == b"once"
    with pytest.raises(AuthFailure):
        record_open(rx, frame)


def test_reorder_is_rejected():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    f0 = record_seal(tx, TYPE_DATA, b"first")
    f1 = record_seal(tx, TYPE_DATA, b"second")
    with pytest.raises(AuthFailure):
        record_open(rx, f1)


def test_dropped_frame_breaks_the_stream():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    record_seal(tx, TYPE_DATA, b"lost in transit")
    f1 = record_seal(tx, TYPE_DATA, b"arrives")
    with pytest.raises(AuthFailure):
        record_open(rx, f1)


def test_frame_type_is_authenticated():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    frame = record_seal(tx, TYPE_DATA, b"payload")
    with pytest.raises(AuthFailure):
        record_open(rx, Frame(TYPE_CLOSE, frame.body))


def test_counter_does_not_advance_on_failure():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    frame = record_seal(tx, TYPE_DATA, b"ok")
    bad = Frame(TYPE_DATA, frame.body[:-1] + bytes([frame.body[-1] ^ 1]))
    with pytest.raises(AuthFailure):
        record_open(rx, bad)
    assert rx.seq == 0
    assert record_open(rx, frame) == (TYPE_DATA, b"ok")


def test_sequence_exhaustion():
    tx = DirectionState(KEY, SALT, seq=2**64 - 1)
    with pytest.raises(SequenceExhausted):
        record_seal(tx, TYPE_DATA, b"")


def test_oversize_body_refused_on_encode():
    with pytest.raises(OversizeFrame):
        Frame(TYPE_DATA, b"\x00" * (MAX_BODY + 1)).encode()


def test_zeroize():
    d = DirectionState(KEY, SALT)
    d.zeroize()
    assert d.key == b"\x00" * 16 and d.salt == b"\x00" * 4


def test_a_zeroized_direction_can_no_longer_seal_or_open():
    tx = DirectionState(KEY, SALT)
    rx = DirectionState(KEY, SALT)
    frame = record_seal(tx, TYPE_DATA, b"reading")
    tx.zeroize()
    rx.zeroize()
    with pytest.raises(ValueError):
        record_seal(tx, TYPE_DATA, b"reading")
    with pytest.raises(ValueError):
        record_open(rx, frame)
    assert rx.seq == 0


def test_a_trickling_peer_cannot_stretch_the_frame_deadline():
    a, b = socket_pair()
    raw = Frame(TYPE_DATA, b"x" * 50).encode()

    def trickle():
        try:
            for byte in raw:
                a.send(bytes([byte]))
                time.sleep(0.05)
        except OSError:
            pass

    sender = threading.Thread(target=trickle)
    sender.start()
    t0 = time.monotonic()
    with pytest.raises(FrameTimeout):
        frame_read(b, timeout=0.5)
    assert time.monotonic() - t0 < 1.0
    a.close(); b.close()
    sender.join(timeout=5.0)
    assert not sender.is_alive()


# ---------------------------------------------------------------------------
# Keystream prepared ahead: when a direction batches, and how far


def count_aes_blocks(monkeypatch):
    """Blocks run one at a time and in batches, per `gcm.Aes128`."""
    from vitalink import gcm

    counts = {}
    single, batch = gcm.Aes128.encrypt_block, gcm.Aes128.encrypt_blocks

    def one(self, block):
        counts.setdefault(id(self), [0, 0])[0] += 1
        return single(self, block)

    def many(self, blocks):
        counts.setdefault(id(self), [0, 0])[1] += len(blocks) // 16
        return batch(self, blocks)

    monkeypatch.setattr(gcm.Aes128, "encrypt_block", one)
    monkeypatch.setattr(gcm.Aes128, "encrypt_blocks", many)
    return counts


@pytest.mark.parametrize("readings", [1, 2, 10, 1000])
def test_only_long_sessions_batch_and_none_leaves_a_batch_unused(readings, monkeypatch):
    from vitalink.records import _BATCH_RECORDS, _RECORDS_BEFORE_BATCH

    counts = count_aes_blocks(monkeypatch)
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    for i in range(readings):
        frame = record_seal(tx, TYPE_DATA, bytes([i % 256]) * 19)
        assert record_open(rx, frame) == (TYPE_DATA, bytes([i % 256]) * 19)
    assert record_open(rx, record_seal(tx, TYPE_CLOSE, b"")) == (TYPE_CLOSE, b"")
    records = readings + 1
    for d in (tx, rx):
        single, batched = counts[id(d.gcm_key.aes)]
        unused = len(d.gcm_key._prepared)
        if records <= _RECORDS_BEFORE_BATCH:
            # H, then J0 and two counter blocks per reading and J0 for the Close
            assert (single, batched) == (1 + 3 * readings + 1, 0)
        else:
            # the allowance runs block by block, every later record is prepared
            assert single == 1 + 3 * _RECORDS_BEFORE_BATCH
            assert batched == 3 * (records - _RECORDS_BEFORE_BATCH + unused)
            assert unused < _BATCH_RECORDS


def test_a_direction_near_the_end_prepares_nothing_past_the_last_seq(monkeypatch):
    from vitalink import gcm

    prepared = []
    real = gcm.GcmKey.prepare

    def recording(self, nonces):
        prepared.extend(int.from_bytes(n[4:], "big") for n in nonces)
        return real(self, nonces)

    monkeypatch.setattr(gcm.GcmKey, "prepare", recording)
    start = 2**64 - 40
    tx, rx = DirectionState(KEY, SALT, seq=start), DirectionState(KEY, SALT, seq=start)
    for _ in range(39):
        record_open(rx, record_seal(tx, TYPE_DATA, b"near the end"))
    assert tx.seq == rx.seq == 2**64 - 1
    assert prepared and max(prepared) == 2**64 - 2
    with pytest.raises(SequenceExhausted):
        record_seal(tx, TYPE_DATA, b"")
    with pytest.raises(SequenceExhausted):
        record_open(rx, Frame(TYPE_DATA, bytes(16)))


def test_a_zeroized_direction_keeps_no_prepared_keystream():
    tx = DirectionState(KEY, SALT)
    for _ in range(20):
        record_seal(tx, TYPE_DATA, b"reading")
    assert tx.gcm_key._prepared and tx.gcm_key.aes._wide
    tx.zeroize()
    assert tx.gcm_key._prepared == {} and tx.gcm_key.aes._wide == {}
