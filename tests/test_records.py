"""Frame codec and record protection: framing errors, replay/reorder/drop."""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink import gcm
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
    MAGIC,
    MAX_BODY,
    MAX_READINGS_PER_RECORD,
    READ_CHUNK,
    TYPE_CLOSE,
    TYPE_DATA,
    VERSION,
    DirectionState,
    Frame,
    FrameReader,
    frame_read,
    frame_write,
    parse_header,
    record_open,
    record_seal,
)

from conftest import count_polls

KEY = bytes(range(16))
SALT = b"\x0a\x0b\x0c\x0d"


def socket_pair():
    a, b = socket.socketpair()
    return a, b


def test_frame_write_read_round_trip():
    a, b = socket_pair()
    frame_write(a, Frame(TYPE_DATA, b"hello frame"))
    got = frame_read(FrameReader(b), timeout=2.0)
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
        frame_read(FrameReader(b), timeout=1.0)
    b.close()
    a, b = socket_pair()
    with pytest.raises(FrameTimeout):
        frame_read(FrameReader(b), timeout=0.1)
    a.close(); b.close()


def test_mid_frame_eof_is_truncation():
    a, b = socket_pair()
    raw = Frame(TYPE_DATA, b"x" * 50).encode()
    a.sendall(raw[: HEADER_LEN + 10])
    a.close()
    with pytest.raises(EndOfStream):
        frame_read(FrameReader(b), timeout=1.0)
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
        frame_read(FrameReader(b), timeout=0.5)
    assert time.monotonic() - t0 < 1.0
    a.close(); b.close()
    sender.join(timeout=5.0)
    assert not sender.is_alive()


# ---------------------------------------------------------------------------
# One buffered reader per connection


class CountingSocket:
    """A real socket that counts the receive calls made on it."""

    def __init__(self, sock):
        self.sock = sock
        self.recvs = 0

    def fileno(self):
        return self.sock.fileno()

    def recv_into(self, buf, nbytes=0):
        self.recvs += 1
        return self.sock.recv_into(buf, nbytes)


class Segments:
    """Delivers `segments` one per receive call, then EOF; `poll` always
    sees it readable, so each read shows exactly which bytes were buffered."""

    def __init__(self, segments):
        self.segments = list(segments)
        self.recvs = 0
        self._ready, self._other = socket.socketpair()
        self._other.send(b"!")

    def fileno(self):
        return self._ready.fileno()

    def recv_into(self, buf, nbytes=0):
        self.recvs += 1
        seg = self.segments.pop(0) if self.segments else b""
        buf[: len(seg)] = seg
        return len(seg)

    def close(self):
        self._ready.close(); self._other.close()


FRAMES = [Frame(TYPE_DATA, bytes([i]) * (19 + 16)) for i in range(5)] + [Frame(TYPE_CLOSE, b"")]
WIRE = b"".join(f.encode() for f in FRAMES)


def test_frames_arriving_in_one_segment_cost_one_recv_and_one_poll(monkeypatch):
    polls = count_polls(monkeypatch)
    a, b = socket_pair()
    a.sendall(WIRE)
    counted = CountingSocket(b)
    reader = FrameReader(counted)
    assert [reader.read(timeout=2.0) for _ in FRAMES] == FRAMES
    assert counted.recvs == 1 and len(polls) == 1
    assert len(reader._buf) == 0
    a.close(); b.close()


def test_a_stream_split_at_any_byte_decodes_the_same():
    wire = FRAMES[0].encode() + FRAMES[-1].encode()
    for cut in range(len(wire) + 1):
        src = Segments([wire[:cut], wire[cut:]] if 0 < cut < len(wire) else [wire])
        reader = FrameReader(src)
        assert [reader.read(timeout=1.0), reader.read(timeout=1.0)] == [FRAMES[0], FRAMES[-1]]
        with pytest.raises(EndOfStream, match="at-boundary"):
            reader.read(timeout=1.0)
        src.close()


@pytest.mark.parametrize("kept", [1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 5])
def test_eof_is_at_boundary_only_with_nothing_buffered(kept):
    src = Segments([WIRE])
    reader = FrameReader(src)
    assert [reader.read(timeout=1.0) for _ in FRAMES] == FRAMES
    with pytest.raises(EndOfStream, match="at-boundary"):
        reader.read(timeout=1.0)
    src.close()

    partial = FRAMES[1].encode()[:kept]
    src = Segments([FRAMES[0].encode() + partial])
    reader = FrameReader(src)
    assert reader.read(timeout=1.0) == FRAMES[0]
    with pytest.raises(EndOfStream, match="mid-frame"):
        reader.read(timeout=1.0)
    src.close()


@pytest.mark.parametrize("header, error", [
    (b"\xa5\x5a\x01\x10" + (MAX_BODY + 1).to_bytes(4, "big"), OversizeFrame),
    (b"\x00\x00\x01\x10\x00\x00\x00\x05", BadMagic),
    (b"\xa5\x5a\x02\x10\x00\x00\x00\x05", BadVersion),
    (b"\xa5\x5a\x01\x77\x00\x00\x00\x05", MalformedFrame),
])
def test_a_bad_header_is_refused_before_its_body_arrives(header, error):
    # behind a good frame in the same segment: no further receive is made
    src = Segments([FRAMES[0].encode() + header])
    reader = FrameReader(src)
    assert reader.read(timeout=1.0) == FRAMES[0]
    with pytest.raises(error):
        reader.read(timeout=1.0)
    assert src.recvs == 1
    src.close()

    a, b = socket_pair()
    a.sendall(header)  # and no body ever follows
    t0 = time.monotonic()
    with pytest.raises(error):
        FrameReader(b).read(timeout=5.0)
    assert time.monotonic() - t0 < 1.0
    a.close(); b.close()


def test_the_largest_frame_arrives_in_one_receive():
    # the cap on readings per record keeps a whole frame within one chunk
    assert HEADER_LEN + MAX_BODY <= READ_CHUNK
    frame = Frame(TYPE_DATA, bytes(MAX_BODY))
    src = Segments([frame.encode()])
    assert FrameReader(src).read(timeout=1.0) == frame
    assert src.recvs == 1
    src.close()


def test_a_reader_holds_one_chunk_beyond_a_partial_frame():
    # enough of the largest frames that some straddle the reader's chunks
    bodies = [bytes([i]) * MAX_BODY for i in range(3 * READ_CHUNK // MAX_BODY)]
    wire = b"".join(Frame(TYPE_DATA, body).encode() for body in bodies)
    big = len(wire) // len(bodies)
    assert READ_CHUNK % big and len(wire) > 2 * READ_CHUNK
    a, b = socket_pair()
    sender = threading.Thread(target=a.sendall, args=(wire,))
    sender.start()
    reader = FrameReader(b)
    sizes = []
    real_fill = reader._fill

    def fill(deadline):
        real_fill(deadline)
        sizes.append(len(reader._buf))

    reader._fill = fill
    assert [reader.read(timeout=5.0).body for _ in bodies] == bodies
    assert max(sizes) <= big - 1 + READ_CHUNK
    sender.join(timeout=5.0)
    assert not sender.is_alive()
    a.close(); b.close()


def test_a_trickling_peer_cannot_stretch_a_readers_deadline():
    a, b = socket_pair()
    first, second = FRAMES[0].encode(), FRAMES[1].encode()

    def trickle():
        try:
            a.sendall(first + second[:1])
            for byte in second[1:]:
                time.sleep(0.05)
                a.send(bytes([byte]))
        except OSError:
            pass

    sender = threading.Thread(target=trickle)
    sender.start()
    reader = FrameReader(b)
    assert reader.read(timeout=0.5) == FRAMES[0]
    t0 = time.monotonic()
    with pytest.raises(FrameTimeout):
        reader.read(timeout=0.5)
    assert time.monotonic() - t0 < 1.0
    a.close(); b.close()
    sender.join(timeout=5.0)
    assert not sender.is_alive()


# ---------------------------------------------------------------------------
# AES work: each record runs its own blocks when it is sealed or opened


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
def test_every_one_reading_record_runs_its_own_three_blocks(readings, monkeypatch):
    counts = count_aes_blocks(monkeypatch)
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    for i in range(readings):
        frame = record_seal(tx, TYPE_DATA, bytes([i % 256]) * 19)
        assert record_open(rx, frame) == (TYPE_DATA, bytes([i % 256]) * 19)
    assert record_open(rx, record_seal(tx, TYPE_CLOSE, b"")) == (TYPE_CLOSE, b"")
    for d in (tx, rx):
        # H, then J0 and two counter blocks per reading and J0 for the Close
        assert counts[id(d.gcm_key.aes)] == [1 + 3 * readings + 1, 0]


def test_a_full_record_runs_j0_alone_and_its_counter_blocks_in_one_batch(monkeypatch):
    counts = count_aes_blocks(monkeypatch)
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    # 16 records of 64 readings, 76 counter blocks each, then one of 3 and one of 2
    for payload in [bytes([i]) * (19 * 64) for i in range(16)] + [bytes(33), bytes(32)]:
        assert record_open(rx, record_seal(tx, TYPE_DATA, payload)) == (TYPE_DATA, payload)
    for d in (tx, rx):
        # H, J0 per record and the short records' counter blocks one by one
        assert counts[id(d.gcm_key.aes)] == [1 + 18 + 3 + 2, 16 * 76]


@pytest.mark.parametrize("readings", [8, 9, 10])
def test_a_close_runs_only_its_j0_block(readings, monkeypatch):
    # 9 readings hash the 36 blocks a key hashes before its table, so the
    # Close that follows them builds it, and a 10th reading builds it first
    counts = count_aes_blocks(monkeypatch)
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    for i in range(readings):
        assert record_open(rx, record_seal(tx, TYPE_DATA, bytes([i]) * 19))[1] == bytes([i]) * 19
    before = {id(d.gcm_key.aes): list(counts[id(d.gcm_key.aes)]) for d in (tx, rx)}
    assert record_open(rx, record_seal(tx, TYPE_CLOSE, b"")) == (TYPE_CLOSE, b"")
    for d in (tx, rx):
        single, batched = before[id(d.gcm_key.aes)]
        assert counts[id(d.gcm_key.aes)] == [single + 1, batched]
        assert (d.gcm_key._tables is not None) == (readings >= 9)


def test_a_direction_builds_its_ghash_table_at_its_tenth_reading(monkeypatch):
    muls, builds = [], []
    real_mul, real_build = gcm.gf128_mul, gcm._ghash_tables

    def mul(x, y):
        muls.append(x)
        return real_mul(x, y)

    def build(h):
        builds.append(h)
        return real_build(h)

    monkeypatch.setattr(gcm, "gf128_mul", mul)
    monkeypatch.setattr(gcm, "_ghash_tables", build)
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    # a reading's GHASH is 4 blocks (its AAD, 2 of ciphertext and the
    # lengths), one gf128_mul each, on both sides: 9 readings hash the 36
    # blocks a key hashes before its table.
    for i in range(9):
        muls.clear()
        assert record_open(rx, record_seal(tx, TYPE_DATA, bytes([i]) * 19))[1] == bytes([i]) * 19
        assert len(muls) == 2 * 4
        assert builds == []
        assert tx.gcm_key._tables is None and rx.gcm_key._tables is None
    # the next record builds the table on each side, and every later one
    # uses that table
    muls.clear()
    for i in range(200):
        assert record_open(rx, record_seal(tx, TYPE_DATA, bytes([i]) * 19))[1] == bytes([i]) * 19
        if i == 0:
            assert len(builds) == 2
    assert muls == [] and len(builds) == 2
    assert tx.gcm_key._tables is not None and rx.gcm_key._tables is not None


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    salt=st.binary(min_size=4, max_size=4),
    records=st.lists(st.tuples(st.sampled_from([TYPE_DATA, TYPE_CLOSE]), st.binary(max_size=50)),
                     min_size=1, max_size=24),
)
def test_a_direction_seals_what_a_fresh_unprepared_key_per_record_seals(key, salt, records):
    # the oracle is the slow path: no batch, no table
    tx, rx = DirectionState(key, salt), DirectionState(key, salt)
    for seq, (frame_type, payload) in enumerate(records):
        frame = record_seal(tx, frame_type, payload)
        oracle = gcm.GcmKey(key)
        aad = MAGIC + bytes([VERSION, frame_type]) + seq.to_bytes(8, "big")
        assert frame.body == gcm.seal(oracle, salt + seq.to_bytes(8, "big"), aad, payload)
        assert oracle._tables is None
        assert record_open(rx, frame) == (frame_type, payload)


def test_a_direction_refuses_a_record_past_the_last_seq():
    start = 2**64 - 40
    tx, rx = DirectionState(KEY, SALT, seq=start), DirectionState(KEY, SALT, seq=start)
    for _ in range(39):
        record_open(rx, record_seal(tx, TYPE_DATA, b"near the end"))
    assert tx.seq == rx.seq == 2**64 - 1
    with pytest.raises(SequenceExhausted):
        record_seal(tx, TYPE_DATA, b"")
    with pytest.raises(SequenceExhausted):
        record_open(rx, Frame(TYPE_DATA, bytes(16)))


def test_a_direction_of_every_record_length_keeps_one_batch_size():
    # an authenticated peer may send one record of each length from 11 to
    # MAX_READINGS_PER_RECORD readings, each an `encrypt_blocks` batch of its
    # own size; the key keeps the broadcast round keys of the last size only
    tx, rx = DirectionState(KEY, SALT), DirectionState(KEY, SALT)
    for seq, readings in enumerate(range(11, MAX_READINGS_PER_RECORD + 1)):
        payload = bytes([readings % 256]) * (11 * readings)
        frame = record_seal(tx, TYPE_DATA, payload)
        aad = MAGIC + bytes([VERSION, TYPE_DATA]) + seq.to_bytes(8, "big")
        assert frame.body == gcm.seal(gcm.GcmKey(KEY), SALT + seq.to_bytes(8, "big"), aad, payload)
        assert record_open(rx, frame) == (TYPE_DATA, payload)
    for d in (tx, rx):
        assert list(d.gcm_key.aes._wide) == [(11 * MAX_READINGS_PER_RECORD + 15) // 16]


def test_a_zeroized_direction_keeps_no_broadcast_keys():
    tx = DirectionState(KEY, SALT)
    for _ in range(20):
        record_seal(tx, TYPE_DATA, bytes(11 * 11))  # 8 counter blocks, one batch
    assert tx.gcm_key.aes._wide
    tx.zeroize()
    assert tx.gcm_key.aes._wide == {}
    assert tx.gcm_key._tables is None
