"""Post-handshake framing, frame I/O, and per-direction record protection.

Frame layout (bit-exact): magic(2, A5 5A) || version(1, 01) ||
frame_type(1) || length(BE32) || body. Data and Close bodies are
ciphertext || tag(16). Sequence numbers are implicit: never on the wire,
but bound into the AAD, so replay, reorder, and drop all surface as a
tag failure at the receiver. Tag failure is unconditionally fatal.

Frame I/O: each connection reads through one `FrameReader`, kept from its
first frame to its last, since a peer may send a ClientFinish and the
first records in one segment. While a whole frame is buffered, `read`
returns it with no syscall; otherwise it waits with `poll` and takes
what has arrived, up to `READ_CHUNK`, with one `recv_into` into a buffer
it reuses, so a burst of frames costs one `poll` and one `recv_into`
instead of two of each per frame. Its one poll object is registered when
it is made, and takes a descriptor of any number, where `select` refuses
one of 1024 or more. A header is checked (magic, version, type, length
bound) as soon as its 8 bytes are buffered, before any body is awaited. Every read has an absolute deadline from its call,
so a peer trickling bytes cannot stretch it. A stream that ends with
nothing buffered ends "at-boundary"; one that ends inside a frame ends
"mid-frame", the classic truncation.
"""

from __future__ import annotations

import select
import socket
import struct
from time import monotonic
from typing import NamedTuple

from . import gcm, telemetry
from .errors import (
    BadMagic,
    BadVersion,
    EndOfStream,
    FrameTimeout,
    MalformedFrame,
    OversizeFrame,
    SequenceExhausted,
)

MAGIC = b"\xa5\x5a"
VERSION = 0x01
HEADER_LEN = 8
READ_TIMEOUT_S = 10.0
# about 117 one-reading frames of 35 bytes, or one whole frame of the largest,
# 256 readings (2840 bytes); 64 KiB read no faster per frame and raised the
# server's peak RSS by about 11% on the benchmark's reject_mix workload
READ_CHUNK = 4 * 1024
_LAST_SEQ = 2**64 - 2

TYPE_CLIENT_HELLO = 0x01
TYPE_SERVER_HELLO = 0x02
TYPE_CLIENT_FINISH = 0x03
TYPE_NEW_TICKET = 0x04
TYPE_DATA = 0x10
TYPE_CLOSE = 0x11
TYPE_ABORT = 0x1F

FRAME_TYPES = {
    TYPE_CLIENT_HELLO,
    TYPE_SERVER_HELLO,
    TYPE_CLIENT_FINISH,
    TYPE_NEW_TICKET,
    TYPE_DATA,
    TYPE_CLOSE,
    TYPE_ABORT,
}

MAX_READINGS_PER_RECORD = 256
# the only records a device sends, as (type, body length): a Data record of
# 1 to MAX_READINGS_PER_RECORD sealed readings, and an empty Close
RECORD_BODIES = {(TYPE_CLOSE, gcm.TAG_LEN)} | {(TYPE_DATA, j * telemetry.READING_LEN + gcm.TAG_LEN)
                                               for j in range(1, MAX_READINGS_PER_RECORD + 1)}
# the largest body the protocol sends, 2832 bytes; the largest handshake
# body, a P-256 ServerHello, is 444
MAX_BODY = max(length for _, length in RECORD_BODIES)


class Frame(NamedTuple):
    frame_type: int
    body: bytes

    def encode(self) -> bytes:
        if len(self.body) > MAX_BODY:
            raise OversizeFrame(f"body of {len(self.body)} bytes")
        return MAGIC + bytes([VERSION, self.frame_type]) + struct.pack(
            ">I", len(self.body)
        ) + self.body


def parse_header(header: bytes) -> tuple[int, int]:
    """Returns (frame_type, body_length); raises before any body is buffered."""
    if len(header) != HEADER_LEN:
        raise MalformedFrame("short header")
    if header[:2] != MAGIC:
        raise BadMagic(header[:2].hex())
    if header[2] != VERSION:
        raise BadVersion(f"0x{header[2]:02x}")
    frame_type = header[3]
    if frame_type not in FRAME_TYPES:
        raise MalformedFrame(f"unknown frame type 0x{frame_type:02x}")
    (length,) = struct.unpack(">I", header[4:8])
    if length > MAX_BODY:
        raise OversizeFrame(str(length))
    return frame_type, length


class DirectionState:
    """One direction's key, nonce salt, and sequence counter.

    Owned by exactly one sender or one receiver; the counter doubles as
    send_seq or recv_seq depending on which side holds it. Its one
    `gcm.GcmKey` serves every record of the direction and runs each
    record's AES blocks when it is sealed or opened. It has no repr of its
    fields, which are secrets.
    """

    __slots__ = ("key", "salt", "seq", "gcm_key")

    def __init__(self, key: bytes, salt: bytes, seq: int = 0):
        self.key, self.salt, self.seq = key, salt, seq
        self.gcm_key = gcm.GcmKey(key)

    def _next_nonce(self) -> bytes:
        """The nonce of the record at `seq`."""
        if self.seq > _LAST_SEQ:
            raise SequenceExhausted()
        return self.salt + self.seq.to_bytes(8, "big")

    def zeroize(self) -> None:
        self.key = b"\x00" * 16
        self.salt = b"\x00" * 4
        self.gcm_key.zeroize()


def _aad(frame_type: int, seq: int) -> bytes:
    return MAGIC + bytes([VERSION, frame_type]) + seq.to_bytes(8, "big")


def record_seal(direction: DirectionState, frame_type: int, payload: bytes) -> Frame:
    nonce = direction._next_nonce()
    body = gcm.seal(direction.gcm_key, nonce, _aad(frame_type, direction.seq), payload)
    direction.seq += 1
    return Frame(frame_type, body)


def record_open(direction: DirectionState, frame: Frame) -> tuple[int, bytes]:
    """Opens a protected frame at the expected sequence number.

    Any failure is fatal to the connection: the caller must emit Abort,
    zeroize, and close. The counter only advances on success, so a
    tampered record can never be retried into acceptance.
    """
    nonce = direction._next_nonce()
    payload = gcm.open_(
        direction.gcm_key, nonce, _aad(frame.frame_type, direction.seq), frame.body
    )
    direction.seq += 1
    return frame.frame_type, payload


class FrameReader:
    """One connection's inbound frames (see the module docstring).

    It receives into one reused buffer of `READ_CHUNK` bytes, so it holds
    at most one chunk beyond a partial frame: under `READ_CHUNK` +
    `MAX_BODY` + `HEADER_LEN` bytes.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()
        self._chunk = memoryview(bytearray(READ_CHUNK))
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def read(self, timeout: float | None = None) -> Frame:
        """The next frame, which must be whole within `timeout` seconds of
        the call, `READ_TIMEOUT_S` as it stands then if not given: a peer
        trickling bytes cannot stretch it."""
        deadline = monotonic() + (READ_TIMEOUT_S if timeout is None else timeout)
        buf = self._buf
        while True:
            end = HEADER_LEN
            if len(buf) >= HEADER_LEN:
                # refuses a bad header before any of its body is awaited
                frame_type, length = parse_header(buf[:HEADER_LEN])
                end += length
                if len(buf) >= end:
                    body = bytes(buf[HEADER_LEN:end])
                    del buf[:end]
                    return Frame(frame_type, body)
            self._fill(deadline)

    def _fill(self, deadline: float) -> None:
        remaining = deadline - monotonic()
        if remaining <= 0 or not self._poll.poll(remaining * 1000):
            raise FrameTimeout("frame incomplete at its deadline")
        data = self._chunk[: self.sock.recv_into(self._chunk)]
        if not data:
            # both cases are a stream ending without an authenticated Close;
            # a mid-frame cut is the classic truncation attack
            raise EndOfStream("mid-frame" if self._buf else "at-boundary")
        self._buf += data


# a module function, not only `FrameReader.read`, so that bench/tracing.py
# can wrap it where `endpoints` calls it by name and time the wait
def frame_read(reader: FrameReader, timeout: float | None = None) -> Frame:
    """Reads one whole frame from a connection's reader."""
    return reader.read(timeout)


def frame_write(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(frame.encode())
