"""Post-handshake framing and per-direction record protection.

Frame layout (bit-exact): magic(2, A5 5A) || version(1, 01) ||
frame_type(1) || length(BE32) || body. Data and Close bodies are
ciphertext || tag(16). Sequence numbers are implicit: never on the wire,
but bound into the AAD, so replay, reorder, and drop all surface as a
tag failure at the receiver. Tag failure is unconditionally fatal.
"""

from __future__ import annotations

import select
import socket
import struct
from dataclasses import dataclass

from . import gcm
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
MAX_BODY = gcm.MAX_PLAINTEXT + gcm.TAG_LEN
READ_TIMEOUT_S = 10.0

TYPE_CLIENT_HELLO = 0x01
TYPE_SERVER_HELLO = 0x02
TYPE_CLIENT_FINISH = 0x03
TYPE_DATA = 0x10
TYPE_CLOSE = 0x11
TYPE_ABORT = 0x1F

FRAME_TYPES = {
    TYPE_CLIENT_HELLO,
    TYPE_SERVER_HELLO,
    TYPE_CLIENT_FINISH,
    TYPE_DATA,
    TYPE_CLOSE,
    TYPE_ABORT,
}


@dataclass
class Frame:
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


@dataclass
class DirectionState:
    """One direction's key, nonce salt, and sequence counter.

    Owned by exactly one sender or one receiver; the counter doubles as
    send_seq or recv_seq depending on which side holds it.
    """

    key: bytes
    salt: bytes
    seq: int = 0

    def _nonce(self, seq: int) -> bytes:
        return self.salt + seq.to_bytes(8, "big")

    def zeroize(self) -> None:
        self.key = b"\x00" * 16
        self.salt = b"\x00" * 4


def _aad(frame_type: int, seq: int) -> bytes:
    return MAGIC + bytes([VERSION, frame_type]) + seq.to_bytes(8, "big")


def record_seal(direction: DirectionState, frame_type: int, payload: bytes) -> Frame:
    if direction.seq >= 2**64 - 1:
        raise SequenceExhausted()
    seq = direction.seq
    body = gcm.seal(direction.key, direction._nonce(seq), _aad(frame_type, seq), payload)
    direction.seq += 1
    return Frame(frame_type, body)


def record_open(direction: DirectionState, frame: Frame) -> tuple[int, bytes]:
    """Opens a protected frame at the expected sequence number.

    Any failure is fatal to the connection: the caller must emit Abort,
    zeroize, and close. The counter only advances on success, so a
    tampered record can never be retried into acceptance.
    """
    if direction.seq >= 2**64 - 1:
        raise SequenceExhausted()
    seq = direction.seq
    payload = gcm.open_(
        direction.key,
        direction._nonce(seq),
        _aad(frame.frame_type, seq),
        frame.body,
    )
    direction.seq += 1
    return frame.frame_type, payload


def _recv_exact(sock: socket.socket, n: int, timeout: float, at_boundary: bool) -> bytes:
    buf = b""
    while len(buf) < n:
        ready, _, _ = select.select([sock], [], [], timeout)
        if not ready:
            raise FrameTimeout(f"no data for {timeout}s")
        chunk = sock.recv(n - len(buf))
        if not chunk:
            # both cases are a stream ending without an authenticated Close;
            # a mid-frame cut is the classic truncation attack
            raise EndOfStream("mid-frame" if (buf or not at_boundary) else "at-boundary")
        buf += chunk
    return buf


def frame_read(sock: socket.socket, timeout: float = READ_TIMEOUT_S) -> Frame:
    header = _recv_exact(sock, HEADER_LEN, timeout, at_boundary=True)
    frame_type, length = parse_header(header)
    body = _recv_exact(sock, length, timeout, at_boundary=False) if length else b""
    return Frame(frame_type, body)


def frame_write(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(frame.encode())
