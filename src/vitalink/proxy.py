"""In-path tamper proxy: relays frames between device and server while
injecting one configured fault per run.

Only device-to-server (c2s) traffic is protected: the server sends a
ServerHello, a NewTicket and at most a plaintext Abort, and the handshake
derives no keys for anything else. So every mode but forge_handshake acts
on the `target_index`-th c2s Data frame, and server-to-device frames pass
untouched.

The proxy parses frame headers only (to count and split frames); bodies
are opaque ciphertext. It holds no credentials and no session keys — a
network attacker who can read, mutate, drop, and inject bytes but cannot
break the crypto. The forge_handshake mode is the exception that proves
the rule: the proxy answers the ClientHello itself with a rogue,
self-issued server identity, which a device holding the real trust root
must refuse.

Each relayed frame is logged as `frame dir=… type=0x.. len=… fault=…`
on the `vitalink.proxy` logger and kept in `TamperProxy.report`.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass

from . import credentials as creds
from . import curves
from .credentials import Role
from .curves import SUITES
from .errors import VitalinkError
from .gcm import TAG_LEN
from .handshake import LocalIdentity, ServerHandshake
from .listener import Listener, host_port
from .records import (
    HEADER_LEN,
    TYPE_CLIENT_HELLO,
    TYPE_DATA,
    TYPE_SERVER_HELLO,
    Frame,
    FrameReader,
)

log = logging.getLogger("vitalink.proxy")

# the modes that act on the target c2s Data frame
DATA_MODES = (
    "flip_ciphertext_bit",
    "flip_tag_bit",
    "replay_frame",
    "reorder_pair",
    "drop_frame",
    "truncate_stream",
)
MODES = ("passthrough", *DATA_MODES, "forge_handshake")


@dataclass(frozen=True)
class TamperPlan:
    mode: str = "passthrough"
    target_index: int = 0  # which c2s Data frame, 0-based
    bit_offset: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown tamper mode {self.mode!r}")
        if self.target_index < 0:
            raise ValueError("target_index must be >= 0")


def _flip_bit(data: bytes, bit: int) -> bytes:
    if not data:
        return data  # the receiver rejects a body shorter than a tag anyway
    out = bytearray(data)
    out[bit // 8 % len(out)] ^= 0x80 >> (bit % 8)
    return bytes(out)


def apply_tamper(plan: TamperPlan, frame: Frame) -> bytes:
    """The bytes to send in place of the target Data frame. The relay ends
    the stream after truncate_stream's, and sends reorder_pair's frame
    after the next one."""
    body, mode = frame.body, plan.mode
    ct_bits = 8 * (len(body) - TAG_LEN)
    if mode == "flip_ciphertext_bit":
        return Frame(TYPE_DATA, _flip_bit(body, plan.bit_offset % max(ct_bits, 8))).encode()
    if mode == "flip_tag_bit":
        bit = ct_bits + plan.bit_offset % (8 * TAG_LEN)
        return Frame(TYPE_DATA, _flip_bit(body, bit)).encode()
    if mode == "replay_frame":
        return frame.encode() * 2
    if mode == "truncate_stream":
        return frame.encode()[: HEADER_LEN + len(body) // 2]
    if mode in ("drop_frame", "reorder_pair"):
        return b""
    return frame.encode()


def _rogue_server_hello(client_hello: Frame | None) -> bytes | None:
    """A ServerHello from a self-issued server identity that trusts only
    itself, on the ClientHello's suite; None without a ClientHello naming
    a known suite."""
    suite = client_hello and SUITES.get(int.from_bytes(client_hello.body[:2], "big"))
    if suite is None:
        return None
    now = int(time.time())
    d, Q = curves.keypair_gen(suite)
    subject = creds.encode_subject("rogue-server")
    cred = creds.credential_issue(d, subject, Role.SERVER, Q, now - 60, now + 3600, subject,
                                  suite)
    hs = ServerHandshake(LocalIdentity(static_priv=d, credential=cred), cred, suite=suite)
    return Frame(TYPE_SERVER_HELLO, hs.respond(client_hello.body)).encode()


class Relay:
    """One proxied connection: a pump per direction over parsed frames."""

    def __init__(self, client: socket.socket, upstream: socket.socket, plan: TamperPlan,
                 report: list):
        self.client = client
        self.upstream = upstream
        self.plan = plan
        self.report = report
        self._client_hello: Frame | None = None

    def _note(self, direction: str, frame: Frame, fault: str) -> None:
        line = (f"frame dir={direction} type=0x{frame.frame_type:02x} "
                f"len={len(frame.body)} fault={fault}")
        self.report.append(line)
        log.info("%s", line)

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        plan = self.plan
        data_index = 0
        held = b""  # reorder_pair's target, sent after the frame that follows it
        reader = FrameReader(src)
        try:
            while True:
                frame = reader.read()
                out, fault = frame.encode(), "none"
                if held:
                    out, held, fault = out + held, b"", "reorder_pair"
                elif frame.frame_type == TYPE_CLIENT_HELLO:
                    self._client_hello = frame
                elif frame.frame_type == TYPE_SERVER_HELLO and plan.mode == "forge_handshake":
                    out, fault = _rogue_server_hello(self._client_hello) or out, plan.mode
                elif frame.frame_type == TYPE_DATA and direction == "c2s":
                    if data_index == plan.target_index and plan.mode in DATA_MODES:
                        out, fault = apply_tamper(plan, frame), plan.mode
                        if plan.mode == "reorder_pair":
                            held, fault = frame.encode(), "reorder_hold"
                    data_index += 1
                self._note(direction, frame, fault)
                dst.sendall(out)
                if fault == "truncate_stream":
                    break
        except (VitalinkError, OSError):
            pass
        finally:
            # half-close only: the other direction may still carry a late Abort
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def run(self) -> None:
        c2s = threading.Thread(target=self._pump, args=(self.client, self.upstream, "c2s"),
                               daemon=True)
        c2s.start()
        self._pump(self.upstream, self.client, "s2c")
        c2s.join()
        for s in (self.client, self.upstream):
            s.close()


class TamperProxy:
    def __init__(self, listen_host: str, listen_port: int, upstream_host: str,
                 upstream_port: int, plan: TamperPlan):
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self.report: list[str] = []
        self._listener: Listener | None = None
        self.port = 0

    def start(self) -> None:
        self._listener = Listener(self.listen_host, self.listen_port, self._handle)
        self.port = self._listener.port
        log.info("proxy_listening addr=%s mode=%s", host_port(self.listen_host, self.port),
                 self.plan.mode)

    def _handle(self, conn: socket.socket, addr) -> None:
        try:
            up = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            return  # the listener closes conn
        Relay(conn, up, self.plan, self.report).run()

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
