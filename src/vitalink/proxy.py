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

Every relay runs on one `listener` loop, with its upstream connection,
whose connect blocks the loop at most 5 s. A direction that ends, at the
end of its stream, a fault or `records.READ_TIMEOUT_S` with no frame
either way, sends the other side a FIN; both close once both have ended.
"""

from __future__ import annotations

import logging
import socket
import time
from collections import namedtuple
from contextlib import suppress
from math import inf

from . import credentials as creds
from . import curves, records
from .credentials import Role
from .curves import SUITES
from .errors import VitalinkError
from .gcm import TAG_LEN
from .handshake import LocalIdentity, ServerHandshake
from .listener import Connection, Listener, host_port
from .records import HEADER_LEN, TYPE_CLIENT_HELLO, TYPE_DATA, TYPE_SERVER_HELLO, Frame

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


class TamperPlan(namedtuple("TamperPlan", "mode target_index bit_offset",
                            defaults=("passthrough", 0, 0))):
    """One run's fault: `mode` on the c2s Data frame at `target_index`,
    0-based. An unknown mode or a negative index raises `ValueError`."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):  # the fields are set before it runs
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
    """One proxied connection: the device's `client` and the server's
    `upstream`, each a `Connection` with this relay as its `state`. A
    direction has ended once its source's deadline is `inf`, which `max` keeps."""

    def __init__(self, client: Connection, upstream: Connection, plan: TamperPlan,
                 report: list):
        self.client, self.upstream, self.plan, self.report = client, upstream, plan, report
        self._client_hello: Frame | None = None
        self._data_index = 0  # c2s Data frames so far
        self._held = b""  # reorder_pair's target, sent after the frame that follows it
        for conn in (client, upstream):
            conn.state, conn.deadline = self, time.monotonic() + records.READ_TIMEOUT_S

    def _note(self, direction: str, frame: Frame, fault: str) -> None:
        line = (f"frame dir={direction} type=0x{frame.frame_type:02x} "
                f"len={len(frame.body)} fault={fault}")
        self.report.append(line)
        log.info("%s", line)

    def pump(self, src: Connection) -> None:
        """Relays every whole frame `src` has buffered to the other side."""
        dst, direction = ((self.upstream, "c2s") if src is self.client
                          else (self.client, "s2c"))
        plan = self.plan
        try:
            while src.deadline < inf and (frame := src.reader.read()) is not None:
                for conn in (src, dst):  # either way: a server is silent while a device sends
                    conn.deadline = max(conn.deadline, time.monotonic() + records.READ_TIMEOUT_S)
                out, fault = frame.encode(), "none"
                if self._held and direction == "c2s":
                    out, self._held, fault = out + self._held, b"", "reorder_pair"
                elif frame.frame_type == TYPE_CLIENT_HELLO:
                    self._client_hello = frame
                elif frame.frame_type == TYPE_SERVER_HELLO and plan.mode == "forge_handshake":
                    out, fault = _rogue_server_hello(self._client_hello) or out, plan.mode
                elif frame.frame_type == TYPE_DATA and direction == "c2s":
                    if self._data_index == plan.target_index and plan.mode in DATA_MODES:
                        out, fault = apply_tamper(plan, frame), plan.mode
                        if plan.mode == "reorder_pair":
                            self._held, fault = frame.encode(), "reorder_hold"
                    self._data_index += 1
                self._note(direction, frame, fault)
                dst.sock.sendall(out)
                if fault == "truncate_stream":
                    break
            else:
                return
        except (VitalinkError, OSError):
            pass
        if src.deadline < inf:  # half-close only: the other direction may carry a late Abort
            src.deadline = inf
            with suppress(OSError):
                dst.sock.shutdown(socket.SHUT_WR)
        if dst.deadline == inf:
            self.client.close()
            self.upstream.close()


class TamperProxy:
    def __init__(self, listen_host: str, listen_port: int, upstream_host: str,
                 upstream_port: int, plan: TamperPlan):
        self.listen_host, self.listen_port = listen_host, listen_port
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self.report: list[str] = []
        self._listener: Listener | None = None
        self.port = 0

    def listen(self) -> Listener:
        """Binds; the loop returned serves once it runs."""
        self._listener = Listener(self.listen_host, self.listen_port, self._handle)
        self.port = self._listener.port
        log.info("proxy_listening addr=%s mode=%s", host_port(self.listen_host, self.port),
                 self.plan.mode)
        return self._listener

    def start(self) -> None:
        """Binds and serves on a new thread, for library and test use."""
        self.listen().start()

    def _handle(self, conn: Connection) -> None:
        if conn.state is None:  # a device that has just connected
            try:
                up = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                return conn.close()
            Relay(conn, self._listener.attach(up, self.upstream), self.plan, self.report)
        conn.state.pump(conn)

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
