"""In-path tamper proxy: relays frames between device and server while
injecting one configured fault per run.

The proxy parses frame headers only (to count and split frames); bodies
are opaque ciphertext. It holds no credentials and no session keys — a
network attacker who can read, mutate, drop, and inject bytes but cannot
break the crypto. The forge_handshake mode is the exception that proves
the rule: the proxy answers the ClientHello itself with a rogue,
self-issued server identity, which a device holding the real trust root
must refuse.
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
from .errors import EndOfStream, VitalinkError
from .handshake import LocalIdentity, ServerHandshake
from .listener import Listener
from .records import (
    TYPE_CLIENT_HELLO,
    TYPE_DATA,
    TYPE_SERVER_HELLO,
    Frame,
    FrameReader,
    frame_write,
)

log = logging.getLogger("vitalink.proxy")

MODES = (
    "passthrough",
    "flip_ciphertext_bit",
    "flip_tag_bit",
    "replay_frame",
    "reorder_pair",
    "drop_frame",
    "truncate_stream",
    "forge_handshake",
)

TRUNCATE = object()  # sentinel: emit accumulated bytes, then cut the stream


@dataclass(frozen=True)
class TamperPlan:
    mode: str = "passthrough"
    target_index: int = 0  # which Data frame, 0-based, counted per direction
    direction: str = "c2s"
    bit_offset: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown tamper mode {self.mode!r}")
        if self.target_index < 0:
            raise ValueError("target_index must be >= 0")
        if self.direction not in ("c2s", "s2c"):
            raise ValueError("direction must be c2s or s2c")


def _flip_bit(data: bytes, bit: int) -> bytes:
    byte, mask = bit // 8, 0x80 >> (bit % 8)
    out = bytearray(data)
    out[byte % len(out)] ^= mask
    return bytes(out)


def apply_tamper(plan: TamperPlan, frame: Frame, index: int, direction: str):
    """Pure per-frame transformation for the single-frame fault modes.

    Returns a list of frames to emit, possibly ending with the TRUNCATE
    sentinel. Stateful modes (reorder) and forge_handshake are sequenced
    by the relay, which calls this for the matching frame only.
    """
    if (
        plan.mode == "passthrough"
        or direction != plan.direction
        or frame.frame_type != TYPE_DATA
        or index != plan.target_index
    ):
        return [frame]
    if plan.mode == "flip_ciphertext_bit":
        ct_bits = max(8 * (len(frame.body) - 16), 8)
        return [Frame(frame.frame_type, _flip_bit(frame.body, plan.bit_offset % ct_bits))]
    if plan.mode == "flip_tag_bit":
        tag_start = 8 * (len(frame.body) - 16)
        return [Frame(frame.frame_type, _flip_bit(frame.body, tag_start + plan.bit_offset % 128))]
    if plan.mode == "replay_frame":
        return [frame, frame]
    if plan.mode == "drop_frame":
        return []
    if plan.mode == "truncate_stream":
        return [TRUNCATE]
    return [frame]


class _RogueServer:
    """Self-issued identity used only by forge_handshake."""

    def __init__(self, suite):
        self.suite = suite
        now = int(time.time())
        d, Q = curves.keypair_gen(suite)
        subject = creds.encode_subject("rogue-server")
        cred = creds.credential_issue(
            d, subject, Role.SERVER, Q, now - 60, now + 3600, subject, suite
        )
        self.identity = LocalIdentity(static_priv=d, credential=cred)
        # any credential works as "trust root" here; the rogue trusts itself
        self.trust_root = cred


class Relay:
    """One proxied connection: two directional pumps over parsed frames."""

    def __init__(self, client: socket.socket, upstream: socket.socket, plan: TamperPlan,
                 report: list):
        self.client = client
        self.upstream = upstream
        self.plan = plan
        self.report = report
        self._lock = threading.Lock()
        self._captured_client_hello: Frame | None = None
        self._pending_reorder: Frame | None = None

    def _note(self, direction: str, frame: Frame, fault: str) -> None:
        line = (
            f"frame dir={direction} type=0x{frame.frame_type:02x} "
            f"len={len(frame.body)} fault={fault}"
        )
        with self._lock:
            self.report.append(line)
        print(line, flush=True)

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        plan = self.plan
        data_index = 0
        reader = FrameReader(src)
        try:
            while True:
                frame = reader.read(timeout=10.0)
                fault = "none"

                if plan.mode == "forge_handshake":
                    if direction == "c2s" and frame.frame_type == TYPE_CLIENT_HELLO:
                        self._captured_client_hello = frame
                    if direction == "s2c" and frame.frame_type == TYPE_SERVER_HELLO:
                        frame = self._forge_server_hello(frame)
                        fault = "forge_handshake"

                is_target_data = (
                    frame.frame_type == TYPE_DATA
                    and direction == plan.direction
                    and data_index == plan.target_index
                )

                if plan.mode == "reorder_pair" and direction == plan.direction:
                    if self._pending_reorder is not None:
                        # emit the newer frame first, then the held one
                        self._note(direction, frame, "reorder_pair")
                        frame_write(dst, frame)
                        frame_write(dst, self._pending_reorder)
                        self._pending_reorder = None
                        if frame.frame_type == TYPE_DATA:
                            data_index += 1
                        continue
                    if is_target_data:
                        self._pending_reorder = frame
                        self._note(direction, frame, "reorder_hold")
                        data_index += 1
                        continue

                out = apply_tamper(plan, frame, data_index, direction)
                if frame.frame_type == TYPE_DATA:
                    data_index += 1
                if is_target_data and plan.mode != "passthrough":
                    fault = plan.mode
                self._note(direction, frame, fault)
                for item in out:
                    if item is TRUNCATE:
                        # cut mid-body: send the header plus half the body
                        raw = frame.encode()
                        dst.sendall(raw[: 8 + len(frame.body) // 2])
                        raise EndOfStream()
                    frame_write(dst, item)
        except (VitalinkError, OSError):
            pass
        finally:
            # half-close only: the other direction may still carry a late Abort
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def _forge_server_hello(self, original: Frame) -> Frame:
        ch = self._captured_client_hello
        if ch is None:
            return original
        suite_id = int.from_bytes(ch.body[:2], "big")
        suite = SUITES.get(suite_id)
        if suite is None:
            return original
        rogue = _RogueServer(suite)
        hs = ServerHandshake(rogue.identity, rogue.trust_root, suite=suite)
        return Frame(TYPE_SERVER_HELLO, hs.respond(ch.body))

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
        log.info("proxy_listening addr=%s:%d mode=%s", self.listen_host, self.port,
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


def proxy_run(listen_host: str, listen_port: int, upstream_host: str,
              upstream_port: int, plan: TamperPlan,
              shutdown: threading.Event | None = None) -> list[str]:
    proxy = TamperProxy(listen_host, listen_port, upstream_host, upstream_port, plan)
    proxy.start()
    try:
        (shutdown or threading.Event()).wait()
    finally:
        proxy.stop()
    return proxy.report
