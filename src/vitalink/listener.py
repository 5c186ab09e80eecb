"""The one event loop behind the ingestion server and the tamper proxy.

One thread runs a `selectors` loop (Schmidt's Reactor) over the listening
socket and every connection: a held connection costs no thread. It calls
`handle(conn)` at accept, once `conn.reader` is fed what arrived or the end
of the stream, and once `conn.deadline` has passed, with a `FrameTimeout`
as the reader's `end`. A handler takes every whole frame, never waits, and
moves `conn.deadline` (another's only later, or to no earlier than its own)
or `close()`s `conn`; one that raises is logged as `handler_error` and
`conn` closed. The loop keeps the earliest deadline set, so an event costs
O(1) and only a passed deadline scans the connections. Sockets are
non-blocking: a session's replies, under 1 KB, go out in one `sendall`.
`stop` feeds each open connection the end of its stream. An `accept()` out
of descriptors, buffers or memory logs `accept_failed` and pauses accepts
for `_ACCEPT_RETRY_S`, as asyncio does.
"""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import threading
from contextlib import suppress
from math import inf
from time import monotonic

from .errors import FrameTimeout
from .records import READ_CHUNK, FrameReader

log = logging.getLogger("vitalink")

_ACCEPT_RETRY_S = 1.0
_OUT_OF_RESOURCES = {errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM}


def host_port(host: str, port: int) -> str:
    """`host:port`, with an IPv6 host in brackets (RFC 5952 §6)."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class Connection:
    """One socket on the loop, with its `reader`, its `deadline` on the
    `time.monotonic()` clock, and `state`, whatever its handler keeps."""

    __slots__ = ("sock", "peer", "reader", "state", "deadline", "_loop")

    def __init__(self, loop: Listener, sock: socket.socket, peer: str):
        self.sock, self.peer, self._loop = sock, peer, loop
        self.reader, self.state, self.deadline = FrameReader(), None, inf

    def close(self) -> None:
        """Sends a FIN and closes the socket."""
        self._loop._drop(self)


class Listener:
    def __init__(self, host: str, port: int, handle):
        self._handle = handle
        # create_server binds IPv4 unless told; only an IPv6 literal has a colon
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # the system's most: a burst of connects waits in the queue instead
        # of being dropped, which costs a client a 1 s SYN retransmit
        self._sock = socket.create_server((host, port), family=family,
                                          backlog=socket.SOMAXCONN)
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        # a byte on `_wake` ends a wait in select(), from any thread or a signal handler
        self._wake, self._woken = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._selector.register(self._woken, selectors.EVENT_READ)
        self._conns: set[Connection] = set()
        self._accept_at = self._next = inf  # an accept pause's end; no deadline is earlier
        self._chunk = memoryview(bytearray(READ_CHUNK))
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()

    def run(self) -> None:
        """Serves on the calling thread until `stop()`."""
        try:
            while True:
                wait = min(self._accept_at, self._next) - monotonic()
                for key, _ in self._selector.select(None if wait == inf else max(0.0, wait)):
                    if key.data is not None:
                        self._receive(key.data)
                    elif key.fileobj is self._sock:
                        self._accept()
                    else:  # woken by stop()
                        return
                now = monotonic()
                if self._accept_at <= now:
                    self._accept_at = inf
                    self._selector.register(self._sock, selectors.EVENT_READ)
                if self._next <= now:
                    for conn in [c for c in self._conns if c.deadline <= now]:
                        if conn in self._conns and conn.deadline <= now:  # not closed or moved since
                            conn.reader.end = FrameTimeout("frame incomplete at its deadline")
                            self._call(conn)
                    self._next = min((c.deadline for c in self._conns), default=inf)
        finally:
            for conn in list(self._conns):
                if conn in self._conns:  # a handler may close another connection
                    conn.reader.feed(b"")
                    self._call(conn)
                    conn.close()
            self._selector.close()
            for sock in (self._sock, self._wake, self._woken):
                sock.close()

    def stop(self) -> None:
        """Ends the loop; on its thread (a signal handler), once the call it
        interrupted returns. From another thread it waits for `start`'s thread."""
        with suppress(OSError):  # closed once the loop has ended
            self._wake.send(b"\0")
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join()

    def attach(self, sock: socket.socket, addr) -> Connection:
        """Serves `sock`, such as the proxy's upstream, from its first event;
        call it on the loop's thread or before the loop runs."""
        sock.setblocking(False)
        conn = Connection(self, sock, host_port(addr[0], addr[1]))
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _accept(self) -> None:
        try:
            sock, addr = self._sock.accept()
        except OSError as exc:
            if exc.errno in _OUT_OF_RESOURCES:
                log.error("accept_failed cause=%s", errno.errorcode[exc.errno])
                self._selector.unregister(self._sock)
                self._accept_at = monotonic() + _ACCEPT_RETRY_S
            return
        self._call(self.attach(sock, addr))

    def _receive(self, conn: Connection) -> None:
        if conn not in self._conns:  # closed by a handler earlier in this round
            return
        try:
            n = conn.sock.recv_into(self._chunk)
            conn.reader.feed(self._chunk[:n])
        except OSError as exc:
            conn.reader.end, n = exc, 0
        if not n:  # nothing follows the end of a stream
            self._selector.unregister(conn.sock)
        self._call(conn)

    def _call(self, conn: Connection) -> None:
        try:
            self._handle(conn)
        except Exception:
            log.exception("handler_error peer=%s", conn.peer)
            conn.close()
        self._next = min(self._next, conn.deadline)

    def _drop(self, conn: Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        with suppress(KeyError):  # not watched after the end of its stream
            self._selector.unregister(conn.sock)
        with suppress(OSError):
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()
