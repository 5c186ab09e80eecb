"""The one event loop behind the ingestion server and the tamper proxy.

One thread runs a `selectors` loop (Schmidt's Reactor) over the listening
socket and every connection, so a held connection costs no thread. It
calls `handle(conn)` when it accepts `conn`, once it has fed `conn.reader`
what arrived (into one buffer every connection shares) or the end of the
stream, and when `conn.deadline` passes. A handler takes every whole frame
buffered, never waits for more, and moves `conn.deadline` or `close()`s
`conn`; one that raises is logged as `handler_error` and `conn` closed.
Every socket is non-blocking, so a reply goes out with one `sendall` or
fails: a session's are under 1 KB, which a send buffer takes at once.
`stop` feeds every open connection the end of its stream, so each ends
through its handler.

An `accept()` out of descriptors, buffers or memory would fail again at
once, so the loop logs `accept_failed` and stops accepting for
`_ACCEPT_RETRY_S`, as asyncio does; any other failure is retried at once.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import logging
import selectors
import socket
import threading
from contextlib import suppress
from math import inf
from time import monotonic

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

    __slots__ = ("sock", "peer", "reader", "state", "deadline", "_loop", "_timer")

    def __init__(self, loop: Listener, sock: socket.socket, peer: str):
        self.sock, self.peer, self._loop = sock, peer, loop
        self.reader, self.state, self.deadline = FrameReader(), None, inf
        self._timer = [inf, 0, None]  # its entry in the loop's heap, once armed

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
        # [when, tie-break, its Connection, None once dead, or self to end an accept pause]
        self._timers: list = []
        self._seq = itertools.count()
        self._chunk = memoryview(bytearray(READ_CHUNK))
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()

    def run(self) -> None:
        """Serves on the calling thread until `stop()`."""
        try:
            while True:
                timeout = max(0.0, self._timers[0][0] - monotonic()) if self._timers else None
                for key, _ in self._selector.select(timeout):
                    if key.data is not None:
                        self._receive(key.data)
                    elif key.fileobj is self._sock:
                        self._accept()
                    else:  # woken by stop()
                        return
                while self._timers and self._timers[0][0] <= monotonic():
                    timer = heapq.heappop(self._timers)
                    timer[0] = inf  # unarmed: `_call` arms the next
                    if timer[2] is self:  # the pause after a failed accept() is over
                        self._selector.register(self._sock, selectors.EVENT_READ)
                    elif timer[2] is not None:
                        self._call(timer[2])
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
                pause = [monotonic() + _ACCEPT_RETRY_S, next(self._seq), self]
                heapq.heappush(self._timers, pause)
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
        # a later deadline keeps the entry it has: the handler is called when
        # that passes, and arms the new one
        if conn in self._conns and conn.deadline < conn._timer[0]:
            conn._timer[2] = None
            conn._timer = [conn.deadline, next(self._seq), conn]
            heapq.heappush(self._timers, conn._timer)

    def _drop(self, conn: Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        conn._timer[2] = None
        # a busy server closes connections long before their deadlines, so
        # the heap sheds its closed entries once they are most of it
        if len(self._timers) > 2 * len(self._conns) + 64:
            self._timers = [t for t in self._timers if t[2] is not None]
            heapq.heapify(self._timers)
        with suppress(KeyError):  # not watched after the end of its stream
            self._selector.unregister(conn.sock)
        with suppress(OSError):
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()
