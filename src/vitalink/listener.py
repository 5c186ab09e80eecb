"""The one TCP listener behind the ingestion server and the tamper proxy.

Every worker thread waits in `accept()` on the shared listening socket
itself, and whichever one takes a connection serves it: it runs
`handle(conn, addr)`, closes `conn`, and waits in `accept()` again. A
worker that takes a connection while no other waits starts one before it
serves, so a connection never waits for another to end. Reusing threads
saves starting and ending one per connection, which short, frequent
sessions would pay each time. A wait that sees no connection within
`_IDLE_S` seconds ends its worker, unless it is the last one waiting, so
the threads of a burst drain to one; a thread started at most once a
second costs under 0.01% of a CPU.

An `accept()` out of descriptors, buffers or memory would fail again at
once, so its worker logs `accept_failed` and pauses `_ACCEPT_RETRY_S`, as
asyncio does; `stop()` ends the pause. Any other failure, such as a peer
that reset before `accept()` returned, is retried at once.
"""

from __future__ import annotations

import errno
import logging
import socket
import threading
from contextlib import suppress

log = logging.getLogger("vitalink")

_IDLE_S = 1.0
_ACCEPT_RETRY_S = 1.0
_OUT_OF_RESOURCES = {errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM}


class Listener:
    def __init__(self, host: str, port: int, handle):
        self._handle = handle
        # create_server binds IPv4 unless told; only an IPv6 literal has a colon
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # the system's most: a burst of connects waits in the queue instead
        # of being dropped, which costs a client a 1 s SYN retransmit
        self._sock = socket.create_server((host, port), family=family,
                                          backlog=socket.SOMAXCONN)
        self._sock.settimeout(_IDLE_S)  # accepted sockets still block
        self.port = self._sock.getsockname()[1]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._open: set[socket.socket] = set()
        self._waiting = 0  # workers not serving a connection
        self._threads: set[threading.Thread] = set()
        with self._lock:
            self._start_worker()

    def _start_worker(self) -> None:
        """Starts a worker, counted as waiting; called under `self._lock`, so
        stop() joins only started threads."""
        thread = threading.Thread(target=self._work, daemon=True)
        thread.start()
        self._threads.add(thread)
        self._waiting += 1

    def _work(self) -> None:
        try:
            while True:
                try:
                    conn, addr = self._sock.accept()
                except TimeoutError:
                    with self._lock:
                        # the last waiting worker stays, so a connection never
                        # waits for a thread to start
                        if self._stopping.is_set() or self._waiting > 1:
                            self._waiting -= 1
                            return
                    continue
                except OSError as exc:
                    if self._stopping.is_set():
                        return
                    if exc.errno in _OUT_OF_RESOURCES:
                        log.error("accept_failed cause=%s", errno.errorcode[exc.errno])
                        self._stopping.wait(_ACCEPT_RETRY_S)
                    continue
                with self._lock:
                    if self._stopping.is_set():
                        conn.close()
                        return
                    # registered here, so stop() sees every accepted connection
                    self._open.add(conn)
                    self._waiting -= 1
                    if not self._waiting:
                        try:
                            self._start_worker()
                        except RuntimeError:  # the process is out of threads
                            log.exception("worker_start_failed peer=%s:%s", addr[0], addr[1])
                self._serve(conn, addr)
                with self._lock:
                    if self._stopping.is_set():
                        return
                    self._waiting += 1
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    def _serve(self, conn: socket.socket, addr) -> None:
        try:
            self._handle(conn, addr)
        except Exception:
            log.exception("handler_error peer=%s:%s", addr[0], addr[1])
        finally:
            with self._lock:
                self._open.discard(conn)
            with suppress(OSError):  # the FIN, even if the handler left a makefile() open
                conn.shutdown(socket.SHUT_WR)
            conn.close()

    def stop(self) -> None:
        """Stops accepting, cuts every open connection so its handler ends
        through its own error path, wakes every waiting worker so it exits,
        then joins every thread."""
        with self._lock:
            self._stopping.set()  # also ends a pause after a failed accept()
            for conn in self._open:
                with suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
            threads = list(self._threads)
        with suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes every waiting accept()
        for thread in threads:
            thread.join()
        self._sock.close()
