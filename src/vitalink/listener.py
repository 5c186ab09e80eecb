"""The one TCP listener behind the ingestion server and the tamper proxy.

One accept thread blocks in `accept()` and hands each connection to an
idle worker thread, starting a new worker only when none is idle, so a
connection never waits for another to end. A worker runs
`handle(conn, addr)`, closes `conn`, and then waits for its next
connection. Reusing threads saves starting and ending one per
connection, which short, frequent sessions would pay each time. A worker
that gets no connection within `_IDLE_S` seconds exits, so the threads
of a burst drain; a thread started at most once a second costs under
0.01% of a CPU.
"""

from __future__ import annotations

import logging
import socket
import threading
from queue import Empty, SimpleQueue

log = logging.getLogger("vitalink")

_IDLE_S = 1.0


class Listener:
    def __init__(self, host: str, port: int, handle):
        self._handle = handle
        # the system's most: a burst of connects waits in the queue instead
        # of being dropped, which costs a client a 1 s SYN retransmit
        self._sock = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        self.port = self._sock.getsockname()[1]
        self._lock = threading.Lock()
        self._stopping = False
        self._open: set[socket.socket] = set()
        # the inboxes of idle workers, a stack: the most recently idle is woken first
        self._idle: list[SimpleQueue] = []
        self._threads: set[threading.Thread] = set()
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                if self._stopping:
                    return
                continue  # e.g. the peer reset the connection before accept returned
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                # registered here, so stop() sees every accepted connection
                self._open.add(conn)
                if self._idle:
                    self._idle.pop().put((conn, addr))
                    continue
                thread = threading.Thread(target=self._work, args=(conn, addr), daemon=True)
                self._threads.add(thread)
            try:
                thread.start()
            except RuntimeError:  # the process is out of threads
                log.exception("worker_start_failed peer=%s:%s", addr[0], addr[1])
                with self._lock:
                    self._threads.discard(thread)
                    self._open.discard(conn)
                conn.close()

    def _work(self, conn: socket.socket, addr) -> None:
        inbox = SimpleQueue()  # a connection, or None from stop(); put under self._lock
        try:
            while True:
                self._serve(conn, addr)
                with self._lock:
                    if self._stopping:
                        return
                    self._idle.append(inbox)
                try:
                    job = inbox.get(timeout=_IDLE_S)
                except Empty:
                    with self._lock:
                        if inbox.empty() and not self._stopping:
                            self._idle.remove(inbox)
                            return
                    # handed a connection, or stop() began, as the wait timed out
                    job = inbox.get()
                if job is None:
                    return
                conn, addr = job
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
            try:  # sends the FIN even if the handler left a makefile() of conn open
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            conn.close()

    def stop(self) -> None:
        """Stops accepting, cuts every open connection so its handler ends
        through its own error path, wakes every idle worker so it exits,
        then joins every thread."""
        with self._lock:
            self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self._accepter.join()
        with self._lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            for inbox in self._idle:
                inbox.put(None)
            self._idle.clear()
            threads = list(self._threads)
        for thread in threads:
            thread.join()
        self._sock.close()
