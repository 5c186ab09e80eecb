"""The one TCP listener behind the ingestion server and the tamper proxy.

It accepts on a daemon thread and runs `handle(conn, addr)` on a thread
per connection, then closes `conn`; ThreadingMixIn reaps finished
handler threads.
"""

from __future__ import annotations

import socket
import socketserver
import threading


class Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    request_queue_size = 16

    def __init__(self, host: str, port: int, handle):
        super().__init__((host, port), None)
        self._handle = handle
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self.port = self.server_address[1]
        threading.Thread(target=self.serve_forever, args=(0.2,), daemon=True).start()

    # Registered on the accept thread, so stop() sees every accepted connection.
    def process_request(self, conn, addr) -> None:
        with self._lock:
            self._open.add(conn)
        super().process_request(conn, addr)

    def finish_request(self, conn, addr) -> None:
        self._handle(conn, addr)

    def shutdown_request(self, conn) -> None:
        with self._lock:
            self._open.discard(conn)
        super().shutdown_request(conn)

    def stop(self) -> None:
        """Stops accepting, cuts every open connection so its handler ends
        through its own error path, then joins every handler."""
        self.shutdown()
        with self._lock:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self.server_close()
