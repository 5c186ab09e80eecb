"""The shared listener core: prompt shutdown with live peers, no thread build-up."""

import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from vitalink.endpoints import IngestionServer, ServerConfig
from vitalink.handshake import ClientHandshake
from vitalink.records import TYPE_CLIENT_HELLO, TYPE_SERVER_HELLO, Frame, frame_read, frame_write

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def server(pki, tmp_path):
    pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    yield srv
    srv.stop()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_stop_cuts_an_idle_peer_promptly_and_logs_it(server, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    before = threading.active_count()
    peer = socket.create_connection(("127.0.0.1", server.port))
    try:
        # the handler thread exists once the listener has accepted the peer
        assert wait_for(lambda: threading.active_count() > before)
        t0 = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - t0
    finally:
        peer.close()
    assert elapsed < 1.0
    problems = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(problems) == 1
    assert problems[0].startswith("suspicious_termination ")


def test_handler_threads_do_not_accumulate(server):
    before = threading.active_count()
    for _ in range(50):
        socket.create_connection(("127.0.0.1", server.port)).close()
    assert wait_for(lambda: threading.active_count() == before)


def test_serve_exits_promptly_on_sigterm_with_a_peer_mid_handshake(pki, tmp_path):
    pki.write_files(tmp_path)
    log_path = tmp_path / "serve.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "vitalink.cli", "serve", "--listen", "127.0.0.1:0",
             "--key", str(tmp_path / "server.vlk"), "--cred", str(tmp_path / "server.vlc"),
             "--root", str(tmp_path / "root.vlc"), "--store-dir", str(tmp_path / "store")],
            stdout=subprocess.DEVNULL, stderr=log,
            env=dict(os.environ, PYTHONPATH=str(SRC), VITALINK_LOG="INFO"),
        )
    peer = None
    try:
        listening = re.compile(r"listening addr=[\d.]+:(\d+)")
        assert wait_for(lambda: listening.search(log_path.read_text()), timeout=30.0)
        port = int(listening.search(log_path.read_text()).group(1))
        peer = socket.create_connection(("127.0.0.1", port))
        # a ServerHello proves a handler owns the connection; it now waits idle
        frame_write(peer, Frame(TYPE_CLIENT_HELLO,
                                ClientHandshake(pki.suite, pki.device, pki.root).start()))
        assert frame_read(peer, timeout=30.0).frame_type == TYPE_SERVER_HELLO
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30.0)
        elapsed = time.monotonic() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if peer is not None:
            peer.close()
    assert code == 0
    assert elapsed < 1.0
    assert log_path.read_text().count("suspicious_termination ") == 1
