"""The shared listener core: prompt shutdown with live peers, reused worker
threads that drain to one waiting when idle, and handler errors that stay in
the handler."""

import errno
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

from vitalink import listener as listener_module
from vitalink.endpoints import IngestionServer, ServerConfig
from vitalink.handshake import ClientHandshake
from vitalink.listener import Listener
from vitalink.records import (TYPE_CLIENT_HELLO, TYPE_SERVER_HELLO, Frame, FrameReader, frame_read,
                              frame_write)

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
        assert frame_read(FrameReader(peer), timeout=30.0).frame_type == TYPE_SERVER_HELLO
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


@pytest.fixture()
def listen():
    """Starts a `Listener` on loopback around a handler; stops it after the test."""
    started = []

    def start(handle):
        started.append(Listener("127.0.0.1", 0, handle))
        return started[-1]

    yield start
    for lst in started:
        lst.stop()


def session(port):
    """One connection that ends when the server closes it."""
    with socket.create_connection(("127.0.0.1", port)) as peer:
        peer.settimeout(5.0)
        assert peer.recv(1) == b""


def test_back_to_back_connections_reuse_a_few_threads(listen):
    tids = []
    lst = listen(lambda conn, addr: tids.append(threading.get_native_id()))
    for _ in range(200):
        session(lst.port)
    assert len(tids) == 200
    assert len(set(tids)) <= 3


def test_concurrent_idle_peers_are_all_served_at_once(listen):
    running = set()
    lock = threading.Lock()

    def handle(conn, addr):
        with lock:
            running.add(threading.get_ident())
        conn.recv(1)  # until the peer hangs up

    lst = listen(handle)
    peers = [socket.create_connection(("127.0.0.1", lst.port)) for _ in range(8)]
    try:
        assert wait_for(lambda: len(running) == 8)
    finally:
        for peer in peers:
            peer.close()


def test_an_idle_worker_exits(listen, monkeypatch):
    monkeypatch.setattr(listener_module, "_IDLE_S", 0.05)
    release = threading.Event()
    busy = []

    def handle(conn, addr):
        busy.append(addr)
        release.wait(5.0)

    lst = listen(handle)
    peers = [socket.create_connection(("127.0.0.1", lst.port)) for _ in range(4)]
    # 4 workers serve and a 5th waits
    assert wait_for(lambda: len(busy) == 4 and lst._waiting == 1)
    burst = set(lst._threads)
    assert len(burst) == 5
    release.set()
    for peer in peers:
        peer.close()
    # the burst's extra workers exit, down to exactly one waiting
    assert wait_for(lambda: sum(t.is_alive() for t in burst) == 1, timeout=2.0)
    assert len(lst._threads) == 1 and lst._waiting == 1


def test_the_last_waiting_worker_never_exits(listen, monkeypatch):
    monkeypatch.setattr(listener_module, "_IDLE_S", 0.05)
    threads = []
    lst = listen(lambda conn, addr: threads.append(threading.current_thread()))
    session(lst.port)
    assert wait_for(lambda: len(lst._threads) == 1, timeout=2.0)
    [last] = lst._threads
    time.sleep(0.5)  # ten idle timeouts
    session(lst.port)
    assert threads[-1] is last


def test_handoffs_that_race_idle_exits_lose_no_connection(listen, monkeypatch):
    # waits close to the idle timeout, so connections often arrive just as a
    # worker's accept() times out and it decides whether to exit
    monkeypatch.setattr(listener_module, "_IDLE_S", 0.002)
    served = []
    lst = listen(lambda conn, addr: served.append(addr))
    failures = []

    def client(k):
        try:
            for i in range(50):
                session(lst.port)
                time.sleep((i + k) % 4 * 0.001)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert failures == []
    assert len(served) == 200


def test_stop_with_idle_workers_returns_at_once(listen):
    served = []
    lst = listen(lambda conn, addr: served.append(addr))
    peers = [socket.create_connection(("127.0.0.1", lst.port)) for _ in range(4)]
    for peer in peers:
        peer.close()
    assert wait_for(lambda: len(served) == 4 and lst._waiting >= 1 and not lst._open)
    threads = set(lst._threads)
    t0 = time.monotonic()
    lst.stop()
    assert time.monotonic() - t0 < 0.1
    assert not lst._threads and not any(t.is_alive() for t in threads)


def test_a_handler_that_raises_is_logged_and_the_next_connection_served(listen, caplog,
                                                                        monkeypatch):
    caplog.set_level(logging.ERROR, logger="vitalink")
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    served = threading.Event()
    calls = []

    def handle(conn, addr):
        calls.append(conn)
        if len(calls) == 1:
            raise RuntimeError("handler bug")
        served.set()

    lst = listen(handle)
    session(lst.port)  # ends: the listener closed the failed handler's connection
    session(lst.port)
    assert served.wait(5.0)
    failures = [r for r in caplog.records if r.exc_info]
    assert len(failures) == 1
    assert failures[0].exc_info[0] is RuntimeError
    assert failures[0].getMessage().startswith("handler_error peer=127.0.0.1:")
    assert escaped == []


def failing_accept(monkeypatch, code, times=None):
    """Makes `accept()` fail with `code`, the first `times` calls or every
    call; returns the list of attempts, which grows by one per call."""
    attempts = []
    real = socket.socket.accept

    def accept(sock):
        attempts.append(time.monotonic())
        if times is None or len(attempts) <= times:
            raise OSError(code, os.strerror(code))
        return real(sock)

    monkeypatch.setattr(socket.socket, "accept", accept)
    return attempts


@pytest.mark.parametrize("code", [errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM])
def test_a_listener_out_of_resources_pauses_between_accepts(listen, monkeypatch, caplog, code):
    caplog.set_level(logging.ERROR, logger="vitalink")
    attempts = failing_accept(monkeypatch, code)
    lst = listen(lambda conn, addr: None)
    time.sleep(0.5)
    assert 1 <= len(attempts) <= 3  # not a busy loop
    t0 = time.monotonic()
    threads = set(lst._threads)
    lst.stop()  # ends the pause at once
    assert time.monotonic() - t0 < 0.5
    assert not any(t.is_alive() for t in threads)
    assert {r.getMessage() for r in caplog.records} == {
        f"accept_failed cause={errno.errorcode[code]}"}


def test_any_other_accept_failure_is_retried_at_once(listen, monkeypatch):
    # such as a peer that reset before accept() returned: pausing there
    # would let any peer stall the listener
    attempts = failing_accept(monkeypatch, errno.ECONNABORTED, times=3)
    served = threading.Event()
    lst = listen(lambda conn, addr: served.set())
    t0 = time.monotonic()
    session(lst.port)
    assert served.wait(5.0) and time.monotonic() - t0 < 0.5
    assert len(attempts) >= 4
