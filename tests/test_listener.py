"""The shared listener core, one event loop: held peers cost no thread,
each idle peer ends once at its deadline, a handler runs at its current
deadline only and reads a `FrameTimeout` there, the loop sleeps until the
next deadline once one has passed, stop ends every connection through its
handler, a handler's error stays with its connection, and an accept() out
of resources pauses."""

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
from math import inf
from pathlib import Path

import pytest

from vitalink import listener, records
from vitalink.endpoints import DeviceConfig, IngestionServer, ServerConfig, run_device
from vitalink.errors import EndOfStream, FrameTimeout
from vitalink.handshake import ClientHandshake
from vitalink.listener import Listener
from vitalink.records import (TYPE_ABORT, TYPE_CLIENT_HELLO, TYPE_SERVER_HELLO, Frame,
                              FrameReader, frame_read, frame_write)

from conftest import terminal_lines

SRC = Path(__file__).resolve().parents[1] / "src"


def make_server(files, store):
    srv = IngestionServer(ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(store),
    ))
    srv.start()
    return srv


@pytest.fixture()
def server(pki, tmp_path):
    pki.write_files(tmp_path)
    srv = make_server(tmp_path, tmp_path / "store")
    yield srv
    srv.stop()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def held(srv) -> int:
    """The connections the server's loop holds open."""
    return len(srv._listener._conns)


def test_stop_cuts_an_idle_peer_promptly_and_logs_it(server, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    peer = socket.create_connection(("127.0.0.1", server.port))
    try:
        assert wait_for(lambda: held(server) == 1)  # the loop has accepted the peer
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


def test_held_peers_cost_no_thread_and_the_next_peer_is_served(server, tmp_path):
    before = threading.active_count()
    peers = [socket.create_connection(("127.0.0.1", server.port)) for _ in range(32)]
    try:
        # connections are accepted in order, so all 32 are held by the time
        # a 33rd peer's session is done
        report = run_device(DeviceConfig(
            server_port=server.port, key_path=str(tmp_path / "device.vlk"),
            cred_path=str(tmp_path / "device.vlc"), root_path=str(tmp_path / "root.vlc"),
            count=5, seed=7))
        assert report.error is None and report.sent_count == 5
        assert threading.active_count() == before
        assert held(server) == 32
    finally:
        for peer in peers:
            peer.close()


def test_each_idle_peer_ends_once_at_its_deadline(toy_pki, tmp_path, monkeypatch, caplog):
    toy_pki.write_files(tmp_path)
    monkeypatch.setattr(records, "READ_TIMEOUT_S", 0.3)
    caplog.set_level(logging.INFO, logger="vitalink")
    srv = make_server(tmp_path, tmp_path / "store")
    peers = [socket.create_connection(("127.0.0.1", srv.port)) for _ in range(32)]
    names = sorted("127.0.0.1:%d" % peer.getsockname()[1] for peer in peers)
    try:
        for peer in peers:  # an Abort, then the hang-up
            reader = FrameReader(peer)
            assert frame_read(reader, timeout=5.0).frame_type == TYPE_ABORT
            with pytest.raises(EndOfStream):
                frame_read(reader, timeout=5.0)
        time.sleep(0.5)  # past a second deadline, which no peer may have
        lines = terminal_lines(r.getMessage() for r in caplog.records)
    finally:
        srv.stop()
        for peer in peers:
            peer.close()
    assert sorted(pairs["peer"] for _, pairs in lines) == names
    assert {(event, pairs["cause"]) for event, pairs in lines} == {
        ("session_fatal", "FrameTimeout")}


def test_stop_ends_each_peer_mid_handshake_once(pki, server, caplog):
    caplog.set_level(logging.INFO, logger="vitalink")
    peers = [socket.create_connection(("127.0.0.1", server.port)) for _ in range(4)]
    try:
        for peer in peers:
            frame_write(peer, Frame(TYPE_CLIENT_HELLO,
                                    ClientHandshake(pki.suite, pki.device, pki.root).start()))
            assert frame_read(FrameReader(peer), timeout=30.0).frame_type == TYPE_SERVER_HELLO
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
    finally:
        for peer in peers:
            peer.close()
    lines = terminal_lines(r.getMessage() for r in caplog.records)
    assert [(event, pairs["handshake"]) for event, pairs in lines] == [
        ("suspicious_termination", "-")] * 4


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
        started[-1].start()
        return started[-1]

    yield start
    for lst in started:
        lst.stop()


def session(port):
    """One connection that ends when the server closes it."""
    with socket.create_connection(("127.0.0.1", port)) as peer:
        peer.settimeout(5.0)
        assert peer.recv(1) == b""


def test_every_connection_is_served_on_the_loops_one_thread(listen):
    tids = []

    def handle(conn):
        tids.append(threading.get_native_id())
        conn.close()

    lst = listen(handle)
    for _ in range(200):
        session(lst.port)
    assert len(tids) == 200
    assert set(tids) == {lst._thread.native_id}


def echo(conn):
    """Sends back each frame that arrives, and closes at the end of the stream."""
    try:
        while (frame := conn.reader.read()) is not None:
            conn.sock.sendall(frame.encode())
    except EndOfStream:
        conn.close()


def test_concurrent_idle_peers_are_all_served_at_once(listen):
    lst = listen(echo)
    peers = [socket.create_connection(("127.0.0.1", lst.port)) for _ in range(8)]
    try:
        for i, peer in reversed(list(enumerate(peers))):  # none waits for another
            frame = Frame(TYPE_ABORT, bytes([i]))
            frame_write(peer, frame)
            assert frame_read(FrameReader(peer), timeout=5.0) == frame
    finally:
        for peer in peers:
            peer.close()


def test_stop_with_idle_peers_returns_at_once(listen):
    lst = listen(echo)
    peers = [socket.create_connection(("127.0.0.1", lst.port)) for _ in range(4)]
    try:
        assert wait_for(lambda: len(lst._conns) == 4)
        t0 = time.monotonic()
        lst.stop()
        assert time.monotonic() - t0 < 0.1
        assert not lst._thread.is_alive() and not lst._conns
        for peer in peers:  # the echo handler closed each at the end of its stream
            peer.settimeout(5.0)
            assert peer.recv(1) == b""
    finally:
        for peer in peers:
            peer.close()


def test_a_handler_runs_at_its_current_deadline_not_one_it_has_moved(listen):
    calls, ends = [], []

    def handle(conn):
        calls.append(time.monotonic())
        if len(calls) == 1:  # accepted
            conn.deadline = calls[0] + 0.3
        elif len(calls) == 2:  # a partial frame arrived
            conn.deadline = calls[0] + 0.6
        else:
            try:
                conn.reader.read()
            except FrameTimeout as exc:
                ends.append(str(exc))
            conn.close()

    lst = listen(handle)
    with socket.create_connection(("127.0.0.1", lst.port)) as peer:
        time.sleep(0.05)
        peer.sendall(Frame(TYPE_ABORT, b"").encode()[:3])
        peer.settimeout(5.0)
        assert peer.recv(1) == b""  # closed at the third call
    assert len(calls) == 3 and calls[2] - calls[0] >= 0.6
    assert ends == ["frame incomplete at its deadline"]


def test_the_loop_sleeps_until_the_next_deadline_once_one_has_passed(listen):
    rounds, moved = [], threading.Event()

    def handle(conn):
        if conn.deadline == inf:  # accepted
            conn.deadline = time.monotonic() + 0.1
        elif conn.deadline <= time.monotonic():
            conn.reader.end, conn.deadline = None, time.monotonic() + 3600.0
            moved.set()

    lst = listen(handle)
    select = lst._selector.select
    lst._selector.select = lambda timeout=None: rounds.append(timeout) or select(timeout)
    with socket.create_connection(("127.0.0.1", lst.port)):
        assert moved.wait(5.0)
        time.sleep(0.3)
        assert len(rounds) < 10 and rounds[-1] > 3000  # no polling at a passed deadline


def test_a_handler_that_raises_is_logged_and_the_next_connection_served(listen, caplog,
                                                                        monkeypatch):
    caplog.set_level(logging.ERROR, logger="vitalink")
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    served = threading.Event()
    calls = []

    def handle(conn):
        calls.append(conn)
        if len(calls) == 1:
            raise RuntimeError("handler bug")
        served.set()
        conn.close()

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
    lst = listen(lambda conn: conn.close())
    # the queued connection keeps the listening socket readable
    with socket.create_connection(("127.0.0.1", lst.port)):
        assert wait_for(lambda: len(attempts) >= 2)  # the pause ended on its timer
        assert attempts[1] - attempts[0] >= 0.95 * listener._ACCEPT_RETRY_S  # not a busy loop
        t0 = time.monotonic()
        lst.stop()  # ends the pause at once
        assert time.monotonic() - t0 < 0.5
    assert not lst._thread.is_alive()
    assert {r.getMessage() for r in caplog.records} == {
        f"accept_failed cause={errno.errorcode[code]}"}


def test_any_other_accept_failure_is_retried_at_once(listen, monkeypatch):
    # such as a peer that reset before accept() returned: pausing there
    # would let any peer stall the listener
    attempts = failing_accept(monkeypatch, errno.ECONNABORTED, times=3)
    served = threading.Event()

    def handle(conn):
        served.set()
        conn.close()

    lst = listen(handle)
    t0 = time.monotonic()
    session(lst.port)
    assert served.wait(5.0) and time.monotonic() - t0 < 0.5
    assert len(attempts) >= 4
