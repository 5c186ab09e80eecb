"""Prices the listener loop at 0, 64 and 500 idle peers: the CPU time the
loop's thread spends per event, and per deadline that passes, printed as
JSON. It needs nothing but the package:

    PYTHONPATH=src python tests/loop_cost.py

Steps, at each size: start a `Listener` in the process whose handler
echoes each frame and gives each connection a deadline an hour off, as a
held session has; connect the idle peers, which send nothing, and one
more peer that sends a 35-byte frame and reads its echo, `ROUND_TRIPS`
times. Each round trip is one event, so one round of the loop. Then that
peer sends a `TICK` frame: its handler moves its deadline `TICK_S` on,
`TICKS` times in a row, each time it passes, and then echoes the frame,
so each tick is one passed deadline among the held peers. The loop
thread's CPU clock is read around both. Peers are plain sockets on the
calling thread: no thread is started but the loop's. For 500 peers it
raises the soft descriptor limit as the tier-1 test of descriptors past
1024 does, and restores it after. Tier-1 runs none of it.
"""

import json
import resource
import socket
import statistics
import sys
import time
from math import inf

from vitalink.errors import EndOfStream
from vitalink.listener import Listener
from vitalink.records import TYPE_DATA, Frame, FrameReader, frame_read

SIZES = (0, 64, 500)
ROUND_TRIPS = 2000
TICKS = 500
TICK_S = 0.001
REPEATS = 5
WIRE = Frame(TYPE_DATA, bytes(35)).encode()  # a one-reading record's size
TICK = Frame(TYPE_DATA, b"tick")


def echo(conn) -> None:
    now = time.monotonic()
    if conn.deadline == inf:  # accepted
        conn.deadline = now + 3600.0
    elif conn.deadline <= now:  # a tick
        conn.reader.end, conn.state = None, conn.state - 1
        conn.deadline = now + (TICK_S if conn.state else 3600.0)
        if not conn.state:
            conn.sock.sendall(TICK.encode())
    try:
        while (frame := conn.reader.read()) is not None:
            if frame == TICK:
                conn.state, conn.deadline = TICKS, now + TICK_S
            else:
                conn.sock.sendall(frame.encode())
    except EndOfStream:
        conn.close()


def us_per(idle: int) -> tuple[float, float]:
    """The loop thread's median CPU µs per round trip and per tick, over
    `REPEATS` runs."""
    lst = Listener("127.0.0.1", 0, echo)
    lst.start()
    clock = time.pthread_getcpuclockid(lst._thread.ident)
    peers = []
    try:
        for _ in range(idle + 1):
            peers.append(socket.create_connection(("127.0.0.1", lst.port)))
        deadline = time.monotonic() + 10.0
        while len(lst._conns) < idle + 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(lst._conns) == idle + 1
        pinger, reader = peers[-1], FrameReader(peers[-1])
        events, ticks = [], []
        for _ in range(REPEATS):
            cpu0 = time.clock_gettime(clock)
            for _ in range(ROUND_TRIPS):
                pinger.sendall(WIRE)
                frame_read(reader, timeout=5.0)
            cpu1 = time.clock_gettime(clock)
            pinger.sendall(TICK.encode())
            assert frame_read(reader, timeout=10.0) == TICK
            events.append((cpu1 - cpu0) / ROUND_TRIPS * 1e6)
            ticks.append((time.clock_gettime(clock) - cpu1) / TICKS * 1e6)
        return statistics.median(events), statistics.median(ticks)
    finally:
        for peer in peers:
            peer.close()
        lst.stop()


def main() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 2 * max(SIZES) + 64  # both ends of every peer, and some to spare
    if soft < want:
        if hard != resource.RLIM_INFINITY and hard < want:
            sys.exit(f"the hard limit of {hard} descriptors is too low")
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    try:
        result = {str(n): [round(us, 2) for us in us_per(n)] for n in SIZES}
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    print(json.dumps({
        "python": ".".join(map(str, sys.version_info[:3])),
        "round_trips": ROUND_TRIPS,
        "ticks": TICKS,
        "loop_cpu_us_per_event_by_idle_peers": {n: r[0] for n, r in result.items()},
        "loop_cpu_us_per_passed_deadline_by_idle_peers": {n: r[1] for n, r in result.items()},
    }))


if __name__ == "__main__":
    main()
