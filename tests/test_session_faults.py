"""One mutated Data or Close frame, fed to `IngestionServer._handle` over a
socketpair after a live handshake on the toy suite. Whatever the mutation,
the session must end in exactly one classified outcome: the readings before
the mutated frame persisted and none after, an Abort back to the device,
one log line naming the cause, and no exception out of the handler."""

import logging
import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink import keyfiles
from vitalink.endpoints import IngestionServer, ServerConfig, parse_reading_line
from vitalink.handshake import ClientHandshake
from vitalink.records import (
    FRAME_TYPES,
    TYPE_ABORT,
    TYPE_CLIENT_FINISH,
    TYPE_CLIENT_HELLO,
    TYPE_CLOSE,
    TYPE_DATA,
    DirectionState,
    Frame,
    _RECORDS_BEFORE_BATCH,
    frame_read,
    frame_write,
    record_seal,
)
from vitalink.telemetry import SensorSim, reading_encode

CLASSIFIED = ("record_auth_failure ", "session_fatal ", "suspicious_termination ")
MUTATIONS = ("flip", "truncate", "swap_type", "drop")


class Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def mutate(raw: bytes, mutation: str, draw) -> list[bytes]:
    """The frames that go on the wire in place of `raw`."""
    if mutation == "flip":  # any bit of the header or the body
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        return [bytes(flipped)]
    if mutation == "truncate":
        return [raw[: draw(st.integers(0, len(raw) - 1))]]
    if mutation == "swap_type":
        # an injected Abort is a peer abort, not a forgery: the server ends the
        # session without answering, so it is left out here
        other = sorted(FRAME_TYPES - {raw[3], TYPE_ABORT})
        return [raw[:3] + bytes([draw(st.sampled_from(other))]) + raw[4:]]
    return []  # dropped


def test_one_mutated_record_ends_in_one_classified_outcome(toy_pki, tmp_path):
    toy_pki.write_files(tmp_path)
    server = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store"),
        read_timeout_s=5.0,
    ))
    lines = Lines()
    logger = logging.getLogger("vitalink")
    logger.addHandler(lines)
    old_level = logger.level
    logger.setLevel(logging.INFO)

    @settings(max_examples=80, deadline=None)
    @given(
        readings=st.integers(_RECORDS_BEFORE_BATCH + 1, 3 * _RECORDS_BEFORE_BATCH),
        mutation=st.sampled_from(MUTATIONS),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def session(readings, mutation, seed, data):
        target = data.draw(st.integers(0, readings), label="target")  # readings: the Close
        lines.records.clear()
        device, server_end = socket.socketpair()
        escaped = []

        def handle():
            try:
                server._handle(server_end, ("socketpair", 0))
            except Exception as exc:  # the property: nothing gets here
                escaped.append(exc)

        handler = threading.Thread(target=handle)
        handler.start()
        try:
            hs = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                                 rng=keyfiles.drbg(seed))
            frame_write(device, Frame(TYPE_CLIENT_HELLO, hs.start()))
            finish, keys = hs.finish(frame_read(device, timeout=5.0).body)
            frame_write(device, Frame(TYPE_CLIENT_FINISH, finish))
            tx = DirectionState(keys.c2s_key, keys.c2s_salt)
            sim = SensorSim(toy_pki.device_cred.subject_id[:8], seed=seed)
            wire = [record_seal(tx, TYPE_DATA, reading_encode(sim.next_reading(1000 * i)))
                    .encode() for i in range(readings)]
            wire.append(record_seal(tx, TYPE_CLOSE, b"").encode())
            wire[target : target + 1] = mutate(wire[target], mutation, data.draw)
            try:
                device.sendall(b"".join(wire))
                device.shutdown(socket.SHUT_WR)
            except OSError:  # the server may have hung up already
                pass
            reply = frame_read(device, timeout=5.0)
        finally:
            device.close()
            handler.join(timeout=10.0)
        assert not handler.is_alive() and escaped == []
        assert reply.frame_type == TYPE_ABORT
        problems = [r.getMessage() for r in lines.records if r.levelno >= logging.WARNING]
        assert len(problems) == 1 and problems[0].startswith(CLASSIFIED), problems
        session_hex = keys.session_id.hex()
        persisted = [rec for rec in map(parse_reading_line,
                                        (tmp_path / "store" / "readings.log").read_text()
                                        .splitlines())
                     if rec.session_id == session_hex]
        assert len(persisted) == target

    try:
        session()
    finally:
        logger.removeHandler(lines)
        logger.setLevel(old_level)
        server.stop()
