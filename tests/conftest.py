import errno
import os
import select
import shlex
import threading
import time
from dataclasses import replace

import pytest

from vitalink import credentials as creds
from vitalink import curves, endpoints, gcm, handshake, keyfiles
from vitalink.credentials import Role
from vitalink.handshake import LocalIdentity


class Pki:
    """A trust root plus one server and one device identity on one suite."""

    def __init__(self, suite, seed=4242):
        rng = keyfiles.drbg(seed)
        self.suite = suite
        self.now = int(time.time())
        nb, na = self.now - 3600, self.now + 7 * 86400

        self.root_priv, root_pub = curves.keypair_gen(suite, rng)
        self.root_sub = creds.encode_subject("root")
        self.root = creds.credential_issue(
            self.root_priv, self.root_sub, Role.ISSUER, root_pub, nb, na,
            self.root_sub, suite, rng,
        )

        sd, sq = curves.keypair_gen(suite, rng)
        self.server_cred = creds.credential_issue(
            self.root_priv, creds.encode_subject("server-1"), Role.SERVER,
            sq, nb, na, self.root_sub, suite, rng,
        )
        self.server = LocalIdentity(sd, self.server_cred)

        dd, dq = curves.keypair_gen(suite, rng)
        self.device_cred = creds.credential_issue(
            self.root_priv, creds.encode_subject("watch-1"), Role.DEVICE,
            dq, nb, na, self.root_sub, suite, rng,
        )
        self.device = LocalIdentity(dd, self.device_cred)

    def issue_device(self, name, rng):
        dd, dq = curves.keypair_gen(self.suite, rng)
        cred = creds.credential_issue(
            self.root_priv, creds.encode_subject(name), Role.DEVICE, dq,
            self.now - 3600, self.now + 7 * 86400, self.root_sub, self.suite, rng,
        )
        return LocalIdentity(dd, cred)

    def device_with_raw_subject(self, raw):
        """A device identity signed by the root whose subject field is `raw`
        padded with NUL, past the checks `credential_issue` makes."""
        device = self.issue_device("placeholder", keyfiles.drbg(88))
        cred = replace(device.credential, subject_id=raw.ljust(creds.SUBJECT_LEN, b"\x00"))
        sig = creds.schnorr_sign(self.root_priv, self.root.static_pub, cred.tbs(self.suite),
                                 self.suite, keyfiles.drbg(89))
        return LocalIdentity(device.static_priv, replace(cred, signature=sig))

    def write_files(self, directory):
        suite = self.suite
        keyfiles.write_credential(directory / "root.vlc", self.root, suite)
        keyfiles.write_private_key(directory / "server.vlk", self.server.static_priv, suite)
        keyfiles.write_credential(directory / "server.vlc", self.server_cred, suite)
        keyfiles.write_private_key(directory / "device.vlk", self.device.static_priv, suite)
        keyfiles.write_credential(directory / "device.vlc", self.device_cred, suite)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fails a test that leaves a thread it started alive 2 s after it ends,
    such as a listener worker that `stop()` did not join."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    while left := [t for t in threading.enumerate() if t not in before]:
        if time.monotonic() > deadline:
            pytest.fail(f"threads outlived the test: {left}")
        time.sleep(0.01)


@pytest.fixture(autouse=True)
def cold_credential_memo():
    """Every test starts with no signature check remembered, so that counts
    of signature checks do not depend on the order tests run in."""
    creds._issued_by.cache_clear()


@pytest.fixture(autouse=True)
def no_device_tickets():
    """Every test starts with no ticket kept by `run_device`, so that whether
    a session resumes does not depend on the order tests run in."""
    endpoints._TICKETS.clear()


@pytest.fixture()
def verifies(monkeypatch):
    """The arguments of every Schnorr check made through `credentials`, which
    is where both `credential_verify` and the handshake call it."""
    calls = []
    real = creds.schnorr_verify

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(creds, "schnorr_verify", counting)
    return calls


@pytest.fixture(scope="session")
def pki():
    return Pki(curves.P256)


@pytest.fixture(scope="session")
def toy_pki():
    return Pki(curves.TOY)


# Kinds of trust root that a server or device must refuse at startup;
# `bad_root` builds each.
BAD_ROOTS = ("expired", "not_an_issuer", "names_another_issuer", "signed_by_another_key",
             "foreign")


def bad_root(pki, kind):
    """A trust root of `kind` for `pki`'s server and device credentials."""
    suite, rng = pki.suite, keyfiles.drbg(77)
    if kind == "foreign":  # valid, but not the root that issued them
        return Pki(suite, seed=999).root
    key, sub, role = pki.root_priv, pki.root_sub, Role.ISSUER
    valid_to, issuer = pki.now + 86400, pki.root_sub
    if kind == "expired":
        valid_to = pki.now - 86400
    elif kind == "not_an_issuer":
        role = Role.SERVER
    elif kind == "names_another_issuer":
        issuer = creds.encode_subject("other-root")
    elif kind == "signed_by_another_key":
        key = curves.keypair_gen(suite, rng)[0]
    else:
        raise ValueError(kind)
    return creds.credential_issue(key, sub, role, pki.root.static_pub, pki.now - 7 * 86400,
                                  valid_to, issuer, suite, rng)


def forged_ticket(key, secret, pki, cause, now) -> bytes:
    """A ticket for `pki`'s device sealed under `key`, a server's own ticket
    key, whose fields fail `cause` at `now` (none for any other cause)."""
    cred = pki.device_cred
    issued, valid_to = now, cred.valid_to
    if cause == "TicketExpired":
        issued = now - handshake.TICKET_LIFETIME_S - 1
    elif cause == "Expired":
        valid_to = now - 86400
    plain = handshake._TICKET.pack(secret, issued, cred.subject_id, valid_to)
    nonce = os.urandom(12)
    return nonce + gcm.seal(key, nonce, b"", plain)


class FullDisk:
    """An unbuffered log file on a full disk: every write fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def close(self):
        self.fh.close()


def count_polls(monkeypatch, thread=None) -> list:
    """Stands in for `select.poll` with poll objects that add the arguments
    of each wait made on `thread` (on any, by default) to the list returned:
    a poll object takes no new attributes, so its waits are counted here."""
    waits, real_poll = [], select.poll

    class CountingPoll:
        def __init__(self):
            self._poll = real_poll()
            self.register = self._poll.register

        def poll(self, *args):
            if thread is None or threading.current_thread() is thread:
                waits.append(args)
            return self._poll.poll(*args)

    monkeypatch.setattr(select, "poll", CountingPoll)
    return waits


def fields(line: str) -> tuple[str, dict]:
    """The event name and `key=value` fields of one log line."""
    event, *pairs = shlex.split(line)
    assert all("=" in p for p in pairs), line
    return event, dict(p.split("=", 1) for p in pairs)


# the events of a connection's one terminal line, and that line's fields
ENDINGS = ("session_closed", "peer_abort", "handshake_failed", "record_auth_failure",
           "session_fatal", "suspicious_termination", "connection_error")
TERMINAL_FIELDS = ["cause", "detail", "session", "handshake", "readings", "alerts", "cpu_ms",
                   "wall_ms", "peer"]


def terminal(line: str) -> tuple[str, dict]:
    """The event and fields of a terminal line, which must have exactly the
    fields of the one format, in order. Its two times are checked and
    dropped."""
    event, pairs = fields(line)
    assert event in ENDINGS and list(pairs) == TERMINAL_FIELDS, line
    assert float(pairs.pop("cpu_ms")) >= 0 and float(pairs.pop("wall_ms")) >= 0, line
    return event, pairs


def terminal_lines(messages) -> list:
    """`terminal` of each of `messages` that is a terminal line."""
    return [terminal(m) for m in messages if m.split(" ", 1)[0] in ENDINGS]
