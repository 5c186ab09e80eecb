"""Mutually authenticated three-message handshake, with PSK-DHE resumption.

Pattern: sign-then-MAC over the running transcript (SIGMA-I style).

    ClientHello   = suite_id(2) || client_random(32) || lp(eph_pub)
                    [ || lp(ticket) || binder(32) ]
    ServerHello   = server_random(32) || lp(eph_pub) || lp(credential)
                    || lp(sig) || fin_mac(32)
    ClientFinish  = lp(credential) || lp(sig) || fin_mac(32)
    NewTicket     = nonce(12) || sealed ticket (server to device, plaintext)

lp(x) is a 16-bit big-endian length prefix followed by x. The server
signs sha256("vl srv" || transcript-before-its-signature); the client
signs sha256("vl cli" || transcript-before-its-signature). Finished MACs
are HMACs of the transcript hash at their point of emission under the
directional finished keys, proving both sides derived the same schedule.
Session keys are bound to the transcript through the expand labels, so
any in-path mutation of any handshake byte diverges the two schedules
and fails a signature or finished-MAC check before Establishment.

The schedule extracts a PRK from shared || psk under the two randoms
(psk is empty in a full handshake, so its bytes are unchanged) and
expands four values: the two finished keys and one record key and nonce
salt, for device-to-server (c2s) records. Records flow only that way;
the server sends its ServerHello, one NewTicket and, on failure, a
plaintext Abort. Sealing that Abort would gain nothing: an on-path
attacker who could forge it could as easily cut the stream, which both
ends classify. A hello that does not parse fails with
`HandshakeError("malformed …Hello: …")`, and an ephemeral key off the
curve with `HandshakeError("<peer> ephemeral invalid: …")`.

Each side runs the same SIGMA steps on its own half, written once in
`_Side`: prove (sign its label || transcript || lp(own credential)),
check the peer's proof (read by `_Reader.take_proof`; decode it, failing
with the peer's credential error as "malformed <frame>: …", then check
its credential in the peer's role against the trust root and its
signature), ECDH, and check the peer's finished MAC. `ClientHandshake`
and `ServerHandshake` add only their frame parsing and where in the key
schedule each step falls.

Resumption (RFC 8446 psk_dhe_ke, §2.2, §4.2.11 and §4.6.1, with the
stateless tickets of RFC 5077). Once established, each side expands a
resumption secret from the PRK over the session id. After ClientFinish
checks out, the server sends a NewTicket: that secret, the issue time and
the device credential's subject and valid_to, 64 bytes sealed with
AES-GCM under a ticket key that never leaves the server process. The
frame can stay plaintext: the ticket is useless without the secret, and
dropping or swapping it only costs the device a full handshake. The
device keeps (ticket, secret, server credential) and offers the ticket
once, unless that server credential has expired (a full handshake would
refuse it), appending lp(ticket) and a binder, HMAC(hkdf_expand(secret,
"vl binder"), hello before the binder), to an otherwise full ClientHello.
The server resumes if the ticket opens, is at most `TICKET_LIFETIME_S`
old, the credential has not expired (`credentials.expired`, as in a full
handshake) and the binder matches. No other check can fail on a ticket
that opens: only this process, whose ticket key is random and never
stored, seals one, after `complete` has checked issuer, signature,
window and device role against a trust root fixed for the process's
life, and whoever could seal under the key could write fields that pass.
The window's start passed before the issue time, before which a ticket
is refused. A resumed session's ticket keeps the issue time of the one it
resumed, so resumptions end a lifetime after the last full handshake. A
resumed ServerHello and ClientFinish keep the layout with an empty
lp(credential) and lp(sig): no signature is made or checked, and the
secret goes into the extract, so each finished MAC proves it. A fresh
ECDH on both sides keeps forward secrecy. Any refusal leaves
`refusal` naming its cause (`BadTicket`, `TicketExpired`, `Expired` or
`BadBinder`) and answers with a full ServerHello on the same connection;
the device, seeing a credential, runs the full handshake.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from typing import NamedTuple

from . import credentials as creds
from . import curves, gcm, kdf
from .credentials import Credential, Role
from .curves import SUITES, CurveSuite, RandomSource
from .errors import (
    AuthFailure,
    BadClientCredential,
    BadFinishedMac,
    BadServerCredential,
    BadTranscriptSignature,
    HandshakeError,
    InvalidPeerKey,
    MalformedFrame,
    MalformedPoint,
    ProtocolStateError,
    UnsupportedSuite,
)

RANDOM_LEN = 32
SIG_LABEL_SERVER = b"vl srv"
SIG_LABEL_CLIENT = b"vl cli"
# How long a ticket resumes a session after it was issued; a device that
# comes back later runs a full handshake.
TICKET_LIFETIME_S = 24 * 3600
# A ticket seals the resumption secret, the issue time, then the device
# credential's subject and valid_to: 64 bytes.
_TICKET = struct.Struct(">32sQ16sQ")
_TICKET_LEN = gcm.NONCE_LEN + _TICKET.size + gcm.TAG_LEN


class Phase(enum.Enum):
    START = "Start"
    AWAIT_SERVER_HELLO = "AwaitServerHello"
    AWAIT_CLIENT_FINISH = "AwaitClientFinish"
    ESTABLISHED = "Established"
    FAILED = "Failed"


class SessionKeys:
    """One session's keys; equal on both sides of it. It has no repr of its
    fields, which are secrets."""

    __slots__ = ("c2s_key", "c2s_salt", "client_fin_key", "server_fin_key", "session_id",
                 "resumption_secret", "prk")

    def __init__(self, c2s_key: bytes, c2s_salt: bytes, client_fin_key: bytes,
                 server_fin_key: bytes, prk: bytes = b""):
        self.c2s_key, self.c2s_salt = c2s_key, c2s_salt
        self.client_fin_key, self.server_fin_key = client_fin_key, server_fin_key
        self.session_id = self.resumption_secret = b""  # set at establishment
        self.prk = prk  # kept only until establishment

    def __eq__(self, other) -> bool:
        return type(other) is SessionKeys and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)


class LocalIdentity(NamedTuple):
    """Static keypair plus the credential vouching for it."""

    static_priv: int
    credential: Credential

    def __repr__(self) -> str:  # without the private key
        return f"LocalIdentity(credential={self.credential!r})"


class Resumption(NamedTuple):
    """What a device keeps from one session to resume its next with the same
    server: the NewTicket body (opaque to it), that session's resumption
    secret, and the server credential it checked then."""

    ticket: bytes
    secret: bytes
    server: Credential

    def __repr__(self) -> str:  # without the secret
        return f"Resumption(ticket={self.ticket!r}, server={self.server!r})"


def derive_session_keys(
    shared: bytes, client_random: bytes, server_random: bytes, transcript_hash: bytes,
    psk: bytes = b"",
) -> SessionKeys:
    prk = kdf.hkdf_extract(client_random + server_random, shared + psk)

    def expand(label: bytes, length: int) -> bytes:
        return kdf.hkdf_expand(prk, label + transcript_hash, length)

    return SessionKeys(
        c2s_key=expand(kdf.LABEL_C2S_KEY, 16),
        c2s_salt=expand(kdf.LABEL_C2S_SALT, 4),
        client_fin_key=expand(kdf.LABEL_C_FIN, kdf.HASH_LEN),
        server_fin_key=expand(kdf.LABEL_S_FIN, kdf.HASH_LEN),
        prk=prk,
    )


def _lp(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError("field too long for 16-bit prefix")
    return struct.pack(">H", len(data)) + data


# a resumed side's lp(credential) || lp(sig)
_NO_PROOF = _lp(b"") + _lp(b"")


def _binder(secret: bytes, hello: bytes) -> bytes:
    """The binder of a resumed ClientHello that reads `hello` before it."""
    return kdf.hmac_sha256(kdf.hkdf_expand(secret, kdf.LABEL_BINDER, kdf.HASH_LEN), hello)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise MalformedFrame("handshake body truncated")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def take_lp(self) -> bytes:
        (n,) = struct.unpack(">H", self.take(2))
        return self.take(n)

    def take_proof(self) -> tuple[bytes, bytes, bytes]:
        """The rest of the body: lp(credential) || lp(sig) || finished MAC."""
        proof = self.take_lp(), self.take_lp(), self.take(kdf.HASH_LEN)
        self.done()
        return proof

    def more(self) -> bool:
        return self.off < len(self.data)

    def done(self) -> None:
        if self.off != len(self.data):
            raise MalformedFrame("trailing bytes in handshake body")


class _Side:
    """The steps both roles share, each written once. A role names its own
    signature label and the peer's label, frame, role, credential error and name;
    it adds only its frame parsing and key schedule."""

    def __init__(
        self,
        identity: LocalIdentity,
        trust_root: Credential,
        suite: CurveSuite,
        rng: RandomSource = os.urandom,
        now: int | None = None,
    ):
        self.identity = identity
        self.trust_root = trust_root
        self.suite = suite
        self.rng = rng
        self.now = now
        self.phase = Phase.START
        self.transcript = bytearray()
        self.eph_priv: int | None = None
        self._keys: SessionKeys | None = None
        self.resumed = False

    def _now(self) -> int:
        return self.now if self.now is not None else int(time.time())

    def _fail(self, exc: HandshakeError):
        self.phase = Phase.FAILED
        self.eph_priv = None
        self._keys = None
        raise exc

    def _expect(self, phase: Phase, step: str) -> None:
        if self.phase is not phase:
            raise ProtocolStateError(f"{step}() in phase {self.phase}")

    def _prove(self, prefix: bytes) -> bytes:
        """lp(credential) || lp(signature over LABEL || prefix || lp(credential))."""
        identity = self.identity
        cred = _lp(identity.credential.encode(self.suite))
        sig = creds.schnorr_sign(
            identity.static_priv, identity.credential.static_pub,
            kdf.hash_(self.LABEL + prefix + cred), self.suite, self.rng,
        )
        return cred + _lp(sig.encode(self.suite))

    def _check_peer(self, cred_bytes: bytes, sig_bytes: bytes, signed: bytes) -> Credential:
        """Decodes the peer's proof, checks the credential in the peer's role, then
        the signature over PEER_LABEL || signed; returns the credential."""
        try:
            cred = creds.credential_decode(cred_bytes, self.suite)
            sig = creds.sig_decode(sig_bytes, self.suite)
        except (creds.MalformedCredential, creds.MalformedSignature) as exc:
            self._fail(self.BadPeerCredential(f"malformed {self.PEER_FRAME}: {exc}"))
        reason = creds.credential_verify(
            cred, self.trust_root, self._now(), self.suite, expected_role=self.PEER_ROLE
        )
        if reason is not None:
            self._fail(self.BadPeerCredential(reason))
        digest = kdf.hash_(self.PEER_LABEL + signed)
        if not creds.schnorr_verify(cred.static_pub, digest, sig, self.suite):
            self._fail(BadTranscriptSignature(f"{self.PEER} transcript signature invalid"))
        return cred

    def _decode_ephemeral(self, data: bytes):
        try:
            return curves.point_decode(data, self.suite)
        except MalformedPoint as exc:
            self._fail(HandshakeError(f"{self.PEER} ephemeral invalid: {exc}"))

    def _shared_secret(self, peer_eph) -> bytes:
        try:
            return curves.shared_secret(self.eph_priv, peer_eph, self.suite)
        except InvalidPeerKey as exc:
            self._fail(HandshakeError(f"{self.PEER} ephemeral invalid: {exc}"))

    def _check_finished(self, key: bytes, digest: bytes, mac: bytes) -> None:
        if not kdf.compare_digest(kdf.hmac_sha256(key, digest), mac):
            self._fail(BadFinishedMac(f"{self.PEER} finished MAC mismatch"))

    def _establish(self, frame: bytes, keys: SessionKeys) -> SessionKeys:
        self.transcript += frame
        keys.session_id = kdf.hash_(bytes(self.transcript))
        keys.resumption_secret = kdf.hkdf_expand(
            keys.prk, kdf.LABEL_RESUMPTION + keys.session_id, kdf.HASH_LEN)
        keys.prk = b""
        self._keys = keys
        self.eph_priv = None
        self.phase = Phase.ESTABLISHED
        return keys


class ClientHandshake(_Side):
    LABEL, PEER_LABEL, PEER_FRAME = SIG_LABEL_CLIENT, SIG_LABEL_SERVER, "ServerHello"
    PEER_ROLE, BadPeerCredential, PEER = Role.SERVER, BadServerCredential, "server"

    def __init__(self, suite: CurveSuite, identity: LocalIdentity, trust_root: Credential,
                 rng: RandomSource = os.urandom, now: int | None = None,
                 resumption: Resumption | None = None):
        super().__init__(identity, trust_root, suite, rng, now)
        self.client_random = b""
        self.resumption = resumption  # offered in the ClientHello when given
        self.server_credential: Credential | None = None

    def start(self) -> bytes:
        self._expect(Phase.START, "start")
        self.client_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(self.suite, self.rng)
        eph_bytes = curves.point_encode(eph_pub, self.suite)
        body = struct.pack(">H", self.suite.suite_id) + self.client_random + _lp(eph_bytes)
        if self.resumption and creds.expired(self.resumption.server.valid_to, self._now()):
            self.resumption = None  # a full handshake refuses that credential
        if self.resumption is not None:
            body += _lp(self.resumption.ticket)
            body += _binder(self.resumption.secret, body)
        self.transcript += body
        self.phase = Phase.AWAIT_SERVER_HELLO
        return body

    def finish(self, server_hello: bytes) -> tuple[bytes, SessionKeys]:
        self._expect(Phase.AWAIT_SERVER_HELLO, "finish")
        try:
            r = _Reader(server_hello)
            server_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            cred_bytes, sig_bytes, fin_mac = r.take_proof()
        except MalformedFrame as exc:
            self._fail(HandshakeError(f"malformed ServerHello: {exc}"))
        server_eph = self._decode_ephemeral(eph_pub_bytes)
        signed = bytes(self.transcript) + server_random + _lp(eph_pub_bytes) + _lp(cred_bytes)
        # an offered ticket is accepted by a ServerHello that proves nothing
        resumed = self.resumption is not None and not cred_bytes and not sig_bytes
        if resumed:
            server_cred, psk = self.resumption.server, self.resumption.secret
        else:
            server_cred, psk = self._check_peer(cred_bytes, sig_bytes, signed), b""
        shared = self._shared_secret(server_eph)
        th = kdf.hash_(signed + _lp(sig_bytes))
        keys = derive_session_keys(shared, self.client_random, server_random, th, psk)
        self._check_finished(keys.server_fin_key, th, fin_mac)

        self.transcript += server_hello
        prefix = bytes(self.transcript)
        proof = _NO_PROOF if resumed else self._prove(prefix)
        body = proof + kdf.hmac_sha256(keys.client_fin_key, kdf.hash_(prefix + proof))
        self.resumed, self.server_credential = resumed, server_cred
        return body, self._establish(body, keys)

    def resumption_for(self, ticket: bytes) -> Resumption:
        """What to keep from the NewTicket body `ticket` of this session."""
        self._expect(Phase.ESTABLISHED, "resumption_for")
        return Resumption(ticket, self._keys.resumption_secret, self.server_credential)


class ServerHandshake(_Side):
    LABEL, PEER_LABEL, PEER_FRAME = SIG_LABEL_SERVER, SIG_LABEL_CLIENT, "ClientFinish"
    PEER_ROLE, BadPeerCredential, PEER = Role.DEVICE, BadClientCredential, "client"

    def __init__(self, identity: LocalIdentity, trust_root: Credential, suite: CurveSuite,
                 rng: RandomSource = os.urandom, now: int | None = None,
                 ticket_key: gcm.GcmKey | None = None):
        super().__init__(identity, trust_root, suite, rng, now)
        self.ticket_key = ticket_key  # seals and opens tickets; without one none resumes
        self.refusal: str | None = None  # why an offered ticket did not resume
        self._claims: tuple | None = None  # ticket issue time, device subject, valid_to

    def respond(self, client_hello: bytes) -> bytes:
        self._expect(Phase.START, "respond")
        try:
            r = _Reader(client_hello)
            (suite_id,) = struct.unpack(">H", r.take(2))
            client_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            offer = (r.take_lp(), r.take(kdf.HASH_LEN)) if r.more() else None
            r.done()
        except MalformedFrame as exc:
            self._fail(HandshakeError(f"malformed ClientHello: {exc}"))
        suite = SUITES.get(suite_id)
        if suite is None or suite is not self.suite:
            # the server's identity lives on exactly one curve
            self._fail(UnsupportedSuite(f"suite_id 0x{suite_id:04x}"))
        client_eph = self._decode_ephemeral(eph_pub_bytes)
        psk = b"" if offer is None else self._resume(client_hello, *offer)
        self.resumed = bool(psk)

        self.transcript += client_hello
        server_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(suite, self.rng)
        hello = server_random + _lp(curves.point_encode(eph_pub, suite))
        prefix = bytes(self.transcript) + hello
        proof = _NO_PROOF if self.resumed else self._prove(prefix)
        shared = self._shared_secret(client_eph)
        th = kdf.hash_(prefix + proof)
        self._keys = derive_session_keys(shared, client_random, server_random, th, psk)

        body = hello + proof + kdf.hmac_sha256(self._keys.server_fin_key, th)
        self.transcript += body
        self.eph_priv = None
        self.phase = Phase.AWAIT_CLIENT_FINISH
        return body

    def _resume(self, client_hello: bytes, ticket: bytes, binder: bytes) -> bytes:
        """The secret of an offered ticket that resumes, or b"" with `refusal`
        naming why it does not."""
        try:
            if self.ticket_key is None or len(ticket) != _TICKET_LEN:
                raise AuthFailure()  # no other ticket opens
            secret, issued, subject, valid_to = _TICKET.unpack(gcm.open_(
                self.ticket_key, ticket[: gcm.NONCE_LEN], b"", ticket[gcm.NONCE_LEN :]))
        except AuthFailure:
            self.refusal = "BadTicket"
            return b""
        now = self._now()
        if not 0 <= now - issued <= TICKET_LIFETIME_S:
            self.refusal = "TicketExpired"
        elif creds.expired(valid_to, now):
            self.refusal = creds.EXPIRED
        elif not kdf.compare_digest(_binder(secret, client_hello[: -kdf.HASH_LEN]), binder):
            self.refusal = "BadBinder"
        else:
            self._claims = (issued, subject, valid_to)  # the chain keeps its issue time
            return secret
        return b""

    def complete(self, client_finish: bytes) -> tuple[SessionKeys, bytes]:
        self._expect(Phase.AWAIT_CLIENT_FINISH, "complete")
        try:
            cred_bytes, sig_bytes, fin_mac = _Reader(client_finish).take_proof()
            if self.resumed and (cred_bytes or sig_bytes):
                raise MalformedFrame("a proof in a resumed session")
        except MalformedFrame as exc:
            self._fail(BadClientCredential(f"malformed {self.PEER_FRAME}: {exc}"))

        signed = bytes(self.transcript) + _lp(cred_bytes)
        if not self.resumed:
            client_cred = self._check_peer(cred_bytes, sig_bytes, signed)
            self._claims = (self._now(), client_cred.subject_id, client_cred.valid_to)
        self._check_finished(
            self._keys.client_fin_key, kdf.hash_(signed + _lp(sig_bytes)), fin_mac
        )
        return self._establish(client_finish, self._keys), self._claims[1]

    def new_ticket(self) -> bytes:
        """The NewTicket body of this established session, sealed under the
        ticket key with a fresh nonce."""
        self._expect(Phase.ESTABLISHED, "new_ticket")
        nonce = self.rng(gcm.NONCE_LEN)
        plain = _TICKET.pack(self._keys.resumption_secret, *self._claims)
        return nonce + gcm.seal(self.ticket_key, nonce, b"", plain)
