"""Mutually authenticated three-message handshake.

Pattern: sign-then-MAC over the running transcript (SIGMA-I style).

    ClientHello   = suite_id(2) || client_random(32) || lp(eph_pub)
    ServerHello   = server_random(32) || lp(eph_pub) || lp(credential)
                    || lp(sig) || fin_mac(32)
    ClientFinish  = lp(credential) || lp(sig) || fin_mac(32)

lp(x) is a 16-bit big-endian length prefix followed by x. The server
signs sha256("vl srv" || transcript-before-its-signature); the client
signs sha256("vl cli" || transcript-before-its-signature). Finished MACs
are HMACs of the transcript hash at their point of emission under the
directional finished keys, proving both sides derived the same schedule.
Session keys are bound to the transcript through the expand labels, so
any in-path mutation of any handshake byte diverges the two schedules
and fails a signature or finished-MAC check before Establishment.

The schedule expands four values: the two finished keys and one record
key and nonce salt, for device-to-server (c2s) records. Records flow
only that way; the server sends just its ServerHello and, on failure, a
plaintext Abort. Sealing that Abort would gain nothing: an on-path
attacker who could forge it could as easily cut the stream, which both
ends classify. A hello that does not parse fails with
`HandshakeError("malformed …Hello: …")`, and an ephemeral key off the
curve with `HandshakeError("<peer> ephemeral invalid: …")`.

Each side runs the same SIGMA steps on its own half, written once in
`_Side`: prove (sign its label || transcript || lp(own credential)),
check the peer (credential in the peer's role against the trust root,
then the peer's signature), ECDH, and check the peer's finished MAC.
`ClientHandshake` and `ServerHandshake` add only their frame parsing
and where in the key schedule each step falls.
"""

from __future__ import annotations

import enum
import hmac
import os
import struct
import time
from dataclasses import dataclass

from . import credentials as creds
from . import curves, kdf
from .credentials import Credential, Role
from .curves import SUITES, CurveSuite, RandomSource
from .errors import (
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


class Phase(enum.Enum):
    START = "Start"
    AWAIT_SERVER_HELLO = "AwaitServerHello"
    AWAIT_CLIENT_FINISH = "AwaitClientFinish"
    ESTABLISHED = "Established"
    FAILED = "Failed"


@dataclass
class SessionKeys:
    c2s_key: bytes
    c2s_salt: bytes
    client_fin_key: bytes
    server_fin_key: bytes
    session_id: bytes = b""


@dataclass(frozen=True)
class LocalIdentity:
    """Static keypair plus the credential vouching for it."""

    static_priv: int
    credential: Credential


def derive_session_keys(
    shared: bytes, client_random: bytes, server_random: bytes, transcript_hash: bytes
) -> SessionKeys:
    prk = kdf.hkdf_extract(client_random + server_random, shared)

    def expand(label: bytes, length: int) -> bytes:
        return kdf.hkdf_expand(prk, label + transcript_hash, length)

    return SessionKeys(
        c2s_key=expand(kdf.LABEL_C2S_KEY, 16),
        c2s_salt=expand(kdf.LABEL_C2S_SALT, 4),
        client_fin_key=expand(kdf.LABEL_C_FIN, 32),
        server_fin_key=expand(kdf.LABEL_S_FIN, 32),
    )


def _lp(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError("field too long for 16-bit prefix")
    return struct.pack(">H", len(data)) + data


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

    def done(self) -> None:
        if self.off != len(self.data):
            raise MalformedFrame("trailing bytes in handshake body")


class _Side:
    """The steps both roles share, each written once. A role names its own
    signature label and the peer's label, role, credential error and name;
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
        self.peer_identity: bytes | None = None

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

    def _check_peer(self, cred: Credential, sig: creds.SchnorrSig, signed: bytes) -> None:
        """The peer's credential in its role, then its signature over
        PEER_LABEL || signed, where signed ends in lp(credential)."""
        now = self.now if self.now is not None else int(time.time())
        reason = creds.credential_verify(
            cred, self.trust_root, now, self.suite, expected_role=self.PEER_ROLE
        )
        if reason is not None:
            self._fail(self.BadPeerCredential(reason))
        digest = kdf.hash_(self.PEER_LABEL + signed)
        if not creds.schnorr_verify(cred.static_pub, digest, sig, self.suite):
            self._fail(BadTranscriptSignature(f"{self.PEER} transcript signature invalid"))

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
        if not hmac.compare_digest(kdf.hmac_sha256(key, digest), mac):
            self._fail(BadFinishedMac(f"{self.PEER} finished MAC mismatch"))

    def _establish(self, frame: bytes, keys: SessionKeys, peer: Credential) -> SessionKeys:
        self.transcript += frame
        keys.session_id = kdf.hash_(bytes(self.transcript))
        self.peer_identity = peer.subject_id
        self.eph_priv = None
        self.phase = Phase.ESTABLISHED
        return keys


class ClientHandshake(_Side):
    LABEL, PEER_LABEL = SIG_LABEL_CLIENT, SIG_LABEL_SERVER
    PEER_ROLE, BadPeerCredential, PEER = Role.SERVER, BadServerCredential, "server"

    def __init__(self, suite: CurveSuite, identity: LocalIdentity, trust_root: Credential,
                 rng: RandomSource = os.urandom, now: int | None = None):
        super().__init__(identity, trust_root, suite, rng, now)
        self.client_random = b""

    def start(self) -> bytes:
        self._expect(Phase.START, "start")
        self.client_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(self.suite, self.rng)
        eph_bytes = curves.point_encode(eph_pub, self.suite)
        body = struct.pack(">H", self.suite.suite_id) + self.client_random + _lp(eph_bytes)
        self.transcript += body
        self.phase = Phase.AWAIT_SERVER_HELLO
        return body

    def finish(self, server_hello: bytes) -> tuple[bytes, SessionKeys]:
        self._expect(Phase.AWAIT_SERVER_HELLO, "finish")
        try:
            r = _Reader(server_hello)
            server_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            cred_bytes = r.take_lp()
            sig_bytes = r.take_lp()
            fin_mac = r.take(32)
            r.done()
        except MalformedFrame as exc:
            self._fail(HandshakeError(f"malformed ServerHello: {exc}"))
        server_eph = self._decode_ephemeral(eph_pub_bytes)
        try:
            server_cred = creds.credential_decode(cred_bytes, self.suite)
            sig = creds.sig_decode(sig_bytes, self.suite)
        except (creds.MalformedCredential, creds.MalformedSignature) as exc:
            self._fail(BadServerCredential(str(exc)))

        signed = bytes(self.transcript) + server_random + _lp(eph_pub_bytes) + _lp(cred_bytes)
        self._check_peer(server_cred, sig, signed)
        shared = self._shared_secret(server_eph)
        th = kdf.hash_(signed + _lp(sig_bytes))
        keys = derive_session_keys(shared, self.client_random, server_random, th)
        self._check_finished(keys.server_fin_key, th, fin_mac)

        self.transcript += server_hello
        prefix = bytes(self.transcript)
        proof = self._prove(prefix)
        body = proof + kdf.hmac_sha256(keys.client_fin_key, kdf.hash_(prefix + proof))
        return body, self._establish(body, keys, server_cred)


class ServerHandshake(_Side):
    LABEL, PEER_LABEL = SIG_LABEL_SERVER, SIG_LABEL_CLIENT
    PEER_ROLE, BadPeerCredential, PEER = Role.DEVICE, BadClientCredential, "client"

    def respond(self, client_hello: bytes) -> bytes:
        self._expect(Phase.START, "respond")
        try:
            r = _Reader(client_hello)
            (suite_id,) = struct.unpack(">H", r.take(2))
            client_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            r.done()
        except MalformedFrame as exc:
            self._fail(HandshakeError(f"malformed ClientHello: {exc}"))
        suite = SUITES.get(suite_id)
        if suite is None or suite is not self.suite:
            # the server's identity lives on exactly one curve
            self._fail(UnsupportedSuite(f"suite_id 0x{suite_id:04x}"))
        client_eph = self._decode_ephemeral(eph_pub_bytes)

        self.transcript += client_hello
        server_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(suite, self.rng)
        hello = server_random + _lp(curves.point_encode(eph_pub, suite))
        prefix = bytes(self.transcript) + hello
        proof = self._prove(prefix)
        shared = self._shared_secret(client_eph)
        th = kdf.hash_(prefix + proof)
        self._keys = derive_session_keys(shared, client_random, server_random, th)

        body = hello + proof + kdf.hmac_sha256(self._keys.server_fin_key, th)
        self.transcript += body
        self.eph_priv = None
        self.phase = Phase.AWAIT_CLIENT_FINISH
        return body

    def complete(self, client_finish: bytes) -> tuple[SessionKeys, bytes]:
        self._expect(Phase.AWAIT_CLIENT_FINISH, "complete")
        try:
            r = _Reader(client_finish)
            cred_bytes = r.take_lp()
            sig_bytes = r.take_lp()
            fin_mac = r.take(32)
            r.done()
            client_cred = creds.credential_decode(cred_bytes, self.suite)
            sig = creds.sig_decode(sig_bytes, self.suite)
        except (MalformedFrame, creds.MalformedCredential, creds.MalformedSignature) as exc:
            self._fail(BadClientCredential(f"malformed ClientFinish: {exc}"))

        signed = bytes(self.transcript) + _lp(cred_bytes)
        self._check_peer(client_cred, sig, signed)
        self._check_finished(
            self._keys.client_fin_key, kdf.hash_(signed + _lp(sig_bytes)), fin_mac
        )
        keys = self._establish(client_finish, self._keys, client_cred)
        return keys, client_cred.subject_id
