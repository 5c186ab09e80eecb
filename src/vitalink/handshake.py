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
    s2c_key: bytes
    c2s_salt: bytes
    s2c_salt: bytes
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

    keys = SessionKeys(
        c2s_key=expand(kdf.LABEL_C2S_KEY, 16),
        s2c_key=expand(kdf.LABEL_S2C_KEY, 16),
        c2s_salt=expand(kdf.LABEL_C2S_SALT, 4),
        s2c_salt=expand(kdf.LABEL_S2C_SALT, 4),
        client_fin_key=expand(kdf.LABEL_C_FIN, 32),
        server_fin_key=expand(kdf.LABEL_S_FIN, 32),
    )
    if keys.c2s_key == keys.s2c_key:
        raise HandshakeError("directional keys collided")
    return keys


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


class ClientHandshake:
    def __init__(
        self,
        suite: CurveSuite,
        identity: LocalIdentity,
        trust_root: Credential,
        rng: RandomSource = os.urandom,
        now: int | None = None,
    ):
        self.suite = suite
        self.identity = identity
        self.trust_root = trust_root
        self.rng = rng
        self.now = now
        self.phase = Phase.START
        self.transcript = bytearray()
        self.eph_priv: int | None = None
        self.client_random = b""
        self.peer_identity: bytes | None = None

    def _fail(self, exc: HandshakeError):
        self.phase = Phase.FAILED
        self.eph_priv = None
        raise exc

    def start(self) -> bytes:
        if self.phase is not Phase.START:
            raise ProtocolStateError(f"start() in phase {self.phase}")
        self.client_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(self.suite, self.rng)
        body = (
            struct.pack(">H", self.suite.suite_id)
            + self.client_random
            + _lp(curves.point_encode(eph_pub, self.suite))
        )
        self.transcript += body
        self.phase = Phase.AWAIT_SERVER_HELLO
        return body

    def finish(self, server_hello: bytes) -> tuple[bytes, SessionKeys]:
        if self.phase is not Phase.AWAIT_SERVER_HELLO:
            raise ProtocolStateError(f"finish() in phase {self.phase}")
        suite = self.suite
        try:
            r = _Reader(server_hello)
            server_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            cred_bytes = r.take_lp()
            sig_bytes = r.take_lp()
            fin_mac = r.take(32)
            r.done()
            server_eph = curves.point_decode(eph_pub_bytes, suite)
        except (MalformedFrame, MalformedPoint) as exc:
            self._fail(BadTranscriptSignature(f"malformed ServerHello: {exc}"))
        try:
            server_cred = creds.credential_decode(cred_bytes, suite)
            sig = creds.sig_decode(sig_bytes, suite)
        except (creds.MalformedCredential, creds.MalformedSignature) as exc:
            self._fail(BadServerCredential(str(exc)))

        now = self.now if self.now is not None else _now()
        reason = creds.credential_verify(
            server_cred, self.trust_root, now, suite, expected_role=Role.SERVER
        )
        if reason is not None:
            self._fail(BadServerCredential(reason))

        signed_part = (
            bytes(self.transcript)
            + server_random
            + _lp(eph_pub_bytes)
            + _lp(cred_bytes)
        )
        if not creds.schnorr_verify(
            server_cred.static_pub,
            kdf.hash_(SIG_LABEL_SERVER + signed_part),
            sig,
            suite,
        ):
            self._fail(BadTranscriptSignature("server transcript signature invalid"))

        try:
            shared = curves.shared_secret(self.eph_priv, server_eph, suite)
        except InvalidPeerKey as exc:
            self._fail(HandshakeError(f"server ephemeral invalid: {exc}"))
        keyed_part = signed_part + _lp(sig_bytes)
        keys = derive_session_keys(
            shared, self.client_random, server_random, kdf.hash_(keyed_part)
        )
        expected = kdf.hmac_sha256(keys.server_fin_key, kdf.hash_(keyed_part))
        if not hmac.compare_digest(expected, fin_mac):
            self._fail(BadFinishedMac("server finished MAC mismatch"))

        self.transcript += server_hello
        self.peer_identity = server_cred.subject_id

        my_cred = self.identity.credential.encode(suite)
        sig_digest = kdf.hash_(
            SIG_LABEL_CLIENT + bytes(self.transcript) + _lp(my_cred)
        )
        my_sig = creds.schnorr_sign(
            self.identity.static_priv, self.identity.credential.static_pub,
            sig_digest, suite, self.rng,
        ).encode(suite)
        mac_input = kdf.hash_(bytes(self.transcript) + _lp(my_cred) + _lp(my_sig))
        my_mac = kdf.hmac_sha256(keys.client_fin_key, mac_input)
        body = _lp(my_cred) + _lp(my_sig) + my_mac
        self.transcript += body
        keys.session_id = kdf.hash_(bytes(self.transcript))
        self.eph_priv = None
        self.phase = Phase.ESTABLISHED
        return body, keys


class ServerHandshake:
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
        self.rng = rng
        self.now = now
        self.phase = Phase.START
        self.transcript = bytearray()
        self.suite: CurveSuite = suite
        self.eph_priv: int | None = None
        self._keys: SessionKeys | None = None
        self.peer_identity: bytes | None = None

    def _fail(self, exc: HandshakeError):
        self.phase = Phase.FAILED
        self.eph_priv = None
        self._keys = None
        raise exc

    def respond(self, client_hello: bytes) -> bytes:
        if self.phase is not Phase.START:
            raise ProtocolStateError(f"respond() in phase {self.phase}")
        try:
            r = _Reader(client_hello)
            (suite_id,) = struct.unpack(">H", r.take(2))
            client_random = r.take(RANDOM_LEN)
            eph_pub_bytes = r.take_lp()
            r.done()
        except MalformedFrame as exc:
            self._fail(UnsupportedSuite(f"malformed ClientHello: {exc}"))
        suite = SUITES.get(suite_id)
        if suite is None or suite is not self.suite:
            # the server's identity lives on exactly one curve
            self._fail(UnsupportedSuite(f"suite_id 0x{suite_id:04x}"))
        try:
            client_eph = curves.point_decode(eph_pub_bytes, suite)
        except MalformedPoint as exc:
            self._fail(HandshakeError(f"client ephemeral invalid: {exc}"))

        self.transcript += client_hello
        server_random = self.rng(RANDOM_LEN)
        self.eph_priv, eph_pub = curves.keypair_gen(suite, self.rng)
        eph_bytes = curves.point_encode(eph_pub, suite)
        cred_bytes = self.identity.credential.encode(suite)

        signed_part = (
            bytes(self.transcript) + server_random + _lp(eph_bytes) + _lp(cred_bytes)
        )
        sig_bytes = creds.schnorr_sign(
            self.identity.static_priv,
            self.identity.credential.static_pub,
            kdf.hash_(SIG_LABEL_SERVER + signed_part),
            suite,
            self.rng,
        ).encode(suite)

        try:
            shared = curves.shared_secret(self.eph_priv, client_eph, suite)
        except InvalidPeerKey as exc:
            self._fail(HandshakeError(f"client ephemeral invalid: {exc}"))
        keyed_part = signed_part + _lp(sig_bytes)
        self._keys = derive_session_keys(
            shared, client_random, server_random, kdf.hash_(keyed_part)
        )
        fin_mac = kdf.hmac_sha256(self._keys.server_fin_key, kdf.hash_(keyed_part))

        body = server_random + _lp(eph_bytes) + _lp(cred_bytes) + _lp(sig_bytes) + fin_mac
        self.transcript += body
        self.eph_priv = None
        self.phase = Phase.AWAIT_CLIENT_FINISH
        return body

    def complete(self, client_finish: bytes) -> tuple[SessionKeys, bytes]:
        if self.phase is not Phase.AWAIT_CLIENT_FINISH:
            raise ProtocolStateError(f"complete() in phase {self.phase}")
        suite = self.suite
        try:
            r = _Reader(client_finish)
            cred_bytes = r.take_lp()
            sig_bytes = r.take_lp()
            fin_mac = r.take(32)
            r.done()
            client_cred = creds.credential_decode(cred_bytes, suite)
            sig = creds.sig_decode(sig_bytes, suite)
        except (MalformedFrame, creds.MalformedCredential, creds.MalformedSignature) as exc:
            self._fail(BadClientCredential(f"malformed ClientFinish: {exc}"))

        now = self.now if self.now is not None else _now()
        reason = creds.credential_verify(
            client_cred, self.trust_root, now, suite, expected_role=Role.DEVICE
        )
        if reason is not None:
            self._fail(BadClientCredential(reason))

        sig_digest = kdf.hash_(
            SIG_LABEL_CLIENT + bytes(self.transcript) + _lp(cred_bytes)
        )
        if not creds.schnorr_verify(client_cred.static_pub, sig_digest, sig, suite):
            self._fail(BadTranscriptSignature("client transcript signature invalid"))

        mac_input = kdf.hash_(
            bytes(self.transcript) + _lp(cred_bytes) + _lp(sig_bytes)
        )
        expected = kdf.hmac_sha256(self._keys.client_fin_key, mac_input)
        if not hmac.compare_digest(expected, fin_mac):
            self._fail(BadFinishedMac("client finished MAC mismatch"))

        self.transcript += client_finish
        keys = self._keys
        keys.session_id = kdf.hash_(bytes(self.transcript))
        self.peer_identity = client_cred.subject_id
        self.phase = Phase.ESTABLISHED
        return keys, client_cred.subject_id


def _now() -> int:
    return int(time.time())
