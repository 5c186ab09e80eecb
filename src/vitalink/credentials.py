"""Schnorr signatures over the protocol curve and minimal signed identity
credentials.

A credential binds a subject name, a role, and a static public key inside
a validity window, signed by an issuer. Chains are exactly two levels:
a self-signed issuer (the trust root, distributed out-of-band as a file)
and the leaves it issues. Private keys are stored as raw scalars on disk;
there is deliberately no at-rest encryption, so key files must be kept
out of untrusted locations.

Whether a trust root's key signed a credential is a pure fact of the two
credentials and the suite, so `credential_verify` remembers the answer per
process, pass or fail, for the 1024 most recently used triples. A hit skips
only the signature: issuer, validity window and role are checked on every
call.
"""

from __future__ import annotations

import functools
import os
import struct
from enum import IntEnum
from typing import NamedTuple

from . import curves
from .curves import CurveSuite, Point, RandomSource
from .errors import (
    InvalidCredentialFields,
    MalformedCredential,
    MalformedPoint,
    MalformedSignature,
)
from .kdf import hash_

SUBJECT_LEN = 16
CLOCK_SKEW_S = 300


class Role(IntEnum):
    DEVICE = 0
    SERVER = 1
    ISSUER = 2


class SchnorrSig(NamedTuple):
    R: Point
    s: int

    def encode(self, suite: CurveSuite) -> bytes:
        return curves.point_encode(self.R, suite) + self.s.to_bytes(suite.scalar_len, "big")


def sig_decode(data: bytes, suite: CurveSuite) -> SchnorrSig:
    plen = suite.point_len
    if len(data) != plen + suite.scalar_len:
        raise MalformedSignature("bad signature length")
    try:
        R = curves.point_decode(data[:plen], suite)
    except MalformedPoint as exc:
        raise MalformedSignature(str(exc)) from exc
    s = int.from_bytes(data[plen:], "big")
    if s >= suite.n:
        raise MalformedSignature("s out of range")
    return SchnorrSig(R, s)


def _challenge(R: Point, Q: Point, msg: bytes, suite: CurveSuite) -> int:
    e = hash_(curves.point_encode(R, suite) + curves.point_encode(Q, suite) + msg)
    return int.from_bytes(e, "big") % suite.n


def schnorr_sign(
    d: int, Q: Point, msg: bytes, suite: CurveSuite, rng: RandomSource = os.urandom
) -> SchnorrSig:
    """s = k + e*d with e bound to the commitment, the public key, and msg.

    Q must be d*G; the caller already holds it, so it is not recomputed.
    A wrong Q gives a signature that verifies under no key.
    """
    k, R = curves.keypair_gen(suite, rng)
    e = _challenge(R, Q, msg, suite)
    s = (k + e * d) % suite.n
    return SchnorrSig(R, s)


def schnorr_verify(Q: Point, msg: bytes, sig: SchnorrSig, suite: CurveSuite) -> bool:
    """s*G == R + e*Q, for R and Q on the curve and 0 <= s < n."""
    if sig.R is None or Q is None or not suite.is_on_curve(Q) or not suite.is_on_curve(sig.R):
        return False
    if not 0 <= sig.s < suite.n:
        return False
    e = _challenge(sig.R, Q, msg, suite)
    return curves.scalar_mul(sig.s, suite.G, suite) == curves.point_add(
        sig.R, curves.scalar_mul(e, Q, suite), suite)


def _subject_name(raw: bytes) -> str | None:
    """The name in a subject field, or None unless it is 1..16 bytes of printable
    UTF-8 (no tab or line break to split a store line) padded with NUL."""
    try:
        name = raw.rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError:
        return None
    return name if name and name.isprintable() and len(raw) == SUBJECT_LEN else None


def encode_subject(name: str) -> bytes:
    raw = name.encode("utf-8", "surrogatepass").ljust(SUBJECT_LEN, b"\x00")
    if _subject_name(raw) != name:
        raise InvalidCredentialFields(
            f"subject must be 1..{SUBJECT_LEN} bytes of printable UTF-8")
    return raw


def decode_subject(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


class Credential(NamedTuple):
    version: int
    subject_id: bytes
    role: Role
    static_pub: Point
    valid_from: int
    valid_to: int
    issuer_id: bytes
    signature: SchnorrSig

    def tbs(self, suite: CurveSuite) -> bytes:
        """To-be-signed bytes: every field except the signature, wire order."""
        return _tbs_layout(suite).pack(
            self.version, self.subject_id, self.role,
            curves.point_encode(self.static_pub, suite),
            self.valid_from, self.valid_to, self.issuer_id)

    def encode(self, suite: CurveSuite) -> bytes:
        return self.tbs(suite) + self.signature.encode(suite)


@functools.cache
def _tbs_layout(suite: CurveSuite) -> struct.Struct:
    """The signed part of a credential: version(1) || subject(16) || role(1) ||
    static public key || valid_from(8) || valid_to(8) || issuer(16)."""
    return struct.Struct(f">B{SUBJECT_LEN}sB{suite.point_len}sQQ{SUBJECT_LEN}s")


def credential_len(suite: CurveSuite) -> int:
    """Wire length of a credential; distinct per suite."""
    return _tbs_layout(suite).size + suite.point_len + suite.scalar_len


def credential_decode(data: bytes, suite: CurveSuite) -> Credential:
    want = credential_len(suite)
    if len(data) != want:
        raise MalformedCredential(f"credential length {len(data)}, expected {want}")
    layout = _tbs_layout(suite)
    version, subject, role, pub, valid_from, valid_to, issuer = layout.unpack_from(data)
    if _subject_name(subject) is None:
        raise MalformedCredential("subject is not 1..16 bytes of printable UTF-8")
    try:
        role = Role(role)
    except ValueError as exc:
        raise MalformedCredential("unknown role") from exc
    try:
        pub = curves.point_decode(pub, suite)
        sig = sig_decode(data[layout.size:], suite)
    except (MalformedPoint, MalformedSignature) as exc:
        raise MalformedCredential(str(exc)) from exc
    return Credential(version, subject, role, pub, valid_from, valid_to, issuer, sig)


def credential_issue(
    issuer_priv: int,
    subject_id: bytes,
    role: Role,
    static_pub: Point,
    valid_from: int,
    valid_to: int,
    issuer_id: bytes,
    suite: CurveSuite,
    rng: RandomSource = os.urandom,
) -> Credential:
    if valid_from >= valid_to:
        raise InvalidCredentialFields("valid_from must precede valid_to")
    if len(subject_id) != SUBJECT_LEN or len(issuer_id) != SUBJECT_LEN:
        raise InvalidCredentialFields("identifier fields must be 16 bytes")
    if _subject_name(subject_id) is None:
        raise InvalidCredentialFields("subject is not 1..16 bytes of printable UTF-8")
    if static_pub is None or not suite.is_on_curve(static_pub):
        raise InvalidCredentialFields("static public key not on curve")
    unsigned = Credential(
        1, subject_id, role, static_pub, valid_from, valid_to, issuer_id,
        SchnorrSig(suite.G, 0),
    )
    issuer_pub = curves.scalar_mul(issuer_priv, suite.G, suite)
    sig = schnorr_sign(issuer_priv, issuer_pub, unsigned.tbs(suite), suite, rng)
    return unsigned._replace(signature=sig)


# verification outcomes; OK is None, everything else names the rejection cause
BAD_SIGNATURE = "BadSignature"
EXPIRED = "Expired"
NOT_YET_VALID = "NotYetValid"
UNKNOWN_ISSUER = "UnknownIssuer"
ROLE_MISMATCH = "RoleMismatch"


@functools.lru_cache(maxsize=1024)
def _issued_by(root: Credential, cred: Credential, suite: CurveSuite) -> bool:
    """Whether `root`'s key signed `cred`. A pure function of its arguments,
    so a failure is remembered like a pass."""
    return schnorr_verify(root.static_pub, cred.tbs(suite), cred.signature, suite)


def expired(valid_to: int, now: int) -> bool:
    """The one expiry rule, for a full handshake and a resumed one."""
    return now > valid_to + CLOCK_SKEW_S


def credential_verify(
    cred: Credential,
    trust_root: Credential,
    now: int,
    suite: CurveSuite,
    expected_role: Role | None = None,
):
    """Checks a leaf (or the root itself) against the trust root.

    Returns None when the credential is acceptable, otherwise a string
    naming the rejection cause for audit logs.
    """
    if cred.issuer_id != trust_root.subject_id:
        return UNKNOWN_ISSUER
    if not _issued_by(trust_root, cred, suite):
        return BAD_SIGNATURE
    if now < cred.valid_from - CLOCK_SKEW_S:
        return NOT_YET_VALID
    if expired(cred.valid_to, now):
        return EXPIRED
    if expected_role is not None and cred.role != expected_role:
        return ROLE_MISMATCH
    return None


def verify_trust_root(root: Credential, now: int, suite: CurveSuite):
    """A root must be a self-signed issuer credential."""
    if root.role != Role.ISSUER:
        return ROLE_MISMATCH
    if root.subject_id != root.issuer_id:
        return UNKNOWN_ISSUER
    return credential_verify(root, root, now, suite)
