"""SHA-256 hashing, HMAC, and extract-then-expand key derivation.

The hash and MAC primitives come from the standard library; the
extract/expand schedule and the frozen key-schedule labels live here.
"""

import hashlib
import hmac as _hmac

from .errors import InvalidLength

HASH_LEN = 32

# Key-schedule labels; arbitrary strings, frozen for interop. Only
# device-to-server records are sealed, so only c2s has a key and a salt.
LABEL_C2S_KEY = b"vl c2s key"
LABEL_C2S_SALT = b"vl c2s salt"
LABEL_C_FIN = b"vl c fin"
LABEL_S_FIN = b"vl s fin"
# Resumption: the secret a NewTicket carries, expanded from a session's PRK
# over its session id, and the key of a resumed ClientHello's binder,
# expanded from that secret.
LABEL_RESUMPTION = b"vl resumption"
LABEL_BINDER = b"vl binder"


def hash_(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    return _hmac.new(key, msg, hashlib.sha256).digest()


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """prk = HMAC(salt, ikm); an empty salt means 32 zero bytes."""
    if not salt:
        salt = b"\x00" * HASH_LEN
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, out_len: int) -> bytes:
    """Counter-chained expansion; returns exactly out_len bytes."""
    if not 1 <= out_len <= 255 * HASH_LEN:
        raise InvalidLength(f"out_len {out_len} outside [1, {255 * HASH_LEN}]")
    out = b""
    block = b""
    counter = 1
    while len(out) < out_len:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        out += block
        counter += 1
    return out[:out_len]
