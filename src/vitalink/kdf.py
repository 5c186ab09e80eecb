"""SHA-256 hashing, HMAC, and extract-then-expand key derivation.

This module is the package's only hash provider. SHA-256 comes from
CPython's builtin module (`_sha256` through 3.11, `_sha2` from 3.12),
not from `hashlib`: importing `hashlib` or `hmac` maps OpenSSL's libcrypto
into the process, about 3.5 MB of resident memory, to hash a few KB per
handshake. The builtin code is slower (5.6 µs against 1.4 µs for 1.2 KB,
CPython 3.11), which costs a handshake about 7 µs (resumed) to 14 µs
(full) per side. `hashlib.sha256` is used only on an interpreter built
without the builtin module.

HMAC follows RFC 2104 over that SHA-256, and `compare_digest` is
`_operator._compare_digest`, the C compare that `hmac.compare_digest`
falls back to, whose time depends on the lengths, not the contents. The
extract/expand schedule and the frozen key-schedule labels live here too.
"""

import sys
from _operator import _compare_digest as compare_digest

from .errors import InvalidLength

# imported by name, since each of `_sha2` and `_sha256` is a standard
# module on some versions only
try:
    _sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256 as _sha256

HASH_LEN = 32
_BLOCK_LEN = 64  # SHA-256's input block, the HMAC key length
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables: key XOR ipad, key XOR opad
_OPAD = bytes(b ^ 0x5C for b in range(256))

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
    return _sha256(msg).digest()


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """RFC 2104: H((K ^ opad) || H((K ^ ipad) || msg)), with a key longer
    than a block hashed first and a shorter one padded with zeros."""
    if len(key) > _BLOCK_LEN:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK_LEN, b"\x00")
    inner = _sha256(key.translate(_IPAD) + msg).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


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
