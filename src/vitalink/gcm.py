"""AES-128-GCM built from first principles: the forward block cipher,
the GF(2^128) multiplier behind the authentication tag, and seal/open.

GHASH bit ordering follows the GCM convention in which the polynomial's
least-significant coefficient sits in the most-significant bit of the
block. Concretely, the multiplicative identity is the block
80 00 .. 00 and the reduction constant is E1 00 .. 00:

    gf128_mul(X, 80000000000000000000000000000000) == X

Worked example (NIST SP 800-38D test case 2's first GHASH step):
H = E(K, 0^16) with K = 0^16 gives H = 66e94bd4ef8a2c3b884cfa59ca342b2e;
feeding the single ciphertext block 0388dace60b6a392f328c2b971b2fe78
into GHASH computes gf128_mul(C1, H) = 5e2ec746917062882c85b0685353deb7.

Open checks the tag before it decrypts anything, so a forged record
produces no keystream and no plaintext; the failure carries no cause
detail.
"""

from __future__ import annotations

import hmac as _hmac

from .errors import AuthFailure, PayloadTooLarge

TAG_LEN = 16
NONCE_LEN = 12
MAX_PLAINTEXT = 64 * 1024

_SBOX = None
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _build_sbox():
    # multiplicative inverse in GF(2^8) followed by the affine map
    box = [0] * 256
    p = q = 1
    while True:
        # p advances through GF(2^8) multiplying by 3; q by dividing by 3
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)
        q ^= q << 1
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        box[p] = (
            q ^ ((q << 1) | (q >> 7)) ^ ((q << 2) | (q >> 6))
            ^ ((q << 3) | (q >> 5)) ^ ((q << 4) | (q >> 4)) ^ 0x63
        ) & 0xFF
        if p == 1:
            break
    box[0] = 0x63
    return bytes(box)


def _sbox() -> bytes:
    global _SBOX
    if _SBOX is None:
        _SBOX = _build_sbox()
    return _SBOX


def _xtime(x: int) -> int:
    x <<= 1
    if x & 0x100:
        x ^= 0x11B
    return x


def _round_keys(key: bytes):
    sbox = _sbox()
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        w = list(words[i - 1])
        if i % 4 == 0:
            w = [sbox[w[1]], sbox[w[2]], sbox[w[3]], sbox[w[0]]]
            w[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], w)])
    return [bytes(b for w in words[4 * r : 4 * r + 4] for b in w) for r in range(11)]


class Aes128:
    """Forward AES-128 cipher, enough for CTR mode and GHASH's H."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._rk = _round_keys(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        sbox = _sbox()
        s = bytearray(a ^ b for a, b in zip(block, self._rk[0]))
        for rnd in range(1, 10):
            self._sub_shift(s, sbox)
            self._mix_columns(s)
            rk = self._rk[rnd]
            for i in range(16):
                s[i] ^= rk[i]
        self._sub_shift(s, sbox)
        rk = self._rk[10]
        for i in range(16):
            s[i] ^= rk[i]
        return bytes(s)

    @staticmethod
    def _sub_shift(s: bytearray, sbox: bytes) -> None:
        # SubBytes and ShiftRows fused; state is column-major per byte index
        s[:] = bytes(
            sbox[x]
            for x in (
                s[0], s[5], s[10], s[15],
                s[4], s[9], s[14], s[3],
                s[8], s[13], s[2], s[7],
                s[12], s[1], s[6], s[11],
            )
        )

    @staticmethod
    def _mix_columns(s: bytearray) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            t = a0 ^ a1 ^ a2 ^ a3
            s[c] = a0 ^ t ^ _xtime(a0 ^ a1)
            s[c + 1] = a1 ^ t ^ _xtime(a1 ^ a2)
            s[c + 2] = a2 ^ t ^ _xtime(a2 ^ a3)
            s[c + 3] = a3 ^ t ^ _xtime(a3 ^ a0)


def block_encrypt(key: bytes, block: bytes) -> bytes:
    """One forward AES-128 block operation."""
    return Aes128(key).encrypt_block(block)


_R = 0xE1 << 120
GF128_ONE = (1 << 127).to_bytes(16, "big")


def gf128_mul(X: bytes, Y: bytes) -> bytes:
    """Product in GF(2^128) with the GCM reduction polynomial and bit order."""
    if len(X) != 16 or len(Y) != 16:
        raise ValueError("operands must be 16 bytes")
    x = int.from_bytes(X, "big")
    y = int.from_bytes(Y, "big")
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z.to_bytes(16, "big")


def _ghash(H: bytes, aad: bytes, ct: bytes) -> bytes:
    pad_a = (-len(aad)) % 16
    pad_c = (-len(ct)) % 16
    data = (
        aad + b"\x00" * pad_a + ct + b"\x00" * pad_c
        + (8 * len(aad)).to_bytes(8, "big") + (8 * len(ct)).to_bytes(8, "big")
    )
    y = b"\x00" * 16
    for i in range(0, len(data), 16):
        y = gf128_mul(bytes(a ^ b for a, b in zip(y, data[i : i + 16])), H)
    return y


def _ctr_stream(cipher: Aes128, nonce: bytes, nblocks: int, start: int) -> bytes:
    out = bytearray()
    for i in range(nblocks):
        out += cipher.encrypt_block(nonce + ((start + i) & 0xFFFFFFFF).to_bytes(4, "big"))
    return bytes(out)


def seal(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """GCM encrypt: returns ciphertext || 16-byte tag.

    The caller owns nonce discipline: a (key, nonce) pair must never repeat.
    """
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(plaintext) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"plaintext exceeds {MAX_PLAINTEXT} bytes")
    cipher = Aes128(key)
    H = cipher.encrypt_block(b"\x00" * 16)
    nblocks = (len(plaintext) + 15) // 16
    stream = _ctr_stream(cipher, nonce, nblocks, 2)
    ct = bytes(a ^ b for a, b in zip(plaintext, stream))
    s = _ghash(H, aad, ct)
    ek_j0 = cipher.encrypt_block(nonce + b"\x00\x00\x00\x01")
    tag = bytes(a ^ b for a, b in zip(s, ek_j0))
    return ct + tag


def open_(key: bytes, nonce: bytes, aad: bytes, record: bytes) -> bytes:
    """GCM verify-then-decrypt. Tag comparison is constant-time, and CTR
    runs only once the tag matches."""
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(record) < TAG_LEN:
        raise AuthFailure()
    ct, tag = record[:-TAG_LEN], record[-TAG_LEN:]
    if len(ct) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"ciphertext exceeds {MAX_PLAINTEXT} bytes")
    cipher = Aes128(key)
    H = cipher.encrypt_block(b"\x00" * 16)
    s = _ghash(H, aad, ct)
    ek_j0 = cipher.encrypt_block(nonce + b"\x00\x00\x00\x01")
    expect = bytes(a ^ b for a, b in zip(s, ek_j0))
    if not _hmac.compare_digest(expect, tag):
        raise AuthFailure()
    stream = _ctr_stream(cipher, nonce, (len(ct) + 15) // 16, 2)
    return bytes(a ^ b for a, b in zip(ct, stream))
