"""AES-128-GCM built from first principles: the forward block cipher,
the GF(2^128) multiplier behind the authentication tag, and seal/open.

Per-key work happens once per `GcmKey(key)`: the AES-128 key schedule
(44 32-bit words, FIPS 197 §5.2) and the hash key H = E(K, 0^128) at the
first seal or open, and the GHASH table once the key has hashed more
than 10 blocks. A record then costs one AES block per 16 bytes of
payload plus one for the tag, and one GF(2^128) multiply per 16 bytes of
AAD and ciphertext plus one for the lengths block. On a 2 vCPU host
under CPython 3.11, the key schedule and H take 0.02-0.04 ms, the table
0.08 ms, a `gf128_mul` 0.01 ms and a table multiply 0.0035 ms; sealing
or opening a 19-byte reading with the table takes 55-65 µs.

AES rounds 1-9 use the four 256-entry T-tables (Daemen-Rijmen, *The
Design of Rijndael*, §4.2): each output column is four table lookups
XORed with a round-key word, fusing SubBytes, ShiftRows and MixColumns.
The last round has no MixColumns and uses S-box bytes.

GHASH bit ordering follows the GCM convention in which the polynomial's
least-significant coefficient sits in the most-significant bit of the
block. Concretely, the multiplicative identity is the block
80 00 .. 00 and the reduction constant is E1 00 .. 00:

    gf128_mul(X, 80000000000000000000000000000000) == X

Worked example (NIST SP 800-38D test case 2's first GHASH step):
H = E(K, 0^16) with K = 0^16 gives H = 66e94bd4ef8a2c3b884cfa59ca342b2e;
feeding the single ciphertext block 0388dace60b6a392f328c2b971b2fe78
into GHASH computes gf128_mul(C1, H) = 5e2ec746917062882c85b0685353deb7.

`gf128_mul` is Shoup's 4-bit method (McGrew-Viega, "The Galois/Counter
Mode of Operation", §4.1): it builds the 16 multiples n · Y of one
operand, then runs Horner's rule over the other's 32 nibbles, each step
a multiply by x^4 (a 4-bit shift whose carry-out is reduced through a
16-entry table) and one lookup. The per-key GHASH table takes the
method one step further: 32 tables, one per nibble position p of the
128-bit block read as a big-endian integer, of 16 entries each,
table[p][v] = (v << 4p) · H. Multiplying X by H is then 32 lookups
XORed together, with no shifts or reductions. The top table is the 16
multiples of H, and each one below is the one above times x^4.

None of the table lookups is constant time: which entry is read depends on
key and data bytes, so a co-resident attacker who can observe the cache
may learn key bits. This is a teaching implementation, not a hardened
one.

Open checks the tag before it decrypts anything, so a forged record
produces no keystream and no plaintext; the failure carries no cause
detail.
"""

from __future__ import annotations

import hmac as _hmac
import struct

from .errors import AuthFailure, PayloadTooLarge

TAG_LEN = 16
NONCE_LEN = 12
MAX_PLAINTEXT = 64 * 1024

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _build_sbox() -> bytes:
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


def _build_t_tables(sbox: bytes):
    # T0[x] is the MixColumns image of the column (S[x], 0, 0, 0):
    # bytes 2·S, S, S, 3·S. T1..T3 are its byte rotations.
    t0 = []
    for s in sbox:
        s2 = (s << 1) ^ (0x11B if s & 0x80 else 0)
        t0.append(s2 << 24 | s << 16 | s << 8 | (s2 ^ s))
    t1 = [(w >> 8) | (w & 0xFF) << 24 for w in t0]
    t2 = [(w >> 8) | (w & 0xFF) << 24 for w in t1]
    t3 = [(w >> 8) | (w & 0xFF) << 24 for w in t2]
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_SBOX = _build_sbox()
_T0, _T1, _T2, _T3 = _build_t_tables(_SBOX)
_BLOCK = struct.Struct(">4I")


def _sub_word(w: int) -> int:
    s = _SBOX
    return s[w >> 24] << 24 | s[w >> 16 & 255] << 16 | s[w >> 8 & 255] << 8 | s[w & 255]


def _round_keys(key: bytes) -> list[int]:
    w = list(_BLOCK.unpack(key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            t = _sub_word((t << 8 | t >> 24) & 0xFFFFFFFF) ^ _RCON[i // 4 - 1] << 24
        w.append(w[i - 4] ^ t)
    return w


class Aes128:
    """Forward AES-128 cipher, enough for CTR mode and GHASH's H."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._rk = _round_keys(key)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        rk = self._rk
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for k in range(4, 40, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[k],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[k + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[k + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[k + 3],
            )
        s = _SBOX
        return _BLOCK.pack(
            (s[s0 >> 24] << 24 | s[s1 >> 16 & 255] << 16 | s[s2 >> 8 & 255] << 8
             | s[s3 & 255]) ^ rk[40],
            (s[s1 >> 24] << 24 | s[s2 >> 16 & 255] << 16 | s[s3 >> 8 & 255] << 8
             | s[s0 & 255]) ^ rk[41],
            (s[s2 >> 24] << 24 | s[s3 >> 16 & 255] << 16 | s[s0 >> 8 & 255] << 8
             | s[s1 & 255]) ^ rk[42],
            (s[s3 >> 24] << 24 | s[s0 >> 16 & 255] << 16 | s[s1 >> 8 & 255] << 8
             | s[s2 & 255]) ^ rk[43],
        )


_R = 0xE1 << 120
GF128_ONE = (1 << 127).to_bytes(16, "big")


def _nibble_row(y: int) -> list[int]:
    # row[n] = n · y for each nibble n; 8 (0b1000) is x^0, 1 is x^3, and each
    # multiplication by x is a right shift, reduced by R on carry-out
    row = [0] * 16
    row[8] = y
    for b in (4, 2, 1):
        y = (y >> 1) ^ _R if y & 1 else y >> 1
        row[b] = y
    for n in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15):
        low = n & -n
        row[n] = row[n ^ low] ^ row[low]
    return row


# z · x^4 == (z >> 4) ^ _RED[z & 15]. The low nibble n holds x^124..x^127,
# so n · x^4 is (n << 124) · x^128, and x^128 reduces to R.
_RED = tuple(_nibble_row(_R))


def gf128_mul(X: bytes, Y: bytes) -> bytes:
    """Product in GF(2^128) with the GCM reduction polynomial and bit order.

    Shoup's 4-bit method with the table built per call: the 16 multiples
    of Y, then Horner's rule over the 32 nibbles of X from x^127 down."""
    if len(X) != 16 or len(Y) != 16:
        raise ValueError("operands must be 16 bytes")
    x = int.from_bytes(X, "big")
    row = _nibble_row(int.from_bytes(Y, "big"))
    red = _RED
    z = 0
    for i in range(0, 128, 4):
        z = (z >> 4) ^ red[z & 15] ^ row[x >> i & 15]
    return z.to_bytes(16, "big")


def _ghash_tables(h: int) -> tuple:
    # tables[31] multiplies the top nibble (x^0..x^3) by H; each table below
    # it is the one above times x^4
    row = _nibble_row(h)
    tables = [tuple(row)]
    for _ in range(31):
        row = [(e >> 4) ^ _RED[e & 15] for e in row]
        tables.append(tuple(row))
    tables.reverse()
    return tuple(tables)


# GHASH multiplies with gf128_mul while a key's running total of hashed
# blocks stays within this, and builds the table on the first call that
# would pass it. The table costs about as much as 8 gf128_mul calls
# (0.08 vs 0.01 ms) and saves about 0.0065 ms on each later block, so it
# pays for itself after 10 to 12 blocks. Sessions of one or two readings
# and a Close (6 or 10 blocks) never build it; a long one does at its
# third reading, and a first record over 10 blocks builds it at once.
_BLOCKS_BEFORE_TABLE = 10


class GcmKey:
    """Everything AES-128-GCM derives from one key: the AES round keys, the
    hash key H = E(K, 0^128) and the GHASH table. Build one per key and
    reuse it for every record under that key; `zeroize` wipes it for good.

    Construction only checks the key. The first seal or open builds the
    round keys and H, and GHASH builds its table once the key has hashed
    more than `_BLOCKS_BEFORE_TABLE` blocks, so a key that carries no record
    costs nothing and one that carries a single reading builds no table."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._key: bytes | None = key
        self.aes: Aes128 | None = None
        self._h = 0
        self._tables: tuple | None = None
        self._blocks = 0  # hashed before the table was built

    def _ready(self) -> Aes128:
        if self._key is None:
            raise ValueError("GCM key has been zeroized")
        if self.aes is None:
            self.aes = Aes128(self._key)
            self._h = int.from_bytes(self.aes.encrypt_block(bytes(16)), "big")
        return self.aes

    def zeroize(self) -> None:
        # Python cannot scrub bytes or int objects; this drops the key, H and
        # the table, and overwrites the round keys in place
        self._key = None
        if self.aes is not None:
            rk = self.aes._rk
            rk[:] = [0] * len(rk)
        self._h = 0
        self._tables = None

    def ghash(self, aad: bytes, ct: bytes) -> int:
        """GHASH_H(aad, ct) per SP 800-38D, as a big-endian integer."""
        self._ready()
        blocks = [
            int.from_bytes(data[i : i + 16].ljust(16, b"\x00"), "big")
            for data in (aad, ct)
            for i in range(0, len(data), 16)
        ]
        blocks.append((8 * len(aad)) << 64 | 8 * len(ct))
        y = 0
        tables = self._tables
        if tables is None:
            if self._blocks + len(blocks) <= _BLOCKS_BEFORE_TABLE:
                self._blocks += len(blocks)
                h = self._h.to_bytes(16, "big")
                for block in blocks:
                    y = int.from_bytes(gf128_mul((y ^ block).to_bytes(16, "big"), h), "big")
                return y
            tables = self._tables = _ghash_tables(self._h)
        for block in blocks:
            x = y ^ block
            y = 0
            for t in tables:
                y ^= t[x & 15]
                x >>= 4
        return y

    def _tag(self, nonce: bytes, aad: bytes, ct: bytes) -> bytes:
        ek_j0 = self.aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return (self.ghash(aad, ct) ^ int.from_bytes(ek_j0, "big")).to_bytes(16, "big")

    def _ctr(self, nonce: bytes, data: bytes) -> bytes:
        # counter blocks start at 2; 1 is J0, which masks the tag
        n = len(data)
        encrypt = self.aes.encrypt_block
        stream = b"".join(
            encrypt(nonce + i.to_bytes(4, "big")) for i in range(2, (n + 15) // 16 + 2)
        )
        return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(
            n, "big"
        )


def seal(gk: GcmKey, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """GCM encrypt: returns ciphertext || 16-byte tag.

    The caller owns nonce discipline: a (key, nonce) pair must never repeat.
    """
    gk._ready()
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(plaintext) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"plaintext exceeds {MAX_PLAINTEXT} bytes")
    ct = gk._ctr(nonce, plaintext)
    return ct + gk._tag(nonce, aad, ct)


def open_(gk: GcmKey, nonce: bytes, aad: bytes, record: bytes) -> bytes:
    """GCM verify-then-decrypt. Tag comparison is constant-time, and CTR
    runs only once the tag matches."""
    gk._ready()
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(record) < TAG_LEN:
        raise AuthFailure()
    ct, tag = record[:-TAG_LEN], record[-TAG_LEN:]
    if len(ct) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"ciphertext exceeds {MAX_PLAINTEXT} bytes")
    if not _hmac.compare_digest(gk._tag(nonce, aad, ct), tag):
        raise AuthFailure()
    return gk._ctr(nonce, ct)
