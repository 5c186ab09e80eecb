"""AES-128-GCM built from first principles: the forward block cipher,
the GF(2^128) multiplier behind the authentication tag, and seal/open.

Per-key work happens once per `GcmKey(key)`: the AES-128 key schedule
(44 32-bit words, FIPS 197 §5.2) and the hash key H = E(K, 0^128) at the
first seal or open, and the GHASH table once the key has hashed
`_BLOCKS_BEFORE_TABLE` = 36 blocks with `gf128_mul`, which cost about
what the table does; the block that passes the count and every later one
go through the table, so a key's first long record switches to it
partway through. A record costs one AES block per 16 bytes of payload
plus one for the tag, and one GF(2^128) multiply per 16 bytes of AAD and
ciphertext plus one for the lengths block. On a 2 vCPU host under
CPython 3.11, the key schedule and H take 0.02-0.04 ms, the table
0.3-0.4 ms and about 0.2 MB (kept for the life of the key), a
`gf128_mul` 0.01 ms and a table multiply 0.0015-0.002 ms. An 11-byte
reading takes two AES blocks (E(K, J0) and one counter block) and three
GHASH blocks (the AAD, the ciphertext and the lengths). On a new key
about half of its seal or open goes to each; once the key has its
table, the two AES blocks are most of it.

`Aes128.encrypt_block` does rounds 1-9 with the four 256-entry T-tables
(Daemen-Rijmen, *The Design of Rijndael*, §4.2): each output column is
four table lookups XORed with a round-key word, fusing SubBytes,
ShiftRows and MixColumns. The last round has no MixColumns and uses
S-box bytes.

`Aes128.encrypt_blocks` encrypts N blocks at once, byte-sliced in the
manner of Käsper-Schwabe ("Faster and Timing-Attack Resistant AES-GCM",
CHES 2009) but with bytes for bits. The state is one 16N-byte string
(or the integer it encodes), position-major: 16 slices of N bytes, one
per state byte in row-major order (row r, column c is slice 4r + c), each
holding that byte of every block. SubBytes is one `bytes.translate` over
all of it. Row r is the 4N bytes of slices 4r to 4r + 3, so ShiftRows
rotates row r left by r slices: one join of 7 pieces of the SubBytes
output (row 0 whole, rows 1-3 in two pieces each). Rotating
every column by one row is rotating the whole integer by 4N bytes, so
MixColumns, out_r = 2·(a_r ^ a_r+1) ^ a_r+1 ^ (a_r+2 ^ a_r+3), is a few
big-integer shifts and XORs, with xtime as a masked shift. AddRoundKey
XORs the integer with the round key broadcast to N bytes per slice, kept
for the last N a key batched and rebuilt when N changes (0.1-0.2 ms).
The cost is per batch, not per block: on the host above one block costs
about 8 µs at N = 3 (`encrypt_block`: 12-20 µs), 1.7 µs at N = 24, 1.2 µs
at N = 76 (88 µs in all) and 0.9 µs at N = 192; N = 176, the counter
blocks of a 256-reading record, took 1.8 times the N = 76 time. The 16-piece
ShiftRows it replaced took 109 µs at N = 76 (medians of 15 interleaved
runs).

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
16-entry table) and one lookup. The per-key GHASH table is the 8-bit
variant of the same method (ibid.): 16 tables, one per byte position j
of the block, of 256 entries each, table[j][v] = (the block with byte j
= v and every other byte 0) · H. Multiplying X by H is then 16 lookups,
one per byte of X, XORed together, with no shifts or reductions. The
build goes through the nibble-position multiples: the 16 multiples of
H, then 31 rows each the one before times x^4; entry v of byte table j
XORs the entries of v's two nibbles. That is 4096 entries of 128 bits,
about 0.2 MB per key. `GcmKey.ghash` pads once: it joins the AAD and the
ciphertext, each zero-padded to whole blocks, and the lengths block into
one buffer and cuts every 16-byte block from it.

None of the table lookups is constant time: which entry of the 256-entry
AES T-tables or of the key-dependent 256-entry GHASH tables is read
depends on key and data bytes, so a co-resident attacker who can observe
the cache may learn key bits. This is a teaching implementation, not a
hardened one.

Each seal or open runs its own AES blocks: E(K, J0) with J0 = nonce‖1,
the block that masks the tag, through `encrypt_block`, and the counter
blocks from nonce‖2 on one at a time when they are fewer than
`_BATCH_BLOCKS` = 8 (a one-reading record needs 1, a ticket 4); 8 or
more, a record of 11 readings or more, run in one `encrypt_blocks`
batch. Open compares the tag before it XORs any keystream into the
ciphertext, and the failure carries no cause detail.
"""

from __future__ import annotations

import struct

from . import kdf
from .errors import AuthFailure, PayloadTooLarge

TAG_LEN = 16
NONCE_LEN = 12
MAX_PLAINTEXT = 64 * 1024
# about as many gf128_mul calls as one GHASH table build costs
_BLOCKS_BEFORE_TABLE = 36
# the fewest counter blocks of one record worth an `encrypt_blocks` batch
_BATCH_BLOCKS = 8

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
# Byte-sliced layout: slice 4r + c holds byte 4c + r of every block.
_SLICE_OFFSETS = tuple(4 * c + r for r in range(4) for c in range(4))


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
        # the last batch size -> its broadcast round keys: one entry, so a peer
        # that sends records of many lengths cannot make the key hold many
        self._wide: dict[int, tuple] = {}

    def _wide_keys(self, n: int) -> tuple:
        # the 11 round keys with each byte repeated n times in its slice, and
        # the masks a batch of n blocks needs
        wide = self._wide.get(n)
        if wide is None:
            keys = []
            for k in range(0, 44, 4):
                kb = _BLOCK.pack(*self._rk[k : k + 4])
                keys.append(int.from_bytes(
                    b"".join([kb[p : p + 1] * n for p in _SLICE_OFFSETS]), "big"))
            ones = int.from_bytes(b"\x01" * (16 * n), "big")
            wide = (tuple(keys), ones * 0xFF, ones * 0x7F, ones)
            self._wide = {n: wide}
        return wide

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypts len(blocks) // 16 blocks at once, byte-sliced (see the
        module docstring); it pays only for batches of dozens of blocks."""
        n, rem = divmod(len(blocks), 16)
        if rem or not n:
            raise ValueError("blocks must be a positive multiple of 16 bytes")
        size = 16 * n
        keys, mask, low7, ones = self._wide_keys(n)
        row, half, rest = 32 * n, 64 * n, 96 * n  # bits in 1, 2 and 3 rows
        sbox = _SBOX
        # ShiftRows rotates row r left by r slices: 7 pieces of the SubBytes output
        n4, n5, n8, n10, n12, n15 = 4 * n, 5 * n, 8 * n, 10 * n, 12 * n, 15 * n
        a = int.from_bytes(b"".join([blocks[p::16] for p in _SLICE_OFFSETS]), "big") ^ keys[0]
        for k in keys[1:10]:
            b = a.to_bytes(size, "big").translate(sbox)
            s = int.from_bytes(b"".join((b[:n4], b[n5:n8], b[n4:n5], b[n10:n12], b[n8:n10],
                                         b[n15:], b[n12:n15])), "big")
            s1 = ((s << row) | (s >> rest)) & mask  # row r takes row r + 1
            v = s ^ s1
            xtime = ((v & low7) << 1) ^ ((v >> 7) & ones) * 0x1B
            a = xtime ^ s1 ^ (((v << half) | (v >> half)) & mask) ^ k
        b = a.to_bytes(size, "big").translate(sbox)
        s = int.from_bytes(b"".join((b[:n4], b[n5:n8], b[n4:n5], b[n10:n12], b[n8:n10],
                                     b[n15:], b[n12:n15])), "big")
        s = (s ^ keys[10]).to_bytes(size, "big")
        out = bytearray(size)
        for q, p in enumerate(_SLICE_OFFSETS):
            out[p::16] = s[q * n : q * n + n]
        return bytes(out)

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


_J0_CTR = b"\x00\x00\x00\x01"
_LENGTHS = struct.Struct(">QQ")
_R = 0xE1 << 120


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
    # rows[i][n] = n · H · x^4i multiplies nibble n at x^4i..x^4i+3, the
    # (i+1)-th nibble from the top of the block: rows[0] is the 16
    # multiples of H and each row is the one before times x^4. Byte j of
    # the block is the nibbles of rows 2j and 2j + 1, so its table XORs them.
    row = _nibble_row(h)
    rows = [row]
    for _ in range(31):
        row = [(e >> 4) ^ _RED[e & 15] for e in row]
        rows.append(row)
    return tuple(
        tuple([a ^ b for a in hi for b in lo]) for hi, lo in zip(rows[::2], rows[1::2])
    )


class GcmKey:
    """Everything AES-128-GCM derives from one key: the AES round keys, the
    hash key H = E(K, 0^128) and the GHASH table. Build one per key and
    reuse it for every record under that key; `zeroize` wipes it for good.

    Construction only checks the key. The first seal or open builds the
    round keys and H, and GHASH multiplies with `gf128_mul` until the key
    has hashed `_BLOCKS_BEFORE_TABLE` blocks, then builds its table; so a
    key that carries no record costs nothing and one that carries a few
    readings builds no table."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._key: bytes | None = key
        self.aes: Aes128 | None = None
        self._h = 0
        self._tables: tuple | None = None
        self._hashed = 0  # blocks hashed with gf128_mul

    def _ready(self) -> Aes128:
        if self._key is None:
            raise ValueError("GCM key has been zeroized")
        if self.aes is None:
            self.aes = Aes128(self._key)
            self._h = int.from_bytes(self.aes.encrypt_block(bytes(16)), "big")
        return self.aes

    def zeroize(self) -> None:
        # Python cannot scrub bytes or int objects; this drops the key, H, the
        # table and the broadcast round keys, and overwrites the round keys in
        # place
        self._key = None
        if self.aes is not None:
            rk = self.aes._rk
            rk[:] = [0] * len(rk)
            self.aes._wide.clear()
        self._h = 0
        self._tables = None

    def ghash(self, aad: bytes, ct: bytes) -> int:
        """GHASH_H(aad, ct) per SP 800-38D, as a big-endian integer."""
        self._ready()
        # AAD and ciphertext each zero-padded to whole blocks, then the lengths
        data = b"".join((aad, bytes(-len(aad) % 16), ct, bytes(-len(ct) % 16),
                         _LENGTHS.pack(8 * len(aad), 8 * len(ct))))
        blocks = [int.from_bytes(data[i : i + 16], "big") for i in range(0, len(data), 16)]
        y = 0
        tables = self._tables
        if tables is None:
            # block by block while the key is within its allowance, then the table
            n = min(len(blocks), _BLOCKS_BEFORE_TABLE - self._hashed)
            h = self._h.to_bytes(16, "big")
            for block in blocks[:n]:
                y = int.from_bytes(gf128_mul((y ^ block).to_bytes(16, "big"), h), "big")
            self._hashed += n
            if n == len(blocks):
                return y
            tables = self._tables = _ghash_tables(self._h)
            blocks = blocks[n:]
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = tables
        for block in blocks:
            b = (y ^ block).to_bytes(16, "big")
            y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]] ^ t4[b[4]] ^ t5[b[5]]
                 ^ t6[b[6]] ^ t7[b[7]] ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
                 ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
        return y

    def _tag(self, nonce: bytes, aad: bytes, ct: bytes) -> bytes:
        # GHASH masked with E(K, J0)
        ek_j0 = int.from_bytes(self.aes.encrypt_block(nonce + _J0_CTR), "big")
        return (self.ghash(aad, ct) ^ ek_j0).to_bytes(16, "big")

    def _ctr(self, nonce: bytes, data: bytes) -> bytes:
        # counter blocks start at 2; 1 is J0, which masks the tag. They run in
        # one batch if there are `_BATCH_BLOCKS` of them, else one by one
        n = len(data)
        counters = [nonce + i.to_bytes(4, "big") for i in range(2, (n + 15) // 16 + 2)]
        if len(counters) >= _BATCH_BLOCKS:
            stream = self.aes.encrypt_blocks(b"".join(counters))
        else:
            stream = b"".join([self.aes.encrypt_block(c) for c in counters])
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
    """GCM verify-then-decrypt. Tag comparison is constant-time, and no
    keystream is XORed into the ciphertext until the tag matches."""
    gk._ready()
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 12 bytes")
    if len(record) < TAG_LEN:
        raise AuthFailure()
    ct, tag = record[:-TAG_LEN], record[-TAG_LEN:]
    if len(ct) > MAX_PLAINTEXT:
        raise PayloadTooLarge(f"ciphertext exceeds {MAX_PLAINTEXT} bytes")
    if not kdf.compare_digest(gk._tag(nonce, aad, ct), tag):
        raise AuthFailure()
    return gk._ctr(nonce, ct)
