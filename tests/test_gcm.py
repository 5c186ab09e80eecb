"""AES-128-GCM against published known-answer vectors, a byte-wise
reference AES and a bit-serial GF(2^128) multiply, plus fuzzed
round-trip and tamper-detection properties."""

import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink import gcm
from vitalink.errors import AuthFailure, PayloadTooLarge
from vitalink.gcm import GcmKey, gf128_mul, open_, seal

# the multiplicative identity of GF(2^128) in GCM's bit order
GF128_ONE = (1 << 127).to_bytes(16, "big")

# ---------------------------------------------------------------------------
# Byte-wise reference AES-128 (FIPS 197 §5.1 step by step), sharing no table
# with the module: the S-box comes from inverses found by exponentiation.


def _gmul(a, b):
    p = 0
    while b:
        if b & 1:
            p ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return p


def _ref_sbox():
    box = []
    for x in range(256):
        inv = 1
        for _ in range(254):  # x^254 is x^-1 in GF(2^8), and 0 maps to 0
            inv = _gmul(inv, x)
        b = inv
        for i in (1, 2, 3, 4):
            b ^= ((inv << i) | (inv >> (8 - i))) & 0xFF
        box.append(b ^ 0x63)
    return box


REF_SBOX = _ref_sbox()


def ref_aes_encrypt(key, block):
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        w = list(words[i - 1])
        if i % 4 == 0:
            w = [REF_SBOX[b] for b in w[1:] + w[:1]]
            w[0] ^= rcon
            rcon = _gmul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], w)])
    round_keys = [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]

    s = [a ^ b for a, b in zip(block, round_keys[0])]  # column-major
    for rnd in range(1, 11):
        s = [REF_SBOX[b] for b in s]
        s = [s[(4 * (c + r) + r) % 16] for c in range(4) for r in range(4)]
        if rnd < 10:
            mixed = []
            for c in range(0, 16, 4):
                a = s[c : c + 4]
                for r in range(4):
                    mixed.append(
                        _gmul(a[r], 2) ^ _gmul(a[(r + 1) % 4], 3) ^ a[(r + 2) % 4] ^ a[(r + 3) % 4]
                    )
            s = mixed
        s = [a ^ b for a, b in zip(s, round_keys[rnd])]
    return bytes(s)


def ref_gf128_mul(X, Y):
    # bit-serial (SP 800-38D Algorithm 1): one bit of Y per step
    x, y = int.from_bytes(X, "big"), int.from_bytes(Y, "big")
    z = 0
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= x
        x = (x >> 1) ^ (0xE1 << 120) if x & 1 else x >> 1
    return z.to_bytes(16, "big")


def ref_ghash(h, aad, ct):
    def padded(data):
        return data + bytes(-len(data) % 16)

    data = padded(aad) + padded(ct) + (8 * len(aad)).to_bytes(8, "big") + (
        8 * len(ct)).to_bytes(8, "big")
    y = bytes(16)
    for i in range(0, len(data), 16):
        y = ref_gf128_mul(bytes(a ^ b for a, b in zip(y, data[i : i + 16])), h)
    return y


def tabled_key(key):
    # a key whose GHASH table is built, so every record uses it
    gk = GcmKey(key)
    gk.build_table()
    assert gk._tables is not None
    return gk


def test_aes_block_fips197_known_answer():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    want = "69c4e0d86a7b0430d8cdb78070b4c55a"
    assert gcm.Aes128(key).encrypt_block(pt).hex() == want
    assert ref_aes_encrypt(key, pt).hex() == want


@settings(max_examples=100, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_t_table_aes_matches_the_byte_wise_reference(key, block):
    assert gcm.Aes128(key).encrypt_block(block) == ref_aes_encrypt(key, block)


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    aad=st.binary(max_size=70),
    ct=st.binary(max_size=70),
)
def test_ghash_matches_the_bit_serial_multiply(key, aad, ct):
    h = ref_aes_encrypt(key, bytes(16))
    want = ref_ghash(h, aad, ct)
    assert tabled_key(key).ghash(aad, ct).to_bytes(16, "big") == want
    # a new key, within its allowance, multiplies with gf128_mul
    assert GcmKey(key).ghash(aad, ct).to_bytes(16, "big") == want


def test_aes_block_is_injective_per_key():
    key = os.urandom(16)
    rng = random.Random(1)
    cipher = gcm.Aes128(key)
    for _ in range(1000):
        a = rng.randbytes(16)
        b = rng.randbytes(16)
        if a != b:
            assert cipher.encrypt_block(a) != cipher.encrypt_block(b)


@settings(max_examples=300, deadline=None)
@given(x=st.binary(min_size=16, max_size=16), y=st.binary(min_size=16, max_size=16))
def test_gf128_mul_matches_the_bit_serial_multiply(x, y):
    assert gf128_mul(x, y) == ref_gf128_mul(x, y)


def test_gf128_identity_and_zero():
    x = os.urandom(16)
    assert gf128_mul(x, GF128_ONE) == x
    assert gf128_mul(x, b"\x00" * 16) == b"\x00" * 16


def test_gf128_commutes():
    rng = random.Random(2)
    for _ in range(1000):
        x, y = rng.randbytes(16), rng.randbytes(16)
        assert gf128_mul(x, y) == gf128_mul(y, x)


# NIST SP 800-38D example vectors for AES-128 (empty pt, empty aad, multi-
# block, partial-block with aad), plus the MACsec standard's GCM-AES-128
# authentication-only vector with a multi-block AAD.
GCM_VECTORS = [
    # (key, nonce, aad, plaintext, ciphertext, tag)
    (
        "00000000000000000000000000000000", "000000000000000000000000",
        "", "", "", "58e2fccefa7e3061367f1d57a4e7455a",
    ),
    (
        "00000000000000000000000000000000", "000000000000000000000000",
        "", "00000000000000000000000000000000",
        "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf",
    ),
    (
        "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
        "",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    ),
    (
        "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    ),
    (
        "ad7a2bd03eac835a6f620fdcb506b345", "12153524c0895e81b2c28465",
        "d609b1f056637a0d46df998d88e5222ab2c2846512153524c0895e8108000f10"
        "1112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30"
        "313233340001",
        "", "", "f09478a9b09007d06f46e9b6a1da25dd",
    ),
    (
        "ad7a2bd03eac835a6f620fdcb506b345", "12153524c0895e81b2c28465",
        "d609b1f056637a0d46df998d88e52e00b2c2846512153524c0895e81",
        "08000f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c"
        "2d2e2f303132333435363738393a0002",
        "701afa1cc039c0d765128a665dab69243899bf7318ccdc81c9931da17fbe8edd"
        "7d17cb8b4c26fc81e3284f2b7fba713d",
        "4f8d55e7d3f06fd5a13c0c29b9d5b880",
    ),
]


@pytest.mark.parametrize("key,nonce,aad,pt,ct,tag", GCM_VECTORS)
def test_gcm_known_answer_vectors(key, nonce, aad, pt, ct, tag):
    key, nonce, aad = bytes.fromhex(key), bytes.fromhex(nonce), bytes.fromhex(aad)
    h = ref_aes_encrypt(key, bytes(16))
    # a fresh key seals every vector with gf128_mul; a tabled one with its table
    for gk in (GcmKey(key), tabled_key(key)):
        record = seal(gk, nonce, aad, bytes.fromhex(pt))
        assert record[:-16].hex() == ct
        assert record[-16:].hex() == tag
        assert open_(gk, nonce, aad, record) == bytes.fromhex(pt)
        assert gk.ghash(aad, record[:-16]).to_bytes(16, "big") == ref_ghash(h, aad, record[:-16])


def test_seal_open_round_trip():
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    pt = os.urandom(100)
    assert open_(key, nonce, b"hdr", seal(key, nonce, b"hdr", pt)) == pt


def test_distinct_nonces_give_distinct_ciphertexts():
    key = GcmKey(os.urandom(16))
    pt = b"same plaintext, twice"
    a = seal(key, os.urandom(12), b"", pt)
    b = seal(key, os.urandom(12), b"", pt)
    assert a != b


def test_ciphertext_length_and_tag_length():
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    for n in (0, 1, 15, 16, 17, 100):
        record = seal(key, nonce, b"", bytes(n))
        assert len(record) == n + 16


def test_payload_cap():
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    with pytest.raises(PayloadTooLarge):
        seal(key, nonce, b"", bytes(gcm.MAX_PLAINTEXT + 1))


def test_single_bit_flips_in_ciphertext_fail():
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    record = seal(key, nonce, b"aad", os.urandom(64))
    rng = random.Random(3)
    for _ in range(100):
        bit = rng.randrange(len(record) * 8)
        bad = bytearray(record)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(AuthFailure):
            open_(key, nonce, b"aad", bytes(bad))


def test_tag_flip_nonce_flip_and_aad_change_fail():
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    record = seal(key, nonce, b"aad", b"payload")
    bad_tag = record[:-1] + bytes([record[-1] ^ 1])
    with pytest.raises(AuthFailure):
        open_(key, nonce, b"aad", bad_tag)
    bad_nonce = nonce[:-1] + bytes([nonce[-1] ^ 1])
    with pytest.raises(AuthFailure):
        open_(key, bad_nonce, b"aad", record)
    with pytest.raises(AuthFailure):
        open_(key, nonce, b"aae", record)


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    aad=st.binary(max_size=64),
    pt=st.binary(max_size=2048),
)
def test_round_trip_property(key, nonce, aad, pt):
    gk = GcmKey(key)
    assert open_(gk, nonce, aad, seal(gk, nonce, aad, pt)) == pt


def _count_block_calls(monkeypatch):
    calls = []
    real = gcm.Aes128.encrypt_block

    def counting(self, block):
        calls.append(block)
        return real(self, block)

    monkeypatch.setattr(gcm.Aes128, "encrypt_block", counting)
    return calls


def test_open_checks_the_tag_before_any_keystream(monkeypatch):
    key, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    record = seal(key, nonce, b"aad", bytes(19))
    calls = _count_block_calls(monkeypatch)
    with pytest.raises(AuthFailure):
        open_(key, nonce, b"aad", record[:-1] + bytes([record[-1] ^ 1]))
    # H is cached in the key, so a forgery costs only E(K, J0): no CTR block
    assert calls == [nonce + b"\x00\x00\x00\x01"]
    calls.clear()
    assert open_(key, nonce, b"aad", record) == bytes(19)
    assert calls == [nonce + b"\x00\x00\x00\x01", nonce + b"\x00\x00\x00\x02",
                     nonce + b"\x00\x00\x00\x03"]


def test_a_zeroized_key_neither_seals_nor_opens():
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    record = seal(gk, nonce, b"", b"reading")
    gk.zeroize()
    assert gk.aes._rk == [0] * 44
    with pytest.raises(ValueError):
        seal(gk, nonce, b"", b"reading")
    with pytest.raises(ValueError):
        open_(gk, nonce, b"", record)


def test_a_zeroized_key_that_never_ran_neither_seals_nor_opens():
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    gk.zeroize()
    with pytest.raises(ValueError):
        seal(gk, nonce, b"", b"reading")
    with pytest.raises(ValueError):
        open_(gk, nonce, b"", bytes(16))


def _count_gf128_calls(monkeypatch):
    calls = []
    real = gcm.gf128_mul

    def counting(x, y):
        calls.append(x)
        return real(x, y)

    monkeypatch.setattr(gcm, "gf128_mul", counting)
    return calls


def test_a_key_builds_its_ghash_table_once_it_has_hashed_36_blocks(monkeypatch):
    calls = _count_gf128_calls(monkeypatch)
    gk, aad = GcmKey(os.urandom(16)), bytes(12)  # a record header
    hashed = 0
    for n in (0, 19, 19, 19, 4096, 19):
        nonce = os.urandom(12)
        record = seal(gk, nonce, aad, bytes(n))
        assert open_(gk, nonce, aad, record) == bytes(n)
        # the AAD block, the ciphertext's blocks and the lengths block, twice
        hashed += 2 * (1 + (n + 15) // 16 + 1)
        # block by block up to the allowance; the table takes the 37th block on
        assert len(calls) == min(hashed, 36)
        assert (gk._tables is not None) == (hashed > 36)


def test_a_built_table_leaves_a_shared_key_unchanged_by_short_records():
    # the server's ticket key: once built, no seal or open of 4 counter
    # blocks writes to the key, so threads may share it
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    gk.build_table()
    state = (gk._tables, gk._hashed, dict(gk.aes._wide), list(gk.aes._rk))
    for _ in range(20):
        assert open_(gk, nonce, b"aad", seal(gk, nonce, b"aad", bytes(64))) == bytes(64)
    assert (gk._tables, gk._hashed, gk.aes._wide, gk.aes._rk) == state


def test_every_ghash_table_entry_is_its_block_times_h():
    h = os.urandom(16)
    tables = gcm._ghash_tables(int.from_bytes(h, "big"))
    assert len(tables) == 16 and all(len(t) == 256 for t in tables)
    for j, table in enumerate(tables):
        for v, entry in enumerate(table):
            block = bytes(j) + bytes([v]) + bytes(15 - j)
            assert entry.to_bytes(16, "big") == gf128_mul(block, h)


def test_one_ghash_table_build_allocates_under_256_kb():
    # every long-lived key pays this, so a wider table shows here first
    h = int.from_bytes(os.urandom(16), "big")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        gcm._ghash_tables(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 256 * 1024


# ---------------------------------------------------------------------------
# Batch AES


def test_batch_aes_fips197_known_answer():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    want = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert gcm.Aes128(key).encrypt_blocks(pt) == want
    assert gcm.Aes128(key).encrypt_blocks(pt * 5) == want * 5


@settings(max_examples=40, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), n=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_batch_aes_matches_encrypt_block_and_the_reference(key, n, seed):
    blocks = random.Random(seed).randbytes(16 * n)
    aes = gcm.Aes128(key)
    got = aes.encrypt_blocks(blocks)
    assert got == b"".join(aes.encrypt_block(blocks[i : i + 16]) for i in range(0, 16 * n, 16))
    # the reference is slow; a few blocks at the ends and the middle suffice
    for i in {0, n // 2, n - 1}:
        assert got[16 * i : 16 * i + 16] == ref_aes_encrypt(key, blocks[16 * i : 16 * i + 16])


def test_batch_aes_refuses_a_partial_or_empty_batch():
    aes = gcm.Aes128(bytes(16))
    for bad in (b"", bytes(15), bytes(33)):
        with pytest.raises(ValueError):
            aes.encrypt_blocks(bad)


def test_a_key_keeps_the_broadcast_keys_of_its_last_batch_size_only():
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    for blocks in (8, 9, 76, 8):
        seal(gk, nonce, b"", bytes(16 * blocks))
        assert list(gk.aes._wide) == [blocks]
    gk.zeroize()
    assert gk.aes._wide == {}
    with pytest.raises(ValueError):
        seal(gk, nonce, b"", b"reading")


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    aad=st.binary(max_size=40),
    pt=st.binary(max_size=1300),
    earlier=st.lists(st.integers(0, 1300), max_size=4),
)
def test_a_used_key_seals_and_opens_like_a_fresh_one(key, nonce, aad, pt, earlier):
    # records of other lengths first: the key has built, and maybe rebuilt,
    # its broadcast round keys for other batch sizes
    used = GcmKey(key)
    for i, n in enumerate(earlier):
        open_(used, bytes(11) + bytes([i]), b"", seal(used, bytes(11) + bytes([i]), b"", bytes(n)))
    record = seal(used, nonce, aad, pt)
    assert record == seal(GcmKey(key), nonce, aad, pt)
    assert open_(used, nonce, aad, record) == pt


def test_a_forged_batched_record_fails_before_any_batch(monkeypatch):
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    record = seal(GcmKey(gk._key), nonce, b"aad", bytes(19 * 64))  # 76 counter blocks
    seal(gk, os.urandom(12), b"", b"")  # builds the round keys and H
    singles = _count_block_calls(monkeypatch)
    batches = _count_batches(monkeypatch)
    with pytest.raises(AuthFailure):
        open_(gk, nonce, b"aad", record[:-1] + bytes([record[-1] ^ 1]))
    # only E(K, J0): no batch ran and no broadcast round keys were built
    assert singles == [nonce + b"\x00\x00\x00\x01"] and batches == []
    assert gk.aes._wide == {}
    assert open_(gk, nonce, b"aad", record) == bytes(19 * 64)
    assert batches == [76]


# ---------------------------------------------------------------------------
# Counter blocks: one at a time below `_BATCH_BLOCKS` and in one batch from there


def test_a_short_record_runs_its_counter_blocks_then_j0_one_by_one(monkeypatch):
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    seal(gk, os.urandom(12), b"", b"")  # builds the round keys and H
    calls = _count_block_calls(monkeypatch)
    batches = _count_batches(monkeypatch)
    seal(gk, nonce, b"aad", bytes(32))
    assert calls == [nonce + i.to_bytes(4, "big") for i in (2, 3, 1)] and batches == []
    for bad in (bytes(11), bytes(13)):
        with pytest.raises(ValueError):
            seal(gk, bad, b"aad", bytes(32))
        with pytest.raises(ValueError):
            open_(gk, bad, b"aad", bytes(48))


def _ctr_block_by_block(key: bytes, nonce: bytes, data: bytes) -> bytes:
    aes = gcm.Aes128(key)
    stream = b"".join(aes.encrypt_block(nonce + i.to_bytes(4, "big"))
                      for i in range(2, (len(data) + 15) // 16 + 2))
    return bytes(a ^ b for a, b in zip(data, stream))


def _oracle_seal(key: bytes, nonce: bytes, aad: bytes, pt: bytes) -> bytes:
    # a fresh key's slow path, written out: CTR through encrypt_block, GHASH
    # through gf128_mul, with no table and no batch
    aes = gcm.Aes128(key)
    ct = _ctr_block_by_block(key, nonce, pt)
    h = aes.encrypt_block(bytes(16))
    y = bytes(16)
    data = (aad + bytes(-len(aad) % 16) + ct + bytes(-len(ct) % 16)
            + (8 * len(aad)).to_bytes(8, "big") + (8 * len(ct)).to_bytes(8, "big"))
    for i in range(0, len(data), 16):
        y = gf128_mul(bytes(a ^ b for a, b in zip(y, data[i : i + 16])), h)
    j0 = aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
    return ct + bytes(a ^ b for a, b in zip(y, j0))


@settings(max_examples=80, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    n=st.one_of(st.integers(0, 300), st.integers(0, 4096), st.just(4096)),
    warm=st.integers(0, 40),
    seed=st.integers(0, 2**32),
)
def test_batched_counter_blocks_match_block_by_block_ctr(key, nonce, n, warm, seed):
    # `warm` empty records first, of one GHASH block each (the lengths): a
    # record whose GHASH has more than 36 - warm blocks crosses the table
    # threshold inside it, and past 36 the key has its table
    pt = random.Random(seed).randbytes(n)
    gk = GcmKey(key)
    for i in range(warm):
        seal(gk, bytes(11) + bytes([i]), b"", b"")
    record = seal(gk, nonce, b"aad", pt)
    assert record == _oracle_seal(key, nonce, b"aad", pt)
    assert open_(GcmKey(key), nonce, b"aad", record) == pt
    rx = GcmKey(key)
    for i in range(warm):
        open_(rx, bytes(11) + bytes([i]), b"", seal(GcmKey(key), bytes(11) + bytes([i]), b"", b""))
    assert open_(rx, nonce, b"aad", record) == pt


def _count_batches(monkeypatch):
    batches = []  # blocks per encrypt_blocks call
    real = gcm.Aes128.encrypt_blocks

    def counting(self, blocks):
        batches.append(len(blocks) // 16)
        return real(self, blocks)

    monkeypatch.setattr(gcm.Aes128, "encrypt_blocks", counting)
    return batches


def test_a_long_record_crosses_the_table_threshold_and_batches_its_counter_tail(monkeypatch):
    key, nonce = os.urandom(16), os.urandom(12)
    gk = GcmKey(key)
    for i in range(28):  # 28 of the 36 blocks before the table, one per empty record
        seal(gk, bytes(11) + bytes([i]), b"", b"")
    muls = _count_gf128_calls(monkeypatch)
    singles = _count_block_calls(monkeypatch)
    batches = _count_batches(monkeypatch)
    pt = os.urandom(64 * 19)  # a full record of readings: 76 counter blocks
    record = seal(gk, nonce, bytes(12), pt)
    # 8 blocks through gf128_mul, then the table for the other 70
    assert len(muls) == 8 and gk._tables is not None
    assert singles == [nonce + b"\x00\x00\x00\x01"] and batches == [76]
    monkeypatch.undo()
    assert record == _oracle_seal(key, nonce, bytes(12), pt)


def test_seven_counter_blocks_run_one_at_a_time_and_eight_in_one_batch(monkeypatch):
    gk, nonce = GcmKey(os.urandom(16)), os.urandom(12)
    seal(gk, os.urandom(12), b"", b"")  # builds the round keys and H
    singles = _count_block_calls(monkeypatch)
    batches = _count_batches(monkeypatch)
    seal(gk, nonce, b"", bytes(7 * 16))
    assert len(singles) == 1 + 7 and batches == []
    singles.clear()
    seal(gk, nonce[::-1], b"", bytes(7 * 16 + 1))
    assert len(singles) == 1 and batches == [8]  # J0 alone, then the batch
