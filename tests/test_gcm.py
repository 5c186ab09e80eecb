"""AES-128-GCM against published known-answer vectors plus fuzzed
round-trip and tamper-detection properties."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink import gcm
from vitalink.errors import AuthFailure, PayloadTooLarge
from vitalink.gcm import GF128_ONE, block_encrypt, gf128_mul, open_, seal


def test_aes_block_fips197_known_answer():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert block_encrypt(key, pt).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_aes_block_is_injective_per_key():
    key = os.urandom(16)
    rng = random.Random(1)
    cipher = gcm.Aes128(key)
    for _ in range(1000):
        a = rng.randbytes(16)
        b = rng.randbytes(16)
        if a != b:
            assert cipher.encrypt_block(a) != cipher.encrypt_block(b)


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
    record = seal(
        bytes.fromhex(key), bytes.fromhex(nonce), bytes.fromhex(aad), bytes.fromhex(pt)
    )
    assert record[:-16].hex() == ct
    assert record[-16:].hex() == tag
    assert open_(
        bytes.fromhex(key), bytes.fromhex(nonce), bytes.fromhex(aad), record
    ) == bytes.fromhex(pt)


def test_seal_open_round_trip():
    key, nonce = os.urandom(16), os.urandom(12)
    pt = os.urandom(100)
    assert open_(key, nonce, b"hdr", seal(key, nonce, b"hdr", pt)) == pt


def test_distinct_nonces_give_distinct_ciphertexts():
    key = os.urandom(16)
    pt = b"same plaintext, twice"
    a = seal(key, os.urandom(12), b"", pt)
    b = seal(key, os.urandom(12), b"", pt)
    assert a != b


def test_ciphertext_length_and_tag_length():
    key, nonce = os.urandom(16), os.urandom(12)
    for n in (0, 1, 15, 16, 17, 100):
        record = seal(key, nonce, b"", bytes(n))
        assert len(record) == n + 16


def test_payload_cap():
    key, nonce = os.urandom(16), os.urandom(12)
    with pytest.raises(PayloadTooLarge):
        seal(key, nonce, b"", bytes(gcm.MAX_PLAINTEXT + 1))


def test_single_bit_flips_in_ciphertext_fail():
    key, nonce = os.urandom(16), os.urandom(12)
    record = seal(key, nonce, b"aad", os.urandom(64))
    rng = random.Random(3)
    for _ in range(100):
        bit = rng.randrange(len(record) * 8)
        bad = bytearray(record)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(AuthFailure):
            open_(key, nonce, b"aad", bytes(bad))


def test_tag_flip_nonce_flip_and_aad_change_fail():
    key, nonce = os.urandom(16), os.urandom(12)
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
    assert open_(key, nonce, aad, seal(key, nonce, aad, pt)) == pt


def _count_block_calls(monkeypatch):
    calls = []
    real = gcm.Aes128.encrypt_block

    def counting(self, block):
        calls.append(block)
        return real(self, block)

    monkeypatch.setattr(gcm.Aes128, "encrypt_block", counting)
    return calls


def test_open_checks_the_tag_before_any_keystream(monkeypatch):
    key, nonce = os.urandom(16), os.urandom(12)
    record = seal(key, nonce, b"aad", bytes(19))
    calls = _count_block_calls(monkeypatch)
    with pytest.raises(AuthFailure):
        open_(key, nonce, b"aad", record[:-1] + bytes([record[-1] ^ 1]))
    # H = E(K, 0^128) and E(K, J0), no CTR block
    assert calls == [bytes(16), nonce + b"\x00\x00\x00\x01"]
    calls.clear()
    assert open_(key, nonce, b"aad", record) == bytes(19)
    assert len(calls) == 4
