"""Hash, HMAC, and extract/expand against their published standard vectors
and against the OpenSSL-backed standard library code they replace."""

import hashlib
import hmac
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vitalink.errors import InvalidLength
from vitalink.kdf import compare_digest, hash_, hkdf_expand, hkdf_extract, hmac_sha256

TESTS = Path(__file__).resolve().parent


def test_sha256_fips180_known_answers():
    assert hash_(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert hash_(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_sha256_deterministic_and_sensitive():
    msg = os.urandom(64)
    assert hash_(msg) == hash_(msg)
    rng = random.Random(5)
    for _ in range(100):
        bit = rng.randrange(len(msg) * 8)
        other = bytearray(msg)
        other[bit // 8] ^= 0x80 >> (bit % 8)
        assert hash_(bytes(other)) != hash_(msg)


# RFC 4231 test cases 1-7
HMAC_VECTORS = [
    (
        b"\x0b" * 20, b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe", b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20, b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)), b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (  # the RFC gives only the first 128 bits
        b"\x0c" * 20, b"Test With Truncation",
        "a3b6167473100ee06e0c796c2955552b",
    ),
    (  # key longer than the block size
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (  # key and data longer than the block size
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger than block-size "
        b"data. The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


@pytest.mark.parametrize("key,msg,mac", HMAC_VECTORS)
def test_hmac_rfc4231_vectors(key, msg, mac):
    assert hmac_sha256(key, msg).hex()[: len(mac)] == mac


@settings(max_examples=300, deadline=None)
@given(key=st.binary(max_size=200), msg=st.binary(max_size=300))
@example(key=b"", msg=b"")
@example(key=b"\x00" * 63, msg=b"\x00" * 63)
@example(key=b"\x01" * 64, msg=b"\x01" * 64)
@example(key=b"\x02" * 65, msg=b"\x02" * 65)
def test_hmac_and_hash_match_the_standard_library(key, msg):
    # keys of 0-200 bytes cross SHA-256's 64-byte block, past which a key is hashed first
    assert hmac_sha256(key, msg) == hmac.new(key, msg, hashlib.sha256).digest()
    assert hash_(msg) == hashlib.sha256(msg).digest()


def test_compare_digest():
    mac = hmac_sha256(b"k", b"m")
    assert compare_digest(mac, bytes(mac))
    assert compare_digest(b"", b"")
    assert not compare_digest(mac, mac[:-1] + bytes([mac[-1] ^ 1]))
    assert not compare_digest(mac, mac[:16])
    assert not compare_digest(mac[:16], mac)
    assert compare_digest(memoryview(mac)[16:], mac[16:])  # a slice of a received frame


@pytest.fixture(scope="module")
def footprint():
    """What tests/footprint.py reports of a server and a device session."""
    proc = subprocess.run(
        [sys.executable, str(TESTS / "footprint.py")], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(TESTS.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_process_of_the_package_loads_openssl(footprint):
    # `hashlib`, `hmac` and `ssl` map libcrypto into the process, about 3.5 MB
    pytest.importorskip("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert footprint["loaded"] == []
    assert footprint["sha256_module"] in sys.stdlib_module_names


def test_no_process_of_the_package_loads_dataclasses_or_inspect(footprint):
    # `dataclasses` imports `inspect`, `ast` and `dis`: about 0.9 MB of peak RSS
    assert footprint["introspection_loaded"] == []


def test_hmac_key_separation():
    msg = b"constant message"
    macs = {hmac_sha256(os.urandom(16), msg) for _ in range(100)}
    assert len(macs) == 100


# RFC 5869 test cases 1-3 for SHA-256
def test_hkdf_rfc5869_case1():
    ikm = b"\x0b" * 22
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


def test_hkdf_rfc5869_case2_long_inputs():
    ikm = bytes(range(0x00, 0x50))
    salt = bytes(range(0x60, 0xB0))
    info = bytes(range(0xB0, 0x100))
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
    )
    okm = hkdf_expand(prk, info, 82)
    assert okm.hex() == (
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87"
    )


def test_hkdf_rfc5869_case3_empty_salt_and_info():
    ikm = b"\x0b" * 22
    prk = hkdf_extract(b"", ikm)
    assert prk.hex() == (
        "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
    )
    okm = hkdf_expand(prk, b"", 42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


def test_empty_salt_equals_zero_salt():
    ikm = os.urandom(32)
    assert hkdf_extract(b"", ikm) == hkdf_extract(b"\x00" * 32, ikm)


def test_expand_exact_lengths():
    prk = hkdf_extract(b"s", b"ikm")
    for n in (1, 32, 33, 100):
        assert len(hkdf_expand(prk, b"info", n)) == n


def test_expand_length_bounds():
    prk = hkdf_extract(b"s", b"ikm")
    with pytest.raises(InvalidLength):
        hkdf_expand(prk, b"", 0)
    with pytest.raises(InvalidLength):
        hkdf_expand(prk, b"", 255 * 32 + 1)


def test_expand_prefix_consistency():
    prk = hkdf_extract(b"salt", b"ikm")
    long = hkdf_expand(prk, b"label", 100)
    for n in (1, 31, 32, 33, 64, 99):
        assert hkdf_expand(prk, b"label", n) == long[:n]


def test_distinct_labels_decorrelate():
    prk = hkdf_extract(b"salt", b"ikm")
    a = hkdf_expand(prk, b"label-a", 32)
    b = hkdf_expand(prk, b"label-b", 32)
    assert a != b
    common = sum(1 for x, y in zip(a, b) if x == y)
    assert common <= 8  # byte-equality at chance level, not structural
