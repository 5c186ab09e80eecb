"""Byte-exact regressions. Seeded credentials, a signature and a
handshake's session id, recorded before the fixed-base table and wNAF
replaced plain double-and-add: any drift in scalar multiplication shows
up here. A sealed record stream, recorded before per-key GCM state,
T-table AES and table GHASH replaced the byte-wise cipher and the
bit-serial GHASH: any drift in the record layer shows up here."""

import hashlib

import pytest

from vitalink import credentials as creds
from vitalink import curves, keyfiles
from vitalink.credentials import Role
from vitalink.handshake import ClientHandshake, LocalIdentity, ServerHandshake
from vitalink.records import TYPE_CLOSE, TYPE_DATA, DirectionState, record_seal

NOW = 1_700_000_000

# SHA-256 of each encoded value
GOLDEN = {
    "toy": {
        "root": "ea2c8bcbce29c359bddd2b80a8bd746d968a6e778f883dc8abb7f36c189cdec1",
        "server-1": "6cf982090c2c915f4c32d89930fe1b46258a086b87d0597379ab9d865bce35e1",
        "watch-1": "45bf0a54c4af90746370f3e27a8071fc6b189f64612abf3e4899886185f0e6be",
        "sig": "01d53341947295aacc1ca95c19e62d5b374868acf8ef5663d94622d8824abfd0",
        "session_id": "19c7c5cfb0b7f367ad3d2b20f9144e83aaf6a4974f827b2a65e7b23522706145",
    },
    "p256": {
        "root": "7d972da258cbbef837f765ae9f6fb8376a87433a73538d43d2ad2ded3a79d6b5",
        "server-1": "139e45b600fcc98619df8967d691d6390f3a74c50a59c51ad0df13186001d2d3",
        "watch-1": "039adb606cc006646c4b2494b6d3f33d4c2ed4cf8f4eda55a59e785069d94540",
        "sig": "6016340bba2e7fd93f49e24e99a4f65837d80fd1e6d1b525d06b522727324a1b",
        "session_id": "8d97de8551a9dc2b77fecbb1cf057a388a043d208d8fce033296a7c735fb8fa6",
    },
}


def seeded_run(suite):
    rng = keyfiles.drbg(2024)
    root_d, root_q = curves.keypair_gen(suite, rng)
    root_sub = creds.encode_subject("root")
    root = creds.credential_issue(
        root_d, root_sub, Role.ISSUER, root_q, NOW - 3600, NOW + 86400, root_sub, suite, rng
    )
    out = {"root": root.encode(suite)}
    ids = {}
    for name, role in (("server-1", Role.SERVER), ("watch-1", Role.DEVICE)):
        d, q = curves.keypair_gen(suite, rng)
        cred = creds.credential_issue(
            root_d, creds.encode_subject(name), role, q, NOW - 3600, NOW + 86400,
            root_sub, suite, rng,
        )
        ids[role] = LocalIdentity(d, cred)
        out[name] = cred.encode(suite)
    device = ids[Role.DEVICE]
    out["sig"] = creds.schnorr_sign(
        device.static_priv, device.credential.static_pub, b"golden", suite, rng
    ).encode(suite)
    client = ClientHandshake(suite, device, root, rng=keyfiles.drbg(7), now=NOW)
    server = ServerHandshake(ids[Role.SERVER], root, suite, rng=keyfiles.drbg(8), now=NOW)
    finish, client_keys = client.finish(server.respond(client.start()))
    server_keys, _ = server.complete(finish)
    assert client_keys.session_id == server_keys.session_id
    out["session_id"] = client_keys.session_id
    return {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}


@pytest.mark.parametrize("name", ["toy", "p256"])
def test_seeded_run_is_byte_identical(name):
    assert seeded_run(curves.SUITE_NAMES[name]) == GOLDEN[name]


def test_record_stream_is_byte_identical():
    # 1000 Data records of 19 bytes, the size of one reading, then a Close
    tx = DirectionState(bytes(range(16)), bytes.fromhex("a1b2c3d4"))
    stream = hashlib.sha256()
    for i in range(1000):
        payload = hashlib.sha256(i.to_bytes(4, "big")).digest()[:19]
        stream.update(record_seal(tx, TYPE_DATA, payload).encode())
    stream.update(record_seal(tx, TYPE_CLOSE, b"").encode())
    assert stream.hexdigest() == "9c1238a259440f2f725348a19bdd4fd62d608067d179b327f60256d874af7708"
