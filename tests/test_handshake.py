"""Handshake state machine: honest flows, negative paths, key schedule."""

import struct

import pytest

from vitalink import credentials as creds
from vitalink import curves, kdf, keyfiles
from vitalink.curves import P256
from vitalink.errors import (
    BadClientCredential,
    BadFinishedMac,
    BadServerCredential,
    BadTranscriptSignature,
    HandshakeError,
    InvalidPeerKey,
    ProtocolStateError,
    UnsupportedSuite,
)
from vitalink.handshake import (
    ClientHandshake,
    LocalIdentity,
    Phase,
    ServerHandshake,
    derive_session_keys,
)

from conftest import Pki


def run_handshake(pki, client_rng=None, server_rng=None):
    import os

    c = ClientHandshake(pki.suite, pki.device, pki.root, client_rng or os.urandom)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite, rng=server_rng or os.urandom)
    ch = c.start()
    sh = s.respond(ch)
    cf, ck = c.finish(sh)
    sk, peer = s.complete(cf)
    return c, s, ck, sk, peer


def test_honest_flow_both_sides_agree(pki):
    c, s, ck, sk, peer = run_handshake(pki)
    assert ck == sk
    assert c.phase is Phase.ESTABLISHED and s.phase is Phase.ESTABLISHED
    assert peer == pki.device_cred.subject_id
    assert c.peer_identity == pki.server_cred.subject_id


def test_key_schedule_field_lengths(pki):
    _, _, ck, _, _ = run_handshake(pki)
    assert len(ck.c2s_key) == 16
    assert len(ck.c2s_salt) == 4
    assert len(ck.client_fin_key) == 32 and len(ck.server_fin_key) == 32
    assert len(ck.session_id) == 32


def test_client_hello_shape(pki):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    body = c.start()
    assert bytes(c.transcript) == body
    (suite_id,) = struct.unpack(">H", body[:2])
    assert suite_id == pki.suite.suite_id
    (plen,) = struct.unpack(">H", body[34:36])
    point = curves.point_decode(body[36 : 36 + plen], pki.suite)
    assert pki.suite.is_on_curve(point)


def test_fresh_randoms_per_start(pki):
    randoms = set()
    for _ in range(20):
        c = ClientHandshake(pki.suite, pki.device, pki.root)
        c.start()
        randoms.add(c.client_random)
    assert len(randoms) == 20


def test_phase_order_enforced(pki):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    with pytest.raises(ProtocolStateError):
        c.finish(b"")
    c.start()
    with pytest.raises(ProtocolStateError):
        c.start()
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    with pytest.raises(ProtocolStateError):
        s.complete(b"")


def test_unsupported_suite_rejected(pki):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    body = bytearray(c.start())
    struct.pack_into(">H", body, 0, 0xFFFF)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    with pytest.raises(UnsupportedSuite):
        s.respond(bytes(body))
    assert s.phase is Phase.FAILED


def test_an_unknown_suite_on_the_toy_server_is_still_unsupported(toy_pki):
    body = bytearray(ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root).start())
    struct.pack_into(">H", body, 0, 0xFFFF)
    s = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    with pytest.raises(UnsupportedSuite):
        s.respond(bytes(body))


def test_a_truncated_client_hello_is_malformed_not_an_unsupported_suite(toy_pki):
    hello = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root).start()
    s = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    with pytest.raises(HandshakeError, match="^malformed ClientHello: ") as err:
        s.respond(hello[:-1])
    assert type(err.value) is HandshakeError
    assert s.phase is Phase.FAILED


def test_a_truncated_server_hello_is_malformed_not_a_bad_signature(toy_pki):
    c = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root)
    s = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    server_hello = s.respond(c.start())
    with pytest.raises(HandshakeError, match="^malformed ServerHello: ") as err:
        c.finish(server_hello[:-1])
    assert type(err.value) is HandshakeError
    assert c.phase is Phase.FAILED


def test_a_bad_server_ephemeral_is_reported_as_such(toy_pki):
    c = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root)
    s = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    server_hello = bytearray(s.respond(c.start()))
    server_hello[32 + 2] = 0x05  # the point's 0x04 prefix, after random(32) and its length
    with pytest.raises(HandshakeError, match="^server ephemeral invalid: ") as err:
        c.finish(bytes(server_hello))
    assert type(err.value) is HandshakeError


def test_server_sig_verifiable_by_independent_checker(pki):
    """Recompute the signed digest from the two hello bodies alone."""
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    ch = c.start()
    sh = s.respond(ch)

    # parse ServerHello without the client's state machine
    off = 32
    (n,) = struct.unpack(">H", sh[off : off + 2])
    eph = sh[off : off + 2 + n]
    off += 2 + n
    (n,) = struct.unpack(">H", sh[off : off + 2])
    cred_lp = sh[off : off + 2 + n]
    cred = creds.credential_decode(sh[off + 2 : off + 2 + n], pki.suite)
    off += 2 + n
    (n,) = struct.unpack(">H", sh[off : off + 2])
    sig = creds.sig_decode(sh[off + 2 : off + 2 + n], pki.suite)

    digest = kdf.hash_(b"vl srv" + ch + sh[:32] + eph + cred_lp)
    assert creds.schnorr_verify(cred.static_pub, digest, sig, pki.suite)


def test_wrong_trust_root_rejected(pki):
    other = Pki(P256, seed=777)
    c = ClientHandshake(pki.suite, pki.device, other.root)  # client trusts another root
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    sh = s.respond(c.start())
    with pytest.raises(BadServerCredential):
        c.finish(sh)
    assert c.phase is Phase.FAILED


def test_flipped_server_sig_rejected(pki):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    sh = bytearray(s.respond(c.start()))
    # flip one bit inside the signature field (located from the tail:
    # last 32 bytes are the finished MAC, the sig block sits before it)
    sh[-40] ^= 0x01
    with pytest.raises((BadTranscriptSignature, BadFinishedMac)):
        c.finish(bytes(sh))


def test_flipped_finished_mac_rejected(pki):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    sh = bytearray(s.respond(c.start()))
    sh[-1] ^= 0x01
    with pytest.raises(BadFinishedMac):
        c.finish(bytes(sh))


def test_replayed_client_finish_rejected(pki):
    _, _, _, _, _ = run_handshake(pki)
    c1 = ClientHandshake(pki.suite, pki.device, pki.root)
    s1 = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    sh1 = s1.respond(c1.start())
    cf1, _ = c1.finish(sh1)

    # fresh session: replaying the old finish must fail (randoms differ)
    c2 = ClientHandshake(pki.suite, pki.device, pki.root)
    s2 = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    s2.respond(c2.start())
    with pytest.raises(HandshakeError):
        s2.complete(cf1)
    assert s2.phase is Phase.FAILED


def test_device_credential_with_server_role_rejected(pki):
    rng = keyfiles.drbg(31)
    dd, dq = curves.keypair_gen(pki.suite, rng)
    cred = creds.credential_issue(
        pki.root_priv, creds.encode_subject("imposter"), creds.Role.SERVER, dq,
        pki.now - 10, pki.now + 1000, pki.root_sub, pki.suite, rng,
    )
    c = ClientHandshake(pki.suite, LocalIdentity(dd, cred), pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    sh = s.respond(c.start())
    cf, _ = c.finish(sh)
    with pytest.raises(HandshakeError):
        s.complete(cf)


def test_ephemeral_zeroized_after_establishment(pki):
    c, s, _, _, _ = run_handshake(pki)
    assert c.eph_priv is None and s.eph_priv is None


def test_toy_suite_handshake(toy_pki):
    _, _, ck, sk, _ = run_handshake(toy_pki)
    assert ck == sk


def test_session_uniqueness_small_scale(toy_pki):
    ids, keys = set(), set()
    for _ in range(50):
        _, _, ck, _, _ = run_handshake(toy_pki)
        ids.add(ck.session_id)
        keys.add(ck.c2s_key)
    assert len(ids) == 50 and len(keys) == 50


def test_derive_session_keys_deterministic_and_avalanche():
    shared = b"\x01" * 32
    cr, sr, th = b"\x02" * 32, b"\x03" * 32, kdf.hash_(b"transcript")
    a = derive_session_keys(shared, cr, sr, th)
    b = derive_session_keys(shared, cr, sr, th)
    assert (a.c2s_key, a.c2s_salt) == (b.c2s_key, b.c2s_salt)
    flipped = derive_session_keys(shared, cr, sr, kdf.hash_(b"transcripu"))
    for field in ("c2s_key", "c2s_salt", "client_fin_key", "server_fin_key"):
        assert getattr(a, field) != getattr(flipped, field)


def test_the_key_schedule_expands_four_values_unchanged_by_the_removed_s2c_keys(monkeypatch):
    """Recorded while the schedule still expanded an s2c key and salt: the
    labels and PRK are unchanged, so the remaining values are too."""
    expands = []
    real = kdf.hkdf_expand
    monkeypatch.setattr(kdf, "hkdf_expand", lambda *a: expands.append(a) or real(*a))
    keys = derive_session_keys(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32,
                               kdf.hash_(b"transcript"))
    assert len(expands) == 4
    assert keys.c2s_key.hex() == "610e11238bac4fae56bf4a91aa03761d"
    assert keys.c2s_salt.hex() == "ec0f94ed"
    assert keys.client_fin_key.hex() == (
        "41eb10ba24ff0c746118f1549c9531e2f129f738262cac2f3ca7fb019ce0b592")
    assert keys.server_fin_key.hex() == (
        "e5967063fca4c1c85ad0168d69ebf00a219fb999ec11ab087a188f0adcf2d143")


def _degenerate_shared_secret(*args):
    raise InvalidPeerKey("shared point is the identity")


def test_invalid_peer_key_fails_the_server_handshake(pki, monkeypatch):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    hello = c.start()
    monkeypatch.setattr(curves, "shared_secret", _degenerate_shared_secret)
    with pytest.raises(HandshakeError):
        s.respond(hello)
    assert s.phase is Phase.FAILED and s.eph_priv is None


def test_invalid_peer_key_fails_the_client_handshake(pki, monkeypatch):
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    server_hello = s.respond(c.start())
    monkeypatch.setattr(curves, "shared_secret", _degenerate_shared_secret)
    with pytest.raises(HandshakeError):
        c.finish(server_hello)
    assert c.phase is Phase.FAILED and c.eph_priv is None


def test_a_second_handshake_checks_one_signature_per_side(pki, verifies):
    per_side = []
    for _ in range(2):
        c = ClientHandshake(pki.suite, pki.device, pki.root)
        s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
        sh = s.respond(c.start())
        del verifies[:]
        cf, ck = c.finish(sh)
        client = len(verifies)
        sk, _ = s.complete(cf)
        per_side.append((client, len(verifies) - client))
        assert ck == sk
    # the first time each side checks the peer's credential and its transcript
    # signature; the second time the credential is remembered
    assert per_side == [(2, 2), (1, 1)]


REJECTION_CAUSES = ("UnknownIssuer", "BadSignature", "NotYetValid", "Expired", "RoleMismatch")


def rejected_identity(pki, cause, role):
    """An identity in `role` whose credential `pki.root` rejects for `cause`."""
    rng = keyfiles.drbg(41)
    d, q = curves.keypair_gen(pki.suite, rng)
    key, issuer = pki.root_priv, pki.root_sub
    valid_from, valid_to = pki.now - 3600, pki.now + 3600
    if cause == "UnknownIssuer":
        issuer = creds.encode_subject("other-root")
    elif cause == "BadSignature":
        key = curves.keypair_gen(pki.suite, rng)[0]
    elif cause == "NotYetValid":
        valid_from, valid_to = pki.now + 86400, pki.now + 2 * 86400
    elif cause == "Expired":
        valid_from, valid_to = pki.now - 2 * 86400, pki.now - 86400
    elif cause == "RoleMismatch":
        role = creds.Role.SERVER if role is creds.Role.DEVICE else creds.Role.DEVICE
    cred = creds.credential_issue(key, creds.encode_subject("rogue"), role, q,
                                  valid_from, valid_to, issuer, pki.suite, rng)
    return LocalIdentity(d, cred)


@pytest.mark.parametrize("cause", REJECTION_CAUSES)
def test_a_rejected_device_credential_is_reported_as_its_cause(pki, cause):
    device = rejected_identity(pki, cause, creds.Role.DEVICE)
    c = ClientHandshake(pki.suite, device, pki.root)
    s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
    finish, _ = c.finish(s.respond(c.start()))
    with pytest.raises(BadClientCredential) as info:
        s.complete(finish)
    # the server logs it as detail=<cause>, one bare word
    assert type(info.value) is BadClientCredential and str(info.value) == cause
    assert s.phase is Phase.FAILED and s.peer_identity is None


@pytest.mark.parametrize("cause", REJECTION_CAUSES)
def test_a_rejected_server_credential_is_reported_as_its_cause(pki, cause):
    server = rejected_identity(pki, cause, creds.Role.SERVER)
    c = ClientHandshake(pki.suite, pki.device, pki.root)
    s = ServerHandshake(server, pki.root, suite=pki.suite)
    hello = s.respond(c.start())
    with pytest.raises(BadServerCredential) as info:
        c.finish(hello)
    assert type(info.value) is BadServerCredential and str(info.value) == cause
    assert c.phase is Phase.FAILED and c.eph_priv is None
