"""Handshake state machine: honest flows, negative paths, key schedule."""

import hashlib
import os
import struct
from types import SimpleNamespace

import pytest

from vitalink import credentials as creds
from vitalink import curves, gcm, handshake, kdf, keyfiles
from vitalink.curves import P256
from vitalink.gcm import GcmKey
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
from vitalink.records import DirectionState

from conftest import Pki, forged_ticket


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
    assert c.server_credential == pki.server_cred


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


@pytest.mark.parametrize("field", ["credential", "signature"])
def test_a_server_proof_that_does_not_decode_is_a_malformed_server_hello(toy_pki, field):
    c = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root)
    s = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    r = handshake._Reader(s.respond(c.start()))
    hello = r.take(handshake.RANDOM_LEN) + handshake._lp(r.take_lp())
    cred, sig, mac = r.take_proof()
    if field == "credential":
        cred = cred[:-1]
    else:  # flip the low bit of the signature point's y: off the curve
        sig = bytearray(sig)
        sig[2 * toy_pki.suite.field_len] ^= 1
    hello += handshake._lp(cred) + handshake._lp(bytes(sig)) + mac
    with pytest.raises(BadServerCredential, match="^malformed ServerHello: ") as err:
        c.finish(hello)
    assert type(err.value) is BadServerCredential
    assert c.phase is Phase.FAILED and c.eph_priv is None


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
    assert s.phase is Phase.FAILED and s._claims is None  # no device subject kept


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


# ---------------------------------------------------------------------------
# resumption


def resumed_pair(pki, ticket_key, now=None):
    """A client offering the ticket of one full session with a server under
    `ticket_key`, and a fresh server with the same key."""
    c, s, _, _, _ = run_handshake(pki)
    s.ticket_key = ticket_key
    resumption = c.resumption_for(s.new_ticket())
    client = ClientHandshake(pki.suite, pki.device, pki.root, now=now, resumption=resumption)
    server = ServerHandshake(pki.server, pki.root, suite=pki.suite, now=now,
                             ticket_key=ticket_key)
    return client, server


def test_no_repr_shows_a_secret(pki):
    # a repr reaches a log line or a failed test's report
    client, _ = resumed_pair(pki, GcmKey(os.urandom(16)))
    _, _, keys, _, _ = run_handshake(pki)
    shown = {
        repr(pki.device): [pki.device.static_priv],
        repr(client.resumption): [client.resumption.secret],
        repr(keys): [keys.c2s_key, keys.c2s_salt, keys.client_fin_key, keys.server_fin_key,
                     keys.resumption_secret],
        repr(DirectionState(keys.c2s_key, keys.c2s_salt)): [keys.c2s_key, keys.c2s_salt],
    }
    for text, secrets in shown.items():
        for secret in secrets:
            forms = (str(secret), f"{secret:x}") if isinstance(secret, int) else (
                repr(secret), secret.hex())
            assert not any(form in text for form in forms), text


def test_a_resumed_session_agrees_on_new_keys_without_a_signature(pki, monkeypatch):
    client, server = resumed_pair(pki, GcmKey(os.urandom(16)))
    calls = []
    for fn in ("schnorr_sign", "schnorr_verify", "credential_verify"):
        real = getattr(creds, fn)
        monkeypatch.setattr(creds, fn, lambda *a, _fn=fn, _real=real, **k:
                            calls.append(_fn) or _real(*a, **k))
    finish, ck = client.finish(server.respond(client.start()))
    sk, peer = server.complete(finish)
    assert calls == []
    assert ck == sk and client.resumed and server.resumed and server.refusal is None
    assert peer == pki.device_cred.subject_id
    assert client.server_credential == pki.server_cred
    assert len(finish) == 2 + 2 + 32  # empty credential and signature, then the MAC
    assert client.eph_priv is None and server.eph_priv is None


def test_a_resumed_session_issues_a_ticket_that_resumes_again(toy_pki):
    key = GcmKey(os.urandom(16))
    client, server = resumed_pair(toy_pki, key)
    finish, ck = client.finish(server.respond(client.start()))
    server.complete(finish)
    again = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                            resumption=client.resumption_for(server.new_ticket()))
    third = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite, ticket_key=key)
    finish, ck3 = again.finish(third.respond(again.start()))
    sk3, peer = third.complete(finish)
    assert ck3 == sk3 and third.resumed and peer == toy_pki.device_cred.subject_id
    assert ck3.session_id != ck.session_id and ck3.c2s_key != ck.c2s_key


def test_a_resumed_client_finish_that_carries_a_credential_is_malformed(toy_pki):
    client, server = resumed_pair(toy_pki, GcmKey(os.urandom(16)))
    finish, _ = client.finish(server.respond(client.start()))
    cred = handshake._lp(toy_pki.device_cred.encode(toy_pki.suite))
    with pytest.raises(BadClientCredential, match="^malformed ClientFinish: "):
        server.complete(cred + finish[2:])
    assert server.phase is Phase.FAILED


def test_an_empty_server_proof_is_refused_when_no_ticket_was_offered(toy_pki):
    client, server = resumed_pair(toy_pki, GcmKey(os.urandom(16)))
    resumed_hello = server.respond(client.start())
    plain = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root)
    plain.start()
    with pytest.raises(BadServerCredential):
        plain.finish(resumed_hello)


def test_a_resumed_server_hello_without_the_secret_fails_its_mac(toy_pki):
    client, _ = resumed_pair(toy_pki, GcmKey(os.urandom(16)))
    # a server that answers the offer as resumed but does not hold the
    # secret: it mixes another into its extract
    impostor = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite)
    impostor._resume = lambda *offer: os.urandom(32)
    hello = impostor.respond(client.start())
    assert impostor.resumed
    with pytest.raises(BadFinishedMac):
        client.finish(hello)
    assert client.phase is Phase.FAILED


REFUSALS = ("BadTicket", "BadBinder", "TicketExpired", "Expired")


@pytest.mark.parametrize("cause", REFUSALS)
def test_a_refused_ticket_falls_back_to_a_full_handshake(toy_pki, cause):
    key = GcmKey(os.urandom(16))
    client, server = resumed_pair(toy_pki, key, now=toy_pki.now)
    r = client.resumption
    if cause == "BadTicket":  # another server's key
        ticket = forged_ticket(GcmKey(os.urandom(16)), r.secret, toy_pki, None, toy_pki.now)
    else:
        ticket = forged_ticket(key, r.secret, toy_pki, cause, toy_pki.now)
    secret = os.urandom(32) if cause == "BadBinder" else r.secret
    client.resumption = handshake.Resumption(ticket, secret, r.server)
    finish, ck = client.finish(server.respond(client.start()))
    sk, peer = server.complete(finish)
    assert server.refusal == cause and not server.resumed and not client.resumed
    assert ck == sk and peer == toy_pki.device_cred.subject_id


@pytest.mark.parametrize("late", [0, 1])
def test_a_full_and_a_resumed_handshake_expire_a_credential_at_the_same_second(
        toy_pki, monkeypatch, late):
    suite, root = toy_pki.suite, toy_pki.root
    rng = keyfiles.drbg(43)
    d, q = curves.keypair_gen(suite, rng)
    valid_to = toy_pki.now + 3600  # well inside the ticket's lifetime
    device = LocalIdentity(d, creds.credential_issue(
        toy_pki.root_priv, creds.encode_subject("short-1"), creds.Role.DEVICE, q,
        toy_pki.now - 3600, valid_to, toy_pki.root_sub, suite, rng))
    clock = [toy_pki.now]
    monkeypatch.setattr(handshake, "time", SimpleNamespace(time=lambda: clock[0]))
    key = GcmKey(os.urandom(16))
    client = ClientHandshake(suite, device, root)
    server = ServerHandshake(toy_pki.server, root, suite=suite, ticket_key=key)
    server.complete(client.finish(server.respond(client.start()))[0])
    resumption = client.resumption_for(server.new_ticket())

    clock[0] = valid_to + creds.CLOCK_SKEW_S + late
    cause = "Expired" if late else None
    assert creds.credential_verify(device.credential, root, clock[0], suite,
                                   expected_role=creds.Role.DEVICE) == cause
    client = ClientHandshake(suite, device, root, resumption=resumption)
    server = ServerHandshake(toy_pki.server, root, suite=suite, ticket_key=key)
    finish, _ = client.finish(server.respond(client.start()))
    assert server.refusal == cause and server.resumed == (not late)
    if late:  # refused, the full handshake checks the credential and refuses it too
        with pytest.raises(BadClientCredential, match="^Expired$"):
            server.complete(finish)
    else:
        assert server.complete(finish)[1] == device.credential.subject_id


def resume(pki, resumption, key, now, server=None):
    """A handshake at `now` that offers `resumption` when given: the client,
    the server, and the keys each side established."""
    client = ClientHandshake(pki.suite, pki.device, pki.root, now=now, resumption=resumption)
    server = ServerHandshake(server or pki.server, pki.root, suite=pki.suite, now=now,
                             ticket_key=key)
    finish, ck = client.finish(server.respond(client.start()))
    sk, _ = server.complete(finish)
    return client, server, ck, sk


@pytest.mark.parametrize("late", [0, 60])
def test_a_device_offers_no_ticket_once_the_server_credential_has_expired(toy_pki, late):
    suite, root, now = toy_pki.suite, toy_pki.root, toy_pki.now
    rng = keyfiles.drbg(44)
    d, q = curves.keypair_gen(suite, rng)
    valid_to = now + 600
    server = LocalIdentity(d, creds.credential_issue(
        toy_pki.root_priv, creds.encode_subject("short-srv"), creds.Role.SERVER, q,
        now - 3600, valid_to, toy_pki.root_sub, suite, rng))
    key = GcmKey(os.urandom(16))
    client, s, _, _ = resume(toy_pki, None, key, now, server)
    resumption = client.resumption_for(s.new_ticket())

    later = valid_to + creds.CLOCK_SKEW_S + late
    client = ClientHandshake(suite, toy_pki.device, root, now=later, resumption=resumption)
    s = ServerHandshake(server, root, suite=suite, now=later, ticket_key=key)
    hello = s.respond(client.start())
    if late:  # offered nothing, and a full handshake refuses the credential
        assert client.resumption is None and not s.resumed and s.refusal is None
        with pytest.raises(BadServerCredential, match="^Expired$"):
            client.finish(hello)
    else:
        finish, ck = client.finish(hello)
        assert s.resumed and s.complete(finish)[0] == ck


def test_a_chain_of_resumptions_ends_a_ticket_lifetime_after_its_full_handshake(toy_pki):
    key = GcmKey(os.urandom(16))
    hour, start = 3600, toy_pki.now
    client, server, _, _ = resume(toy_pki, None, key, start)
    assert not server.resumed
    client, server, ck, sk = resume(toy_pki, client.resumption_for(server.new_ticket()), key,
                                    start + 20 * hour)
    assert server.resumed and ck == sk
    # this session's ticket keeps the first one's issue time
    client, server, ck, sk = resume(toy_pki, client.resumption_for(server.new_ticket()), key,
                                    start + 40 * hour)
    assert server.refusal == "TicketExpired" and not server.resumed and not client.resumed
    assert ck == sk  # after a full handshake


def test_a_ticket_is_four_counter_blocks_sealed_and_opened_one_at_a_time(toy_pki,
                                                                         monkeypatch):
    key = GcmKey(os.urandom(16))
    client, server = run_handshake(toy_pki)[:2]
    server.ticket_key = key
    server.new_ticket()  # a warm key, as the server's is after its first session
    calls = {"encrypt_block": 0, "encrypt_blocks": 0}

    def spy(fn):
        real = getattr(gcm.Aes128, fn)

        def counting(self, data):
            calls[fn] += 1
            return real(self, data)
        return counting

    for fn in calls:
        monkeypatch.setattr(gcm.Aes128, fn, spy(fn))
    ticket = server.new_ticket()
    # nonce, 32-byte secret, issue time, subject and valid_to, tag
    assert len(ticket) == 12 + 64 + 16 == 92
    assert calls == {"encrypt_block": 5, "encrypt_blocks": 0}  # J0, then 4 blocks
    again = ClientHandshake(toy_pki.suite, toy_pki.device, toy_pki.root,
                            resumption=client.resumption_for(ticket))
    resumer = ServerHandshake(toy_pki.server, toy_pki.root, suite=toy_pki.suite,
                              ticket_key=key)
    resumer.respond(again.start())
    assert resumer.resumed
    assert calls == {"encrypt_block": 10, "encrypt_blocks": 0}


# SHA-256 of each value of a seeded full session's ticket under a fixed ticket
# key and of the session resumed from it, re-recorded when the ticket shrank to
# 64 bytes: any drift in the resumed layouts, the binder or the PSK schedule
# shows here.
RESUMED = {
    "toy": {
        "ticket": "a168b8228a27a4d5a89c4bf3a866684ffccf12eec766c7fffb06dbb6ebd8fb6e",
        "hello": "a094336e542c0f98ebd82490112b77a349f0ab2145ec200a4829339cb01b44a2",
        "server_hello": "a3a01001dd059fad50fb55c837de92935b429df9267b0a6749ff3ac3477df7d5",
        "finish": "9fa369337ed8184679a3eec886e964ebb636e55c87cc06ed02ba8233dd089f63",
        "session_id": "705a64d2a1061ef66d8d06fd9ee38a1c7f47b9c384701a1fcebe2be70ffbbf22",
    },
    "p256": {
        "ticket": "7e1a3ecb8f2b4b493c3ecbe29dc41b384377f05d8cfd95f8e5c22b7fa064f655",
        "hello": "127b7c6b97ef71fce194a3aedd1641e123f31ade8fe0cc26b7fa9fae6c5e83d1",
        "server_hello": "82589dac9c3c18bbf5df0ad96a3e274cd8e508ffab6a8c3713a770ea681c8d48",
        "finish": "8f27c1d0fce9883f7ad419a063a57f06dd2d98be9d9cd0c76e3b18e2be3b4f5e",
        "session_id": "f610fa1eb3b5ddacbe808b0e8a16ce8fdf8a87295d1a6cc234118e705c7749a1",
    },
}


def seeded_resumed_run(suite) -> dict:
    rng = keyfiles.drbg(2024)
    now = 1_700_000_000
    root_d, root_q = curves.keypair_gen(suite, rng)
    root_sub = creds.encode_subject("root")
    root = creds.credential_issue(root_d, root_sub, creds.Role.ISSUER, root_q, now - 3600,
                                  now + 86400, root_sub, suite, rng)
    ids = {}
    for name, role in (("server-1", creds.Role.SERVER), ("watch-1", creds.Role.DEVICE)):
        d, q = curves.keypair_gen(suite, rng)
        cred = creds.credential_issue(root_d, creds.encode_subject(name), role, q, now - 3600,
                                      now + 86400, root_sub, suite, rng)
        ids[role] = LocalIdentity(d, cred)
    key = GcmKey(bytes(range(16)))
    client = ClientHandshake(suite, ids[creds.Role.DEVICE], root, rng=keyfiles.drbg(7), now=now)
    server = ServerHandshake(ids[creds.Role.SERVER], root, suite, rng=keyfiles.drbg(8), now=now,
                             ticket_key=key)
    finish, _ = client.finish(server.respond(client.start()))
    server.complete(finish)
    ticket = server.new_ticket()
    client = ClientHandshake(suite, ids[creds.Role.DEVICE], root, rng=keyfiles.drbg(9),
                             now=now + 60, resumption=client.resumption_for(ticket))
    server = ServerHandshake(ids[creds.Role.SERVER], root, suite, rng=keyfiles.drbg(10),
                             now=now + 60, ticket_key=key)
    out = {"ticket": ticket, "hello": client.start()}
    out["server_hello"] = server.respond(out["hello"])
    out["finish"], client_keys = client.finish(out["server_hello"])
    server_keys, _ = server.complete(out["finish"])
    assert client_keys == server_keys and server.resumed and client.resumed
    out["session_id"] = client_keys.session_id
    return {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}


@pytest.mark.parametrize("name", ["toy", "p256"])
def test_a_seeded_resumed_exchange_is_byte_identical(name):
    assert seeded_resumed_run(curves.SUITE_NAMES[name]) == RESUMED[name]
