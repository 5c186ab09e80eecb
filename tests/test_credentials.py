"""Schnorr signatures and the two-level credential chain."""

import sys
import threading

import pytest

from vitalink import credentials as creds
from vitalink import curves, keyfiles
from vitalink.credentials import (
    BAD_SIGNATURE,
    EXPIRED,
    NOT_YET_VALID,
    ROLE_MISMATCH,
    UNKNOWN_ISSUER,
    Role,
    SchnorrSig,
    credential_decode,
    credential_issue,
    credential_verify,
    schnorr_sign,
    schnorr_verify,
    sig_decode,
    verify_trust_root,
)
from vitalink.curves import P256, TOY
from vitalink.errors import InvalidCredentialFields, MalformedCredential, MalformedSignature

NOW = 1_700_000_000


def fixed_rng(values):
    """Yields the given scalars as fixed-width big-endian byte strings."""
    queue = list(values)

    def rng(n):
        return queue.pop(0).to_bytes(n, "big")

    return rng


@pytest.mark.parametrize("suite", [TOY, P256], ids=["toy", "p256"])
def test_sign_verify_round_trip(suite):
    rng = keyfiles.drbg(11)
    for i in range(100):
        d, Q = curves.keypair_gen(suite, rng)
        msg = bytes([i]) * 17
        sig = schnorr_sign(d, Q, msg, suite, rng)
        assert schnorr_verify(Q, msg, sig, suite)


def test_toy_forced_nonce_matches_hand_computed_challenge():
    # k = 1, d = 1: R = G, and s = (1 + e) mod n with e recomputed here
    # directly from the hash transcript, independent of the signer.
    import hashlib

    sig = schnorr_sign(1, TOY.G, b"msg", TOY, fixed_rng([1]))
    assert sig.R == TOY.G
    g_enc = b"\x04" + bytes([TOY.G[0], TOY.G[1]])
    e = int.from_bytes(hashlib.sha256(g_enc + g_enc + b"msg").digest(), "big") % TOY.n
    assert sig.s == (1 + e) % TOY.n
    assert schnorr_verify(TOY.G, b"msg", sig, TOY)


def test_fresh_entropy_gives_fresh_commitments():
    d, Q = curves.keypair_gen(P256)
    rs = {schnorr_sign(d, Q, b"same message", P256).R for _ in range(20)}
    assert len(rs) == 20


def test_verify_rejects_perturbations():
    d, Q = curves.keypair_gen(P256)
    sig = schnorr_sign(d, Q, b"payload", P256)
    assert schnorr_verify(Q, b"payload", sig, P256)
    assert not schnorr_verify(Q, b"paylobd", sig, P256)
    assert not schnorr_verify(Q, b"payload", SchnorrSig(sig.R, (sig.s + 1) % P256.n), P256)
    other_R = curves.scalar_mul(2, sig.R, P256)
    assert not schnorr_verify(Q, b"payload", SchnorrSig(other_R, sig.s), P256)


@pytest.mark.parametrize("suite", [TOY, P256], ids=["toy", "p256"])
def test_verify_keeps_every_check(suite):
    rng = keyfiles.drbg(12)
    d, Q = curves.keypair_gen(suite, rng)
    sig = schnorr_sign(d, Q, b"payload", suite, rng)
    assert schnorr_verify(Q, b"payload", sig, suite)
    tampered_R = curves.point_add(sig.R, suite.G, suite)
    assert not schnorr_verify(Q, b"payload", SchnorrSig(tampered_R, sig.s), suite)
    assert not schnorr_verify(Q, b"payload", SchnorrSig(sig.R, (sig.s + 1) % suite.n), suite)
    # s + n passes the group equation (s*G == (s + n)*G), so only the range check stops it
    assert not schnorr_verify(Q, b"payload", SchnorrSig(sig.R, sig.s + suite.n), suite)
    off_curve_Q = (Q[0], (Q[1] + 1) % suite.p)
    assert not suite.is_on_curve(off_curve_Q)
    assert not schnorr_verify(off_curve_Q, b"payload", sig, suite)
    off_curve_R = (sig.R[0], (sig.R[1] + 1) % suite.p)
    assert not schnorr_verify(Q, b"payload", SchnorrSig(off_curve_R, sig.s), suite)


def test_signature_under_a_mismatched_public_key_verifies_under_neither():
    rng = keyfiles.drbg(13)
    d, Q = curves.keypair_gen(P256, rng)
    _, other = curves.keypair_gen(P256, rng)
    sig = schnorr_sign(d, other, b"payload", P256, rng)
    assert not schnorr_verify(Q, b"payload", sig, P256)
    assert not schnorr_verify(other, b"payload", sig, P256)


def test_sig_encoding_round_trip_and_malformed():
    d, Q = curves.keypair_gen(P256)
    sig = schnorr_sign(d, Q, b"m", P256)
    enc = sig.encode(P256)
    assert sig_decode(enc, P256) == sig
    with pytest.raises(MalformedSignature):
        sig_decode(enc[:-1], P256)
    with pytest.raises(MalformedSignature):
        sig_decode(b"\x05" + enc[1:], P256)


def _root(suite, rng):
    d, Q = curves.keypair_gen(suite, rng)
    sub = creds.encode_subject("root")
    return d, credential_issue(
        d, sub, Role.ISSUER, Q, NOW - 1000, NOW + 10_000, sub, suite, rng
    )


def test_self_signed_root_verifies_under_itself():
    rng = keyfiles.drbg(21)
    _, root = _root(P256, rng)
    assert verify_trust_root(root, NOW, P256) is None


def test_device_credential_chains_to_root():
    rng = keyfiles.drbg(22)
    root_d, root = _root(P256, rng)
    dd, dq = curves.keypair_gen(P256, rng)
    leaf = credential_issue(
        root_d, creds.encode_subject("watch"), Role.DEVICE, dq,
        NOW - 10, NOW + 1000, root.subject_id, P256, rng,
    )
    assert credential_verify(leaf, root, NOW, P256, expected_role=Role.DEVICE) is None


def test_validity_window_enforced_with_skew():
    rng = keyfiles.drbg(23)
    root_d, root = _root(P256, rng)
    dd, dq = curves.keypair_gen(P256, rng)
    leaf = credential_issue(
        root_d, creds.encode_subject("watch"), Role.DEVICE, dq,
        NOW, NOW + 100, root.subject_id, P256, rng,
    )
    assert credential_verify(leaf, root, NOW + 100 + 301, P256) == EXPIRED
    assert credential_verify(leaf, root, NOW - 301, P256) == NOT_YET_VALID
    # inside the skew allowance both edges still verify
    assert credential_verify(leaf, root, NOW + 100 + 299, P256) is None
    assert credential_verify(leaf, root, NOW - 299, P256) is None


def test_bad_signature_unknown_issuer_and_role_mismatch():
    rng = keyfiles.drbg(24)
    root_d, root = _root(P256, rng)
    other_d, other_root = _root(P256, keyfiles.drbg(25))
    dd, dq = curves.keypair_gen(P256, rng)
    leaf = credential_issue(
        root_d, creds.encode_subject("watch"), Role.DEVICE, dq,
        NOW - 10, NOW + 1000, root.subject_id, P256, rng,
    )
    assert credential_verify(leaf, root, NOW, P256, expected_role=Role.SERVER) == ROLE_MISMATCH

    # perturbed signature bytes
    bad = creds.Credential(
        leaf.version, leaf.subject_id, leaf.role, leaf.static_pub,
        leaf.valid_from, leaf.valid_to, leaf.issuer_id,
        SchnorrSig(leaf.signature.R, (leaf.signature.s + 1) % P256.n),
    )
    assert credential_verify(bad, root, NOW, P256) == BAD_SIGNATURE

    # leaf signed by a different root that shares the subject name "root":
    # the chain check falls through to the signature and fails there
    rogue_leaf = credential_issue(
        other_d, creds.encode_subject("watch"), Role.DEVICE, dq,
        NOW - 10, NOW + 1000, other_root.subject_id, P256, keyfiles.drbg(26),
    )
    assert credential_verify(rogue_leaf, root, NOW, P256) == BAD_SIGNATURE

    # an issuer id the root does not carry is rejected before any crypto
    stranger = creds.Credential(
        leaf.version, leaf.subject_id, leaf.role, leaf.static_pub,
        leaf.valid_from, leaf.valid_to, creds.encode_subject("who"), leaf.signature,
    )
    assert credential_verify(stranger, root, NOW, P256) == UNKNOWN_ISSUER


def test_issue_rejects_bad_fields():
    rng = keyfiles.drbg(27)
    root_d, root = _root(P256, rng)
    _, dq = curves.keypair_gen(P256, rng)
    with pytest.raises(InvalidCredentialFields):
        credential_issue(
            root_d, creds.encode_subject("w"), Role.DEVICE, dq,
            NOW, NOW, root.subject_id, P256, rng,
        )
    with pytest.raises(InvalidCredentialFields):
        credential_issue(
            root_d, creds.encode_subject("w"), Role.DEVICE, (0, 0),
            NOW, NOW + 1, root.subject_id, P256, rng,
        )


@pytest.mark.parametrize("suite", [TOY, P256], ids=["toy", "p256"])
def test_credential_encoding_round_trip(suite):
    rng = keyfiles.drbg(28)
    root_d, root = _root(suite, rng)
    enc = root.encode(suite)
    assert credential_decode(enc, suite) == root
    with pytest.raises(MalformedCredential):
        credential_decode(enc[:-1], suite)
    with pytest.raises(MalformedCredential):
        credential_decode(enc[:17] + b"\x09" + enc[18:], suite)  # bogus role byte


def test_tbs_changes_break_verification():
    rng = keyfiles.drbg(29)
    root_d, root = _root(P256, rng)
    dd, dq = curves.keypair_gen(P256, rng)
    leaf = credential_issue(
        root_d, creds.encode_subject("watch"), Role.DEVICE, dq,
        NOW - 10, NOW + 1000, root.subject_id, P256, rng,
    )
    tampered = creds.Credential(
        leaf.version, leaf.subject_id, leaf.role, leaf.static_pub,
        leaf.valid_from, leaf.valid_to + 1, leaf.issuer_id, leaf.signature,
    )
    assert credential_verify(tampered, root, NOW, P256) == BAD_SIGNATURE


def test_subject_encoding():
    assert creds.encode_subject("watch-1") == b"watch-1" + b"\x00" * 9
    assert creds.decode_subject(creds.encode_subject("watch-1")) == "watch-1"
    assert creds.encode_subject("ward 3 ♥") == "ward 3 ♥".encode() + b"\x00" * 6
    with pytest.raises(InvalidCredentialFields):
        creds.encode_subject("")
    with pytest.raises(InvalidCredentialFields):
        creds.encode_subject("x" * 17)


# subject fields that are not 1..16 bytes of printable UTF-8 padded with NUL
BAD_SUBJECTS = {"tab": b"a\tb", "not_utf8": b"\xff\xfe", "newline": b"a\nb",
                "line_separator": "a\u2028b".encode(), "inner_nul": b"a\x00b",
                "leading_nul": b"\x00ab", "empty": b""}


@pytest.mark.parametrize("raw", BAD_SUBJECTS.values(), ids=BAD_SUBJECTS.keys())
def test_a_subject_that_is_not_printable_utf8_is_refused_at_every_door(toy_pki, raw):
    field = raw.ljust(creds.SUBJECT_LEN, b"\x00")
    with pytest.raises(InvalidCredentialFields):
        creds.encode_subject(raw.decode("utf-8", "surrogateescape"))
    cred = toy_pki.device_with_raw_subject(raw).credential
    with pytest.raises(MalformedCredential, match="subject"):
        credential_decode(cred.encode(toy_pki.suite), toy_pki.suite)
    with pytest.raises(InvalidCredentialFields):
        credential_issue(toy_pki.root_priv, field, Role.DEVICE, cred.static_pub, NOW,
                         NOW + 1, toy_pki.root_sub, toy_pki.suite, keyfiles.drbg(30))


# ---------------------------------------------------------------------------
# the verified-credential memo: it skips the issuer signature and nothing else


def _leaf(root_d, root, suite, rng, name="watch", role=Role.DEVICE):
    _, q = curves.keypair_gen(suite, rng)
    return credential_issue(root_d, creds.encode_subject(name), role, q,
                            NOW - 10, NOW + 1000, root.subject_id, suite, rng)


def test_a_remembered_credential_still_has_its_window_and_role_checked(verifies):
    rng = keyfiles.drbg(30)
    root_d, root = _root(P256, rng)
    leaf = _leaf(root_d, root, P256, rng)
    assert credential_verify(leaf, root, NOW, P256, expected_role=Role.DEVICE) is None
    assert len(verifies) == 1
    late = leaf.valid_to + creds.CLOCK_SKEW_S + 1
    assert credential_verify(leaf, root, late, P256, expected_role=Role.DEVICE) == EXPIRED
    early = leaf.valid_from - creds.CLOCK_SKEW_S - 1
    assert credential_verify(leaf, root, early, P256, expected_role=Role.DEVICE) == NOT_YET_VALID
    assert credential_verify(leaf, root, NOW, P256, expected_role=Role.SERVER) == ROLE_MISMATCH
    assert credential_verify(leaf, root, NOW, P256, expected_role=Role.DEVICE) is None
    assert len(verifies) == 1  # every call after the first was a hit


def test_one_flipped_byte_of_a_remembered_credential_is_checked_afresh(verifies):
    rng = keyfiles.drbg(31)
    root_d, root = _root(P256, rng)
    leaf = _leaf(root_d, root, P256, rng)
    assert credential_verify(leaf, root, NOW, P256) is None
    raw = leaf.encode(P256)
    tbs_len = len(leaf.tbs(P256))
    flipped = {"tbs": 0, "signature": 0}
    for i in range(len(raw)):
        try:
            other = credential_decode(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1:], P256)
        except MalformedCredential:
            continue  # not a credential: the handshake rejects it before any check
        want = UNKNOWN_ISSUER if other.issuer_id != root.subject_id else BAD_SIGNATURE
        assert credential_verify(other, root, NOW, P256) == want, i
        flipped["tbs" if i < tbs_len else "signature"] += 1
    assert flipped["tbs"] > 0 and flipped["signature"] > 0
    assert credential_verify(leaf, root, NOW, P256) is None


def test_the_same_leaf_under_another_root_of_the_same_name_is_checked_afresh(verifies):
    rng = keyfiles.drbg(32)
    root_d, root = _root(P256, rng)
    _, impostor = _root(P256, keyfiles.drbg(33))
    assert impostor.subject_id == root.subject_id
    leaf = _leaf(root_d, root, P256, rng)
    assert credential_verify(leaf, root, NOW, P256) is None
    assert credential_verify(leaf, impostor, NOW, P256) == BAD_SIGNATURE
    assert len(verifies) == 2


def test_a_forged_credential_checked_twice_makes_one_schnorr_check(verifies):
    rng = keyfiles.drbg(34)
    root_d, root = _root(P256, rng)
    leaf = _leaf(root_d, root, P256, rng)
    bad = leaf._replace(signature=SchnorrSig(leaf.signature.R,
                                            (leaf.signature.s + 1) % P256.n))
    for _ in range(2):
        assert credential_verify(bad, root, NOW, P256) == BAD_SIGNATURE
    assert len(verifies) == 1


def test_at_the_cap_a_credential_checked_again_outlives_the_next_new_one(verifies):
    rng = keyfiles.drbg(35)
    root_d, root = _root(TOY, rng)
    leaves = [_leaf(root_d, root, TOY, rng, name=f"watch-{i}") for i in range(1025)]
    for leaf in leaves[:1024]:
        assert credential_verify(leaf, root, NOW, TOY) is None
    assert credential_verify(leaves[0], root, NOW, TOY) is None
    assert len(verifies) == 1024
    assert credential_verify(leaves[1024], root, NOW, TOY) is None
    # least recently used out first: leaves[1] goes, the re-checked leaves[0] stays
    assert credential_verify(leaves[0], root, NOW, TOY) is None
    assert len(verifies) == 1025
    assert credential_verify(leaves[1], root, NOW, TOY) is None
    assert len(verifies) == 1026 and creds._issued_by.cache_info().currsize == 1024


def test_the_memo_holds_under_concurrent_sessions():
    rng = keyfiles.drbg(36)
    root_d, root = _root(TOY, rng)
    # more leaves than the memo keeps, so the threads race evictions too
    leaves = [_leaf(root_d, root, TOY, rng, name=f"watch-{i}") for i in range(1100)]
    results, errors = [], []

    def worker(offset):
        try:
            for i in range(1500):
                results.append(credential_verify(leaves[(i + offset) % 1100], root, NOW, TOY))
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(183 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert results == [None] * 9000 and creds._issued_by.cache_info().currsize == 1024
