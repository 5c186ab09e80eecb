"""Curve arithmetic checked against brute-force oracles on the tiny suite
and cross-suite properties on P-256."""

import random

import pytest

from vitalink import credentials, curves
from vitalink.curves import P256, TOY, point_add, point_decode, point_encode, scalar_mul
from vitalink.errors import InvalidPeerKey, MalformedPoint

# ---------------------------------------------------------------------------
# independent oracle: textbook addition over an exhaustively enumerated curve


def enumerate_points(suite):
    pts = []
    for x in range(suite.p):
        rhs = (x * x * x + suite.a * x + suite.b) % suite.p
        for y in range(suite.p):
            if (y * y) % suite.p == rhs:
                pts.append((x, y))
    return pts


def oracle_add(P, Q, suite):
    """Chord-and-tangent rule, written independently from the implementation:
    naive modular inverse by scanning, no shared helper code."""
    p = suite.p
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q

    def inv(v):
        v %= p
        for cand in range(1, p):
            if (v * cand) % p == 1:
                return cand
        raise ZeroDivisionError

    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        s = ((3 * x1 * x1 + suite.a) * inv(2 * y1)) % p
    else:
        s = ((y2 - y1) * inv(x2 - x1)) % p
    x3 = (s * s - x1 - x2) % p
    return (x3, (s * (x1 - x3) - y1) % p)


def oracle_negate(P, suite):
    return None if P is None else (P[0], (-P[1]) % suite.p)


def oracle_mul(k, P, suite):
    acc = None
    for _ in range(k):
        acc = oracle_add(acc, P, suite)
    return acc


TOY_POINTS = enumerate_points(TOY)


def brute_force_order(suite):
    k, P = 1, suite.G
    while P is not None:
        P = oracle_add(P, suite.G, suite)
        k += 1
    return k


TOY_ORDER = brute_force_order(TOY)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", [TOY, P256], ids=["toy", "p256"])
def test_generator_on_curve(suite):
    assert suite.is_on_curve(suite.G)
    assert scalar_mul(suite.n, suite.G, suite) is None
    assert suite.field_len == (suite.p.bit_length() + 7) // 8
    assert suite.point_len == len(point_encode(suite.G, suite)) == 1 + 2 * suite.field_len


def test_toy_order_matches_brute_force():
    assert TOY.n == TOY_ORDER


def test_point_add_identity_and_inverse():
    G = TOY.G
    assert point_add(G, None, TOY) == G
    assert point_add(None, G, TOY) == G
    assert point_add(G, oracle_negate(G, TOY), TOY) is None


def test_toy_doubling_matches_enumeration_oracle():
    assert point_add(TOY.G, TOY.G, TOY) == oracle_add(TOY.G, TOY.G, TOY)


def test_toy_addition_table_matches_oracle():
    pts = TOY_POINTS + [None]
    for P in pts:
        for Q in pts:
            assert point_add(P, Q, TOY) == oracle_add(P, Q, TOY)


def test_toy_scalar_mul_exhaustive():
    # the fixed-base path, every k in [0, n + 1]
    for k in range(0, TOY_ORDER + 2):
        assert scalar_mul(k, TOY.G, TOY) == oracle_mul(k, TOY.G, TOY), k


def test_closure_on_toy():
    for P in TOY_POINTS:
        for Q in TOY_POINTS:
            R = point_add(P, Q, TOY)
            assert R is None or TOY.is_on_curve(R)


def test_keypair_gen_forced_scalar():
    assert scalar_mul(1, P256.G, P256) == P256.G
    d, Q = curves.keypair_gen(P256, lambda n: (1).to_bytes(n, "big"))
    assert d == 1 and Q == P256.G


def test_keypair_gen_distinct_and_on_curve():
    seen = set()
    for _ in range(100):
        d, Q = curves.keypair_gen(P256)
        assert P256.is_on_curve(Q)
        seen.add(d)
    assert len(seen) == 100


@pytest.mark.parametrize("suite,trials", [(TOY, 100), (P256, 100)], ids=["toy", "p256"])
def test_shared_secret_commutes(suite, trials):
    for _ in range(trials):
        da, qa = curves.keypair_gen(suite)
        db, qb = curves.keypair_gen(suite)
        assert curves.shared_secret(da, qb, suite) == curves.shared_secret(db, qa, suite)


def test_shared_secret_toy_known_value():
    # dA=2, dB=3: secret is x(6*G) per the enumeration oracle
    qb = oracle_mul(3, TOY.G, TOY)
    expected = oracle_mul(6, TOY.G, TOY)[0].to_bytes(TOY.field_len, "big")
    assert curves.shared_secret(2, qb, TOY) == expected


def test_shared_secret_rejects_bad_points():
    with pytest.raises(InvalidPeerKey):
        curves.shared_secret(2, (0, 0), TOY)
    with pytest.raises(InvalidPeerKey):
        curves.shared_secret(2, None, TOY)


def test_shared_secret_rejects_identity_result():
    # peer point of order dividing d would collapse to the identity
    with pytest.raises(InvalidPeerKey):
        curves.shared_secret(TOY.n, TOY.G, TOY)


def test_encode_decode_round_trip_all_toy_points():
    for P in TOY_POINTS:
        assert point_decode(point_encode(P, TOY), TOY) == P


def test_decode_rejects_bad_prefix_length_and_off_curve():
    enc = bytearray(point_encode(TOY.G, TOY))
    bad_prefix = bytes([0x05]) + bytes(enc[1:])
    with pytest.raises(MalformedPoint):
        point_decode(bad_prefix, TOY)
    with pytest.raises(MalformedPoint):
        point_decode(bytes(enc[:-1]), TOY)
    # perturb y by one: off-curve per the curve-equation oracle
    enc[-1] = (enc[-1] + 1) % TOY.p
    x, y = enc[1], enc[2]
    assert (y * y - (x**3 + TOY.a * x + TOY.b)) % TOY.p != 0
    with pytest.raises(MalformedPoint):
        point_decode(bytes(enc), TOY)


def test_p256_scalar_mul_spot_check_against_double_and_add_by_oracle():
    # repeated point_add as the oracle for small scalars on the big curve
    rng = random.Random(99)
    for _ in range(5):
        k = rng.randrange(2, 50)
        acc = None
        for _ in range(k):
            acc = point_add(acc, P256.G, P256)
        assert scalar_mul(k, P256.G, P256) == acc


# ---------------------------------------------------------------------------
# the fast paths (fixed-base table for G, wNAF for any other point) against
# the slow methods they replace


_DOUBLINGS: dict = {}


def double_and_add(k, P, suite):
    """Plain affine double-and-add, least significant bit first. The chain
    P, 2P, 4P, ... does not depend on k, so it is kept per base point."""
    chain = _DOUBLINGS.setdefault((suite.suite_id, P), [P])
    acc = None
    for i in range(k.bit_length()):
        if i == len(chain):
            chain.append(point_add(chain[-1], chain[-1], suite))
        if k >> i & 1:
            acc = point_add(acc, chain[i], suite)
    return acc


def test_toy_variable_base_every_point_and_scalar_matches_repeated_addition():
    bases = [P for P in TOY_POINTS if P != TOY.G]
    assert len(bases) == TOY_ORDER - 2
    for P in bases:
        acc = None
        for k in range(0, TOY_ORDER + 2):
            assert scalar_mul(k, P, TOY) == acc, (k, P)
            acc = oracle_add(acc, P, TOY)


P256_EDGE_SCALARS = [
    1, 2, 15, 16, 17, 31, 32, 2**255, P256.n - 1, P256.n, P256.n + 1,
    # all-0xF nibbles: every fixed-base digit is 15 and every wNAF digit carries
    0xF, 0xFF, 0xFFFF, 2**128 - 1, 2**252 - 1, 2**256 - 1,
]


@pytest.mark.parametrize("k", P256_EDGE_SCALARS, ids=hex)
def test_p256_edge_scalars_match_double_and_add(k):
    Q = double_and_add(0xC0FFEE, P256.G, P256)
    assert scalar_mul(k, P256.G, P256) == double_and_add(k, P256.G, P256)
    assert scalar_mul(k, Q, P256) == double_and_add(k, Q, P256)


def test_p256_random_scalars_match_double_and_add():
    rng = random.Random(2024)
    Q = double_and_add(rng.randrange(2, P256.n), P256.G, P256)
    for _ in range(100):
        k = rng.randrange(1, P256.n)
        assert scalar_mul(k, P256.G, P256) == double_and_add(k, P256.G, P256)
        assert scalar_mul(k, Q, P256) == double_and_add(k, Q, P256)


def test_p256_fixed_and_variable_paths_agree():
    rng = random.Random(7)
    for _ in range(10):
        a, b = rng.randrange(1, P256.n), rng.randrange(1, P256.n)
        aG = scalar_mul(a, P256.G, P256)
        assert scalar_mul(b, aG, P256) == scalar_mul(a * b, P256.G, P256)


# ---------------------------------------------------------------------------
# the fixed-base comb for G


def comb_shape(suite):
    """The comb's tables, teeth W, tooth spacing D and column step E."""
    tables, teeth = curves._G_COMBS[suite]
    spacing = -(-suite.n.bit_length() // teeth)
    return tables, teeth, spacing, spacing // len(tables)


@pytest.mark.parametrize("suite", [TOY, P256], ids=["toy", "p256"])
def test_every_comb_table_entry_is_its_subset_sum(suite):
    tables, teeth, spacing, step = comb_shape(suite)
    assert len(tables) == (2 if suite is TOY else 4) and teeth == (4 if suite is TOY else 8)
    for v, table in enumerate(tables):
        assert len(table) == 1 << teeth and table[0] is None
        for j in range(1, 1 << teeth):
            k = sum(1 << (i * spacing + v * step) for i in range(teeth) if j >> i & 1)
            assert table[j] is not None and table[j] == double_and_add(k, suite.G, suite), (v, j)


def test_a_comb_with_the_identity_among_its_entries_is_refused():
    # 8 teeth one bit apart on the toy curve: G + 2G + 16G is 19G, the identity
    with pytest.raises(ArithmeticError):
        curves._comb_tables(TOY, 8, 1)


def comb_mul(k, suite):
    """k*G straight from the comb, for any k below 2^(W*D), affine."""
    X, Y, Z = curves._mul_g(k, suite)
    if Z == 0:
        return None
    zinv = pow(Z, -1, suite.p)
    return (X * zinv * zinv % suite.p, Y * zinv ** 3 % suite.p)


def test_p256_every_power_of_two_matches_double_and_add():
    # one bit in each tooth and each column in turn
    for i in range(256):
        assert scalar_mul(1 << i, P256.G, P256) == double_and_add(1 << i, P256.G, P256), i


def test_p256_comb_column_patterns_match_double_and_add():
    _, teeth, spacing, _ = comb_shape(P256)
    ones = (1 << spacing) - 1  # every column's digit is 0x01
    columns = [sum(1 << (b + i * spacing) for i in range(teeth)) for b in range(spacing)]
    for k in [(1 << 256) - 1, ones, *columns]:
        assert comb_mul(k, P256) == double_and_add(k, P256.G, P256), hex(k)
    for k in (P256.n - 1, P256.n - 2):
        assert scalar_mul(k, P256.G, P256) == double_and_add(k, P256.G, P256)


def test_negative_scalar_gives_identity():
    assert scalar_mul(-1, P256.G, P256) is None
    assert scalar_mul(-3, TOY_POINTS[0], TOY) is None


# ---------------------------------------------------------------------------
# Schnorr verification, s*G == R + e*Q, with the challenge e injected


def verify(Q, R, s, suite):
    return credentials.schnorr_verify(Q, b"", credentials.SchnorrSig(R, s), suite)


def test_toy_schnorr_verify_every_point_and_scalar_matches_the_oracle(monkeypatch):
    scalars = range(TOY_ORDER)
    g_mults = [oracle_mul(k, TOY.G, TOY) for k in scalars]
    for Q in TOY_POINTS:
        q_mults = [oracle_mul(k, Q, TOY) for k in scalars]
        for e in scalars:
            monkeypatch.setattr(credentials, "_challenge", lambda *_, e=e: e)
            sums = {R: oracle_add(R, q_mults[e], TOY) for R in TOY_POINTS}
            for s in scalars:
                for R in TOY_POINTS:
                    assert verify(Q, R, s, TOY) == (g_mults[s] == sums[R]), (R, s, e, Q)


def check_schnorr_verify_on_p256(s, e, Q, monkeypatch):
    monkeypatch.setattr(credentials, "_challenge", lambda *_: e)
    want = point_add(double_and_add(s, P256.G, P256),
                     oracle_negate(double_and_add(e, Q, P256), P256), P256)
    if want is None:
        assert not verify(Q, P256.G, s, P256)
        return
    # a scalar s >= n is refused even where the equation holds
    assert verify(Q, want, s, P256) == (s < P256.n)
    assert not verify(Q, oracle_negate(want, P256), s, P256)
    assert not verify(Q, point_add(want, want, P256), s, P256)


@pytest.mark.parametrize("k", P256_EDGE_SCALARS, ids=hex)
def test_p256_schnorr_verify_edge_scalars_match_double_and_add(k, monkeypatch):
    Q = double_and_add(0xC0FFEE, P256.G, P256)
    # each edge scalar as s and as e, paired with the next one in the list
    other = P256_EDGE_SCALARS[(P256_EDGE_SCALARS.index(k) + 1) % len(P256_EDGE_SCALARS)]
    check_schnorr_verify_on_p256(k, other, Q, monkeypatch)
    check_schnorr_verify_on_p256(other, k, Q, monkeypatch)


def test_p256_schnorr_verify_random_scalars_match_double_and_add(monkeypatch):
    rng = random.Random(2025)
    Q = double_and_add(rng.randrange(2, P256.n), P256.G, P256)
    for _ in range(100):
        check_schnorr_verify_on_p256(rng.randrange(0, P256.n), rng.randrange(0, P256.n), Q,
                                     monkeypatch)


def test_p256_schnorr_verify_meets_the_identity_and_a_doubling(monkeypatch):
    monkeypatch.setattr(credentials, "_challenge", lambda *_: 5)
    Q = double_and_add(5, P256.G, P256)
    eQ = double_and_add(25, P256.G, P256)
    # R = -e*Q: the right side is the identity, which only s = 0 meets
    assert verify(Q, oracle_negate(eQ, P256), 0, P256)
    assert not verify(Q, oracle_negate(eQ, P256), 1, P256)
    assert not verify(Q, P256.G, 0, P256)
    # R = e*Q: R + e*Q is a doubling, 50G
    assert verify(Q, eQ, 50, P256)
    assert not verify(Q, eQ, 49, P256)
    assert not verify(Q, oracle_negate(eQ, P256), 50, P256)
