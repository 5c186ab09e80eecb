"""Short-Weierstrass elliptic curve arithmetic over prime fields.

Two parameter suites are provided: a tiny curve over F_17 that is small
enough to enumerate exhaustively in tests, and NIST P-256 for real use.
Scalar multiplication runs in Jacobian coordinates and adds affine
points (mixed addition, madd-2004-hmv from the Explicit-Formulas
Database), by one of two methods:

- Multiples of the generator G use a fixed-base comb (Lim and Lee, "More
  Flexible Exponentiation with Precomputation", CRYPTO '94; Hankerson,
  Menezes and Vanstone (HMV), Guide to Elliptic Curve Cryptography, Alg.
  3.44-3.45). It has W = 8 teeth spaced D = 32 bits apart and V = 4
  tables: entry j of table v is the sum, over the set bits i of j, of
  2^(32i + 8v) * G. A multiply reads k's 32 eight-bit column digits and
  makes 7 doublings and at most 32 additions. The toy curve's 5-bit n
  runs the same code with W = 4 teeth 2 bits apart and V = 2, whose
  entries are none of them the identity; the build refuses a comb where
  one is.
- Any other point uses width-5 wNAF over its eight odd multiples P, 3P,
  ..., 15P (HMV Alg. 3.36).

Doublings use dbl-2001-b when a = -3 (P-256). Both suites' combs are
built at import, one batch inversion per block of entries; P-256's
4 x 255 = 1020 affine points take about 11 ms and 0.18 MB (by
tracemalloc) on a 2 vCPU machine with CPython 3.11. Constant-time
behavior is explicitly out of scope.

All points are affine (x, y) tuples; the group identity is None.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import InvalidPeerKey, MalformedPoint

Point = Optional[Tuple[int, int]]

RandomSource = Callable[[int], bytes]


class CurveSuite(NamedTuple):
    suite_id: int
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def G(self) -> Point:
        return (self.gx, self.gy)

    @property
    def field_len(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def point_len(self) -> int:
        """Uncompressed point on the wire: 0x04 || x || y."""
        return 1 + 2 * self.field_len

    @property
    def scalar_len(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def is_on_curve(self, P: Point) -> bool:
        if P is None:
            return True
        x, y = P
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0


def point_add(P: Point, Q: Point, suite: CurveSuite) -> Point:
    """Group law: chord-and-tangent addition, including doubling and inverses."""
    p = suite.p
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + suite.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _jacobian_double(X, Y, Z, a, p):
    if Y == 0:
        return (0, 1, 0)
    S = 4 * X * Y * Y % p
    Z2 = Z * Z
    M = (3 * X * X + a * Z2 * Z2) % p
    nx = (M * M - 2 * S) % p
    ny = (M * (S - nx) - 8 * Y * Y * Y * Y) % p
    nz = 2 * Y * Z % p
    return (nx, ny, nz)


def _double_a3(X, Y, Z, a, p):
    # dbl-2001-b: a = -3 lets 3X^2 + aZ^4 factor as 3(X - Z^2)(X + Z^2)
    delta = Z * Z % p
    gamma = Y * Y % p
    beta = X * gamma % p
    alpha = 3 * (X - delta) * (X + delta) % p
    nx = (alpha * alpha - 8 * beta) % p
    ny = (alpha * (4 * beta - nx) - 8 * gamma * gamma) % p
    nz = 2 * Y * Z % p
    return (nx, ny, nz)


def _madd(X1, Y1, Z1, x2, y2, a, p):
    """Jacobian (X1, Y1, Z1) plus affine (x2, y2), madd-2004-hmv.

    Inputs are reduced mod p, so h == 0 and r == 0 test equality of
    residues: the sum is then a doubling, or the identity.
    """
    if Z1 == 0:
        return (x2, y2, 1)
    z1z1 = Z1 * Z1 % p
    h = x2 * z1z1 % p - X1
    r = y2 * Z1 * z1z1 % p - Y1
    if h == 0:
        if r == 0:
            return _jacobian_double(X1, Y1, Z1, a, p)
        return (0, 1, 0)
    hh = h * h % p
    hhh = h * hh % p
    v = X1 * hh % p
    X3 = (r * r - hhh - 2 * v) % p
    return (X3, (r * (v - X3) - Y1 * hhh) % p, Z1 * h % p)


def _to_affine(points, p):
    """Jacobian points (none the identity) to affine with one inversion
    (Montgomery's trick)."""
    prefix = [1]
    for _, _, Z in points:
        prefix.append(prefix[-1] * Z % p)
    inv = pow(prefix[-1], -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        zinv = inv * prefix[i] % p
        inv = inv * Z % p
        z2 = zinv * zinv % p
        out[i] = (X * z2 % p, Y * z2 * zinv % p)
    return out


_COMB = (8, 4)  # fixed-base comb: W teeth and V tables, for P-256
_COMB_TOY = (4, 2)  # for the toy curve's 5-bit n: W = 8 would make some subset sums nG
_WNAF = 5  # variable-base wNAF width: odd multiples P, 3P, ..., 15P


def _comb_tables(suite: CurveSuite, teeth: int, tables: int) -> list:
    """The comb's V tables, for W teeth spaced D = ceil(bits of n / W) apart
    and V dividing D. Entry j (1 <= j < 2^W) of table v is the affine sum,
    over the set bits i of j, of 2^(i*D + v*E) * G, with E = D / V. Raises
    if an entry is the identity, which the comb could not add."""
    p, a = suite.p, suite.a
    double = _double_a3 if a == p - 3 else _jacobian_double
    step = -(-suite.n.bit_length() // teeth) // tables
    # 2^(m*E) * G at index m = i*V + v, for tooth i of table v (since D = V*E)
    powers = [(suite.gx, suite.gy, 1)]
    for _ in range(teeth * tables - 1):
        X, Y, Z = powers[-1]
        for _ in range(step):
            X, Y, Z = double(X, Y, Z, a, p)
        powers.append((X, Y, Z))
    powers = _to_affine(powers, p)
    out = []
    for v in range(tables):
        table = [None]
        for i in range(teeth):
            bx, by = powers[i * tables + v]
            # entries 2^i .. 2^(i+1) - 1: this tooth's point plus each entry
            # before it, with one inversion per block
            block = [(bx, by, 1)] + [_madd(x, y, 1, bx, by, a, p) for x, y in table[1:]]
            if any(Z == 0 for _, _, Z in block):
                raise ArithmeticError(f"a comb entry of table {v} is the identity")
            table += _to_affine(block, p)
        out.append(table)
    return out


def _mul_g(k: int, suite: CurveSuite):
    """k*G for 0 <= k < 2^(W*D), which holds every k < n, by the comb: for
    each of the E bit columns of a table's slice of the teeth, from the top,
    one doubling (none before the first) and one addition per table of the
    point its W bits index."""
    comb, teeth = _G_COMBS[suite]
    p, a = suite.p, suite.a
    double = _double_a3 if a == p - 3 else _jacobian_double
    spacing = -(-suite.n.bit_length() // teeth)
    step = spacing // len(comb)
    # W*D bits, most significant first: bits b + i*D of k for the teeth
    # i = W-1 .. 0 are bits[D-1-b::D], the W-bit index of column b
    bits = format(k, "b").zfill(teeth * spacing)
    acc = (0, 1, 0)
    for e in range(step - 1, -1, -1):
        if e != step - 1:
            acc = double(*acc, a, p)
        for v, table in enumerate(comb):
            j = int(bits[spacing - 1 - v * step - e::spacing], 2)
            if j:
                acc = _madd(*acc, *table[j], a, p)
    return acc


def _wnaf(k: int, width: int) -> list:
    """Width-w NAF digits of k >= 0, least significant first; each is 0 or
    odd in (-2^(w-1), 2^(w-1))."""
    full, half = 1 << width, 1 << (width - 1)
    digits = []
    while k:
        if k & 1:
            d = k & (full - 1)
            if d >= half:
                d -= full
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _odd_multiples(P: Point, suite: CurveSuite) -> list:
    """Affine P, 3P, ..., 15P, none of which may be the identity."""
    p, a = suite.p, suite.a
    x2, y2 = point_add(P, P, suite)
    odd = [(P[0], P[1], 1)]
    for _ in range((1 << (_WNAF - 2)) - 1):
        odd.append(_madd(*odd[-1], x2, y2, a, p))
    return _to_affine(odd, p)


def _mul_var(k: int, P: Point, suite: CurveSuite):
    """k*P by width-5 wNAF over affine odd multiples of P: one doubling per
    digit and one mixed addition per nonzero digit.

    Both suites have prime order above 15, so no odd multiple up to 15P
    is the identity.
    """
    p, a = suite.p, suite.a
    double = _double_a3 if a == p - 3 else _jacobian_double
    odd = _odd_multiples(P, suite)
    acc = (0, 1, 0)
    for d in reversed(_wnaf(k, _WNAF)):
        acc = double(*acc, a, p)
        if d > 0:
            acc = _madd(*acc, *odd[d >> 1], a, p)
        elif d < 0:
            ox, oy = odd[-d >> 1]
            acc = _madd(*acc, ox, p - oy, a, p)
    return acc


def scalar_mul(k: int, P: Point, suite: CurveSuite) -> Point:
    """k*P, matching k-fold repeated point_add; None for k <= 0.

    Multiples of the generator use the fixed-base comb, every other
    point width-5 wNAF.
    """
    if P is None or k <= 0:
        return None
    p = suite.p
    if P[0] == suite.gx and P[1] == suite.gy:
        X, Y, Z = _mul_g(k % suite.n, suite)
    else:
        X, Y, Z = _mul_var(k, P, suite)
    if Z == 0:
        return None
    zinv = pow(Z, -1, p)
    z2 = zinv * zinv % p
    return (X * z2 % p, Y * z2 * zinv % p)


def keypair_gen(suite: CurveSuite, rng: RandomSource = os.urandom) -> Tuple[int, Point]:
    """Uniform private scalar in [1, n-1] via rejection sampling, plus its public point."""
    nbytes = suite.scalar_len
    for _ in range(1000):
        d = int.from_bytes(rng(nbytes), "big")
        if 1 <= d <= suite.n - 1:
            return d, scalar_mul(d, suite.G, suite)
    raise RuntimeError("entropy source failed to yield a valid scalar")


def shared_secret(d_local: int, Q_remote: Point, suite: CurveSuite) -> bytes:
    """x-coordinate of d*Q, big-endian, fixed field length.

    Rejects off-curve or identity peer points before any use: an invalid
    point here signals an active attack or corruption.
    """
    if Q_remote is None or not suite.is_on_curve(Q_remote):
        raise InvalidPeerKey("peer public key not a valid curve point")
    S = scalar_mul(d_local, Q_remote, suite)
    if S is None:
        raise InvalidPeerKey("shared point is the identity")
    return S[0].to_bytes(suite.field_len, "big")


def point_encode(P: Point, suite: CurveSuite) -> bytes:
    """Uncompressed encoding: 0x04 || x || y, fixed-width big-endian."""
    if P is None:
        raise ValueError("cannot encode the identity point")
    fl = suite.field_len
    return b"\x04" + P[0].to_bytes(fl, "big") + P[1].to_bytes(fl, "big")


def point_decode(data: bytes, suite: CurveSuite) -> Point:
    fl = suite.field_len
    if len(data) != suite.point_len:
        raise MalformedPoint("bad encoding length")
    if data[0] != 0x04:
        raise MalformedPoint("bad encoding prefix")
    x = int.from_bytes(data[1 : 1 + fl], "big")
    y = int.from_bytes(data[1 + fl :], "big")
    P = (x, y)
    if not suite.is_on_curve(P):
        raise MalformedPoint("coordinates not on curve")
    return P


# the order n = 19 of G, which tests check by enumerating the group
TOY = CurveSuite(0x0001, p=17, a=2, b=2, gx=5, gy=1, n=19)

P256 = CurveSuite(
    suite_id=0x0002,
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

SUITES = {TOY.suite_id: TOY, P256.suite_id: P256}
SUITE_NAMES = {"toy": TOY, "p256": P256}

# G's comb for each suite, with its number of teeth, built at import
_G_COMBS = {suite: (_comb_tables(suite, *shape), shape[0])
            for suite, shape in ((TOY, _COMB_TOY), (P256, _COMB))}
