"""On-disk formats for keys and credentials, plus a seedable byte source.

.vlk  raw private scalar, fixed-width big-endian (UNENCRYPTED — keep out
      of untrusted locations); written 0600, refused unless owner-only
.vlp  uncompressed public point encoding
.vlc  credential in its exact wire encoding

A file that does not parse raises `ConfigurationError` naming it, so the
CLI reports it as a configuration error (exit 2).
"""

from __future__ import annotations

import os
from pathlib import Path

from . import curves, kdf
from .credentials import Credential, credential_decode
from .curves import CurveSuite, Point
from .errors import ConfigurationError, MalformedCredential, MalformedPoint


def drbg(seed: int):
    """Deterministic byte source for --seed runs: SHA-256 counter stream."""
    state = {"counter": 0, "seed": seed.to_bytes(16, "big", signed=False)}

    def generate(n: int) -> bytes:
        out = b""
        while len(out) < n:
            out += kdf.hash_(state["seed"] + state["counter"].to_bytes(8, "big"))
            state["counter"] += 1
        return out[:n]

    return generate


def write_private_key(path: str | Path, d: int, suite: CurveSuite) -> None:
    """Writes the key readable by its owner only (mode 0600) whatever the
    umask: a new file is created so, and a file already there is set so
    before the key goes in."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as fh:
        os.fchmod(fd, 0o600)
        fh.write(d.to_bytes(suite.scalar_len, "big"))


def read_private_key(path: str | Path, suite: CurveSuite) -> int:
    with open(path, "rb") as fh:  # the mode of the file read, not of a path checked apart
        mode = os.fstat(fh.fileno()).st_mode & 0o777
        if mode & 0o077:
            raise ConfigurationError(f"private key file {path}: mode {mode:04o}, not owner-only")
        data = fh.read()
    if len(data) != suite.scalar_len:
        raise ConfigurationError(f"private key file {path}: wrong length for suite")
    d = int.from_bytes(data, "big")
    if not 1 <= d <= suite.n - 1:
        raise ConfigurationError(f"private key file {path}: scalar out of range")
    return d


def write_public_point(path: str | Path, Q: Point, suite: CurveSuite) -> None:
    Path(path).write_bytes(curves.point_encode(Q, suite))


def read_public_point(path: str | Path, suite: CurveSuite) -> Point:
    try:
        return curves.point_decode(Path(path).read_bytes(), suite)
    except MalformedPoint as exc:
        raise ConfigurationError(f"public key file {path}: {exc}") from exc


def write_credential(path: str | Path, cred: Credential, suite: CurveSuite) -> None:
    Path(path).write_bytes(cred.encode(suite))


def read_credential(path: str | Path, suite: CurveSuite) -> Credential:
    try:
        return credential_decode(Path(path).read_bytes(), suite)
    except MalformedCredential as exc:
        raise ConfigurationError(f"credential file {path}: {exc}") from exc


def fingerprint(Q: Point, suite: CurveSuite) -> str:
    return kdf.hash_(curves.point_encode(Q, suite)).hex()[:16]
