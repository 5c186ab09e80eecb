"""Seeded PKI for one benchmark run: the trust root, the server identity, a
fleet of good devices, and rogue devices that the server must reject.

Validity windows are fixed dates rather than "now", so one seed always
writes the same key and credential bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from vitalink import credentials as creds
from vitalink import curves, keyfiles
from vitalink.credentials import Role

SUITE = curves.P256
VALID_FROM = 1_600_000_000  # 2020-09
VALID_TO = 4_000_000_000  # 2096-10
EXPIRED_TO = 1_700_000_000  # 2023-11
# Every rejection a client can provoke without an on-path proxy, as the
# server names it in `handshake_failed ... detail=<cause>`.
ROGUE_CAUSES = ("UnknownIssuer", "BadSignature", "Expired", "RoleMismatch")


@dataclass(frozen=True)
class Identity:
    name: str
    key_path: str
    cred_path: str
    cause: str | None = None  # the rejection the server must log; None if good

    @property
    def device_hex(self) -> str:
        """The reading device_id: the first 8 bytes of the subject id."""
        return creds.encode_subject(self.name)[:8].hex()


@dataclass(frozen=True)
class Fleet:
    root_path: str
    server_key: str
    server_cred: str
    devices: list
    rogues: dict  # cause -> list of Identity


def build_fleet(directory: Path, seed: int, n_devices: int, rogues_per_cause: int) -> Fleet:
    directory.mkdir(parents=True, exist_ok=True)
    rng = keyfiles.drbg(seed)

    def keypair():
        return curves.keypair_gen(SUITE, rng)

    def issue(issuer_priv, issuer_id, name, role, valid_to=VALID_TO, cause=None):
        d, Q = keypair()
        cred = creds.credential_issue(issuer_priv, creds.encode_subject(name), role, Q,
                                      VALID_FROM, valid_to, issuer_id, SUITE, rng)
        key_path, cred_path = directory / f"{name}.vlk", directory / f"{name}.vlc"
        keyfiles.write_private_key(key_path, d, SUITE)
        keyfiles.write_credential(cred_path, cred, SUITE)
        return Identity(name, str(key_path), str(cred_path), cause)

    def self_signed(name):
        d, Q = keypair()
        subject = creds.encode_subject(name)
        cred = creds.credential_issue(d, subject, Role.ISSUER, Q, VALID_FROM, VALID_TO,
                                      subject, SUITE, rng)
        return d, subject, cred

    root_priv, root_id, root = self_signed("root")
    root_path = directory / "root.vlc"
    keyfiles.write_credential(root_path, root, SUITE)
    server = issue(root_priv, root_id, "ingest-1", Role.SERVER)
    devices = [issue(root_priv, root_id, f"watch-{i:03d}", Role.DEVICE)
               for i in range(n_devices)]

    rogues = {}
    if rogues_per_cause:
        foreign_priv, foreign_id, _ = self_signed("foreign-root")
        for c, cause in enumerate(ROGUE_CAUSES):
            rogues[cause] = []
            for j in range(rogues_per_cause):
                name = f"rogue-{c}-{j}"
                if cause == "UnknownIssuer":
                    ident = issue(foreign_priv, foreign_id, name, Role.DEVICE, cause=cause)
                elif cause == "BadSignature":  # claims the real issuer, foreign signature
                    ident = issue(foreign_priv, root_id, name, Role.DEVICE, cause=cause)
                elif cause == "Expired":
                    ident = issue(root_priv, root_id, name, Role.DEVICE,
                                  valid_to=EXPIRED_TO, cause=cause)
                else:  # a server-role credential presented by a device
                    ident = issue(root_priv, root_id, name, Role.SERVER, cause=cause)
                rogues[cause].append(ident)
    return Fleet(str(root_path), server.key_path, server.cred_path, devices, rogues)
