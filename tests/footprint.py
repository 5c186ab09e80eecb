"""Runs what a `vitalink serve` or `vitalink device` process runs, on the toy
suite, and prints as JSON which OpenSSL-backed modules got loaded, which
module `kdf` took SHA-256 from, and which of `dataclasses` and the
introspection modules it imports got loaded. It needs nothing but the
package:

    PYTHONPATH=src python tests/footprint.py

Steps: import `vitalink.cli`; check HMAC against RFC 4231 case 2; run one
3-reading session through an `IngestionServer` (so its `ServerSession`)
and `run_device` over loopback.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import vitalink.cli  # noqa: F401  everything the operator's entry point loads
from vitalink import credentials as creds
from vitalink import curves, kdf, keyfiles
from vitalink.credentials import Role
from vitalink.endpoints import DeviceConfig, IngestionServer, ServerConfig, run_device

OPENSSL_MODULES = ("hashlib", "_hashlib", "hmac", "ssl", "_ssl")
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis")


def write_toy_pki(directory: Path) -> None:
    suite, rng, now = curves.TOY, keyfiles.drbg(30), int(time.time())
    root_priv, root_pub = curves.keypair_gen(suite, rng)
    root_sub = creds.encode_subject("root")

    def issue(subject, role, pub):
        return creds.credential_issue(root_priv, subject, role, pub, now - 3600, now + 86400,
                                      root_sub, suite, rng)

    keyfiles.write_credential(directory / "root.vlc", issue(root_sub, Role.ISSUER, root_pub),
                              suite)
    for name, role in (("server", Role.SERVER), ("device", Role.DEVICE)):
        d, Q = curves.keypair_gen(suite, rng)
        keyfiles.write_private_key(directory / f"{name}.vlk", d, suite)
        keyfiles.write_credential(directory / f"{name}.vlc",
                                  issue(creds.encode_subject(name), role, Q), suite)


def main() -> None:
    assert kdf.hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_toy_pki(d)
        server = IngestionServer(ServerConfig(
            key_path=str(d / "server.vlk"), cred_path=str(d / "server.vlc"),
            root_path=str(d / "root.vlc"), store_dir=str(d / "store")))
        server.start()
        try:
            report = run_device(DeviceConfig(
                server_port=server.port, key_path=str(d / "device.vlk"),
                cred_path=str(d / "device.vlc"), root_path=str(d / "root.vlc"),
                suite=curves.TOY, count=3, seed=1))
        finally:
            server.stop()
        stored = (d / "store" / "readings.log").read_text().splitlines()
    assert report.error is None and report.sent_count == len(stored) == 3, report.error
    print(json.dumps({
        "python": ".".join(map(str, sys.version_info[:3])),
        "loaded": [m for m in OPENSSL_MODULES if m in sys.modules],
        "sha256_module": kdf._sha256.__module__,
        "introspection_loaded": [m for m in INTROSPECTION_MODULES if m in sys.modules],
    }))


if __name__ == "__main__":
    main()
