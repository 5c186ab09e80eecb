"""Runs what a `vitalink serve` or `vitalink device` process runs, on the toy
suite, and prints as JSON which OpenSSL-backed modules got loaded, which
module `kdf` took SHA-256 from, which of `dataclasses` and the
introspection modules it imports got loaded, and what held peers cost the
server: the process's threads while it holds 32 idle loopback peers, and
its VmRSS growth per peer. It needs nothing but the package:

    PYTHONPATH=src python tests/footprint.py

Steps: import `vitalink.cli`; check HMAC against RFC 4231 case 2; start an
`IngestionServer` in the process and connect 32 peers that send nothing;
run one 3-reading session through it (so its `ServerSession`) and
`run_device` over loopback. Tier-1 asserts no RSS figure from it.
"""

import json
import logging
import socket
import sys
import tempfile
import threading
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


def vm_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


def held_peer_cost(server, n=32) -> tuple[int, float]:
    """(threads, VmRSS kB per peer) while `server` holds `n` idle peers."""
    peers = [socket.socket() for _ in range(n)]
    before = vm_rss_kb()
    for peer in peers:
        peer.connect(("127.0.0.1", server.port))
    deadline = time.monotonic() + 10.0
    while len(server._listener._conns) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(server._listener._conns) == n
    cost = threading.active_count(), (vm_rss_kb() - before) / n
    for peer in peers:
        peer.close()
    return cost


def main() -> None:
    logging.getLogger("vitalink").setLevel(logging.ERROR)  # the peers' endings
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
            threads, rss_kb = held_peer_cost(server)
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
        "threads_with_32_idle_peers": threads,
        "rss_kb_per_idle_peer": round(rss_kb, 1),
    }))


if __name__ == "__main__":
    main()
