"""Acceptance gate: one test per release criterion, each printing a single
PASS line on success. Thresholds are pinned; a failure here blocks release."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from vitalink import curves, kdf, keyfiles
from vitalink.curves import P256, TOY
from vitalink.endpoints import (
    DeviceConfig,
    IngestionServer,
    ServerConfig,
    parse_alert_line,
    parse_reading_line,
    run_device,
)
from vitalink.gcm import Aes128, GcmKey, open_, seal
from vitalink.handshake import ClientHandshake, ServerHandshake
from vitalink.proxy import TamperPlan, TamperProxy
from vitalink.records import TYPE_DATA, DirectionState, record_seal

from conftest import Pki
from test_gcm import GCM_VECTORS
from test_telemetry import oracle_alert_indices

SRC = Path(__file__).resolve().parents[1] / "src"


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Shared PKI files on P-256 for the end-to-end criteria."""
    d = tmp_path_factory.mktemp("acc")
    pki = Pki(P256)
    pki.write_files(d)
    return pki, d


def start_server(pki, files, store_dir):
    cfg = ServerConfig(
        key_path=str(files / "server.vlk"),
        cred_path=str(files / "server.vlc"),
        root_path=str(files / "root.vlc"),
        store_dir=str(store_dir),
    )
    srv = IngestionServer(cfg)
    srv.start()
    return srv


def device_cfg(files, port, **kw):
    defaults = dict(
        server_port=port,
        key_path=str(files / "device.vlk"),
        cred_path=str(files / "device.vlc"),
        root_path=str(files / "root.vlc"),
        seed=11,
        start_ms=1_000_000,
    )
    defaults.update(kw)
    return DeviceConfig(**defaults)


def stored(srv):
    path = srv.store.dir / "readings.log"
    return path.read_text().splitlines() if path.exists() else []


def test_criterion_01_crypto_known_answers():
    t0 = time.monotonic()
    # AES-128 block (FIPS 197 appendix C.1)
    cipher = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff")) == (
        bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    )
    # SHA-256 (FIPS 180)
    assert kdf.hash_(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    # HMAC (RFC 4231 case 2)
    assert kdf.hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )
    # HKDF (RFC 5869 case 1)
    prk = kdf.hkdf_extract(
        bytes.fromhex("000102030405060708090a0b0c"), b"\x0b" * 22
    )
    assert kdf.hkdf_expand(prk, bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"), 42).hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )
    # AES-GCM: the full pinned vector set (empty pt, empty AAD, multi-block)
    assert len(GCM_VECTORS) >= 5
    for key, nonce, aad, pt, ct, tag in GCM_VECTORS:
        key, nonce, aad, pt, ct, tag = (
            bytes.fromhex(v) for v in (key, nonce, aad, pt, ct, tag)
        )
        gk = GcmKey(key)
        record = seal(gk, nonce, aad, pt)
        assert record == ct + tag
        assert open_(gk, nonce, aad, record) == pt
    dt = time.monotonic() - t0
    assert dt < 5.0
    report(1, f"all standard crypto vectors bit-exact in {dt:.2f}s (< 5s)")


def test_criterion_02_toy_curve_exhaustive_oracle():
    t0 = time.monotonic()

    def oracle_mul(k, P):
        acc = None
        for _ in range(k):
            acc = curves.point_add(acc, P, TOY)
        return acc

    # discover the order by brute force, independent of the library
    order, acc = 1, TOY.G
    while acc is not None:
        acc = curves.point_add(acc, TOY.G, TOY)
        order += 1
    assert order == TOY.n
    for k in range(1, order + 1):
        assert curves.scalar_mul(k, TOY.G, TOY) == oracle_mul(k, TOY.G)
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(2, f"scalar_mul matches repeated addition for all k in [1,{order}] "
              f"in {dt:.2f}s (< 1s)")


def test_criterion_03_ecdh_commutativity():
    for suite in (TOY, P256):
        rng = keyfiles.drbg(suite.suite_id)
        for _ in range(100):
            da, qa = curves.keypair_gen(suite, rng)
            db, qb = curves.keypair_gen(suite, rng)
            assert curves.shared_secret(da, qb, suite) == curves.shared_secret(db, qa, suite)
    report(3, "100/100 keypairs per suite agree on the shared secret")


def test_criterion_04_handshake_session_uniqueness(env):
    pki, _ = env
    ids, keys = set(), set()
    for _ in range(1000):
        c = ClientHandshake(pki.suite, pki.device, pki.root)
        s = ServerHandshake(pki.server, pki.root, suite=pki.suite)
        sh = s.respond(c.start())
        cf, ck = c.finish(sh)
        s.complete(cf)
        ids.add(ck.session_id)
        keys.add(ck.c2s_key)
    assert len(ids) == 1000 and len(keys) == 1000
    report(4, "1000 handshakes produced 1000 distinct session ids and c2s keys")


def test_criterion_05_end_to_end_integrity(env, tmp_path):
    pki, files = env
    srv = start_server(pki, files, tmp_path / "store")
    t0 = time.monotonic()
    try:
        rep = run_device(device_cfg(files, srv.port, count=1000, interval_ms=100))
        assert rep.error is None and rep.sent_count == 1000
        deadline = time.monotonic() + 5.0
        while len(stored(srv)) < 1000 and time.monotonic() < deadline:
            time.sleep(0.05)
        recs = [parse_reading_line(l) for l in stored(srv)]
    finally:
        srv.stop()
    dt = time.monotonic() - t0
    assert len(recs) == 1000
    assert sorted((r.timestamp_ms, r.bpm) for r in recs) == sorted(rep.sent)
    assert dt < 30.0
    report(5, f"1000/1000 readings persisted, multisets equal, in {dt:.2f}s (< 30s)")


TAMPER_MODES = (
    "flip_ciphertext_bit",
    "flip_tag_bit",
    "replay_frame",
    "reorder_pair",
    "drop_frame",
    "truncate_stream",
    "forge_handshake",
)


def test_criterion_06_tamper_matrix(env, tmp_path):
    pki, files = env
    detections = 0
    for mode in TAMPER_MODES:
        for idx in (0, 1, 5):
            store = tmp_path / f"{mode}-{idx}"
            srv = start_server(pki, files, store)
            proxy = TamperProxy(
                "127.0.0.1", 0, "127.0.0.1", srv.port,
                TamperPlan(mode, target_index=idx, direction="c2s"),
            )
            proxy.start()
            try:
                rep = run_device(device_cfg(files, proxy.port, count=8))
                time.sleep(0.2)  # let the server thread finish persisting
                n = len(stored(srv))
            finally:
                proxy.stop()
                srv.stop()
            # expected prefix length: frames accepted strictly before the fault
            if mode == "forge_handshake":
                expected = 0
                assert rep.error is not None and "BadServerCredential" in rep.error
            elif mode == "replay_frame":
                expected = idx + 1  # the original lands; its replay must not
            else:
                expected = idx
            assert n == expected, (mode, idx, n, expected)
            detections += 1
    assert detections == 21
    report(6, "21/21 tamper cases detected; zero post-fault records persisted")


def test_criterion_07_mutual_authentication_negatives(env, tmp_path):
    pki, files = env
    rogue = Pki(P256, seed=31337)
    rogue_dir = tmp_path / "rogue"
    rogue_dir.mkdir()
    rogue.write_files(rogue_dir)

    # rogue server: real device refuses before sending any Data frame
    rogue_srv = start_server(rogue, rogue_dir, tmp_path / "rogue-store")
    try:
        for _ in range(20):
            rep = run_device(device_cfg(files, rogue_srv.port, count=5))
            assert rep.error is not None and rep.sent_count == 0
        assert stored(rogue_srv) == []
    finally:
        rogue_srv.stop()

    # rogue device: real server refuses before accepting any Data frame
    srv = start_server(pki, files, tmp_path / "real-store")
    try:
        for _ in range(20):
            rep = run_device(device_cfg(
                files, srv.port, count=5,
                key_path=str(rogue_dir / "device.vlk"),
                cred_path=str(rogue_dir / "device.vlc"),
            ))
            assert rep.error is not None
        time.sleep(0.2)
        assert stored(srv) == []
    finally:
        srv.stop()
    report(7, "20/20 rogue servers and 20/20 rogue devices rejected pre-Data")


def test_criterion_08_anomaly_alerting(env, tmp_path):
    pki, files = env
    script = tmp_path / "episodes.txt"
    script.write_text("5 9 180\n20 24 170\n")
    srv = start_server(pki, files, tmp_path / "store8")
    try:
        rep = run_device(device_cfg(
            files, srv.port, count=30, anomaly_script=str(script), interval_ms=1000,
        ))
        assert rep.error is None
        time.sleep(0.2)
        path = srv.store.dir / "alerts.log"
        alerts = [parse_alert_line(l) for l in path.read_text().splitlines()]
    finally:
        srv.stop()
    bpms = [b for _, b in rep.sent]
    expected_idx = oracle_alert_indices(bpms)
    assert len(expected_idx) == 2
    got_idx = [(a.window_end_ms - rep.start_ms) // 1000 for a in alerts]
    assert got_idx == expected_idx
    report(8, f"exactly 2 alerts at brute-force-scan indices {expected_idx}")


def test_criterion_09_confidentiality_surrogate():
    tx = DirectionState(bytes(range(16)), b"\x01\x02\x03\x04")
    rng = keyfiles.drbg(99)
    for i in range(100):
        pt = rng(19)
        frame = record_seal(tx, TYPE_DATA, pt)
        ct = frame.body[:-16]
        for j in range(len(pt) - 7):
            assert pt[j : j + 8] not in ct
    report(9, "no 8-byte plaintext substring leaked across 100 sealed records")


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_criterion_10_crash_resilience(env, tmp_path):
    _, files = env
    port = _free_port()
    store = tmp_path / "crash-store"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "vitalink.cli", "serve",
            "--listen", f"127.0.0.1:{port}",
            "--key", str(files / "server.vlk"),
            "--cred", str(files / "server.vlc"),
            "--root", str(files / "root.vlc"),
            "--store-dir", str(store),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                break
            except OSError:
                time.sleep(0.1)
        else:
            pytest.fail("server subprocess never started listening")

        result = {}

        def stream():
            result["report"] = run_device(device_cfg(
                files, port, count=100, interval_ms=100, realtime=True,
            ))

        t = threading.Thread(target=stream)
        t.start()
        time.sleep(2.0)  # let a few dozen records land, then pull the plug
        os.kill(proc.pid, signal.SIGKILL)
        t.join(timeout=20.0)
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()

    lines = (store / "readings.log").read_text().splitlines()
    assert len(lines) > 0
    for line in lines:
        parse_reading_line(line)  # raises on any torn or malformed line
    report(10, f"server killed mid-stream; all {len(lines)} persisted lines parse")
