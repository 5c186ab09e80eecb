"""CLI contract: flags, exit codes, and on-disk artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vitalink import curves, keyfiles
from vitalink.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from vitalink.credentials import Role, credential_verify, verify_trust_root

from conftest import BAD_ROOTS, bad_root


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_keygen_writes_keypair_and_prints_fingerprint(tmp_path, capsys):
    code, out, _ = run(["keygen", "--out", str(tmp_path), "--seed", "5"], capsys)
    assert code == EXIT_OK
    assert out.startswith("fingerprint=")
    d = keyfiles.read_private_key(tmp_path / "key.vlk", curves.P256)
    Q = keyfiles.read_public_point(tmp_path / "key.vlp", curves.P256)
    assert curves.scalar_mul(d, curves.P256.G, curves.P256) == Q


def test_keygen_seed_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    _, out_a, _ = run(["keygen", "--out", str(a), "--seed", "9"], capsys)
    _, out_b, _ = run(["keygen", "--out", str(b), "--seed", "9"], capsys)
    assert out_a == out_b
    assert (a / "key.vlk").read_bytes() == (b / "key.vlk").read_bytes()
    c = tmp_path / "c"; c.mkdir()
    _, out_c, _ = run(["keygen", "--out", str(c), "--seed", "10"], capsys)
    assert out_c != out_a


def test_keygen_bad_out_dir_is_usage_error(tmp_path, capsys):
    code, _, err = run(["keygen", "--out", str(tmp_path / "missing")], capsys)
    assert code == EXIT_USAGE and "error:" in err


@pytest.fixture()
def issued(tmp_path, capsys):
    """Self-signed root plus a chained device credential via the CLI."""
    root_dir = tmp_path / "root"; root_dir.mkdir()
    dev_dir = tmp_path / "dev"; dev_dir.mkdir()
    assert main(["keygen", "--out", str(root_dir), "--seed", "1"]) == EXIT_OK
    assert main(["keygen", "--out", str(dev_dir), "--seed", "2"]) == EXIT_OK
    assert main([
        "credgen", "--issuer-key", str(root_dir / "key.vlk"),
        "--subject", "root", "--role", "issuer",
        "--pub", str(root_dir / "key.vlp"),
        "--out", str(root_dir / "root.vlc"), "--seed", "3",
    ]) == EXIT_OK
    assert main([
        "credgen", "--issuer-key", str(root_dir / "key.vlk"),
        "--issuer-cred", str(root_dir / "root.vlc"),
        "--subject", "watch-9", "--role", "device",
        "--pub", str(dev_dir / "key.vlp"),
        "--out", str(dev_dir / "device.vlc"), "--seed", "4",
    ]) == EXIT_OK
    capsys.readouterr()
    return root_dir, dev_dir


def test_credgen_chain_verifies(issued):
    import time

    root_dir, dev_dir = issued
    root = keyfiles.read_credential(root_dir / "root.vlc", curves.P256)
    leaf = keyfiles.read_credential(dev_dir / "device.vlc", curves.P256)
    now = int(time.time())
    assert verify_trust_root(root, now, curves.P256) is None
    assert credential_verify(leaf, root, now, curves.P256, expected_role=Role.DEVICE) is None


def test_credgen_zero_validity_is_usage_error(issued, capsys):
    root_dir, _ = issued
    code, _, err = run([
        "credgen", "--issuer-key", str(root_dir / "key.vlk"),
        "--subject", "x", "--role", "device",
        "--pub", str(root_dir / "key.vlp"),
        "--valid-days", "0", "--out", str(root_dir / "nope.vlc"),
    ], capsys)
    assert code == EXIT_USAGE
    assert not (root_dir / "nope.vlc").exists()


def test_credgen_bad_role_is_usage_error(issued, capsys):
    root_dir, _ = issued
    with pytest.raises(SystemExit) as exc:
        main([
            "credgen", "--issuer-key", str(root_dir / "key.vlk"),
            "--subject", "x", "--role", "admin",
            "--pub", str(root_dir / "key.vlp"),
            "--out", str(root_dir / "nope.vlc"),
        ])
    assert exc.value.code == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("vitalink credgen: error: argument --role: invalid choice: 'admin'")
    assert not (root_dir / "nope.vlc").exists()


@pytest.mark.parametrize("days", ["0", "-1", str(10**15)])
def test_credgen_refuses_a_validity_its_field_cannot_hold(issued, days, capsys):
    # valid_to is 8 unsigned bytes on the wire
    root_dir, _ = issued
    code, _, err = run([
        "credgen", "--issuer-key", str(root_dir / "key.vlk"),
        "--subject", "x", "--role", "device",
        "--pub", str(root_dir / "key.vlp"),
        "--valid-days", days, "--out", str(root_dir / "nope.vlc"),
    ], capsys)
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: --valid-days: expected days that end after now and before 2^64 s, got {days}"]
    assert not (root_dir / "nope.vlc").exists()


@pytest.mark.parametrize("command, flag, value, shown", [
    ("keygen", "--seed", "-1", "in 0..2^128-1"),
    ("keygen", "--seed", str(2**128), "in 0..2^128-1"),
    ("keygen", "--seed", "seven", "in 0..2^128-1"),
    ("credgen", "--seed", "-1", "in 0..2^128-1"),
    ("device", "--seed", str(2**128), "in 0..2^128-1"),
    ("proxy", "--target-index", "-1", ">= 0"),
])
def test_an_out_of_range_integer_flag_is_a_usage_error(command, flag, value, shown,
                                                         tmp_path, capsys):
    # refused while parsing, before any file is read or written
    files = ["--key", str(tmp_path / "k.vlk"), "--cred", str(tmp_path / "c.vlc"),
             "--root", str(tmp_path / "r.vlc")]
    argv = {
        "keygen": ["keygen", "--out", str(tmp_path)],
        "credgen": ["credgen", "--issuer-key", str(tmp_path / "k.vlk"), "--subject", "x",
                    "--role", "device", "--pub", str(tmp_path / "k.vlp"),
                    "--out", str(tmp_path / "o.vlc")],
        "device": ["device", "--connect", "127.0.0.1:7700", *files],
        "proxy": ["proxy", "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:7700",
                  "--mode", "passthrough"],
    }[command] + [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"vitalink {command}: error: argument {flag}: "
                      f"expected an integer {shown}, got {value!r}"]
    assert list(tmp_path.iterdir()) == []


def test_the_largest_seed_is_accepted(tmp_path, capsys):
    code, out, _ = run(["keygen", "--out", str(tmp_path), "--seed", str(2**128 - 1)], capsys)
    assert code == EXIT_OK and out.startswith("fingerprint=")


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code, _, err = run([
        "credgen", "--issuer-key", str(tmp_path / "ghost.vlk"),
        "--subject", "x", "--role", "device",
        "--pub", str(tmp_path / "ghost.vlp"), "--out", str(tmp_path / "o.vlc"),
    ], capsys)
    assert code == EXIT_USAGE and "no such file" in err


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--out", str(tmp_path), "--suite", "p512"])
    assert exc.value.code == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("vitalink keygen: error: argument --suite: invalid choice: 'p512'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-1"])
def test_serve_refuses_hr_consecutive_below_one(value, tmp_path, capsys):
    # checked before the key files are read, so none need exist
    code, _, err = run([
        "serve", "--key", str(tmp_path / "k.vlk"), "--cred", str(tmp_path / "c.vlc"),
        "--root", str(tmp_path / "r.vlc"), "--store-dir", str(tmp_path / "store"),
        "--hr-consecutive", value,
    ], capsys)
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: --hr-consecutive: consecutive must be at least 1, not {value}"]
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("low,high", [(150, 40), (75, 75), (-1, 150)])
def test_serve_refuses_heart_rate_thresholds_out_of_order(low, high, tmp_path, capsys):
    # inverted thresholds would alert on a steady normal heart rate
    code, _, err = run([
        "serve", "--key", str(tmp_path / "k.vlk"), "--cred", str(tmp_path / "c.vlc"),
        "--root", str(tmp_path / "r.vlc"), "--store-dir", str(tmp_path / "store"),
        "--hr-low", str(low), "--hr-high", str(high),
    ], capsys)
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: --hr-low/--hr-high: thresholds must satisfy 0 <= low < high <= 300, "
        f"not low={low} high={high}"]
    assert not (tmp_path / "store").exists()


def test_invalid_proxy_mode_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["proxy", "--listen", "a:1", "--upstream", "b:2", "--mode", "explode"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_device_against_dead_port_exits_runtime(issued, capsys):
    root_dir, dev_dir = issued
    code, out, _ = run([
        "device", "--connect", "127.0.0.1:1",
        "--key", str(dev_dir / "key.vlk"),
        "--cred", str(dev_dir / "device.vlc"),
        "--root", str(root_dir / "root.vlc"),
        "--count", "1",
    ], capsys)
    assert code == EXIT_RUNTIME
    assert "sent_count=0" in out and "error=" in out


def test_a_key_that_does_not_match_its_credential_exits_usage(issued, tmp_path, capsys):
    root_dir, dev_dir = issued
    mismatched = ["--key", str(root_dir / "key.vlk"), "--cred", str(dev_dir / "device.vlc"),
                  "--root", str(root_dir / "root.vlc")]
    code, out, err = run(["device", "--connect", "127.0.0.1:1", "--count", "1", *mismatched],
                         capsys)
    assert code == EXIT_USAGE
    assert out == "" and "does not match" in err
    # serve installs signal handlers, so it runs in its own process
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vitalink.cli", "serve", "--listen", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"), *mismatched],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == EXIT_USAGE
    assert "does not match" in proc.stderr and "listening" not in proc.stderr


@pytest.mark.parametrize("kind", BAD_ROOTS)
def test_a_bad_trust_configuration_exits_usage(kind, pki, tmp_path, capsys):
    pki.write_files(tmp_path)
    keyfiles.write_credential(tmp_path / "bad-root.vlc", bad_root(pki, kind), pki.suite)
    code, out, err = run([
        "device", "--connect", "127.0.0.1:1", "--count", "1",
        "--key", str(tmp_path / "device.vlk"), "--cred", str(tmp_path / "device.vlc"),
        "--root", str(tmp_path / "bad-root.vlc"),
    ], capsys)
    assert code == EXIT_USAGE
    assert out == "" and "rejected" in err
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vitalink.cli", "serve", "--listen", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"), "--key", str(tmp_path / "server.vlk"),
         "--cred", str(tmp_path / "server.vlc"), "--root", str(tmp_path / "bad-root.vlc")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == EXIT_USAGE
    assert "rejected" in proc.stderr and "listening" not in proc.stderr


def test_device_detects_the_suite_from_its_credential(toy_pki, tmp_path, capsys):
    from vitalink.endpoints import IngestionServer, ServerConfig

    toy_pki.write_files(tmp_path)
    srv = IngestionServer(ServerConfig(
        key_path=str(tmp_path / "server.vlk"), cred_path=str(tmp_path / "server.vlc"),
        root_path=str(tmp_path / "root.vlc"), store_dir=str(tmp_path / "store"),
    ))
    srv.start()
    argv = ["device", "--connect", f"127.0.0.1:{srv.port}", "--count", "2",
            "--interval-ms", "100", "--key", str(tmp_path / "device.vlk"),
            "--cred", str(tmp_path / "device.vlc"), "--root", str(tmp_path / "root.vlc")]
    try:
        code, out, _ = run(argv, capsys)
    finally:
        srv.stop()
    assert code == EXIT_OK and "sent_count=2 " in out and "error=none" in out
    with pytest.raises(SystemExit) as exc:  # one rule: no flag to disagree with the files
        main([*argv, "--suite", "toy"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, fault", [
    ("serve", "--key", "short"),
    ("device", "--key", "short"),
    ("serve", "--cred", "short"),
    ("serve", "--root", "truncated"),
    ("device", "--root", "truncated"),
    ("serve", "--store-dir", "under_a_file"),
])
def test_malformed_key_material_is_a_configuration_error(command, flag, fault, toy_pki,
                                                         tmp_path, capsys):
    toy_pki.write_files(tmp_path)
    bad = tmp_path / "bad"
    if fault == "short":  # a 2-byte key, a 5-byte credential
        bad.write_bytes(b"\x01" * (2 if flag == "--key" else 5))
    elif fault == "truncated":
        bad.write_bytes((tmp_path / "root.vlc").read_bytes()[:-1])
    else:  # a store directory that cannot be made: its parent is a file
        bad.write_bytes(b"")
        bad = bad / "store"
    role = "server" if command == "serve" else "device"
    files = {"--key": str(tmp_path / f"{role}.vlk"), "--cred": str(tmp_path / f"{role}.vlc"),
             "--root": str(tmp_path / "root.vlc"), flag: str(bad)}
    argv = {
        "serve": ["serve", "--listen", "127.0.0.1:0", "--store-dir",
                  files.pop("--store-dir", str(tmp_path / "store"))],
        "device": ["device", "--connect", "127.0.0.1:1", "--count", "1"],
    }[command]
    code, out, err = run([*argv, *[a for pair in files.items() for a in pair]], capsys)
    assert code == EXIT_USAGE and out == ""
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert str(bad) in line


@pytest.mark.parametrize("command, flag, value", [
    ("serve", "--listen", "127.0.0.1"),
    ("serve", "--listen", "127.0.0.1:abc"),
    ("serve", "--listen", "127.0.0.1:65536"),
    ("serve", "--listen", ":7700"),
    ("device", "--connect", "localhost"),
    ("device", "--connect", "localhost:-1"),
    ("proxy", "--listen", "127.0.0.1:99999"),
    ("proxy", "--upstream", "7700"),
])
def test_a_malformed_host_port_is_a_usage_error(command, flag, value, tmp_path, capsys):
    # checked before any file is read, so none need exist
    files = ["--key", str(tmp_path / "k.vlk"), "--cred", str(tmp_path / "c.vlc"),
             "--root", str(tmp_path / "r.vlc")]
    argv = {
        "serve": ["serve", "--listen", "127.0.0.1:0", *files,
                  "--store-dir", str(tmp_path / "store")],
        "device": ["device", "--connect", "127.0.0.1:7700", *files],
        "proxy": ["proxy", "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:7700",
                  "--mode", "passthrough"],
    }[command]
    argv[argv.index(flag) + 1] = value
    code, _, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {flag}: expected HOST:PORT with a port in 0-65535, got {value!r}"]
    assert not (tmp_path / "store").exists()
