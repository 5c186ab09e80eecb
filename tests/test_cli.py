"""CLI contract: flags, exit codes, and on-disk artifacts."""

import logging
import os
import signal
import socket
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from vitalink import cli, curves, endpoints, keyfiles, proxy
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


def test_keygen_writes_its_private_key_owner_only_under_a_loose_umask(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        assert run(["keygen", "--out", str(tmp_path), "--seed", "5"], capsys)[0] == EXIT_OK
        # a key file already there, readable by all, is tightened before it is rewritten
        loose = tmp_path / "loose.vlk"
        loose.write_bytes(b"old")
        loose.chmod(0o644)
        keyfiles.write_private_key(loose, 7, curves.P256)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "key.vlk").stat().st_mode) == 0o600
    assert stat.S_IMODE(loose.stat().st_mode) == 0o600
    assert keyfiles.read_private_key(loose, curves.P256) == 7
    assert stat.S_IMODE((tmp_path / "key.vlp").stat().st_mode) == 0o644  # public: umask


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


def endpoint_argv(command, directory):
    """`serve` or `device` on the files `Pki.write_files` wrote to `directory`;
    the device's peer is a dead port."""
    role = "server" if command == "serve" else "device"
    return {
        "serve": ["serve", "--listen", "127.0.0.1:0", "--store-dir", str(directory / "store")],
        "device": ["device", "--connect", "127.0.0.1:1", "--count", "1"],
    }[command] + ["--key", str(directory / f"{role}.vlk"), "--cred", str(directory / f"{role}.vlc"),
                  "--root", str(directory / "root.vlc")]


@pytest.mark.parametrize("command", ["serve", "device"])
def test_the_cli_refuses_toy_suite_files(command, toy_pki, tmp_path, capsys, monkeypatch):
    # the toy curve is for in-process tests: any key on it falls to 19 guesses
    toy_pki.write_files(tmp_path)
    # a server that accepted them would stop at once instead of serving until a signal
    monkeypatch.setattr(cli, "_run_until_signalled", lambda service, listen: service.stop() or EXIT_OK)
    code, out, err = run(endpoint_argv(command, tmp_path), capsys)
    assert code == EXIT_USAGE and out == ""
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    cred = tmp_path / ("server.vlc" if command == "serve" else "device.vlc")
    assert line == f"error: credential file {cred}: not a P-256 credential"
    assert not (tmp_path / "store").exists()


def test_a_realtime_device_needs_an_interval_under_the_read_timeout(pki, tmp_path, capsys):
    # the server would time out waiting for the second record
    pki.write_files(tmp_path)
    argv = endpoint_argv("device", tmp_path) + ["--realtime", "--interval-ms", "10000"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert "error: a realtime sample interval must be under the 10 s frame read timeout" in err


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o400],
                         ids=["0644", "0640", "0600", "0400"])
@pytest.mark.parametrize("command", ["serve", "device"])
def test_a_private_key_that_group_or_others_can_use_is_refused(command, mode, pki, tmp_path,
                                                                capsys, monkeypatch):
    pki.write_files(tmp_path)
    key = tmp_path / ("server.vlk" if command == "serve" else "device.vlk")
    key.chmod(mode)
    # an accepted server stops at once instead of serving until a signal
    monkeypatch.setattr(cli, "_run_until_signalled", lambda service, listen: service.stop() or EXIT_OK)
    code, out, err = run(endpoint_argv(command, tmp_path), capsys)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if mode & 0o077:
        assert code == EXIT_USAGE and out == ""
        assert errors == [f"error: private key file {key}: mode {mode:04o}, not owner-only"]
    elif command == "serve":
        assert code == EXIT_OK and errors == []
    else:  # the device got as far as its connect
        assert code == EXIT_RUNTIME and "sent_count=0 " in out and "connection refused" in out


@pytest.mark.parametrize("command, flag, fault", [
    ("serve", "--key", "short"),
    ("device", "--key", "short"),
    ("serve", "--cred", "short"),
    ("serve", "--root", "truncated"),
    ("device", "--root", "truncated"),
    ("serve", "--store-dir", "under_a_file"),
])
def test_malformed_key_material_is_a_configuration_error(command, flag, fault, pki,
                                                         tmp_path, capsys):
    pki.write_files(tmp_path)
    bad = tmp_path / "bad"
    if fault == "short":  # a 2-byte key, a 5-byte credential
        bad.write_bytes(b"\x01" * (2 if flag == "--key" else 5))
        bad.chmod(0o600)  # a key open to others is refused before its length is read
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


@pytest.mark.parametrize("command", ["serve", "proxy"])
def test_a_listen_address_in_use_exits_usage_and_stops_the_service(command, pki, tmp_path,
                                                                    capsys, caplog, monkeypatch):
    pki.write_files(tmp_path)
    service = {"serve": endpoints.IngestionServer, "proxy": proxy.TamperProxy}[command]
    stopped = []
    real_stop = service.stop
    monkeypatch.setattr(service, "stop", lambda self: stopped.append(self) or real_stop(self))
    caplog.set_level(logging.INFO, logger="vitalink")
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    with socket.create_server(("127.0.0.1", 0)) as taken:
        listen = f"127.0.0.1:{taken.getsockname()[1]}"
        argv = {
            "serve": endpoint_argv("serve", tmp_path),
            "proxy": ["proxy", "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1",
                      "--mode", "passthrough"],
        }[command]
        argv[argv.index("--listen") + 1] = listen
        try:
            code, out, err = run(argv, capsys)
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
    assert code == EXIT_USAGE and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: --listen {listen}: Address already in use"]
    assert not [r for r in caplog.records if "listening" in r.getMessage()]
    [stopped_service] = stopped  # so the store's files are closed and the ticket key zeroized
    if command == "serve":
        assert stopped_service.store._readings.closed and stopped_service.store._alerts.closed
        assert stopped_service.ticket_key._key is None


def test_a_device_session_runs_over_ipv6(pki, tmp_path, capsys):
    # an IPv6 HOST comes in brackets, as in a URL; the listener binds it as IPv6
    pki.write_files(tmp_path)
    host, port = cli._host_port("[::1]:0", "--listen")
    server = endpoints.IngestionServer(endpoints.ServerConfig(
        listen_host=host, listen_port=port, key_path=str(tmp_path / "server.vlk"),
        cred_path=str(tmp_path / "server.vlc"), root_path=str(tmp_path / "root.vlc"),
        store_dir=str(tmp_path / "store")))
    server.start()
    try:
        argv = endpoint_argv("device", tmp_path)
        argv[argv.index("--connect") + 1] = f"[::1]:{server.port}"
        code, out, _ = run(argv, capsys)
    finally:
        server.stop()
    assert code == EXIT_OK and out.startswith("sent_count=1 ")
    assert len((tmp_path / "store" / "readings.log").read_text().splitlines()) == 1
