"""Operator entry point: vitalink {keygen,credgen,serve,device,proxy}.

Exit codes: 0 success, 1 runtime/protocol failure, 2 configuration or
usage error. Structured key=value logs go to stderr; data to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
import time
from pathlib import Path

from . import curves, keyfiles, records
from . import credentials as creds
from .credentials import Role
from .endpoints import (DeviceConfig, IngestionServer, ServerConfig, check_identity,
                        detect_suite_for_credential, load_identity, run_device)
from .errors import ConfigurationError, InvalidCredentialFields
from .proxy import MODES, TamperPlan, TamperProxy
from .telemetry import AnomalyConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _require_file(path: str, flag: str) -> str:
    if not Path(path).is_file():
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _p256_credential(path: str) -> str:
    """`path` if it holds a P-256 credential; checked before any key is read."""
    if detect_suite_for_credential(path) is not curves.P256:
        raise ConfigurationError(f"credential file {path}: not a P-256 credential")
    return path


def _host_port(value: str, flag: str) -> tuple[str, int]:
    """HOST:PORT split at its last colon, with a port in 0-65535; an IPv6
    HOST may come in brackets, as in [::1]:7700."""
    host, sep, port = value.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not (sep and host and port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"{flag}: expected HOST:PORT with a port in 0-65535, got {value!r}")
    return host, int(port)


def _int_from_zero(below: int | None, shown: str):
    """An argparse type for an integer 0 <= n, and n < `below` when given;
    `shown` is that range as the error gives it."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = -1
        if n < 0 or below is not None and n >= below:
            raise argparse.ArgumentTypeError(f"expected an integer {shown}, got {value!r}")
        return n
    return parse


_SEED = _int_from_zero(1 << 128, "in 0..2^128-1")  # keyfiles.drbg takes 16 bytes


def _rng(seed):
    return keyfiles.drbg(seed) if seed is not None else os.urandom


def _run_until_signalled(service, listen: str) -> int:
    """Starts a server or proxy, serves until SIGINT or SIGTERM, then stops
    it, also when it could not start. A `listen` address it cannot bind is
    a usage error."""
    shutdown = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: shutdown.set())
    try:
        service.start()
        shutdown.wait()
    except OSError as exc:  # from start(): the listening socket could not be made
        # the system's reason, without the address `create_server` appends;
        # a failed name lookup has a negative errno
        reason = os.strerror(exc.errno) if (exc.errno or 0) > 0 else exc.strerror or exc
        raise UsageError(f"--listen {listen}: {reason}") from exc
    finally:
        service.stop()
    return EXIT_OK


def cmd_keygen(args) -> int:
    suite = curves.P256
    out = Path(args.out)
    if not out.is_dir():
        raise UsageError(f"--out: not a writable directory: {out}")
    d, Q = curves.keypair_gen(suite, _rng(args.seed))
    keyfiles.write_private_key(out / "key.vlk", d, suite)
    keyfiles.write_public_point(out / "key.vlp", Q, suite)
    print(f"fingerprint={keyfiles.fingerprint(Q, suite)}")
    return EXIT_OK


def cmd_credgen(args) -> int:
    suite = curves.P256
    issuer_key = keyfiles.read_private_key(
        _require_file(args.issuer_key, "--issuer-key"), suite
    )
    pub = keyfiles.read_public_point(_require_file(args.pub, "--pub"), suite)
    subject = creds.encode_subject(args.subject)
    if args.issuer_cred:
        issuer_id = keyfiles.read_credential(
            _require_file(args.issuer_cred, "--issuer-cred"), suite
        ).subject_id
    else:
        issuer_id = subject  # self-signed
    now = int(time.time())
    valid_to = now + args.valid_days * 86400
    if not now < valid_to < 1 << 64:  # the credential's 8-byte validity field
        raise UsageError(f"--valid-days: expected days that end after now and before "
                         f"2^64 s, got {args.valid_days}")
    cred = creds.credential_issue(
        issuer_key,
        subject,
        Role[args.role.upper()],
        pub,
        now,
        valid_to,
        issuer_id,
        suite,
        _rng(args.seed),
    )
    keyfiles.write_credential(args.out, cred, suite)
    print(f"credential={args.out} subject={args.subject} role={args.role}")
    return EXIT_OK


def cmd_serve(args) -> int:
    try:
        anomaly = AnomalyConfig(low=args.hr_low, high=args.hr_high,
                                consecutive=args.hr_consecutive)
    except ValueError as exc:
        flags = "--hr-consecutive" if args.hr_consecutive < 1 else "--hr-low/--hr-high"
        raise UsageError(f"{flags}: {exc}")
    listen_host, listen_port = _host_port(args.listen, "--listen")
    cfg = ServerConfig(
        listen_host=listen_host,
        listen_port=listen_port,
        key_path=_require_file(args.key, "--key"),
        cred_path=_p256_credential(_require_file(args.cred, "--cred")),
        root_path=_require_file(args.root, "--root"),
        store_dir=args.store_dir,
        anomaly=anomaly,
    )
    return _run_until_signalled(IngestionServer(cfg), args.listen)


def cmd_device(args) -> int:
    host, port = _host_port(args.connect, "--connect")
    cfg = DeviceConfig(
        server_host=host,
        server_port=port,
        key_path=_require_file(args.key, "--key"),
        cred_path=_p256_credential(_require_file(args.cred, "--cred")),
        root_path=_require_file(args.root, "--root"),
        interval_ms=args.interval_ms,
        count=args.count,
        seed=args.seed,
        anomaly_script=args.anomaly_script,
        realtime=args.realtime,
        suite=curves.P256,
    )
    if cfg.anomaly_script:
        _require_file(cfg.anomaly_script, "--anomaly-script")
    try:
        # checked here, not in run_device, which runs once per session
        check_identity(load_identity(cfg.key_path, cfg.cred_path, cfg.suite),
                       keyfiles.read_credential(cfg.root_path, cfg.suite), Role.DEVICE, cfg.suite)
        report = run_device(cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(
        f"sent_count={report.sent_count} session_id={report.session_id} "
        f"duration_s={report.duration_s:.3f} "
        f"error={report.error or 'none'}"
    )
    return EXIT_OK if report.error is None else EXIT_RUNTIME


def cmd_proxy(args) -> int:
    listen = _host_port(args.listen, "--listen")
    upstream = _host_port(args.upstream, "--upstream")
    plan = TamperPlan(mode=args.mode, target_index=args.target_index,
                      bit_offset=args.bit_offset)
    return _run_until_signalled(TamperProxy(*listen, *upstream, plan), args.listen)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vitalink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a static keypair")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("credgen", help="issue a signed credential")
    p.add_argument("--issuer-key", required=True)
    p.add_argument("--issuer-cred", default=None,
                   help="issuer credential; omit for self-signed")
    p.add_argument("--subject", required=True)
    p.add_argument("--role", choices=[r.name.lower() for r in Role], required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--valid-days", type=int, default=365)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_SEED, default=None)
    p.set_defaults(func=cmd_credgen)

    p = sub.add_parser("serve", help="run the ingestion server")
    p.add_argument("--listen", default="127.0.0.1:7700")
    p.add_argument("--key", required=True)
    p.add_argument("--cred", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--store-dir", default="store")
    p.add_argument("--hr-low", type=int, default=40)
    p.add_argument("--hr-high", type=int, default=150)
    p.add_argument("--hr-consecutive", type=int, default=3)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("device", help="run the simulated wearable")
    p.add_argument("--connect", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--cred", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--interval-ms", type=int, default=1000)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--anomaly-script", default=None)
    p.add_argument("--realtime", action="store_true",
                   help="sleep the sample interval between readings; the interval must "
                        f"then be under the {records.READ_TIMEOUT_S:g} s frame read timeout")
    p.set_defaults(func=cmd_device)

    p = sub.add_parser("proxy", help="run the tamper proxy")
    p.add_argument("--listen", required=True)
    p.add_argument("--upstream", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--target-index", type=_int_from_zero(None, ">= 0"), default=0)
    p.add_argument("--bit-offset", type=int, default=0)
    p.set_defaults(func=cmd_proxy)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("VITALINK_LOG", "INFO").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigurationError, InvalidCredentialFields) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_OK
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
