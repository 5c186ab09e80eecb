"""Output checks: what the server persisted and logged against what the
devices sent. Rejections are judged on the server side only: one kind of
rejection reaches a device as several different errors.
"""

from __future__ import annotations

from collections import Counter

from load import Session
from server import HR_CONSECUTIVE, HR_HIGH, HR_LOW, ServerProc
from vitalink.endpoints import parse_reading_line


def oracle_alerts(device_hex: str, sent: list, low: int = HR_LOW, high: int = HR_HIGH,
                  n: int = HR_CONSECUTIVE) -> list[str]:
    """alerts.log lines for one session's sent (timestamp_ms, bpm) readings,
    by brute force: an alert fires at each window of n readings all above
    `high` or all below `low`, unless an alert already fired with no
    in-band reading since."""
    out = []
    last = None
    for i in range(n - 1, len(sent)):
        window = [bpm for _, bpm in sent[i - n + 1 : i + 1]]
        if all(b > high for b in window):
            rule = "high_hr"
        elif all(b < low for b in window):
            rule = "low_hr"
        else:
            continue
        if last is not None and not any(low <= sent[j][1] <= high
                                        for j in range(last + 1, i + 1)):
            continue
        last = i
        out.append("\t".join([device_hex, rule, str(sent[i - n + 1][0]), str(sent[i][0]),
                              ",".join(map(str, window))]))
    return out


def self_test() -> list[str]:
    """The oracles on hand-made inputs, including ones they must flag."""
    problems = []
    seq = [80, 151, 152, 153, 154, 100, 30, 31, 39, 160, 161, 162, 35, 36, 37, 90]
    sent = [(1000 * i, b) for i, b in enumerate(seq)]
    # the last two breaches follow the low one with no in-band reading between
    want = ["d\thigh_hr\t1000\t3000\t151,152,153", "d\tlow_hr\t6000\t8000\t30,31,39"]
    if oracle_alerts("d", sent) != want:
        problems.append(f"alert oracle self-test: {oracle_alerts('d', sent)}")
    rows = Counter({("s", "watch", "d", 1, 70, "ok"): 1})
    if not _row_problems(rows, Counter(), rows + rows) or not _row_problems(rows, Counter(), Counter()):
        problems.append("readings check self-test: missed a duplicate or a loss")
    return problems


def _row_problems(expected: Counter, tolerated: Counter, actual: Counter) -> list[str]:
    problems = []
    missing = expected - actual
    extra = actual - expected - tolerated
    if missing:
        problems.append(f"{sum(missing.values())} sent readings not persisted exactly once, "
                        f"e.g. {next(iter(missing))}")
    if extra:
        problems.append(f"{sum(extra.values())} persisted readings were not sent, "
                        f"or were persisted twice, e.g. {next(iter(extra))}")
    return problems


def check_server(server: ServerProc, sessions: list[Session]) -> tuple[list[str], int]:
    """Checks one server's store and log against all sessions it served.
    Returns (problems, failed operations)."""
    good = [s for s in sessions if s.ident.cause is None]
    rogue = [s for s in sessions if s.ident.cause is not None]
    ok = [s for s in good if s.report.error is None]

    expected, tolerated = Counter(), Counter()
    exp_alerts, tol_alerts = Counter(), Counter()
    for s in good:
        rows = Counter((s.report.session_id, s.ident.name, s.ident.device_hex, ts, bpm, "ok")
                       for ts, bpm in s.report.sent)
        alerts = Counter(oracle_alerts(s.ident.device_hex, s.report.sent))
        if s.report.error is None:
            expected.update(rows)
            exp_alerts.update(alerts)
        else:  # a failed session may have persisted any prefix of what it sent
            tolerated.update(rows)
            tol_alerts.update(alerts)

    store = server.store_dir
    actual = Counter()
    for line in (store / "readings.log").read_text().splitlines():
        r = parse_reading_line(line)
        actual[(r.session_id, r.subject_id, r.device_id, r.timestamp_ms, r.bpm, r.status)] += 1
    problems = _row_problems(expected, tolerated, actual)
    rogue_names = {s.ident.name for s in rogue}
    leaked = sum(n for row, n in actual.items() if row[1] in rogue_names)
    if leaked:
        problems.append(f"{leaked} readings from rogue subjects were persisted")

    actual_alerts = Counter((store / "alerts.log").read_text().splitlines())
    if exp_alerts - actual_alerts or actual_alerts - exp_alerts - tol_alerts:
        problems.append(f"alerts.log differs from the oracle: expected {sum(exp_alerts.values())}"
                        f", found {sum(actual_alerts.values())}")

    established, rejected, unexpected = server.log_counts()
    sent_causes = Counter(s.ident.cause for s in rogue)
    if rejected != sent_causes:
        problems.append(f"handshake_failed causes {dict(rejected)} != rogue sessions "
                        f"sent {dict(sent_causes)}")
    if not len(ok) <= established <= len(good):
        problems.append(f"{established} sessions established for {len(ok)} good sessions "
                        f"that completed ({len(good)} attempted)")
    if unexpected:
        problems.append(f"unexpected server log events: {dict(unexpected)}")
    failed = len(good) - len(ok) + sum((sent_causes - rejected).values())
    return problems, failed
