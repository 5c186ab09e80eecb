"""Reading codec, simulated sensor, and anomaly detection, with a
brute-force trace scan as the alerting oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink.errors import MalformedReading
from vitalink.telemetry import (
    STATUS_LOW_CONFIDENCE,
    STATUS_OFF_BODY,
    STATUS_OK,
    AnomalyConfig,
    AnomalyDetector,
    HeartRateReading,
    ScriptSegment,
    SensorSim,
    parse_anomaly_script,
    reading_decode,
    reading_encode,
)

DEV = b"watch-01"


def test_encode_decode_round_trip():
    r = HeartRateReading(DEV, 1_700_000_000_123, 72, STATUS_OK)
    encoded = reading_encode(r)
    assert len(encoded) == 19
    assert reading_decode(encoded) == r


@settings(max_examples=200, deadline=None)
@given(
    ts=st.integers(min_value=0, max_value=2**63 - 1),
    bpm=st.integers(min_value=0, max_value=300),
    status=st.sampled_from([STATUS_OK, STATUS_OFF_BODY, STATUS_LOW_CONFIDENCE]),
)
def test_round_trip_property(ts, bpm, status):
    r = HeartRateReading(DEV, ts, bpm, status)
    assert reading_decode(reading_encode(r)) == r


def test_decode_rejects_bad_inputs():
    with pytest.raises(MalformedReading):
        reading_decode(b"\x00" * 18)
    r = bytearray(reading_encode(HeartRateReading(DEV, 0, 100)))
    r[16:18] = (0x7FFF).to_bytes(2, "big")
    with pytest.raises(MalformedReading):
        reading_decode(bytes(r))
    r = bytearray(reading_encode(HeartRateReading(DEV, 0, 100)))
    r[18] = 9
    with pytest.raises(MalformedReading):
        reading_decode(bytes(r))


def test_encode_rejects_out_of_range():
    with pytest.raises(MalformedReading):
        reading_encode(HeartRateReading(DEV, 0, 301))
    with pytest.raises(MalformedReading):
        reading_encode(HeartRateReading(b"short", 0, 70))


# --- sensor ---------------------------------------------------------------


def test_degenerate_sensor_is_constant():
    sim = SensorSim(DEV, seed=1, baseline=75, amplitude=0, sigma=0)
    assert [sim.next_reading(i * 1000).bpm for i in range(20)] == [75] * 20


def test_fixed_seed_reproduces_sequence():
    a = SensorSim(DEV, seed=42)
    b = SensorSim(DEV, seed=42)
    sa = [a.next_reading(i * 500).bpm for i in range(100)]
    sb = [b.next_reading(i * 500).bpm for i in range(100)]
    assert sa == sb
    c = SensorSim(DEV, seed=43)
    assert sa != [c.next_reading(i * 500).bpm for i in range(100)]


def test_script_override_window():
    sim = SensorSim(DEV, seed=1, script=[ScriptSegment(50, 60, 180)])
    bpms = [sim.next_reading(i * 1000).bpm for i in range(70)]
    assert all(b == 180 for b in bpms[50:61])
    assert all(b != 180 for b in bpms[:50])


def test_output_clamped_to_sensor_range():
    sim = SensorSim(DEV, seed=9, baseline=300, amplitude=0, sigma=50)
    assert all(sim.next_reading(i).bpm <= 220 for i in range(100))
    sim = SensorSim(DEV, seed=9, baseline=0, amplitude=0, sigma=50)
    assert all(sim.next_reading(i).bpm >= 30 for i in range(100))


def test_script_parser():
    segs = parse_anomaly_script("# comment\n50 60 180\n\n100 110 35\n")
    assert segs == [ScriptSegment(50, 60, 180), ScriptSegment(100, 110, 35)]
    with pytest.raises(ValueError):
        parse_anomaly_script("10 5 180")
    with pytest.raises(ValueError):
        parse_anomaly_script("1 2")


# --- anomaly detection ----------------------------------------------------


def run_detector(bpms, cfg=AnomalyConfig(low=40, high=150, consecutive=3), statuses=None):
    det = AnomalyDetector(cfg)
    alerts = []
    for i, bpm in enumerate(bpms):
        status = statuses[i] if statuses else STATUS_OK
        a = det.check(HeartRateReading(DEV, i * 1000, bpm, status))
        if a is not None:
            alerts.append((i, a))
    return alerts


def oracle_alerts(bpms, statuses=None, low=40, high=150, consecutive=3):
    """Brute-force scan: an alert fires at index i when the last
    `consecutive` ok-status readings all breach the same bound and no alert
    has fired since the last in-band ok-status reading. Returns (index,
    rule, indices of the window) per alert."""
    alerts = []
    armed = True
    ok = []  # indices of the ok-status readings so far
    for i in range(len(bpms)):
        if statuses and statuses[i] != STATUS_OK:
            continue
        ok.append(i)
        if low <= bpms[i] <= high:
            armed = True
        if len(ok) < consecutive:
            continue
        window = ok[-consecutive:]
        if all(bpms[j] > high for j in window):
            rule = "high_hr"
        elif all(bpms[j] < low for j in window):
            rule = "low_hr"
        else:
            continue
        if armed:
            alerts.append((i, rule, window))
            armed = False
    return alerts


def oracle_alert_indices(bpms, low=40, high=150, consecutive=3):
    return [i for i, _, _ in oracle_alerts(bpms, None, low, high, consecutive)]


def test_normal_trace_no_alert():
    assert run_detector([80, 82, 79]) == []


def test_sustained_high_fires_once():
    alerts = run_detector([160, 165, 158])
    assert len(alerts) == 1
    idx, alert = alerts[0]
    assert idx == 2 and alert.rule == "high_hr"
    assert alert.observed_bpm == (160, 165, 158)
    assert alert.window_start_ms == 0 and alert.window_end_ms == 2000


def test_rearm_rule_hand_traced():
    # hand oracle: the lone 90 interrupts the first run, so only the final
    # three consecutive highs produce an alert, at the last index
    alerts = run_detector([160, 90, 160, 165, 158])
    assert [i for i, _ in alerts] == [4]


def test_low_rule():
    alerts = run_detector([35, 36, 34])
    assert len(alerts) == 1 and alerts[0][1].rule == "low_hr"


def test_non_ok_statuses_never_contribute():
    statuses = [STATUS_OK, STATUS_OFF_BODY, STATUS_OK, STATUS_LOW_CONFIDENCE, STATUS_OK]
    # only the ok readings (160, 170, 180) form the window
    alerts = run_detector([160, 20, 170, 20, 180], statuses=statuses)
    assert [i for i, _ in alerts] == [4]


def test_one_alert_per_episode_then_rearm():
    bpms = [160, 161, 162, 163, 80, 155, 156, 157]
    alerts = run_detector(bpms)
    assert [i for i, _ in alerts] == [2, 7]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([30, 35, 40, 80, 100, 150, 151, 160, 200]),
                       st.sampled_from([STATUS_OK] * 4 + [STATUS_OFF_BODY,
                                                          STATUS_LOW_CONFIDENCE])),
             max_size=40),
    st.integers(1, 5),
)
def test_detector_matches_brute_force_oracle(trace, consecutive):
    bpms = [b for b, _ in trace]
    statuses = [s for _, s in trace]
    cfg = AnomalyConfig(low=40, high=150, consecutive=consecutive)
    got = [(i, a.rule, a.observed_bpm, a.window_start_ms, a.window_end_ms)
           for i, a in run_detector(bpms, cfg, statuses)]
    want = [(i, rule, tuple(bpms[j] for j in window), window[0] * 1000, window[-1] * 1000)
            for i, rule, window in oracle_alerts(bpms, statuses, 40, 150, consecutive)]
    assert got == want


@pytest.mark.parametrize("consecutive", [0, -1])
def test_an_anomaly_config_needs_a_window_of_at_least_one_reading(consecutive):
    with pytest.raises(ValueError, match="at least 1"):
        AnomalyConfig(consecutive=consecutive)
    # the smallest window alerts on one out-of-band reading
    alert = AnomalyDetector(AnomalyConfig(consecutive=1)).check(HeartRateReading(DEV, 5, 200))
    assert alert is not None and alert.observed_bpm == (200,) and alert.rule == "high_hr"
