"""Reading codec, simulated sensor, and anomaly detection, with a
brute-force trace scan as the alerting oracle."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalink.errors import MalformedReading
from vitalink.telemetry import (
    BPM_MAX,
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

def test_encode_decode_round_trip():
    r = HeartRateReading(1_700_000_000_123, 72, STATUS_OK)
    encoded = reading_encode(r)
    assert len(encoded) == 11
    assert list(reading_decode(encoded)) == [r]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**63 - 1),
                          st.integers(min_value=0, max_value=300),
                          st.sampled_from([STATUS_OK, STATUS_OFF_BODY, STATUS_LOW_CONFIDENCE])),
                min_size=1, max_size=64))
def test_round_trip_property(fields):
    readings = [HeartRateReading(*f) for f in fields]
    assert list(reading_decode(b"".join(reading_encode(r) for r in readings))) == readings


@settings(max_examples=300, deadline=None)
@given(
    ts=st.integers(min_value=0, max_value=2**64 - 1),
    bpm=st.integers(min_value=0, max_value=BPM_MAX),
    status=st.sampled_from([STATUS_OK, STATUS_OFF_BODY, STATUS_LOW_CONFIDENCE]),
)
def test_the_codec_matches_the_documented_byte_layout(ts, bpm, status):
    # big-endian timestamp, bpm and status, no padding and no device id: 11 bytes
    layout = ts.to_bytes(8, "big") + bpm.to_bytes(2, "big") + bytes([status])
    r = HeartRateReading(ts, bpm, status)
    assert reading_encode(r) == layout
    assert list(reading_decode(layout)) == [r]
    assert list(reading_decode(layout * 3)) == [r] * 3


@pytest.mark.parametrize("ts", [-1, -(2**63), 2**64, 2**70])
def test_encode_refuses_a_timestamp_outside_64_unsigned_bits(ts):
    with pytest.raises(MalformedReading, match="timestamp"):
        reading_encode(HeartRateReading(ts, 70))


def test_decode_rejects_bad_inputs():
    # a bad length raises at the call, before any reading is yielded
    with pytest.raises(MalformedReading, match="length"):
        reading_decode(b"\x00" * 10)
    with pytest.raises(MalformedReading, match="length"):
        reading_decode(b"\x00" * 19)  # a reading that also carries an 8-byte device id
    good = reading_encode(HeartRateReading(0, 100))
    r = bytearray(good)
    r[8:10] = (0x7FFF).to_bytes(2, "big")
    readings = reading_decode(good + bytes(r))
    assert next(readings) == (0, 100, STATUS_OK)
    with pytest.raises(MalformedReading, match="bpm 32767"):
        next(readings)
    r = bytearray(good)
    r[10] = 9
    readings = reading_decode(bytes(r) + good)
    with pytest.raises(MalformedReading, match="unknown status 9"):
        next(readings)


def reference_decode(payload: bytes) -> tuple[list, int | None]:
    """The readings of `payload` sliced 11 bytes at a time and checked one
    by one: (the good readings before the first bad one, the index of the
    bad one or None)."""
    good = []
    for i in range(0, len(payload), 11):
        ts, bpm, status = struct.unpack(">QHB", payload[i : i + 11])
        if bpm > BPM_MAX or status not in (STATUS_OK, STATUS_OFF_BODY, STATUS_LOW_CONFIDENCE):
            return good, i // 11
        good.append((ts, bpm, status))
    return good, None


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                              st.integers(min_value=0, max_value=BPM_MAX),
                              st.sampled_from([STATUS_OK, STATUS_OFF_BODY,
                                               STATUS_LOW_CONFIDENCE])),
                    min_size=1, max_size=64),
    faults=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.sampled_from(["bpm", "status"])), max_size=3),
    bad_bpm=st.integers(min_value=BPM_MAX + 1, max_value=2**16 - 1),
    bad_status=st.integers(min_value=3, max_value=255),
)
def test_decode_matches_a_reading_by_reading_reference(fields, faults, bad_bpm, bad_status):
    # good readings with a few bad bpm or status values sprinkled in
    for i, field in faults:
        ts, bpm, status = fields[i % len(fields)]
        fields[i % len(fields)] = ((ts, bad_bpm, status) if field == "bpm"
                                   else (ts, bpm, bad_status))
    payload = b"".join(struct.pack(">QHB", *f) for f in fields)
    want, bad = reference_decode(payload)
    got = []
    readings = reading_decode(payload)
    if bad is None:
        got.extend(readings)
    else:
        with pytest.raises(MalformedReading, match="bpm|status"):
            for r in readings:
                got.append(r)
    assert got == want


@pytest.mark.parametrize("length", [0, 10, 12, 19, 705])
def test_decode_refuses_a_payload_of_no_whole_count_of_readings_at_the_call(length):
    with pytest.raises(MalformedReading, match=f"payload length {length}"):
        reading_decode(b"\x00" * length)


def test_encode_rejects_out_of_range():
    with pytest.raises(MalformedReading):
        reading_encode(HeartRateReading(0, 301))


# --- sensor ---------------------------------------------------------------


def test_degenerate_sensor_is_constant():
    sim = SensorSim(seed=1, baseline=75, amplitude=0, sigma=0)
    assert [sim.next_reading(i * 1000).bpm for i in range(20)] == [75] * 20


def test_fixed_seed_reproduces_sequence():
    a = SensorSim(seed=42)
    b = SensorSim(seed=42)
    sa = [a.next_reading(i * 500).bpm for i in range(100)]
    sb = [b.next_reading(i * 500).bpm for i in range(100)]
    assert sa == sb
    c = SensorSim(seed=43)
    assert sa != [c.next_reading(i * 500).bpm for i in range(100)]


def test_script_override_window():
    sim = SensorSim(seed=1, script=[ScriptSegment(50, 60, 180)])
    bpms = [sim.next_reading(i * 1000).bpm for i in range(70)]
    assert all(b == 180 for b in bpms[50:61])
    assert all(b != 180 for b in bpms[:50])


def test_output_clamped_to_sensor_range():
    sim = SensorSim(seed=9, baseline=300, amplitude=0, sigma=50)
    assert all(sim.next_reading(i).bpm <= 220 for i in range(100))
    sim = SensorSim(seed=9, baseline=0, amplitude=0, sigma=50)
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
        a = det.check((i * 1000, bpm, status))  # a plain tuple, as the server passes
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
    alert = AnomalyDetector(AnomalyConfig(consecutive=1)).check(HeartRateReading(5, 200))
    assert alert is not None and alert.observed_bpm == (200,) and alert.rule == "high_hr"


@pytest.mark.parametrize("low,high", [(150, 40), (75, 75), (-1, 150), (40, BPM_MAX + 1)])
def test_an_anomaly_config_needs_thresholds_in_order_within_the_bpm_range(low, high):
    with pytest.raises(ValueError, match="0 <= low < high"):
        AnomalyConfig(low=low, high=high)
    # the widest band there is still checks every reading
    detector = AnomalyDetector(AnomalyConfig(low=0, high=BPM_MAX, consecutive=1))
    assert detector.check(HeartRateReading(5, BPM_MAX)) is None
