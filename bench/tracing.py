"""Span recording around the public functions of each vitalink module.

`install` wraps functions and methods in place, in the defining module and
wherever `vitalink.endpoints` bound them by name at import, and returns a
function that puts the originals back. Each wrapped call records a span:
its name, the span that caused it, and its start and end on two clocks:
the wall clock and the thread's CPU clock. Spans of one session share an
id, assigned when a span opens on a thread with no open span. Spans stay
in memory, in one buffer per thread, until `Tracer.dump` pickles them.

`layer_metrics` turns the spans of one side into the per-layer metrics.
They use CPU time, which leaves out waits for the GIL or the peer, except
the two waits that are the point: `frame_read` and `frame_write`.
"""

from __future__ import annotations

import itertools
import pickle
import statistics
import threading
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, thread_time

MODULES = ("curves", "credentials", "handshake", "kdf", "gcm", "records",
           "telemetry", "endpoints")
SESSION_ROOT = {"server": "endpoints.handle", "device": "endpoints.run_device"}
# Data records only: Close records carry no reading and fewer blocks.
DATA_RECORD = {"server": "records.record_open", "device": "records.record_seal"}
_FIELDS = (("name", "i"), ("sid", "q"), ("parent", "q"), ("start", "d"), ("end", "d"),
           ("cpu_start", "d"), ("cpu_end", "d"))


class _Buffer:
    """One thread's spans; parents always precede their children."""

    def __init__(self, sids):
        self.sids = sids
        self.cols = {f: array(code) for f, code in _FIELDS}
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name_idx: int) -> int:
        c = self.cols
        i = len(c["start"])
        if self.stack:
            parent = self.stack[-1]
            sid = c["sid"][parent]
        else:
            parent = -1
            sid = next(self.sids)
        c["name"].append(name_idx)
        c["sid"].append(sid)
        c["parent"].append(parent)
        c["end"].append(0.0)
        c["cpu_end"].append(0.0)
        self.stack.append(i)
        c["start"].append(perf_counter())
        c["cpu_start"].append(thread_time())
        return i

    def close(self, i: int) -> None:
        c = self.cols
        c["cpu_end"][i] = thread_time()
        c["end"][i] = perf_counter()
        self.stack.pop()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._sids = itertools.count(1)

    def name_index(self, name: str) -> int:
        with self._lock:
            if name not in self._index:
                self._index[name] = len(self.names)
                self.names.append(name)
            return self._index[name]

    def buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer(self._sids)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
            return buf

    def count(self, key: str, n: int = 1) -> None:
        self.buffer().counts[key] += n

    def wrap(self, fn, name):
        """`name` is a span name, or a function of the call's positional
        arguments that returns one."""
        fixed = self.name_index(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            idx = fixed if fixed is not None else self.name_index(name(args))
            buf = self.buffer()
            i = buf.open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                buf.close(i)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> "Spans":
        with self._lock:
            buffers = list(self._buffers)
        cols = {f: array(code) for f, code in _FIELDS}
        counts: Counter = Counter()
        for buf in buffers:
            offset = len(cols["start"])
            for f, _ in _FIELDS:
                if f == "parent":
                    cols[f].extend(p + offset if p >= 0 else -1 for p in buf.cols[f])
                else:
                    cols[f].extend(buf.cols[f])
            counts.update(buf.counts)
        return Spans(list(self.names), cols, dict(counts))

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            pickle.dump(self.spans(), fh)


@dataclass
class Spans:
    names: list
    cols: dict
    counts: dict


def install(tracer: Tracer):
    """Wraps every measured vitalink function; returns the undo function."""
    from vitalink import credentials, curves, endpoints, gcm, handshake, kdf, records, telemetry

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_fn(module, attr, name, also=()):
        wrapper = tracer.wrap(getattr(module, attr), name)
        for owner in (module, *also):
            patch(owner, attr, wrapper)

    patch_fn(curves, "scalar_mul", lambda a: "curves.scalar_mul_fixed"
             if a[1] == a[2].G else "curves.scalar_mul_var")

    for fn in ("schnorr_sign", "schnorr_verify"):
        patch_fn(credentials, fn, "credentials." + fn)
    verify = tracer.wrap(credentials.credential_verify, "credentials.credential_verify")

    def credential_verify(*args, **kwargs):
        reason = verify(*args, **kwargs)
        if reason is not None:
            tracer.count("credentials.credential_verify.rejects." + reason)
        return reason

    patch(credentials, "credential_verify", credential_verify)

    for cls, methods in ((handshake.ClientHandshake, ("start", "finish")),
                         (handshake.ServerHandshake, ("respond", "complete"))):
        for m in methods:
            patch(cls, m, tracer.wrap(getattr(cls, m), "handshake." + m))

    patch_fn(kdf, "hkdf_expand", "kdf.hkdf_expand")

    patch_fn(gcm, "seal", "gcm.seal")
    patch_fn(gcm, "open_", "gcm.open_")
    patch_fn(gcm, "gf128_mul", "gcm.gf128_mul")
    patch(gcm.Aes128, "__init__", tracer.wrap(gcm.Aes128.__init__, "gcm.Aes128"))
    patch(gcm.Aes128, "encrypt_block",
          tracer.wrap(gcm.Aes128.encrypt_block, "gcm.encrypt_block"))

    def record_name(fn, frame_type):
        return "records." + fn + ("" if frame_type == records.TYPE_DATA else ".close")

    patch_fn(records, "record_seal", lambda a: record_name("record_seal", a[1]),
             also=(endpoints,))
    patch_fn(records, "record_open", lambda a: record_name("record_open", a[1].frame_type),
             also=(endpoints,))
    patch_fn(records, "frame_read", "records.frame_read", also=(endpoints,))
    write = tracer.wrap(records.frame_write, lambda a: "records.frame_write" + (
        "" if a[1].frame_type == records.TYPE_DATA else ".control"))

    def frame_write(sock, frame):
        write(sock, frame)
        if frame.frame_type == records.TYPE_DATA:
            tracer.count("records.data_frames")
            tracer.count("records.wire_bytes", len(frame.encode()))

    for owner in (records, endpoints):
        patch(owner, "frame_write", frame_write)

    patch_fn(telemetry, "reading_decode", "telemetry.reading_decode", also=(endpoints,))
    patch_fn(telemetry, "reading_encode", "telemetry.reading_encode", also=(endpoints,))
    patch(telemetry.AnomalyDetector, "check",
          tracer.wrap(telemetry.AnomalyDetector.check, "telemetry.detector_check"))
    patch(telemetry.SensorSim, "next_reading",
          tracer.wrap(telemetry.SensorSim.next_reading, "telemetry.sensor_next"))

    patch_fn(endpoints, "load_identity", "endpoints.load_identity")
    patch_fn(endpoints, "run_device", "endpoints.run_device")
    patch(endpoints.Store, "append_reading",
          tracer.wrap(endpoints.Store.append_reading, "endpoints.store_append_reading"))
    patch(endpoints.Store, "append_alert",
          tracer.wrap(endpoints.Store.append_alert, "endpoints.store_append_alert"))
    patch(endpoints.IngestionServer, "_handle",
          tracer.wrap(endpoints.IngestionServer._handle, "endpoints.handle"))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------------
# per-layer metrics


def _p50_us(values):
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(spans: Spans, side: str, skip_sessions: int) -> tuple[dict, dict]:
    """Per-layer metrics of one side, over all sessions but the first
    `skip_sessions` (the warm-up). Returns (metrics, extra counts)."""
    c = spans.cols
    names = [spans.names[i] for i in c["name"]]
    n = len(names)
    roots = sorted((c["start"][i], c["sid"][i]) for i in range(n)
                   if c["parent"][i] < 0 and names[i] == SESSION_ROOT[side])
    keep = {sid for _, sid in roots[skip_sessions:]}
    sessions = len(keep)

    dur = [c["cpu_end"][i] - c["cpu_start"][i] for i in range(n)]
    child = [0.0] * n
    record = [-1] * n  # the Data record span each span runs under
    data_record = DATA_RECORD[side]
    for i in range(n):
        p = c["parent"][i]
        if p >= 0:
            child[p] += dur[i]
        record[i] = i if names[i] == data_record else (record[p] if p >= 0 else -1)

    durs: dict[str, list] = {}
    waits: Counter = Counter()  # wall time of the spans that measure waiting
    selfs: dict[str, list] = {}
    in_record: Counter = Counter()
    module_self: Counter = Counter()
    for i in range(n):
        if c["sid"][i] not in keep:
            continue
        name = names[i]
        durs.setdefault(name, []).append(dur[i])
        if name in ("records.frame_read", "records.frame_write"):
            waits[name] += c["end"][i] - c["start"][i]
        self_time = dur[i] - child[i]
        selfs.setdefault(name, []).append(self_time)
        module_self[name.split(".", 1)[0]] += self_time
        if record[i] >= 0:
            in_record[name] += 1

    def calls(name):
        return len(durs.get(name, ()))

    n_records = calls(data_record)
    per_session = 1.0 / sessions if sessions else 0.0
    per_record = 1.0 / n_records if n_records else 0.0
    m = {}

    def put(fn, stat, value):
        m[f"{side}.{fn}.{stat}"] = value

    for fn in ("scalar_mul_fixed", "scalar_mul_var"):
        name = "curves." + fn
        put(name, "calls_per_session", calls(name) * per_session)
        put(name, "us_p50", _p50_us(durs.get(name)))
        put(name, "ms_per_session", sum(durs.get(name, ())) * 1e3 * per_session)
    for fn in ("schnorr_sign", "schnorr_verify"):
        name = "credentials." + fn
        put(name, "calls_per_session", calls(name) * per_session)
        put(name, "us_p50", _p50_us(durs.get(name)))
    for fn in (("respond", "complete") if side == "server" else ("start", "finish")):
        name = "handshake." + fn
        put(name, "ms_p50", _p50_us(durs.get(name)) / 1e3)
        put(name, "self_ms_p50", _p50_us(selfs.get(name)) / 1e3)
    put("kdf.hkdf_expand", "calls_per_session", calls("kdf.hkdf_expand") * per_session)
    put("kdf.hkdf_expand", "ms_per_session",
        sum(durs.get("kdf.hkdf_expand", ())) * 1e3 * per_session)
    for name in ("gcm.Aes128", "gcm.encrypt_block", "gcm.gf128_mul"):
        stat = "inits_per_record" if name == "gcm.Aes128" else "calls_per_record"
        put(name, stat, in_record[name] * per_record)
    for mod in MODULES:
        put(mod, "self_ms_per_session", module_self[mod] * 1e3 * per_session)

    if side == "server":
        put("gcm.open_", "us_p50", _p50_us(durs.get("gcm.open_")))
        for name in ("gcm.Aes128", "gcm.encrypt_block", "gcm.gf128_mul"):
            put(name, "us_p50", _p50_us(durs.get(name)))
        put("records.record_open", "self_us_p50", _p50_us(selfs.get("records.record_open")))
        put("records.frame_read", "wait_ms_per_reading",
            waits["records.frame_read"] * 1e3 * per_record)
        put("telemetry.reading_decode", "us_p50", _p50_us(durs.get("telemetry.reading_decode")))
        put("telemetry.detector_check", "us_p50", _p50_us(durs.get("telemetry.detector_check")))
        put("endpoints.store_append_reading", "us_p50",
            _p50_us(durs.get("endpoints.store_append_reading")))
        put("endpoints.store_append_reading", "calls", calls("endpoints.store_append_reading"))
    else:
        put("gcm.seal", "us_p50", _p50_us(durs.get("gcm.seal")))
        put("records.record_seal", "self_us_p50", _p50_us(selfs.get("records.record_seal")))
        put("records.frame_write", "blocked_ms", waits["records.frame_write"] * 1e3)
        frames = spans.counts.get("records.data_frames", 0)
        m["device.records.wire_bytes_per_reading"] = (
            spans.counts.get("records.wire_bytes", 0) / frames if frames else 0.0)
        put("telemetry.sensor_next", "us_p50", _p50_us(durs.get("telemetry.sensor_next")))
        put("telemetry.reading_encode", "us_p50", _p50_us(durs.get("telemetry.reading_encode")))
        put("endpoints.load_identity", "ms_p50",
            _p50_us(durs.get("endpoints.load_identity")) / 1e3)

    extra = {f"{side}.{k}": v for k, v in spans.counts.items() if ".rejects." in k}
    extra[f"{side}.sessions"] = sessions
    if side == "server":
        extra["server.telemetry.alerts"] = calls("endpoints.store_append_alert")
        extra["server.endpoints.store_append_alert.calls"] = calls("endpoints.store_append_alert")
    return m, extra
