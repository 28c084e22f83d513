"""Span tracer for the traced run, and the per-layer metrics derived from it.

``install()`` wraps the entry points of each emunet layer from outside the
program: methods are replaced on their classes, and each ``wire`` codec or
checksum function is replaced in every ``emunet`` module that imported it
by name.  It must run before any instance is built, because instances bind
some of these methods (the pump, the device backend) at construction.

A span records name, start, end and parent on a per-thread stack.  Its
self time is its duration minus the durations of its child spans; spans on
one thread nest, so the children never overlap.  Totals per span name are
kept as the spans close, and the first ``_KEEP_SPANS`` spans of each thread
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

from perfbench.loadgen import percentile

# [calls, total_ns, self_ns, units, peak units of one call]
_EMPTY = (0, 0, 0, 0, 0)
_MAX_WAITS = 1_000_000
_KEEP_SPANS = 20_000  # per thread


class _ThreadSpans:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list[int]] = []  # [start, child_ns, span_id, parent_id]
        self.next_id = 0
        self.totals: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.waits = array("q")

    def close(self, name: str, frame: list[int], end: int, units: int) -> None:
        self.stack.pop()
        start, child_ns, span_id, parent_id = frame
        duration = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0, 0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        agg[3] += units
        if units > agg[4]:
            agg[4] = units
        if self.stack:
            self.stack[-1][1] += duration
        if len(self.spans) < _KEEP_SPANS:
            self.spans.append((span_id, parent_id, name, start, end))

    def reset(self) -> None:
        self.totals = {}
        self.spans = []
        self.waits = array("q")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def begin(self) -> list[int]:
        state = self._state()
        state.next_id += 1
        parent = state.stack[-1][2] if state.stack else 0
        frame = [self.clock(), 0, state.next_id, parent]
        state.stack.append(frame)
        return frame

    def end(self, name: str, frame: list[int], units: int = 0) -> None:
        self._state().close(name, frame, self.clock(), units)

    def span(self, name: str, fn, units=None):
        """Wrap ``fn`` so each call is a span; ``units(args, result)`` adds a count."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(name, frame)
                raise
            end(name, frame, units(args, result) if units is not None else 0)
            return result

        return traced

    def count(self, name: str) -> None:
        self._state().totals.setdefault(name, [0, 0, 0, 0, 0])[0] += 1

    def record_wait(self, ns: int) -> None:
        waits = self._state().waits
        if len(waits) < _MAX_WAITS:
            waits.append(ns)

    def totals(self) -> dict[str, list[int]]:
        return merge_totals(*(state.totals for state in list(self._threads)))

    def wait_summary(self) -> dict[str, float]:
        waits = [w for state in list(self._threads) for w in state.waits]
        if not waits:
            return {"count": 0, "p50": 0.0, "p99": 0.0}
        return {"count": len(waits), "p50": percentile(waits, 50), "p99": percentile(waits, 99)}

    def reset(self) -> None:
        for state in list(self._threads):
            state.reset()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for state in list(self._threads):
                for span_id, parent_id, name, start, end in state.spans:
                    out.write(json.dumps(
                        {"thread": state.index, "id": span_id, "parent": parent_id,
                         "name": name, "start_ns": start, "end_ns": end}
                    ) + "\n")


def merge_totals(*parts: dict[str, list[int]]) -> dict[str, list[int]]:
    """Sum per-name totals; the peak is the largest of the peaks."""
    merged: dict[str, list[int]] = {}
    for part in parts:
        for name, agg in list(part.items()):
            into = merged.setdefault(name, [0, 0, 0, 0, 0])
            for i in range(4):
                into[i] += agg[i]
            into[4] = max(into[4], agg[4])
    return merged


# -- patching -----------------------------------------------------------------


def _last_arg_len(args, _result) -> int:
    return len(args[-1])


def _flows_open(args, _result) -> int:
    return len(args[0]._flows)


def _data_len(args, _result) -> int:
    return len(args[1])


def _refused(_args, accepted) -> int:
    return 0 if accepted else 1


def install() -> Tracer:
    """Wrap every layer's entry points; returns the tracer that records them."""
    from emunet import device, eventloop, flashimg, guest, harness, trace, usernet, wire

    tracer = Tracer()
    emunet_modules = [m for n, m in sys.modules.items() if n == "emunet" or n.startswith("emunet.")]
    for name, fn in list(vars(wire).items()):
        if not callable(fn) or getattr(fn, "__module__", None) != wire.__name__:
            continue
        if name.startswith(("encode_", "decode_")):
            wrapped = tracer.span(f"wire.{name}", fn)
        elif name.endswith("_checksum"):
            wrapped = tracer.span(f"wire.{name}", fn, _last_arg_len)
        else:
            continue
        for module in emunet_modules:
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped)

    methods = [
        ("device", device.MacDevice, {
            "receive": _refused, "start_xmit": None, "reg_read": None, "reg_write": None,
            "desc_read": None, "desc_write": None, "mii_read": None, "mii_write": None,
            "reset": None, "update_irq": None,
        }),
        ("guest", guest.GuestStack, {"start": None, "stack_step": None}),
        ("usernet", usernet.UserNetStack, {
            "guest_frame_in": _flows_open, "poll_frames_out": None, "host_connection_in": None,
        }),
        ("usernet", usernet.NatFlow, {"host_data": _data_len, "host_eof_seen": None, "host_error": None}),
        ("harness", harness.Instance, {"_settle": None, "_frame_from_guest": None}),
        ("eventloop", eventloop.EventLoop, {"_run": None}),
        ("trace", trace.TraceConfig, {"emit": None}),
    ]
    for layer, cls, names in methods:
        for name, units in names.items():
            setattr(cls, name, tracer.span(f"{layer}.{cls.__name__}.{name}", getattr(cls, name), units))
    flashimg.boot_payload = tracer.span("flashimg.boot_payload", flashimg.boot_payload)

    _install_loop_waits(tracer, eventloop.EventLoop)
    start_thread = threading.Thread.start

    def counted_start(thread):
        tracer.count("threading.Thread.start")
        start_thread(thread)

    threading.Thread.start = counted_start
    return tracer


def _install_loop_waits(tracer: Tracer, loop_cls) -> None:
    """Record, for each callback, the time from ``post`` (or a timer's deadline) to its start."""
    post, call_later, clock = loop_cls.post, loop_cls.call_later, tracer.clock

    def timed_post(loop, fn):
        queued = clock()

        def waited():
            tracer.record_wait(clock() - queued)
            fn()

        post(loop, waited)

    def timed_call_later(loop, delay, fn):
        due = clock() + int(delay * 1e9)

        def waited():
            tracer.record_wait(max(0, clock() - due))
            fn()

        return call_later(loop, delay, waited)

    loop_cls.post = timed_post
    loop_cls.call_later = timed_call_later


# -- per-layer metrics --------------------------------------------------------


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(report: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run's windows, as ``name -> (value, unit)``."""
    layers, counters, waits = report["layers"], report["counters"], report["waits_ns"]

    def agg(name: str) -> list[int]:
        return layers.get(name, _EMPTY)

    def over(prefixes: tuple[str, ...], field: int) -> int:
        return sum(v[field] for k, v in layers.items() if k.startswith(prefixes))

    rx, tx = counters["rx_frames"], counters["tx_frames"]
    receive, frame_in, host_data = (
        agg("device.MacDevice.receive"), agg("usernet.UserNetStack.guest_frame_in"),
        agg("usernet.NatFlow.host_data"),
    )
    mmio = over(tuple(f"device.MacDevice.{n}" for n in ("reg_read", "reg_write", "desc_read", "desc_write")), 0)
    checksums = [v for k, v in layers.items() if k.startswith("wire.") and k.endswith("_checksum")]
    checksum_ns = sum(v[1] for v in checksums)
    checksum_bytes = sum(v[3] for v in checksums)
    emit = agg("trace.TraceConfig.emit")
    boot = (report.get("boot") or {}).get("flashimg.boot_payload", _EMPTY)
    return {
        "eventloop.wait_us_p50": (waits["p50"] / 1e3, "us"),
        "eventloop.wait_us_p99": (waits["p99"] / 1e3, "us"),
        "eventloop.posts_per_op": (_div(waits["count"], ops), "count/op"),
        "eventloop.callback_us_per_op": (_div(agg("eventloop.EventLoop._run")[1] / 1e3, ops), "us/op"),
        "eventloop.errors": (counters["loop_errors"], "count"),
        "harness.pump_self_us_per_op": (
            _div(over(("harness.", "eventloop."), 2) / 1e3, ops), "us/op"),
        "usernet.threads_started_per_op": (_div(agg("threading.Thread.start")[0], ops), "count/op"),
        "usernet.frame_in_us": (_div(frame_in[2] / 1e3, frame_in[0]), "us/frame"),
        "usernet.flows_peak": (frame_in[4], "count"),
        "usernet.drops": (counters["usernet_drops"], "count"),
        "usernet.host_data_us": (_div(host_data[2] / 1e3, host_data[0]), "us/call"),
        "usernet.host_bytes_per_call": (_div(host_data[3], host_data[0]), "B/call"),
        "device.receive_us": (_div(receive[2] / 1e3, receive[0]), "us/frame"),
        "device.start_xmit_us": (_div(agg("device.MacDevice.start_xmit")[2] / 1e3, tx), "us/frame"),
        "device.rx_frames_per_op": (_div(rx, ops), "count/op"),
        "device.tx_frames_per_op": (_div(tx, ops), "count/op"),
        "device.mmio_per_frame": (_div(mmio, rx + tx), "count/frame"),
        "device.rx_refused_ratio": (_div(receive[3], receive[0]), "ratio"),
        "guest.stack_step_us": (_div(agg("guest.GuestStack.stack_step")[2] / 1e3, rx), "us/frame"),
        "guest.frames_per_step": (_div(rx, agg("guest.GuestStack.stack_step")[0]), "count/step"),
        "guest.drops": (counters["guest_drops"], "count"),
        "wire.checksum_us_per_KiB": (_div(checksum_ns / 1e3, checksum_bytes / 1024), "us/KiB"),
        "wire.checksum_calls_per_op": (_div(sum(v[0] for v in checksums), ops), "count/op"),
        "wire.codec_us_per_frame": (
            _div(over(("wire.encode_", "wire.decode_"), 2) / 1e3, rx + tx), "us/frame"),
        "trace.emit_calls_per_op": (_div(emit[0], ops), "count/op"),
        "trace.emit_ns": (_div(emit[1], emit[0]), "ns"),
        "trace.format_calls": (counters["format_calls"], "count"),
        "flashimg.boot_payload_ms": (_div(boot[1] / 1e6, boot[0]), "ms"),
    }
