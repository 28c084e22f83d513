"""Tests of the benchmark's own parts: percentiles, span self time, the
arrival schedule, and the reply checks that must reject a corrupted reply."""

from __future__ import annotations

import socket
import threading

import pytest

from perfbench import loadgen
from perfbench.spans import Tracer


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(10, 0, -1)]
        assert loadgen.percentile(samples, 50) == 5.0
        assert loadgen.percentile(samples, 90) == 9.0
        assert loadgen.percentile(samples, 99) == 10.0
        assert loadgen.percentile(samples, 0) == 1.0

    def test_single_sample(self):
        assert loadgen.percentile([3.5], 50) == 3.5
        assert loadgen.percentile([3.5], 99) == 3.5

    def test_monotone_and_a_real_sample(self):
        samples = [0.4, 9.0, 2.2, 2.2, 7.5, 1.0, 3.3]
        values = [loadgen.percentile(samples, q) for q in (1, 25, 50, 75, 99, 100)]
        assert values == sorted(values)
        assert set(values) <= set(samples)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            loadgen.percentile([], 50)


class TestTrimmedMean:
    def test_drops_a_fifth_at_each_end(self):
        assert loadgen.trimmed_mean([float(v) for v in range(10, 0, -1)]) == 5.5
        assert loadgen.trimmed_mean([1.0, 2.0, 3.0, 100.0, 4.0]) == 3.0

    def test_too_few_values_to_trim(self):
        assert loadgen.trimmed_mean([2.0, 4.0]) == 3.0
        assert loadgen.trimmed_mean([7.0]) == 7.0


class _Clock:
    def __init__(self, *times: int):
        self.times = list(times)

    def __call__(self) -> int:
        return self.times.pop(0)


class TestSelfTime:
    def test_nested_spans(self):
        #  outer   0..100
        #    a    10..30
        #    b    40..60
        #      c  45..55
        tracer = Tracer(clock=_Clock(0, 10, 30, 40, 45, 55, 60, 100))
        outer = tracer.begin()
        a = tracer.begin()
        tracer.end("a", a)
        b = tracer.begin()
        c = tracer.begin()
        tracer.end("c", c)
        tracer.end("b", b)
        tracer.end("outer", outer)
        totals = tracer.totals()
        # [calls, total_ns, self_ns, units, peak]
        assert totals["outer"][:3] == [1, 100, 60]
        assert totals["a"][:3] == [1, 20, 20]
        assert totals["b"][:3] == [1, 20, 10]
        assert totals["c"][:3] == [1, 10, 10]

    def test_spans_record_their_parent(self):
        tracer = Tracer(clock=_Clock(0, 1, 2, 3))
        outer = tracer.begin()
        inner = tracer.begin()
        tracer.end("inner", inner)
        tracer.end("outer", outer)
        spans = {name: (span_id, parent) for span_id, parent, name, _s, _e in tracer._threads[0].spans}
        assert spans["outer"][1] == 0
        assert spans["inner"][1] == spans["outer"][0]

    def test_wrapped_calls_count_units_and_peak(self):
        tracer = Tracer(clock=_Clock(0, 5, 10, 12))
        wrapped = tracer.span("fn", lambda data: len(data), units=lambda args, result: result)
        assert wrapped(b"abc") == 3
        assert wrapped(b"a") == 1
        assert tracer.totals()["fn"] == [2, 7, 7, 4, 3]

    def test_exception_still_closes_the_span(self):
        tracer = Tracer(clock=_Clock(0, 4))

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.span("boom", boom)()
        assert tracer.totals()["boom"][:3] == [1, 4, 4]
        assert tracer._threads[0].stack == []

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        outer = tracer.begin()
        worker = threading.Thread(target=lambda: tracer.end("w", tracer.begin()))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        tracer.end("outer", outer)
        assert tracer.totals()["outer"][0] == 1
        assert tracer.totals()["w"][0] == 1
        assert len(tracer._threads) == 2


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        assert loadgen.poisson_schedule(7, 60.0, 4, 10.0) == loadgen.poisson_schedule(7, 60.0, 4, 10.0)

    def test_other_seed_other_schedule(self):
        assert loadgen.poisson_schedule(7, 60.0, 4, 10.0) != loadgen.poisson_schedule(8, 60.0, 4, 10.0)

    def test_shape(self):
        schedule = loadgen.poisson_schedule(3, 60.0, 4, 10.0)
        offsets = [t for t, _ in schedule]
        assert offsets == sorted(offsets)
        assert all(0 <= t < 10.0 for t in offsets)
        assert {s for _, s in schedule} == {0, 1, 2, 3}
        # 2400 expected arrivals; a Poisson count stays well within 5 sd (245)
        assert abs(len(schedule) - 2400) < 245


GOOD_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 12\r\n"
    b"Connection: close\r\n\r\nHello World!"
)


class TestHttpCheck:
    def test_accepts_the_guest_reply(self):
        assert loadgen.check_http_response(GOOD_REPLY)

    @pytest.mark.parametrize(
        "reply",
        [
            GOOD_REPLY.replace(b"Hello World!", b"Hello World?"),
            GOOD_REPLY.replace(b"200 OK", b"404 Not Found"),
            GOOD_REPLY[:-1],
            GOOD_REPLY + b"!",
            GOOD_REPLY.replace(b"Content-Length: 12\r\n", b""),
            GOOD_REPLY.replace(b"\r\n\r\n", b"\r\n"),
            b"",
        ],
    )
    def test_rejects_a_corrupted_reply(self, reply):
        assert not loadgen.check_http_response(reply)


class _Server:
    """One-connection-at-a-time loopback server running ``handle(conn)`` on a thread."""

    def __init__(self, handle, connections: int):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, args=(handle, connections))
        self.thread.start()

    def _serve(self, handle, connections: int) -> None:
        for _ in range(connections):
            conn, _peer = self.listener.accept()
            with conn:
                handle(conn)

    def close(self) -> None:
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()


def _echo(corrupt_at: int | None):
    def handle(conn: socket.socket) -> None:
        seen = 0
        while True:
            data = conn.recv(65536)
            if not data:
                return
            if corrupt_at is not None and seen <= corrupt_at < seen + len(data):
                i = corrupt_at - seen
                data = data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]
            seen += len(data)
            conn.sendall(data)

    return handle


class TestEchoChecks:
    def test_bulk_sha256_accepts_a_faithful_echo(self):
        server = _Server(_echo(None), 1)
        payload = loadgen.bulk_payload(1, 300_000)
        result = loadgen.run_echo_bulk(server.port, payload, 65536, 0.0)
        server.close()
        assert (result.failed, result.wrong) == (0, 0)
        assert len(result.latencies_s) == 5  # four whole chunks and the tail
        assert result.payload_bytes == len(payload)

    def test_bulk_sha256_rejects_one_flipped_byte(self):
        server = _Server(_echo(123_456), 1)
        result = loadgen.run_echo_bulk(server.port, loadgen.bulk_payload(1, 300_000), 65536, 0.0)
        server.close()
        assert result.wrong == 1
        assert result.failed == result.attempted == 5
        assert result.latencies_s == []

    def test_pingpong_rejects_a_corrupted_echo(self):
        server = _Server(_echo(64 * 3 + 10), 1)
        with loadgen.connect(server.port) as conn:
            result = loadgen.run_echo_pingpong(conn, loadgen.pingpong_messages(2, 8), 5.0)
        server.close()
        assert result.wrong == 1
        assert len(result.latencies_s) == 3


class TestHttpOpen:
    def _serve(self, reply: bytes, requests: int):
        def handle(conn: socket.socket) -> None:
            head = b""
            while b"\r\n\r\n" not in head:
                head += conn.recv(4096)
            conn.sendall(reply)

        return _Server(handle, requests)

    def test_counts_good_replies(self):
        server = self._serve(GOOD_REPLY, 3)
        result = loadgen.run_http_open([server.port], [(0.0, 0), (0.01, 0), (0.02, 0)], 1)
        server.close()
        assert (result.attempted, result.failed) == (3, 0)
        assert len(result.latencies_s) == len(result.lags_s) == 3

    def test_wrong_body_is_a_failure(self):
        server = self._serve(GOOD_REPLY.replace(b"World!", b"World?"), 2)
        result = loadgen.run_http_open([server.port], [(0.0, 0), (0.01, 0)], 2)
        server.close()
        assert (result.attempted, result.failed, result.wrong) == (2, 2, 2)
        assert result.latencies_s == []
