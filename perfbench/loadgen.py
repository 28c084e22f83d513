"""Load generator: seeded inputs, selectors-driven clients and reply checks.

Runs in the benchmark's own process, never in the system process, so the
client and the system it measures do not share an interpreter lock.  Every
reply is checked: ``200`` with ``Hello World!`` for HTTP, byte-identical
echo for ``echo_pingpong`` and a sha256 over the whole echo for
``echo_bulk``.
"""

from __future__ import annotations

import hashlib
import math
import random
import selectors
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

HOST = "127.0.0.1"
HELLO_BODY = b"Hello World!"
HTTP_REQUEST = b"GET /hello HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
OP_TIMEOUT_S = 5.0
BULK_TIMEOUT_S = 60.0

clock = time.perf_counter


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` percent at or below it.

    Kept apart from ``emunet.bench`` so that the benchmark's arithmetic does
    not change when the program it measures does.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def trimmed_mean(values: list[float], trim: float = 0.2) -> float:
    """Mean without the lowest and highest ``trim`` share of the values.

    Used across a run's windows.  The CPU speed of a shared machine flips
    between levels within seconds: a median over windows jumps with it, a
    mean moves in proportion to the time spent at each level, and trimming
    drops the windows a stall hit.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def poisson_schedule(seed: int, rate: float, streams: int, duration: float) -> list[tuple[float, int]]:
    """Seeded open-loop arrivals: ``(offset_s, stream)`` pairs sorted by offset.

    Each stream is an independent Poisson process of ``rate`` per second, so
    the streams do not start in lockstep.
    """
    rng = random.Random(seed)
    arrivals = []
    for stream in range(streams):
        t = rng.expovariate(rate)
        while t < duration:
            arrivals.append((t, stream))
            t += rng.expovariate(rate)
    arrivals.sort()
    return arrivals


def check_http_response(raw: bytes) -> bool:
    """True for a complete ``200`` reply whose body is exactly ``Hello World!``."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        return False
    lines = head.split(b"\r\n")
    status = lines[0].split(b" ", 2)
    if len(status) < 2 or not status[0].startswith(b"HTTP/1.") or status[1] != b"200":
        return False
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return False
    return length == len(HELLO_BODY) and body == HELLO_BODY


@dataclass
class Result:
    """Outcome of one client run.  ``latencies_s`` holds successful operations only."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # replies that arrived but did not match what was sent
    latencies_s: list[float] = field(default_factory=list)
    lags_s: list[float] = field(default_factory=list)
    payload_bytes: int = 0
    elapsed_s: float = 0.0


# -- http_open --------------------------------------------------------------


class _HttpRequest:
    __slots__ = ("due", "sock", "to_send", "buf")

    def __init__(self, due: float, sock: socket.socket):
        self.due = due
        self.sock = sock
        self.to_send = HTTP_REQUEST
        self.buf = bytearray()


def run_http_open(
    ports: list[int], schedule: list[tuple[float, int]], max_inflight: int
) -> Result:
    """Open loop: one new connection per ``GET /hello``, sent at its due time.

    At most ``max_inflight`` connections are open at once; a request that
    waits for a free slot keeps its due time, so the wait counts in its
    latency.  Lag is how late each request was actually sent.
    """
    result = Result(attempted=len(schedule))
    # select() takes a microsecond timeout; epoll and poll round up to whole
    # milliseconds, which would make every send up to 1 ms late.
    sel = selectors.SelectSelector()
    inflight: dict[socket.socket, _HttpRequest] = {}
    waiting: deque[tuple[float, int]] = deque()
    start = clock() + 0.01
    nxt = 0

    def finish(req: _HttpRequest, ok: bool, now: float, wrong: bool = False) -> None:
        sel.unregister(req.sock)
        req.sock.close()
        del inflight[req.sock]
        if ok:
            result.latencies_s.append(now - req.due)
            result.payload_bytes += len(HELLO_BODY)
        else:
            result.failed += 1
            result.wrong += wrong

    try:
        while nxt < len(schedule) or waiting or inflight:
            now = clock()
            while nxt < len(schedule) and start + schedule[nxt][0] <= now:
                waiting.append(schedule[nxt])
                nxt += 1
            while waiting and len(inflight) < max_inflight:
                offset, stream = waiting.popleft()
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                sock.connect_ex((HOST, ports[stream]))
                req = _HttpRequest(start + offset, sock)
                inflight[sock] = req
                sel.register(sock, selectors.EVENT_WRITE, req)
                result.lags_s.append(clock() - req.due)
            for req in [r for r in inflight.values() if now - r.due > OP_TIMEOUT_S]:
                finish(req, False, now)
            if nxt < len(schedule):
                timeout = max(0.0, start + schedule[nxt][0] - clock())
            else:
                timeout = 0.05
            for key, _mask in sel.select(min(timeout, 0.05)):
                _http_event(key.data, sel, finish)
    finally:
        for req in list(inflight.values()):
            finish(req, False, clock())
        sel.close()
    result.elapsed_s = clock() - start
    return result


def _http_event(req: _HttpRequest, sel: selectors.BaseSelector, finish) -> None:
    sock = req.sock
    if req.to_send:
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            finish(req, False, clock())
            return
        try:
            sent = sock.send(req.to_send)
        except OSError:
            finish(req, False, clock())
            return
        req.to_send = req.to_send[sent:]
        if not req.to_send:
            sel.modify(sock, selectors.EVENT_READ, req)
        return
    try:
        data = sock.recv(4096)
    except BlockingIOError:
        return
    except OSError:
        finish(req, False, clock())
        return
    if data:
        req.buf += data
        return
    ok = check_http_response(bytes(req.buf))
    finish(req, ok, clock(), wrong=not ok)


# -- echo -------------------------------------------------------------------


def connect(port: int) -> socket.socket:
    sock = socket.create_connection((HOST, port), timeout=OP_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def _recv_into(sock: socket.socket, sel: selectors.BaseSelector, buf: bytearray, want: int, deadline: float) -> bool:
    """Read until ``buf`` holds ``want`` bytes; False on EOF, reset or timeout."""
    while len(buf) < want:
        remaining = deadline - clock()
        if remaining <= 0 or not sel.select(remaining):
            return False
        try:
            data = sock.recv(want - len(buf))
        except BlockingIOError:
            continue
        except OSError:
            return False
        if not data:
            return False
        buf += data
    return True


def pingpong_messages(seed: int, count: int = 4096, size: int = 64) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(count)]


def run_echo_pingpong(sock: socket.socket, messages: list[bytes], seconds: float) -> Result:
    """Closed loop on a connection from ``connect``: send one message, read its echo.

    Stops at the first failure; the connection is then of no further use.
    """
    result = Result()
    start = clock()
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    stop = start + seconds
    try:
        i = 0
        while clock() < stop:
            msg = messages[i % len(messages)]
            i += 1
            result.attempted += 1
            buf = bytearray()
            sent_at = clock()
            try:
                sock.sendall(msg)
            except OSError:
                result.failed += 1
                break
            if not _recv_into(sock, sel, buf, len(msg), sent_at + OP_TIMEOUT_S):
                result.failed += 1
                break
            now = clock()
            if buf == msg:
                result.latencies_s.append(now - sent_at)
                result.payload_bytes += len(msg)
            else:
                result.failed += 1
                result.wrong += 1
                break
    finally:
        sel.close()
    result.elapsed_s = clock() - start
    return result


def bulk_payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def run_echo_bulk(port: int, payload: bytes, chunk: int, seconds: float) -> Result:
    """Back-to-back transfers of ``payload``, each on a new connection.

    Each transfer is sent and read concurrently, half-closed after the last
    byte, and checked by sha256 once the echo reaches EOF.  One operation is
    one ``chunk`` of the payload; its latency runs from the moment its last
    byte was accepted by the socket until the same byte of the echo is read.
    """
    result = Result()
    expected = hashlib.sha256(payload).digest()
    start = clock()
    while True:
        ok, latencies = _bulk_transfer(port, payload, chunk, expected)
        chunks = len(latencies) if ok else -(-len(payload) // chunk)
        result.attempted += chunks
        if ok:
            result.latencies_s.extend(latencies)
            result.payload_bytes += len(payload)
        else:
            result.failed += chunks
            result.wrong += ok is None
            break
        if clock() - start >= seconds:
            break
    result.elapsed_s = clock() - start
    return result


def _bulk_transfer(port: int, payload: bytes, chunk: int, expected: bytes):
    """Returns ``(True, latencies)``, ``(None, [])`` on a wrong echo, ``(False, [])`` on a failure."""
    try:
        sock = connect(port)
    except OSError:
        return False, []
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
    view = memoryview(payload)
    digest = hashlib.sha256()
    sent = received = 0
    sent_at: list[float] = []
    latencies: list[float] = []
    deadline = clock() + BULK_TIMEOUT_S
    try:
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                return False, []
            for _key, mask in sel.select(remaining):
                if mask & selectors.EVENT_WRITE:
                    try:
                        n = sock.send(view[sent:sent + 65536])
                    except BlockingIOError:
                        n = 0
                    except OSError:
                        return False, []
                    sent += n
                    now = clock()
                    while len(sent_at) < sent // chunk:
                        sent_at.append(now)
                    if sent == len(payload):
                        if len(payload) % chunk:
                            sent_at.append(now)
                        try:
                            sock.shutdown(socket.SHUT_WR)
                        except OSError:
                            return False, []
                        sel.modify(sock, selectors.EVENT_READ)
                if mask & selectors.EVENT_READ:
                    try:
                        data = sock.recv(262144)
                    except BlockingIOError:
                        continue
                    except OSError:
                        return False, []
                    if not data:
                        ok = received == len(payload) and digest.digest() == expected
                        return (True, latencies) if ok else (None, [])
                    digest.update(data)
                    received += len(data)
                    now = clock()
                    done = min(received, len(payload))
                    while len(latencies) < done // chunk or (
                        done == len(payload) and len(latencies) < len(sent_at)
                    ):
                        latencies.append(now - sent_at[len(latencies)])
    finally:
        sel.close()
        sock.close()
