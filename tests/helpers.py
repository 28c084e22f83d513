"""Shared test utilities."""

from __future__ import annotations

import socket
import threading
import time

from emunet.guest import GuestConfig
from emunet.harness import Instance, pump
from emunet.usernet import ForwardRule, NicConfig, UserNetStack


def wait_for(predicate, timeout: float = 5.0, interval: float = 0.002) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def ipv4_with_flags(raw: bytes, flags_offset: int) -> bytes:
    """An encoded IPv4 packet with its flags and fragment offset field
    replaced, and its header checksum made valid again."""
    from emunet.wire import ipv4_checksum

    header = bytearray(raw[:20])
    header[6:8] = flags_offset.to_bytes(2, "big")
    header[10:12] = b"\x00\x00"
    header[10:12] = ipv4_checksum(bytes(header)).to_bytes(2, "big")
    return bytes(header) + raw[20:]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class LogCollector:
    """Thread-safe guest stdout capture."""

    def __init__(self):
        self.lines: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, line: str) -> None:
        with self._lock:
            self.lines.append(line)

    def matching(self, needle: str) -> list[str]:
        with self._lock:
            return [line for line in self.lines if needle in line]


class ManualLoop:
    """Event loop stand-in for single-threaded unit tests."""

    def __init__(self):
        self.posted = []
        self.timers = []

    def post(self, fn) -> None:
        self.posted.append(fn)

    def call_later(self, delay, fn):
        from emunet.eventloop import Timer

        timer = Timer(delay, fn)
        self.timers.append(timer)
        return timer

    def watch(self, sock, events, fn=None) -> None:
        pass  # no selector: tests drive socket events by hand

    def run_pending(self) -> int:
        count = 0
        while self.posted:
            self.posted.pop(0)()
            count += 1
        return count

    def fire_timers(self) -> int:
        timers, self.timers = self.timers, []
        count = 0
        for timer in timers:
            if not timer.cancelled:
                timer.fn()
                count += 1
        return count


class SyncPair:
    """Guest + device + NAT stack pumped synchronously on the test thread.

    No event loop threads and no host sockets: suitable for deterministic
    protocol-level tests.  Frames the guest transmits are both recorded and
    handed to the NAT stack.
    """

    def __init__(self, mode: str = "http", trace=None, forwards=None):
        from emunet.device import GuestMemory, MacDevice
        from emunet.guest import GuestConfig, GuestStack
        from emunet.wire import decode_frame

        self.loop = ManualLoop()
        self.log = LogCollector()
        self.guest_tx: list = []  # decoded frames out of the guest
        self.guest_tx_raw: list[bytes] = []
        self.usernet_tx: list = []  # frames the NAT stack sent toward the guest
        self.memory = GuestMemory()
        self.device = MacDevice(self.memory, backend_send=self._from_guest, trace=trace)
        self.usernet = UserNetStack(
            NicConfig(model="open_eth", id="sync", forwards=forwards or []), self.loop
        )
        self.usernet.poll_frames_out = self._poll_and_record
        self.guest = GuestStack(self.device, self.memory, GuestConfig(mode=mode), log=self.log)
        self._decode_frame = decode_frame

    def _from_guest(self, raw: bytes) -> None:
        frame = self._decode_frame(raw)
        self.guest_tx_raw.append(raw)
        self.guest_tx.append(frame)
        self.usernet.guest_frame_in(frame)

    def _poll_and_record(self) -> list:
        frames = UserNetStack.poll_frames_out(self.usernet)
        self.usernet_tx.extend(frames)
        return frames

    def pump(self) -> None:
        pump(self.usernet, self.device, self.guest)

    def boot(self) -> None:
        self.device.reset()
        self.guest.start()
        self.pump()

    def inject(self, frame) -> None:
        """Deliver one frame toward the guest and pump to quiescence."""
        self.device.receive(frame)
        self.pump()


def make_instance(
    mode: str = "http",
    host_port: int | None = None,
    guest_port: int = 80,
    trace=None,
    forwards: list[ForwardRule] | None = None,
    name: str = "test0",
    mac: str = "52:54:00:12:34:56",
) -> tuple[Instance, LogCollector, int]:
    """Build (but do not start) a full instance with one TCP forward."""
    if forwards is None:
        port = host_port if host_port is not None else free_port()
        forwards = [ForwardRule("tcp", "", port, "", guest_port)]
    else:
        port = forwards[0].host_port if forwards else 0
    log = LogCollector()
    nic = NicConfig(model="open_eth", id=name, forwards=forwards)
    instance = Instance(
        GuestConfig(mode=mode, http_port=guest_port, mac=mac), nic, trace=trace, log=log, name=name
    )
    return instance, log, port


def http_get(port: int, path: str = "/hello", timeout: float = 5.0) -> tuple[int, bytes]:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()
