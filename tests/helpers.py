"""Shared test utilities.

Protocol tests run the real code on the test thread: an unstarted
``Instance`` (or a NAT stack alone) whose real ``EventLoop`` reads a
``VirtualClock``.  ``step`` runs one pass of the loop; ``advance`` moves the
clock and runs each timer at its deadline.  No test double stands in for
the loop, the device, the guest or the NAT.
"""

from __future__ import annotations

import socket
import threading
import time

from emunet.eventloop import EventLoop
from emunet.guest import GuestConfig
from emunet.harness import Instance
from emunet.usernet import ForwardRule, NicConfig, UserNetStack
from reference import EthernetFrame, decode_frame, encode_frame, ones_complement_checksum


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
    header = bytearray(raw[:20])
    header[6:8] = flags_offset.to_bytes(2, "big")
    header[10:12] = b"\x00\x00"
    header[10:12] = ones_complement_checksum(bytes(header)).to_bytes(2, "big")
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


class VirtualClock:
    """A loop's clock that moves only when ``advance`` moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def stepped_loop(idle_hook) -> EventLoop:
    """A real, unstarted EventLoop on a VirtualClock, stepped by ``step``."""
    loop = EventLoop(idle_hook)
    loop.time = VirtualClock()
    return loop


def step(loop: EventLoop, fn=None) -> None:
    """Post ``fn``, if any, and run one pass of the loop without waiting;
    a callback that raises fails the test."""
    errors = loop.errors
    if fn is not None:
        loop.post(fn)
    loop.run_once(0)
    assert loop.errors == errors, "a callback on the loop raised"


def advance(loop: EventLoop, seconds: float) -> None:
    """Move the loop's virtual clock on by ``seconds``, stepping the loop at
    each timer's deadline in turn, as QEMU's qtest ``clock_step`` does."""
    clock = loop.time
    end = clock.now + seconds
    while loop._timers and loop._timers[0].deadline <= end:
        clock.now = max(clock.now, loop._timers[0].deadline)
        step(loop)
    clock.now = end
    step(loop)


def timers(loop: EventLoop) -> list:
    """The timers a loop holds that are not cancelled, soonest first."""
    return sorted(timer for timer in loop._timers if not timer.cancelled)


def frames_out(stack: UserNetStack) -> list[EthernetFrame]:
    """Drain the frames a NAT stack queued toward the guest, decoded by the
    oracle in ``reference.py``."""
    return [decode_frame(raw) for raw in stack.poll_frames_out()]


def nat_stack(forwards=None) -> UserNetStack:
    """A NAT stack alone on a stepped loop.  Its idle hook is the NAT's half
    of the instance's settle pass, so frames toward the guest wait in the
    stack for ``poll_frames_out``."""
    stack = UserNetStack(
        NicConfig(model="open_eth", id="t0", forwards=forwards or []),
        stepped_loop(lambda: stack.send_to_host()),
    )
    return stack


def stepped_instance(mode: str = "http", trace=None) -> Instance:
    """An unstarted Instance on a virtual clock, run on the test thread by
    ``boot``, ``inject``, ``step`` and ``advance``.

    It records, as attributes: ``log``, the guest's stdout; ``guest_tx`` and
    ``guest_tx_raw``, the frames the guest transmitted, decoded (by the
    oracle in ``reference.py``) and raw; and ``usernet_tx`` and
    ``usernet_tx_raw``, the frames the NAT stack sent toward the guest,
    decoded and raw.
    """
    instance, log, _port = make_instance(mode=mode, trace=trace, forwards=[])
    instance.log = log
    instance.loop.time = VirtualClock()
    instance.guest_tx, instance.guest_tx_raw = [], []
    instance.usernet_tx, instance.usernet_tx_raw = [], []
    to_nat, poll = instance.device.backend_send, instance.usernet.poll_frames_out

    def from_guest(raw: bytes) -> None:
        instance.guest_tx_raw.append(raw)
        instance.guest_tx.append(decode_frame(raw))
        to_nat(raw)

    def poll_and_record() -> list:
        frames = poll()
        instance.usernet_tx_raw.extend(frames)
        instance.usernet_tx.extend(decode_frame(raw) for raw in frames)
        return frames

    instance.device.backend_send = from_guest
    instance.usernet.poll_frames_out = poll_and_record
    return instance


def boot(instance: Instance) -> None:
    step(instance.loop, instance._boot)


def get_hello(instance: Instance) -> None:
    """One ``GET /hello`` from a host socket to a stepped http instance, over
    a NAT flow opened toward the guest, run until both ends are closed."""
    from emunet.usernet import NatFlow

    guest_ip, gateway_ip = instance.guest.ip, instance.usernet.subnet.gateway_ip
    near, far = socket.socketpair()
    near.setblocking(False)
    stack = instance.usernet
    flow = NatFlow(stack, guest_ip, 80, gateway_ip, stack._next_eph_port(guest_ip, 80))
    stack._flows[flow.key] = flow
    far.sendall(b"GET /hello HTTP/1.1\r\nHost: guest\r\n\r\n")
    step(instance.loop, lambda: flow.start_inbound(near))
    far.setblocking(False)
    reply, shut = bytearray(), False
    for _ in range(100):
        if flow.state == "closed" and not instance.guest.conns:
            break
        step(instance.loop)
        try:
            chunk = far.recv(65536)
        except BlockingIOError:
            continue
        reply += chunk
        if not chunk and not shut:  # the host closes its end once the reply is in
            far.shutdown(socket.SHUT_WR)
            shut = True
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n") and reply.endswith(b"Hello World!")
    assert flow.state == "closed" and not instance.guest.conns
    near.close()
    far.close()


def inject(instance: Instance, frame: EthernetFrame) -> None:
    """Deliver one frame toward the guest on the loop, which pumps to quiescence."""
    raw = encode_frame(frame)
    step(instance.loop, lambda: instance.device.receive(raw))


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
