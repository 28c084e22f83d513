"""Instance integration: forwarded ports, NAT flows, isolation, determinism."""

import hashlib
import io
import random
import socket
import threading
import time

import pytest

from emunet import trace
from emunet.usernet import ForwardRule, NicConfig
from emunet.wire import ip_to_bytes
from helpers import (
    LogCollector, boot, free_port, http_get, make_instance, stepped_instance, stepped_loop, wait_for
)


@pytest.fixture
def instance_factory():
    started = []

    def make(**kwargs):
        instance, log, port = make_instance(**kwargs)
        instance.start()
        started.append(instance)
        assert wait_for(lambda: instance.guest.ip is not None, timeout=5), "guest never bound"
        return instance, log, port

    yield make
    for instance in started:
        instance.stop()
    assert all(instance.loop.errors == 0 for instance in started), "event loop swallowed exceptions"


class TestHttpForwarding:
    def test_get_hello_through_forwarded_port(self, instance_factory):
        instance, log, port = instance_factory()
        status, body = http_get(port)
        assert status == 200
        assert body == b"Hello World!"
        assert wait_for(lambda: len(log.matching("served GET /hello")) == 1)

    def test_guest_bind_log_line(self, instance_factory):
        _instance, log, _port = instance_factory()
        lines = log.matching("bound to 10.0.2.15")
        assert len(lines) == 1

    def test_two_sequential_requests_in_order(self, instance_factory):
        instance, log, port = instance_factory()
        for _ in range(2):
            status, body = http_get(port)
            assert (status, body) == (200, b"Hello World!")
        assert wait_for(lambda: len(log.matching("served GET /hello")) == 2)

    def test_404_and_405_through_the_stack(self, instance_factory):
        _instance, _log, port = instance_factory()
        status, _ = http_get(port, "/nope")
        assert status == 404
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.request("POST", "/hello", body=b"x")
        assert conn.getresponse().status == 405
        conn.close()

    def test_idle_instance_stays_alive(self, instance_factory):
        instance, log, port = instance_factory()
        time.sleep(0.3)
        assert not log.matching("served")
        status, _ = http_get(port)
        assert status == 200

    def test_explicit_guest_addr_rule(self, instance_factory):
        port = free_port()
        forwards = [ForwardRule("tcp", "", port, "10.0.2.15", 80)]
        _instance, _log, _ = instance_factory(forwards=forwards)
        status, body = http_get(port)
        assert (status, body) == (200, b"Hello World!")

    def test_listener_bound_on_all_interfaces(self, instance_factory):
        instance, _log, port = instance_factory()
        listener = instance.usernet._listeners[0]
        assert listener.getsockname()[0] == "0.0.0.0"
        status, _ = http_get(port)
        assert status == 200
        # reach it via a non-loopback local address when one exists
        try:
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            probe.connect(("203.0.113.1", 53))
            local_ip = probe.getsockname()[0]
            probe.close()
        except OSError:
            local_ip = None
        if local_ip and not local_ip.startswith("127."):
            import http.client

            conn = http.client.HTTPConnection(local_ip, port, timeout=5)
            conn.request("GET", "/hello")
            assert conn.getresponse().read() == b"Hello World!"
            conn.close()

    def test_port_already_bound_raises(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            instance, _log, _port = make_instance(host_port=port)
            with pytest.raises(OSError):
                instance.start()
        finally:
            blocker.close()


def _frames(instance) -> tuple[int, int]:
    """(frames delivered to the guest, frames the guest transmitted)."""
    return instance.device.rx_accept_count, instance.device.tx_frame_count


def _frames_when_quiet(instance, quiet_s: float = 0.1) -> tuple[int, int]:
    last = _frames(instance)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        time.sleep(quiet_s)
        now = _frames(instance)
        if now == last:
            return now
        last = now
    raise AssertionError("frames kept flowing")


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    data = bytearray()
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


class TestOneThreadPerInstance:
    def test_requests_beside_open_connections_start_no_thread(self):
        instance, _log, port = make_instance()
        instance.start()
        threads = threading.active_count()
        try:
            assert wait_for(lambda: instance.guest.ip is not None, timeout=5)
            idle = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(8)]
            assert wait_for(lambda: len(instance.usernet._flows) == 8)
            for _ in range(20):
                assert http_get(port) == (200, b"Hello World!")
                assert threading.active_count() == threads
            for sock in idle:
                sock.close()
        finally:
            instance.stop()
        assert instance.loop.errors == 0


class TestFramesPerOperation:
    """ACKs ride on data: a bare ACK only when no segment carried it."""

    def test_get_hello_is_6_frames_in_and_4_out(self, instance_factory):
        instance, _log, port = instance_factory()

        def idle():
            return not instance.usernet._flows and not instance.guest.conns

        assert http_get(port) == (200, b"Hello World!")  # warm-up: ARP and caches
        assert wait_for(idle)
        rx0, tx0 = _frames_when_quiet(instance)
        assert http_get(port) == (200, b"Hello World!")
        assert wait_for(idle)
        rx1, tx1 = _frames_when_quiet(instance)
        # in: SYN, ACK, request, ACK of reply, ACK of FIN, FIN
        # out: SYN-ACK, reply, FIN, ACK of FIN
        assert (rx1 - rx0, tx1 - tx0) == (6, 4)

    def test_echo_message_is_2_frames_in_and_1_out(self, instance_factory):
        instance, _log, port = instance_factory(mode="echo")
        client = socket.create_connection(("127.0.0.1", port), timeout=5)
        try:
            client.sendall(b"warm-up")
            assert _recv_exactly(client, 7) == b"warm-up"
            rx0, tx0 = _frames_when_quiet(instance)
            for i in range(10):
                message = bytes([i]) * 64
                client.sendall(message)
                assert _recv_exactly(client, 64) == message
            rx1, tx1 = _frames_when_quiet(instance)
        finally:
            client.close()
        # in: the message and the ACK of its echo; out: the echo, which acks
        assert (rx1 - rx0, tx1 - tx0) == (20, 10)

    def test_64k_echo_within_110_frames(self, instance_factory):
        instance, _log, port = instance_factory(mode="echo")
        payload = random.Random(0xB01C).randbytes(64 * 1024)
        client = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            client.sendall(b"warm-up")
            assert _recv_exactly(client, 7) == b"warm-up"
            rx0, tx0 = _frames_when_quiet(instance)
            sender = threading.Thread(target=client.sendall, args=(payload,))
            sender.start()
            echoed = _recv_exactly(client, len(payload))
            sender.join(timeout=10)
            rx1, tx1 = _frames_when_quiet(instance)
        finally:
            client.close()
        assert echoed == payload
        assert (rx1 - rx0) + (tx1 - tx0) <= 110


class TestRstAndTeardown:
    def test_forward_to_closed_guest_port_closes_host_connection(self, instance_factory):
        port = free_port()
        forwards = [ForwardRule("tcp", "", port, "", 4444)]  # guest listens on 80 only
        instance_factory(forwards=forwards)
        client = socket.create_connection(("127.0.0.1", port), timeout=5)
        client.settimeout(5)
        assert client.recv(4096) == b""  # guest RST propagated as close
        client.close()

    def test_host_abort_resets_flow(self, instance_factory):
        instance, _log, port = instance_factory()
        client = socket.create_connection(("127.0.0.1", port), timeout=5)
        assert wait_for(lambda: len(instance.usernet._flows) == 1)
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00")
        client.close()  # RST toward the stack
        assert wait_for(lambda: len(instance.usernet._flows) == 0)
        assert wait_for(lambda: not instance.guest.conns, timeout=5)


class TestStreamFidelity:
    def test_random_segmentation_roundtrip_64k(self, instance_factory):
        _instance, _log, port = instance_factory(mode="echo")
        rng = random.Random(0xF1DE)
        payload = rng.randbytes(64 * 1024)
        received = bytearray()
        client = socket.create_connection(("127.0.0.1", port), timeout=10)
        client.settimeout(10)

        def reader():
            while len(received) < len(payload):
                chunk = client.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)

        thread = threading.Thread(target=reader)
        thread.start()
        sent = 0
        while sent < len(payload):
            size = rng.randrange(1, 4096)
            client.sendall(payload[sent:sent + size])
            sent += size
        thread.join(timeout=20)
        client.close()
        assert hashlib.sha256(bytes(received)).digest() == hashlib.sha256(payload).digest()


class _CapturingApp:
    """Guest-side client app for outbound NAT tests."""

    def __init__(self, stack, conn):
        self.conn = conn
        _CapturingApp.last = self
        self.data = bytearray()
        self.connected = threading.Event()
        self.closed = threading.Event()

    def on_connect(self):
        self.connected.set()
        self.conn.send(b"ping")

    def on_data(self, data):
        self.data += data

    def on_eof(self):
        self.conn.close()

    def on_close(self):
        self.closed.set()


class TestOutboundNat:
    def test_guest_connects_out_through_nat(self, instance_factory):
        instance, _log, _port = instance_factory()
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server_port = server.getsockname()[1]
        result = {}

        def serve():
            conn, peer = server.accept()
            conn.settimeout(5)
            result["peer"] = peer
            result["data"] = conn.recv(100)
            conn.sendall(b"pong")
            conn.close()

        server_thread = threading.Thread(target=serve)
        server_thread.start()
        instance.loop.post(
            lambda: instance.guest.tcp_connect(
                ip_to_bytes("127.0.0.1"), server_port, _CapturingApp
            )
        )
        server_thread.join(timeout=10)
        server.close()
        assert result.get("data") == b"ping"
        app = _CapturingApp.last
        assert app.connected.wait(5)
        assert wait_for(lambda: bytes(app.data) == b"pong")
        assert wait_for(lambda: app.closed.is_set())

    def test_connect_to_dead_port_resets_guest(self, instance_factory):
        instance, _log, _port = instance_factory()
        dead = free_port()
        instance.loop.post(
            lambda: instance.guest.tcp_connect(ip_to_bytes("127.0.0.1"), dead, _CapturingApp)
        )
        app_closed = wait_for(lambda: getattr(_CapturingApp, "last", None) is not None and _CapturingApp.last.closed.is_set(), timeout=8)
        assert app_closed


class TestIsolation:
    def test_two_instances_do_not_cross_traffic(self):
        sink_a, sink_b = io.StringIO(), io.StringIO()
        inst_a, log_a, port_a = make_instance(trace=trace.enable(["open_eth*"], sink_a), name="iso-a")
        inst_b, log_b, port_b = make_instance(
            trace=trace.enable(["open_eth*"], sink_b), name="iso-b", mac="52:54:00:12:34:99"
        )
        try:
            inst_a.start()
            inst_b.start()
            assert wait_for(lambda: inst_a.guest.ip is not None)
            assert wait_for(lambda: inst_b.guest.ip is not None)
            events_b_before = len(sink_b.getvalue().splitlines())
            status, _ = http_get(port_a)
            assert status == 200
            assert wait_for(lambda: len(log_a.matching("served GET /hello")) == 1)
            time.sleep(0.2)
            assert not log_b.matching("served")
            # instance B saw no receive events caused by A's request
            events_b_after = [
                line for line in sink_b.getvalue().splitlines()[events_b_before:]
                if line.startswith("open_eth_receive")
            ]
            assert events_b_after == []
        finally:
            inst_a.stop()
            inst_b.stop()


def _event_names(sink: io.StringIO) -> list[str]:
    return sorted(line.split()[0] for line in sink.getvalue().splitlines())


class TestDeterminism:
    def test_same_config_same_event_multiset(self):
        def one_run():
            sink = io.StringIO()
            instance, _log, port = make_instance(trace=trace.enable(["open_eth*"], sink))
            try:
                instance.start()
                assert wait_for(lambda: instance.guest.ip is not None)
                status, body = http_get(port)
                assert (status, body) == (200, b"Hello World!")
                assert wait_for(lambda: not instance.usernet._flows, timeout=5)
            finally:
                instance.stop()
            return _event_names(sink)

        assert one_run() == one_run()


class TestImageBoot:
    def test_instance_from_image(self, tmp_path):
        from emunet import flashimg
        from emunet.harness import instance_from_image

        app = flashimg.encode_app_payload(
            {"mac": "52:54:00:77:88:99", "http_port": 80, "mode": "http", "banner": "img boot"}
        )
        table = [flashimg.PartitionEntry(type=0, subtype=0, offset=0x10000, size=0x100000, label="factory")]
        image = flashimg.merge(b"\x7fBOOT", table, app)
        port = free_port()
        log = LogCollector()
        nic = NicConfig(model="open_eth", forwards=[ForwardRule("tcp", "", port, "", 80)])
        instance = instance_from_image(image.raw, nic, log=log)
        assert instance.guest.config.mac == "52:54:00:77:88:99"
        try:
            instance.start()
            assert wait_for(lambda: instance.guest.ip is not None)
            status, body = http_get(port)
            assert (status, body) == (200, b"Hello World!")
            assert log.matching("img boot")
        finally:
            instance.stop()

    def test_corrupt_image_rejected(self):
        from emunet import flashimg
        from emunet.harness import instance_from_image

        with pytest.raises(flashimg.FlashError):
            instance_from_image(b"\xff" * flashimg.DEFAULT_FLASH_SIZE, NicConfig(model="open_eth"))


class TestPump:
    def test_pump_that_never_quiesces_raises_into_the_loop_errors(self, monkeypatch):
        from emunet import harness

        class Net:
            def poll_frames_out(self):
                return []

        class Device:
            irq_asserted = True  # a line that is never cleared

        class Guest:
            steps = 0

            def stack_step(self):
                Guest.steps += 1

        monkeypatch.setattr(harness, "_PUMP_BOUND", 50)
        with pytest.raises(RuntimeError, match="quiesce"):
            harness.pump(Net(), Device(), Guest())
        assert Guest.steps == 50
        loop = stepped_loop(lambda: harness.pump(Net(), Device(), Guest()))
        loop.post(lambda: None)
        loop.run_once(0)
        assert loop.errors == 1  # counted, as an Instance's loop would count it


class TestGuestRam:
    def test_16_booted_instances_add_under_half_a_megabyte_of_rss_each(self):
        import os

        def rss() -> int:
            with open("/proc/self/statm") as statm:
                return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = rss()
        instances = [stepped_instance() for _ in range(16)]
        for instance in instances:
            boot(instance)
        assert all(instance.guest.ip is not None for instance in instances)
        assert (rss() - before) / len(instances) < 0.5 * 1024 * 1024  # of 4 MiB of guest RAM each
