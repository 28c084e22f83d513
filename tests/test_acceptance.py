"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; each test reports one
[acceptance] PASS/FAIL line (see conftest).
"""

import hashlib
import io
import random
import signal
import socket
import threading
import time

import pytest

from emunet import flashimg, trace
from emunet.bench import bench
from emunet.cli import main as cli_main
from emunet.cli import parse_cli
from emunet.device import GuestMemory, HASH0, HASH1, MacDevice
from emunet.usernet import ForwardRule
from emunet.wire import (
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    IPPROTO_UDP,
    MacAddress,
    ip_to_bytes,
    ipv4_checksum,
    tcp_checksum,
)
from helpers import free_port, http_get, make_instance, wait_for
from reference import (
    EthernetFrame,
    Ipv4Packet,
    ReferenceMac,
    TcpSegment,
    UdpDatagram,
    encode_frame,
    encode_ipv4,
    encode_tcp,
    encode_udp,
    multicast_hash_oracle,
    ones_complement_checksum,
    pad_frame,
    random_ops,
    tcp_checksum_reference,
)
from test_cli import read_until, sample_image, spawn_run  # noqa: F401  (fixture reuse)
from test_device import apply_op


# ---------------------------------------------------------------------------
# End-to-end request: run + hostfwd=tcp::8000-:80 + GET /hello < 5 s.


def test_end_to_end_hello_request(sample_image):
    started = time.monotonic()
    proc = spawn_run(sample_image, 8000)
    try:
        read_until(proc.stdout, "listening on port 80")
        status, body = http_get(8000)
        elapsed = time.monotonic() - started
        assert status == 200
        assert body == b"Hello World!"
        assert elapsed < 5.0, f"boot + request took {elapsed:.2f}s"
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=5)


# ---------------------------------------------------------------------------
# DHCP lease: first guest binds 10.0.2.15 and logs the binding.


def test_dhcp_lease_and_bind_log(sample_image):
    port = free_port()
    proc = spawn_run(sample_image, port)
    try:
        lines = read_until(proc.stdout, "listening on port 80")
        bind_lines = [line for line in lines if "bound to" in line]
        assert len(bind_lines) == 1
        assert "bound to 10.0.2.15" in bind_lines[0]
        assert "interface" in bind_lines[0]
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=5)


# ---------------------------------------------------------------------------
# Trace phase ordering and event inventory with --trace "open_eth*".

REQUIRED_EVENTS = {
    "open_eth_reg_read", "open_eth_reg_write", "open_eth_mii_read",
    "open_eth_mii_write", "open_eth_desc_read", "open_eth_desc_write",
    "open_eth_start_xmit", "open_eth_receive", "open_eth_receive_desc",
    "open_eth_update_irq",
}


def test_trace_phase_ordering(sample_image, tmp_path):
    trace_file = tmp_path / "open_eth.trace"
    port = free_port()
    proc = spawn_run(sample_image, port, extra=("--trace", "open_eth*",
                                                "--trace-file", str(trace_file)))
    try:
        read_until(proc.stdout, "listening on port 80")
        status, body = http_get(port)
        assert (status, body) == (200, b"Hello World!")
        read_until(proc.stdout, "served GET /hello")
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=5)
    events = [line.split()[0] for line in trace_file.read_text().splitlines()]
    counts = {name: events.count(name) for name in REQUIRED_EVENTS}
    missing = [name for name, count in counts.items() if count < 1]
    assert not missing, f"missing events: {missing}"
    phase = [
        events.index("open_eth_mii_read"),
        events.index("open_eth_desc_write"),
        events.index("open_eth_start_xmit"),
        events.index("open_eth_receive"),
    ]
    assert phase == sorted(phase), f"phase ordering violated: {phase}"


def test_trace_multicast_event_dedicated():
    sink = io.StringIO()
    memory = GuestMemory()
    device = MacDevice(memory, trace=trace.enable(["open_eth*"], sink))
    from test_device import enable_rx_tx

    enable_rx_tx(device)
    mac = MacAddress.parse("01:00:5e:00:00:fb")
    index = multicast_hash_oracle(mac.octets)
    table = 1 << index
    device.reg_write(HASH0, table & 0xFFFFFFFF)
    device.reg_write(HASH1, (table >> 32) & 0xFFFFFFFF)
    src = MacAddress.parse("02:00:00:00:00:01")
    assert device.receive(encode_frame(EthernetFrame(mac.octets, src.octets, 0x0800, b"\x00" * 46))) is True
    names = [line.split()[0] for line in sink.getvalue().splitlines()]
    assert "open_eth_receive_mcast" in names


# ---------------------------------------------------------------------------
# Firewall: 1000 unsolicited frames never reach the guest application.


def _random_hostile_frame(rng: random.Random, guest_mac: MacAddress, guest_ip: bytes):
    dst = guest_mac.octets if rng.random() < 0.8 else b"\xff" * 6
    src = bytes([0x02] + [rng.getrandbits(8) for _ in range(5)])
    kind = rng.random()
    if kind < 0.55:
        src_ip = bytes(rng.getrandbits(8) for _ in range(4))
        seg = TcpSegment(
            src_port=rng.randrange(1, 65536),
            dst_port=80 if rng.random() < 0.5 else rng.randrange(1, 65536),
            seq=rng.getrandbits(32),
            ack=rng.getrandbits(32),
            syn=rng.random() < 0.4,
            ack_flag=rng.random() < 0.6,
            fin=rng.random() < 0.2,
            rst=rng.random() < 0.1,
            payload=bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64))),
        )
        payload = encode_ipv4(Ipv4Packet(
            src_ip, guest_ip, IPPROTO_TCP, encode_tcp(seg, src_ip, guest_ip)))
        return EthernetFrame(dst, src, ETHERTYPE_IPV4, payload)
    if kind < 0.8:
        src_ip = bytes(rng.getrandbits(8) for _ in range(4))
        dgram = UdpDatagram(rng.randrange(1, 65536), rng.randrange(1, 65536),
                            bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64))))
        payload = encode_ipv4(Ipv4Packet(
            src_ip, guest_ip, IPPROTO_UDP, encode_udp(dgram, src_ip, guest_ip)))
        return EthernetFrame(dst, src, ETHERTYPE_IPV4, payload)
    return EthernetFrame(dst, src, rng.getrandbits(16),
                         bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 120))))


def test_firewall_blocks_unsolicited_frames():
    instance, log, _port = make_instance()
    try:
        instance.start()
        assert wait_for(lambda: instance.guest.ip is not None)
        guest = instance.guest
        baseline_data = guest.app_data_events
        baseline_connects = guest.app_connect_events
        rng = random.Random(0xF12E)
        guest_ip = guest.ip
        for _ in range(1000):
            frame = encode_frame(_random_hostile_frame(rng, guest.mac, guest_ip))
            instance.loop.post(lambda f=frame: instance.device.receive(f))
        done = threading.Event()
        instance.loop.post(done.set)
        assert done.wait(timeout=30)
        assert guest.served_count == 0
        assert guest.app_data_events == baseline_data, "payload leaked to the guest app"
        assert guest.app_connect_events == baseline_connects, "a connection reached the app"
        assert not log.matching("served")
        assert instance.loop.errors == 0
    finally:
        instance.stop()


# ---------------------------------------------------------------------------
# Descriptor-ring oracle: 100 seeds, sequences <= 1000 ops, rings <= 8 slots.


def test_descriptor_ring_oracle_100_seeds():
    started = time.monotonic()
    mem_size = 16 * 1024
    for seed in range(100):
        rng = random.Random(seed)
        op_count = rng.randrange(200, 1001)
        sent: list = []
        memory = GuestMemory(mem_size)
        device = MacDevice(memory, backend_send=sent.append)
        ref = ReferenceMac(mem_size)
        accepts: list = []
        for op in random_ops(rng, op_count, mem_size):
            apply_op(device, ref, op, accepts)
        assert [list(d) for d in device.descriptors] == ref.desc, f"seed {seed}"
        assert (device.tx_cursor, device.rx_cursor) == (ref.tx_ptr, ref.rx_ptr), f"seed {seed}"
        for off in ref.regs:
            assert device.regs[off] == ref.regs[off], f"seed {seed} reg 0x{off:x}"
        assert device.irq_asserted == ref.irq(), f"seed {seed}"
        assert sent == ref.sent, f"seed {seed}"
        assert accepts == ref.accepts, f"seed {seed}"
        assert memory.read(0, mem_size) == bytes(ref.mem), f"seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Checksum oracles: 10,000 random inputs each, plus the fixed 0xB1E6 header.


def test_checksum_oracles_10k():
    header = bytes.fromhex("4500003c1c46400040060000ac100a63ac100a0c")
    assert ones_complement_checksum(header) == 0xB1E6
    assert ipv4_checksum(header) == 0xB1E6
    rng = random.Random(0xC45C)
    for _ in range(10000):
        length = 20 + 2 * rng.randrange(0, 11)
        data = bytes(rng.getrandbits(8) for _ in range(length))
        assert ipv4_checksum(data) == ones_complement_checksum(data)
    for _ in range(10000):
        src = bytes(rng.getrandbits(8) for _ in range(4))
        dst = bytes(rng.getrandbits(8) for _ in range(4))
        seg = bytearray(rng.getrandbits(8) for _ in range(20 + rng.randrange(0, 41)))
        seg[16:18] = b"\x00\x00"
        assert tcp_checksum(src, dst, bytes(seg)) == tcp_checksum_reference(src, dst, bytes(seg))


# ---------------------------------------------------------------------------
# Stream fidelity: 1 MiB echoed byte-identical with random segmentation.


def test_stream_fidelity_1mib():
    instance, _log, port = make_instance(mode="echo")
    try:
        instance.start()
        assert wait_for(lambda: instance.guest.ip is not None)
        rng = random.Random(0x51DE)
        payload = rng.randbytes(1024 * 1024)
        received = bytearray()
        started = time.monotonic()
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
            size = rng.randrange(1, 32768)
            client.sendall(payload[sent:sent + size])
            sent += size
        thread.join(timeout=30)
        elapsed = time.monotonic() - started
        client.close()
        assert hashlib.sha256(bytes(received)).digest() == hashlib.sha256(payload).digest()
        assert elapsed < 10.0, f"echo of 1 MiB took {elapsed:.2f}s"
    finally:
        instance.stop()


# ---------------------------------------------------------------------------
# Flash round-trip: merge -> inspect recovers everything; 1000 random tables.


def test_flash_roundtrip_and_1000_tables():
    app = flashimg.encode_app_payload({"mac": "52:54:00:12:34:56", "mode": "http"})
    table = [
        flashimg.PartitionEntry(type=1, subtype=2, offset=0x9000, size=0x6000, label="nvs"),
        flashimg.PartitionEntry(type=0, subtype=0, offset=0x10000, size=0x100000, label="factory"),
    ]
    image = flashimg.merge(b"\x7fBOOT" * 32, table, app + b"\x00" * 500)
    report = flashimg.inspect(image.raw)
    assert report.entries == table
    assert report.layout == image.layout

    rng = random.Random(0xF1A5)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
    for _ in range(1000):
        entries = []
        for _n in range(rng.randrange(0, 9)):
            label = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 17)))
            entries.append(flashimg.PartitionEntry(
                type=rng.randrange(0, 2), subtype=rng.getrandbits(8),
                offset=rng.getrandbits(32), size=rng.getrandbits(32),
                label=label, flags=rng.getrandbits(32),
            ))
        raw = flashimg.serialize_partition_table(entries)
        assert flashimg.parse_partition_table(raw) == entries
        assert flashimg.serialize_partition_table(flashimg.parse_partition_table(raw)) == raw


# ---------------------------------------------------------------------------
# Scale benchmark: 8 instances x 20 req/s x 5 s, zero errors.


def test_scale_benchmark_8_instances():
    config = parse_cli(["bench", "--instances", "8", "--base-port", "8000",
                        "--rate", "20", "--duration", "5"])
    out = io.StringIO()
    report = bench(config, out=out)
    assert len(report.per_instance) == 8
    assert report.total_errors == 0
    expected_per_instance = 100  # rate x duration
    for stats in report.per_instance:
        assert stats.requests == expected_per_instance, f"instance {stats.index}"
        assert stats.errors == 0
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms
    agg = report.aggregate
    assert agg.requests == sum(s.requests for s in report.per_instance)
    assert agg.p50_ms <= agg.p95_ms <= agg.p99_ms <= agg.max_ms
    text = out.getvalue()
    assert text.count("instance=") >= 800  # one machine-readable line per request
    assert "aggregate requests=800 errors=0" in text


# ---------------------------------------------------------------------------
# Trace laziness: no matching pattern -> zero formatter invocations.


def test_trace_laziness_full_run():
    sink = io.StringIO()
    config = trace.enable(["nothing_matches_this*"], sink)
    instance, _log, port = make_instance(trace=config)
    try:
        instance.start()
        assert wait_for(lambda: instance.guest.ip is not None)
        status, body = http_get(port)
        assert (status, body) == (200, b"Hello World!")
    finally:
        instance.stop()
    assert config.format_calls == 0
    assert sink.getvalue() == ""
