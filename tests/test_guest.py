"""Guest stack: driver bring-up, DHCP client, TCP listener, HTTP handling."""

import io

import pytest

from emunet import device as dev
from emunet import trace
from emunet.device import Phy
from emunet.guest import (
    FIRST_LOCAL_PORT,
    DriverInitError,
    EchoApp,
    RX_SLOTS,
    TX_SLOTS,
    http_handle,
)
from emunet.tcp import seq_add
from emunet.wire import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    TCP_RST,
    ZERO_MAC,
    ArpPacket,
    HttpRequest,
    MacAddress,
    decode_arp,
    encode_arp,
    encode_response,
    ip_to_bytes,
)
from helpers import boot, inject, stepped_instance
from reference import (
    OPT_MSS,
    EthernetFrame,
    Ipv4Packet,
    TcpSegment,
    decode_frame,
    decode_ipv4,
    decode_tcp,
    encode_ipv4,
    encode_tcp,
)

GATEWAY_MAC = MacAddress.parse("52:55:0a:00:02:02")
GATEWAY_IP = ip_to_bytes("10.0.2.2")
GUEST_IP = ip_to_bytes("10.0.2.15")


class _DownPhy(Phy):
    def read(self, reg):
        if reg == 1:
            return 0  # link never comes up
        return super().read(reg)


class TestHttpHandle:
    def test_hello(self):
        response = http_handle(HttpRequest("GET", "/hello", "HTTP/1.1"))
        assert response.status == 200
        assert response.body == b"Hello World!"
        assert ("Content-Length", "12") in response.headers

    def test_unknown_path(self):
        assert http_handle(HttpRequest("GET", "/goodbye", "HTTP/1.1")).status == 404

    def test_non_get(self):
        response = http_handle(HttpRequest("POST", "/hello", "HTTP/1.1"))
        assert response.status == 405
        assert ("Allow", "GET") in response.headers

    def test_response_bytes_stable(self):
        a = encode_response(http_handle(HttpRequest("GET", "/hello", "HTTP/1.1")))
        b = encode_response(http_handle(HttpRequest("GET", "/hello", "HTTP/1.1")))
        assert a == b
        assert b"Hello World!" in a
        assert b"Connection: close" in a


class TestDriverInit:
    def test_first_trace_event_is_mii_read(self):
        sink = io.StringIO()
        inst = stepped_instance(trace=trace.enable(["open_eth*"], sink))
        boot(inst)
        events = [line.split()[0] for line in sink.getvalue().splitlines()]
        assert events[0] == "open_eth_mii_read"

    def test_mac_registers_reflect_driver_mac(self):
        inst = stepped_instance()
        boot(inst)
        assert inst.device.programmed_mac() == inst.guest.mac.octets

    def test_all_rx_slots_empty_after_init(self):
        inst = stepped_instance()
        inst.guest.driver.init()
        for i in range(RX_SLOTS):
            len_flags, _ = inst.device.desc_read(TX_SLOTS + i)
            assert len_flags & dev.BD_EMPTY

    def test_link_down_is_init_error(self):
        inst = stepped_instance()
        inst.device.phy = _DownPhy()
        with pytest.raises(DriverInitError):
            inst.guest.driver.init()

    def test_init_ordering_contract(self):
        sink = io.StringIO()
        inst = stepped_instance(trace=trace.enable(["open_eth*"], sink))
        boot(inst)
        events = [line.split()[0] for line in sink.getvalue().splitlines()]
        assert events.index("open_eth_mii_read") < events.index("open_eth_desc_write")
        assert events.index("open_eth_desc_write") < events.index("open_eth_start_xmit")


class TestDhcpBinding:
    def test_guest_binds_dot_15_and_logs(self):
        inst = stepped_instance()
        boot(inst)
        assert inst.guest.ip == GUEST_IP
        bind_lines = inst.log.matching("bound to 10.0.2.15")
        assert len(bind_lines) == 1
        assert "interface eth0" in bind_lines[0]
        assert inst.log.matching("listening on port 80")

    def test_gateway_learned(self):
        inst = stepped_instance()
        boot(inst)
        assert inst.guest.gateway_ip == GATEWAY_IP
        assert inst.guest.arp_table.get(GATEWAY_IP) == GATEWAY_MAC

    def test_banner_logged_first(self):
        inst = stepped_instance()
        inst.guest.config.banner = "hello from guest"
        boot(inst)
        assert inst.log.lines[0] == "hello from guest"


class TestArpResponder:
    def test_who_has_guest_ip_answered_with_driver_mac(self):
        inst = stepped_instance()
        boot(inst)
        sent_before = len(inst.guest_tx)
        request = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GATEWAY_MAC, sender_ip=GATEWAY_IP,
            target_mac=MacAddress(b"\x00" * 6), target_ip=GUEST_IP,
        )
        inject(inst, EthernetFrame(inst.guest.mac.octets, GATEWAY_MAC.octets, ETHERTYPE_ARP, encode_arp(request)))
        replies = [f for f in inst.guest_tx[sent_before:] if f.ethertype == ETHERTYPE_ARP]
        assert len(replies) == 1
        reply = decode_arp(replies[0].payload)
        assert reply.op == ARP_OP_REPLY
        assert reply.sender_mac == inst.guest.mac
        assert reply.sender_ip == GUEST_IP

    def test_who_has_other_ip_ignored(self):
        inst = stepped_instance()
        boot(inst)
        sent_before = len(inst.guest_tx)
        request = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GATEWAY_MAC, sender_ip=GATEWAY_IP,
            target_mac=MacAddress(b"\x00" * 6), target_ip=ip_to_bytes("10.0.2.77"),
        )
        inject(inst, EthernetFrame(inst.guest.mac.octets, GATEWAY_MAC.octets, ETHERTYPE_ARP, encode_arp(request)))
        assert len(inst.guest_tx) == sent_before


class _FakeClient:
    """Minimal TCP endpoint used to drive the guest listener from tests."""

    def __init__(self, inst, src_port: int = 49321, dst_port: int = 80):
        self.inst = inst
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = 1000
        self.ack = 0
        self.received = bytearray()
        self.saw_fin = False
        self.saw_rst = False
        self._cursor = len(inst.guest_tx)

    def _send(self, options=b"", **kwargs):
        seg = TcpSegment(
            src_port=self.src_port, dst_port=self.dst_port,
            seq=self.seq, ack=self.ack, window=8192, **kwargs,
        )
        payload = encode_tcp(seg, GATEWAY_IP, GUEST_IP, options)
        pkt = Ipv4Packet(GATEWAY_IP, GUEST_IP, IPPROTO_TCP, payload)
        inject(self.inst, 
            EthernetFrame(self.inst.guest.mac.octets, GATEWAY_MAC.octets, ETHERTYPE_IPV4, encode_ipv4(pkt))
        )
        self.seq = seq_add(self.seq, len(seg.payload) + (1 if seg.syn or seg.fin else 0))
        self._collect()

    def _collect(self):
        for frame in self.inst.guest_tx[self._cursor:]:
            self._cursor += 1
            if frame.ethertype != ETHERTYPE_IPV4:
                continue
            pkt = decode_ipv4(frame.payload)
            if pkt.protocol != IPPROTO_TCP or pkt.dst_ip != GATEWAY_IP:
                continue
            seg = decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)
            if seg.dst_port != self.src_port:
                continue
            if seg.rst:
                self.saw_rst = True
                continue
            consumed = len(seg.payload) + (1 if seg.syn or seg.fin else 0)
            if seg.syn:
                self.ack = seq_add(seg.seq, 1)
            elif seg.seq == self.ack and consumed:
                self.received += seg.payload
                if seg.fin:
                    self.saw_fin = True
                self.ack = seq_add(self.ack, consumed)

    def open(self):
        self._send(syn=True)
        self._send(ack_flag=True)  # completes the handshake

    def push(self, data: bytes):
        self._send(ack_flag=True, psh=True, payload=data)
        self._send(ack_flag=True)  # ack whatever came back

    def finish(self):
        self._send(fin=True, ack_flag=True)
        self._send(ack_flag=True)


class TestGuestTcpAndHttp:
    def test_syn_to_listener_gets_syn_ack(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        before = len(inst.guest_tx)
        client._send(syn=True)
        replies = [
            decode_tcp(decode_ipv4(f.payload).payload, GUEST_IP, GATEWAY_IP)
            for f in inst.guest_tx[before:]
            if f.ethertype == ETHERTYPE_IPV4
        ]
        assert any(seg.syn and seg.ack_flag for seg in replies)

    def test_syn_with_an_mss_option_completes_the_handshake(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        client._send(syn=True, options=OPT_MSS)  # a data offset of 6
        client._send(ack_flag=True)
        conn = inst.guest.conns[(GATEWAY_IP, client.src_port, 80)]
        assert conn.state == "established" and conn.rcv_nxt == client.seq
        client.push(b"GET /hello HTTP/1.1\r\n\r\n")
        assert bytes(client.received).endswith(b"Hello World!")
        assert not inst.guest.drop_counts

    def test_full_http_exchange(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"GET /hello HTTP/1.1\r\nHost: guest\r\n\r\n")
        client._send(ack_flag=True)
        text = bytes(client.received)
        assert text.startswith(b"HTTP/1.1 200 OK\r\n")
        assert text.endswith(b"Hello World!")
        assert client.saw_fin  # connection: close semantics
        assert inst.log.matching("served GET /hello")
        assert inst.guest.served_count == 1

    def test_404_path(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst, src_port=49999)
        client.open()
        client.push(b"GET /goodbye HTTP/1.1\r\n\r\n")
        assert bytes(client.received).startswith(b"HTTP/1.1 404")

    def test_bad_request_line(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst, src_port=50000)
        client.open()
        client.push(b"garbage\r\n\r\n")
        assert bytes(client.received).startswith(b"HTTP/1.1 400")

    def test_declared_body_over_the_cap_gets_413_and_nothing_else(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst, src_port=50001)
        client.open()
        client.push(b"POST /hello HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n")
        client.push(b"x" * 1000)  # the start of the body
        text = bytes(client.received)
        assert text.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
        assert text.count(b"HTTP/1.1 ") == 1
        assert client.saw_fin

    def test_syn_to_closed_port_gets_rst(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst, dst_port=8125)
        client._send(syn=True)
        assert client.saw_rst

    def test_two_sequential_requests_two_log_lines(self):
        inst = stepped_instance()
        boot(inst)
        for port in (51000, 51001):
            client = _FakeClient(inst, src_port=port)
            client.open()
            client.push(b"GET /hello HTTP/1.1\r\n\r\n")
            client.finish()
        assert len(inst.log.matching("served GET /hello")) == 2

    def test_echo_mode(self):
        inst = stepped_instance(mode="echo")
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"bounce me")
        assert bytes(client.received) == b"bounce me"

    def test_response_bytes_stable_across_runs(self):
        outputs = []
        for _ in range(2):
            inst = stepped_instance()
            boot(inst)
            client = _FakeClient(inst)
            client.open()
            client.push(b"GET /hello HTTP/1.1\r\n\r\n")
            outputs.append(bytes(client.received))
        assert outputs[0] == outputs[1]


class TestInvariants:
    def test_guest_frames_all_decode_and_verify(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"GET /hello HTTP/1.1\r\n\r\n")
        client.finish()
        assert inst.guest_tx, "no frames were captured"
        for raw in inst.guest_tx_raw:
            assert 60 <= len(raw) <= 1514
        for frame in inst.guest_tx:
            if frame.ethertype == ETHERTYPE_IPV4:
                pkt = decode_ipv4(frame.payload)  # raises on checksum mismatch
                if pkt.protocol == IPPROTO_TCP:
                    decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)

    def test_usernet_frames_all_decode_and_verify(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"GET /hello HTTP/1.1\r\n\r\n")
        client.finish()
        assert inst.usernet_tx, "the NAT stack sent nothing"
        for frame in inst.usernet_tx:
            if frame.ethertype == ETHERTYPE_IPV4:
                pkt = decode_ipv4(frame.payload)
                if pkt.protocol == IPPROTO_TCP:
                    decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)

    def test_conservation_guest_to_usernet(self):
        inst = stepped_instance()
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"GET /hello HTTP/1.1\r\n\r\n")
        assert inst.device.tx_frame_count == len(inst.guest_tx)
        assert inst.usernet.frames_from_guest == len(inst.guest_tx)

    def test_phase_ordering_with_one_request(self):
        sink = io.StringIO()
        inst = stepped_instance(trace=trace.enable(["open_eth*"], sink))
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"GET /hello HTTP/1.1\r\n\r\n")
        events = [line.split()[0] for line in sink.getvalue().splitlines()]
        order = ["open_eth_mii_read", "open_eth_desc_write", "open_eth_start_xmit", "open_eth_receive"]
        positions = [events.index(name) for name in order]
        assert positions == sorted(positions)


class TestConnectPorts:
    def test_local_ports_wrap_within_the_range_and_skip_those_in_use(self):
        inst = stepped_instance()
        boot(inst)
        guest = inst.guest
        guest._next_port = 65535
        last = guest.tcp_connect(GATEWAY_IP, 9, EchoApp)
        wrapped = guest.tcp_connect(GATEWAY_IP, 9, EchoApp)
        assert (last.local_port, wrapped.local_port) == (65535, FIRST_LOCAL_PORT)
        guest._next_port = 65535
        skipped = guest.tcp_connect(GATEWAY_IP, 9, EchoApp)  # 65535 and the first are in use
        assert skipped.local_port == FIRST_LOCAL_PORT + 1
        ports = (65535, FIRST_LOCAL_PORT, FIRST_LOCAL_PORT + 1)
        assert set(guest.conns) == {(GATEWAY_IP, 9, port) for port in ports}
        assert all(conn.state == "syn_sent" for conn in guest.conns.values())


class TestOutOfOrder:
    def test_out_of_order_segment_gets_duplicate_ack(self):
        inst = stepped_instance(mode="echo")
        boot(inst)
        client = _FakeClient(inst)
        client.open()
        client.push(b"in order")
        conn = next(iter(inst.guest.conns.values()))
        rcv_nxt, data_events = conn.rcv_nxt, inst.guest.app_data_events
        cursor = len(inst.guest_tx)
        gap = TcpSegment(
            src_port=client.src_port, dst_port=client.dst_port,
            seq=seq_add(client.seq, 100), ack=client.ack, ack_flag=True, window=8192,
            payload=b"ahead of the stream",
        )
        pkt = Ipv4Packet(GATEWAY_IP, GUEST_IP, IPPROTO_TCP, encode_tcp(gap, GATEWAY_IP, GUEST_IP))
        frame = EthernetFrame(inst.guest.mac.octets, GATEWAY_MAC.octets, ETHERTYPE_IPV4, encode_ipv4(pkt))
        inject(inst, frame)  # on the instance's loop, which counts exceptions
        assert inst.loop.errors == 0
        replies = [decode_ipv4(f.payload) for f in inst.guest_tx[cursor:]]
        assert len(replies) == 1
        dup = decode_tcp(replies[0].payload, GUEST_IP, GATEWAY_IP)
        # a bare duplicate ACK, even though ACKs otherwise ride on data
        assert dup.ack_flag and not dup.payload and not (dup.syn or dup.fin or dup.rst)
        assert dup.ack == rcv_nxt
        assert inst.guest.drop_counts == {"tcp_out_of_order": 1}
        assert conn.rcv_nxt == rcv_nxt
        assert inst.guest.app_data_events == data_events


class TestLayering:
    def test_guest_does_not_import_the_nat(self):
        import subprocess
        import sys
        from pathlib import Path

        import emunet

        src = str(Path(emunet.__file__).parents[1])
        probe = "import sys, emunet.guest; sys.exit('emunet.usernet' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env={"PYTHONPATH": src}, timeout=60
        )
        assert result.returncode == 0, "the emulated device depends on the host NAT"


class TestArpQueue:
    def test_packets_to_an_unresolved_next_hop_are_capped(self):
        from emunet.guest import ARP_QUEUE_MAX

        inst = stepped_instance()
        boot(inst)
        host, host_mac = ip_to_bytes("10.0.2.40"), MacAddress.parse("52:54:00:aa:bb:cc")
        addr_sum = int.from_bytes(GUEST_IP + host, "big")
        for port in range(1000, 1020):  # one RST to each of 20 ports
            inst.guest.send_tcp(host, host, addr_sum, 80, port, 0, 0, TCP_RST)
        queued = inst.guest.arp_pending[host]
        assert [decode_frame(raw).dst for raw in queued] == [ZERO_MAC.octets] * ARP_QUEUE_MAX
        segs = [decode_tcp(decode_ipv4(raw[14:]).payload, GUEST_IP, host) for raw in queued]
        assert [seg.dst_port for seg in segs] == [1017, 1018, 1019]  # the newest stay
        assert inst.guest.drop_counts["arp_queue_full"] == 20 - ARP_QUEUE_MAX
        reply = ArpPacket(
            op=ARP_OP_REPLY, sender_mac=host_mac, sender_ip=host,
            target_mac=inst.guest.mac, target_ip=GUEST_IP,
        )
        sent_before = len(inst.guest_tx_raw)
        inject(inst, EthernetFrame(inst.guest.mac.octets, host_mac.octets, ETHERTYPE_ARP, encode_arp(reply)))
        flushed = [raw for raw in inst.guest_tx_raw[sent_before:] if raw[:6] == host_mac.octets]
        assert flushed == [host_mac.octets + raw[6:] for raw in queued]
        assert host not in inst.guest.arp_pending
