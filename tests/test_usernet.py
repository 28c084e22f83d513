"""NAT stack unit tests: config grammar, DHCP server, ARP, demux policy."""

import pytest

from emunet.usernet import (
    ForwardRule,
    NicConfig,
    NicConfigError,
    SubnetPlan,
    UserNetStack,
    parse_nic_config,
)
from emunet.wire import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    DHCP_ACK,
    DHCP_DISCOVER,
    DHCP_NAK,
    DHCP_OFFER,
    DHCP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    ArpPacket,
    DhcpMessage,
    MacAddress,
    decode_arp,
    decode_dhcp,
    encode_arp,
    encode_dhcp,
    ip_to_bytes,
)
from helpers import advance, frames_out, ipv4_with_flags, nat_stack, step, stepped_loop, timers
from reference import (
    EthernetFrame,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
    decode_ipv4,
    decode_tcp,
    decode_udp,
    encode_frame,
    encode_ipv4,
    encode_tcp,
    encode_udp,
)

GUEST_MAC = MacAddress.parse("52:54:00:12:34:56")
GUEST_MAC2 = MacAddress.parse("52:54:00:12:34:57")


class TestParseNicConfig:
    def test_canonical_hostfwd_line(self):
        config = parse_nic_config("user,model=open_eth,id=lo0,hostfwd=tcp::8000-:80")
        assert config.model == "open_eth"
        assert config.id == "lo0"
        assert config.forwards == [ForwardRule("tcp", "", 8000, "", 80)]

    def test_minimal_config_zero_forwards(self):
        config = parse_nic_config("user,model=open_eth")
        assert config.forwards == []

    def test_port_zero_rejected(self):
        with pytest.raises(NicConfigError, match="hostfwd=tcp::0-:80"):
            parse_nic_config("user,model=open_eth,hostfwd=tcp::0-:80")

    def test_non_numeric_port_names_token(self):
        with pytest.raises(NicConfigError, match="hostfwd=tcp::eight-:80"):
            parse_nic_config("user,model=open_eth,hostfwd=tcp::eight-:80")

    def test_unknown_model(self):
        with pytest.raises(NicConfigError, match="e1000"):
            parse_nic_config("user,model=e1000")

    def test_missing_model(self):
        with pytest.raises(NicConfigError):
            parse_nic_config("user,id=x")

    def test_not_user_type(self):
        with pytest.raises(NicConfigError, match="tap"):
            parse_nic_config("tap,model=open_eth")

    def test_unknown_key_names_token(self):
        with pytest.raises(NicConfigError, match="bogus=1"):
            parse_nic_config("user,model=open_eth,bogus=1")

    def test_multiple_hostfwd_accumulate(self):
        config = parse_nic_config(
            "user,model=open_eth,hostfwd=tcp::8000-:80,hostfwd=tcp:127.0.0.1:9000-10.0.2.15:81"
        )
        assert len(config.forwards) == 2
        assert config.forwards[1] == ForwardRule("tcp", "127.0.0.1", 9000, "10.0.2.15", 81)

    def test_udp_rule_rejected(self):
        with pytest.raises(NicConfigError, match="udp forwarding is not supported"):
            parse_nic_config("user,model=open_eth,hostfwd=udp::5000-:5000")

    def test_malformed_rule(self):
        with pytest.raises(NicConfigError, match="hostfwd"):
            parse_nic_config("user,model=open_eth,hostfwd=tcp:8000:80")

    def test_bad_address(self):
        with pytest.raises(NicConfigError, match="999.0.0.1"):
            parse_nic_config("user,model=open_eth,hostfwd=tcp:999.0.0.1:8000-:80")


class TestDhcpServer:
    def discover(self, mac=GUEST_MAC, xid=0x1234):
        return DhcpMessage(op=1, xid=xid, client_mac=mac, message_type=DHCP_DISCOVER)

    def request(self, ip, mac=GUEST_MAC, xid=0x1234):
        return DhcpMessage(
            op=1, xid=xid, client_mac=mac, message_type=DHCP_REQUEST,
            requested_ip=ip, server_id=ip_to_bytes("10.0.2.2"),
        )

    def test_first_discover_offers_dot_15(self):
        stack = nat_stack()
        offer = stack.dhcp_step(self.discover())
        assert offer.message_type == DHCP_OFFER
        assert offer.your_ip == ip_to_bytes("10.0.2.15")
        assert offer.server_id == ip_to_bytes("10.0.2.2")

    def test_second_client_offers_dot_16(self):
        stack = nat_stack()
        stack.dhcp_step(self.discover())
        offer2 = stack.dhcp_step(self.discover(mac=GUEST_MAC2, xid=0x99))
        assert offer2.your_ip == ip_to_bytes("10.0.2.16")

    def test_lease_monotonicity(self):
        stack = nat_stack()
        for k in range(8):
            mac = MacAddress(bytes([0x52, 0x54, 0, 0, 0, k]))
            offer = stack.dhcp_step(self.discover(mac=mac, xid=k))
            ack = stack.dhcp_step(self.request(offer.your_ip, mac=mac, xid=k))
            assert ack.message_type == DHCP_ACK
            assert ack.your_ip == bytes([10, 0, 2, 15 + k])

    def test_request_unoffered_address_naks(self):
        stack = nat_stack()
        stack.dhcp_step(self.discover())
        nak = stack.dhcp_step(self.request(ip_to_bytes("10.0.2.99")))
        assert nak.message_type == DHCP_NAK

    def test_ack_carries_mask_router_lease(self):
        stack = nat_stack()
        offer = stack.dhcp_step(self.discover())
        ack = stack.dhcp_step(self.request(offer.your_ip))
        assert ack.subnet_mask == ip_to_bytes("255.255.255.0")
        assert ack.router == ip_to_bytes("10.0.2.2")
        assert ack.lease_time == 86400

    def test_renewal_is_fresh_ack(self):
        stack = nat_stack()
        offer = stack.dhcp_step(self.discover())
        stack.dhcp_step(self.request(offer.your_ip))
        again = stack.dhcp_step(self.request(offer.your_ip))
        assert again.message_type == DHCP_ACK

    def test_rediscover_keeps_same_lease(self):
        stack = nat_stack()
        offer = stack.dhcp_step(self.discover())
        stack.dhcp_step(self.request(offer.your_ip))
        offer2 = stack.dhcp_step(self.discover())
        assert offer2.your_ip == offer.your_ip

    def test_first_lease_tracks_allocation_order(self):
        stack = nat_stack()
        assert stack.first_lease() is None
        offer = stack.dhcp_step(self.discover())
        stack.dhcp_step(self.request(offer.your_ip))
        assert stack.first_lease() == ip_to_bytes("10.0.2.15")


def guest_frame(payload, ethertype=ETHERTYPE_IPV4, src=GUEST_MAC):
    return encode_frame(EthernetFrame(
        dst=SubnetPlan().gateway_mac.octets, src=src.octets, ethertype=ethertype, payload=payload
    ))


class TestGuestFrameIn:
    def test_arp_who_has_gateway_answered(self):
        stack = nat_stack()
        request = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GUEST_MAC, sender_ip=ip_to_bytes("10.0.2.15"),
            target_mac=MacAddress(b"\x00" * 6), target_ip=ip_to_bytes("10.0.2.2"),
        )
        stack.guest_frame_in(guest_frame(encode_arp(request), ethertype=ETHERTYPE_ARP))
        frames = frames_out(stack)
        assert len(frames) == 1
        reply = decode_arp(frames[0].payload)
        assert reply.op == ARP_OP_REPLY
        assert reply.sender_mac == SubnetPlan().gateway_mac
        assert reply.sender_ip == ip_to_bytes("10.0.2.2")
        assert frames[0].dst == GUEST_MAC.octets

    def test_arp_for_dns_answered(self):
        stack = nat_stack()
        request = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GUEST_MAC, sender_ip=ip_to_bytes("10.0.2.15"),
            target_mac=MacAddress(b"\x00" * 6), target_ip=ip_to_bytes("10.0.2.3"),
        )
        stack.guest_frame_in(guest_frame(encode_arp(request), ethertype=ETHERTYPE_ARP))
        assert len(frames_out(stack)) == 1

    def test_arp_for_other_host_unanswered(self):
        stack = nat_stack()
        request = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GUEST_MAC, sender_ip=ip_to_bytes("10.0.2.15"),
            target_mac=MacAddress(b"\x00" * 6), target_ip=ip_to_bytes("10.0.2.40"),
        )
        stack.guest_frame_in(guest_frame(encode_arp(request), ethertype=ETHERTYPE_ARP))
        assert frames_out(stack) == []

    def test_unknown_flow_dropped_with_counter(self):
        stack = nat_stack()
        seg = TcpSegment(5555, 80, seq=1, ack=7, ack_flag=True, payload=b"sneak")
        src, dst = ip_to_bytes("10.0.2.15"), ip_to_bytes("10.0.2.2")
        pkt = Ipv4Packet(src_ip=src, dst_ip=dst, protocol=IPPROTO_TCP,
                         payload=encode_tcp(seg, src, dst))
        before = stack.drop_counts["tcp_no_flow"]
        stack.guest_frame_in(guest_frame(encode_ipv4(pkt)))
        assert stack.drop_counts["tcp_no_flow"] == before + 1
        assert frames_out(stack) == []

    def test_dhcp_over_frames(self):
        stack = nat_stack()
        msg = DhcpMessage(op=1, xid=5, client_mac=GUEST_MAC, message_type=DHCP_DISCOVER)
        src, dst = b"\x00" * 4, b"\xff" * 4
        dgram = UdpDatagram(68, 67, encode_dhcp(msg))
        pkt = Ipv4Packet(src_ip=src, dst_ip=dst, protocol=17,
                         payload=encode_udp(dgram, src, dst))
        stack.guest_frame_in(encode_frame(
            EthernetFrame(b"\xff" * 6, GUEST_MAC.octets, ETHERTYPE_IPV4, encode_ipv4(pkt))
        ))
        frames = frames_out(stack)
        assert len(frames) == 1  # exactly one response per request
        inner = decode_ipv4(frames[0].payload)
        reply = decode_dhcp(decode_udp(inner.payload, inner.src_ip, inner.dst_ip).payload)
        assert reply.message_type == DHCP_OFFER
        assert frames[0].dst == GUEST_MAC.octets

    def test_poll_frames_empty(self):
        assert frames_out(nat_stack()) == []

    def test_interleaved_responses_fifo(self):
        stack = nat_stack()
        arp_req = ArpPacket(
            op=ARP_OP_REQUEST, sender_mac=GUEST_MAC, sender_ip=ip_to_bytes("10.0.2.15"),
            target_mac=MacAddress(b"\x00" * 6), target_ip=ip_to_bytes("10.0.2.2"),
        )
        msg = DhcpMessage(op=1, xid=6, client_mac=GUEST_MAC, message_type=DHCP_DISCOVER)
        dgram = UdpDatagram(68, 67, encode_dhcp(msg))
        ip = Ipv4Packet(src_ip=b"\x00" * 4, dst_ip=b"\xff" * 4, protocol=17,
                        payload=encode_udp(dgram, b"\x00" * 4, b"\xff" * 4))
        stack.guest_frame_in(guest_frame(encode_arp(arp_req), ethertype=ETHERTYPE_ARP))
        stack.guest_frame_in(encode_frame(
            EthernetFrame(b"\xff" * 6, GUEST_MAC.octets, ETHERTYPE_IPV4, encode_ipv4(ip))
        ))
        frames = frames_out(stack)
        assert len(frames) == 2
        assert frames[0].ethertype == ETHERTYPE_ARP
        assert frames[1].ethertype == ETHERTYPE_IPV4

    def test_bad_ipv4_checksum_counted(self):
        stack = nat_stack()
        seg = TcpSegment(1, 2, 3, 4)
        src, dst = ip_to_bytes("10.0.2.15"), ip_to_bytes("1.2.3.4")
        raw = bytearray(encode_ipv4(Ipv4Packet(src, dst, IPPROTO_TCP, encode_tcp(seg, src, dst))))
        raw[10] ^= 0xFF
        stack.guest_frame_in(guest_frame(bytes(raw)))
        assert stack.drop_counts["ipv4_malformed"] == 1


class TestFlowTimers:
    """Retransmission, handshake-timeout and drain policy, on the loop's virtual clock."""

    def _flow_with_socketpair(self):
        import socket as socket_mod

        from emunet.usernet import NatFlow

        stack = nat_stack()
        stack._arp_table[ip_to_bytes("10.0.2.15")] = GUEST_MAC
        near, far = socket_mod.socketpair()
        flow = NatFlow(
            stack,
            guest_ip=ip_to_bytes("10.0.2.15"),
            guest_port=80,
            remote_ip=ip_to_bytes("10.0.2.2"),
            remote_port=49152,
        )
        stack._flows[flow.key] = flow
        flow.start_inbound(near)
        return stack, flow, far

    def _tcp_frames(self, stack):
        out = []
        for frame in frames_out(stack):
            pkt = decode_ipv4(frame.payload)
            out.append(decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip))
        return out

    def test_unanswered_syn_retransmitted_then_reset(self):
        from emunet.usernet import RETRANSMIT_S

        stack, flow, far = self._flow_with_socketpair()
        far.settimeout(5)
        flow._handshake_timer.cancel()  # isolate the retransmit policy
        segs = self._tcp_frames(stack)
        assert len(segs) == 1 and segs[0].syn
        syn_count = 1
        rst_seen = False
        for _ in range(8):
            advance(stack.loop, RETRANSMIT_S)
            new = self._tcp_frames(stack)
            if flow.state == "closed":
                rst_seen = any(seg.rst for seg in new)
                break
            assert len(new) == 1 and new[0].syn
            syn_count += 1
        assert rst_seen
        assert syn_count == 6  # the original plus five retries
        assert far.recv(100) == b""  # host socket closed
        far.close()

    def _established_flow(self):
        """A flow past its handshake, with 3,000 host bytes sent and none acked."""
        stack, flow, far = self._flow_with_socketpair()
        far.settimeout(5)
        flow.segment_in(7000, (flow.iss + 1) & 0xFFFFFFFF, TCP_SYN | TCP_ACK, 8192, b"")
        flow.host_data((bytes(range(256)) * 12)[:3000])
        segs = self._tcp_frames(stack)
        assert [len(seg.payload) for seg in segs] == [0, 0, 1460, 1460, 80]  # SYN, ACK, data
        return stack, flow, far

    def _guest_ack(self, flow, ack):
        flow.segment_in(flow.rcv_nxt, ack, TCP_ACK, 8192, b"")

    def test_unacked_data_resent_from_snd_una_with_current_ack(self):
        from emunet.tcp import MSS
        from emunet.usernet import RETRANSMIT_S

        stack, flow, far = self._established_flow()
        self._guest_ack(flow, (flow.snd_una + 1000) & 0xFFFFFFFF)  # part of the first segment
        assert len(flow.send_buf) == 2000  # the buffer starts at snd_una
        assert len(timers(stack.loop)) == 1
        advance(stack.loop, RETRANSMIT_S)  # one timeout after that ACK
        (seg,) = self._tcp_frames(stack)
        assert seg.seq == flow.snd_una and seg.ack == flow.rcv_nxt and seg.ack_flag
        assert seg.payload == bytes(flow.send_buf[:MSS])
        assert not (seg.syn or seg.fin or seg.rst)
        assert flow.tries == 1
        flow._teardown()
        far.close()

    def test_fin_alone_resent(self):
        from emunet.usernet import RETRANSMIT_S

        stack, flow, far = self._established_flow()
        self._guest_ack(flow, flow.snd_nxt)  # every data byte
        assert flow.send_buf == b""
        flow.host_eof_seen()
        (fin,) = self._tcp_frames(stack)
        assert fin.fin
        advance(stack.loop, RETRANSMIT_S)
        (again,) = self._tcp_frames(stack)
        assert again.fin and not again.payload and again.ack_flag
        assert again.seq == fin.seq == (flow.snd_nxt - 1) & 0xFFFFFFFF
        self._guest_ack(flow, flow.snd_nxt)
        assert flow.fin_acked
        flow._teardown()
        far.close()

    def test_unacked_data_reset_after_max_retries(self):
        from emunet.usernet import MAX_RETRIES, RETRANSMIT_S

        stack, flow, far = self._established_flow()
        resent = 0
        for _ in range(MAX_RETRIES + 2):
            advance(stack.loop, RETRANSMIT_S)
            new = self._tcp_frames(stack)
            if flow.state == "closed":
                assert [seg.rst for seg in new] == [True]
                break
            assert len(new) == 1 and new[0].seq == flow.snd_una and len(new[0].payload) == 1460
            resent += 1
        assert resent == MAX_RETRIES
        assert not stack._flows
        assert far.recv(100) == b""  # host socket closed
        far.close()

    def test_tick_just_after_progress_rearms_instead_of_resending(self):
        from emunet.usernet import RETRANSMIT_S

        stack, flow, far = self._established_flow()
        advance(stack.loop, 0.3)
        self._guest_ack(flow, (flow.snd_una + 1460) & 0xFFFFFFFF)
        self._tcp_frames(stack)  # the ACK may have let more data out
        assert len(timers(stack.loop)) == 1  # the timer armed when the data went out
        advance(stack.loop, RETRANSMIT_S - 0.3)  # it fires, 0.2 s after the ACK
        assert self._tcp_frames(stack) == []  # nothing resent
        assert flow.tries == 0
        (rearmed,) = timers(stack.loop)
        assert rearmed.deadline == stack.loop.time() + 0.3  # one timeout after the ACK
        advance(stack.loop, 0.3)
        assert len(self._tcp_frames(stack)) == 1  # the re-armed timer does resend
        flow._teardown()
        far.close()

    def test_teardown_sends_all_of_out_buf_before_the_host_sees_eof(self):
        stack, flow, far = self._established_flow()
        flow.sock.setblocking(False)  # as every flow's socket is
        data = bytes(range(256)) * 16384  # 4 MiB: more than the socket pair buffers
        flow.segment_in(flow.rcv_nxt, flow.snd_una, TCP_ACK, 8192, data[:1000])
        flow._deliver(data[1000:])  # as if more segments came in the same settle pass
        assert flow.out_buf == data  # nothing sent before the pass ends
        flow.segment_in(flow.rcv_nxt, flow.snd_una, TCP_RST, 8192, b"")
        assert flow.state == "closed"
        received = bytearray()
        while chunk := far.recv(65536):
            received += chunk
            step(stack.loop)  # the loop sends more while a remainder waits
        assert received == data
        assert flow.sock is None and not stack._flows
        assert stack.drop_counts["drain_idle"] == 0
        far.close()

    def _draining_flow(self):
        """A torn-down flow with 8 MiB of out_buf left for a host that has read nothing."""
        stack, flow, far = self._flow_with_socketpair()
        flow.sock.setblocking(False)  # as every flow's socket is
        data = bytes(range(256)) * 32768

        def guest_sends_then_resets():  # in one callback, as guest frames arrive
            flow._deliver(data)
            flow._teardown()

        step(stack.loop, guest_sends_then_resets)
        assert flow in stack._draining and flow.out_buf
        return stack, flow, far, data

    def test_draining_flow_whose_host_never_reads_is_released(self):
        from emunet.usernet import DRAIN_IDLE_S

        stack, flow, far, _data = self._draining_flow()
        advance(stack.loop, DRAIN_IDLE_S - 0.01)
        assert flow.sock is not None and stack.drop_counts["drain_idle"] == 0
        advance(stack.loop, 0.01)
        assert flow.sock is None and not stack._draining
        assert stack.drop_counts["drain_idle"] == 1
        assert not timers(stack.loop)
        far.close()

    def test_draining_flow_whose_host_reads_is_not_cut_off(self):
        from emunet.usernet import DRAIN_IDLE_S

        stack, flow, far, data = self._draining_flow()
        advance(stack.loop, DRAIN_IDLE_S - 1)
        received = bytearray()
        far.setblocking(False)
        with pytest.raises(BlockingIOError):
            while True:  # the host takes all that its socket holds
                received += far.recv(65536)
        left = len(flow.out_buf)
        step(stack.loop)  # so the loop sends more
        assert len(flow.out_buf) < left
        advance(stack.loop, 1)  # the first deadline passes
        assert flow.sock is not None and stack.drop_counts["drain_idle"] == 0
        far.settimeout(5)
        while chunk := far.recv(65536):
            received += chunk
            step(stack.loop)
        assert received == data
        assert flow.sock is None and not stack._draining
        assert stack.drop_counts["drain_idle"] == 0
        far.close()

    def test_fragment_is_malformed_and_reaches_no_flow(self):
        stack, flow, far = self._established_flow()
        seg = TcpSegment(src_port=80, dst_port=49152, seq=flow.rcv_nxt, ack=flow.snd_una,
                         ack_flag=True, window=8192, payload=b"first part")
        src, dst = ip_to_bytes("10.0.2.15"), ip_to_bytes("10.0.2.2")
        raw = encode_ipv4(Ipv4Packet(src, dst, IPPROTO_TCP, encode_tcp(seg, src, dst)))
        stack.guest_frame_in(guest_frame(ipv4_with_flags(raw, 0x2000)))  # more fragments follow
        assert stack.drop_counts["ipv4_malformed"] == 1
        assert flow.out_buf == b"" and flow.rcv_nxt == seg.seq
        stack.guest_frame_in(guest_frame(raw))  # the same datagram, whole
        assert flow.out_buf == b"first part"
        flow._teardown()
        far.close()

    def test_handshake_timeout_closes_host_socket(self):
        stack, flow, far = self._flow_with_socketpair()
        far.settimeout(5)
        assert flow._handshake_timer is not None
        flow._handshake_timer.fn()
        assert flow.state == "closed"
        assert far.recv(100) == b""
        far.close()

    def test_forward_waiting_for_the_guest_sends_3_arp_requests_a_second_apart(self):
        import socket as socket_mod

        stack = nat_stack()
        rule = ForwardRule("tcp", "", 8080, "10.0.2.15", 80)  # a guest that never answers ARP
        near, far = socket_mod.socketpair()
        stack.host_connection_in(rule, near)
        requests = [(stack.loop.time(), frame) for frame in frames_out(stack)]
        for _ in range(110):  # every 50 ms re-check, to the 5 s deadline and past it
            advance(stack.loop, 0.05)
            requests += [(stack.loop.time(), frame) for frame in frames_out(stack)]
        assert all(frame.ethertype == ETHERTYPE_ARP for _at, frame in requests)
        asked = [decode_arp(frame.payload) for _at, frame in requests]
        assert [(pkt.op, pkt.target_ip) for pkt in asked] == [(ARP_OP_REQUEST, ip_to_bytes("10.0.2.15"))] * 3
        times = [at for at, _frame in requests]
        assert times[0] == 0 and all(b - a >= 1.0 - 1e-9 for a, b in zip(times, times[1:]))
        assert stack.drop_counts == {"fwd_no_guest": 1}
        far.settimeout(5)
        assert far.recv(100) == b""  # the host connection is closed
        far.close()

    def test_forward_waiting_for_the_guest_asks_3_times_in_5_seconds(self):
        import socket as socket_mod

        stack = nat_stack()
        near, far = socket_mod.socketpair()
        stack.host_connection_in(ForwardRule("tcp", "", 8080, "10.0.2.15", 80), near)
        advance(stack.loop, 5)
        assert [frame.ethertype for frame in frames_out(stack)] == [ETHERTYPE_ARP] * 3
        assert stack.drop_counts == {"fwd_no_guest": 1}
        far.close()

    def test_cancelled_timer_releases_its_callback(self):
        import weakref

        from emunet.eventloop import EventLoop

        class Owner:
            def fire(self):
                pass

        owner = Owner()
        ref = weakref.ref(owner)
        timer = EventLoop(lambda: None).call_later(5.0, owner.fire)
        timer.cancel()  # as a flow cancels its handshake timer once established
        del owner
        assert ref() is None  # not held until the deadline

    def test_timer_constants_match_policy(self):
        from emunet import usernet

        assert usernet.RETRANSMIT_S == 0.5
        assert usernet.MAX_RETRIES == 5
        assert usernet.HANDSHAKE_TIMEOUT_S == 5.0
        assert usernet.GUEST_WINDOW == 8192


def test_importing_the_nat_loads_no_thread_machinery():
    import subprocess
    import sys
    from pathlib import Path

    import emunet

    src = str(Path(emunet.__file__).parents[1])
    probe = "import sys, emunet.usernet; sys.exit(bool({'threading', 'queue'} & set(sys.modules)))"
    # -S: a site hook may import threading before any emunet code runs
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={"PYTHONPATH": src}, timeout=60
    )
    assert result.returncode == 0, "the NAT stack imports threading or queue"


class TestSubnetPlan:
    def test_membership(self):
        plan = SubnetPlan()
        assert plan.contains(ip_to_bytes("10.0.2.15"))
        assert plan.contains(ip_to_bytes("10.0.2.254"))
        assert not plan.contains(ip_to_bytes("10.0.3.1"))
        assert not plan.contains(ip_to_bytes("127.0.0.1"))

    def test_netmask(self):
        assert SubnetPlan().netmask == ip_to_bytes("255.255.255.0")


class TestHostReadBackpressure:
    @pytest.mark.parametrize("ending", ["teardown", "stop"])
    def test_send_buf_bounded_while_guest_never_acks(self, ending):
        import socket as socket_mod

        from emunet.usernet import SEND_BUF_HIGH, NatFlow

        sizes = []  # send_buf after each callback the loop ran

        def settle():  # the guest takes frames but never ACKs
            stack.poll_frames_out()
            sizes.append(len(flow.send_buf))

        stack = UserNetStack(NicConfig(model="open_eth", id="t0"), stepped_loop(settle))
        stack._arp_table[ip_to_bytes("10.0.2.15")] = GUEST_MAC
        near, far = socket_mod.socketpair()
        near.setblocking(False)
        far.setblocking(False)
        flow = NatFlow(
            stack,
            guest_ip=ip_to_bytes("10.0.2.15"),
            guest_port=80,
            remote_ip=ip_to_bytes("10.0.2.2"),
            remote_port=49152,
        )
        stack._flows[flow.key] = flow
        flow.sock = near
        flow.state = "established"
        step(stack.loop, lambda: flow._watch(0))
        data = b"\xa5" * (4 * 1024 * 1024)
        sent = 0
        for _ in range(10_000):
            try:
                sent += far.send(data[sent:sent + 65536])
                blocked = False
            except BlockingIOError:  # the host's socket buffers are full
                blocked = True
            callbacks = len(sizes)
            step(stack.loop)
            if blocked and len(sizes) == callbacks:
                break  # the host can send no more and the flow reads no more
        else:
            raise AssertionError("the flow never stopped reading")
        assert max(sizes) <= SEND_BUF_HIGH + 64 * 1024
        assert sizes[-1] >= SEND_BUF_HIGH  # stopped at the mark, not before
        if ending == "teardown":
            step(stack.loop, flow._teardown)
        else:
            stack.stop()
        assert near.fileno() == -1  # the host socket is closed
        with pytest.raises(OSError):
            far.send(data[sent:])  # the rest fails on the closed peer
        far.close()


class TestListenerLifecycle:
    def test_stop_releases_forwarded_port(self):
        import socket as socket_mod

        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rule = ForwardRule("tcp", "127.0.0.1", port, "", 80)
        stack = nat_stack([rule])
        stack.start()
        stack.stop()
        with pytest.raises(ConnectionRefusedError):
            socket_mod.create_connection(("127.0.0.1", port), timeout=2).close()
        again = nat_stack([rule])
        again.start()  # raises OSError if the old listener still holds the port
        again.stop()


class TestHostSocketFailures:
    GUEST = ip_to_bytes("10.0.2.15")
    REMOTE = ip_to_bytes("127.0.0.1")

    def _stack(self, forwards=None):
        stack = nat_stack(forwards)
        stack._arp_table[self.GUEST] = GUEST_MAC
        return stack

    def _syn_in(self, stack, port):
        seg = TcpSegment(src_port=40000, dst_port=port, seq=1000, ack=0, syn=True, window=8192)
        pkt = Ipv4Packet(self.GUEST, self.REMOTE, IPPROTO_TCP, encode_tcp(seg, self.GUEST, self.REMOTE))
        stack.guest_frame_in(guest_frame(encode_ipv4(pkt)))
        return stack._flows.get((self.GUEST, 40000, self.REMOTE, port))

    def test_new_syn_on_the_ports_of_a_draining_flow_opens_a_new_flow(self):
        import select
        import socket as socket_mod

        server = socket_mod.socket()
        server.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF, 65536)
        server.bind(("127.0.0.1", 0))
        server.listen(2)
        port = server.getsockname()[1]
        stack = self._stack()
        old = self._syn_in(stack, port)
        assert select.select([], [old.sock], [], 5)[1]
        step(stack.loop)  # the connect is through
        assert old.state == "syn_rcvd"
        conn, _ = server.accept()
        data = bytes(range(256)) * 32768  # 8 MiB: more than the host socket buffers
        old._deliver(data)
        old._teardown()
        assert old.out_buf and old.sock is not None  # still sending to the host
        assert old not in stack._flows.values() and old in stack._draining

        new = self._syn_in(stack, port)
        assert new is not None and new is not old and new.state == "connecting"
        assert stack.drop_counts["tcp_no_flow"] == 0

        conn.settimeout(5)
        received = bytearray()
        while chunk := conn.recv(65536):
            received += chunk
            step(stack.loop)  # the loop sends more while a remainder waits
        assert received == data
        assert old.sock is None and not stack._draining
        assert stack._flows[new.key] is new  # the old flow's release left the new one alone
        stack.stop()
        assert new.sock.fileno() == -1
        conn.close()
        server.close()

    def test_stop_closes_the_socket_of_a_draining_flow(self):
        import socket as socket_mod

        from emunet.usernet import NatFlow

        stack = self._stack()
        near, far = socket_mod.socketpair()
        near.setblocking(False)  # as every flow's socket is
        flow = NatFlow(stack, self.GUEST, 80, ip_to_bytes("10.0.2.2"), 49152)
        stack._flows[flow.key] = flow
        flow.start_inbound(near)
        flow._deliver(bytes(8 << 20))
        flow._teardown()
        assert flow in stack._draining
        stack.stop()
        assert near.fileno() == -1 and not stack._draining
        far.close()

    def test_connect_that_cannot_get_a_socket_is_refused_with_rst(self, monkeypatch):
        import errno

        from emunet import usernet

        def no_descriptors(*_args):
            raise OSError(errno.EMFILE, "Too many open files")

        stack = self._stack()
        monkeypatch.setattr(usernet.socket, "socket", no_descriptors)
        assert self._syn_in(stack, 9) is None  # torn down at once
        (frame,) = frames_out(stack)
        pkt = decode_ipv4(frame.payload)
        rst = decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)
        assert rst.rst and rst.ack_flag and rst.ack == 1001
        assert not stack._flows and not stack._draining

    def test_accept_that_fails_for_want_of_descriptors_rests_the_listener(self):
        import errno
        import socket as socket_mod

        from emunet.usernet import ACCEPT_RETRY_S

        class Listener(socket_mod.socket):
            def accept(self):
                raise OSError(errno.EMFILE, "Too many open files")

        listener = Listener()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        rule = ForwardRule("tcp", "127.0.0.1", listener.getsockname()[1], "", 80)
        client = socket_mod.create_connection(listener.getsockname(), timeout=5)
        stack = self._stack([rule])
        stack._listeners.append(listener)
        stack._watch_listener(rule, listener)
        step(stack.loop)  # the pending connection makes the listener readable
        assert stack.drop_counts["fwd_accept_failed"] == 1
        step(stack.loop)
        assert stack.drop_counts["fwd_accept_failed"] == 1  # the loop no longer wakes for it
        (rest,) = timers(stack.loop)
        assert rest.deadline == stack.loop.time() + ACCEPT_RETRY_S
        advance(stack.loop, ACCEPT_RETRY_S)
        assert stack.drop_counts["fwd_accept_failed"] == 2  # watched again, so tried again
        stack._listeners.clear()  # as stop() does
        advance(stack.loop, ACCEPT_RETRY_S)
        assert stack.drop_counts["fwd_accept_failed"] == 2  # a closed listener is not watched again
        assert not timers(stack.loop)
        client.close()
        listener.close()
