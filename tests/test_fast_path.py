"""The one TCP input at both ends of the virtual wire, and header prediction in it.

Each stack parses a TCP frame once, with ``decode_tcp_frame``, and gives it
to ``TcpEndpoint.segment_in``, whose synchronized branch takes a data or ACK
segment of an established connection straight away.  These tests hold that
door to a reference driver, written here, that decodes with the oracles in
``reference.py`` and applies each stack's object-decode rules for ARP
learning, drops and segments to no connection: the same frames out, byte for
byte, the same endpoint state, the same drop counts and the same ARP table.
"""

import random
import socket
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emunet
from emunet.guest import GuestTcpConn
from emunet.tcp import TcpEndpoint, seq_add
from emunet.usernet import NatFlow, SubnetPlan
from emunet.wire import (
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    MacAddress,
    ip_to_bytes,
)
from helpers import boot, get_hello, nat_stack, step, stepped_instance
from reference import (
    OPT_TIMESTAMP,
    EthernetFrame,
    Ipv4Packet,
    TcpSegment,
    decode_frame,
    decode_ipv4,
    decode_tcp,
    encode_frame,
    encode_ipv4,
    encode_tcp,
    tcp_checksum_reference,
)

GUEST_IP = ip_to_bytes("10.0.2.15")
GATEWAY_IP = ip_to_bytes("10.0.2.2")
OTHER_IP = ip_to_bytes("10.0.2.40")  # on the subnet, so the NAT opens no host socket for it
ZERO_IP = bytes(4)
BROADCAST_IP = b"\xff" * 4
GUEST_MAC = MacAddress.parse("52:54:00:12:34:56")
GATEWAY_MAC = SubnetPlan().gateway_mac
OTHER_MAC = MacAddress.parse("52:54:00:aa:bb:cc")
NAT_PORT, GUEST_PORT = 49152, 80
PEER_ISS = 7000
IPV4_CHECKSUM = 14 + 10  # offset of a byte of it in the frame
TCP_CHECKSUM = 14 + 20 + 16
TCP_OFFSET = 14 + 20 + 12


def tcp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload=b"", window=8192,
              options=b""):
    """A frame built by the oracle encoder."""
    seg = TcpSegment(
        src_port, dst_port, seq, ack, syn=bool(flags & TCP_SYN), ack_flag=bool(flags & TCP_ACK),
        fin=bool(flags & TCP_FIN), rst=bool(flags & TCP_RST), psh=bool(flags & TCP_PSH),
        window=window, payload=payload,
    )
    pkt = Ipv4Packet(src_ip, dst_ip, IPPROTO_TCP, encode_tcp(seg, src_ip, dst_ip, options))
    return encode_frame(EthernetFrame(dst_mac.octets, src_mac.octets, ETHERTYPE_IPV4, encode_ipv4(pkt)))


def segments(raw_frames):
    out = []
    for raw in raw_frames:
        frame = decode_frame(raw)
        if frame.ethertype != ETHERTYPE_IPV4:
            continue
        pkt = decode_ipv4(frame.payload)
        if pkt.protocol == IPPROTO_TCP:
            out.append(decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip))
    return out


def nat_reference_in(stack, raw):
    """A guest frame into the NAT by the reference decoders and the NAT's rules."""
    frame = decode_frame(raw)
    try:
        pkt = decode_ipv4(frame.payload)
    except ValueError:
        stack.drop_counts["ipv4_malformed"] += 1
        return
    if pkt.src_ip != ZERO_IP:
        stack._arp_table[pkt.src_ip] = MacAddress(frame.src)
    try:
        seg = decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)
    except ValueError:
        stack.drop_counts["tcp_malformed"] += 1
        return
    flow = stack._flows.get((pkt.src_ip, seg.src_port, pkt.dst_ip, seg.dst_port))
    if flow is not None:
        flow.segment_in(seg.seq, seg.ack, seg.flags, seg.window, seg.payload)
        return
    assert stack.subnet.contains(pkt.dst_ip), "the test would open a host socket"
    stack.drop_counts["tcp_no_flow"] += 1


def guest_reference_in(stack, raw):
    """A frame into the guest by the reference decoders and the guest's rules."""
    frame = decode_frame(raw)
    try:
        pkt = decode_ipv4(frame.payload)
    except ValueError:
        stack._count("ipv4_malformed")
        return
    src, dst = pkt.src_ip, pkt.dst_ip
    if src != ZERO_IP:
        stack.arp_table[src] = MacAddress(frame.src)
        for held in stack.arp_pending.pop(src, ()):
            stack.driver.transmit(frame.src + held[6:])
    if dst != BROADCAST_IP and dst != stack.ip:
        stack._count("ip_not_for_us")
        return
    if dst != stack.ip:
        stack._count("ip_proto")
        return
    try:
        seg = decode_tcp(pkt.payload, src, dst)
    except ValueError:
        stack._count("tcp_malformed")
        return
    key = (src, seg.src_port, seg.dst_port)
    conn = stack.conns.get(key)
    if conn is not None:
        conn.segment_in(seg.seq, seg.ack, seg.flags, seg.window, seg.payload)
    elif seg.syn and not seg.ack_flag and seg.dst_port in stack.listeners:
        conn = GuestTcpConn(stack, seg.dst_port, src, seg.src_port, stack.listeners[seg.dst_port])
        stack.conns[key] = conn
        conn.passive_open(seg.seq, seg.window)
    elif not seg.rst:  # RFC 9293 section 3.10.7.1
        stack._count("tcp_closed_port")
        if seg.ack_flag:
            seq, ack, flags = seg.ack, 0, TCP_RST
        else:
            seq, ack, flags = 0, seq_add(seg.seq, len(seg.payload) + seg.syn + seg.fin), TCP_RST | TCP_ACK
        stack.send_tcp(src, stack._next_hop(src), int.from_bytes(dst + src, "big"),
                       seg.dst_port, seg.src_port, seq, ack, flags)


class _NatEnd:
    """An established NAT flow toward the guest, fed frames as the guest sends them."""

    kind = "nat"
    peer_mac = GUEST_MAC
    peer_ip = GUEST_IP

    def __init__(self):
        self.stack = nat_stack()
        self.stack._arp_table[GUEST_IP] = GUEST_MAC
        self.host, self.far = socket.socketpair()
        self.ep = NatFlow(self.stack, GUEST_IP, GUEST_PORT, GATEWAY_IP, NAT_PORT)
        self.stack._flows[self.ep.key] = self.ep
        self.ep.start_inbound(self.host)
        self.frame_in(self.frame(PEER_ISS, seq_add(self.ep.iss, 1), TCP_SYN | TCP_ACK))
        assert self.ep.state == "established"
        self.ep.host_data(bytes(range(250)) * 12)  # in flight for the ACKs to take, and under one window
        self.out()

    def frame(self, seq, ack, flags, payload=b"", window=8192, src_mac=GUEST_MAC, dst_ip=None, options=b"",
              dst_port=None):
        return tcp_frame(src_mac, GATEWAY_MAC, GUEST_IP, dst_ip or GATEWAY_IP, GUEST_PORT, dst_port or NAT_PORT,
                         seq, ack, flags, payload, window, options)

    def frame_in(self, raw):
        self.stack.guest_frame_in(raw)

    def reference_in(self, raw):
        nat_reference_in(self.stack, raw)

    def close_local(self):
        self.ep.host_eof_seen()

    def out(self):
        return self.stack.poll_frames_out()

    def arp(self):
        return self.stack._arp_table

    def table(self):
        return self.stack._flows

    def delivered(self):
        return bytes(self.ep.out_buf)

    def close(self):
        self.host.close()
        self.far.close()


class _GuestEnd:
    """An established guest connection to the echo server, fed frames as the NAT sends them."""

    kind = "guest"
    peer_mac = GATEWAY_MAC
    peer_ip = GATEWAY_IP

    def __init__(self):
        self.inst = stepped_instance(mode="echo")
        boot(self.inst)
        self.stack = self.inst.guest
        self.frame_in(self.frame(PEER_ISS, 0, TCP_SYN))
        self.ep = self.stack.conns[(GATEWAY_IP, NAT_PORT, GUEST_PORT)]
        self.frame_in(self.frame(seq_add(PEER_ISS, 1), seq_add(self.ep.iss, 1), TCP_ACK))
        assert self.ep.state == "established"
        self.ep.send(bytes(range(250)) * 12)
        self._cursor = 0
        self.out()

    def frame(self, seq, ack, flags, payload=b"", window=8192, src_mac=GATEWAY_MAC, dst_ip=None, options=b"",
              dst_port=None):
        return tcp_frame(src_mac, self.stack.mac, GATEWAY_IP, dst_ip or GUEST_IP, NAT_PORT, dst_port or GUEST_PORT,
                         seq, ack, flags, payload, window, options)

    def frame_in(self, raw):
        self.stack._frame_in(raw)

    def reference_in(self, raw):
        guest_reference_in(self.stack, raw)

    def close_local(self):
        self.ep.close()

    def out(self):
        sent = self.inst.guest_tx_raw[self._cursor:]
        self._cursor = len(self.inst.guest_tx_raw)
        return sent

    def arp(self):
        return self.stack.arp_table

    def table(self):
        return self.stack.conns

    def delivered(self):
        return self.stack.app_data_events

    def close(self):
        pass


ENDS = {"nat": _NatEnd, "guest": _GuestEnd}


@pytest.fixture(params=sorted(ENDS))
def end(request):
    end = ENDS[request.param]()
    yield end
    end.close()


@pytest.fixture
def engine_entries(monkeypatch):
    """Per endpoint: the calls of ``segment_in``, and the entries into its
    synchronized branch, whose first step takes a segment's ACK."""
    calls, data_branch = Counter(), Counter()
    segment_in, process_ack = TcpEndpoint.segment_in, TcpEndpoint._process_ack

    def counted_segment_in(self, *fields):
        calls[self] += 1
        return segment_in(self, *fields)

    def counted_process_ack(self, *args):
        data_branch[self] += 1
        return process_ack(self, *args)

    monkeypatch.setattr(TcpEndpoint, "segment_in", counted_segment_in)
    monkeypatch.setattr(TcpEndpoint, "_process_ack", counted_process_ack)
    return calls, data_branch


def endpoint_state(end) -> dict:
    ep = end.ep
    state = {name: getattr(ep, name) for name in (
        "state", "snd_una", "snd_nxt", "rcv_nxt", "last_ack_sent", "peer_window",
        "close_requested", "fin_sent", "fin_acked", "peer_fin",
    )}
    state.update(
        send_buf=bytes(ep.send_buf), registered=ep.key in end.table(), delivered=end.delivered(),
        table={key: (conn.state, conn.snd_nxt, conn.rcv_nxt) for key, conn in end.table().items()},
        arp={ip: mac.octets for ip, mac in end.arp().items()}, drops=dict(end.stack.drop_counts),
        pending={ip: list(frames) for ip, frames in getattr(end.stack, "arp_pending", {}).items()},
    )
    return state


_STEP = st.tuples(
    st.sampled_from(["next", "next", "next", "duplicate", "ahead"]),
    st.sampled_from([0, 0, 1, 7, 64, 1460]),  # payload length
    st.sampled_from(["all", "some", "none", "stale"]),  # what the ACK covers
    st.sampled_from([8192, 8192, 0, 1000, 65535]),  # window
    st.sampled_from([
        TCP_ACK, TCP_ACK | TCP_PSH, TCP_ACK | TCP_PSH, TCP_ACK | TCP_FIN, TCP_ACK | TCP_RST,
        TCP_SYN, TCP_SYN | TCP_ACK, TCP_RST,
    ]),
    st.sampled_from(["ok", "ok", "ok", "ok", "bad_tcp", "bad_ipv4", "bad_offset", "options"]),
    st.sampled_from(["peer", "peer", "peer", "new_mac", "other_ip", "other_port"]),  # the addresses
    st.sampled_from([False, False, False, False, False, True]),  # close our end first
)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(ENDS)), steps=st.lists(_STEP, min_size=1, max_size=12))
def test_one_door_agrees_with_the_reference_driver_byte_for_byte(kind, steps):
    door, ref = ENDS[kind](), ENDS[kind]()
    try:
        assert endpoint_state(door) == endpoint_state(ref)
        for where, length, covers, window, flags, damage, addresses, close in steps:
            if close:  # to fin_wait, where the synchronized branch also applies
                door.close_local()
                ref.close_local()
            ep = door.ep
            seq = {"next": ep.rcv_nxt, "duplicate": seq_add(ep.rcv_nxt, -3), "ahead": seq_add(ep.rcv_nxt, 100)}[where]
            flight = (ep.snd_nxt - ep.snd_una) & 0xFFFFFFFF
            ack = {
                "all": ep.snd_nxt, "some": seq_add(ep.snd_una, min(flight, 500)),
                "none": ep.snd_una, "stale": seq_add(ep.snd_una, -1000),
            }[covers]
            src_mac = OTHER_MAC if addresses == "new_mac" else door.peer_mac
            dst_ip = OTHER_IP if addresses == "other_ip" else None
            dst_port = 81 if addresses == "other_port" else None  # no connection, and closed at the guest
            options = OPT_TIMESTAMP if damage == "options" else b""
            payload = bytes(i % 251 for i in range(min(length, 1460 - len(options))))
            raw = bytearray(door.frame(seq, ack, flags, payload, window, src_mac, dst_ip, options, dst_port))
            if damage == "bad_tcp":
                raw[TCP_CHECKSUM] ^= 0x01
            elif damage == "bad_ipv4":
                raw[IPV4_CHECKSUM] ^= 0x01
            elif damage == "bad_offset":  # past the segment, its checksum made to fit
                raw[TCP_OFFSET] = 15 << 4
                raw[TCP_CHECKSUM:TCP_CHECKSUM + 2] = b"\x00\x00"
                end = 14 + int.from_bytes(raw[16:18], "big")
                checksum = tcp_checksum_reference(raw[26:30], raw[30:34], bytes(raw[34:end]))
                raw[TCP_CHECKSUM:TCP_CHECKSUM + 2] = checksum.to_bytes(2, "big")
            door.frame_in(bytes(raw))
            ref.reference_in(bytes(raw))
            assert door.out() == ref.out()
            assert endpoint_state(door) == endpoint_state(ref)
    finally:
        door.close()
        ref.close()


def test_predicted_segment_takes_the_fast_path(end, engine_entries):
    calls, data_branch = engine_entries
    ack, rcv_nxt = end.ep.snd_nxt, end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, ack, TCP_ACK | TCP_PSH, b"predicted"))
    assert calls == data_branch == {end.ep: 1}
    assert end.ep.snd_una == ack and end.ep.rcv_nxt == seq_add(rcv_nxt, len(b"predicted"))


@pytest.mark.parametrize("damage", ["tcp", "ipv4"])
def test_bad_checksum_on_an_established_segment_is_dropped_and_counted(end, damage, engine_entries):
    calls, data_branch = engine_entries
    good = end.frame(end.ep.rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"data")
    bad = bytearray(good)
    bad[TCP_CHECKSUM if damage == "tcp" else IPV4_CHECKSUM] ^= 0x01
    before = endpoint_state(end)
    end.frame_in(bytes(bad))
    assert end.stack.drop_counts == {f"{damage}_malformed": 1}
    assert not calls and end.out() == []
    assert endpoint_state(end) == {**before, "drops": {f"{damage}_malformed": 1}}
    end.frame_in(good)  # the same segment, whole
    assert calls == data_branch == {end.ep: 1}
    assert end.ep.rcv_nxt == seq_add(before["rcv_nxt"], 4)


def test_segment_from_a_new_source_mac_updates_arp_and_is_delivered(end, engine_entries):
    calls, data_branch = engine_entries
    assert end.arp()[end.peer_ip] == end.peer_mac
    rcv_nxt = end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"moved", src_mac=OTHER_MAC))
    assert end.arp()[end.peer_ip] == OTHER_MAC
    assert end.ep.rcv_nxt == seq_add(rcv_nxt, 5)
    sent = end.out()
    assert sent and all(raw[:6] == OTHER_MAC.octets for raw in sent)  # replies follow the new MAC
    end.frame_in(end.frame(end.ep.rcv_nxt, end.ep.snd_nxt, TCP_ACK, src_mac=OTHER_MAC))
    assert calls == data_branch == {end.ep: 2}


def test_guest_segment_from_a_hop_with_packets_waiting_for_arp_flushes_them():
    end = _GuestEnd()
    held = bytes(6) + bytes(range(54))  # a frame waiting with a zero destination MAC
    end.stack.arp_pending[GATEWAY_IP] = [held]
    end.stack.arp_pending[OTHER_IP] = [bytes(60)]
    rcv_nxt = end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"x"))  # from a known MAC
    assert end.ep.rcv_nxt == seq_add(rcv_nxt, 1)
    assert end.out()[0] == GATEWAY_MAC.octets + held[6:]
    assert list(end.stack.arp_pending) == [OTHER_IP]  # another hop's packets wait on


def test_64k_echo_takes_the_fast_path_for_every_established_data_segment(engine_entries):
    calls, data_branch = engine_entries
    inst = stepped_instance(mode="echo")
    boot(inst)
    near, far = socket.socketpair()
    near.setblocking(False)
    flow = NatFlow(inst.usernet, GUEST_IP, GUEST_PORT, GATEWAY_IP, NAT_PORT)
    inst.usernet._flows[flow.key] = flow
    step(inst.loop, lambda: flow.start_inbound(near))
    conn = inst.guest.conns[(GATEWAY_IP, NAT_PORT, GUEST_PORT)]
    assert flow.state == conn.state == "established"
    guest_tx, usernet_tx = len(inst.guest_tx_raw), len(inst.usernet_tx_raw)
    calls.clear()
    data_branch.clear()
    payload = random.Random(0xFA57).randbytes(64 * 1024)
    far.sendall(payload)
    far.setblocking(False)
    echoed = bytearray()
    for _ in range(1000):
        if len(echoed) == len(payload):
            break
        step(inst.loop)
        try:
            echoed += far.recv(1 << 20)
        except BlockingIOError:
            pass
    assert echoed == payload
    to_nat = segments(inst.guest_tx_raw[guest_tx:])
    to_guest = segments(inst.usernet_tx_raw[usernet_tx:])
    assert len(to_nat) > 40 and len(to_guest) > 40
    predicted = {(True, False, False, False)}
    assert {(s.ack_flag, s.syn, s.fin, s.rst) for s in to_nat + to_guest} == predicted
    assert calls == data_branch == {flow: len(to_nat), conn: len(to_guest)}
    assert not inst.usernet.drop_counts and not inst.guest.drop_counts
    near.close()
    far.close()


DECODERS = ("decode_tcp_frame", "decode_udp_frame", "decode_arp", "decode_dhcp")


class TestDecodesPerRequest:
    """Each TCP frame is parsed once, by ``decode_tcp_frame``, whatever its flags."""

    def test_get_hello_parses_each_of_its_10_frames_once(self, monkeypatch):
        inst = stepped_instance()
        boot(inst)
        get_hello(inst)  # warm-up
        decodes = Counter()
        modules = [getattr(emunet, name) for name in ("wire", "usernet", "guest", "harness", "device")]
        for name in DECODERS:
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self._counted(decodes, name, getattr(module, name)))
        frames = len(inst.guest_tx_raw) + len(inst.usernet_tx_raw)
        requests = 3
        for _ in range(requests):
            get_hello(inst)
        assert len(inst.guest_tx_raw) + len(inst.usernet_tx_raw) - frames == 10 * requests
        assert {name: decodes[name] for name in DECODERS} == {
            "decode_tcp_frame": 10 * requests, "decode_udp_frame": 0, "decode_arp": 0, "decode_dhcp": 0,
        }

    @staticmethod
    def _counted(decodes, name, fn):
        def counted(*args):
            decodes[name] += 1
            return fn(*args)

        return counted
