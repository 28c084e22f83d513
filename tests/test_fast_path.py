"""Header prediction at both ends of the virtual wire.

A data or ACK segment of an established connection goes from raw bytes
straight to ``TcpEndpoint._data_in``; every other frame takes the full
decode path.  These tests hold the two paths to the same result: the same
frames out, byte for byte, the same endpoint state and the same drop counts.
"""

import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emunet.tcp import seq_add
from emunet.usernet import NatFlow, SubnetPlan
from emunet.wire import (
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    EthernetFrame,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
    decode_frame,
    decode_ipv4,
    decode_tcp,
    encode_frame,
    encode_ipv4,
    encode_tcp,
    ip_to_bytes,
)
from helpers import boot, nat_stack, step, stepped_instance

GUEST_IP = ip_to_bytes("10.0.2.15")
GATEWAY_IP = ip_to_bytes("10.0.2.2")
GUEST_MAC = MacAddress.parse("52:54:00:12:34:56")
GATEWAY_MAC = SubnetPlan().gateway_mac
OTHER_MAC = MacAddress.parse("52:54:00:aa:bb:cc")
NAT_PORT, GUEST_PORT = 49152, 80
PEER_ISS = 7000
IPV4_CHECKSUM = 14 + 10  # offset of a byte of it in the frame
TCP_CHECKSUM = 14 + 20 + 16


def tcp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload=b"", window=8192):
    """A frame built by the object codecs, as the full path decodes it."""
    seg = TcpSegment(
        src_port, dst_port, seq, ack, syn=bool(flags & TCP_SYN), ack_flag=bool(flags & TCP_ACK),
        fin=bool(flags & TCP_FIN), rst=bool(flags & TCP_RST), psh=bool(flags & TCP_PSH),
        window=window, payload=payload,
    )
    pkt = Ipv4Packet(src_ip, dst_ip, IPPROTO_TCP, encode_tcp(seg, src_ip, dst_ip))
    return encode_frame(EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, encode_ipv4(pkt)))


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


class _NatEnd:
    """An established NAT flow toward the guest, fed frames as the guest sends them."""

    kind = "nat"
    peer_mac = GUEST_MAC

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

    def frame(self, seq, ack, flags, payload=b"", window=8192, src_mac=GUEST_MAC):
        return tcp_frame(src_mac, GATEWAY_MAC, GUEST_IP, GATEWAY_IP, GUEST_PORT, NAT_PORT,
                         seq, ack, flags, payload, window)

    def frame_in(self, raw):
        self.stack.guest_frame_in(raw)

    def full_path(self, raw):
        self.stack._full_path(raw)

    def close_local(self):
        self.ep.host_eof_seen()

    def out(self):
        return self.stack.poll_frames_out()

    def arp(self):
        return self.stack._arp_table

    def delivered(self):
        return bytes(self.ep.out_buf)

    def close(self):
        self.host.close()
        self.far.close()


class _GuestEnd:
    """An established guest connection to the echo server, fed frames as the NAT sends them."""

    kind = "guest"
    peer_mac = GATEWAY_MAC

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

    def frame(self, seq, ack, flags, payload=b"", window=8192, src_mac=GATEWAY_MAC):
        return tcp_frame(src_mac, self.stack.mac, GATEWAY_IP, GUEST_IP, NAT_PORT, GUEST_PORT,
                         seq, ack, flags, payload, window)

    def frame_in(self, raw):
        self.stack._frame_in(raw)

    def full_path(self, raw):
        self.stack._full_path(raw)

    def close_local(self):
        self.ep.close()

    def out(self):
        sent = self.inst.guest_tx_raw[self._cursor:]
        self._cursor = len(self.inst.guest_tx_raw)
        return sent

    def arp(self):
        return self.stack.arp_table

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


def endpoint_state(end) -> dict:
    ep = end.ep
    state = {name: getattr(ep, name) for name in (
        "state", "snd_una", "snd_nxt", "rcv_nxt", "last_ack_sent", "peer_window",
        "close_requested", "fin_sent", "fin_acked", "peer_fin",
    )}
    table = end.stack._flows if end.kind == "nat" else end.stack.conns
    state.update(
        send_buf=bytes(ep.send_buf), registered=ep.key in table, delivered=end.delivered(),
        arp={ip: mac.octets for ip, mac in end.arp().items()}, drops=dict(end.stack.drop_counts),
    )
    return state


_STEP = st.tuples(
    st.sampled_from(["next", "next", "next", "duplicate", "ahead"]),
    st.sampled_from([0, 0, 1, 7, 64, 1460]),  # payload length
    st.sampled_from(["all", "some", "none", "stale"]),  # what the ACK covers
    st.sampled_from([8192, 8192, 0, 1000, 65535]),  # window
    st.sampled_from([TCP_ACK, TCP_ACK | TCP_PSH, TCP_ACK | TCP_PSH, TCP_ACK | TCP_FIN, TCP_ACK | TCP_RST]),
    st.sampled_from(["ok", "ok", "ok", "ok", "bad_tcp", "bad_ipv4", "new_mac"]),
    st.sampled_from([False, False, False, False, False, True]),  # close our end first
)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(ENDS)), steps=st.lists(_STEP, min_size=1, max_size=12))
def test_fast_and_full_path_agree_byte_for_byte(kind, steps):
    fast, full = ENDS[kind](), ENDS[kind]()
    try:
        assert endpoint_state(fast) == endpoint_state(full)
        for where, length, covers, window, flags, damage, close in steps:
            if close:  # to fin_wait, where the fast path also applies
                fast.close_local()
                full.close_local()
            ep = fast.ep
            seq = {"next": ep.rcv_nxt, "duplicate": seq_add(ep.rcv_nxt, -3), "ahead": seq_add(ep.rcv_nxt, 100)}[where]
            flight = (ep.snd_nxt - ep.snd_una) & 0xFFFFFFFF
            ack = {
                "all": ep.snd_nxt, "some": seq_add(ep.snd_una, min(flight, 500)),
                "none": ep.snd_una, "stale": seq_add(ep.snd_una, -1000),
            }[covers]
            src_mac = OTHER_MAC if damage == "new_mac" else fast.peer_mac
            payload = bytes(i % 251 for i in range(length))
            raw = bytearray(fast.frame(seq, ack, flags, payload, window, src_mac))
            if damage == "bad_tcp":
                raw[TCP_CHECKSUM] ^= 0x01
            elif damage == "bad_ipv4":
                raw[IPV4_CHECKSUM] ^= 0x01
            fast.frame_in(bytes(raw))
            full.full_path(bytes(raw))
            assert fast.out() == full.out()
            assert endpoint_state(fast) == endpoint_state(full)
        assert full.stack.fast_path_frames == 0
    finally:
        fast.close()
        full.close()


def test_predicted_segment_takes_the_fast_path(end):
    ack, rcv_nxt = end.ep.snd_nxt, end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, ack, TCP_ACK | TCP_PSH, b"predicted"))
    assert end.stack.fast_path_frames == 1
    assert end.ep.snd_una == ack and end.ep.rcv_nxt == seq_add(rcv_nxt, len(b"predicted"))


@pytest.mark.parametrize("damage", ["tcp", "ipv4"])
def test_bad_checksum_on_an_established_segment_is_dropped_and_counted(end, damage):
    good = end.frame(end.ep.rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"data")
    bad = bytearray(good)
    bad[TCP_CHECKSUM if damage == "tcp" else IPV4_CHECKSUM] ^= 0x01
    before = endpoint_state(end)
    end.frame_in(bytes(bad))
    assert end.stack.drop_counts == {f"{damage}_malformed": 1}  # as the full path counts it
    assert end.stack.fast_path_frames == 0 and end.out() == []
    assert endpoint_state(end) == {**before, "drops": {f"{damage}_malformed": 1}}
    end.frame_in(good)  # the same segment, whole
    assert end.stack.fast_path_frames == 1
    assert end.ep.rcv_nxt == seq_add(before["rcv_nxt"], 4)


def test_segment_from_a_new_source_mac_takes_the_full_path_and_updates_arp(end):
    peer_ip = GUEST_IP if end.kind == "nat" else GATEWAY_IP
    assert end.arp()[peer_ip] == end.peer_mac
    rcv_nxt = end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"moved", src_mac=OTHER_MAC))
    assert end.stack.fast_path_frames == 0
    assert end.arp()[peer_ip] == OTHER_MAC
    assert end.ep.rcv_nxt == seq_add(rcv_nxt, 5)
    sent = end.out()
    assert sent and all(raw[:6] == OTHER_MAC.octets for raw in sent)  # replies follow the new MAC
    end.frame_in(end.frame(end.ep.rcv_nxt, end.ep.snd_nxt, TCP_ACK, src_mac=OTHER_MAC))
    assert end.stack.fast_path_frames == 1  # predicted again once ARP agrees


def test_guest_with_a_packet_waiting_for_arp_takes_the_full_path():
    end = _GuestEnd()
    end.stack.arp_pending[ip_to_bytes("10.0.2.40")] = [bytes(60)]
    rcv_nxt = end.ep.rcv_nxt
    end.frame_in(end.frame(rcv_nxt, end.ep.snd_nxt, TCP_ACK | TCP_PSH, b"x"))
    assert end.stack.fast_path_frames == 0
    assert end.ep.rcv_nxt == seq_add(rcv_nxt, 1)


def test_64k_echo_takes_the_fast_path_for_every_established_data_segment():
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
    assert inst.usernet.fast_path_frames == len(to_nat)
    assert inst.guest.fast_path_frames == len(to_guest)
    assert not inst.usernet.drop_counts and not inst.guest.drop_counts
    near.close()
    far.close()
