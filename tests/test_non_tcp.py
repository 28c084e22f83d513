"""ARP and UDP/DHCP frames at both ends of the virtual wire.

Each stack has one frame input, and every frame that is not TCP goes through
the same checks in it, one layer after another: Ethernet, then ARP or IPv4,
then UDP, then DHCP.  The first check that fails names the drop.  These tests
pin each drop name at each stack, and which name wins when a frame is wrong
in more than one layer.  They also pin the bytes of every ARP and DHCP frame
the stacks send, against the oracle encoders in ``reference.py``.
"""

import socket
from collections import Counter

import pytest

from emunet.guest import EchoApp
from emunet.usernet import ForwardRule
from emunet.wire import (
    DHCP_ACK,
    DHCP_DISCOVER,
    DHCP_OFFER,
    DHCP_REQUEST,
    DhcpMessage,
    MacAddress,
    decode_dhcp,
    encode_dhcp,
)
from helpers import advance, boot, nat_stack, step, stepped_instance
from reference import (
    EthernetFrame,
    Ipv4Packet,
    UdpDatagram,
    decode_frame,
    decode_ipv4,
    decode_udp,
    encode_arp_reference,
    encode_frame,
    encode_ipv4,
    encode_udp,
    ones_complement_checksum,
    pad_frame,
)

GUEST_MAC = bytes.fromhex("525400123456")
GATEWAY_MAC = bytes.fromhex("52550a000202")
OTHER_MAC = bytes.fromhex("525400aabbcc")
BROADCAST_MAC = b"\xff" * 6
ZERO_MAC = bytes(6)
GUEST_IP = bytes((10, 0, 2, 15))
GATEWAY_IP = bytes((10, 0, 2, 2))
DNS_IP = bytes((10, 0, 2, 3))
OTHER_IP = bytes((10, 0, 2, 40))
ZERO_IP = bytes(4)
BROADCAST_IP = b"\xff" * 4
ARP, IPV4, IPV6 = 0x0806, 0x0800, 0x86DD
ICMP, UDP = 1, 17
IPV4_AT = 14  # where the IPv4 header starts in a frame
UDP_AT = 14 + 20


def ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, protocol, payload, ident=1):
    return encode_frame(EthernetFrame(dst_mac, src_mac, IPV4, encode_ipv4(Ipv4Packet(
        src_ip, dst_ip, protocol, payload, ident=ident))))


def udp_frame(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port, payload, ident=1):
    datagram = encode_udp(UdpDatagram(src_port, dst_port, payload), src_ip, dst_ip)
    return ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, UDP, datagram, ident)


def arp_frame(dst_mac, src_mac, op, sender_mac, sender_ip, target_mac, target_ip):
    return pad_frame(dst_mac, src_mac, ARP, encode_arp_reference(op, sender_mac, sender_ip, target_mac, target_ip))


def with_ipv4_header(raw, offset, value):
    """``raw`` with ``value`` written at ``offset`` of its IPv4 header, and
    the header checksum made to fit."""
    header = bytearray(raw[IPV4_AT:IPV4_AT + 20])
    header[offset:offset + len(value)] = value
    header[10:12] = b"\x00\x00"
    header[10:12] = ones_complement_checksum(bytes(header)).to_bytes(2, "big")
    return raw[:IPV4_AT] + bytes(header) + raw[IPV4_AT + 20:]


def flipped(raw, offset):
    damaged = bytearray(raw)
    damaged[offset] ^= 0x01
    return bytes(damaged)


def with_udp_length(raw, length):
    """``raw`` with the UDP length field set, its checksum left as it was."""
    return raw[:UDP_AT + 4] + length.to_bytes(2, "big") + raw[UDP_AT + 6:]


def dhcp(op, message_type, xid=5, client_mac=GUEST_MAC, **fields):
    return encode_dhcp(DhcpMessage(op=op, xid=xid, client_mac=MacAddress(client_mac), message_type=message_type,
                                   **fields))


# -- the NAT: frames from the guest -----------------------------------------------

def from_guest_udp(dst_port, payload, dst_ip=BROADCAST_IP):
    return udp_frame(BROADCAST_MAC, GUEST_MAC, ZERO_IP, dst_ip, 68, dst_port, payload)


DISCOVER = from_guest_udp(67, dhcp(1, DHCP_DISCOVER))
ICMP_ECHO = ipv4_frame(GATEWAY_MAC, GUEST_MAC, GUEST_IP, GATEWAY_IP, ICMP, bytes((8, 0, 0xF7, 0xFF, 0, 0, 0, 0)))

NAT_DROPS = {
    "frame_malformed: 13 bytes": (DISCOVER[:13], "frame_malformed"),
    "frame_malformed: empty": (b"", "frame_malformed"),
    "ethertype: IPv6": (pad_frame(GATEWAY_MAC, GUEST_MAC, IPV6, bytes(40)), "ethertype"),
    "arp_malformed: hardware type": (
        pad_frame(BROADCAST_MAC, GUEST_MAC, ARP, b"\x00\x06" + encode_arp_reference(1, GUEST_MAC, GUEST_IP, ZERO_MAC,
                                                                                     GATEWAY_IP)[2:]),
        "arp_malformed"),
    "arp_malformed: truncated": (
        BROADCAST_MAC + GUEST_MAC + b"\x08\x06" + encode_arp_reference(1, GUEST_MAC, GUEST_IP, ZERO_MAC,
                                                                        GATEWAY_IP)[:27],
        "arp_malformed"),
    "ipv4_malformed: header checksum": (flipped(DISCOVER, IPV4_AT + 10), "ipv4_malformed"),
    "ipv4_malformed: a fragment": (with_ipv4_header(DISCOVER, 6, b"\x20\x00"), "ipv4_malformed"),
    "ipv4_malformed: options": (with_ipv4_header(DISCOVER, 0, b"\x46"), "ipv4_malformed"),
    "ipv4_malformed: version 6": (with_ipv4_header(DISCOVER, 0, b"\x65"), "ipv4_malformed"),
    "ipv4_malformed: total length past the frame": (
        with_ipv4_header(DISCOVER, 2, (len(DISCOVER) - 13).to_bytes(2, "big")), "ipv4_malformed"),
    "ipv4_malformed: total length under 20": (with_ipv4_header(DISCOVER, 2, b"\x00\x13"), "ipv4_malformed"),
    "ipv4_malformed: truncated header": (DISCOVER[:30], "ipv4_malformed"),
    "ipv4_malformed: before ip_proto": (flipped(ICMP_ECHO, IPV4_AT + 10), "ipv4_malformed"),
    "ip_proto: ICMP": (ICMP_ECHO, "ip_proto"),
    "ip_proto: protocol 99": (ipv4_frame(GATEWAY_MAC, GUEST_MAC, GUEST_IP, GATEWAY_IP, 99, b"?"), "ip_proto"),
    "udp_malformed: length past the packet": (with_udp_length(DISCOVER, 9000), "udp_malformed"),
    "udp_malformed: length under 8": (with_udp_length(DISCOVER, 7), "udp_malformed"),
    "udp_malformed: checksum": (flipped(DISCOVER, UDP_AT + 7), "udp_malformed"),
    "udp_malformed: truncated header": (
        ipv4_frame(BROADCAST_MAC, GUEST_MAC, ZERO_IP, BROADCAST_IP, UDP, b"\x00\x44\x00\x43"), "udp_malformed"),
    "udp_malformed: before udp_unhandled": (
        flipped(from_guest_udp(53, b"query", DNS_IP), UDP_AT + 7), "udp_malformed"),
    "udp_unhandled: DNS": (from_guest_udp(53, b"query", DNS_IP), "udp_unhandled"),
    "dhcp_malformed: no magic cookie": (from_guest_udp(67, bytes(300)), "dhcp_malformed"),
    "dhcp_malformed: truncated": (from_guest_udp(67, dhcp(1, DHCP_DISCOVER)[:239]), "dhcp_malformed"),
}


@pytest.mark.parametrize("case", sorted(NAT_DROPS))
def test_nat_names_the_drop_of_each_malformed_or_unhandled_frame(case):
    raw, name = NAT_DROPS[case]
    stack = nat_stack()
    stack.guest_frame_in(raw)
    assert stack.drop_counts == Counter({name: 1})
    assert stack.poll_frames_out() == []


def test_nat_takes_a_datagram_sent_with_no_checksum():
    stack = nat_stack()
    stack.guest_frame_in(DISCOVER[:UDP_AT + 6] + b"\x00\x00" + DISCOVER[UDP_AT + 8:])
    (offer,) = stack.poll_frames_out()
    assert decode_dhcp(decode_frame(offer).payload[28:]).message_type == DHCP_OFFER
    assert not stack.drop_counts


def test_nat_learns_the_sender_of_every_sound_ipv4_or_arp_frame():
    stack = nat_stack()
    stack.guest_frame_in(ICMP_ECHO)  # dropped as ip_proto, after the addresses are learnt
    assert stack._arp_table == {GUEST_IP: MacAddress(GUEST_MAC)}
    stack.guest_frame_in(flipped(ipv4_frame(GATEWAY_MAC, OTHER_MAC, OTHER_IP, GATEWAY_IP, UDP, bytes(8)), UDP_AT + 7))
    assert stack._arp_table[OTHER_IP] == MacAddress(OTHER_MAC)  # udp_malformed, after learning
    stack.guest_frame_in(flipped(ipv4_frame(GATEWAY_MAC, GUEST_MAC, DNS_IP, GATEWAY_IP, ICMP, b"?"), IPV4_AT + 10))
    assert DNS_IP not in stack._arp_table  # ipv4_malformed: nothing to learn from
    stack.guest_frame_in(arp_frame(BROADCAST_MAC, OTHER_MAC, 1, OTHER_MAC, GUEST_IP, ZERO_MAC, OTHER_IP))
    assert stack._arp_table[GUEST_IP] == MacAddress(OTHER_MAC)  # an ARP sender moves the entry
    stack.guest_frame_in(DISCOVER)  # from 0.0.0.0: nothing to learn
    assert ZERO_IP not in stack._arp_table
    assert stack.drop_counts == Counter({"ip_proto": 1, "udp_malformed": 1, "ipv4_malformed": 1})


# -- the guest: frames from the NAT -----------------------------------------------

def to_guest_udp(dst_port, payload, dst_ip=GUEST_IP):
    return udp_frame(GUEST_MAC, GATEWAY_MAC, GATEWAY_IP, dst_ip, 67, dst_port, payload)


def offer(xid, client_mac=GUEST_MAC):
    return to_guest_udp(68, dhcp(2, DHCP_OFFER, xid=xid, client_mac=client_mac, your_ip=OTHER_IP,
                                 server_id=GATEWAY_IP))


TO_GUEST_ICMP = ipv4_frame(GUEST_MAC, GATEWAY_MAC, GATEWAY_IP, GUEST_IP, ICMP, bytes((8, 0, 0xF7, 0xFF, 0, 0, 0, 0)))
TO_GUEST_UDP = to_guest_udp(5000, b"hello")

GUEST_DROPS = {
    "frame_malformed: 13 bytes": (lambda xid: TO_GUEST_UDP[:13], "frame_malformed"),
    "ethertype: IPv6": (lambda xid: pad_frame(GUEST_MAC, GATEWAY_MAC, IPV6, bytes(40)), "ethertype"),
    "arp_malformed: protocol type": (
        lambda xid: pad_frame(GUEST_MAC, GATEWAY_MAC, ARP, b"\x00\x01\x86\xdd" + encode_arp_reference(
            1, GATEWAY_MAC, GATEWAY_IP, ZERO_MAC, GUEST_IP)[4:]),
        "arp_malformed"),
    "ipv4_malformed: header checksum": (lambda xid: flipped(TO_GUEST_UDP, IPV4_AT + 10), "ipv4_malformed"),
    "ipv4_malformed: a fragment": (lambda xid: with_ipv4_header(TO_GUEST_UDP, 6, b"\x00\x01"), "ipv4_malformed"),
    "ipv4_malformed: before ip_not_for_us": (
        lambda xid: flipped(to_guest_udp(5000, b"x", OTHER_IP), IPV4_AT + 10), "ipv4_malformed"),
    "ip_not_for_us: UDP": (lambda xid: to_guest_udp(5000, b"x", OTHER_IP), "ip_not_for_us"),
    "ip_not_for_us: ICMP": (
        lambda xid: ipv4_frame(GUEST_MAC, GATEWAY_MAC, GATEWAY_IP, OTHER_IP, ICMP, bytes(8)), "ip_not_for_us"),
    "ip_not_for_us: before udp_malformed": (
        lambda xid: flipped(to_guest_udp(68, b"x", OTHER_IP), UDP_AT + 7), "ip_not_for_us"),
    "ip_proto: ICMP": (lambda xid: TO_GUEST_ICMP, "ip_proto"),
    "ip_proto: ICMP to broadcast": (
        lambda xid: ipv4_frame(BROADCAST_MAC, GATEWAY_MAC, GATEWAY_IP, BROADCAST_IP, ICMP, bytes(8)), "ip_proto"),
    "udp_malformed: checksum": (lambda xid: flipped(TO_GUEST_UDP, UDP_AT + 7), "udp_malformed"),
    "udp_malformed: length past the packet": (lambda xid: with_udp_length(TO_GUEST_UDP, 2000), "udp_malformed"),
    "udp_malformed: before dhcp_malformed": (
        lambda xid: flipped(to_guest_udp(68, bytes(300)), UDP_AT + 7), "udp_malformed"),
    "udp_unhandled": (lambda xid: TO_GUEST_UDP, "udp_unhandled"),
    "dhcp_malformed: no magic cookie": (lambda xid: to_guest_udp(68, bytes(300)), "dhcp_malformed"),
    "dhcp_malformed: no message type": (
        lambda xid: to_guest_udp(68, dhcp(2, DHCP_OFFER, xid=xid)[:240] + b"\xff" + bytes(59)), "dhcp_malformed"),
    "dhcp_foreign: another xid": (lambda xid: offer(xid ^ 1), "dhcp_foreign"),
    "dhcp_foreign: another client": (lambda xid: offer(xid, OTHER_MAC), "dhcp_foreign"),
}


@pytest.mark.parametrize("case", sorted(GUEST_DROPS))
def test_guest_names_the_drop_of_each_malformed_or_unhandled_frame(case):
    build, name = GUEST_DROPS[case]
    inst = stepped_instance()
    boot(inst)
    guest = inst.guest
    assert guest.ip == GUEST_IP
    before, sent = Counter(guest.drop_counts), len(inst.guest_tx_raw)
    guest._frame_in(build(guest._dhcp_xid))
    assert guest.drop_counts - before == Counter({name: 1})
    assert inst.guest_tx_raw[sent:] == []
    assert guest.ip == GUEST_IP


@pytest.mark.parametrize("raw, name", [
    (ipv4_frame(BROADCAST_MAC, GATEWAY_MAC, GATEWAY_IP, OTHER_IP, ICMP, bytes(8)), "ip_not_for_us"),
    (ipv4_frame(BROADCAST_MAC, GATEWAY_MAC, GATEWAY_IP, BROADCAST_IP, ICMP, bytes(8)), "ip_proto"),
    (udp_frame(BROADCAST_MAC, GATEWAY_MAC, GATEWAY_IP, OTHER_IP, 67, 5000, b"x"), "udp_unhandled"),
    (udp_frame(BROADCAST_MAC, GATEWAY_MAC, GATEWAY_IP, OTHER_IP, 67, 68, bytes(300)), "dhcp_malformed"),
], ids=["ICMP elsewhere", "ICMP to broadcast", "UDP elsewhere", "DHCP elsewhere"])
def test_guest_with_no_address_takes_any_udp(raw, name):
    """Before DHCP binds an address, every UDP datagram is for the guest."""
    inst = stepped_instance()
    guest = inst.guest
    assert guest.ip is None
    guest._frame_in(raw)
    assert guest.drop_counts == Counter({name: 1})


def test_guest_learns_the_sender_of_every_sound_ipv4_or_arp_frame():
    inst = stepped_instance()
    boot(inst)
    guest = inst.guest
    guest.arp_table.clear()
    guest._frame_in(ipv4_frame(GUEST_MAC, OTHER_MAC, OTHER_IP, DNS_IP, ICMP, bytes(8)))
    assert guest.arp_table == {OTHER_IP: MacAddress(OTHER_MAC)}  # ip_not_for_us, after learning
    guest._frame_in(flipped(ipv4_frame(GUEST_MAC, GATEWAY_MAC, DNS_IP, GUEST_IP, ICMP, bytes(8)), IPV4_AT + 10))
    assert DNS_IP not in guest.arp_table  # ipv4_malformed: nothing to learn from
    guest._frame_in(arp_frame(GUEST_MAC, GATEWAY_MAC, 1, GATEWAY_MAC, OTHER_IP, ZERO_MAC, DNS_IP))
    assert guest.arp_table[OTHER_IP] == MacAddress(GATEWAY_MAC)  # an ARP sender moves the entry
    guest._frame_in(udp_frame(GUEST_MAC, OTHER_MAC, ZERO_IP, GUEST_IP, 67, 5000, b"x"))
    assert ZERO_IP not in guest.arp_table


def test_guest_flushes_packets_waiting_for_a_hop_its_arp_reply_names():
    inst = stepped_instance(mode="echo")
    boot(inst)
    guest = inst.guest
    sent = len(inst.guest_tx_raw)
    guest.tcp_connect(OTHER_IP, 7, EchoApp)  # on the subnet: the guest asks for the hop
    assert list(guest.arp_pending) == [OTHER_IP]
    guest._frame_in(arp_frame(GUEST_MAC, OTHER_MAC, 2, OTHER_MAC, OTHER_IP, GUEST_MAC, GUEST_IP))
    assert not guest.arp_pending
    request, syn = inst.guest_tx_raw[sent:]
    assert request == arp_frame(BROADCAST_MAC, GUEST_MAC, 1, GUEST_MAC, GUEST_IP, ZERO_MAC, OTHER_IP)
    assert syn[:6] == OTHER_MAC and decode_ipv4(decode_frame(syn).payload).dst_ip == OTHER_IP


# -- the bytes of every ARP and DHCP frame the stacks send ---------------------------

def test_every_arp_and_dhcp_frame_of_a_boot_and_a_request_is_the_oracles():
    """A stepped boot; a ``GET /hello`` through a forward rule once both ends
    forgot each other's MAC, so the NAT asks for the guest's; then a
    connection from the guest once it forgot the gateway's, so it asks.
    Each ARP or DHCP frame is rebuilt by the oracle encoders from what the
    protocols say it must hold, and only its IPv4 ident and DHCP message are
    taken from the frame."""
    inst = stepped_instance()
    boot(inst)
    nat, guest = inst.usernet, inst.guest
    nat._arp_table.clear()
    guest.arp_table.clear()
    near, far = socket.socketpair()
    near.setblocking(False)
    step(inst.loop, lambda: nat.host_connection_in(ForwardRule("tcp", "", 1, "", 80), near))
    advance(inst.loop, 0.05)  # the NAT tries again once the guest's ARP reply is in
    far.sendall(b"GET /hello HTTP/1.1\r\nHost: guest\r\n\r\n")
    far.setblocking(False)
    reply, shut = bytearray(), False
    for _ in range(100):
        if shut and not nat._flows and not guest.conns:
            break
        step(inst.loop)
        try:
            chunk = far.recv(65536)
        except BlockingIOError:
            continue
        reply += chunk
        if not chunk and not shut:  # the host closes its end once the reply is in
            far.shutdown(socket.SHUT_WR)
            shut = True
    assert reply.endswith(b"Hello World!") and not guest.conns
    guest.arp_table.clear()
    step(inst.loop, lambda: guest.tcp_connect(GATEWAY_IP, 9, EchoApp))
    assert guest.arp_table[GATEWAY_IP] == MacAddress(GATEWAY_MAC)

    def dhcp_frame(raw, dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port):
        pkt = decode_ipv4(decode_frame(raw).payload)
        message = decode_udp(pkt.payload, pkt.src_ip, pkt.dst_ip).payload
        datagram = encode_udp(UdpDatagram(src_port, dst_port, message), src_ip, dst_ip)
        return ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, UDP, datagram, pkt.ident), decode_dhcp(message)

    def non_tcp(frames):
        return [raw for raw in frames if raw[12:14] != b"\x08\x00" or raw[23] != 6]

    discover, request, arp_reply, arp_request = non_tcp(inst.guest_tx_raw)
    offer_, ack, nat_arp_request, nat_arp_reply = non_tcp(inst.usernet_tx_raw)
    expected = []
    for raw, addresses, kind in (
        (discover, (BROADCAST_MAC, GUEST_MAC, ZERO_IP, BROADCAST_IP, 68, 67), DHCP_DISCOVER),
        (offer_, (GUEST_MAC, GATEWAY_MAC, GATEWAY_IP, GUEST_IP, 67, 68), DHCP_OFFER),
        (request, (BROADCAST_MAC, GUEST_MAC, ZERO_IP, BROADCAST_IP, 68, 67), DHCP_REQUEST),
        (ack, (GUEST_MAC, GATEWAY_MAC, GATEWAY_IP, GUEST_IP, 67, 68), DHCP_ACK),
    ):
        rebuilt, message = dhcp_frame(raw, *addresses)
        assert message.message_type == kind
        expected.append((raw, rebuilt))
    expected += [
        (nat_arp_request, arp_frame(BROADCAST_MAC, GATEWAY_MAC, 1, GATEWAY_MAC, GATEWAY_IP, ZERO_MAC, GUEST_IP)),
        (arp_reply, arp_frame(GATEWAY_MAC, GUEST_MAC, 2, GUEST_MAC, GUEST_IP, GATEWAY_MAC, GATEWAY_IP)),
        (arp_request, arp_frame(BROADCAST_MAC, GUEST_MAC, 1, GUEST_MAC, GUEST_IP, ZERO_MAC, GATEWAY_IP)),
        (nat_arp_reply, arp_frame(GUEST_MAC, GATEWAY_MAC, 2, GATEWAY_MAC, GATEWAY_IP, GUEST_MAC, GUEST_IP)),
    ]
    for raw, rebuilt in expected:
        assert raw == rebuilt
    assert nat.drop_counts == Counter({"tcp_no_flow": 1})  # the guest's SYN to the gateway itself
    near.close()
    far.close()
