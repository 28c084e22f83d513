"""Wire format tests: framing, checksums, packet round-trips, HTTP parsing.

The flat frame codecs are held to the object codecs in ``reference.py``,
which are written from the RFCs and share no code with the package."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emunet import wire
from emunet.wire import (
    DecodeError,
    DhcpMessage,
    EncodeError,
    HttpBodyTooLarge,
    HttpParseError,
    HttpRequestParser,
    MacAddress,
)
from helpers import boot, ipv4_with_flags, stepped_instance
import reference
from reference import (
    OPT_MSS,
    OPT_TIMESTAMP,
    EthernetFrame,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
    decode_frame,
    decode_ipv4,
    decode_tcp,
    decode_udp,
    encode_frame,
    encode_ipv4,
    encode_tcp,
    encode_udp,
    ones_complement_checksum,
    tcp_checksum_reference,
    udp_checksum_reference,
)

BCAST = MacAddress.parse("ff:ff:ff:ff:ff:ff")
SRC = MacAddress.parse("52:54:00:12:34:56")

macs = st.binary(min_size=6, max_size=6).map(MacAddress)


class TestMacAddress:
    def test_parse_and_str_roundtrip(self):
        assert str(MacAddress.parse("AA:bb:0c:00:00:01")) == "aa:bb:0c:00:00:01"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)


def oracle_udp_frame(src_ip, dst_ip, payload=b"", ident=0, ports=(68, 67), dst=BCAST.octets, src=SRC.octets):
    """A UDP frame built by the oracle encoders."""
    datagram = encode_udp(UdpDatagram(*ports, payload), src_ip, dst_ip)
    return encode_frame(EthernetFrame(dst, src, wire.ETHERTYPE_IPV4, encode_ipv4(Ipv4Packet(
        src_ip, dst_ip, wire.IPPROTO_UDP, datagram, ident=ident))))


def udp_frame(src_ip, dst_ip, payload=b"", ident=0, ports=(68, 67)):
    return wire.encode_udp_frame(BCAST.octets, SRC.octets, src_ip, dst_ip, ident, *ports, payload)


class TestEthernetFrame:
    def test_minimum_padding(self):
        raw = wire.encode_eth_frame(BCAST.octets, SRC.octets, 0x0806, b"\x00" * 28)
        assert len(raw) == 60
        assert raw[:6] == BCAST.octets
        assert raw[6:12] == SRC.octets
        assert len(udp_frame(bytes(4), bytes(4))) == 60

    def test_maximum_size_boundary(self):
        raw = wire.encode_eth_frame(BCAST.octets, SRC.octets, 0x0800, b"\xab" * 1500)
        assert len(raw) == 1514
        assert len(udp_frame(bytes(4), bytes(4), bytes(1500 - 28))) == 1514

    def test_oversize_payload(self):
        with pytest.raises(EncodeError):
            wire.encode_eth_frame(BCAST.octets, SRC.octets, 0x0800, b"\x00" * 1501)
        with pytest.raises(EncodeError):
            udp_frame(bytes(4), bytes(4), bytes(1500 - 27))

    def test_truncated_below_header(self):
        assert wire.decode_udp_frame(b"\x00" * 13) == "frame_malformed"
        assert wire.decode_tcp_frame(b"\x00" * 13) is None

    def test_decode_offsets(self):
        src_ip, dst_ip = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        raw = oracle_udp_frame(src_ip, dst_ip, b"\x11" * 28)
        assert wire.decode_udp_frame(raw) == (SRC.octets, src_ip, dst_ip, wire.IPPROTO_UDP, 68, 67, b"\x11" * 28)
        assert wire.decode_udp_frame(raw[:12] + b"\x08\x06" + raw[14:]) == "ethertype"

    @given(dst=macs, src=macs, ethertype=st.integers(0, 0xFFFF), payload=st.binary(max_size=1500))
    @settings(max_examples=200)
    def test_roundtrip_modulo_padding(self, dst, src, ethertype, payload):
        decoded = decode_frame(wire.encode_eth_frame(dst.octets, src.octets, ethertype, payload))
        assert decoded.dst == dst.octets and decoded.src == src.octets and decoded.ethertype == ethertype
        pad = max(0, 46 - len(payload))
        assert decoded.payload == payload + b"\x00" * pad

    def test_guest_dhcp_discover_matches_reference_decoder(self):
        # Capture the first frame a real guest transmits (its DISCOVER) and
        # cross-check the wire decoder against the fixed-offset reference.
        instance = stepped_instance()
        boot(instance)
        assert instance.guest_tx_raw, "guest transmitted nothing at boot"
        raw = instance.guest_tx_raw[0]
        frame = decode_frame(raw)
        pkt = decode_ipv4(frame.payload)
        dgram = decode_udp(pkt.payload, pkt.src_ip, pkt.dst_ip)
        assert frame.dst == b"\xff" * 6 and frame.ethertype == 0x0800
        assert wire.decode_udp_frame(raw) == (
            frame.src, pkt.src_ip, pkt.dst_ip, pkt.protocol, dgram.src_port, dgram.dst_port, dgram.payload
        )
        assert raw == oracle_udp_frame(pkt.src_ip, pkt.dst_ip, dgram.payload, pkt.ident, dst=frame.dst, src=frame.src)


class TestChecksums:
    def test_all_zero_header(self):
        assert wire.ipv4_checksum(b"\x00" * 20) == 0xFFFF

    def test_fixed_header_value(self):
        header = bytes.fromhex("4500003c1c46400040060000ac100a63ac100a0c")
        assert ones_complement_checksum(header) == 0xB1E6  # oracle first
        assert wire.ipv4_checksum(header) == 0xB1E6

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            wire.ipv4_checksum(b"\x00" * 21)

    @given(st.binary(min_size=20, max_size=20))
    @settings(max_examples=200)
    def test_self_verification(self, header):
        header = bytearray(header)
        header[10:12] = b"\x00\x00"
        checksum = wire.ipv4_checksum(bytes(header))
        header[10:12] = checksum.to_bytes(2, "big")
        assert wire._sum16(bytes(header)) == 0xFFFF

    def test_matches_reference_accumulator(self):
        rng = random.Random(7)
        for _ in range(500):
            header = bytes(rng.getrandbits(8) for _ in range(20 + 2 * rng.randrange(0, 6)))
            assert wire.ipv4_checksum(header) == ones_complement_checksum(header)

    def test_tcp_syn_self_verifies(self):
        src, dst = wire.ip_to_bytes("10.0.2.2"), wire.ip_to_bytes("10.0.2.15")
        raw = wire.encode_tcp_frame(
            bytes(6), bytes(6), src, dst, int.from_bytes(src + dst, "big"), 0,
            49152, 80, 1000, 0, wire.TCP_SYN, 8192, b"",
        )[34:54]
        pseudo = src + dst + bytes([0, 6]) + len(raw).to_bytes(2, "big")
        assert ones_complement_checksum(pseudo + raw) == 0

    def test_tcp_odd_payload_self_verifies(self):
        src, dst = wire.ip_to_bytes("10.0.2.2"), wire.ip_to_bytes("10.0.2.15")
        raw = wire.encode_tcp_frame(
            bytes(6), bytes(6), src, dst, int.from_bytes(src + dst, "big"), 0,
            49152, 80, 1, 2, wire.TCP_ACK, 8192, b"x",
        )
        assert tcp_checksum_reference(src, dst, raw[34:55]) == 0
        assert wire.decode_tcp_frame(raw)[-1] == b"x"

    def test_tcp_fixed_segment_matches_reference(self):
        src, dst = wire.ip_to_bytes("10.0.2.15"), wire.ip_to_bytes("10.0.2.2")
        segment = bytearray(bytes(range(40)))
        segment[16:18] = b"\x00\x00"  # checksum field zeroed
        expected = tcp_checksum_reference(src, dst, bytes(segment))
        assert wire.tcp_checksum(src, dst, bytes(segment)) == expected

    def test_tcp_random_matches_reference(self):
        rng = random.Random(99)
        for _ in range(500):
            src = bytes(rng.getrandbits(8) for _ in range(4))
            dst = bytes(rng.getrandbits(8) for _ in range(4))
            seg = bytearray(rng.getrandbits(8) for _ in range(20 + rng.randrange(0, 60)))
            seg[16:18] = b"\x00\x00"
            assert wire.tcp_checksum(src, dst, bytes(seg)) == tcp_checksum_reference(src, dst, bytes(seg))


    @given(st.binary(max_size=1600), st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=500)
    @example(b"", 0)
    @example(b"\x00" * 21, 0)  # all zero, odd length: the only sum that is 0
    @example(b"\x00" * 20, 0xFFFF)
    @example(b"\xff\xff", 0)  # words summing to 0xFFFF
    @example(b"\xff\xfe\x00\x01", 0)
    @example(b"\x12\x34\xed", 0x00CB)  # odd length whose sum folds to 0xFFFF
    @example(b"\x00\x01", 0xFFFE)  # the seed carries the sum to 0xFFFF
    def test_sum16_matches_reference_accumulator(self, data, seed):
        # the reference returns the complemented sum; a seed is one more word
        expected = ~ones_complement_checksum(seed.to_bytes(2, "big") + data) & 0xFFFF
        assert wire._sum16(data, seed) == expected
        assert wire._sum16(bytearray(data), seed) == expected


ips = st.binary(min_size=4, max_size=4)


class TestIpv4:
    """The one IPv4 header rule and builder, through the flat UDP frame codecs."""

    @given(src=ips, dst=ips, proto=st.integers(0, 255), ttl=st.integers(1, 255), ident=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=400))
    @settings(max_examples=200)
    def test_roundtrip(self, src, dst, proto, ttl, ident, payload):
        raw = udp_frame(src, dst, payload, ident)
        assert raw == oracle_udp_frame(src, dst, payload, ident)
        pkt = decode_ipv4(decode_frame(raw).payload)
        assert (pkt.src_ip, pkt.dst_ip, pkt.protocol, pkt.ttl, pkt.ident) == (src, dst, wire.IPPROTO_UDP, 64, ident)
        assert decode_udp(pkt.payload, src, dst) == UdpDatagram(68, 67, payload)
        # any other protocol: the addresses, and no payload
        other = encode_frame(EthernetFrame(BCAST.octets, SRC.octets, wire.ETHERTYPE_IPV4, encode_ipv4(
            Ipv4Packet(src, dst, proto, payload, ttl=ttl, ident=ident))))
        if proto not in (wire.IPPROTO_UDP, wire.IPPROTO_TCP):
            assert wire.decode_tcp_frame(other) is None
            assert wire.decode_udp_frame(other) == (SRC.octets, src, dst, proto, 0, 0, None)

    def test_total_length_field(self):
        raw = udp_frame(b"\x01\x02\x03\x04", b"\x05\x06\x07\x08", b"abc")
        assert int.from_bytes(raw[16:18], "big") == 20 + 8 + 3
        assert int.from_bytes(raw[38:40], "big") == 8 + 3

    def test_encode_verifies_to_zero(self):
        src, dst = b"\x0a\x00\x02\x02", b"\x0a\x00\x02\x0f"
        raw = udp_frame(src, dst, b"hi")
        assert wire._sum16(raw[14:34]) == 0xFFFF
        assert udp_checksum_reference(src, dst, raw[34:44]) == 0

    def test_corrupted_checksum_rejected(self):
        raw = bytearray(udp_frame(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02"))
        raw[14 + 10] ^= 0xFF
        assert wire.decode_udp_frame(bytes(raw)) == "ipv4_malformed"

    @pytest.mark.parametrize(
        "flags_offset", [0x2000, 0x0001, 0x1FFF, 0x6000], ids=["more", "offset", "last", "df_more"]
    )
    def test_fragment_rejected(self, flags_offset):
        raw = udp_frame(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", b"part")
        assert wire.decode_udp_frame(ipv4_frame_with_flags(raw, flags_offset)) == "ipv4_malformed"

    def test_dont_fragment_bit_accepted(self):
        raw = udp_frame(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", b"whole")
        assert wire.decode_udp_frame(ipv4_frame_with_flags(raw, 0x4000))[-1] == b"whole"

    def test_padded_frame_payload_trimmed(self):
        # IP total-length and the UDP length trim ethernet minimum-size padding.
        raw = udp_frame(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", b"ab")
        assert len(raw) == 60
        assert wire.decode_udp_frame(raw + b"\x00" * 20)[-1] == b"ab"


class TestTcpUdpRoundtrip:
    @given(
        sp=st.integers(1, 65535), dp=st.integers(1, 65535),
        seq=st.integers(0, 2**32 - 1), ack=st.integers(0, 2**32 - 1),
        flags=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()),
        window=st.integers(0, 65535), payload=st.binary(max_size=300),
    )
    @settings(max_examples=200)
    def test_tcp_roundtrip(self, sp, dp, seq, ack, flags, window, payload):
        syn, ackf, fin, rst, psh = flags
        src, dst = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        seg = TcpSegment(sp, dp, seq, ack, syn, ackf, fin, rst, psh, window, payload)
        decoded = decode_tcp(encode_tcp(seg, src, dst), src, dst)
        assert decoded == seg

    def test_tcp_bad_checksum_rejected(self):
        src, dst = b"\x01" * 4, b"\x02" * 4
        raw = bytearray(encode_tcp(TcpSegment(1, 2, 3, 4), src, dst))
        raw[-1] ^= 0x01 if len(raw) > 20 else 0
        raw[16] ^= 0xFF
        with pytest.raises(ValueError):
            decode_tcp(bytes(raw), src, dst)

    @given(sp=st.integers(1, 65535), dp=st.integers(1, 65535), payload=st.binary(max_size=300))
    @settings(max_examples=100)
    def test_udp_roundtrip(self, sp, dp, payload):
        src, dst = b"\x00" * 4, b"\xff" * 4
        raw = udp_frame(src, dst, payload, ports=(sp, dp))
        assert raw == oracle_udp_frame(src, dst, payload, ports=(sp, dp))
        assert wire.decode_udp_frame(raw) == (SRC.octets, src, dst, wire.IPPROTO_UDP, sp, dp, payload)


class TestUdpFrame:
    """The flat UDP frame decoder against the reference decoders."""

    @given(
        payload=st.binary(max_size=64), proto=st.sampled_from([17, 17, 17, 1]),
        damage=st.sampled_from([None, None, 14 + 10, 14 + 20 + 6, 14 + 20 + 7, 14 + 20 + 4, 14 + 20 + 5, 14 + 9,
                                14 + 6, 14, 12, 2]),
        no_checksum=st.booleans(), size=st.sampled_from([None, None, 13, 20, 34, 40, 41, 42, 60]),
    )
    @settings(max_examples=300)
    def test_decode_agrees_with_the_reference_decoders(self, payload, proto, damage, no_checksum, size):
        src_ip, dst_ip = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        raw = bytearray(oracle_udp_frame(src_ip, dst_ip, payload))
        if no_checksum:
            raw[40:42] = b"\x00\x00"
        if proto != wire.IPPROTO_UDP:
            raw = bytearray(ipv4_frame_with_field(bytes(raw), 9, proto))
        if damage is not None:
            raw[damage] ^= 0x01
        raw = bytes(raw if size is None else raw[:size])
        if wire.decode_tcp_frame(raw) is None and raw[12:14] != b"\x08\x06":
            assert udp_malformed_as_named(wire.decode_udp_frame(raw)) == reference_udp_frame(raw)

    def test_decode_names_the_malformed_layer(self):
        src_ip, dst_ip = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        good = udp_frame(src_ip, dst_ip, b"data", ports=(68, 67))
        fields = (SRC.octets, src_ip, dst_ip, wire.IPPROTO_UDP, 68, 67)
        assert wire.decode_udp_frame(good) == (*fields, b"data")
        assert wire.decode_udp_frame(good[:40] + b"\x00\x00" + good[42:]) == (*fields, b"data")  # no checksum
        for offset, expected in ((24, "ipv4_malformed"), (40, (*fields, None)), (43, (*fields, None))):
            bad = bytearray(good)
            bad[offset] ^= 0x01  # a checksum, or the payload
            assert wire.decode_udp_frame(bytes(bad)) == expected
        assert wire.decode_udp_frame(good[:38] + b"\x00\x07" + good[40:]) == (*fields, None)  # length under 8
        assert wire.decode_udp_frame(good[:38] + b"\x00\x0d" + good[40:]) == (*fields, None)  # past the packet
        assert wire.decode_udp_frame(good[:33]) == "ipv4_malformed"
        assert wire.decode_udp_frame(good[:12] + b"\x86\xdd" + good[14:]) == "ethertype"


def reference_udp_frame(raw: bytes):
    """What ``decode_udp_frame`` should return, by the reference decoders."""
    try:
        frame = decode_frame(raw)
    except ValueError:
        return "frame_malformed"
    if frame.ethertype != wire.ETHERTYPE_IPV4:
        return "ethertype"
    try:
        pkt = decode_ipv4(frame.payload)
    except ValueError:
        return "ipv4_malformed"
    if pkt.protocol != wire.IPPROTO_UDP:
        return frame.src, pkt.src_ip, pkt.dst_ip, pkt.protocol, 0, 0, None
    try:
        dgram = decode_udp(pkt.payload, pkt.src_ip, pkt.dst_ip)
    except ValueError:
        return "udp_malformed", frame.src, pkt.src_ip, pkt.dst_ip
    return frame.src, pkt.src_ip, pkt.dst_ip, pkt.protocol, dgram.src_port, dgram.dst_port, dgram.payload


def udp_malformed_as_named(fields):
    """A result of ``decode_udp_frame`` for a UDP datagram whose payload is
    None, as its drop name and the addresses a stack still learns from; the
    ports of a bad datagram carry no meaning."""
    if isinstance(fields, tuple) and fields[3] == wire.IPPROTO_UDP and fields[-1] is None:
        return ("udp_malformed", *fields[:3])
    return fields


def ipv4_frame_with_field(raw: bytes, offset: int, value: int) -> bytes:
    """``raw`` with byte ``offset`` of its IPv4 header set to ``value``, and
    the header checksum made to fit."""
    header = bytearray(raw[14:34])
    header[offset] = value
    header[10:12] = b"\x00\x00"
    header[10:12] = ones_complement_checksum(bytes(header)).to_bytes(2, "big")
    return raw[:14] + bytes(header) + raw[34:]


class TestTcpFrame:
    """The flat TCP frame codec against the reference object codecs."""

    @given(
        macs=st.tuples(st.binary(min_size=6, max_size=6), st.binary(min_size=6, max_size=6)),
        ips=st.tuples(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4)),
        ident=st.integers(0, 0xFFFF), ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
        seq=st.integers(0, 2**32 - 1), ack=st.integers(0, 2**32 - 1), flags=st.integers(0, 0x1F),
        window=st.integers(0, 65535), payload=st.binary(max_size=1460),
    )
    @settings(max_examples=300)
    @example(macs=(b"\0" * 6, b"\0" * 6), ips=(b"\0" * 4, b"\0" * 4), ident=0, ports=(0, 0),
             seq=0, ack=0, flags=0, window=0, payload=b"")
    def test_encode_is_byte_identical_and_decode_agrees(self, macs, ips, ident, ports, seq, ack, flags, window, payload):
        (dst_mac, src_mac), (src_ip, dst_ip), (sp, dp) = macs, ips, ports
        seg = TcpSegment(
            sp, dp, seq, ack, syn=bool(flags & wire.TCP_SYN), ack_flag=bool(flags & wire.TCP_ACK),
            fin=bool(flags & wire.TCP_FIN), rst=bool(flags & wire.TCP_RST), psh=bool(flags & wire.TCP_PSH),
            window=window, payload=payload,
        )
        pkt = Ipv4Packet(src_ip, dst_ip, wire.IPPROTO_TCP, encode_tcp(seg, src_ip, dst_ip), ident=ident)
        expected = encode_frame(EthernetFrame(dst_mac, src_mac, wire.ETHERTYPE_IPV4, encode_ipv4(pkt)))
        raw = wire.encode_tcp_frame(
            dst_mac, src_mac, src_ip, dst_ip, int.from_bytes(src_ip + dst_ip, "big"), ident,
            sp, dp, seq, ack, flags, window, payload,
        )
        assert raw == expected
        assert wire.decode_tcp_frame(raw) == (src_mac, src_ip, dst_ip, sp, dp, seq, ack, flags, window, payload)

    @given(
        flags=st.integers(0, 0x1F), options=st.sampled_from([b"", OPT_MSS, OPT_TIMESTAMP]),
        payload=st.binary(max_size=64), offset_words=st.sampled_from([None, None, 0, 4, 15]),
        damage=st.sampled_from([None, None, 14 + 10, 14 + 20 + 16, 14 + 9, 14 + 6, 14, 12, 2]),
        size=st.sampled_from([None, None, 20, 40, 53, 60]),
    )
    @settings(max_examples=300)
    def test_decode_agrees_with_the_reference_decoders(self, flags, options, payload, offset_words, damage, size):
        src_ip, dst_ip = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        raw = bytearray(tcp_frame(src_ip, dst_ip, TcpSegment(80, 49152, 1000, 2000, window=512, payload=payload),
                                  options, flags))
        if offset_words is not None:  # a data offset set by hand; the TCP checksum made to fit it
            raw[14 + 20 + 12] = offset_words << 4
            raw[50:52] = b"\x00\x00"
            end = 14 + int.from_bytes(raw[16:18], "big")
            raw[50:52] = tcp_checksum_reference(src_ip, dst_ip, bytes(raw[34:end])).to_bytes(2, "big")
        if damage is not None:
            raw[damage] ^= 0x01
        raw = bytes(raw if size is None else raw[:size])
        assert tcp_malformed_as_named(wire.decode_tcp_frame(raw)) == reference_tcp_frame(raw)

    def test_decode_names_the_malformed_layer(self):
        src_ip, dst_ip = b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02"
        good = wire.encode_tcp_frame(
            BCAST.octets, SRC.octets, src_ip, dst_ip, int.from_bytes(src_ip + dst_ip, "big"), 1,
            80, 49152, 1000, 2000, wire.TCP_ACK, 8192, b"data",
        )
        fields = (SRC.octets, src_ip, dst_ip, 80, 49152, 1000, 2000, wire.TCP_ACK, 8192)
        assert wire.decode_tcp_frame(good) == (*fields, b"data")
        for offset, layer in ((24, "ipv4"), (50, "tcp"), (57, "tcp")):  # a checksum, or the payload
            bad = bytearray(good)
            bad[offset] ^= 0x01
            expected = "ipv4_malformed" if layer == "ipv4" else (*fields, None)
            assert wire.decode_tcp_frame(bytes(bad)) == expected
        assert wire.decode_tcp_frame(ipv4_frame_with_flags(good, 0x2000)) == "ipv4_malformed"  # a fragment
        assert wire.decode_tcp_frame(ipv4_frame_with_flags(good, 0x4000)) == (*fields, b"data")  # don't fragment
        assert wire.decode_tcp_frame(good[:53]) == "ipv4_malformed"  # shorter than its total length
        assert wire.decode_tcp_frame(good[:14] + good[14:16] + b"\x00\xff" + good[18:]) == "ipv4_malformed"
        seg = TcpSegment(80, 49152, 1000, 2000, ack_flag=True, payload=b"after")
        assert wire.decode_tcp_frame(tcp_frame(src_ip, dst_ip, seg, OPT_TIMESTAMP))[-1] == b"after"
        udp = bytearray(good)
        udp[14 + 9] = wire.IPPROTO_UDP
        assert wire.decode_tcp_frame(bytes(udp)) is None  # for decode_udp_frame
        assert wire.decode_tcp_frame(good[:33]) is None
        assert wire.decode_tcp_frame(good[:12] + b"\x08\x06" + good[14:]) is None  # ARP

    @pytest.mark.parametrize("options, mss", [
        (b"", None), (OPT_MSS, 1460), (OPT_TIMESTAMP, None), (b"\x01\x01" + OPT_MSS[:2] + b"\x02\x18\x00\x00", 536),
        (OPT_TIMESTAMP + bytes((2, 4, 0, 0)), 0), (bytes((0, 2, 4, 5)), None), (bytes((8, 0, 2, 4)), None),
        (bytes((8, 9, 2, 4)), None), (bytes((2, 3, 1, 1)), None),
    ], ids=["none", "mss", "timestamp", "after_nops", "after_timestamp", "after_end", "length_0", "past_the_end",
            "bad_length"])
    def test_mss_option_is_read_from_the_options(self, options, mss):
        seg = TcpSegment(80, 49152, 1000, 0, syn=True)
        raw = tcp_frame(b"\x0a\x00\x02\x0f", b"\x0a\x00\x02\x02", seg, options)
        assert wire.decode_tcp_frame(raw)[-1] == b""
        assert wire.tcp_mss_option(raw) == mss


def tcp_frame(src_ip: bytes, dst_ip: bytes, seg: TcpSegment, options: bytes = b"", flags: int | None = None) -> bytes:
    """A TCP frame built by the oracle encoder, with ``flags`` in place of the segment's."""
    segment = bytearray(encode_tcp(seg, src_ip, dst_ip, options))
    if flags is not None:
        segment[13] = flags
        segment[16:18] = b"\x00\x00"
        segment[16:18] = tcp_checksum_reference(src_ip, dst_ip, bytes(segment)).to_bytes(2, "big")
    pkt = Ipv4Packet(src_ip, dst_ip, wire.IPPROTO_TCP, bytes(segment))
    return encode_frame(EthernetFrame(BCAST.octets, SRC.octets, wire.ETHERTYPE_IPV4, encode_ipv4(pkt)))


def reference_tcp_frame(raw: bytes):
    """What ``decode_tcp_frame`` should return, by the reference decoders."""
    try:
        frame = decode_frame(raw)
    except ValueError:
        return None
    if frame.ethertype != wire.ETHERTYPE_IPV4 or len(frame.payload) < 20 or frame.payload[9] != 6:
        return None
    try:
        pkt = decode_ipv4(frame.payload)
    except ValueError:
        return "ipv4_malformed"
    try:
        seg = decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)
    except ValueError:
        return "tcp_malformed", frame.src, pkt.src_ip, pkt.dst_ip
    return (frame.src, pkt.src_ip, pkt.dst_ip, seg.src_port, seg.dst_port, seg.seq, seg.ack,
            seg.flags, seg.window, seg.payload)


def tcp_malformed_as_named(fields):
    """A result of ``decode_tcp_frame`` whose payload is None, as its drop name
    and the addresses a stack still learns from; the header fields of a bad
    segment carry no meaning."""
    if isinstance(fields, tuple) and fields[-1] is None:
        return ("tcp_malformed", *fields[:3])
    return fields


def ipv4_frame_with_flags(raw: bytes, flags_offset: int) -> bytes:
    return raw[:14] + ipv4_with_flags(raw[14:], flags_offset)


class TestArp:
    def test_roundtrip(self):
        pkt = wire.ArpPacket(
            wire.ARP_OP_REQUEST, SRC, b"\x0a\x00\x02\x0f", MacAddress(b"\x00" * 6), b"\x0a\x00\x02\x02"
        )
        assert wire.decode_arp(wire.encode_arp(pkt)) == pkt

    def test_bad_header_rejected(self):
        raw = bytearray(wire.encode_arp(
            wire.ArpPacket(1, SRC, b"\x01" * 4, SRC, b"\x02" * 4)
        ))
        raw[0] = 9
        with pytest.raises(DecodeError):
            wire.decode_arp(bytes(raw))


class TestDhcp:
    def test_roundtrip_with_options(self):
        msg = DhcpMessage(
            op=2, xid=0xDEADBEEF, client_mac=SRC, message_type=wire.DHCP_ACK,
            your_ip=b"\x0a\x00\x02\x0f", requested_ip=b"\x0a\x00\x02\x0f",
            server_id=b"\x0a\x00\x02\x02", subnet_mask=b"\xff\xff\xff\x00",
            router=b"\x0a\x00\x02\x02", lease_time=86400,
        )
        assert wire.decode_dhcp(wire.encode_dhcp(msg)) == msg

    def test_magic_cookie_present_on_encode(self):
        raw = wire.encode_dhcp(DhcpMessage(1, 1, SRC, wire.DHCP_DISCOVER))
        assert int.from_bytes(raw[236:240], "big") == wire.DHCP_MAGIC_COOKIE
        assert len(raw) >= 300

    def test_magic_cookie_required_on_decode(self):
        raw = bytearray(wire.encode_dhcp(DhcpMessage(1, 1, SRC, wire.DHCP_DISCOVER)))
        raw[236] ^= 0xFF
        with pytest.raises(DecodeError):
            wire.decode_dhcp(bytes(raw))

    def test_unknown_options_ignored(self):
        raw = bytearray(wire.encode_dhcp(DhcpMessage(1, 7, SRC, wire.DHCP_DISCOVER)))
        # graft an unknown option (code 60, len 2) before the END marker
        end = raw.index(bytes([wire.DHCP_OPT_END]), 240)
        raw[end:end] = bytes([60, 2, 0xAB, 0xCD])
        decoded = wire.decode_dhcp(bytes(raw))
        assert decoded.message_type == wire.DHCP_DISCOVER
        assert decoded.xid == 7

    @given(
        xid=st.integers(0, 2**32 - 1), mac=macs,
        mtype=st.sampled_from([1, 2, 3, 5, 6]), your_ip=ips,
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, xid, mac, mtype, your_ip):
        msg = DhcpMessage(op=1, xid=xid, client_mac=mac, message_type=mtype, your_ip=your_ip)
        assert wire.decode_dhcp(wire.encode_dhcp(msg)) == msg


class TestHttp:
    def test_simple_get(self):
        parser = HttpRequestParser()
        request = parser.feed(b"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request is not None
        assert (request.method, request.target) == ("GET", "/hello")
        assert request.headers["host"] == "x"

    def test_incremental_feed(self):
        parser = HttpRequestParser()
        assert parser.feed(b"GET /hello HT") is None
        assert parser.feed(b"TP/1.1\r\n") is None
        request = parser.feed(b"\r\n")
        assert request is not None and request.target == "/hello"

    def test_content_length_body(self):
        parser = HttpRequestParser()
        assert parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nab") is None
        request = parser.feed(b"cd")
        assert request is not None and request.body == b"abcd"

    def test_malformed_request_line(self):
        with pytest.raises(HttpParseError):
            HttpRequestParser().feed(b"NONSENSE\r\n\r\n")

    def test_header_limit(self):
        blob = b"GET / HTTP/1.1\r\n" + b"".join(
            b"X-H%d: v\r\n" % i for i in range(40)
        ) + b"\r\n"
        with pytest.raises(HttpParseError):
            HttpRequestParser().feed(blob)

    def test_declared_body_over_the_cap_rejected_with_the_head(self):
        with pytest.raises(HttpBodyTooLarge):
            HttpRequestParser().feed(b"POST /x HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n")

    def test_body_at_the_cap_accepted(self):
        body = bytes(range(256)) * (wire.MAX_BODY // 256)
        assert len(body) == 65536 == wire.MAX_BODY
        request = HttpRequestParser().feed(b"POST /x HTTP/1.1\r\nContent-Length: 65536\r\n\r\n" + body)
        assert request is not None and request.body == body
        with pytest.raises(HttpBodyTooLarge):
            HttpRequestParser().feed(b"POST /x HTTP/1.1\r\nContent-Length: 65537\r\n\r\n")

    def test_response_encoding(self):
        resp = wire.HttpResponse(200, "OK", [("Content-Length", "2")], b"ok")
        assert wire.encode_response(resp) == b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def test_reference_oracles_import_nothing_from_emunet():
    """The stacks are checked against these oracles, so they share no code with them."""
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "random" in modules  # the walk sees the imports there are
    assert [name for name in modules if name.split(".")[0] in ("emunet", "")] == []
