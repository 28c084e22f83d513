"""Byte-exact wire formats shared by the device model, NAT stack and guest.

Ethernet II framing (RFC 894), ARP, IPv4 without options (RFC 791), UDP,
TCP without options on encode (RFC 793), DHCP (RFC 2131) and HTTP/1.1
message units.  No frame check sequence is carried on the virtual wire;
frames are payload-only and zero-padded to the 60 byte minimum.

Frames have flat codecs, which take and return plain fields.
``decode_tcp_frame`` parses a whole Ethernet + IPv4 + TCP frame in one pass,
reading the 54-byte header with one ``struct.Struct``, and returns its
fields, or the name of the layer that is malformed; ``encode_tcp_frame``, the
one encoder of TCP frames, writes a whole frame with the same ``Struct``.
``decode_udp_frame`` and ``encode_udp_frame`` do the same for every other
IPv4 frame, and ``encode_eth_frame`` writes an ARP frame.  Every IPv4 header
is checked by one rule, ``_ipv4_unsound``, and built by one function,
``_ipv4_fields``, as libslirp's ``ip_input`` checks each packet once before
``tcp_input`` or ``udp_input`` sees it.  Checksums are computed with the
pseudo-header (and, on encode, the other header words) folded into the
initial sum, so ``_sum16`` runs once over the segment.  ARP and DHCP
messages keep object codecs (``ArpPacket``, ``DhcpMessage``), which hide
their formats.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

ETH_HEADER_LEN = 14
ETH_MIN_FRAME = 60
ETH_MAX_PAYLOAD = 1500

IPPROTO_TCP = 6
IPPROTO_UDP = 17

ARP_OP_REQUEST = 1
ARP_OP_REPLY = 2

DHCP_MAGIC_COOKIE = 0x63825363
DHCP_DISCOVER = 1
DHCP_OFFER = 2
DHCP_REQUEST = 3
DHCP_ACK = 5
DHCP_NAK = 6

DHCP_OPT_SUBNET_MASK = 1
DHCP_OPT_ROUTER = 3
DHCP_OPT_REQUESTED_IP = 50
DHCP_OPT_LEASE_TIME = 51
DHCP_OPT_MESSAGE_TYPE = 53
DHCP_OPT_SERVER_ID = 54
DHCP_OPT_END = 255
DHCP_OPT_PAD = 0


class WireError(Exception):
    """Base for encode/decode failures."""


class EncodeError(WireError):
    pass


class DecodeError(WireError):
    pass


class HttpParseError(WireError):
    pass


class HttpBodyTooLarge(HttpParseError):
    pass


def ip_to_bytes(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad address: {text!r}")
    octets = []
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255:
            raise ValueError(f"not a dotted-quad address: {text!r}")
        octets.append(int(part))
    return bytes(octets)


def ip_to_str(raw: bytes) -> str:
    if len(raw) != 4:
        raise ValueError("IPv4 address must be 4 bytes")
    return ".".join(str(b) for b in raw)


@dataclass(frozen=True)
class MacAddress:
    octets: bytes

    def __post_init__(self) -> None:
        if len(self.octets) != 6:
            raise ValueError("MAC address must be 6 bytes")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"not a MAC address: {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)


BROADCAST_MAC = MacAddress(b"\xff" * 6)
ZERO_MAC = MacAddress(b"\x00" * 6)


def _sum16(data: bytes, total: int = 0) -> int:
    """Ones-complement 16-bit word sum; odd lengths padded with a zero byte.

    Read as one integer, the data is the sum of its words times powers of
    2**16, and 2**16 == 1 (mod 0xFFFF); so the remainder mod 0xFFFF is the
    end-around-carry sum (RFC 1071 section 2).  The data is read
    little-endian, which ``int.from_bytes`` does faster: that sums the words
    byte-swapped, and 256 times that sum is the big-endian one, as
    256 * 256 == 1 (mod 0xFFFF) (RFC 1071's byte-order independence).  An
    odd trailing byte then needs no pad.  A nonzero sum folds to 0xFFFF
    rather than 0, as the carry loop would; only all-zero input gives 0.
    """
    value = int.from_bytes(data, "little")
    total += value % 0xFFFF << 8
    return total % 0xFFFF or (0xFFFF if total or value else 0)


def ipv4_checksum(header: bytes) -> int:
    """Header checksum: ones-complement of the ones-complement word sum.

    The caller must zero the checksum field first; over a header with its
    checksum in place, 0 means the header verifies.
    """
    if len(header) % 2:
        raise ValueError("header length must be a multiple of 2")
    if len(header) < 20:
        raise ValueError("header shorter than 20 bytes")
    return ~_sum16(header) & 0xFFFF


def tcp_checksum(src_ip: bytes, dst_ip: bytes, segment: bytes) -> int:
    """TCP checksum over the IPv4 pseudo-header plus the segment bytes.

    The checksum field inside ``segment`` must be zeroed by the caller; over
    a segment with its checksum in place, 0 means it verifies.  The
    pseudo-header's words go into the initial sum, so ``_sum16`` runs once.
    """
    pseudo = int.from_bytes(src_ip + dst_ip, "big") + IPPROTO_TCP + len(segment)
    return ~_sum16(segment, pseudo) & 0xFFFF


def _ipv4_unsound(raw: bytes, size: int, ver_ihl: int, frag: int, total: int) -> bool:
    """The one IPv4 header rule, for every frame of ``size`` bytes: version 4
    with no options, no fragment (the don't-fragment bit may be set), a
    total length within the frame, and a header checksum that verifies."""
    return (
        ver_ihl != 0x45 or frag & 0x3FFF != 0 or total < 20 or ETH_HEADER_LEN + total > size
        or ipv4_checksum(raw[14:34]) != 0
    )


_TTL = 64


def _ipv4_fields(total: int, ident: int, protocol: int, src_ip: bytes, dst_ip: bytes, addr_sum: int) -> tuple:
    """The fields of every IPv4 header written here, in ``struct`` order: no
    options or flags, TTL 64.  The checksum takes the header's words as
    integers, with ``addr_sum`` (``int.from_bytes(src_ip + dst_ip, "big")``)
    standing for the addresses, so no bytes are summed."""
    ip_sum = (0x4500 + total + ident + (_TTL << 8 | protocol) + addr_sum) % 0xFFFF or 0xFFFF
    return 0x45, 0, total, ident, 0, _TTL, protocol, 0xFFFF - ip_sum, src_ip, dst_ip


TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


# Ethernet II, IPv4 and TCP headers without options: the header of every
# frame encode_tcp_frame writes, and the fixed part of every one
# decode_tcp_frame reads.
TCP_FRAME = struct.Struct("!6s6sHBBHHHBBH4s4sHHIIBBHHH")


def decode_tcp_frame(raw: bytes) -> tuple | str | None:
    """Parse an IPv4/TCP frame, whatever its flags, in one pass.

    Returns ``(src_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags,
    window, payload)``, with TCP options skipped by the data offset.  The
    payload is None when the IPv4 header is sound but the TCP segment is not
    (truncated, a bad data offset or checksum): the caller may still learn
    from the addresses, and counts ``tcp_malformed``.  A frame whose IPv4
    header is unsound (options, a fragment, a bad length or checksum)
    returns the string ``"ipv4_malformed"``.  A frame that is not IPv4
    carrying TCP returns None, for ``decode_udp_frame`` and ``decode_arp``.
    """
    size = len(raw)
    if size < 54:  # too short for a TCP header: pad, so the one Struct reads it
        if size < 34 or raw[12:14] != b"\x08\x00" or raw[23] != IPPROTO_TCP:
            return None
        raw = bytes(raw) + bytes(54 - size)
    (_dst, src_mac, ethertype, ver_ihl, _tos, total, _ident, frag, _ttl, proto, _hsum,
     src_ip, dst_ip, src_port, dst_port, seq, ack, offset, flags, window, _tsum, _urg,
     ) = TCP_FRAME.unpack_from(raw)
    if ethertype != ETHERTYPE_IPV4 or proto != IPPROTO_TCP:
        return None
    if _ipv4_unsound(raw, size, ver_ihl, frag, total):
        return "ipv4_malformed"
    end = ETH_HEADER_LEN + total
    start = 34 + (offset >> 4 << 2)
    if start < 54 or start > end or tcp_checksum(src_ip, dst_ip, raw[34:end]):
        return src_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, None
    return src_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, raw[start:end]


def encode_tcp_frame(
    dst_mac: bytes,
    src_mac: bytes,
    src_ip: bytes,
    dst_ip: bytes,
    addr_sum: int,
    ident: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    window: int,
    payload: bytes,
) -> bytes:
    """One TCP segment as a whole frame, zero-padded to the 60 byte minimum.

    ``addr_sum`` is ``int.from_bytes(src_ip + dst_ip, "big")``, which an
    endpoint computes once: both checksums start from it.  The TCP header
    has no options, TTL is 64 and no IPv4 flag is set.
    """
    total = 40 + len(payload)
    if total > ETH_MAX_PAYLOAD:
        raise EncodeError(f"TCP payload of {len(payload)} bytes exceeds {ETH_MAX_PAYLOAD - 40}")
    # The TCP sum takes the header's words as integers (a 32-bit field is
    # two words), so only the payload goes through _sum16.
    tcp_sum = _sum16(
        payload,
        addr_sum + IPPROTO_TCP + total - 20 + src_port + dst_port
        + (seq >> 16) + (seq & 0xFFFF) + (ack >> 16) + (ack & 0xFFFF) + (0x5000 | flags) + window,
    )
    frame = TCP_FRAME.pack(
        dst_mac, src_mac, ETHERTYPE_IPV4, *_ipv4_fields(total, ident, IPPROTO_TCP, src_ip, dst_ip, addr_sum),
        src_port, dst_port, seq, ack, 0x50, flags, window, 0xFFFF - tcp_sum, 0,
    ) + payload
    if total < ETH_MIN_FRAME - ETH_HEADER_LEN:
        frame += bytes(ETH_MIN_FRAME - ETH_HEADER_LEN - total)
    return frame


def tcp_mss_option(raw: bytes) -> int | None:
    """The MSS option (RFC 9293 section 3.2, kind 2) of a frame that
    ``decode_tcp_frame`` took, or None if its options carry none."""
    end = 34 + (raw[46] >> 4 << 2)
    pos = 54
    while pos + 1 < end and raw[pos]:  # kind 0 ends the list
        if raw[pos] == 1:  # no-operation
            pos += 1
        elif raw[pos + 1] < 2 or pos + raw[pos + 1] > end:
            break
        elif raw[pos] == 2 and raw[pos + 1] == 4:
            return raw[pos + 2] << 8 | raw[pos + 3]
        else:
            pos += raw[pos + 1]
    return None


_ETH_HEADER = struct.Struct("!6s6sH")
# IPv4 and UDP headers, the first without options: what encode_udp_frame
# writes after the Ethernet header.
_UDP_HEADERS = struct.Struct("!BBHHHBBH4s4sHHHH")
# Ethernet II, IPv4 and UDP headers: the fixed part of every frame
# decode_udp_frame reads.
UDP_FRAME = struct.Struct("!6s6sHBBHHHBBH4s4sHHHH")


def encode_eth_frame(dst_mac: bytes, src_mac: bytes, ethertype: int, payload: bytes) -> bytes:
    """An Ethernet II frame, zero-padded to the 60 byte minimum."""
    if len(payload) > ETH_MAX_PAYLOAD:
        raise EncodeError(f"payload of {len(payload)} bytes exceeds {ETH_MAX_PAYLOAD}")
    frame = _ETH_HEADER.pack(dst_mac, src_mac, ethertype) + payload
    if len(frame) < ETH_MIN_FRAME:
        frame += bytes(ETH_MIN_FRAME - len(frame))
    return frame


def encode_udp_frame(
    dst_mac: bytes,
    src_mac: bytes,
    src_ip: bytes,
    dst_ip: bytes,
    ident: int,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """One UDP datagram as a whole frame, with its checksum (a computed 0 is
    sent as 0xFFFF, since 0 means none was computed)."""
    length = 8 + len(payload)
    addr_sum = int.from_bytes(src_ip + dst_ip, "big")
    udp_sum = _sum16(payload, addr_sum + IPPROTO_UDP + length + src_port + dst_port + length)
    return encode_eth_frame(dst_mac, src_mac, ETHERTYPE_IPV4, _UDP_HEADERS.pack(
        *_ipv4_fields(20 + length, ident, IPPROTO_UDP, src_ip, dst_ip, addr_sum),
        src_port, dst_port, length, 0xFFFF - udp_sum or 0xFFFF,
    ) + payload)


def decode_udp_frame(raw: bytes) -> tuple | str:
    """Parse a frame that ``decode_tcp_frame`` did not take and that is not
    ARP, checking one layer after another.

    Returns ``(src_mac, src_ip, dst_ip, protocol, src_port, dst_port,
    payload)`` for a sound IPv4 header.  The payload is None when that is all
    that is sound: the protocol is not UDP (the ports are then 0), or the
    datagram is truncated, its length field is below 8 or past the packet,
    or its checksum, when one was sent, does not verify.  The caller may
    still learn from the addresses.  Otherwise the result is the name of
    the first layer that fails: ``"frame_malformed"`` (under 14 bytes),
    ``"ethertype"`` (not IPv4) or ``"ipv4_malformed"``.
    """
    size = len(raw)
    if size < ETH_HEADER_LEN:
        return "frame_malformed"
    if raw[12:14] != b"\x08\x00":
        return "ethertype"
    if size < 34:
        return "ipv4_malformed"
    if size < 42:  # too short for a UDP header: pad, so the one Struct reads it
        raw = bytes(raw) + bytes(42 - size)
    (_dst, src_mac, _ethertype, ver_ihl, _tos, total, _ident, frag, _ttl, protocol, _hsum,
     src_ip, dst_ip, src_port, dst_port, length, checksum) = UDP_FRAME.unpack_from(raw)
    if _ipv4_unsound(raw, size, ver_ihl, frag, total):
        return "ipv4_malformed"
    if protocol != IPPROTO_UDP:
        return src_mac, src_ip, dst_ip, protocol, 0, 0, None
    end = 34 + length
    if length < 8 or end > ETH_HEADER_LEN + total:
        payload = None
    elif checksum and _sum16(raw[34:end], int.from_bytes(src_ip + dst_ip, "big") + IPPROTO_UDP + length) != 0xFFFF:
        payload = None  # a checksum of 0 means the sender computed none
    else:
        payload = raw[42:end]
    return src_mac, src_ip, dst_ip, protocol, src_port, dst_port, payload


@dataclass
class ArpPacket:
    op: int
    sender_mac: MacAddress
    sender_ip: bytes
    target_mac: MacAddress
    target_ip: bytes


def encode_arp(pkt: ArpPacket) -> bytes:
    return struct.pack(
        "!HHBBH6s4s6s4s",
        1, ETHERTYPE_IPV4, 6, 4, pkt.op,
        pkt.sender_mac.octets, pkt.sender_ip,
        pkt.target_mac.octets, pkt.target_ip,
    )


def decode_arp(raw: bytes) -> ArpPacket:
    if len(raw) < 28:
        raise DecodeError("truncated ARP packet")
    htype, ptype, hlen, plen, op, sha, spa, tha, tpa = struct.unpack_from("!HHBBH6s4s6s4s", raw, 0)
    if (htype, ptype, hlen, plen) != (1, ETHERTYPE_IPV4, 6, 4):
        raise DecodeError("unsupported ARP header")
    return ArpPacket(op, MacAddress(sha), spa, MacAddress(tha), tpa)


@dataclass
class DhcpMessage:
    op: int  # 1 = request, 2 = reply
    xid: int
    client_mac: MacAddress
    message_type: int
    your_ip: bytes = b"\x00\x00\x00\x00"
    requested_ip: bytes | None = None
    server_id: bytes | None = None
    subnet_mask: bytes | None = None
    router: bytes | None = None
    lease_time: int | None = None


def encode_dhcp(msg: DhcpMessage) -> bytes:
    fixed = struct.pack(
        "!BBBBIHH4s4s4s4s16s64s128sI",
        msg.op, 1, 6, 0, msg.xid & 0xFFFFFFFF, 0, 0,
        b"\x00" * 4, msg.your_ip, b"\x00" * 4, b"\x00" * 4,
        msg.client_mac.octets + b"\x00" * 10, b"", b"",
        DHCP_MAGIC_COOKIE,
    )
    options = bytearray([DHCP_OPT_MESSAGE_TYPE, 1, msg.message_type])
    for code, value in (
        (DHCP_OPT_REQUESTED_IP, msg.requested_ip),
        (DHCP_OPT_SERVER_ID, msg.server_id),
        (DHCP_OPT_SUBNET_MASK, msg.subnet_mask),
        (DHCP_OPT_ROUTER, msg.router),
    ):
        if value is not None:
            options += bytes([code, 4]) + value
    if msg.lease_time is not None:
        options += bytes([DHCP_OPT_LEASE_TIME, 4]) + struct.pack("!I", msg.lease_time)
    options.append(DHCP_OPT_END)
    raw = fixed + bytes(options)
    if len(raw) < 300:  # classic BOOTP minimum
        raw += b"\x00" * (300 - len(raw))
    return raw


def decode_dhcp(raw: bytes) -> DhcpMessage:
    if len(raw) < 240:
        raise DecodeError("truncated DHCP message")
    op = raw[0]
    xid, = struct.unpack_from("!I", raw, 4)
    your_ip = bytes(raw[16:20])
    chaddr = bytes(raw[28:34])
    cookie, = struct.unpack_from("!I", raw, 236)
    if cookie != DHCP_MAGIC_COOKIE:
        raise DecodeError(f"missing DHCP magic cookie (got 0x{cookie:08x})")
    msg = DhcpMessage(op=op, xid=xid, client_mac=MacAddress(chaddr), message_type=0, your_ip=your_ip)
    pos = 240
    while pos < len(raw):
        code = raw[pos]
        if code == DHCP_OPT_END:
            break
        if code == DHCP_OPT_PAD:
            pos += 1
            continue
        if pos + 1 >= len(raw):
            raise DecodeError("truncated DHCP option")
        length = raw[pos + 1]
        value = bytes(raw[pos + 2:pos + 2 + length])
        if len(value) != length:
            raise DecodeError("truncated DHCP option value")
        if code == DHCP_OPT_MESSAGE_TYPE and length == 1:
            msg.message_type = value[0]
        elif code == DHCP_OPT_REQUESTED_IP and length == 4:
            msg.requested_ip = value
        elif code == DHCP_OPT_SERVER_ID and length == 4:
            msg.server_id = value
        elif code == DHCP_OPT_SUBNET_MASK and length == 4:
            msg.subnet_mask = value
        elif code == DHCP_OPT_ROUTER and length == 4:
            msg.router = value
        elif code == DHCP_OPT_LEASE_TIME and length == 4:
            msg.lease_time = struct.unpack("!I", value)[0]
        # other options ignored
        pos += 2 + length
    if msg.message_type == 0:
        raise DecodeError("DHCP message without message-type option")
    return msg


@dataclass
class HttpRequest:
    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class HttpResponse:
    status: int
    reason: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""


def encode_response(resp: HttpResponse) -> bytes:
    lines = [f"HTTP/1.1 {resp.status} {resp.reason}\r\n"]
    for name, value in resp.headers:
        lines.append(f"{name}: {value}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("ascii") + resp.body


MAX_BODY = 65536  # bytes of request body the parser will buffer
MAX_LINE = 8192  # bytes of the request line, and of each header line
MAX_HEADERS = 32


class HttpRequestParser:
    """Incremental HTTP/1.1 request parser.

    feed() returns a complete HttpRequest once the head (and any
    Content-Length body) has arrived, else None.  Malformed input raises
    HttpParseError.  Limits are enforced on the head size and header count,
    and a declared body over ``MAX_BODY`` raises HttpBodyTooLarge at once.
    """

    def __init__(self):
        self._buf = bytearray()
        self._request: HttpRequest | None = None
        self._body_needed = 0

    def feed(self, data: bytes) -> HttpRequest | None:
        self._buf += data
        if self._request is None:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                if len(self._buf) > MAX_LINE + MAX_HEADERS * MAX_LINE:
                    raise HttpParseError("request head too large")
                return None
            head = bytes(self._buf[:end])
            del self._buf[:end + 4]
            self._request = self._parse_head(head)
            self._body_needed = int(self._request.headers.get("content-length", "0") or "0")
            if self._body_needed > MAX_BODY:
                raise HttpBodyTooLarge(f"declared body of {self._body_needed} bytes")
        if len(self._buf) < self._body_needed:
            return None
        request = self._request
        request.body = bytes(self._buf[:self._body_needed])
        del self._buf[:self._body_needed]
        self._request = None
        self._body_needed = 0
        return request

    def _parse_head(self, head: bytes) -> HttpRequest:
        lines = head.split(b"\r\n")
        if len(lines) - 1 > MAX_HEADERS:
            raise HttpParseError("too many headers")
        if len(lines[0]) > MAX_LINE:
            raise HttpParseError("request line too long")
        try:
            request_line = lines[0].decode("ascii")
        except UnicodeDecodeError as exc:
            raise HttpParseError("non-ascii request line") from exc
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[0] or not parts[1].startswith("/") or not parts[2].startswith("HTTP/"):
            raise HttpParseError(f"malformed request line: {request_line!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(b":")
            if not sep:
                raise HttpParseError(f"malformed header line: {line!r}")
            try:
                headers[name.decode("ascii").strip().lower()] = value.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise HttpParseError("non-ascii header") from exc
        content_length = headers.get("content-length")
        if content_length is not None and not content_length.isdigit():
            raise HttpParseError(f"bad content-length: {content_length!r}")
        return HttpRequest(parts[0], parts[1], parts[2], headers)
