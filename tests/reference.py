"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the contracts, not from the
package sources: straight loops, fixed offsets, dict state.  Keep this
module free of imports from emunet so the oracle side stays independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Checksums: straight-loop 16-bit ones-complement accumulator.


def ones_complement_checksum(data: bytes) -> int:
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if len(data) % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def tcp_checksum_reference(src_ip: bytes, dst_ip: bytes, segment: bytes) -> int:
    pseudo = bytes(src_ip) + bytes(dst_ip) + bytes([0, 6]) + len(segment).to_bytes(2, "big")
    return ones_complement_checksum(pseudo + segment)


def udp_checksum_reference(src_ip: bytes, dst_ip: bytes, datagram: bytes) -> int:
    pseudo = bytes(src_ip) + bytes(dst_ip) + bytes([0, 17]) + len(datagram).to_bytes(2, "big")
    return ones_complement_checksum(pseudo + datagram)


# ---------------------------------------------------------------------------
# Ethernet II (RFC 894), IPv4 (RFC 791) and UDP (RFC 768) object codecs:
# fixed offsets, no shared code with the package.  MAC addresses are bytes.


@dataclass
class EthernetFrame:
    dst: bytes
    src: bytes
    ethertype: int
    payload: bytes = b""


def pad_frame(dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
    raw = dst + src + ethertype.to_bytes(2, "big") + payload
    if len(raw) < 60:
        raw += b"\x00" * (60 - len(raw))
    return raw


def encode_frame(frame: EthernetFrame) -> bytes:
    """The frame's bytes, zero-padded to the 60 byte minimum."""
    return pad_frame(frame.dst, frame.src, frame.ethertype, frame.payload)


def decode_frame(raw: bytes) -> EthernetFrame:
    if len(raw) < 14:
        raise ValueError("frame shorter than the 14 byte header")
    return EthernetFrame(bytes(raw[0:6]), bytes(raw[6:12]), (raw[12] << 8) | raw[13], bytes(raw[14:]))


@dataclass
class Ipv4Packet:
    src_ip: bytes
    dst_ip: bytes
    protocol: int
    payload: bytes = b""
    ttl: int = 64
    ident: int = 0


def encode_ipv4(pkt: Ipv4Packet) -> bytes:
    """A 20 byte header (no options, no flags) and the payload."""
    header = (
        bytes([0x45, 0]) + (20 + len(pkt.payload)).to_bytes(2, "big") + (pkt.ident & 0xFFFF).to_bytes(2, "big")
        + b"\x00\x00" + bytes([pkt.ttl, pkt.protocol]) + b"\x00\x00" + bytes(pkt.src_ip) + bytes(pkt.dst_ip)
    )
    checksum = ones_complement_checksum(header)
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + pkt.payload


def decode_ipv4(raw: bytes) -> Ipv4Packet:
    """An IPv4 packet as RFC 791 reads it; ValueError for what the stacks
    count as ``ipv4_malformed``: a bad version or header checksum, options,
    a fragment, or a total length outside the bytes given."""
    if len(raw) < 20:
        raise ValueError("shorter than the 20 byte IPv4 header")
    if raw[0] != 0x45:
        raise ValueError("not version 4, or a header with options")
    if (raw[6] & 0x3F) or raw[7]:
        raise ValueError("a fragment")
    if ones_complement_checksum(raw[:20]) != 0:
        raise ValueError("header checksum mismatch")
    total = (raw[2] << 8) | raw[3]
    if not 20 <= total <= len(raw):
        raise ValueError(f"total length {total}")
    return Ipv4Packet(
        bytes(raw[12:16]), bytes(raw[16:20]), raw[9], bytes(raw[20:total]), ttl=raw[8], ident=(raw[4] << 8) | raw[5]
    )


@dataclass
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes = b""


def encode_udp(dgram: UdpDatagram, src_ip: bytes, dst_ip: bytes) -> bytes:
    header = (
        dgram.src_port.to_bytes(2, "big") + dgram.dst_port.to_bytes(2, "big")
        + (8 + len(dgram.payload)).to_bytes(2, "big")
    )
    checksum = udp_checksum_reference(src_ip, dst_ip, header + b"\x00\x00" + dgram.payload)
    return header + (checksum or 0xFFFF).to_bytes(2, "big") + dgram.payload  # a computed 0 is sent as all ones


def decode_udp(raw: bytes, src_ip: bytes, dst_ip: bytes) -> UdpDatagram:
    """The datagram ``raw`` holds, cut to its length field; ValueError for
    what the stacks count as ``udp_malformed``: truncation, a length below 8
    or past the bytes given, or a checksum, when one was sent, that fails."""
    if len(raw) < 8:
        raise ValueError("shorter than the 8 byte UDP header")
    length = (raw[4] << 8) | raw[5]
    if not 8 <= length <= len(raw):
        raise ValueError(f"UDP length {length}")
    raw = raw[:length]
    if raw[6:8] != b"\x00\x00" and udp_checksum_reference(src_ip, dst_ip, raw) != 0:
        raise ValueError("UDP checksum mismatch")
    return UdpDatagram((raw[0] << 8) | raw[1], (raw[2] << 8) | raw[3], bytes(raw[8:]))


def encode_arp_reference(op: int, sender_mac: bytes, sender_ip: bytes, target_mac: bytes, target_ip: bytes) -> bytes:
    """An Ethernet/IPv4 ARP packet (RFC 826): htype 1, ptype 0x0800, hlen 6, plen 4."""
    return bytes((0, 1, 8, 0, 6, 4, 0, op)) + sender_mac + sender_ip + target_mac + target_ip


# ---------------------------------------------------------------------------
# TCP segment codec (RFC 9293 section 3.1), the object form of a segment.

TCP_FIN, TCP_SYN, TCP_RST, TCP_PSH, TCP_ACK = 0x01, 0x02, 0x04, 0x08, 0x10
OPT_MSS = bytes((2, 4, 1460 >> 8, 1460 & 0xFF))  # maximum segment size 1460: a data offset of 6
OPT_TIMESTAMP = bytes((1, 1, 8, 10)) + bytes(range(8))  # NOP, NOP, timestamps: a data offset of 8


@dataclass
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    syn: bool = False
    ack_flag: bool = False
    fin: bool = False
    rst: bool = False
    psh: bool = False
    window: int = 8192
    payload: bytes = b""

    @property
    def flags(self) -> int:
        return (
            (TCP_FIN if self.fin else 0) | (TCP_SYN if self.syn else 0) | (TCP_RST if self.rst else 0)
            | (TCP_PSH if self.psh else 0) | (TCP_ACK if self.ack_flag else 0)
        )


def encode_tcp(seg: TcpSegment, src_ip: bytes, dst_ip: bytes, options: bytes = b"") -> bytes:
    """The segment's bytes, checksummed; ``options`` (a multiple of 4 bytes)
    go between the 20 byte header and the payload."""
    if len(options) % 4:
        raise ValueError("TCP options must fill whole 32-bit words")
    header = (
        seg.src_port.to_bytes(2, "big") + seg.dst_port.to_bytes(2, "big")
        + (seg.seq & 0xFFFFFFFF).to_bytes(4, "big") + (seg.ack & 0xFFFFFFFF).to_bytes(4, "big")
        + bytes([(5 + len(options) // 4) << 4, seg.flags]) + seg.window.to_bytes(2, "big")
    )
    body = options + seg.payload
    checksum = tcp_checksum_reference(src_ip, dst_ip, header + b"\x00\x00\x00\x00" + body)
    return header + checksum.to_bytes(2, "big") + b"\x00\x00" + body


def decode_tcp(raw: bytes, src_ip: bytes, dst_ip: bytes) -> TcpSegment:
    """The segment ``raw`` holds, options skipped; ValueError for what the
    stacks count as ``tcp_malformed``: truncation, a bad checksum, or a data
    offset below 5 words or past the segment."""
    if len(raw) < 20:
        raise ValueError("shorter than the 20 byte TCP header")
    if tcp_checksum_reference(src_ip, dst_ip, raw) != 0:
        raise ValueError("TCP checksum mismatch")
    offset = (raw[12] >> 4) * 4
    if not 20 <= offset <= len(raw):
        raise ValueError(f"data offset of {offset} bytes")
    flags = raw[13]
    return TcpSegment(
        src_port=(raw[0] << 8) | raw[1],
        dst_port=(raw[2] << 8) | raw[3],
        seq=int.from_bytes(raw[4:8], "big"),
        ack=int.from_bytes(raw[8:12], "big"),
        syn=bool(flags & TCP_SYN),
        ack_flag=bool(flags & TCP_ACK),
        fin=bool(flags & TCP_FIN),
        rst=bool(flags & TCP_RST),
        psh=bool(flags & TCP_PSH),
        window=(raw[14] << 8) | raw[15],
        payload=bytes(raw[offset:]),
    )


# ---------------------------------------------------------------------------
# Multicast hash oracle: CRC-32 via explicit polynomial long division over
# the message bits (init all-ones expressed as inverting the first 32 bits,
# multiplication by x^32 expressed as appending 32 zero bits).


def multicast_hash_oracle(mac: bytes) -> int:
    bits = []
    for byte in mac:
        for i in range(7, -1, -1):
            bits.append((byte >> i) & 1)
    for i in range(32):
        bits[i] ^= 1
    bits += [0] * 32
    reg = 0
    for bit in bits:
        reg = (reg << 1) | bit
        if reg & (1 << 32):
            reg ^= (1 << 32) | 0x04C11DB7
    return reg >> 26


# ---------------------------------------------------------------------------
# Brute-force descriptor ring simulator.

R_MODER = 0x00
R_INT_SOURCE = 0x04
R_INT_MASK = 0x08
R_TX_BD_NUM = 0x20
R_MAC_ADDR0 = 0x40
R_MAC_ADDR1 = 0x44
R_HASH0 = 0x48
R_HASH1 = 0x4C

_RXEN = 0x01
_TXEN = 0x02
_BRO = 0x08
_PRO = 0x20

_TXB = 0x01
_RXB = 0x04
_RXE = 0x08
_BUSY = 0x10

_OWNED = 0x8000  # READY on TX slots, EMPTY on RX slots
_IRQF = 0x4000
_WRAP = 0x2000
_ERR = 0x0001


class ReferenceMac:
    """Plain restatement of the ring/filter/interrupt contract."""

    def __init__(self, mem_size: int):
        self.mem = bytearray(mem_size)
        self.regs = {
            R_MODER: 0, R_INT_SOURCE: 0, R_INT_MASK: 0, R_TX_BD_NUM: 64,
            R_MAC_ADDR0: 0, R_MAC_ADDR1: 0, R_HASH0: 0, R_HASH1: 0,
        }
        self.desc = [[0, 0] for _ in range(128)]
        self.tx_ptr = 0
        self.rx_ptr = 64
        self.sent: list[bytes] = []
        self.accepts: list[bool] = []

    def irq(self) -> bool:
        return (self.regs[R_INT_SOURCE] & self.regs[R_INT_MASK]) != 0

    def reset(self) -> None:
        for key in self.regs:
            self.regs[key] = 0
        self.regs[R_TX_BD_NUM] = 64
        self.desc = [[0, 0] for _ in range(128)]
        self.tx_ptr = 0
        self.rx_ptr = 64

    def write_reg(self, off: int, val: int) -> None:
        val &= 0xFFFFFFFF
        if off == R_INT_SOURCE:
            self.regs[R_INT_SOURCE] &= ~val
        elif off == R_INT_MASK:
            self.regs[R_INT_MASK] = val
        elif off == R_TX_BD_NUM:
            clamped = min(max(val, 1), 128)
            self.regs[R_TX_BD_NUM] = clamped
            self.tx_ptr = 0
            self.rx_ptr = clamped
        elif off == R_MODER:
            self.regs[R_MODER] = val
            if val & _TXEN:
                self.xmit()
        else:
            self.regs[off] = val

    def write_desc(self, idx: int, len_flags: int, addr: int) -> None:
        len_flags &= 0xFFFFFFFF
        addr &= 0xFFFFFFFF
        self.desc[idx] = [len_flags, addr]
        if idx < self.regs[R_TX_BD_NUM] and len_flags & _OWNED and self.regs[R_MODER] & _TXEN:
            self.xmit()

    def xmit(self) -> None:
        if not self.regs[R_MODER] & _TXEN:
            return
        count = self.regs[R_TX_BD_NUM]
        while True:
            if self.tx_ptr >= count:
                self.tx_ptr = 0
            slot = self.tx_ptr
            len_flags, addr = self.desc[slot]
            if not len_flags & _OWNED:
                break
            length = (len_flags >> 16) & 0xFFFF
            flags = len_flags & 0xFFFF
            fits = addr + length <= len(self.mem)
            if fits:
                data = bytes(self.mem[addr:addr + length])
            else:
                flags |= _ERR
            flags &= ~_OWNED
            self.desc[slot] = [(length << 16) | flags, addr]
            if fits:
                self.sent.append(data)
                if flags & _IRQF:
                    self.regs[R_INT_SOURCE] |= _TXB
            if flags & _WRAP or slot + 1 >= count:
                self.tx_ptr = 0
            else:
                self.tx_ptr = slot + 1

    def receive(self, raw: bytes) -> None:
        if not self.regs[R_MODER] & _RXEN:
            self.accepts.append(False)
            return
        if not self._filter(raw[0:6]):
            self.accepts.append(False)
            return
        count = self.regs[R_TX_BD_NUM]
        if count >= 128:
            self.regs[R_INT_SOURCE] |= _BUSY
            self.accepts.append(False)
            return
        if self.rx_ptr < count or self.rx_ptr >= 128:
            self.rx_ptr = count
        slot = self.rx_ptr
        len_flags, addr = self.desc[slot]
        if not len_flags & _OWNED:
            self.regs[R_INT_SOURCE] |= _BUSY
            self.accepts.append(False)
            return
        flags = len_flags & 0xFFFF
        if addr + len(raw) <= len(self.mem):
            self.mem[addr:addr + len(raw)] = raw
            self.regs[R_INT_SOURCE] |= _RXB
        else:
            flags |= _ERR
            self.regs[R_INT_SOURCE] |= _RXE
        flags &= ~_OWNED
        self.desc[slot] = [(len(raw) << 16) | flags, addr]
        if flags & _WRAP or slot + 1 >= 128:
            self.rx_ptr = count
        else:
            self.rx_ptr = slot + 1
        self.accepts.append(True)

    def _filter(self, dst: bytes) -> bool:
        moder = self.regs[R_MODER]
        if moder & _PRO:
            return True
        if dst == b"\xff" * 6:
            return not moder & _BRO
        if dst[0] & 1:
            table = (self.regs[R_HASH1] << 32) | self.regs[R_HASH0]
            return bool(table >> multicast_hash_oracle(dst) & 1)
        a0 = self.regs[R_MAC_ADDR0]
        a1 = self.regs[R_MAC_ADDR1]
        mine = bytes(
            (
                (a1 >> 8) & 0xFF, a1 & 0xFF,
                (a0 >> 24) & 0xFF, (a0 >> 16) & 0xFF, (a0 >> 8) & 0xFF, a0 & 0xFF,
            )
        )
        return dst == mine


# ---------------------------------------------------------------------------
# Randomized op sequences shared by the equivalence tests.

PROGRAMMED_MAC = bytes((0x52, 0x54, 0x00, 0x12, 0x34, 0x56))
PROGRAMMED_A1 = (PROGRAMMED_MAC[0] << 8) | PROGRAMMED_MAC[1]
PROGRAMMED_A0 = int.from_bytes(PROGRAMMED_MAC[2:6], "big")


def random_ops(rng: random.Random, count: int, mem_size: int) -> list[tuple]:
    ops: list[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.32:
            idx = rng.randrange(0, 16)
            length = rng.randrange(0, 96)
            flags = rng.getrandbits(16)
            if rng.random() < 0.85:
                addr = rng.randrange(0, mem_size - 128)
            else:
                addr = rng.randrange(mem_size - 64, mem_size + 64)
            ops.append(("desc_write", idx, (length << 16) | flags, addr))
        elif roll < 0.45:
            ops.append(("xmit",))
        elif roll < 0.70:
            kind = rng.random()
            if kind < 0.4:
                dst = PROGRAMMED_MAC
            elif kind < 0.6:
                dst = b"\xff" * 6
            elif kind < 0.8:
                dst = bytes([0x01] + [rng.getrandbits(8) for _ in range(5)])
            else:
                dst = bytes([rng.getrandbits(8) & 0xFE] + [rng.getrandbits(8) for _ in range(5)])
            src = bytes(rng.getrandbits(8) for _ in range(6))
            payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 80)))
            ops.append(("recv", dst, src, rng.getrandbits(16), payload))
        elif roll < 0.80:
            ops.append(("reg_write", R_MODER, rng.getrandbits(6)))
        elif roll < 0.86:
            off = rng.choice((R_INT_MASK, R_INT_SOURCE))
            ops.append(("reg_write", off, rng.getrandbits(5)))
        elif roll < 0.91:
            value = rng.choice((rng.randrange(1, 9), 0, 130, rng.randrange(1, 9)))
            ops.append(("reg_write", R_TX_BD_NUM, value))
        elif roll < 0.97:
            off = rng.choice((R_MAC_ADDR0, R_MAC_ADDR1, R_HASH0, R_HASH1))
            if off == R_MAC_ADDR0 and rng.random() < 0.6:
                value = PROGRAMMED_A0
            elif off == R_MAC_ADDR1 and rng.random() < 0.6:
                value = PROGRAMMED_A1
            else:
                value = rng.getrandbits(32)
            ops.append(("reg_write", off, value))
        else:
            ops.append(("reset",))
    return ops
