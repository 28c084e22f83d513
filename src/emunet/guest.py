"""Deterministic native guest standing in for the emulated microcontroller load.

An ethernet driver speaking the MAC device register/descriptor interface, a
DHCP client, a reduced IPv4/TCP stack and an application layer serving HTTP
(or echoing bytes, for stream tests).  The guest runs on the same event
loop as its device; interrupt delivery is a loop wakeup tied to the
device's IRQ level.

Guest stdout is a log callable: one line when the address is bound, one
line per served HTTP request.

A received TCP frame is parsed once, by ``decode_tcp_frame``, and goes to
its connection's one input, ``segment_in`` (see ``tcp.py``); every other
frame goes to the one non-TCP input, ``_non_tcp_in``, which reads ARP with
``decode_arp`` and IPv4 with ``decode_udp_frame``.  Both inputs learn the
sender's MAC by one rule, ``_learn``.  Every TCP segment the guest sends is
one ``encode_tcp_frame``, and every DHCP message one ``encode_udp_frame``;
while a segment's next hop's MAC is unknown the frame waits in
``arp_pending`` with a zero destination MAC, which the ARP answer fills in.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import device as dev
from .tcp import WINDOW, TcpEndpoint, send_mss_for, send_owed_acks, seq_add
from .wire import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    BROADCAST_MAC,
    DHCP_ACK,
    DHCP_DISCOVER,
    DHCP_NAK,
    DHCP_OFFER,
    DHCP_REQUEST,
    ETHERTYPE_ARP,
    IPPROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    ZERO_MAC,
    ArpPacket,
    DecodeError,
    DhcpMessage,
    HttpBodyTooLarge,
    HttpParseError,
    HttpRequest,
    HttpRequestParser,
    HttpResponse,
    MacAddress,
    decode_arp,
    decode_dhcp,
    decode_tcp_frame,
    decode_udp_frame,
    encode_arp,
    encode_dhcp,
    encode_eth_frame,
    encode_response,
    encode_tcp_frame,
    encode_udp_frame,
    ip_to_str,
    tcp_mss_option,
)

DEFAULT_MAC = "52:54:00:12:34:56"

TX_SLOTS = 8
RX_SLOTS = 8
BUF_SIZE = 1536
TX_BUF_BASE = 0x1000
RX_BUF_BASE = 0x8000

BROADCAST_IP = b"\xff\xff\xff\xff"
ZERO_IP = b"\x00\x00\x00\x00"
ARP_QUEUE_MAX = 3  # packets held per unresolved next hop (Linux's old unres_qlen)
RNG_SEED = 0x6E57
FIRST_LOCAL_PORT = 33000  # of the ports tcp_connect takes, up to 65535


class DriverInitError(Exception):
    pass


@dataclass
class GuestConfig:
    mac: str = DEFAULT_MAC
    http_port: int = 80
    mode: str = "http"  # "http" | "echo"
    banner: str = ""
    ifname: str = "eth0"

    def to_dict(self) -> dict:
        return {
            "mac": self.mac,
            "http_port": self.http_port,
            "mode": self.mode,
            "banner": self.banner,
            "ifname": self.ifname,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GuestConfig":
        cfg = cls()
        for name in ("mac", "http_port", "mode", "banner", "ifname"):
            if name in data:
                setattr(cfg, name, data[name])
        if cfg.mode not in ("http", "echo"):
            raise ValueError(f"unknown guest mode {cfg.mode!r}")
        MacAddress.parse(cfg.mac)
        return cfg


class EthDriver:
    """Guest-side driver for the MAC device descriptor/register interface."""

    LINK_POLLS = 16

    def __init__(self, device: "dev.MacDevice", memory: "dev.GuestMemory", mac: MacAddress):
        self.device = device
        self.memory = memory
        self.mac = mac
        self.tx_next = 0
        self.rx_next = 0
        self.tx_full_drops = 0

    def init(self) -> None:
        """Bring-up sequence.

        The ordering is part of the contract: link discovery over MII first,
        then MAC address programming, descriptor ring programming (RX before
        TX), interrupt unmasking, and finally RX/TX enable.
        """
        for _ in range(self.LINK_POLLS):
            if self.device.mii_read(1) & dev.Phy.LINK_BIT:
                break
        else:
            raise DriverInitError("ethernet link did not come up")
        self.device.mii_read(2)
        self.device.mii_read(3)
        self.device.mii_write(0, 0x1200)  # enable + restart auto-negotiation

        octets = self.mac.octets
        self.device.reg_write(dev.MAC_ADDR1, (octets[0] << 8) | octets[1])
        self.device.reg_write(
            dev.MAC_ADDR0,
            (octets[2] << 24) | (octets[3] << 16) | (octets[4] << 8) | octets[5],
        )

        self.device.reg_write(dev.TX_BD_NUM, TX_SLOTS)
        for i in range(RX_SLOTS):
            flags = dev.BD_EMPTY | dev.BD_IRQ
            if i == RX_SLOTS - 1:
                flags |= dev.BD_WRAP
            self.device.desc_write(TX_SLOTS + i, flags, RX_BUF_BASE + i * BUF_SIZE)
        for i in range(TX_SLOTS):
            flags = dev.BD_WRAP if i == TX_SLOTS - 1 else 0
            self.device.desc_write(i, flags, TX_BUF_BASE + i * BUF_SIZE)

        self.device.reg_write(dev.INT_MASK, dev.INT_RXB | dev.INT_TXB | dev.INT_BUSY)
        self.device.reg_write(dev.MODER, dev.MODER_RXEN | dev.MODER_TXEN)

    def transmit(self, raw: bytes) -> bool:
        slot = self.tx_next
        len_flags, addr = self.device.desc_read(slot)
        if len_flags & dev.BD_READY:
            self.tx_full_drops += 1
            return False
        self.memory.write(addr, raw)
        flags = dev.BD_READY | dev.BD_IRQ
        if slot == TX_SLOTS - 1:
            flags |= dev.BD_WRAP
        self.device.desc_write(slot, (len(raw) << 16) | flags, addr)
        self.tx_next = (slot + 1) % TX_SLOTS
        return True

    def poll_rx(self) -> list[bytes]:
        frames: list[bytes] = []
        for _ in range(RX_SLOTS):
            index = TX_SLOTS + self.rx_next
            len_flags, addr = self.device.desc_read(index)
            if len_flags & dev.BD_EMPTY:
                break
            length = (len_flags >> 16) & 0xFFFF
            if not len_flags & dev.BD_ERR:
                frames.append(self.memory.read(addr, length))
            flags = dev.BD_EMPTY | dev.BD_IRQ
            if self.rx_next == RX_SLOTS - 1:
                flags |= dev.BD_WRAP
            self.device.desc_write(index, flags, addr)
            self.rx_next = (self.rx_next + 1) % RX_SLOTS
        return frames


def http_handle(request: HttpRequest) -> HttpResponse:
    """Route one parsed request: GET /hello answers Hello World!."""
    if request.method != "GET":
        return _plain_response(405, "Method Not Allowed", b"Method Not Allowed", [("Allow", "GET")])
    if request.target == "/hello":
        return _plain_response(200, "OK", b"Hello World!")
    return _plain_response(404, "Not Found", b"Not Found")


def _plain_response(
    status: int, reason: str, body: bytes, extra: list[tuple[str, str]] | None = None
) -> HttpResponse:
    headers = [
        ("Content-Type", "text/plain"),
        ("Content-Length", str(len(body))),
    ]
    if extra:
        headers.extend(extra)
    headers.append(("Connection", "close"))
    return HttpResponse(status=status, reason=reason, headers=headers, body=body)


class HttpApp:
    """Per-connection HTTP server glue; one request per connection."""

    def __init__(self, stack: "GuestStack", conn: "GuestTcpConn"):
        self.stack = stack
        self.conn = conn
        self.parser = HttpRequestParser()
        self.responded = False

    def on_connect(self) -> None:
        pass

    def on_data(self, data: bytes) -> None:
        if self.responded:
            return
        try:
            request = self.parser.feed(data)
        except HttpBodyTooLarge:
            self._respond(_plain_response(413, "Payload Too Large", b"Payload Too Large"))
            return
        except HttpParseError:
            self._respond(_plain_response(400, "Bad Request", b"Bad Request"))
            return
        if request is None:
            return
        response = http_handle(request)
        self._respond(response)
        self.stack.log(
            f"served {request.method} {request.target} "
            f"from {ip_to_str(self.conn.peer_ip)}:{self.conn.peer_port}"
        )
        self.stack.served_count += 1

    def _respond(self, response: HttpResponse) -> None:
        self.responded = True
        self.conn.send(encode_response(response))
        self.conn.close()

    def on_eof(self) -> None:
        if not self.responded:
            self.conn.close()

    def on_close(self) -> None:
        pass


class EchoApp:
    """Echoes every received byte back to the peer."""

    def __init__(self, stack: "GuestStack", conn: "GuestTcpConn"):
        self.stack = stack
        self.conn = conn

    def on_connect(self) -> None:
        pass

    def on_data(self, data: bytes) -> None:
        self.conn.send(data)

    def on_eof(self) -> None:
        self.conn.close()

    def on_close(self) -> None:
        pass


class GuestTcpConn(TcpEndpoint):
    """One guest TCP connection, joined to its application.

    The virtual wire is lossless and in-order, so loss recovery is left to
    the NAT side: the guest never retransmits.
    """

    def __init__(
        self,
        stack: "GuestStack",
        local_port: int,
        peer_ip: bytes,
        peer_port: int,
        app_factory: Callable,
    ):
        super().__init__(local_port, peer_port, stack.rng.getrandbits(32), stack.drop_counts, stack.acks_owed)
        self.stack = stack
        self.peer_ip = peer_ip
        self.next_hop = stack._next_hop(peer_ip)
        self._addr_sum = int.from_bytes(stack.ip + peer_ip, "big")  # for encode_tcp_frame
        self.app = app_factory(stack, self)

    @property
    def key(self) -> tuple:
        return (self.peer_ip, self.peer_port, self.local_port)

    def _emit(self, seq: int, ack: int, flags: int, payload: bytes) -> None:
        self.stack.send_tcp(
            self.peer_ip, self.next_hop, self._addr_sum, self.local_port, self.peer_port,
            seq, ack, flags, payload,
        )

    def _deliver(self, data: bytes) -> None:
        self.stack.app_data_events += 1
        self.app.on_data(data)

    def _deliver_eof(self) -> None:
        self.app.on_eof()

    def _on_establish(self) -> None:
        self.stack.app_connect_events += 1
        self.app.on_connect()

    def _on_finish(self) -> None:
        self.state = "closed"
        self.stack.conns.pop(self.key, None)
        self.app.on_close()

    def _on_reset(self) -> None:
        self.stack._count("tcp_peer_reset")
        self._on_finish()


class GuestStack:
    """The guest network stack plus application layer."""

    def __init__(
        self,
        device: "dev.MacDevice",
        memory: "dev.GuestMemory",
        config: GuestConfig,
        log: Callable[[str], None],
        schedule: Callable,
    ):
        self.device = device
        self.memory = memory
        self.config = config
        self.log = log
        self.schedule = schedule  # call_later(delay, fn)
        self.rng = random.Random(RNG_SEED)
        self.mac = MacAddress.parse(self.config.mac)
        self.driver = EthDriver(device, memory, self.mac)
        self.ip: bytes | None = None
        self.netmask = b"\xff\xff\xff\x00"
        self.gateway_ip: bytes | None = None
        self.arp_table: dict[bytes, MacAddress] = {}
        self.arp_pending: dict[bytes, list[bytes]] = {}  # next hop -> IPv4 frames for it
        self.listeners: dict[int, Callable] = {}
        self.conns: dict[tuple, GuestTcpConn] = {}
        self.acks_owed: list[GuestTcpConn] = []  # bare ACKs owed, sent at the end of stack_step
        self.drop_counts: Counter = Counter()
        self.served_count = 0
        self.app_connect_events = 0
        self.app_data_events = 0
        self._next_port = FIRST_LOCAL_PORT
        self._ident = 0
        self._dhcp_state = "init"
        self._dhcp_xid = self.rng.getrandbits(32)
        self._dhcp_offer: DhcpMessage | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Initialize the driver and begin address acquisition."""
        if self.config.banner:
            self.log(self.config.banner)
        self.driver.init()
        self._dhcp_send_discover()

    def stack_step(self) -> None:
        """One interrupt-driven step: acknowledge, drain RX, run protocols,
        then send the bare ACKs the drained frames left owed."""
        pending = self.device.reg_read(dev.INT_SOURCE)
        if pending:
            self.device.reg_write(dev.INT_SOURCE, pending)
        for raw in self.driver.poll_rx():
            self._frame_in(raw)
        if self.acks_owed:
            send_owed_acks(self.acks_owed)

    # -- frames --------------------------------------------------------------

    def _frame_in(self, raw: bytes) -> None:
        fields = decode_tcp_frame(raw)
        if fields is None:
            self._non_tcp_in(raw)
            return
        if fields.__class__ is str:
            self._count(fields)
            return
        src_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, payload = fields
        self._learn(src_ip, src_mac)
        if dst_ip != self.ip:
            self._count("ip_proto" if dst_ip == BROADCAST_IP else "ip_not_for_us")
            return
        if payload is None:
            self._count("tcp_malformed")
            return
        conn = self.conns.get((src_ip, src_port, dst_port))
        if conn is not None:
            if flags & TCP_SYN and conn.state == "syn_sent":  # the SYN-ACK to our SYN
                conn.send_mss = send_mss_for(tcp_mss_option(raw))
            conn.segment_in(seq, ack, flags, window, payload)
        elif flags & (TCP_SYN | TCP_ACK) == TCP_SYN and dst_port in self.listeners:
            conn = GuestTcpConn(self, dst_port, src_ip, src_port, self.listeners[dst_port])
            conn.send_mss = send_mss_for(tcp_mss_option(raw))
            self.conns[conn.key] = conn
            conn.passive_open(seq, window)
        elif not flags & TCP_RST:
            self._count("tcp_closed_port")
            self._send_rst_for(src_ip, src_port, dst_port, seq, ack, flags, len(payload))

    def _non_tcp_in(self, raw: bytes) -> None:
        """An ARP frame, or any frame ``decode_tcp_frame`` did not take,
        checked one layer after another; the first check that fails names
        the drop."""
        if raw[12:14] == b"\x08\x06":
            try:
                pkt = decode_arp(raw[14:])
            except DecodeError:
                self._count("arp_malformed")
                return
            self._learn(pkt.sender_ip, pkt.sender_mac.octets)
            if pkt.op == ARP_OP_REQUEST and self.ip is not None and pkt.target_ip == self.ip:
                self._send_arp(ARP_OP_REPLY, pkt.sender_mac, pkt.sender_mac, pkt.sender_ip)
            return
        fields = decode_udp_frame(raw)
        if fields.__class__ is str:
            self._count(fields)
            return
        src_mac, src_ip, dst_ip, protocol, _src_port, dst_port, payload = fields
        self._learn(src_ip, src_mac)
        # Before an address is bound, every UDP datagram may be DHCP's.
        if dst_ip != BROADCAST_IP and dst_ip != self.ip and (self.ip is not None or protocol != IPPROTO_UDP):
            self._count("ip_not_for_us")
        elif protocol != IPPROTO_UDP:
            self._count("ip_proto")
        elif payload is None:
            self._count("udp_malformed")
        elif dst_port != 68:
            self._count("udp_unhandled")
        else:
            self._dhcp_in(payload)

    def _count(self, reason: str) -> None:
        self.drop_counts[reason] += 1

    def _learn(self, ip: bytes, mac: bytes) -> None:
        """The one ARP-learning rule: a sender with an address is found at its
        MAC, and the packets waiting for it as a next hop go out."""
        if ip == ZERO_IP:
            return
        known = self.arp_table.get(ip)
        if known is None or known.octets != mac:
            self.arp_table[ip] = MacAddress(mac)
        queued = self.arp_pending.pop(ip, None)
        if queued:
            for frame in queued:
                self.driver.transmit(mac + frame[6:])

    # -- DHCP client -----------------------------------------------------------

    def _dhcp_send_discover(self) -> None:
        self._send_dhcp("selecting", DHCP_DISCOVER)

    def _dhcp_retry(self) -> None:
        if self._dhcp_state == "selecting":
            self._dhcp_send_discover()
        elif self._dhcp_state == "requesting" and self._dhcp_offer is not None:
            self._dhcp_send_request(self._dhcp_offer)

    def _dhcp_send_request(self, offer: DhcpMessage) -> None:
        self._send_dhcp("requesting", DHCP_REQUEST, requested_ip=offer.your_ip, server_id=offer.server_id)

    def _send_dhcp(self, state: str, message_type: int, **options) -> None:
        """Broadcast one client message in ``state``, to be sent again in a
        second if the state has not moved on."""
        self._dhcp_state = state
        msg = DhcpMessage(op=1, xid=self._dhcp_xid, client_mac=self.mac, message_type=message_type, **options)
        self.driver.transmit(encode_udp_frame(
            BROADCAST_MAC.octets, self.mac.octets, ZERO_IP, BROADCAST_IP, self._next_ident(), 68, 67,
            encode_dhcp(msg),
        ))
        self.schedule(1.0, self._dhcp_retry)

    def _dhcp_in(self, payload: bytes) -> None:
        try:
            msg = decode_dhcp(payload)
        except DecodeError:
            self._count("dhcp_malformed")
            return
        if msg.xid != self._dhcp_xid or msg.client_mac != self.mac:
            self._count("dhcp_foreign")
            return
        if msg.message_type == DHCP_OFFER and self._dhcp_state == "selecting":
            self._dhcp_offer = msg
            self._dhcp_send_request(msg)
        elif msg.message_type == DHCP_ACK and self._dhcp_state == "requesting":
            self._dhcp_state = "bound"
            self.ip = msg.your_ip
            if msg.subnet_mask:
                self.netmask = msg.subnet_mask
            if msg.router:
                self.gateway_ip = msg.router
            self.log(f"bound to {ip_to_str(self.ip)} on interface {self.config.ifname}")
            self._start_application()
        elif msg.message_type == DHCP_NAK:
            self._dhcp_state = "init"
            self._dhcp_offer = None
            self._dhcp_xid = self.rng.getrandbits(32)
            self._dhcp_send_discover()

    def _start_application(self) -> None:
        factory = HttpApp if self.config.mode == "http" else EchoApp
        self.tcp_listen(self.config.http_port, factory)
        self.log(f"{self.config.mode} server listening on port {self.config.http_port}")

    # -- TCP ----------------------------------------------------------------------

    def tcp_listen(self, port: int, app_factory: Callable) -> None:
        self.listeners[port] = app_factory

    def tcp_connect(self, dst_ip: bytes, dst_port: int, app_factory: Callable) -> GuestTcpConn:
        if self.ip is None:
            raise RuntimeError("guest has no address yet")
        conn = GuestTcpConn(self, self._next_local_port(dst_ip, dst_port), dst_ip, dst_port, app_factory)
        self.conns[conn.key] = conn
        conn.active_open()
        return conn

    def _send_rst_for(
        self, peer_ip: bytes, peer_port: int, local_port: int, seq: int, ack: int, flags: int, length: int
    ) -> None:
        """Answer a segment to no connection (RFC 9293 section 3.10.7.1); ``length``
        is its payload's."""
        if flags & TCP_ACK:
            seq, ack, flags = ack, 0, TCP_RST
        else:
            length += (1 if flags & TCP_SYN else 0) + (1 if flags & TCP_FIN else 0)
            seq, ack, flags = 0, seq_add(seq, length), TCP_RST | TCP_ACK
        self.send_tcp(
            peer_ip, self._next_hop(peer_ip), int.from_bytes(self.ip + peer_ip, "big"),
            local_port, peer_port, seq, ack, flags,
        )

    def send_tcp(
        self,
        dst_ip: bytes,
        next_hop: bytes,
        addr_sum: int,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        payload: bytes = b"",
    ) -> None:
        """Send one segment toward ``next_hop``, or hold it in ``arp_pending``
        until ARP resolves that hop; ``addr_sum`` is as ``encode_tcp_frame``
        takes it."""
        mac = self.arp_table.get(next_hop)
        frame = encode_tcp_frame(
            (mac or ZERO_MAC).octets, self.mac.octets, self.ip, dst_ip, addr_sum,
            self._next_ident(), src_port, dst_port, seq, ack, flags, WINDOW, payload,
        )
        if mac is not None:
            self.driver.transmit(frame)
            return
        queued = self.arp_pending.setdefault(next_hop, [])
        if len(queued) >= ARP_QUEUE_MAX:
            del queued[0]  # the oldest goes, as in Linux
            self._count("arp_queue_full")
        queued.append(frame)
        # with no ARP timer, each packet retries
        self._send_arp(ARP_OP_REQUEST, BROADCAST_MAC, ZERO_MAC, next_hop)

    def _next_ident(self) -> int:
        self._ident = (self._ident + 1) & 0xFFFF
        return self._ident

    def _next_local_port(self, dst_ip: bytes, dst_port: int) -> int:
        for _ in range(65536 - FIRST_LOCAL_PORT):
            port = self._next_port
            self._next_port = FIRST_LOCAL_PORT if port >= 65535 else port + 1
            if (dst_ip, dst_port, port) not in self.conns:
                return port
        raise RuntimeError("local ports exhausted")

    def _next_hop(self, dst_ip: bytes) -> bytes:
        if self.ip is not None:
            mask = int.from_bytes(self.netmask, "big")
            if int.from_bytes(dst_ip, "big") & mask == int.from_bytes(self.ip, "big") & mask:
                return dst_ip  # on link
        return self.gateway_ip or dst_ip

    def _send_arp(self, op: int, dst: MacAddress, target_mac: MacAddress, target_ip: bytes) -> None:
        self.driver.transmit(encode_eth_frame(
            dst.octets, self.mac.octets, ETHERTYPE_ARP,
            encode_arp(ArpPacket(op, self.mac, self.ip or ZERO_IP, target_mac, target_ip)),
        ))
