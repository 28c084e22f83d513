"""User-mode NAT network stack.

A virtual 10.0.2.0/24 subnet living inside the harness process: built-in
ARP responder and DHCP server, outbound TCP NAT onto real host sockets,
and inbound host-port forwarding per `hostfwd` rule.  The guest behaves as
if behind a firewall: nothing reaches it except DHCP/ARP answers, flows it
opened itself, and flows entering through a forward rule.

The TCP spoken toward the guest is synthesized here as a terminating
proxy: host-side byte streams are re-segmented with locally generated
sequence numbers by the engine in ``tcp.py``, to which a flow adds a
500 ms retransmit timer with 5 retries.  Frames cross the device boundary
as bytes, each encoded once: ``guest_frame_in`` takes the guest's frame as
the device read it, and ``poll_frames_out`` returns frames ready for
``MacDevice.receive``.  ``guest_frame_in`` parses a TCP frame once and
gives it to its flow's one input, ``segment_in`` (see ``tcp.py``); every
other frame goes to the one non-TCP input, ``_non_tcp_in``, which reads ARP
with ``decode_arp`` and IPv4 with ``decode_udp_frame``.  Both inputs learn
the sender's MAC by one rule, ``_learn``.

Threading: the instance's one event loop thread owns all of this state and
every host socket, which it watches through ``EventLoop.watch``.  A flow
watches its socket for reading only while its unacknowledged ``send_buf``
is below ``SEND_BUF_HIGH``, so a host that sends faster than the guest ACKs
waits in its own socket buffer, not in this process.  Bytes from the guest
collect in the flow's ``out_buf`` and go to the host in one ``send`` per
settle pass; the flow watches for writing only while a remainder waits.
A torn-down flow keeps sending that remainder for as long as the host takes
some of it at least once every ``DRAIN_IDLE_S``.  Every timer and
timestamp here reads the loop's clock, ``EventLoop.time``.
"""

from __future__ import annotations

import errno
import random
import selectors
import socket
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .tcp import TcpEndpoint, send_mss_for, send_owed_acks, seq_add
from .tcp import WINDOW as GUEST_WINDOW  # the window advertised to the guest
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
    MacAddress,
    decode_arp,
    decode_dhcp,
    decode_tcp_frame,
    decode_udp_frame,
    encode_arp,
    encode_dhcp,
    encode_eth_frame,
    encode_tcp_frame,
    encode_udp_frame,
    ip_to_bytes,
    ip_to_str,
    tcp_mss_option,
)

if TYPE_CHECKING:
    from .eventloop import EventLoop  # which imports threading, for its start()


class NicConfigError(ValueError):
    pass


@dataclass
class ForwardRule:
    proto: str  # "tcp", the one protocol forwarded
    host_addr: str  # "" = all host interfaces
    host_port: int
    guest_addr: str  # "" = first DHCP lease
    guest_port: int


@dataclass
class NicConfig:
    model: str
    id: str = ""
    forwards: list[ForwardRule] = field(default_factory=list)


def _parse_port(text: str, token: str) -> int:
    if not text.isdigit():
        raise NicConfigError(f"non-numeric port in {token!r}")
    port = int(text)
    if not 1 <= port <= 65535:
        raise NicConfigError(f"port {port} out of range in {token!r}")
    return port


def _parse_hostfwd(token: str) -> ForwardRule:
    # PROTO:[HOSTADDR]:HOSTPORT-[GUESTADDR]:GUESTPORT
    value = token.split("=", 1)[1]
    host_part, sep, guest_part = value.partition("-")
    if not sep:
        raise NicConfigError(f"malformed hostfwd rule {token!r}")
    host_fields = host_part.split(":")
    guest_fields = guest_part.split(":")
    if len(host_fields) != 3 or len(guest_fields) != 2:
        raise NicConfigError(f"malformed hostfwd rule {token!r}")
    proto, host_addr, host_port = host_fields
    guest_addr, guest_port = guest_fields
    if proto == "udp":
        raise NicConfigError(f"udp forwarding is not supported: {token!r}")
    if proto != "tcp":
        raise NicConfigError(f"unknown protocol {proto!r} in {token!r}")
    for addr in (host_addr, guest_addr):
        if addr:
            try:
                ip_to_bytes(addr)
            except ValueError:
                raise NicConfigError(f"bad address {addr!r} in {token!r}") from None
    return ForwardRule(
        proto=proto,
        host_addr=host_addr,
        host_port=_parse_port(host_port, token),
        guest_addr=guest_addr,
        guest_port=_parse_port(guest_port, token),
    )


def parse_nic_config(text: str) -> NicConfig:
    """Parse `user,model=open_eth,id=...,hostfwd=...` NIC option text."""
    tokens = text.split(",")
    if not tokens or tokens[0] != "user":
        raise NicConfigError(f"expected 'user' network type, got {tokens[0]!r}")
    model = ""
    nic_id = ""
    forwards: list[ForwardRule] = []
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise NicConfigError(f"expected key=value, got {token!r}")
        if key == "model":
            model = value
        elif key == "id":
            nic_id = value
        elif key == "hostfwd":
            forwards.append(_parse_hostfwd(token))
        else:
            raise NicConfigError(f"unknown option {token!r}")
    if model != "open_eth":
        raise NicConfigError(f"unknown NIC model {model!r} (only open_eth is supported)")
    return NicConfig(model=model, id=nic_id, forwards=forwards)


@dataclass(frozen=True)
class SubnetPlan:
    network: bytes = ip_to_bytes("10.0.2.0")
    prefix: int = 24
    gateway_ip: bytes = ip_to_bytes("10.0.2.2")
    dns_ip: bytes = ip_to_bytes("10.0.2.3")
    dhcp_start: bytes = ip_to_bytes("10.0.2.15")
    gateway_mac: MacAddress = MacAddress.parse("52:55:0a:00:02:02")

    @property
    def netmask(self) -> bytes:
        bits = (0xFFFFFFFF << (32 - self.prefix)) & 0xFFFFFFFF
        return bits.to_bytes(4, "big")

    def contains(self, ip: bytes) -> bool:
        mask = int.from_bytes(self.netmask, "big")
        return (int.from_bytes(ip, "big") & mask) == int.from_bytes(self.network, "big")


RETRANSMIT_S = 0.5
MAX_RETRIES = 5
HANDSHAKE_TIMEOUT_S = 5.0
GUEST_WAIT_POLL_S = 0.05  # how often a forward waiting for the guest looks again
ARP_SOLICIT = 3  # ARP requests a waiting forward sends (Linux's mcast_solicit)
ARP_RETRANS_S = 1.0  # the least time between them (Linux's retrans_time)
ACCEPT_RETRY_S = 0.1  # how long a listener rests after accept() fails for want of resources
SEND_BUF_HIGH = 256 * 1024  # host bytes a flow holds, not yet acknowledged, before it stops reading
DRAIN_IDLE_S = 5.0  # how long a torn-down flow waits for its host to take more of out_buf
LEASE_TIME_S = 86400
RNG_SEED = 0x5EED


class NatFlow(TcpEndpoint):
    """One relayed TCP connection between a host socket and the guest."""

    def __init__(
        self,
        stack: "UserNetStack",
        guest_ip: bytes,
        guest_port: int,
        remote_ip: bytes,
        remote_port: int,
    ):
        super().__init__(remote_port, guest_port, stack.rng.getrandbits(32), stack.drop_counts, stack._acks_owed)
        self.stack = stack
        self.guest_ip = guest_ip
        self.remote_ip = remote_ip  # the address we speak to the guest from
        self._addr_sum = int.from_bytes(remote_ip + guest_ip, "big")  # for encode_tcp_frame
        self.sock: socket.socket | None = None
        self.out_buf = bytearray()  # guest bytes not yet sent to the host
        self._events = 0  # what the loop watches sock for
        self.tries = 0
        # loop time an ACK last acknowledged something new, or, once torn down,
        # a send last gave the host some of out_buf
        self.progress_at = 0.0
        self._retransmit_timer = None
        self._handshake_timer = None
        self._drain_timer = None

    @property
    def key(self) -> tuple:
        return (self.guest_ip, self.peer_port, self.remote_ip, self.local_port)

    # -- lifecycle ---------------------------------------------------------

    def start_inbound(self, sock: socket.socket) -> None:
        self.sock = sock
        self.active_open()
        self._watch(0)
        self._arm_retransmit()
        self._handshake_timer = self.stack.loop.call_later(
            HANDSHAKE_TIMEOUT_S, self._handshake_timeout
        )

    def start_outbound(self, seq: int, window: int) -> None:
        """Connect to the host for the guest's SYN, which carries ``seq`` and ``window``."""
        self.rcv_nxt = seq_add(seq, 1)  # so a refused connect is answered with RST-ACK
        self.state = "connecting"
        self._handshake_timer = self.stack.loop.call_later(
            HANDSHAKE_TIMEOUT_S, self._handshake_timeout
        )
        try:
            self.sock = sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            err = sock.connect_ex((ip_to_str(self.remote_ip), self.local_port))
        except OSError as exc:  # out of descriptors, say: refuse as a failed connect would
            err = exc.errno or errno.EIO
        if err != errno.EINPROGRESS:
            self._connect_done(seq, window, err)
            return
        self._events = selectors.EVENT_WRITE  # writable once the connect is through
        self.stack.loop.watch(sock, self._events, lambda _ready: self._connect_done(seq, window))

    def _connect_done(self, seq: int, window: int, err: int | None = None) -> None:
        if self.state != "connecting":
            return
        if err is None:
            err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._transmit(TCP_RST | TCP_ACK)
            self._teardown()
            return
        self.passive_open(seq, window)
        self._watch(0)
        self._arm_retransmit()

    def _handshake_timeout(self) -> None:
        self._handshake_timer = None
        if self.state in ("syn_sent", "syn_rcvd", "connecting"):
            self._teardown()

    # -- the engine's hooks ------------------------------------------------------

    def _emit(self, seq: int, ack: int, flags: int, payload: bytes) -> None:
        stack = self.stack
        guest_mac = stack._arp_table.get(self.guest_ip)
        if guest_mac is None:
            self.drop_counts["guest_mac_unknown"] += 1
            return
        stack._frames_out.append(encode_tcp_frame(
            guest_mac.octets, stack.subnet.gateway_mac.octets, self.remote_ip, self.guest_ip,
            self._addr_sum, stack._next_ident(), self.local_port, self.peer_port,
            seq, ack, flags, GUEST_WINDOW, payload,
        ))

    def _deliver(self, data: bytes) -> None:
        if not self.out_buf:
            self.stack._unsent.append(self)
        self.out_buf += data

    def _deliver_eof(self) -> None:
        self._deliver(b"")  # _flush passes the FIN on once out_buf is empty

    def _on_establish(self) -> None:
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None
        self.tries = 0
        self.progress_at = self.stack.loop.time()

    def _on_finish(self) -> None:
        self._teardown()

    def _on_reset(self) -> None:
        self._teardown()

    def _process_ack(self, ack: int, window: int) -> bool:
        if not super()._process_ack(ack, window):
            return False
        self.tries = 0
        self.progress_at = self.stack.loop.time()  # restarts the retransmit timer, lazily
        return True

    def _pump(self) -> None:
        super()._pump()
        self._arm_retransmit()
        self._watch(self._events & selectors.EVENT_WRITE)

    # -- host-side events ----------------------------------------------------

    def _watch(self, write: int) -> None:
        """Watch sock for ``write`` and, while send_buf has room, for reading."""
        events = write
        if self.state != "closed" and not self.close_requested and len(self.send_buf) < SEND_BUF_HIGH:
            events |= selectors.EVENT_READ
        if events != self._events:
            self._events = events
            self.stack.loop.watch(self.sock, events, self._on_ready)

    def _on_ready(self, ready: int) -> None:
        if ready & selectors.EVENT_WRITE:
            self._flush()
        if ready & selectors.EVENT_READ and self.state != "closed":
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                self.host_error()
                return
            if data:
                self.host_data(data)
            else:
                self.host_eof_seen()

    def _flush(self) -> None:
        """Send out_buf with one send(); once it is empty, pass on the guest's
        FIN, or close the socket of a flow already torn down."""
        if self.out_buf:
            try:
                sent = self.sock.send(self.out_buf)
            except BlockingIOError:
                pass
            except OSError:
                self.out_buf.clear()
                self.stack.loop.call_later(0, self.host_error)  # a callback, so its RST is pumped
            else:
                del self.out_buf[:sent]
                if self.state == "closed":
                    self.progress_at = self.stack.loop.time()  # restarts the drain timer, lazily
        if self.out_buf:
            if self.state == "closed" and self._drain_timer is None:
                self.stack._draining.add(self)
                self.progress_at = self.stack.loop.time()
                self._drain_timer = self.stack.loop.call_later(DRAIN_IDLE_S, self._drain_tick)
            self._watch(selectors.EVENT_WRITE)
        elif self.state == "closed":
            self._release()
        else:
            if self.peer_fin:
                try:
                    self.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
            self._watch(0)

    def host_data(self, data: bytes) -> None:
        self.send_buf += data
        self._pump()

    def host_eof_seen(self) -> None:
        if self.state != "closed":
            self.close()

    def host_error(self) -> None:
        if self.state == "closed":
            return
        self._transmit(TCP_RST | TCP_ACK)
        self._teardown()

    # -- retransmission (RFC 6298, with a fixed timeout) ---------------------------

    def _retransmit_one(self) -> None:
        """Resend the SYN, else up to one MSS of data from snd_una, else the FIN."""
        if self.state in ("syn_sent", "syn_rcvd"):
            self._transmit(TCP_SYN | TCP_ACK if self.state == "syn_rcvd" else TCP_SYN, seq=self.iss)
            return
        flight = min((self.snd_nxt - self.snd_una) & 0xFFFFFFFF, len(self.send_buf))
        if flight:
            self._transmit(TCP_ACK, bytes(self.send_buf[: min(self.send_mss, flight)]), seq=self.snd_una)
        else:
            self._transmit(TCP_FIN | TCP_ACK, seq=seq_add(self.snd_nxt, -1))

    def _arm_retransmit(self) -> None:
        if (
            self._retransmit_timer is None
            and self.snd_una != self.snd_nxt
            and self.state != "closed"
        ):
            self._retransmit_timer = self.stack.loop.call_later(
                RETRANSMIT_S, self._retransmit_tick
            )

    def _retransmit_tick(self) -> None:
        self._retransmit_timer = None
        if self.state == "closed" or self.snd_una == self.snd_nxt:
            return
        early = self.progress_at + RETRANSMIT_S - self.stack.loop.time()
        if early > 0:  # an ACK made progress since the timer was armed
            self._retransmit_timer = self.stack.loop.call_later(early, self._retransmit_tick)
            return
        self.tries += 1
        if self.tries > MAX_RETRIES:
            self._transmit(TCP_RST | TCP_ACK)
            self._teardown()
            return
        self._retransmit_one()
        self._arm_retransmit()

    # -- teardown --------------------------------------------------------------

    def _teardown(self) -> None:
        if self.state == "closed":
            return
        self.state = "closed"
        for timer in (self._retransmit_timer, self._handshake_timer):
            if timer is not None:
                timer.cancel()
        self._retransmit_timer = None
        self._handshake_timer = None
        self.stack._flows.pop(self.key, None)  # so a new SYN on the same ports opens a new flow
        self._flush()  # the host gets every byte the guest sent before it sees the end

    def _drain_tick(self) -> None:
        """Release a torn-down flow whose host has taken nothing for DRAIN_IDLE_S."""
        early = self.progress_at + DRAIN_IDLE_S - self.stack.loop.time()
        if early > 0:  # a send made progress since the timer was armed
            self._drain_timer = self.stack.loop.call_later(early, self._drain_tick)
            return
        self.drop_counts["drain_idle"] += 1
        self._release()

    def _release(self) -> None:
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None
        if self.sock is not None:
            self.stack.loop.watch(self.sock, 0)
            self.sock.close()
            self.sock = None
        self.stack._draining.discard(self)


class UserNetStack:
    """Guest-facing NAT stack instance; one per emulated machine."""

    def __init__(self, config: NicConfig, loop: EventLoop):
        self.config = config
        self.loop = loop
        self.subnet = SubnetPlan()
        self.rng = random.Random(RNG_SEED)
        self._frames_out: deque[bytes] = deque()
        self._leases: dict[bytes, bytes] = {}  # client mac -> ip
        self._offers: dict[bytes, bytes] = {}
        self._lease_order: list[bytes] = []
        self._next_lease = int.from_bytes(self.subnet.dhcp_start, "big")
        self._arp_table: dict[bytes, MacAddress] = {}
        self._flows: dict[tuple, NatFlow] = {}
        self._acks_owed: list[NatFlow] = []  # bare ACKs owed, sent once no other frame is queued
        self._draining: set[NatFlow] = set()  # closed flows still sending out_buf to the host
        self._listeners: list[socket.socket] = []
        self._unsent: list[NatFlow] = []  # flows whose out_buf waits for this settle pass
        self._eph_port = 49152
        self._ident = 0
        self.drop_counts: Counter = Counter()
        self.frames_from_guest = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind one listening socket per TCP forward rule; call before the loop runs."""
        for rule in self.config.forwards:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((rule.host_addr, rule.host_port))
            except OSError:
                sock.close()
                self.stop()
                raise
            sock.listen(64)
            sock.setblocking(False)
            self._listeners.append(sock)
            self._watch_listener(rule, sock)

    def stop(self) -> None:
        """Close every host socket; call once the loop has stopped."""
        for sock in self._listeners:
            sock.close()
        self._listeners.clear()
        for flow in [*self._flows.values(), *self._draining]:
            if flow.sock is not None:
                flow.sock.close()
        self._flows.clear()
        self._draining.clear()

    def _watch_listener(self, rule: ForwardRule, listener: socket.socket) -> None:
        if listener in self._listeners:  # not closed by stop() meanwhile
            self.loop.watch(listener, selectors.EVENT_READ, lambda _ready: self._accept(rule, listener))

    def _accept(self, rule: ForwardRule, listener: socket.socket) -> None:
        while True:
            try:
                conn, _peer = listener.accept()
            except BlockingIOError:  # the backlog is empty
                return
            except OSError:  # out of descriptors, say: the listener stays readable, so rest it
                self.drop_counts["fwd_accept_failed"] += 1
                self.loop.watch(listener, 0)
                self.loop.call_later(ACCEPT_RETRY_S, lambda: self._watch_listener(rule, listener))
                return
            conn.setblocking(False)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.host_connection_in(rule, conn)

    def send_to_host(self) -> None:
        """Send what each flow took from the guest since the last call."""
        while self._unsent:
            self._unsent.pop()._flush()

    # -- frame plumbing ------------------------------------------------------

    def poll_frames_out(self) -> list[bytes]:
        """Drain frames queued toward the guest, FIFO; once no other frame is
        queued, the bare ACKs flows owe are the frames."""
        if not self._frames_out and self._acks_owed:
            send_owed_acks(self._acks_owed)
        out = list(self._frames_out)
        self._frames_out.clear()
        return out

    def _next_ident(self) -> int:
        self._ident = (self._ident + 1) & 0xFFFF
        return self._ident

    def guest_frame_in(self, raw: bytes) -> None:
        """Demultiplex one frame transmitted by the guest."""
        self.frames_from_guest += 1
        fields = decode_tcp_frame(raw)
        if fields is None:
            self._non_tcp_in(raw)
            return
        if fields.__class__ is str:
            self.drop_counts[fields] += 1
            return
        src_mac, src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, payload = fields
        self._learn(src_ip, src_mac)
        if payload is None:
            self.drop_counts["tcp_malformed"] += 1
            return
        key = (src_ip, src_port, dst_ip, dst_port)
        flow = self._flows.get(key)
        if flow is not None:
            if flags & TCP_SYN and flow.state == "syn_sent":  # the guest's SYN-ACK
                flow.send_mss = send_mss_for(tcp_mss_option(raw))
            flow.segment_in(seq, ack, flags, window, payload)
        elif flags & (TCP_SYN | TCP_ACK) == TCP_SYN and not self.subnet.contains(dst_ip):
            flow = NatFlow(self, guest_ip=src_ip, guest_port=src_port, remote_ip=dst_ip, remote_port=dst_port)
            flow.send_mss = send_mss_for(tcp_mss_option(raw))
            self._flows[key] = flow
            flow.start_outbound(seq, window)
        else:
            # Unsolicited / unknown-flow traffic is silently dropped, mirroring
            # the block-all-inbound firewall behaviour.
            self.drop_counts["tcp_no_flow"] += 1

    def _non_tcp_in(self, raw: bytes) -> None:
        """An ARP frame, or any frame ``decode_tcp_frame`` did not take,
        checked one layer after another; the first check that fails names
        the drop."""
        if raw[12:14] == b"\x08\x06":
            try:
                pkt = decode_arp(raw[14:])
            except DecodeError:
                self.drop_counts["arp_malformed"] += 1
                return
            self._learn(pkt.sender_ip, pkt.sender_mac.octets)
            if pkt.op == ARP_OP_REQUEST and pkt.target_ip in (self.subnet.gateway_ip, self.subnet.dns_ip):
                self._send_arp(ARP_OP_REPLY, pkt.sender_mac, pkt.target_ip, pkt.sender_mac, pkt.sender_ip)
            return
        fields = decode_udp_frame(raw)
        if fields.__class__ is str:
            self.drop_counts[fields] += 1
            return
        src_mac, src_ip, _dst_ip, protocol, _src_port, dst_port, payload = fields
        self._learn(src_ip, src_mac)
        if protocol != IPPROTO_UDP:
            self.drop_counts["ip_proto"] += 1
        elif payload is None:
            self.drop_counts["udp_malformed"] += 1
        elif dst_port != 67:
            self.drop_counts["udp_unhandled"] += 1
        else:
            try:
                msg = decode_dhcp(payload)
            except DecodeError:
                self.drop_counts["dhcp_malformed"] += 1
                return
            reply = self.dhcp_step(msg)
            if reply is not None:
                self._send_dhcp_to_guest(reply)

    def _learn(self, ip: bytes, mac: bytes) -> None:
        """The one ARP-learning rule: a sender with an address is found at its MAC."""
        known = self._arp_table.get(ip)
        if (known is None or known.octets != mac) and ip != b"\x00\x00\x00\x00":
            self._arp_table[ip] = MacAddress(mac)

    # -- DHCP server ---------------------------------------------------------

    def dhcp_step(self, msg: DhcpMessage) -> DhcpMessage | None:
        """Serve one client message; returns the reply, if any."""
        if msg.op != 1:  # a server takes only BOOTREQUEST (RFC 2131 section 4.1)
            self.drop_counts["dhcp_op"] += 1
            return None
        mac = msg.client_mac.octets
        if msg.message_type == DHCP_DISCOVER:
            ip = self._leases.get(mac) or self._offers.get(mac)
            if ip is None:
                ip = self._allocate_lease()
                if ip is None:
                    self.drop_counts["dhcp_exhausted"] += 1
                    return None
            self._offers[mac] = ip
            return self._reply(msg, DHCP_OFFER, ip)
        if msg.message_type == DHCP_REQUEST:
            wanted = msg.requested_ip or self._leases.get(mac)
            promised = self._offers.get(mac) or self._leases.get(mac)
            if wanted is None or wanted != promised:
                return DhcpMessage(
                    op=2, xid=msg.xid, client_mac=msg.client_mac,
                    message_type=DHCP_NAK, server_id=self.subnet.gateway_ip,
                )
            self._leases[mac] = wanted
            if mac not in self._lease_order:
                self._lease_order.append(mac)
            self._offers.pop(mac, None)
            self._arp_table[wanted] = msg.client_mac
            return self._reply(msg, DHCP_ACK, wanted)
        return None

    def _allocate_lease(self) -> bytes | None:
        broadcast = int.from_bytes(self.subnet.network, "big") + (1 << (32 - self.subnet.prefix)) - 1
        if self._next_lease >= broadcast:
            return None
        ip = self._next_lease.to_bytes(4, "big")
        self._next_lease += 1
        return ip

    def _reply(self, msg: DhcpMessage, message_type: int, ip: bytes) -> DhcpMessage:
        return DhcpMessage(
            op=2,
            xid=msg.xid,
            client_mac=msg.client_mac,
            message_type=message_type,
            your_ip=ip,
            server_id=self.subnet.gateway_ip,
            subnet_mask=self.subnet.netmask,
            router=self.subnet.gateway_ip,
            lease_time=LEASE_TIME_S,
        )

    def first_lease(self) -> bytes | None:
        if not self._lease_order:
            return None
        return self._leases[self._lease_order[0]]

    def _send_dhcp_to_guest(self, reply: DhcpMessage) -> None:
        if reply.message_type == DHCP_NAK or reply.your_ip == b"\x00\x00\x00\x00":
            dst_ip = b"\xff\xff\xff\xff"
            dst_mac = BROADCAST_MAC
        else:
            dst_ip = reply.your_ip
            dst_mac = reply.client_mac
        self._frames_out.append(encode_udp_frame(
            dst_mac.octets, self.subnet.gateway_mac.octets, self.subnet.gateway_ip, dst_ip,
            self._next_ident(), 67, 68, encode_dhcp(reply),
        ))

    # -- flows -----------------------------------------------------------------

    def host_connection_in(self, rule: ForwardRule, sock: socket.socket) -> None:
        """Begin forwarding one accepted host connection toward the guest."""
        deadline = self.loop.time() + HANDSHAKE_TIMEOUT_S
        self._start_when_guest_known(rule, sock, deadline, ARP_SOLICIT, 0.0)

    def _start_when_guest_known(
        self, rule: ForwardRule, sock, deadline: float, asks_left: int, next_ask: float
    ) -> None:
        """Open the forward's flow once the guest's address and MAC are known,
        looking again every GUEST_WAIT_POLL_S until ``deadline``; up to
        ``asks_left`` more ARP requests for the guest may go out, the next
        no sooner than ``next_ask``."""
        now = self.loop.time()
        guest_ip = ip_to_bytes(rule.guest_addr) if rule.guest_addr else self.first_lease()
        guest_mac = self._arp_table.get(guest_ip) if guest_ip else None
        if guest_ip is not None and guest_mac is None and asks_left and now >= next_ask:
            self._send_arp(ARP_OP_REQUEST, BROADCAST_MAC, self.subnet.gateway_ip, ZERO_MAC, guest_ip)
            asks_left, next_ask = asks_left - 1, now + ARP_RETRANS_S
        if guest_ip is None or guest_mac is None:
            if now >= deadline:
                sock.close()
                self.drop_counts["fwd_no_guest"] += 1
                return
            self.loop.call_later(  # the last look is at the deadline itself
                min(GUEST_WAIT_POLL_S, deadline - now),
                lambda: self._start_when_guest_known(rule, sock, deadline, asks_left, next_ask),
            )
            return
        remote_port = self._next_eph_port(guest_ip, rule.guest_port)
        flow = NatFlow(
            self,
            guest_ip=guest_ip,
            guest_port=rule.guest_port,
            remote_ip=self.subnet.gateway_ip,
            remote_port=remote_port,
        )
        self._flows[flow.key] = flow
        flow.start_inbound(sock)

    def _next_eph_port(self, guest_ip: bytes, guest_port: int) -> int:
        for _ in range(16384):
            port = self._eph_port
            self._eph_port = 49152 if self._eph_port >= 65535 else self._eph_port + 1
            if (guest_ip, guest_port, self.subnet.gateway_ip, port) not in self._flows:
                return port
        raise RuntimeError("ephemeral ports exhausted")

    # -- guest-bound ARP ---------------------------------------------------------

    def _send_arp(
        self, op: int, dst: MacAddress, sender_ip: bytes, target_mac: MacAddress, target_ip: bytes
    ) -> None:
        gateway_mac = self.subnet.gateway_mac
        self._frames_out.append(encode_eth_frame(
            dst.octets, gateway_mac.octets, ETHERTYPE_ARP,
            encode_arp(ArpPacket(op, gateway_mac, sender_ip, target_mac, target_ip)),
        ))
