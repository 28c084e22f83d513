"""The TCP engine both ends of the virtual wire run.

``TcpEndpoint`` holds one connection's sequence state, the three-way
handshake, data transfer and orderly close.  The guest's connections and
the NAT's flows toward the guest are subclasses that say only where
segments go (``_emit``, which builds the frame with ``encode_tcp_frame``),
where received bytes go (``_deliver``, ``_deliver_eof``) and what happens
on establish, finish and reset.

Segments come in by one door, ``segment_in(seq, ack, flags, window,
payload)``.  The stack that owns the endpoint parses each TCP frame once,
with ``decode_tcp_frame``, checks it, learns the sender's MAC and finds the
endpoint by 4-tuple, as lwIP's ``tcp_input`` and Linux's ``tcp_v4_rcv`` do.
``segment_in`` dispatches on state: a RST resets; the handshake states take
the SYN and ACK they wait for; a synchronized endpoint (``DATA_STATES``:
established, or ``fin_wait`` once our FIN is out) takes data and ACKs
straight away, which is where header prediction (Van Jacobson's; Linux
``tcp_rcv_established``) puts nearly every segment.

The send buffer holds every byte from ``snd_una`` on (RFC 9293 section
3.3.1): the first ``snd_nxt - snd_una`` of them are in flight, the rest
wait for window.  An ACK drops what it covers from the front, so a
retransmission can resend any part of the flight from ``snd_una``.

ACKs ride on data: after a segment arrives, queued data is sent first, and
a bare ACK follows only if the segment was out of order or a duplicate, or
if no segment sent since has carried the new ``rcv_nxt`` (RFC 9293 section
3.8.6.3, with no timer).

Segments are cut at ``send_mss``: the peer's MSS option (RFC 9293 section
3.7.1), which the owning stack reads from the peer's SYN or SYN-ACK with
``wire.tcp_mss_option`` and passes through ``send_mss_for``, capped at our
``MSS`` and held at least ``MIN_MSS``, as Linux's ``tcp_min_snd_mss`` holds it,
so an option of 0 cannot make ``_pump`` cut empty segments.  A SYN with no
option leaves 1460, not RFC 9293's default of 536: neither end of the
virtual wire sends the option, and 536 would shrink every bulk segment.

The window is fixed, and there is no SACK and no congestion control.  The
engine itself never retransmits; the NAT adds a timer for that.
"""

from __future__ import annotations

from collections import Counter

from .wire import TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN

MSS = 1460
MIN_MSS = 48  # the least segment size a peer's MSS option can ask for (Linux's tcp_min_snd_mss)
WINDOW = 8192  # advertised by both ends, never changed

_SEQ_MASK = 0xFFFFFFFF

# the synchronized states, in which an arriving segment is data and ACKs
DATA_STATES = frozenset(("established", "fin_wait"))


def seq_add(a: int, n: int) -> int:
    return (a + n) & _SEQ_MASK


def send_mss_for(option: int | None) -> int:
    """The segment size to send a peer whose SYN carried MSS ``option``."""
    return MSS if option is None else max(MIN_MSS, min(MSS, option))


class TcpEndpoint:
    """One end of a TCP connection; subclasses connect it to the world."""

    def __init__(self, local_port: int, peer_port: int, iss: int, drop_counts: Counter):
        self.local_port = local_port
        self.peer_port = peer_port
        self.drop_counts = drop_counts
        self.state = "closed"
        self.iss = iss
        self.snd_nxt = iss
        self.snd_una = iss
        self.rcv_nxt = 0
        self.last_ack_sent = 0  # ack field of the newest segment sent
        self.peer_window = WINDOW
        self.send_mss = MSS  # set by the owning stack from the peer's SYN
        self.send_buf = bytearray()  # every byte from snd_una on
        self.close_requested = False
        self.fin_sent = False
        self.fin_acked = False
        self.peer_fin = False

    # -- what a subclass says ----------------------------------------------------

    def _emit(self, seq: int, ack: int, flags: int, payload: bytes) -> None:
        """Send one segment from ``local_port`` to ``peer_port``."""
        raise NotImplementedError

    def _deliver(self, data: bytes) -> None:
        raise NotImplementedError

    def _deliver_eof(self) -> None:
        raise NotImplementedError

    def _on_establish(self) -> None:
        raise NotImplementedError

    def _on_finish(self) -> None:
        """Both FINs are through and ours is acknowledged."""
        raise NotImplementedError

    def _on_reset(self) -> None:
        raise NotImplementedError

    # -- opening -----------------------------------------------------------------

    def active_open(self) -> None:
        self.state = "syn_sent"
        self._transmit(TCP_SYN)

    def passive_open(self, seq: int, window: int) -> None:
        """Answer a SYN carrying ``seq`` and ``window``."""
        self.rcv_nxt = seq_add(seq, 1)
        self.peer_window = window
        self.state = "syn_rcvd"
        self._transmit(TCP_SYN | TCP_ACK)

    # -- input -------------------------------------------------------------------

    def segment_in(self, seq: int, ack: int, flags: int, window: int, payload: bytes) -> None:
        """One segment from the peer, as ``decode_tcp_frame`` gives its fields."""
        state = self.state
        if flags & TCP_RST:
            if state != "closed":
                self._on_reset()
            return
        if state not in DATA_STATES:
            if state == "syn_sent":
                if flags & (TCP_SYN | TCP_ACK) == TCP_SYN | TCP_ACK and ack == seq_add(self.iss, 1):
                    self.snd_una = ack
                    self.rcv_nxt = seq_add(seq, 1)
                    self.peer_window = window
                    self.state = "established"
                    self._transmit(TCP_ACK)
                    self._on_establish()
                    self._pump()
                return
            if state != "syn_rcvd" or flags & (TCP_SYN | TCP_ACK) != TCP_ACK or ack != seq_add(self.iss, 1):
                return  # closed or connecting, or not the ACK that completes the handshake
            self.snd_una = ack
            self.state = "established"
            self._on_establish()
        # synchronized: data and ACKs (header prediction's path)
        if flags & TCP_ACK:
            self._process_ack(ack, window)
        reack = False  # out of order or duplicate: re-ack what we have
        if payload:
            if seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
                self._deliver(payload)
            else:
                self.drop_counts["tcp_out_of_order"] += 1
                reack = True
        if flags & TCP_FIN:
            if not self.peer_fin and seq_add(seq, len(payload)) == self.rcv_nxt:
                self.peer_fin = True
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                self._deliver_eof()
            else:
                reack = True
        self._pump()
        # data sent by _pump already carries the ack
        if reack or self.last_ack_sent != self.rcv_nxt:
            self._transmit(TCP_ACK)
        self._maybe_finish()

    def _process_ack(self, ack: int, window: int) -> bool:
        """Take the peer's ACK and window; returns whether it acknowledged
        anything new."""
        self.peer_window = window
        advance = (ack - self.snd_una) & _SEQ_MASK
        if not 0 < advance <= (self.snd_nxt - self.snd_una) & _SEQ_MASK:
            return False
        self.snd_una = ack
        del self.send_buf[:advance]  # past the end when it covers our FIN
        if self.fin_sent and ack == self.snd_nxt:
            self.fin_acked = True
        return True

    # -- output ------------------------------------------------------------------

    def send(self, data: bytes) -> None:
        self.send_buf += data
        self._pump()

    def close(self) -> None:
        """Send a FIN once every queued byte has gone out."""
        self.close_requested = True
        self._pump()
        self._maybe_finish()

    def _pump(self) -> None:
        if self.fin_sent or self.state not in DATA_STATES:
            return
        buf = self.send_buf
        flight = (self.snd_nxt - self.snd_una) & _SEQ_MASK
        while flight < len(buf):
            room = self.peer_window - flight
            if room <= 0:
                break
            chunk = bytes(buf[flight : flight + min(self.send_mss, room)])
            flight += len(chunk)
            self._transmit(TCP_ACK | TCP_PSH if flight == len(buf) else TCP_ACK, chunk)
        if self.close_requested and flight == len(buf):
            self.fin_sent = True
            self.state = "fin_wait"
            self._transmit(TCP_FIN | TCP_ACK)

    def _transmit(self, flags: int, payload: bytes = b"", seq: int | None = None) -> None:
        """Send a segment with ``flags``: a new one at ``snd_nxt``, which
        advances it, or a retransmission at the ``seq`` it was first sent at."""
        new = seq is None
        ack_flag = flags & TCP_ACK
        self._emit(self.snd_nxt if new else seq, self.rcv_nxt if ack_flag else 0, flags, payload)
        if ack_flag:
            self.last_ack_sent = self.rcv_nxt
        if new:
            self.snd_nxt = seq_add(self.snd_nxt, len(payload) + (1 if flags & (TCP_SYN | TCP_FIN) else 0))

    # -- teardown ----------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.peer_fin and self.fin_acked and self.state != "closed":
            self._on_finish()
