"""The TCP engine both ends of the virtual wire run.

``TcpEndpoint`` holds one connection's sequence state, the three-way
handshake, data transfer and orderly close.  The guest's connections and
the NAT's flows toward the guest are subclasses that say only where
segments go (``_emit``, which builds the frame with ``encode_tcp_frame``),
where received bytes go (``_deliver``, ``_deliver_eof``) and what happens
on establish, finish and reset.

Segments come in by one of two doors into the same code.  ``segment_in``
takes a decoded ``TcpSegment`` and runs the state machine.  Header
prediction (Van Jacobson's; Linux ``tcp_rcv_established``) is the other:
the stack that owns the endpoint reads a frame with ``decode_tcp_frame``
and calls ``_data_in`` with its fields, skipping the state machine, when
all of these hold:

- the frame is option-free, unfragmented IPv4/TCP and both checksums verify;
- its flags are ACK or ACK|PSH (``decode_tcp_frame`` returns None otherwise);
- it belongs to an endpoint of the stack in ``DATA_STATES``: established, or
  ``fin_wait`` once our FIN is out, where ``segment_in`` does nothing else;
- the stack's ARP entry for the source IP already holds the frame's source
  MAC, so the full path would learn nothing; and, in the guest, no packet
  waits for ARP and the frame is addressed to the guest's own IP.

Every other frame takes the full decode path, which counts its drops.
``_data_segment``, the full path's data step, is a call to ``_data_in``, so
both doors end in one engine.

The send buffer holds every byte from ``snd_una`` on (RFC 9293 section
3.3.1): the first ``snd_nxt - snd_una`` of them are in flight, the rest
wait for window.  An ACK drops what it covers from the front, so a
retransmission can resend any part of the flight from ``snd_una``.

ACKs ride on data: after a segment arrives, queued data is sent first, and
a bare ACK follows only if the segment was out of order or a duplicate, or
if no segment sent since has carried the new ``rcv_nxt`` (RFC 9293 section
3.8.6.3, with no timer).

The window is fixed, and there is no SACK and no congestion control.  The
engine itself never retransmits; the NAT adds a timer for that.
"""

from __future__ import annotations

from collections import Counter

from .wire import TCP_ACK, TCP_FIN, TCP_PSH, TCP_SYN, TcpSegment

MSS = 1460
WINDOW = 8192  # advertised by both ends, never changed

_SEQ_MASK = 0xFFFFFFFF

# the states in which an arriving segment is data and ACKs, for _data_in
DATA_STATES = frozenset(("established", "fin_wait"))


def seq_add(a: int, n: int) -> int:
    return (a + n) & _SEQ_MASK


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

    def passive_open(self, syn: TcpSegment) -> None:
        self.rcv_nxt = seq_add(syn.seq, 1)
        self.peer_window = syn.window
        self.state = "syn_rcvd"
        self._transmit(TCP_SYN | TCP_ACK)

    # -- input -------------------------------------------------------------------

    def segment_in(self, seg: TcpSegment) -> None:
        state = self.state
        if state == "closed":
            return
        if seg.rst:
            self._on_reset()
            return
        if state == "syn_sent":
            if seg.syn and seg.ack_flag and seg.ack == seq_add(self.iss, 1):
                self.snd_una = seg.ack
                self.rcv_nxt = seq_add(seg.seq, 1)
                self.peer_window = seg.window
                self.state = "established"
                self._transmit(TCP_ACK)
                self._on_establish()
                self._pump()
            return
        if state == "syn_rcvd":
            if seg.ack_flag and not seg.syn and seg.ack == seq_add(self.iss, 1):
                self.snd_una = seg.ack
                self.state = "established"
                self._on_establish()
                self._data_segment(seg)
            return
        if state in DATA_STATES:
            self._data_segment(seg)

    def _data_segment(self, seg: TcpSegment) -> None:
        self._data_in(seg.seq, seg.ack, seg.ack_flag, seg.window, seg.payload, seg.fin)

    def _data_in(self, seq: int, ack: int, ack_flag: bool, window: int, payload: bytes, fin: bool) -> None:
        """A segment in a synchronized state, given as its fields."""
        if ack_flag:
            self._process_ack(ack, window)
        reack = False  # out of order or duplicate: re-ack what we have
        if payload:
            if seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
                self._deliver(payload)
            else:
                self.drop_counts["tcp_out_of_order"] += 1
                reack = True
        if fin:
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
            chunk = bytes(buf[flight : flight + min(MSS, room)])
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
