"""The shared TCP engine, driven segment by segment at both ends of the wire.

Each test runs against the NAT's flow toward the guest and against the
guest's own connection: the same ``TcpEndpoint`` code serves both.
"""

import socket
import time

import pytest

from emunet.guest import GuestTcpConn
from emunet.tcp import MIN_MSS, MSS, seq_add
from emunet.usernet import NatFlow
from emunet.wire import ETHERTYPE_IPV4, IPPROTO_TCP, TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN
from emunet.wire import MacAddress, ip_to_bytes
from helpers import advance, boot, nat_stack, step, stepped_instance
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

PEER_ISS = 7000  # the far end's initial sequence number
PEER_MAC = MacAddress.parse("52:54:00:aa:bb:cc")
LOCAL_MAC = MacAddress.parse("52:54:00:dd:ee:ff")  # the receiving stack reads no destination MAC


class _Recorder:
    """A guest application that records what its connection delivers."""

    def __init__(self, _stack, _conn):
        self.events = []

    def on_connect(self):
        pass

    def on_data(self, data):
        self.events.append(("data", bytes(data)))

    def on_eof(self):
        self.events.append(("eof",))

    def on_close(self):
        pass


def _segment(ep, seq, ack, flags, payload):
    """What an endpoint's ``_emit`` was given, as a TcpSegment."""
    return TcpSegment(
        src_port=ep.local_port, dst_port=ep.peer_port, seq=seq, ack=ack,
        syn=bool(flags & TCP_SYN), ack_flag=bool(flags & TCP_ACK), fin=bool(flags & TCP_FIN),
        rst=bool(flags & TCP_RST), psh=bool(flags & TCP_PSH), payload=payload,
    )


class _End:
    """One established endpoint, the segments it sent, and the stack that owns it."""

    def __init__(self, kind):
        self.kind = kind
        self.sent = []
        self.peer_nxt = seq_add(PEER_ISS, 1)
        if kind == "nat":  # the NAT opens toward a listening guest
            self.stack = nat_stack()
            self.ep = NatFlow(
                self.stack, guest_ip=ip_to_bytes("10.0.2.15"), guest_port=80,
                remote_ip=ip_to_bytes("10.0.2.2"), remote_port=49152,
            )
            self.stack._flows[self.ep.key] = self.ep
            self.ep._emit = lambda *fields: self.sent.append(_segment(self.ep, *fields))
            self.events = []  # what the flow would send to its host socket
            self.ep._deliver = lambda data: self.events.append(("data", bytes(data)))
            self.ep._deliver_eof = lambda: self.events.append(("eof",))
            self.host, self.far = socket.socketpair()  # the selector needs a real socket
            self.ep.start_inbound(self.host)
            self.peer_in(PEER_ISS, syn=True)
        else:  # the guest accepts a connection
            instance = stepped_instance()
            boot(instance)  # the guest has its address
            self.stack = instance.guest
            self.ep = GuestTcpConn(self.stack, 80, ip_to_bytes("10.0.2.2"), 49152, _Recorder)
            self.stack.conns[self.ep.key] = self.ep
            self.ep._emit = lambda *fields: self.sent.append(_segment(self.ep, *fields))
            self.ep.passive_open(PEER_ISS, 8192)
            self.peer_in(self.peer_nxt)
        assert self.ep.state == "established"
        self.sent.clear()

    def peer_in(self, seq, ack=None, **fields):
        """A segment from the far end; by default it acks all we sent."""
        seg = self._peer_segment(seq, ack, **fields)
        self.ep.segment_in(seg.seq, seg.ack, seg.flags, seg.window, seg.payload)

    def _peer_segment(self, seq, ack=None, window=8192, **fields):
        return TcpSegment(
            src_port=self.ep.peer_port, dst_port=self.ep.local_port, seq=seq,
            ack=self.ep.snd_nxt if ack is None else ack, ack_flag=True, window=window,
            **fields,
        )

    def frame_in(self, seq, options=b"", data_offset=None, **fields):
        """The same segment as ``peer_in`` sends, as a frame through the
        stack's TCP input, with TCP ``options``; ``data_offset``, in words,
        overrides the header's, with the checksum made to fit it."""
        seg = self._peer_segment(seq, **fields)
        peer_ip = self.ep.guest_ip if self.kind == "nat" else self.ep.peer_ip
        local_ip = self.ep.remote_ip if self.kind == "nat" else self.stack.ip
        raw = bytearray(encode_tcp(seg, peer_ip, local_ip, options))
        if data_offset is not None:
            raw[12] = data_offset << 4
            raw[16:18] = b"\x00\x00"
            raw[16:18] = tcp_checksum_reference(peer_ip, local_ip, bytes(raw)).to_bytes(2, "big")
        pkt = Ipv4Packet(peer_ip, local_ip, IPPROTO_TCP, bytes(raw))
        frame = encode_frame(EthernetFrame(LOCAL_MAC.octets, PEER_MAC.octets, ETHERTYPE_IPV4, encode_ipv4(pkt)))
        if self.kind == "nat":
            self.stack.guest_frame_in(frame)
        else:
            self.stack._frame_in(frame)

    def delivered(self):
        if self.kind == "guest":
            events, self.ep.app.events = self.ep.app.events, []
            return events
        events, self.events = self.events, []
        return events

    def close_local(self):
        if self.kind == "guest":
            self.ep.close()
        else:
            self.ep.host_eof_seen()

    def flush(self):
        """The stack's end of a batch, where owed bare ACKs go out: the NAT's
        poll for frames toward the guest, or the guest's interrupt step."""
        if self.kind == "guest":
            self.stack.stack_step()
        else:
            self.stack.poll_frames_out()

    def registered(self):
        table = self.stack._flows if self.kind == "nat" else self.stack.conns
        return self.ep.key in table


@pytest.fixture(params=["nat", "guest"])
def end(request):
    end = _End(request.param)
    yield end
    if end.kind == "nat":
        end.host.close()
        end.far.close()


def _bare_ack(seg):
    return seg.ack_flag and not seg.payload and not (seg.syn or seg.fin or seg.rst)


@pytest.mark.parametrize("offset", [-3, 100], ids=["duplicate", "out_of_order"])
def test_unexpected_segment_gets_one_bare_ack_and_is_counted(end, offset):
    end.peer_in(end.peer_nxt, payload=b"abc")
    assert end.delivered() == [("data", b"abc")]
    rcv_nxt = end.ep.rcv_nxt
    end.sent.clear()
    end.peer_in(seq_add(rcv_nxt, offset), payload=b"xyz")
    assert len(end.sent) == 1 and _bare_ack(end.sent[0])
    assert end.sent[0].ack == rcv_nxt == end.ep.rcv_nxt
    assert end.delivered() == []
    assert end.stack.drop_counts["tcp_out_of_order"] == 1


def test_duplicate_fin_is_acked_again(end):
    end.peer_in(end.peer_nxt, fin=True)
    assert end.delivered() == [("eof",)]
    fin_ack = seq_add(end.peer_nxt, 1)
    assert [seg.ack for seg in end.sent] == [fin_ack]
    end.sent.clear()
    end.peer_in(end.peer_nxt, fin=True)
    assert len(end.sent) == 1 and _bare_ack(end.sent[0]) and end.sent[0].ack == fin_ack
    assert end.delivered() == []  # the end of stream is delivered once
    assert end.stack.drop_counts["tcp_out_of_order"] == 0


def test_fin_carrying_data_closes_in_order(end):
    end.peer_in(end.peer_nxt, payload=b"last words", fin=True)
    assert end.delivered() == [("data", b"last words"), ("eof",)]
    assert [seg.ack for seg in end.sent] == [seq_add(end.peer_nxt, len(b"last words") + 1)]
    end.sent.clear()
    end.close_local()
    (fin,) = end.sent
    assert fin.fin and fin.ack_flag and not fin.payload
    assert end.ep.state == "fin_wait" and end.registered()
    end.peer_in(seq=seq_add(end.peer_nxt, len(b"last words") + 1), ack=end.ep.snd_nxt)
    assert end.ep.state == "closed"
    assert not end.registered()


def test_ack_frees_the_send_buffer_from_the_front(end):
    end.ep.send(bytes(range(200)) * 20)  # 4,000 bytes: three segments
    assert [len(seg.payload) for seg in end.sent] == [1460, 1460, 1080]
    assert len(end.ep.send_buf) == 4000  # in flight, so still held
    end.peer_in(end.peer_nxt, ack=seq_add(end.ep.snd_una, 1500))
    assert end.ep.send_buf == (bytes(range(200)) * 20)[1500:]
    end.peer_in(end.peer_nxt)
    assert end.ep.send_buf == b"" and end.ep.snd_una == end.ep.snd_nxt


# -- bare ACKs owed to the end of a batch ----------------------------------------------

def test_in_order_data_with_nothing_to_send_is_acked_once_at_the_flush(end):
    end.peer_in(end.peer_nxt, payload=b"first")
    end.peer_in(seq_add(end.peer_nxt, 5), payload=b"second")
    assert end.delivered() == [("data", b"first"), ("data", b"second")]
    assert end.sent == []  # owed, not sent
    end.flush()
    assert len(end.sent) == 1 and _bare_ack(end.sent[0])
    assert end.sent[0].ack == end.ep.rcv_nxt == seq_add(end.peer_nxt, 11)
    end.sent.clear()
    end.flush()
    assert end.sent == []  # the debt is paid


def test_a_segment_carrying_the_ack_pays_the_debt(end):
    end.peer_in(end.peer_nxt, payload=b"question")
    end.ep.send(b"answer")
    (reply,) = end.sent
    assert reply.payload == b"answer" and reply.ack == end.ep.rcv_nxt
    end.flush()
    assert end.sent == [reply]


def test_a_connection_reset_before_the_flush_sends_nothing(end):
    end.peer_in(end.peer_nxt, payload=b"owed")
    end.peer_in(seq_add(end.peer_nxt, 4), rst=True)
    assert end.ep.state == "closed"
    end.flush()
    assert end.sent == []


@pytest.mark.parametrize("trigger", ["fin", "out_of_order", "duplicate", "second_full_segment"])
def test_the_ack_goes_at_once_for(end, trigger):
    first = b"x" * (MSS if trigger == "second_full_segment" else 3)
    end.peer_in(end.peer_nxt, payload=first)
    assert end.sent == []
    nxt = seq_add(end.peer_nxt, len(first))
    segment = {
        "fin": dict(seq=nxt, fin=True),
        "out_of_order": dict(seq=seq_add(nxt, 100), payload=b"ahead"),
        "duplicate": dict(seq=end.peer_nxt, payload=first),
        "second_full_segment": dict(seq=nxt, payload=b"y" * MSS),
    }[trigger]
    end.peer_in(**segment)
    assert len(end.sent) == 1 and _bare_ack(end.sent[0])
    assert end.sent[0].ack == end.ep.rcv_nxt  # which covers the first segment too
    end.flush()
    assert len(end.sent) == 1


def test_a_single_full_segment_waits_for_the_flush(end):
    end.peer_in(end.peer_nxt, payload=b"x" * MSS)
    assert end.sent == []
    end.flush()
    assert [seg.ack for seg in end.sent] == [seq_add(end.peer_nxt, MSS)]


# -- sender-side silly window avoidance ----------------------------------------------

def test_a_short_segment_waits_while_a_flight_is_out_and_more_follows(end):
    data = bytes(range(250)) * 40  # 10,000 bytes: 5 full segments fill 7,300 of the 8,192 window
    end.ep.send(data)
    assert [len(seg.payload) for seg in end.sent] == [MSS] * 5
    end.sent.clear()
    end.peer_in(end.peer_nxt, ack=seq_add(end.ep.snd_una, MSS))  # 2,352 of window now free
    assert [len(seg.payload) for seg in end.sent] == [MSS]
    end.sent.clear()
    end.peer_in(end.peer_nxt)  # all acked: the rest, 1,240, empties the buffer
    assert [len(seg.payload) for seg in end.sent] == [10_000 - 6 * MSS]
    assert end.sent[0].payload == data[6 * MSS:]


@pytest.mark.parametrize("window", [1000, 2000])
def test_a_peer_window_under_one_mss_still_gets_every_byte(end, window):
    data = bytes(range(256)) * 20  # 5,120 bytes
    end.peer_in(end.peer_nxt, window=window)  # the peer's window shrinks
    end.ep.send(data)
    received = bytearray()
    for _ in range(20):  # each ACK, with no timer, sends what the window takes
        sizes = [len(seg.payload) for seg in end.sent]
        assert sizes and all(size == min(MSS, window) or i == len(sizes) - 1 for i, size in enumerate(sizes))
        received += b"".join(seg.payload for seg in end.sent)
        end.sent.clear()
        if len(received) == len(data):
            break
        end.peer_in(end.peer_nxt, window=window)
    assert received == data


def test_option_bearing_data_segment_delivers_the_bytes_after_the_options(end):
    end.frame_in(end.peer_nxt, OPT_TIMESTAMP, payload=b"after the options", psh=True)
    assert end.delivered() == [("data", b"after the options")]
    assert end.ep.rcv_nxt == seq_add(end.peer_nxt, len(b"after the options"))
    assert not end.stack.drop_counts


@pytest.mark.parametrize("data_offset", [4, 15], ids=["below_5", "past_the_segment"])
def test_bad_data_offset_counts_tcp_malformed(end, data_offset):
    rcv_nxt = end.ep.rcv_nxt
    end.frame_in(end.peer_nxt, data_offset=data_offset, payload=b"never delivered")
    assert end.stack.drop_counts == {"tcp_malformed": 1}
    assert end.delivered() == [] and end.sent == [] and end.ep.rcv_nxt == rcv_nxt


# -- the peer's MSS option (RFC 9293 section 3.7.1) ----------------------------------

GUEST_IP, GATEWAY_IP = ip_to_bytes("10.0.2.15"), ip_to_bytes("10.0.2.2")
GATEWAY_MAC = MacAddress.parse("52:55:0a:00:02:02")


def _mss_option(value):
    return bytes((2, 4)) + value.to_bytes(2, "big")


def _tcp_frame(src_mac, dst_mac, src_ip, dst_ip, seg, options=b""):
    pkt = Ipv4Packet(src_ip, dst_ip, IPPROTO_TCP, encode_tcp(seg, src_ip, dst_ip, options))
    return encode_frame(EthernetFrame(dst_mac.octets, src_mac.octets, ETHERTYPE_IPV4, encode_ipv4(pkt)))


def _data_sizes(frames):
    """The payload sizes of the TCP segments among ``frames`` that carry data."""
    sizes = []
    for raw in frames:
        pkt = decode_ipv4(decode_frame(raw).payload)
        if pkt.protocol == IPPROTO_TCP:
            seg = decode_tcp(pkt.payload, pkt.src_ip, pkt.dst_ip)
            sizes += [len(seg.payload)] if seg.payload else []
    return sizes


class _MssEnd:
    """One end that learnt the peer's MSS from the SYN or SYN-ACK that opened
    the connection: the NAT or the guest, opening actively or passively.
    ``send`` gives it 1200 bytes to send; ``sent`` returns the frames it sent."""

    def __init__(self, kind, options):
        self.kind, self.closers = kind, []
        if kind.startswith("nat"):
            self.stack = nat_stack()
            self._nat_open(kind, options)
        else:
            self.inst = stepped_instance(mode="echo")
            boot(self.inst)
            self.stack = self.inst.guest
            self._guest_open(kind, options)
        assert self.ep.state == "established"
        self.sent()

    def _nat_open(self, kind, options):
        stack = self.stack
        if kind == "nat_active":  # the NAT opens toward a listening guest, whose SYN-ACK carries the option
            stack._arp_table[GUEST_IP] = MacAddress(PEER_MAC.octets)
            self.host, far = socket.socketpair()
            self.closers += [self.host, far]
            self.ep = NatFlow(stack, GUEST_IP, 80, GATEWAY_IP, 49152)
            stack._flows[self.ep.key] = self.ep
            self.ep.start_inbound(self.host)
            stack.poll_frames_out()
            reply = TcpSegment(80, 49152, PEER_ISS, seq_add(self.ep.iss, 1), syn=True, ack_flag=True)
            stack.guest_frame_in(_tcp_frame(PEER_MAC, GATEWAY_MAC, GUEST_IP, GATEWAY_IP, reply, options))
            return
        # the guest's SYN, carrying the option, opens a flow to a host listener
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        self.closers.append(listener)
        host_ip, port = ip_to_bytes("127.0.0.1"), listener.getsockname()[1]
        syn = TcpSegment(40000, port, PEER_ISS, 0, syn=True)
        stack.guest_frame_in(_tcp_frame(PEER_MAC, GATEWAY_MAC, GUEST_IP, host_ip, syn, options))
        self.ep = stack._flows[(GUEST_IP, 40000, host_ip, port)]
        listener.settimeout(5)
        self.host, _peer = listener.accept()
        self.closers.append(self.host)
        for _ in range(200):
            if self.ep.state == "syn_rcvd":
                break
            step(stack.loop)
            time.sleep(0.001)
        ack = TcpSegment(40000, port, seq_add(PEER_ISS, 1), seq_add(self.ep.iss, 1), ack_flag=True)
        stack.guest_frame_in(_tcp_frame(PEER_MAC, GATEWAY_MAC, GUEST_IP, host_ip, ack))

    def _guest_open(self, kind, options):
        guest = self.stack
        if kind == "guest_passive":  # a SYN carrying the option to the echo server
            peer_port = 49152
            guest._frame_in(_tcp_frame(GATEWAY_MAC, guest.mac, GATEWAY_IP, GUEST_IP,
                                       TcpSegment(peer_port, 80, PEER_ISS, 0, syn=True), options))
            self.ep = guest.conns[(GATEWAY_IP, peer_port, 80)]
            ack = TcpSegment(peer_port, 80, seq_add(PEER_ISS, 1), seq_add(self.ep.iss, 1), ack_flag=True)
            guest._frame_in(_tcp_frame(GATEWAY_MAC, guest.mac, GATEWAY_IP, GUEST_IP, ack))
        else:  # the guest connects, and the SYN-ACK carries the option
            self.ep = guest.tcp_connect(GATEWAY_IP, 9, _Recorder)
            reply = TcpSegment(9, self.ep.local_port, PEER_ISS, seq_add(self.ep.iss, 1), syn=True, ack_flag=True)
            guest._frame_in(_tcp_frame(GATEWAY_MAC, guest.mac, GATEWAY_IP, GUEST_IP, reply, options))
        self._cursor = 0

    def send(self, data):
        if self.kind.startswith("nat"):
            self.ep.host_data(data)
        else:
            self.ep.send(data)

    def sent(self):
        if self.kind.startswith("nat"):
            return self.stack.poll_frames_out()
        frames = self.inst.guest_tx_raw[self._cursor:]
        self._cursor = len(self.inst.guest_tx_raw)
        return frames

    def close(self):
        if self.kind.startswith("nat"):
            self.stack.stop()  # closes the flow's socket
        for sock in self.closers:
            sock.close()


MSS_ENDS = ["nat_active", "nat_passive", "guest_active", "guest_passive"]


@pytest.mark.parametrize("kind", MSS_ENDS)
def test_segments_stay_within_the_mss_the_peer_advertised(kind):
    end = _MssEnd(kind, _mss_option(536))  # lwIP's default TCP_MSS
    try:
        assert end.ep.send_mss == 536
        end.send(bytes(range(200)) * 6)
        assert _data_sizes(end.sent()) == [536, 536, 128]
        if kind.startswith("nat"):  # and so does a retransmission
            from emunet.usernet import RETRANSMIT_S

            advance(end.stack.loop, RETRANSMIT_S)
            assert _data_sizes(end.sent()) == [536]
    finally:
        end.close()


@pytest.mark.parametrize("kind", MSS_ENDS)
def test_an_mss_of_zero_is_raised_to_the_floor(kind):
    end = _MssEnd(kind, _mss_option(0))
    try:
        assert end.ep.send_mss == MIN_MSS
        end.send(bytes(1200))
        sizes = _data_sizes(end.sent())
        assert sizes == [MIN_MSS] * (1200 // MIN_MSS)
    finally:
        end.close()


@pytest.mark.parametrize("options, mss", [
    (b"", MSS), (OPT_TIMESTAMP, MSS), (_mss_option(9000), MSS), (_mss_option(1000), 1000), (_mss_option(47), MIN_MSS),
], ids=["none", "timestamps_only", "above_ours", "below_ours", "below_the_floor"])
def test_the_syn_sets_the_segment_size(options, mss):
    end = _MssEnd("guest_passive", options)
    assert end.ep.send_mss == mss
    end.send(bytes(3000))
    sizes = _data_sizes(end.sent())
    assert max(sizes) == mss and sum(sizes) == 3000


def test_only_a_syn_sets_the_segment_size(end):
    end.frame_in(end.peer_nxt, _mss_option(536), payload=b"data", psh=True)
    assert end.delivered() == [("data", b"data")]
    assert end.ep.send_mss == MSS
