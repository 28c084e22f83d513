"""MAC device model: registers, MII, descriptor rings, filtering, IRQ line."""

import io
import random

import pytest

from emunet import device as dev
from emunet import trace
from emunet.device import (
    BD_EMPTY,
    BD_ERR,
    BD_IRQ,
    BD_READY,
    BD_WRAP,
    DeviceError,
    GuestMemory,
    HASH0,
    HASH1,
    INT_BUSY,
    INT_MASK,
    INT_RXB,
    INT_SOURCE,
    INT_TXB,
    MAC_ADDR0,
    MAC_ADDR1,
    MODER,
    MODER_BRO,
    MODER_PRO,
    MODER_RXEN,
    MODER_TXEN,
    MacDevice,
    MemoryAccessError,
    Phy,
    TX_BD_NUM,
    multicast_hash_index,
)
from emunet.wire import MacAddress, encode_eth_frame
from reference import (
    PROGRAMMED_A0,
    PROGRAMMED_A1,
    PROGRAMMED_MAC,
    ReferenceMac,
    multicast_hash_oracle,
    pad_frame,
    random_ops,
)

MAC = MacAddress(PROGRAMMED_MAC)
OTHER = MacAddress.parse("02:11:22:33:44:55")
BCAST = MacAddress.parse("ff:ff:ff:ff:ff:ff")


def make_device(trace_config=None, mem_size=64 * 1024):
    sent = []
    memory = GuestMemory(mem_size)
    device = MacDevice(memory, backend_send=sent.append, trace=trace_config)
    return device, memory, sent


def enable_rx_tx(device, tx_bd_num=8, rx_slots=4, program_mac=True):
    """Minimal bring-up used by data path tests."""
    if program_mac:
        device.reg_write(MAC_ADDR1, PROGRAMMED_A1)
        device.reg_write(MAC_ADDR0, PROGRAMMED_A0)
    device.reg_write(TX_BD_NUM, tx_bd_num)
    for i in range(rx_slots):
        flags = BD_EMPTY | BD_IRQ | (BD_WRAP if i == rx_slots - 1 else 0)
        device.desc_write(tx_bd_num + i, flags, 0x4000 + i * 0x600)
    device.reg_write(INT_MASK, INT_RXB | INT_TXB | INT_BUSY)
    device.reg_write(MODER, MODER_RXEN | MODER_TXEN)


class TestMemory:
    def test_bounds(self):
        memory = GuestMemory(1024)
        memory.write(0, b"abc")
        assert memory.read(0, 3) == b"abc"
        with pytest.raises(MemoryAccessError):
            memory.read(1020, 8)
        with pytest.raises(MemoryAccessError):
            memory.write(1022, b"abcd")
        with pytest.raises(MemoryAccessError):
            memory.read(-4, 2)


class TestRegisters:
    def test_reset_state(self):
        device, _, _ = make_device()
        assert device.reg_read(INT_SOURCE) == 0
        assert not device.irq_asserted
        assert device.reg_read(TX_BD_NUM) == 64

    def test_read_after_write(self):
        device, _, _ = make_device()
        device.reg_write(MAC_ADDR0, 0x12345678)
        assert device.reg_read(MAC_ADDR0) == 0x12345678

    def test_unknown_offset_permissive_with_warning(self):
        sink = io.StringIO()
        device, _, _ = make_device(trace.enable(["open_eth*"], sink))
        assert device.reg_read(0xFC) == 0
        device.reg_write(0xFC, 0x1234)
        assert device.reg_read(0xFC) == 0
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3
        assert all("unknown=1" in line for line in lines[:2] + lines[2:])

    def test_unaligned_offset_permissive(self):
        device, _, _ = make_device()
        assert device.reg_read(0x02) == 0
        device.reg_write(0x02, 5)  # ignored

    def test_int_source_write_one_to_clear(self):
        device, _, _ = make_device()
        device.regs[INT_SOURCE] = 0x5
        device.reg_write(INT_MASK, 0x4)
        assert device.irq_asserted
        device.reg_write(INT_SOURCE, 0x4)
        assert device.reg_read(INT_SOURCE) == 0x1
        assert not device.irq_asserted

    def test_mask_source_pairs_against_boolean_oracle(self):
        device, _, _ = make_device()
        for source in range(16):
            for mask in range(16):
                device.regs[INT_SOURCE] = source
                device.regs[INT_MASK] = mask
                device.update_irq()
                assert device.irq_asserted == ((source & mask) != 0)

    def test_exhaustive_8bit_sweep_matches_oracle(self):
        device, _, _ = make_device()
        for source in range(256):
            for mask in range(256):
                device.regs[INT_SOURCE] = source
                device.regs[INT_MASK] = mask
                device.update_irq()
                assert device.irq_asserted == bool(source & mask)

    def test_moder_tx_enable_triggers_scan(self):
        sink = io.StringIO()
        device, memory, sent = make_device(trace.enable(["open_eth*"], sink))
        memory.write(0x1000, b"\x55" * 60)
        device.reg_write(TX_BD_NUM, 4)
        device.descriptors[0] = [(60 << 16) | BD_READY, 0x1000]
        device.reg_write(MODER, MODER_RXEN | MODER_TXEN)
        assert sent == [b"\x55" * 60]
        events = [line.split()[0] for line in sink.getvalue().splitlines()]
        write_idx = events.index("open_eth_reg_write")
        xmit_idx = events.index("open_eth_start_xmit")
        assert write_idx < xmit_idx

    def test_tx_bd_num_clamped_and_cursors_reset(self):
        device, _, _ = make_device()
        device.reg_write(TX_BD_NUM, 0)
        assert device.reg_read(TX_BD_NUM) == 1
        device.reg_write(TX_BD_NUM, 300)
        assert device.reg_read(TX_BD_NUM) == 128
        device.reg_write(TX_BD_NUM, 8)
        assert device.tx_cursor == 0 and device.rx_cursor == 8


class TestMii:
    def test_link_status_always_up(self):
        device, _, _ = make_device()
        assert device.mii_read(1) & Phy.LINK_BIT

    def test_reset_bit_self_clears(self):
        device, _, _ = make_device()
        device.mii_write(0, 0x8000)
        assert device.mii_read(0) & 0x8000 == 0

    def test_phy_id_constant(self):
        device, _, _ = make_device()
        assert device.mii_read(2) == Phy.ID1
        assert device.mii_read(3) == Phy.ID2

    def test_miicommand_read_status_forwards_to_phy(self):
        device, _, _ = make_device()
        device.reg_write(dev.MIIADDRESS, 1 << 8)
        device.reg_write(dev.MIICOMMAND, dev.MIICMD_RSTAT)
        assert device.reg_read(dev.MIIRX_DATA) == Phy.BMSR_VALUE

    def test_miicommand_write_forwards_to_phy(self):
        device, _, _ = make_device()
        device.reg_write(dev.MIIADDRESS, 4 << 8)
        device.reg_write(dev.MIITX_DATA, 0xBEEF)
        device.reg_write(dev.MIICOMMAND, dev.MIICMD_WCTRLDATA)
        assert device.mii_read(4) == 0xBEEF


class TestDescriptors:
    def test_never_written_slot_reads_zero(self):
        device, _, _ = make_device()
        assert device.desc_read(77) == (0, 0)

    def test_out_of_range_index(self):
        device, _, _ = make_device()
        with pytest.raises(DeviceError):
            device.desc_write(128, 0, 0)
        with pytest.raises(DeviceError):
            device.desc_read(128)

    def test_ready_write_with_tx_enabled_transmits(self):
        device, memory, sent = make_device()
        enable_rx_tx(device)
        memory.write(0x1000, bytes(range(60)))
        device.desc_write(0, (60 << 16) | BD_READY | BD_IRQ, 0x1000)
        assert sent == [bytes(range(60))]
        len_flags, _ = device.desc_read(0)
        assert not len_flags & BD_READY
        assert device.reg_read(INT_SOURCE) & INT_TXB


class TestStartXmit:
    def test_fifo_order(self):
        device, memory, sent = make_device()
        device.reg_write(TX_BD_NUM, 4)
        memory.write(0x1000, b"A" * 60)
        memory.write(0x2000, b"B" * 60)
        device.descriptors[0] = [(60 << 16) | BD_READY, 0x1000]
        device.descriptors[1] = [(60 << 16) | BD_READY, 0x2000]
        device.reg_write(MODER, MODER_TXEN)
        assert sent == [b"A" * 60, b"B" * 60]

    def test_wrap_returns_cursor_to_zero(self):
        device, memory, sent = make_device()
        device.reg_write(TX_BD_NUM, 4)
        device.reg_write(MODER, MODER_TXEN)
        memory.write(0x1000, b"A" * 60)
        device.desc_write(1, (60 << 16) | BD_READY | BD_WRAP, 0x1000)
        # cursor was 0; slot 0 not ready, so nothing went out yet
        device.desc_write(0, (60 << 16) | BD_READY, 0x1000)
        assert len(sent) == 2  # slot 0, then wrap from slot 1 already consumed
        assert device.tx_cursor == 0

    def test_dma_error_marks_slot_and_continues(self):
        device, memory, sent = make_device()
        device.reg_write(TX_BD_NUM, 4)
        memory.write(0x1000, b"ok" * 30)
        device.descriptors[0] = [(60 << 16) | BD_READY, 0xFFFFFF00]
        device.descriptors[1] = [(60 << 16) | BD_READY, 0x1000]
        device.reg_write(MODER, MODER_TXEN)
        assert sent == [b"ok" * 30]
        bad_flags, _ = device.desc_read(0)
        assert bad_flags & BD_ERR
        assert not bad_flags & BD_READY


class TestReceive:
    def frame(self, dst=MAC, payload=b"\x00" * 46):
        return encode_eth_frame(dst.octets, OTHER.octets, 0x0800, payload)

    def test_unicast_happy_path(self):
        device, memory, _ = make_device()
        enable_rx_tx(device)
        assert device.receive(self.frame(payload=b"\xaa" * 50)) is True
        len_flags, addr = device.desc_read(8)
        assert not len_flags & BD_EMPTY
        assert (len_flags >> 16) == 64  # 14 header + 50 payload
        assert memory.read(addr, 6) == MAC.octets
        assert device.irq_asserted  # RXB unmasked

    def test_foreign_unicast_dropped(self):
        device, _, _ = make_device()
        enable_rx_tx(device)
        before = [list(d) for d in device.descriptors]
        assert device.receive(self.frame(dst=MacAddress.parse("02:00:00:00:00:99"))) is False
        assert [list(d) for d in device.descriptors] == before

    def test_rx_disabled_drops(self):
        device, _, _ = make_device()
        assert device.receive(self.frame()) is False

    def test_no_empty_slot_sets_busy(self):
        device, _, _ = make_device()
        enable_rx_tx(device, rx_slots=1)
        assert device.receive(self.frame()) is True
        # the only slot is consumed; the wrapped cursor finds it non-EMPTY
        assert device.receive(self.frame()) is False
        assert device.reg_read(INT_SOURCE) & INT_BUSY

    def test_broadcast_accept_and_reject(self):
        device, _, _ = make_device()
        enable_rx_tx(device)
        assert device.receive(self.frame(dst=BCAST)) is True
        device.reg_write(MODER, MODER_RXEN | MODER_TXEN | MODER_BRO)
        assert device.receive(self.frame(dst=BCAST)) is False

    def test_promiscuous_accepts_anything(self):
        device, _, _ = make_device()
        enable_rx_tx(device)
        device.reg_write(MODER, MODER_RXEN | MODER_PRO)
        assert device.receive(self.frame(dst=MacAddress.parse("02:de:ad:be:ef:00"))) is True

    def test_multicast_hash_against_oracle(self):
        rng = random.Random(42)
        seen = set()
        attempts = 0
        while len(seen) < 64 and attempts < 50000:
            attempts += 1
            mac_bytes = bytes([0x01] + [rng.getrandbits(8) for _ in range(5)])
            index = multicast_hash_oracle(mac_bytes)
            assert index == multicast_hash_index(MacAddress(mac_bytes))
            if index in seen:
                continue
            seen.add(index)
            device, _, _ = make_device()
            enable_rx_tx(device, rx_slots=2)
            table = 1 << index
            device.reg_write(HASH0, table & 0xFFFFFFFF)
            device.reg_write(HASH1, table >> 32)
            frame = encode_eth_frame(mac_bytes, OTHER.octets, 0x0800, b"\x00" * 46)
            assert device.receive(frame) is True
            # complement table: same frame must now be filtered out
            device.reg_write(HASH0, ~table & 0xFFFFFFFF)
            device.reg_write(HASH1, (~table >> 32) & 0xFFFFFFFF)
            assert device.receive(frame) is False
        assert len(seen) == 64

    def test_receive_mcast_trace_event(self):
        sink = io.StringIO()
        device, _, _ = make_device(trace.enable(["open_eth*"], sink))
        enable_rx_tx(device)
        device.receive(encode_eth_frame(bytes.fromhex("01005e000001"), OTHER.octets, 0x0800, b"\x00" * 46))
        assert any(line.startswith("open_eth_receive_mcast") for line in sink.getvalue().splitlines())


class TestReset:
    def test_reset_after_activity(self):
        device, memory, sent = make_device()
        enable_rx_tx(device)
        memory.write(0x1000, b"x" * 60)
        device.desc_write(0, (60 << 16) | BD_READY | BD_IRQ, 0x1000)
        assert device.irq_asserted
        device.reset()
        assert device.reg_read(INT_SOURCE) == 0
        assert not device.irq_asserted
        # next transmit starts at slot 0 again
        device.reg_write(TX_BD_NUM, 4)
        memory.write(0x1000, b"y" * 60)
        device.descriptors[0] = [(60 << 16) | BD_READY, 0x1000]
        device.reg_write(MODER, MODER_TXEN)
        assert sent[-1] == b"y" * 60


class TestTraceCompleteness:
    def test_every_operation_emits_its_event(self):
        sink = io.StringIO()
        device, memory, _ = make_device(trace.enable(["open_eth*"], sink))
        enable_rx_tx(device)
        device.reg_read(INT_SOURCE)
        device.mii_read(1)
        device.mii_write(0, 0x1200)
        device.desc_read(0)
        memory.write(0x1000, b"z" * 60)
        device.desc_write(0, (60 << 16) | BD_READY | BD_IRQ, 0x1000)
        device.receive(encode_eth_frame(MAC.octets, OTHER.octets, 0x0800, b"\x00" * 46))
        names = {line.split()[0] for line in sink.getvalue().splitlines()}
        assert {
            "open_eth_reg_read", "open_eth_reg_write", "open_eth_mii_read",
            "open_eth_mii_write", "open_eth_desc_read", "open_eth_desc_write",
            "open_eth_start_xmit", "open_eth_receive", "open_eth_receive_desc",
            "open_eth_update_irq",
        } <= names

    def test_update_irq_traces_only_level_changes(self):
        sink = io.StringIO()
        device, _, _ = make_device(trace.enable(["open_eth_update_irq"], sink))
        device.update_irq()
        device.update_irq()
        assert sink.getvalue() == ""
        device.regs[INT_SOURCE] = 1
        device.regs[INT_MASK] = 1
        device.update_irq()
        device.update_irq()
        assert len(sink.getvalue().splitlines()) == 1


def apply_op(device: MacDevice, ref: ReferenceMac, op: tuple, accepts: list):
    kind = op[0]
    if kind == "desc_write":
        _, idx, len_flags, addr = op
        device.desc_write(idx, len_flags, addr)
        ref.write_desc(idx, len_flags, addr)
    elif kind == "xmit":
        device.start_xmit()
        ref.xmit()
    elif kind == "recv":
        _, dst, src, ethertype, payload = op
        accepts.append(device.receive(encode_eth_frame(dst, src, ethertype, payload)))
        ref.receive(pad_frame(dst, src, ethertype, payload))
    elif kind == "reg_write":
        _, off, val = op
        device.reg_write(off, val)
        ref.write_reg(off, val)
    elif kind == "reset":
        device.reset()
        ref.reset()


def run_equivalence(seed: int, op_count: int, mem_size: int = 16 * 1024):
    rng = random.Random(seed)
    sent = []
    memory = GuestMemory(mem_size)
    device = MacDevice(memory, backend_send=sent.append)
    ref = ReferenceMac(mem_size)
    accepts: list = []
    for op in random_ops(rng, op_count, mem_size):
        apply_op(device, ref, op, accepts)
        # IRQ line invariant holds after every public operation
        assert device.irq_asserted == (
            (device.regs[INT_SOURCE] & device.regs[INT_MASK]) != 0
        )
    assert [list(d) for d in device.descriptors] == ref.desc
    assert device.tx_cursor == ref.tx_ptr
    assert device.rx_cursor == ref.rx_ptr
    for off in ref.regs:
        assert device.regs[off] == ref.regs[off], f"reg 0x{off:x}"
    assert device.irq_asserted == ref.irq()
    assert sent == ref.sent
    assert accepts == ref.accepts
    assert memory.read(0, mem_size) == bytes(ref.mem)
    # conservation: backend frames == consumed READY slots, accepted == consumed EMPTY slots
    assert device.tx_frame_count == len(ref.sent)
    assert device.rx_accept_count == sum(1 for a in ref.accepts if a)


class TestRingEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_sequences_match_reference(self, seed):
        run_equivalence(seed, 300)
