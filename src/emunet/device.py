"""OpenCores-style ethernet MAC device model.

Register offsets follow the public ethmac convention (MODER at 0x00 through
HASH1 at 0x4C); the descriptor window sits at 0x400 with 128 descriptors of
8 bytes each.  TX descriptors occupy slots [0, TX_BD_NUM), RX descriptors
[TX_BD_NUM, 128).  The interrupt line is level-triggered and, after every
public operation, asserted exactly when INT_SOURCE & INT_MASK != 0.

The device is single-owner: all operations must be called from one event
loop.  Inbound frames from the network backend are marshalled onto that
loop by the harness; the backend_send callback runs on the loop as part of
a transmit scan and must not call back into the device.

Every public operation emits one trace event named after the matching
open_eth_* device function; update_irq only traces interrupt level changes.
A device whose TraceConfig has no pattern skips its trace points altogether,
as QEMU's trace_*() calls test the event's state before formatting: it
decides so once, when it is built, and builds no closure and calls no emit.
"""

from __future__ import annotations

import mmap

from .trace import NULL_TRACE, TraceConfig
from .wire import BROADCAST_MAC, MacAddress

# Register offsets (4-byte aligned, 32-bit each).
MODER = 0x00
INT_SOURCE = 0x04
INT_MASK = 0x08
TX_BD_NUM = 0x20
MIIMODER = 0x28
MIICOMMAND = 0x2C
MIIADDRESS = 0x30
MIITX_DATA = 0x34
MIIRX_DATA = 0x38
MIISTATUS = 0x3C
MAC_ADDR0 = 0x40  # MAC octets 2..5
MAC_ADDR1 = 0x44  # MAC octets 0..1 in the low half-word
HASH0 = 0x48  # multicast hash bits 0..31
HASH1 = 0x4C  # multicast hash bits 32..63

REG_NAMES = {
    MODER: "MODER",
    INT_SOURCE: "INT_SOURCE",
    INT_MASK: "INT_MASK",
    TX_BD_NUM: "TX_BD_NUM",
    MIIMODER: "MIIMODER",
    MIICOMMAND: "MIICOMMAND",
    MIIADDRESS: "MIIADDRESS",
    MIITX_DATA: "MIITX_DATA",
    MIIRX_DATA: "MIIRX_DATA",
    MIISTATUS: "MIISTATUS",
    MAC_ADDR0: "MAC_ADDR0",
    MAC_ADDR1: "MAC_ADDR1",
    HASH0: "HASH0",
    HASH1: "HASH1",
}

MODER_RXEN = 1 << 0
MODER_TXEN = 1 << 1
MODER_BRO = 1 << 3  # reject broadcast frames when set
MODER_PRO = 1 << 5  # promiscuous

INT_TXB = 1 << 0
INT_TXE = 1 << 1
INT_RXB = 1 << 2
INT_RXE = 1 << 3
INT_BUSY = 1 << 4

MIICMD_RSTAT = 1 << 1
MIICMD_WCTRLDATA = 1 << 2

BD_COUNT = 128
DEFAULT_TX_BD_NUM = 64

# Descriptor flag bits (low half-word of len_flags).  Bit 15 means
# device-owned: READY for a TX slot, EMPTY for an RX slot.
BD_READY = 0x8000
BD_EMPTY = 0x8000
BD_IRQ = 0x4000
BD_WRAP = 0x2000
BD_ERR = 0x0001

ETH_CRC_POLY = 0x04C11DB7


class DeviceError(Exception):
    pass


class MemoryAccessError(Exception):
    pass


class GuestMemory:
    """Flat guest RAM serving as the DMA target for descriptor buffers.

    An anonymous mapping, so only the pages the guest touches are resident.
    Out-of-range access raises MemoryAccessError, never silently truncates.
    """

    def __init__(self, size: int = 4 * 1024 * 1024):
        self._buf = mmap.mmap(-1, size)

    @property
    def size(self) -> int:
        return len(self._buf)

    def read(self, addr: int, length: int) -> bytes:
        if addr < 0 or length < 0 or addr + length > len(self._buf):
            raise MemoryAccessError(f"read of {length} bytes at 0x{addr:x} out of range")
        return self._buf[addr:addr + length]  # a slice of a mapping is already bytes

    def write(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self._buf):
            raise MemoryAccessError(f"write of {len(data)} bytes at 0x{addr:x} out of range")
        self._buf[addr:addr + len(data)] = data


class Phy:
    """Always-link-up PHY with instant auto-negotiation.

    Reads of register 1 (BMSR) report link-up and negotiation complete;
    registers 2/3 hold a fixed PHY identifier.  Writes are stored; only the
    BMCR reset bit has behaviour (it self-clears immediately).
    """

    BMSR_VALUE = 0x782C  # 100/10 full+half capable, aneg complete, link up
    ID1 = 0x2000
    ID2 = 0x5C90
    LINK_BIT = 1 << 2

    def __init__(self) -> None:
        self.regs: dict[int, int] = {0: 0x1000}  # BMCR: auto-negotiation enabled

    def read(self, reg: int) -> int:
        if reg == 1:
            return self.BMSR_VALUE
        if reg == 2:
            return self.ID1
        if reg == 3:
            return self.ID2
        return self.regs.get(reg, 0)

    def write(self, reg: int, value: int) -> None:
        value &= 0xFFFF
        if reg == 0 and value & 0x8000:
            value &= ~0x8000  # reset self-clears
        self.regs[reg] = value


def crc32_be(data: bytes) -> int:
    """Bitwise big-endian CRC-32 (poly 0x04C11DB7, init all-ones, no final xor)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte << 24
        for _ in range(8):
            if crc & 0x80000000:
                crc = ((crc << 1) ^ ETH_CRC_POLY) & 0xFFFFFFFF
            else:
                crc = (crc << 1) & 0xFFFFFFFF
    return crc


def multicast_hash_index(mac: MacAddress) -> int:
    """Top 6 bits of the address CRC select a bit in the HASH1:HASH0 table."""
    return crc32_be(mac.octets) >> 26


class MacDevice:
    """Register file, MII management, TX/RX descriptor rings and IRQ line."""

    def __init__(
        self,
        memory: GuestMemory,
        backend_send=None,
        trace: TraceConfig | None = None,
    ):
        self.memory = memory
        self.backend_send = backend_send or (lambda raw: None)
        self.trace = trace if trace is not None else NULL_TRACE
        self.tracing = bool(self.trace.patterns)  # False: every trace point is skipped
        self.phy = Phy()
        self.regs: dict[int, int] = {}
        self.descriptors: list[list[int]] = [[0, 0] for _ in range(BD_COUNT)]
        self.tx_cursor = 0
        self.rx_cursor = DEFAULT_TX_BD_NUM
        self.irq_asserted = False
        self.tx_frame_count = 0  # frames handed to the backend
        self.rx_accept_count = 0  # frames written into RX slots
        self._reset_state()

    # -- lifecycle ---------------------------------------------------------

    def _reset_state(self) -> None:
        for offset in REG_NAMES:
            self.regs[offset] = 0
        self.regs[TX_BD_NUM] = DEFAULT_TX_BD_NUM
        # MIISTATUS all-clear reports link up (the LINKFAIL bit is bit 0).
        for slot in self.descriptors:
            slot[0] = 0
            slot[1] = 0
        self.tx_cursor = 0
        self.rx_cursor = self.regs[TX_BD_NUM]

    def reset(self) -> None:
        """Return to power-on state; deasserts the IRQ line."""
        self._reset_state()
        self.update_irq()

    # -- registers ---------------------------------------------------------

    def reg_read(self, offset: int) -> int:
        if offset % 4 or offset not in self.regs:
            if self.tracing:
                self.trace.emit("open_eth_reg_read", lambda: f"offset=0x{offset:x} value=0x0 unknown=1")
            return 0
        value = self.regs[offset]
        if self.tracing:
            self.trace.emit("open_eth_reg_read", lambda: f"reg={REG_NAMES[offset]} value=0x{value:08x}")
        return value

    def reg_write(self, offset: int, value: int) -> None:
        value &= 0xFFFFFFFF
        if offset % 4 or offset not in self.regs:
            if self.tracing:
                self.trace.emit("open_eth_reg_write", lambda: f"offset=0x{offset:x} value=0x{value:08x} unknown=1")
            return
        if self.tracing:
            self.trace.emit("open_eth_reg_write", lambda: f"reg={REG_NAMES[offset]} value=0x{value:08x}")
        if offset == INT_SOURCE:
            self.regs[INT_SOURCE] &= ~value  # write-1-to-clear
            self.update_irq()
        elif offset == INT_MASK:
            self.regs[INT_MASK] = value
            self.update_irq()
        elif offset == TX_BD_NUM:
            clamped = min(max(value, 1), BD_COUNT)
            self.regs[TX_BD_NUM] = clamped
            self.tx_cursor = 0
            self.rx_cursor = clamped
        elif offset == MIICOMMAND:
            self.regs[MIICOMMAND] = value
            phy_reg = (self.regs[MIIADDRESS] >> 8) & 0x1F
            if value & MIICMD_RSTAT:
                self.regs[MIIRX_DATA] = self.mii_read(phy_reg)
            if value & MIICMD_WCTRLDATA:
                self.mii_write(phy_reg, self.regs[MIITX_DATA] & 0xFFFF)
        elif offset == MODER:
            self.regs[MODER] = value
            if value & MODER_TXEN:
                self.start_xmit()
        else:
            self.regs[offset] = value

    # -- MII management ----------------------------------------------------

    def mii_read(self, phy_reg: int) -> int:
        value = self.phy.read(phy_reg & 0x1F)
        if self.tracing:
            self.trace.emit("open_eth_mii_read", lambda: f"reg={phy_reg} value=0x{value:04x}")
        return value

    def mii_write(self, phy_reg: int, value: int) -> None:
        if self.tracing:
            self.trace.emit("open_eth_mii_write", lambda: f"reg={phy_reg} value=0x{value:04x}")
        self.phy.write(phy_reg & 0x1F, value)

    # -- descriptors -------------------------------------------------------

    def desc_read(self, index: int) -> tuple[int, int]:
        if not 0 <= index < BD_COUNT:
            raise DeviceError(f"descriptor index {index} out of range")
        len_flags, addr = self.descriptors[index]
        if self.tracing:
            self.trace.emit("open_eth_desc_read", lambda: f"idx={index} len_flags=0x{len_flags:08x} addr=0x{addr:08x}")
        return len_flags, addr

    def desc_write(self, index: int, len_flags: int, buffer_addr: int) -> None:
        if not 0 <= index < BD_COUNT:
            raise DeviceError(f"descriptor index {index} out of range")
        len_flags &= 0xFFFFFFFF
        buffer_addr &= 0xFFFFFFFF
        if self.tracing:
            self.trace.emit(
                "open_eth_desc_write",
                lambda: f"idx={index} len_flags=0x{len_flags:08x} addr=0x{buffer_addr:08x}",
            )
        self.descriptors[index][0] = len_flags
        self.descriptors[index][1] = buffer_addr
        if (
            index < self.regs[TX_BD_NUM]
            and len_flags & BD_READY
            and self.regs[MODER] & MODER_TXEN
        ):
            self.start_xmit()

    # -- data path ---------------------------------------------------------

    def start_xmit(self) -> None:
        """Scan TX slots from the cursor, transmitting every READY slot."""
        if not self.regs[MODER] & MODER_TXEN:
            return
        tx_count = self.regs[TX_BD_NUM]
        while True:
            if self.tx_cursor >= tx_count:
                self.tx_cursor = 0
            slot = self.tx_cursor
            len_flags, addr = self.descriptors[slot]
            if not len_flags & BD_READY:
                break
            length = (len_flags >> 16) & 0xFFFF
            flags = len_flags & 0xFFFF
            try:
                raw = self.memory.read(addr, length)
            except MemoryAccessError:
                raw = None
                flags |= BD_ERR
            flags &= ~BD_READY
            self.descriptors[slot][0] = (length << 16) | flags
            if raw is not None:
                if self.tracing:
                    self.trace.emit("open_eth_start_xmit", lambda slot=slot, length=length: f"slot={slot} len={length}")
                self.tx_frame_count += 1
                self.backend_send(raw)
                if flags & BD_IRQ:
                    self.regs[INT_SOURCE] |= INT_TXB
            if flags & BD_WRAP or slot + 1 >= tx_count:
                self.tx_cursor = 0
            else:
                self.tx_cursor = slot + 1
        self.update_irq()

    def receive(self, raw: bytes) -> bool:
        """Offer an inbound frame's bytes; returns True when written to an RX slot."""
        if self.tracing:
            self.trace.emit("open_eth_receive", lambda: f"len={len(raw)} dst={raw[:6].hex(':')}")
        if not self.regs[MODER] & MODER_RXEN:
            return False
        if not self._rx_filter(raw[:6]):
            return False
        tx_count = self.regs[TX_BD_NUM]
        if tx_count >= BD_COUNT:  # no RX region configured
            self.regs[INT_SOURCE] |= INT_BUSY
            self.update_irq()
            return False
        if self.rx_cursor < tx_count or self.rx_cursor >= BD_COUNT:
            self.rx_cursor = tx_count
        slot = self.rx_cursor
        len_flags, addr = self.descriptors[slot]
        if not len_flags & BD_EMPTY:
            self.regs[INT_SOURCE] |= INT_BUSY
            self.update_irq()
            return False
        flags = len_flags & 0xFFFF
        try:
            self.memory.write(addr, raw)
            self.regs[INT_SOURCE] |= INT_RXB
        except MemoryAccessError:
            flags |= BD_ERR
            self.regs[INT_SOURCE] |= INT_RXE
        flags &= ~BD_EMPTY
        self.descriptors[slot][0] = (len(raw) << 16) | flags
        if self.tracing:
            self.trace.emit("open_eth_receive_desc", lambda: f"slot={slot} len={len(raw)}")
        if flags & BD_WRAP or slot + 1 >= BD_COUNT:
            self.rx_cursor = tx_count
        else:
            self.rx_cursor = slot + 1
        self.rx_accept_count += 1
        self.update_irq()
        return True

    def _rx_filter(self, dst: bytes) -> bool:
        moder = self.regs[MODER]
        if moder & MODER_PRO:
            return True
        if dst == BROADCAST_MAC.octets:
            return not moder & MODER_BRO
        if dst[0] & 1:  # multicast
            index = multicast_hash_index(MacAddress(dst))
            table = (self.regs[HASH1] << 32) | self.regs[HASH0]
            accepted = bool(table >> index & 1)
            if self.tracing:
                self.trace.emit("open_eth_receive_mcast", lambda: f"idx={index} accepted={int(accepted)}")
            return accepted
        return dst == self.programmed_mac()

    def programmed_mac(self) -> bytes:
        a0 = self.regs[MAC_ADDR0]
        a1 = self.regs[MAC_ADDR1]
        return bytes(
            (
                (a1 >> 8) & 0xFF, a1 & 0xFF,
                (a0 >> 24) & 0xFF, (a0 >> 16) & 0xFF, (a0 >> 8) & 0xFF, a0 & 0xFF,
            )
        )

    # -- interrupts --------------------------------------------------------

    def update_irq(self) -> None:
        """Re-derive the IRQ level; traces only on level change."""
        level = (self.regs[INT_SOURCE] & self.regs[INT_MASK]) != 0
        if level != self.irq_asserted:
            self.irq_asserted = level
            if self.tracing:
                self.trace.emit("open_eth_update_irq", lambda: f"level={int(level)}")
