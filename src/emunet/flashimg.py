"""Flash image composer and inspector.

A bootable image merges three segments at fixed offsets into one byte
buffer the size of the flash part: second-stage bootloader, partition
table, application.  Unclaimed bytes carry the erased-flash value 0xFF.

Partition entries follow the 32-byte ESP-IDF record layout (magic 0xAA50,
type, subtype, offset, size, 16-byte label, flags) so real tables stay
readable; the table is terminated by an all-0xFF entry.

The application payload this harness boots is not machine code: after the
0xE9 magic byte and a little-endian length word it carries the guest
configuration as JSON (MAC, port, mode, banner).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

PARTITION_MAGIC = 0xAA50
PARTITION_ENTRY_SIZE = 32
PARTITION_TYPE_APP = 0
PARTITION_TYPE_DATA = 1
_TERMINATOR = b"\xff" * PARTITION_ENTRY_SIZE

APP_MAGIC = 0xE9

DEFAULT_BOOTLOADER_OFFSET = 0x1000
DEFAULT_TABLE_OFFSET = 0x8000
DEFAULT_APP_OFFSET = 0x10000
DEFAULT_FLASH_SIZE = 4 * 1024 * 1024


class FlashError(Exception):
    pass


@dataclass(frozen=True)
class FlashLayout:
    bootloader_offset: int = DEFAULT_BOOTLOADER_OFFSET
    table_offset: int = DEFAULT_TABLE_OFFSET
    app_offset: int = DEFAULT_APP_OFFSET
    flash_size: int = DEFAULT_FLASH_SIZE

    def validate(self) -> None:
        if not 0 <= self.bootloader_offset < self.table_offset < self.app_offset < self.flash_size:
            raise FlashError(
                "layout offsets must satisfy "
                "bootloader < table < app < flash_size "
                f"(got 0x{self.bootloader_offset:x}, 0x{self.table_offset:x}, "
                f"0x{self.app_offset:x}, 0x{self.flash_size:x})"
            )


@dataclass
class PartitionEntry:
    type: int
    subtype: int
    offset: int
    size: int
    label: str
    flags: int = 0

    def encode(self) -> bytes:
        label_bytes = self.label.encode("ascii")
        if len(label_bytes) > 16:
            raise FlashError(f"partition label {self.label!r} longer than 16 bytes")
        return struct.pack(
            "<HBBII16sI",
            PARTITION_MAGIC,
            self.type,
            self.subtype,
            self.offset,
            self.size,
            label_bytes,
            self.flags,
        )


def serialize_partition_table(entries: list[PartitionEntry]) -> bytes:
    return b"".join(entry.encode() for entry in entries) + _TERMINATOR


def parse_partition_table(raw: bytes) -> list[PartitionEntry]:
    """Parse entries up to the all-0xFF terminator.

    Raises FlashError for non-32-byte-multiple input, a bad magic in a
    non-terminator entry, or a missing terminator.
    """
    if len(raw) % PARTITION_ENTRY_SIZE:
        raise FlashError("partition table length is not a multiple of 32")
    entries: list[PartitionEntry] = []
    for index in range(len(raw) // PARTITION_ENTRY_SIZE):
        record = raw[index * PARTITION_ENTRY_SIZE:(index + 1) * PARTITION_ENTRY_SIZE]
        if record == _TERMINATOR:
            return entries
        magic, ptype, subtype, offset, size, label_bytes, flags = struct.unpack(
            "<HBBII16sI", record
        )
        if magic != PARTITION_MAGIC:
            raise FlashError(f"bad partition magic 0x{magic:04x} in entry {index}")
        entries.append(
            PartitionEntry(
                type=ptype,
                subtype=subtype,
                offset=offset,
                size=size,
                label=label_bytes.rstrip(b"\x00").decode("ascii", "replace"),
                flags=flags,
            )
        )
    raise FlashError("partition table has no terminator entry")


@dataclass
class FlashImage:
    raw: bytearray
    layout: FlashLayout
    entries: list[PartitionEntry] = field(default_factory=list)


def merge(
    bootloader: bytes,
    table: list[PartitionEntry],
    app: bytes,
    layout: FlashLayout | None = None,
) -> FlashImage:
    """Assemble the merged image; gaps are 0xFF."""
    layout = layout or FlashLayout()
    layout.validate()
    if not app or app[0] != APP_MAGIC:
        raise FlashError(f"app segment does not start with magic 0x{APP_MAGIC:02x}")
    table_bytes = serialize_partition_table(table)
    segments = (
        ("bootloader", layout.bootloader_offset, bootloader, layout.table_offset),
        ("table", layout.table_offset, table_bytes, layout.app_offset),
        ("app", layout.app_offset, app, layout.flash_size),
    )
    seen: list[tuple[int, int, str]] = []
    buf = bytearray(b"\xff") * layout.flash_size  # the one copy of the image
    for name, offset, data, limit in segments:
        if not data:
            raise FlashError(f"{name} segment is empty")
        if offset + len(data) > limit:
            raise FlashError(
                f"{name} segment of {len(data)} bytes does not fit at 0x{offset:x} "
                f"(next boundary 0x{limit:x})"
            )
        for start, end, other in seen:
            if offset < end and start < offset + len(data):
                raise FlashError(f"{name} segment overlaps {other}")
        seen.append((offset, offset + len(data), name))
        buf[offset:offset + len(data)] = data
    for index, entry in enumerate(table):
        for other in table[index + 1:]:
            if entry.offset < other.offset + other.size and other.offset < entry.offset + entry.size:
                raise FlashError(f"partition {entry.label!r} overlaps {other.label!r}")
    return FlashImage(raw=buf, layout=layout, entries=list(table))


@dataclass
class SegmentReport:
    name: str
    offset: int
    size: int
    crc32: int


@dataclass
class InspectReport:
    layout: FlashLayout
    entries: list[PartitionEntry]
    segments: list[SegmentReport]

    def lines(self) -> list[str]:
        out = [
            f"flash size: {self.layout.flash_size} bytes",
            (
                f"layout: bootloader=0x{self.layout.bootloader_offset:x} "
                f"table=0x{self.layout.table_offset:x} app=0x{self.layout.app_offset:x}"
            ),
            f"table: {len(self.entries)} entries",
        ]
        for segment in self.segments:
            out.append(
                f"segment {segment.name} offset=0x{segment.offset:x} "
                f"size=0x{segment.size:x} crc32=0x{segment.crc32:08x}"
            )
        return out


def inspect(image: bytes, layout: FlashLayout | None = None) -> InspectReport:
    """Report layout regions, parsed entries and per-segment CRC32s.

    The bootloader and table segments are the fixed layout regions; each
    partition entry contributes one segment covering [offset, offset+size).
    """
    layout = layout or FlashLayout()
    entries = _read_table(image, layout)
    segments = [
        SegmentReport(
            "bootloader",
            layout.bootloader_offset,
            layout.table_offset - layout.bootloader_offset,
            zlib.crc32(image[layout.bootloader_offset:layout.table_offset]),
        ),
        SegmentReport(
            "table",
            layout.table_offset,
            (len(entries) + 1) * PARTITION_ENTRY_SIZE,
            zlib.crc32(serialize_partition_table(entries)),
        ),
    ]
    for entry in entries:
        end = min(entry.offset + entry.size, len(image))
        segments.append(
            SegmentReport(
                entry.label or f"type{entry.type}",
                entry.offset,
                max(end - entry.offset, 0),
                zlib.crc32(image[entry.offset:end]),
            )
        )
    return InspectReport(layout=layout, entries=entries, segments=segments)


def _read_table(image: bytes, layout: FlashLayout) -> list[PartitionEntry]:
    layout.validate()
    if len(image) < layout.app_offset:
        raise FlashError(f"image of {len(image)} bytes is shorter than the layout")
    table_raw = image[layout.table_offset:layout.app_offset]
    trim = len(table_raw) - len(table_raw) % PARTITION_ENTRY_SIZE
    entries = parse_partition_table(table_raw[:trim])
    if not entries:
        raise FlashError("no table found")
    return entries


def encode_app_payload(config: dict) -> bytes:
    """Guest configuration blob: 0xE9 magic, u32 length, JSON body."""
    body = json.dumps(config, sort_keys=True).encode("utf-8")
    return bytes([APP_MAGIC]) + struct.pack("<I", len(body)) + body


def decode_app_payload(raw: bytes) -> dict:
    if not raw or raw[0] != APP_MAGIC:
        raise FlashError(f"app payload does not start with magic 0x{APP_MAGIC:02x}")
    if len(raw) < 5:
        raise FlashError("app payload truncated")
    (length,) = struct.unpack_from("<I", raw, 1)
    body = raw[5:5 + length]
    if len(body) != length:
        raise FlashError("app payload truncated")
    try:
        config = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FlashError(f"app payload is not valid configuration JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise FlashError("app payload configuration must be a JSON object")
    return config


def boot_payload(image: bytes, layout: FlashLayout | None = None) -> tuple[dict, list[PartitionEntry]]:
    """Validate an image for boot and extract the guest configuration.

    Boot requires a parseable table with an app partition whose contents
    start with the app magic.  Only the table and the app's header and body
    are read: no segment CRC, as ``inspect`` computes, and no copy of the
    rest of the partition.
    """
    entries = _read_table(image, layout or FlashLayout())
    app_entries = [e for e in entries if e.type == PARTITION_TYPE_APP]
    if not app_entries:
        raise FlashError("no app partition in table")
    entry = app_entries[0]
    if entry.offset + 5 > len(image):
        raise FlashError(f"app partition at 0x{entry.offset:x} lies outside the image")
    header = image[entry.offset:entry.offset + min(entry.size, 5)]
    length = struct.unpack_from("<I", header, 1)[0] if len(header) == 5 else 0
    config = decode_app_payload(image[entry.offset:entry.offset + min(entry.size, 5 + length)])
    return config, entries
