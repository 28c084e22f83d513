"""Flash image: partition table codec, merge, inspect, app payload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emunet import flashimg
from emunet.flashimg import (
    FlashError,
    FlashLayout,
    PartitionEntry,
    boot_payload,
    decode_app_payload,
    encode_app_payload,
    inspect,
    merge,
    parse_partition_table,
    serialize_partition_table,
)


def factory_entry(offset=0x10000, size=0x100000):
    return PartitionEntry(type=0, subtype=0, offset=offset, size=size, label="factory")


def sample_app(extra=b""):
    return encode_app_payload({"mac": "52:54:00:12:34:56", "mode": "http"}) + extra


class TestMergeMemory:
    def test_merge_holds_one_image_sized_buffer(self):
        import tracemalloc

        tracemalloc.start()
        try:
            image = merge(b"\x7fB", [factory_entry()], sample_app())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(image.raw) == flashimg.DEFAULT_FLASH_SIZE
        assert peak < 1.25 * flashimg.DEFAULT_FLASH_SIZE


class TestPartitionTable:
    def test_single_entry_fields(self):
        raw = serialize_partition_table([factory_entry()])
        assert len(raw) == 64
        entries = parse_partition_table(raw)
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.type, entry.subtype, entry.offset, entry.size, entry.label) == (
            0, 0, 0x10000, 0x100000, "factory",
        )

    def test_terminator_only_is_empty(self):
        assert parse_partition_table(b"\xff" * 32) == []

    def test_bad_magic_names_entry_index(self):
        raw = bytearray(serialize_partition_table([factory_entry(), factory_entry(0x200000, 0x1000)]))
        raw[32] = 0x00
        with pytest.raises(FlashError, match="entry 1"):
            parse_partition_table(bytes(raw))

    def test_not_multiple_of_32(self):
        with pytest.raises(FlashError):
            parse_partition_table(b"\xff" * 31)

    def test_missing_terminator(self):
        raw = factory_entry().encode()
        with pytest.raises(FlashError, match="terminator"):
            parse_partition_table(raw)

    labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=16)

    @given(
        entries=st.lists(
            st.builds(
                PartitionEntry,
                type=st.integers(0, 1),
                subtype=st.integers(0, 255),
                offset=st.integers(0, 2**31),
                size=st.integers(0, 2**31),
                label=labels,
                flags=st.integers(0, 2**32 - 1),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300)
    def test_serialize_parse_identity(self, entries):
        raw = serialize_partition_table(entries)
        assert parse_partition_table(raw) == entries
        assert serialize_partition_table(parse_partition_table(raw)) == raw


class TestMerge:
    def test_segment_placement(self):
        bootloader = bytes(range(256)) * 64  # 16 KiB
        app = sample_app(b"\xab" * 65536)
        image = merge(bootloader, [factory_entry()], app)
        layout = image.layout
        raw = image.raw
        assert raw[layout.bootloader_offset:layout.bootloader_offset + len(bootloader)] == bootloader
        assert raw[layout.app_offset:layout.app_offset + len(app)] == app
        assert raw[0:layout.bootloader_offset] == b"\xff" * layout.bootloader_offset
        assert len(raw) == layout.flash_size

    def test_missing_app_magic(self):
        with pytest.raises(FlashError, match="app"):
            merge(b"\x00" * 16, [factory_entry()], b"\x00launch")

    def test_oversize_bootloader(self):
        layout = FlashLayout()
        too_big = b"\x90" * (layout.table_offset - layout.bootloader_offset + 1)
        with pytest.raises(FlashError, match="bootloader"):
            merge(too_big, [factory_entry()], sample_app())

    def test_overlapping_partitions(self):
        table = [factory_entry(0x10000, 0x20000), factory_entry(0x20000, 0x20000)]
        with pytest.raises(FlashError, match="overlaps"):
            merge(b"\x01", table, sample_app())

    def test_roundtrip_through_inspect(self):
        table = [
            PartitionEntry(type=1, subtype=2, offset=0x9000, size=0x6000, label="nvs"),
            factory_entry(),
        ]
        image = merge(b"\x7fBOOT" * 100, table, sample_app(b"\x00" * 1000))
        report = inspect(image.raw)
        assert report.entries == table
        assert report.layout == image.layout


class TestInspect:
    def test_merged_image_lists_three_segments(self):
        image = merge(b"\x7fBOOT", [factory_entry()], sample_app())
        report = inspect(image.raw)
        assert len(report.segments) == 3
        names = [s.name for s in report.segments]
        assert names == ["bootloader", "table", "factory"]
        assert sum(1 for line in report.lines() if line.startswith("segment ")) == 3

    def test_all_erased_image_has_no_table(self):
        with pytest.raises(FlashError, match="no table found"):
            inspect(b"\xff" * FlashLayout().flash_size)

    def test_single_byte_difference_changes_app_crc(self):
        image = merge(b"\x7fBOOT", [factory_entry()], sample_app(b"\x00" * 128))
        mutated = bytearray(image.raw)
        mutated[0x10000 + 40] ^= 0x01
        crc_a = [s.crc32 for s in inspect(image.raw).segments if s.name == "factory"]
        crc_b = [s.crc32 for s in inspect(bytes(mutated)).segments if s.name == "factory"]
        assert crc_a != crc_b

    def test_garbage_table_is_error(self):
        image = bytearray(merge(b"\x7fBOOT", [factory_entry()], sample_app()).raw)
        image[FlashLayout().table_offset] = 0x13  # clobber the magic
        with pytest.raises(FlashError):
            inspect(bytes(image))


class TestAppPayload:
    def test_roundtrip(self):
        config = {"mac": "52:54:00:00:00:01", "http_port": 80, "mode": "echo"}
        assert decode_app_payload(encode_app_payload(config)) == config

    def test_magic_enforced(self):
        with pytest.raises(FlashError):
            decode_app_payload(b"\x00\x00\x00\x00\x00{}")

    def test_truncated(self):
        raw = encode_app_payload({"a": 1})
        with pytest.raises(FlashError):
            decode_app_payload(raw[:-2])

    def test_boot_payload_happy_path(self):
        config = {"mac": "52:54:00:aa:bb:cc", "mode": "http", "http_port": 80}
        image = merge(b"\x7fB", [factory_entry()], encode_app_payload(config))
        extracted, entries = boot_payload(image.raw)
        assert extracted == config
        assert entries == [factory_entry()]

    def test_boot_payload_computes_no_segment_crc(self, monkeypatch):
        config = {"mac": "52:54:00:aa:bb:cc", "mode": "echo"}
        image = merge(b"\x7fB", [factory_entry()], encode_app_payload(config))

        def no_crc(*_args):
            raise AssertionError("boot computed a CRC")

        monkeypatch.setattr(flashimg.zlib, "crc32", no_crc)
        assert boot_payload(image.raw)[0] == config

    def test_boot_payload_body_must_fit_the_app_partition(self):
        app = sample_app()
        image = merge(b"\x7fB", [factory_entry(size=len(app) - 1)], app)
        with pytest.raises(FlashError, match="truncated"):
            boot_payload(image.raw)
        image = merge(b"\x7fB", [factory_entry(size=len(app))], app)
        assert boot_payload(image.raw)[0]["mode"] == "http"

    def test_boot_requires_app_partition(self):
        table = [PartitionEntry(type=1, subtype=0, offset=0x10000, size=0x1000, label="data")]
        image = merge(b"\x7fB", table, sample_app())
        # merge still places the app bytes, but boot consults the table
        with pytest.raises(FlashError, match="no app partition"):
            boot_payload(image.raw)
