"""Wire-format tests for the repro.backup/1 send stream."""

import io
import struct

import pytest

from repro.backup.stream import (
    _END_BYTES,
    END_MAGIC,
    FORMAT,
    REC_HEADER_BYTES,
    STREAM_MAGIC,
    StreamError,
    build_manifest,
    index_records,
    manifest_stream_id,
    read_header,
    read_record_at,
    record_bytes,
    write_header,
    write_record,
    write_trailer,
)
from repro.nova.layout import PAGE_SIZE

pytestmark = pytest.mark.backup


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


def fp_of(tag):
    return bytes([tag & 0xFF]) * 20


def small_stream(npages=3):
    """A complete stream with npages distinct records."""
    pages = {fp_of(i).hex(): page_of(i) for i in range(1, npages + 1)}
    novel = sorted(pages)
    tree = [["file", "f", npages * PAGE_SIZE,
             [[i, fp] for i, fp in enumerate(novel)]]]
    manifest = build_manifest("s1", None, tree, novel, PAGE_SIZE)
    buf = io.BytesIO()
    header_len = write_header(buf, manifest)
    for fp in novel:
        write_record(buf, bytes.fromhex(fp), pages[fp])
    write_trailer(buf, len(novel), manifest["stream_id"])
    return buf, manifest, header_len, pages


class TestHeader:
    def test_round_trip(self):
        buf, manifest, header_len, _ = small_stream()
        got, got_len = read_header(buf)
        assert got == manifest
        assert got_len == header_len
        assert got["format"] == FORMAT

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(StreamError, match="magic"):
            read_header(buf)

    def test_torn_manifest_crc(self):
        buf, _m, header_len, _ = small_stream()
        raw = bytearray(buf.getvalue())
        raw[len(STREAM_MAGIC) + 6] ^= 0xFF  # flip a manifest byte
        with pytest.raises(StreamError, match="CRC"):
            read_header(io.BytesIO(bytes(raw)))

    def test_unsupported_format(self):
        manifest = build_manifest("s", None, [], [], PAGE_SIZE)
        manifest["format"] = "repro.backup/99"
        buf = io.BytesIO()
        write_header(buf, manifest)
        with pytest.raises(StreamError, match="format"):
            read_header(buf)

    def test_stream_id_must_match_content(self):
        manifest = build_manifest("s", None, [], [], PAGE_SIZE)
        manifest["stream_id"] = "0" * 40  # forged identity
        buf = io.BytesIO()
        write_header(buf, manifest)
        with pytest.raises(StreamError, match="stream_id"):
            read_header(buf)

    def test_truncated_header(self):
        buf, _m, _hl, _ = small_stream()
        cut = io.BytesIO(buf.getvalue()[:20])
        with pytest.raises(StreamError, match="truncated"):
            read_header(cut)


class TestRecords:
    def test_index_complete(self):
        buf, manifest, header_len, pages = small_stream(4)
        idx = index_records(buf, header_len, manifest)
        assert idx.complete
        assert idx.nrecords == 4
        assert set(idx.offsets) == set(pages)
        assert idx.data_bytes == 4 * PAGE_SIZE
        for fp, data in pages.items():
            assert read_record_at(buf, fp, idx) == data

    def test_closed_form_size(self):
        buf, manifest, header_len, pages = small_stream(3)
        assert record_bytes(PAGE_SIZE) == REC_HEADER_BYTES + PAGE_SIZE
        # header + records + trailer
        assert len(buf.getvalue()) \
            == header_len + 3 * record_bytes(PAGE_SIZE) + _END_BYTES

    def test_truncated_stream_not_complete(self):
        buf, manifest, header_len, _ = small_stream(3)
        # Cut mid-way through the last record's data.
        cut = io.BytesIO(buf.getvalue()[:header_len
                                        + 2 * record_bytes(PAGE_SIZE) + 40])
        idx = index_records(cut, header_len, manifest)
        assert not idx.complete
        assert idx.nrecords == 2  # whole records only

    def test_record_crc_detects_bit_flip(self):
        buf, manifest, header_len, pages = small_stream(2)
        raw = bytearray(buf.getvalue())
        raw[header_len + REC_HEADER_BYTES + 100] ^= 0x01  # first record data
        buf2 = io.BytesIO(bytes(raw))
        idx = index_records(buf2, header_len, manifest)
        first = sorted(pages)[0]
        with pytest.raises(StreamError, match="CRC"):
            read_record_at(buf2, first, idx)

    def test_missing_fp_raises(self):
        buf, manifest, header_len, _ = small_stream(1)
        idx = index_records(buf, header_len, manifest)
        with pytest.raises(StreamError, match="no record"):
            read_record_at(buf, "ab" * 20, idx)

    def test_bad_record_magic(self):
        buf, manifest, header_len, _ = small_stream(2)
        raw = bytearray(buf.getvalue())
        struct.pack_into("<I", raw, header_len, 0xDEADBEEF)
        with pytest.raises(StreamError, match="record magic"):
            index_records(io.BytesIO(bytes(raw)), header_len, manifest)


class TestTrailer:
    def test_trailer_crc(self):
        buf, manifest, header_len, _ = small_stream(2)
        raw = bytearray(buf.getvalue())
        raw[-1] ^= 0xFF  # corrupt trailer CRC
        with pytest.raises(StreamError, match="trailer CRC"):
            index_records(io.BytesIO(bytes(raw)), header_len, manifest)

    def test_trailer_count_mismatch(self):
        buf, manifest, header_len, _ = small_stream(2)
        raw = buf.getvalue()
        # Rebuild with a lying trailer claiming 3 records.
        body = raw[:header_len + 2 * record_bytes(PAGE_SIZE)]
        forged = io.BytesIO(body)
        forged.seek(0, 2)
        write_trailer(forged, 3, manifest["stream_id"])
        with pytest.raises(StreamError, match="trailer counts"):
            index_records(forged, header_len, manifest)

    def test_end_magic_value(self):
        # The trailer's magic must be distinguishable from a record's.
        buf, manifest, header_len, _ = small_stream(1)
        raw = buf.getvalue()
        off = header_len + record_bytes(PAGE_SIZE)
        (magic,) = struct.unpack_from("<I", raw, off)
        assert magic == END_MAGIC

    def test_stream_id_binds_trailer(self):
        # Same record count, different manifest => trailer CRC differs.
        a = manifest_stream_id("s1", None, [], [])
        b = manifest_stream_id("s2", None, [], [])
        assert a != b
        ta, tb = io.BytesIO(), io.BytesIO()
        write_trailer(ta, 5, a)
        write_trailer(tb, 5, b)
        assert ta.getvalue() != tb.getvalue()
