"""The send-stream wire format (``repro.backup/1``).

A backup stream is an ordinary byte file (it can just as well be stored
*inside* another device image with ``repro put``) with three sections::

    header   magic "DNVBKUP1" | u32 manifest_len | manifest JSON | u32 crc
    records  per novel fingerprint, in sorted-fingerprint order:
             u32 REC_MAGIC | 20 B fp | u32 size | u32 crc32(data) | data
    trailer  u32 END_MAGIC | u64 nrecords | u32 crc

The **manifest** is a JSON document carrying the full snapshot tree
(directories, symlinks, and every file's ``(page offset, fingerprint)``
list) plus the sorted list of *novel* fingerprints whose data records
follow.  Fingerprints of pages the receiver is expected to already hold
(they appear in the ``base`` snapshot) have no record — that is the
whole point of incremental send.

Every section is CRC-protected independently, so ``backup verify`` can
pinpoint a torn header, a corrupt record, or a truncated stream (a
missing trailer marks an interrupted send, which ``backup send`` can
resume from its sidecar cursor: records have a fixed on-stream size, so
the resume offset is a closed-form function of the record count).

The ``stream_id`` inside the manifest is the SHA-1 of the canonical
``(snapshot, base, tree, novel)`` encoding.  Both resume cursors (the
sender's sidecar and the receiver's in-image cursor file) embed it, so
a cursor can never be replayed against a different or regenerated
stream — deleting and re-creating the source snapshot invalidates every
outstanding cursor.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Optional

__all__ = ["FORMAT", "STREAM_MAGIC", "REC_MAGIC", "END_MAGIC",
           "REC_HEADER_BYTES", "StreamError", "StreamIndex",
           "build_manifest", "manifest_stream_id", "record_bytes",
           "write_header", "read_header", "write_record",
           "write_trailer", "index_records", "read_record_at"]

FORMAT = "repro.backup/1"
STREAM_MAGIC = b"DNVBKUP1"
REC_MAGIC = 0x4B435231   # "1RCK"
END_MAGIC = 0x4B444E45   # "ENDK"

_REC_FMT = "<I20sII"     # magic, fp, size, crc32(data)
REC_HEADER_BYTES = struct.calcsize(_REC_FMT)
_END_FMT = "<IQI"        # magic, nrecords, crc32
_END_BYTES = struct.calcsize(_END_FMT)


class StreamError(ValueError):
    """The stream violates the wire format (torn, truncated, corrupt)."""


# ------------------------------------------------------------------ manifest


def manifest_stream_id(snapshot: str, base: Optional[str], tree: list,
                       novel: list[str]) -> str:
    """Deterministic identity of a stream's logical content."""
    canon = json.dumps([snapshot, base, tree, novel],
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()


def build_manifest(snapshot: str, base: Optional[str], tree: list,
                   novel: list[str], page_size: int) -> dict:
    return {
        "format": FORMAT,
        "snapshot": snapshot,
        "base": base,
        "stream_id": manifest_stream_id(snapshot, base, tree, novel),
        "page_size": page_size,
        "tree": tree,
        "novel": novel,
    }


# ------------------------------------------------------------------ writing


def write_header(fh: BinaryIO, manifest: dict) -> int:
    """Serialize the header; returns the header length in bytes."""
    body = json.dumps(manifest, sort_keys=True,
                      separators=(",", ":")).encode()
    fh.write(STREAM_MAGIC)
    fh.write(struct.pack("<I", len(body)))
    fh.write(body)
    fh.write(struct.pack("<I", zlib.crc32(body)))
    return len(STREAM_MAGIC) + 4 + len(body) + 4


def record_bytes(page_size: int) -> int:
    """On-stream size of one chunk record (fixed: pages only)."""
    return REC_HEADER_BYTES + page_size


def write_record(fh: BinaryIO, fp: bytes, data: bytes) -> int:
    fh.write(struct.pack(_REC_FMT, REC_MAGIC, fp, len(data),
                         zlib.crc32(data)))
    fh.write(data)
    return REC_HEADER_BYTES + len(data)


def write_trailer(fh: BinaryIO, nrecords: int, stream_id: str) -> int:
    crc = zlib.crc32(struct.pack("<Q", nrecords) + stream_id.encode())
    fh.write(struct.pack(_END_FMT, END_MAGIC, nrecords, crc))
    return _END_BYTES


# ------------------------------------------------------------------ reading


def read_header(fh: BinaryIO) -> tuple[dict, int]:
    """Parse and CRC-check the header; returns ``(manifest, header_len)``."""
    fh.seek(0)
    magic = fh.read(len(STREAM_MAGIC))
    if magic != STREAM_MAGIC:
        raise StreamError(f"bad stream magic {magic!r}")
    raw_len = fh.read(4)
    if len(raw_len) != 4:
        raise StreamError("truncated header length")
    (blen,) = struct.unpack("<I", raw_len)
    body = fh.read(blen)
    raw_crc = fh.read(4)
    if len(body) != blen or len(raw_crc) != 4:
        raise StreamError("truncated manifest")
    (crc,) = struct.unpack("<I", raw_crc)
    if zlib.crc32(body) != crc:
        raise StreamError("manifest CRC mismatch (torn header)")
    try:
        manifest = json.loads(body)
    except ValueError as exc:
        raise StreamError(f"manifest is not valid JSON: {exc}") from None
    if manifest.get("format") != FORMAT:
        raise StreamError(f"unsupported stream format "
                          f"{manifest.get('format')!r} (want {FORMAT})")
    want_id = manifest_stream_id(manifest["snapshot"], manifest["base"],
                                 manifest["tree"], manifest["novel"])
    if manifest.get("stream_id") != want_id:
        raise StreamError("stream_id does not match manifest content")
    return manifest, len(STREAM_MAGIC) + 4 + blen + 4


@dataclass
class StreamIndex:
    """Record directory of a parsed stream (no data held in memory)."""

    offsets: dict[str, tuple[int, int]]   # fp hex -> (data offset, size)
    nrecords: int
    complete: bool                        # a valid trailer was found
    data_bytes: int


def index_records(fh: BinaryIO, header_len: int,
                  manifest: dict) -> StreamIndex:
    """Walk the record section without buffering any chunk data.

    Reads only the fixed-size record headers, seeking past each data
    payload — the chunked-streaming discipline: memory use is O(records
    indexed), independent of stream size.
    """
    offsets: dict[str, tuple[int, int]] = {}
    data_bytes = 0
    fh.seek(0, 2)
    stream_len = fh.tell()  # seek() past EOF succeeds; bound explicitly
    fh.seek(header_len)
    complete = False
    while True:
        pos = fh.tell()
        head = fh.read(4)
        if len(head) < 4:
            break  # truncated: no trailer
        (magic,) = struct.unpack("<I", head)
        if magic == END_MAGIC:
            rest = fh.read(_END_BYTES - 4)
            if len(rest) != _END_BYTES - 4:
                raise StreamError("truncated trailer")
            nrec, crc = struct.unpack("<QI", rest)
            want = zlib.crc32(struct.pack("<Q", nrec)
                              + manifest["stream_id"].encode())
            if crc != want:
                raise StreamError("trailer CRC mismatch")
            if nrec != len(offsets):
                raise StreamError(f"trailer counts {nrec} records, stream "
                                  f"holds {len(offsets)}")
            complete = True
            break
        if magic != REC_MAGIC:
            raise StreamError(f"bad record magic {magic:#x} at {pos}")
        rest = fh.read(REC_HEADER_BYTES - 4)
        if len(rest) != REC_HEADER_BYTES - 4:
            break  # torn mid-record-header: treat as truncated
        fp, size, _crc = struct.unpack("<20sII", rest)
        data_off = fh.tell()
        if data_off + size > stream_len:
            break  # torn mid-data
        fh.seek(size, 1)
        offsets[fp.hex()] = (data_off, size)
        data_bytes += size
    return StreamIndex(offsets=offsets, nrecords=len(offsets),
                       complete=complete, data_bytes=data_bytes)


def read_record_at(fh: BinaryIO, fp_hex: str,
                   index: StreamIndex) -> bytes:
    """Fetch and CRC-check one record's data by fingerprint."""
    if fp_hex not in index.offsets:
        raise StreamError(f"stream has no record for fingerprint {fp_hex}")
    off, size = index.offsets[fp_hex]
    fh.seek(off - REC_HEADER_BYTES)
    head = fh.read(REC_HEADER_BYTES)
    magic, fp, rsize, crc = struct.unpack(_REC_FMT, head)
    data = fh.read(size)
    if len(data) != size or rsize != size:
        raise StreamError(f"record {fp_hex}: truncated data")
    if zlib.crc32(data) != crc:
        raise StreamError(f"record {fp_hex}: data CRC mismatch")
    if fp.hex() != fp_hex:
        raise StreamError(f"record at {off}: fingerprint mismatch")
    return data

