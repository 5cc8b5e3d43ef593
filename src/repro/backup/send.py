"""``backup send``: serialize a snapshot diff into a stream file.

The sender is host-side plumbing: it reads canonical pages from the
source device and writes an ordinary file, one fixed-size record per
*novel* fingerprint (see :mod:`repro.backup.stream`).  Data is streamed
page by page — no whole-snapshot buffer ever exists in memory.

Resume protocol
---------------
An interrupted send leaves a complete header, some whole records (every
record write is followed by a cursor update, so at most the last record
is torn), and no trailer.  Progress persists in a JSON *sidecar cursor*
``<out>.cursor`` = ``{"stream_id", "header_len", "records"}``.  On
resume the manifest is rebuilt from the source; if its ``stream_id``
still matches the cursor, writing continues at the closed-form offset
``header_len + records * record_bytes`` (records are fixed-size), else
the transfer restarts from scratch — a changed or re-created source
snapshot can never splice into a stale stream.  The cursor is deleted
when the trailer lands, so a complete stream never carries one.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.backup.diff import BackupError, diff_snapshots
from repro.backup.stream import (
    build_manifest,
    record_bytes,
    write_header,
    write_record,
    write_trailer,
)
from repro.dedup.denova import DeNovaFS
from repro.nova.layout import PAGE_SIZE

__all__ = ["send_backup", "send_cursor_path"]


def send_cursor_path(out: str) -> str:
    return out + ".cursor"


def _load_cursor(out: str) -> Optional[dict]:
    try:
        with open(send_cursor_path(out)) as fh:
            cur = json.load(fh)
    except (OSError, ValueError):
        return None
    if not {"stream_id", "header_len", "records"} <= set(cur):
        return None
    return cur


def send_backup(fs, snapshot: str, out, base: Optional[str] = None,
                resume: bool = True,
                max_records: Optional[int] = None) -> dict:
    """Write the send stream for ``snapshot`` (diffed against ``base``).

    ``out`` is a path (resumable via the sidecar cursor) or a writable
    binary file object (one-shot).  ``max_records`` caps how many *new*
    records this call writes — the stream is left resumable, which is
    also how tests simulate an interrupted transfer.  Returns a report;
    ``report["complete"]`` says whether the trailer was written.
    """
    diff = diff_snapshots(fs, snapshot, base=base)
    manifest = build_manifest(snapshot, base, diff.tree, diff.novel,
                              PAGE_SIZE)
    sid = manifest["stream_id"]
    c_records = fs.obs.registry.counter("backup.send_records_total")
    c_bytes = fs.obs.registry.counter("backup.send_bytes_total")

    to_path = isinstance(out, str)
    skip = 0
    if to_path:
        cur = _load_cursor(out) if resume else None
        if cur is not None and cur["stream_id"] == sid \
                and os.path.exists(out):
            skip = min(int(cur["records"]), len(diff.novel))
            fh = open(out, "r+b")
            fh.truncate(cur["header_len"]
                        + skip * record_bytes(PAGE_SIZE))
            fh.seek(0, os.SEEK_END)
            header_len = cur["header_len"]
        else:
            fh = open(out, "wb")
            header_len = write_header(fh, manifest)
    else:
        fh = out
        header_len = write_header(fh, manifest)

    written = 0
    bytes_written = 0
    complete = False
    try:
        with fs.obs.tracer.use_track("backup"), \
             fs.obs.span("backup.send", snapshot=snapshot,
                         records=len(diff.novel), resumed_at=skip):
            for i, fp_hex in enumerate(diff.novel):
                if i < skip:
                    continue
                if max_records is not None and written >= max_records:
                    break
                data = fs.dev.read(diff.blocks[fp_hex] * PAGE_SIZE,
                                   PAGE_SIZE)
                n = write_record(fh, bytes.fromhex(fp_hex), data)
                written += 1
                bytes_written += n
                c_records.inc()
                c_bytes.inc(n)
                if to_path:
                    fh.flush()
                    with open(send_cursor_path(out), "w") as cfh:
                        json.dump({"stream_id": sid,
                                   "header_len": header_len,
                                   "records": skip + written}, cfh)
            if skip + written == len(diff.novel):
                bytes_written += write_trailer(fh, len(diff.novel), sid)
                complete = True
    finally:
        if to_path:
            fh.close()
    if complete and to_path:
        try:
            os.remove(send_cursor_path(out))
        except OSError:
            pass
    return {
        "snapshot": snapshot,
        "base": base,
        "stream_id": sid,
        "records_total": len(diff.novel),
        "records_written": skip + written,
        "records_new": written,
        "resumed_at": skip,
        "total_pages": diff.total_pages,
        "unique_pages": diff.unique_pages,
        "base_shared_pages": diff.base_shared_pages,
        "bytes_written": bytes_written,
        "complete": complete,
    }


DeNovaFS.layer_counters += ("backup.send_records_total",
                            "backup.send_bytes_total")
