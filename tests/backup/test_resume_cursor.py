"""Resumable transfers: the sender's sidecar cursor and the receiver's
in-image cursor, including invalidation when the source is recreated."""

import json

import pytest

from repro.backup import (
    STAGE_DIR,
    receive_backup,
    send_backup,
    send_cursor_path,
    verify_snapshot,
    verify_stream,
)
from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from tests.backup.stage import stage_cursor, stage_path_for

pytestmark = pytest.mark.backup


def make_fs(pages=4096):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


def source_with_pages(n=6):
    """Four tree entries (dir, two files, symlink), n distinct pages."""
    fs = make_fs()
    fs.mkdir("/d")
    f = fs.create("/d/f")
    fs.write(f, 0, b"".join(page_of(10 + i) for i in range(n - 1)))
    g = fs.create("/g")
    fs.write(g, 0, page_of(10 + n - 1))
    fs.symlink("/d/f", "/link")
    fs.daemon.drain()
    fs.snapshot("s1")
    return fs


class TestSendResume:
    def test_partial_send_leaves_cursor(self, tmp_path):
        src = source_with_pages()
        out = str(tmp_path / "s1.bkp")
        rep = send_backup(src, "s1", out, max_records=2)
        assert not rep["complete"] and rep["records_written"] == 2
        cur = json.loads(open(send_cursor_path(out)).read())
        assert cur["records"] == 2 and cur["stream_id"] == rep["stream_id"]
        assert not verify_stream(out)["complete"]

    def test_resume_completes_identically(self, tmp_path):
        src = source_with_pages()
        out = str(tmp_path / "s1.bkp")
        oneshot = str(tmp_path / "oneshot.bkp")
        send_backup(src, "s1", oneshot)
        send_backup(src, "s1", out, max_records=2)
        rep = send_backup(src, "s1", out)
        assert rep["complete"] and rep["resumed_at"] == 2
        assert rep["records_new"] == rep["records_total"] - 2
        assert not send_cursor_path(out) in str(list(tmp_path.iterdir()))
        assert open(out, "rb").read() == open(oneshot, "rb").read()

    def test_resume_truncates_torn_trailing_record(self, tmp_path):
        """A crash mid-record leaves junk past the cursor offset; resume
        must cut it at the closed-form boundary, not splice it."""
        src = source_with_pages()
        out = str(tmp_path / "s1.bkp")
        send_backup(src, "s1", out, max_records=2)
        with open(out, "ab") as fh:
            fh.write(b"\x99" * 123)  # torn third record
        rep = send_backup(src, "s1", out)
        assert rep["complete"] and rep["resumed_at"] == 2
        assert verify_stream(out)["ok"]

    def test_recreated_snapshot_invalidates_cursor(self, tmp_path):
        src = source_with_pages()
        out = str(tmp_path / "s1.bkp")
        send_backup(src, "s1", out, max_records=2)
        src.delete_snapshot("s1")
        ino = src.lookup("/d/f")
        src.write(ino, 0, page_of(99))
        src.daemon.drain()
        src.snapshot("s1")
        rep = send_backup(src, "s1", out)
        # Different stream_id: the stale cursor must not be honored.
        assert rep["resumed_at"] == 0 and rep["complete"]
        assert verify_stream(out)["ok"]

    def test_no_resume_flag_restarts(self, tmp_path):
        src = source_with_pages()
        out = str(tmp_path / "s1.bkp")
        send_backup(src, "s1", out, max_records=2)
        rep = send_backup(src, "s1", out, resume=False)
        assert rep["resumed_at"] == 0 and rep["complete"]
        assert verify_stream(out)["ok"]


class TestRecvResume:
    def stream_for(self, src, tmp_path, name="s1"):
        out = str(tmp_path / f"{name}.bkp")
        send_backup(src, name, out)
        return out

    def test_partial_recv_stages_with_cursor(self, tmp_path):
        src = source_with_pages()
        stream = self.stream_for(src, tmp_path)
        dst = make_fs()
        rep = receive_backup(dst, stream, max_entries=2)
        assert not rep["committed"]
        assert dst.list_snapshots() == []          # nothing published
        # Staging visible, namespaced by stream id for fan-in isolation.
        stage = stage_path_for(dst, "s1")
        assert stage == f"{STAGE_DIR}/s1@{rep['stream_id'][:12]}"
        cur = stage_cursor(dst, "s1")
        assert cur["stream_id"] == rep["stream_id"] and cur["applied"] == 2
        assert cur["active"] is False              # pause was clean

    def test_resume_skips_published_entries(self, tmp_path):
        src = source_with_pages()
        stream = self.stream_for(src, tmp_path)
        dst = make_fs()
        receive_backup(dst, stream, max_entries=2)
        rep = receive_backup(dst, stream)
        assert rep["resumed"] and rep["committed"]
        assert rep["entries_skipped"] == 2
        assert stage_cursor(dst, "s1") is None
        assert not dst.exists(STAGE_DIR)
        assert verify_snapshot(dst, stream, deep=True)["ok"]
        check_fs_invariants(dst)

    def test_resume_survives_clean_remount(self, tmp_path):
        """Clean unmount preserves staging; the cursor lives in-image."""
        src = source_with_pages()
        stream = self.stream_for(src, tmp_path)
        dst = make_fs()
        receive_backup(dst, stream, max_entries=2)
        dev = dst.dev
        dst.unmount()
        dst = DeNovaFS.mount(dev)
        assert dst.last_recovery.clean
        assert stage_path_for(dst, "s1")      # kept: unmount was clean
        rep = receive_backup(dst, stream)
        assert rep["resumed"] and rep["committed"]
        assert verify_snapshot(dst, stream, deep=True)["ok"]

    def test_stale_stream_id_tears_down_staging(self, tmp_path):
        src = source_with_pages()
        old = self.stream_for(src, tmp_path)
        dst = make_fs()
        receive_backup(dst, old, max_entries=2)

        # Source snapshot recreated with different content => new id.
        src.delete_snapshot("s1")
        ino = src.lookup("/d/f")
        src.write(ino, 0, page_of(77))
        src.daemon.drain()
        src.snapshot("s1")
        new = str(tmp_path / "new.bkp")
        send_backup(src, "s1", new)

        rep = receive_backup(dst, new)
        assert not rep["resumed"]            # stale staging was discarded
        assert rep["entries_skipped"] == 0
        assert rep["committed"]
        assert verify_snapshot(dst, new, deep=True)["ok"]
        check_fs_invariants(dst)
