"""Round-trip property: send from A + recv into fresh B => identical
tree and fingerprint set; incremental sends ship only novel blocks."""

import io

import pytest

from repro.backup import (
    diff_snapshots,
    receive_backup,
    send_backup,
    snapshot_fingerprints,
    verify_snapshot,
    verify_stream,
)
from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.fs import FileExists
from repro.pm import DRAM, PMDevice, SimClock

pytestmark = pytest.mark.backup


def make_fs(pages=4096):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


def tree_of(fs, top="/"):
    """{path: descriptor} over the whole tree, snapshot dirs included."""
    out = {}
    for path, ino, cache in fs.walk(top):
        if cache.inode.itype == 2:
            out[path] = ("dir",)
        elif cache.inode.itype == 3:
            out[path] = ("symlink", cache.symlink_target)
        else:
            size = cache.inode.size
            out[path] = ("file", size, fs.read(ino, 0, size))
    return out


def populate_source(fs):
    """Dirs, symlink, dup pages, sparse file — every tree-entry kind."""
    fs.mkdir("/docs")
    a = fs.create("/docs/a")
    fs.write(a, 0, page_of(1) + page_of(2) + page_of(1))  # intra-file dup
    b = fs.create("/b")
    fs.write(b, 0, page_of(2) + page_of(3))               # cross-file dup
    fs.symlink("/docs/a", "/link")
    sparse = fs.create("/sparse")
    fs.truncate(sparse, 3 * PAGE_SIZE)                     # no pages at all
    fs.daemon.drain()


def send_to_memory(fs, name, base=None):
    buf = io.BytesIO()
    report = send_backup(fs, name, buf, base=base)
    buf.seek(0)
    return buf, report


class TestRoundTrip:
    def test_full_backup_round_trips(self):
        src = make_fs()
        populate_source(src)
        src.snapshot("s1")
        stream, sent = send_to_memory(src, "s1")
        assert sent["complete"]
        # 3 distinct fingerprints; dup references never get records.
        assert sent["records_total"] == 3
        assert sent["total_pages"] == 5 and sent["unique_pages"] == 3

        dst = make_fs()
        got = receive_backup(dst, stream)
        assert got["committed"]
        assert got["pages_novel"] == 3 and got["pages_dup"] == 2
        assert dst.list_snapshots() == ["s1"]

        # Byte-identical subtree, relocated under /.snapshots/s1.
        want = tree_of(src, "/.snapshots/s1")
        have = tree_of(dst, "/.snapshots/s1")
        rebase = {p.replace("/.snapshots/s1", "", 1): d
                  for p, d in want.items()}
        assert {p.replace("/.snapshots/s1", "", 1): d
                for p, d in have.items()} == rebase
        # Fingerprint sets match exactly.
        assert snapshot_fingerprints(dst, "s1") \
            == snapshot_fingerprints(src, "s1")
        check_fs_invariants(dst)

    def test_verify_stream_and_snapshot(self):
        src = make_fs()
        populate_source(src)
        src.snapshot("s1")
        stream, _ = send_to_memory(src, "s1")
        v = verify_stream(stream)
        assert v["ok"] and v["complete"] and v["records"] == 3

        dst = make_fs()
        receive_backup(dst, stream)
        assert verify_snapshot(dst, stream)["ok"]
        assert verify_snapshot(dst, stream, deep=True)["ok"]

    def test_recv_dedups_against_target_fact(self):
        src = make_fs()
        f = src.create("/f")
        src.write(f, 0, page_of(1) + page_of(2) + page_of(3))
        src.daemon.drain()
        src.snapshot("s1")
        stream, _ = send_to_memory(src, "s1")

        dst = make_fs()
        g = dst.create("/g")
        dst.write(g, 0, page_of(1) + page_of(2))  # target already holds 2
        dst.daemon.drain()
        before = dst.statfs()["used_pages"]
        got = receive_backup(dst, stream)
        assert got["pages_dup"] == 2 and got["pages_novel"] == 1
        # Only the one novel page costs data space (plus metadata and
        # the /.repl chain-metadata sidecar recorded at commit).
        assert dst.statfs()["used_pages"] <= before + 1 + 7
        ino = dst.lookup("/.snapshots/s1/f")
        assert dst.read(ino, 0, 3 * PAGE_SIZE) \
            == page_of(1) + page_of(2) + page_of(3)
        check_fs_invariants(dst)

    def test_recv_into_existing_snapshot_refused(self):
        src = make_fs()
        populate_source(src)
        src.snapshot("s1")
        stream, _ = send_to_memory(src, "s1")
        dst = make_fs()
        receive_backup(dst, stream)
        stream.seek(0)
        with pytest.raises(FileExists):
            receive_backup(dst, stream)


class TestIncremental:
    def test_incremental_ships_only_novel_fraction(self):
        """k% shared with the base => only (100-k)% gets data records."""
        src = make_fs()
        f = src.create("/f")
        src.write(f, 0, b"".join(page_of(10 + i) for i in range(20)))
        src.daemon.drain()
        src.snapshot("s1")
        # Change 25% of the pages (5 of 20) to fresh content.
        for i in range(5):
            src.write(f, i * PAGE_SIZE, page_of(100 + i))
        src.daemon.drain()
        src.snapshot("s2")

        diff = diff_snapshots(src, "s2", base="s1")
        assert len(diff.novel) == 5
        assert diff.base_shared_pages == 15

        stream, sent = send_to_memory(src, "s2", base="s1")
        assert sent["records_total"] == 5
        full, full_sent = send_to_memory(src, "s2")
        assert full_sent["records_total"] == 20
        # Stream size scales with the novel fraction.
        assert len(stream.getvalue()) < 0.4 * len(full.getvalue())

    def test_incremental_recv_after_base(self):
        src = make_fs()
        f = src.create("/f")
        src.write(f, 0, page_of(1) + page_of(2))
        src.daemon.drain()
        src.snapshot("s1")
        src.write(f, 2 * PAGE_SIZE, page_of(3))
        src.daemon.drain()
        src.snapshot("s2")

        s1_stream, _ = send_to_memory(src, "s1")
        s2_stream, sent2 = send_to_memory(src, "s2", base="s1")
        assert sent2["records_total"] == 1  # only page 3 is novel

        dst = make_fs()
        receive_backup(dst, s1_stream)
        got = receive_backup(dst, s2_stream)
        # The incremental's shared pages dedup against the base copy.
        assert got["pages_dup"] == 2 and got["pages_novel"] == 1
        assert dst.list_snapshots() == ["s1", "s2"]
        assert verify_snapshot(dst, s2_stream, deep=True)["ok"]


class TestDeletedBackupSource:
    def test_delete_source_snapshot_leaks_no_fact_entries(self):
        """Deleting the snapshot a send came from drops every RFC it
        pinned; once the live files go too, the table drains to empty."""
        src = make_fs()
        populate_source(src)
        src.snapshot("s1")
        _stream, _ = send_to_memory(src, "s1")

        src.delete_snapshot("s1")
        src.daemon.drain()
        st = src.space_stats()
        # Only the live tree's references remain (5 mappings, 3 blocks).
        assert st["logical_pages"] == 5
        assert st["rfc_sum"] + st["unfingerprinted_refs"] == 5

        for path in ("/docs/a", "/b", "/sparse"):
            src.unlink(path)
        src.unlink("/link")
        src.daemon.drain()
        src.fact.remove_dead()
        assert src.fact.live_entries() == {}
        check_fs_invariants(src)

    def test_recreated_source_changes_stream_id(self):
        """Delete + recreate under the same name => a different stream
        identity, so stale cursors can never splice streams."""
        src = make_fs()
        f = src.create("/f")
        src.write(f, 0, page_of(1))
        src.daemon.drain()
        src.snapshot("s1")
        _, first = send_to_memory(src, "s1")

        src.delete_snapshot("s1")
        src.write(f, 0, page_of(2))
        src.daemon.drain()
        src.snapshot("s1")
        _, second = send_to_memory(src, "s1")
        assert first["stream_id"] != second["stream_id"]
