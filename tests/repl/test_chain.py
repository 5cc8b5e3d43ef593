"""Chain metadata: parent links, depth, layout, and the listing contract."""

import pytest

from repro.nova.fs import FSError
from repro.repl import (REPL_DIR, chain_info, chain_table, latest_snapshot,
                        relocate_latest, restore_latest)

from tests.repl.util import build_chain_pair, make_fs, page_of

pytestmark = pytest.mark.repl


class TestChainMetadata:
    def test_recv_records_parent_and_depth(self):
        _src, dst, _b, names = build_chain_pair(3)
        rows = chain_table(dst)
        assert [r["snapshot"] for r in rows] == names  # sorted contract
        assert [r["parent"] for r in rows] == [None, "s1", "s2"]
        assert [r["depth"] for r in rows] == [1, 2, 3]
        assert all(r["layout"] == "forward" for r in rows)
        assert latest_snapshot(dst) == "s3"

    def test_local_snapshot_records_no_chain_file(self):
        """Local snapshots stay out of /.repl: workloads that never
        replicate keep a byte-identical root namespace."""
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, page_of(1))
        fs.daemon.drain()
        fs.snapshot("local")
        assert not fs.exists(REPL_DIR)
        assert chain_info(fs, "local") is None
        rows = chain_table(fs)
        assert rows == [{"snapshot": "local", "parent": None,
                         "depth": 1, "layout": "forward"}]

    def test_delete_snapshot_forgets_chain(self):
        _src, dst, _b, _names = build_chain_pair(2)
        assert chain_info(dst, "s2") is not None
        dst.delete_snapshot("s2")
        assert chain_info(dst, "s2") is None
        assert [r["snapshot"] for r in chain_table(dst)] == ["s1"]
        # Dropping the last chain file removes the namespace entirely.
        dst.delete_snapshot("s1")
        assert not dst.exists(REPL_DIR)

    def test_pruned_ancestor_terminates_depth_walk(self):
        _src, dst, _b, _names = build_chain_pair(3)
        dst.delete_snapshot("s1")
        rows = {r["snapshot"]: r for r in chain_table(dst)}
        # s2 still names its pruned parent (one recorded hop, then the
        # walk terminates at the unknown ancestor); s3 hangs off s2.
        assert rows["s2"]["parent"] == "s1" and rows["s2"]["depth"] == 2
        assert rows["s3"]["depth"] == 3

    def test_mixed_chain_survives_remount(self):
        from repro.dedup import DeNovaFS
        _src, dst, _b, _names = build_chain_pair(2)
        relocate_latest(dst)
        dev = dst.dev
        dst.unmount()
        rec = DeNovaFS.mount(dev)
        rows = {r["snapshot"]: r for r in chain_table(rec)}
        assert rows["s2"]["layout"] == "reverse"
        assert rows["s1"]["layout"] == "forward"

    def test_unmounted_image_refuses_chain_queries(self):
        """An unmounted image once read as one with no snapshots."""
        _src, dst, _b, _names = build_chain_pair(1)
        dst.unmount()
        for query in (dst.list_snapshots, lambda: chain_table(dst),
                      lambda: relocate_latest(dst),
                      lambda: restore_latest(dst)):
            with pytest.raises(FSError, match="not mounted"):
                query()
