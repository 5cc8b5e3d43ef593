"""Fan-out/fan-in topology: the degenerate single-stream case must be
byte-identical to a direct ``send | recv``, N replicas must converge,
and consolidation must keep per-stream failure domains apart."""

import io

import pytest

from repro.backup import BackupError, receive_backup, send_backup, verify_snapshot
from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.repl import ReplicationTopology, chain_table

from tests.repl.util import grow_chain, make_fs, page_of

pytestmark = pytest.mark.repl


def one_snapshot_source(tag0=1, name="s1"):
    src = make_fs()
    grow_chain(src, 1, pages_per_snap=4)
    if name != "s1":
        # grow_chain names snapshots s<i>; re-publish under the wanted
        # name by snapshotting again (content identical).
        src.delete_snapshot("s1")
        src.snapshot(name)
    return src


class TestFanOut:
    def test_fan_out_of_one_matches_direct_send_recv(self, tmp_path):
        """Pinned acceptance: a 1-stream topology run leaves the replica
        device byte-for-byte identical to a direct transfer."""
        src = one_snapshot_source()

        direct = make_fs()
        buf = io.BytesIO()
        send_backup(src, "s1", buf)
        receive_backup(direct, io.BytesIO(buf.getvalue()))

        src2 = one_snapshot_source()  # fresh, identical source
        via_topo = make_fs()
        topo = ReplicationTopology(spool_dir=str(tmp_path / "spool"))
        rep = topo.fan_out(src2, "s1", [via_topo])
        assert rep["committed"] == 1 and not rep["errors"]

        a = direct.dev.read_silent(0, direct.dev.size)
        b = via_topo.dev.read_silent(0, via_topo.dev.size)
        assert a == b

    def test_fan_out_three_replicas_converge(self, tmp_path):
        src = one_snapshot_source()
        replicas = [make_fs() for _ in range(3)]
        topo = ReplicationTopology(spool_dir=str(tmp_path / "spool"))
        rep = topo.fan_out(src, "s1", replicas)
        assert rep["committed"] == 3 and rep["converged"]
        assert len({s["dst_digest"] for s in rep["streams"]}) == 1
        buf = io.BytesIO()
        send_backup(src, "s1", buf)
        for replica in replicas:
            buf.seek(0)
            assert verify_snapshot(replica, buf, deep=True)["ok"]

    def test_batched_fan_out_pumps_in_rounds(self, tmp_path):
        src = one_snapshot_source()
        replicas = [make_fs() for _ in range(2)]
        topo = ReplicationTopology(spool_dir=str(tmp_path / "spool"),
                                   batch=2)
        rep = topo.fan_out(src, "s1", replicas)
        assert rep["committed"] == 2 and rep["converged"]
        # Several send slices + several recv slices per stream.
        assert all(s["rounds"] > 2 for s in rep["streams"])

    def test_incremental_fan_out_records_chain(self, tmp_path):
        src = make_fs()
        grow_chain(src, 1)
        grow_chain(src, 2)
        dst = make_fs()
        ReplicationTopology(str(tmp_path / "a")).fan_out(src, "s1", [dst])
        ReplicationTopology(str(tmp_path / "b")).fan_out(
            src, "s2", [dst], base="s1")
        rows = {r["snapshot"]: r for r in chain_table(dst)}
        assert rows["s2"]["parent"] == "s1" and rows["s2"]["depth"] == 2


class TestNearlyFullReplica:
    """``run`` catches a full replica's error on purpose and the CLI then
    unmounts every image cleanly — so whatever a stream that ran out of
    space leaves behind is *saved*.  It must be a consistent image."""

    @pytest.mark.parametrize("free_pages", range(6, 16))
    def test_full_replica_stays_consistent_and_recovers(self, tmp_path,
                                                        free_pages):
        """A replica that holds generation 1 fills up before generation
        2 (six new pages, six shared with s1) arrives."""
        src = make_fs()
        grow_chain(src, 1, pages_per_snap=6)
        grow_chain(src, 2, pages_per_snap=6)
        replica = make_fs(pages=256, max_inodes=64)
        first = ReplicationTopology(spool_dir=str(tmp_path / "g1"))
        assert first.fan_out(src, "s1", [replica])["committed"] == 1
        ballast = replica.create("/ballast")
        tag = 1000
        while replica.allocator.free_pages > free_pages:
            replica.write(ballast, replica.stat(ballast).size, page_of(tag))
            tag += 1
        replica.daemon.drain()

        topo = ReplicationTopology(spool_dir=str(tmp_path / "g2"))
        rep = topo.fan_out(src, "s2", [replica], base="s1")
        # Six pages + the file's log page + stage/cursor metadata: the
        # tightest replicas must refuse, the roomiest may commit.
        assert rep["committed"] + len(rep["errors"]) == 1
        if free_pages <= 8:
            assert "pages free" in rep["streams"][0]["error"]

        replica.unmount()                 # what ``cmd_repl`` does next
        replica = DeNovaFS.mount(replica.dev)
        check_fs_invariants(replica)

        replica.unlink("/ballast")        # the operator frees space
        if not rep["committed"]:
            again = ReplicationTopology(spool_dir=str(tmp_path / "again"))
            rep = again.fan_out(src, "s2", [replica], base="s1")
            assert rep["committed"] == 1, rep["errors"]
        buf = io.BytesIO()
        send_backup(src, "s2", buf)
        buf.seek(0)
        assert verify_snapshot(replica, buf, deep=True)["ok"]
        check_fs_invariants(replica)


class TestFanIn:
    def test_fan_in_consolidates_two_sources(self, tmp_path):
        src_a = one_snapshot_source(name="a")
        src_b = one_snapshot_source(name="b")
        dst = make_fs()
        topo = ReplicationTopology(spool_dir=str(tmp_path / "spool"),
                                   batch=1)
        rep = topo.fan_in([(src_a, "a"), (src_b, "b")], dst)
        assert rep["committed"] == 2 and not rep["errors"]
        assert sorted(dst.list_snapshots()) == ["a", "b"]
        for src, name in ((src_a, "a"), (src_b, "b")):
            buf = io.BytesIO()
            send_backup(src, name, buf)
            buf.seek(0)
            assert verify_snapshot(dst, buf, deep=True)["ok"]

    def test_fan_in_rejects_duplicate_names(self, tmp_path):
        src_a = one_snapshot_source()
        src_b = one_snapshot_source()
        dst = make_fs()
        topo = ReplicationTopology(spool_dir=str(tmp_path / "spool"))
        with pytest.raises(BackupError):
            topo.fan_in([(src_a, "s1"), (src_b, "s1")], dst)

    @staticmethod
    def multi_entry_source(name, tag0):
        """Four tree entries / three records — enough that batch=2
        needs several send and several recv slices per stream."""
        from tests.repl.util import page_of
        src = make_fs()
        src.mkdir("/d")
        for j in range(3):
            ino = src.create(f"/d/f{j}")
            src.write(ino, 0, page_of(tag0 + j))
        src.daemon.drain()
        src.snapshot(name)
        return src

    def test_interrupted_stream_resumes_midway(self, tmp_path):
        """Kill the pump between rounds; a fresh topology finishes from
        the native cursors without restarting either stream."""
        src_a = self.multi_entry_source("a", 100)
        src_b = self.multi_entry_source("b", 200)
        dst = make_fs()
        spool = str(tmp_path / "spool")
        topo = ReplicationTopology(spool_dir=spool, batch=2)
        topo.fan_in([(src_a, "a"), (src_b, "b")], dst)
        assert sorted(dst.list_snapshots()) == ["a", "b"]

        # Same shape, interrupted: pump only a few rounds by hand.
        dst2 = make_fs()
        spool2 = str(tmp_path / "spool2")
        t1 = ReplicationTopology(spool_dir=spool2, batch=2)
        import os
        os.makedirs(spool2, exist_ok=True)
        t1._add("src0", src_a, dst2, "a", None)
        t1._add("src1", src_b, dst2, "b", None)
        for _ in range(3):  # partial: streams left mid-flight
            for st in t1.streams:
                if not st.done:
                    t1._pump_one(st)
        assert dst2.list_snapshots() != ["a", "b"]

        t2 = ReplicationTopology(spool_dir=spool2, batch=2)
        t2._add("src0", src_a, dst2, "a", None)
        t2._add("src1", src_b, dst2, "b", None)
        rep = {s.name: s for s in t2.run()}
        assert all(s.committed for s in rep.values())
        # The resumed receives skipped the already-staged entries.
        assert any((s.recv_report or {}).get("entries_skipped", 0) > 0
                   for s in rep.values())
        assert sorted(dst2.list_snapshots()) == ["a", "b"]
