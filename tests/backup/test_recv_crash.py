"""Failure atomicity of backup ingest: a crash torn anywhere leaves the
target fsck-clean with the partial snapshot absent (and no FACT leaks).
Rollback is per-stream: only stages whose cursor is absent or still
``active`` (torn mid-recv) are removed; cleanly-paused stages survive."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.backup import (
    STAGE_DIR,
    receive_backup,
    send_backup,
    verify_snapshot,
)
from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.fuzz import FuzzConfig, run_backup_case
from repro.nova import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from tests.backup.stage import stage_path_for

pytestmark = pytest.mark.backup


def make_fs(pages=4096):
    dev = PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    return DeNovaFS.mkfs(dev, max_inodes=256)


def page_of(tag):
    return bytes([tag & 0xFF]) * PAGE_SIZE


def stream_of(npages=4, name="s1", base_tag=20):
    """Four tree entries so max_entries=2 interrupts mid-transfer."""
    src = make_fs()
    src.mkdir("/d")
    f = src.create("/d/f")
    src.write(f, 0, b"".join(page_of(base_tag + i) for i in range(npages - 1)))
    g = src.create("/g")
    src.write(g, 0, page_of(base_tag + npages - 1))
    src.symlink("/d/f", "/link")
    src.daemon.drain()
    src.snapshot(name)
    buf = io.BytesIO()
    send_backup(src, name, buf)
    buf.seek(0)
    return buf


def mark_torn(fs, name):
    """Flip the staged cursor back to ``active`` — exactly the persistent
    state a recv crash leaves between its per-entry cursor writes."""
    cpath = stage_path_for(fs, name) + ".cursor"
    ino = fs.lookup(cpath, follow=False)
    cur = json.loads(fs.read(ino, 0, fs.stat(ino).size).decode())
    cur["active"] = True
    fs.truncate(ino, 0)
    fs.write(ino, 0, json.dumps(cur).encode())


class TestUncleanRollback:
    def test_crash_mid_ingest_rolls_back(self):
        """Power loss with an *active* stage on disk: the unclean mount
        removes it, frees its pages, and retires its FACT references."""
        stream = stream_of()
        dst = make_fs()
        g = dst.create("/g")
        dst.write(g, 0, page_of(1))
        dst.daemon.drain()
        live_before = len(dst.fact.live_entries())
        used_before = dst.statfs()["used_pages"]

        receive_backup(dst, stream, max_entries=2)  # stops mid-transfer
        mark_torn(dst, "s1")                        # as if torn mid-entry
        dev = dst.dev
        dev.crash(mode="discard")
        dev.recover_view()

        rec = DeNovaFS.mount(dev)
        assert not rec.last_recovery.clean
        rb = rec.last_recovery.extra["backup_rollback"]
        assert rb["stages"] == 1 and rb["kept"] == 0
        assert not rec.exists(STAGE_DIR)
        assert rec.list_snapshots() == []
        # No leaked FACT entries or pages from the torn ingest.
        assert len(rec.fact.live_entries()) == live_before
        assert rec.statfs()["used_pages"] <= used_before + 1
        ino = rec.lookup("/g")
        assert rec.read(ino, 0, PAGE_SIZE) == page_of(1)
        check_fs_invariants(rec)

    def test_clean_pause_survives_unclean_mount(self):
        """A cleanly-paused stage (cursor ``active=False``) holds only
        per-entry-committed files: the crash fsck keeps it for resume."""
        stream = stream_of()
        dst = make_fs()
        receive_backup(dst, stream, max_entries=2)
        dev = dst.dev
        dev.crash(mode="discard")
        dev.recover_view()

        rec = DeNovaFS.mount(dev)
        assert not rec.last_recovery.clean
        assert "backup_rollback" not in rec.last_recovery.extra
        assert stage_path_for(rec, "s1") is not None
        stream.seek(0)
        rep = receive_backup(rec, stream)
        assert rep["committed"] and rep["resumed"]
        assert rep["entries_skipped"] == 2
        stream.seek(0)
        assert verify_snapshot(rec, stream, deep=True)["ok"]
        check_fs_invariants(rec)

    def test_retry_after_rollback_commits(self):
        stream = stream_of()
        dst = make_fs()
        receive_backup(dst, stream, max_entries=2)
        mark_torn(dst, "s1")
        dev = dst.dev
        dev.crash(mode="discard")
        dev.recover_view()
        rec = DeNovaFS.mount(dev)

        stream.seek(0)
        rep = receive_backup(rec, stream)
        assert rep["committed"] and not rep["resumed"]
        stream.seek(0)
        assert verify_snapshot(rec, stream, deep=True)["ok"]
        check_fs_invariants(rec)

    def test_clean_unmount_is_not_rolled_back(self):
        stream = stream_of()
        dst = make_fs()
        receive_backup(dst, stream, max_entries=2)
        dev = dst.dev
        dst.unmount()
        rec = DeNovaFS.mount(dev)
        assert rec.last_recovery.clean
        assert "backup_rollback" not in rec.last_recovery.extra
        assert stage_path_for(rec, "s1") is not None

    def test_fan_in_rolls_back_only_torn_stream(self):
        """Two concurrent ingests into one target (fan-in): the unclean
        mount removes exactly the torn stream's stage; the cleanly
        paused sibling keeps its progress and resumes to commit."""
        s_a = stream_of(name="a", base_tag=20)
        s_b = stream_of(name="b", base_tag=40)
        dst = make_fs()
        receive_backup(dst, s_a, max_entries=2)   # pauses cleanly
        receive_backup(dst, s_b, max_entries=2)
        mark_torn(dst, "b")                       # b torn mid-entry
        dev = dst.dev
        dev.crash(mode="discard")
        dev.recover_view()

        rec = DeNovaFS.mount(dev)
        rb = rec.last_recovery.extra["backup_rollback"]
        assert rb["stages"] == 1 and rb["kept"] == 1
        assert stage_path_for(rec, "a") is not None
        assert stage_path_for(rec, "b") is None
        check_fs_invariants(rec)

        s_a.seek(0)
        rep_a = receive_backup(rec, s_a)
        assert rep_a["committed"] and rep_a["resumed"]
        assert rep_a["entries_skipped"] == 2
        s_b.seek(0)
        rep_b = receive_backup(rec, s_b)
        assert rep_b["committed"] and not rep_b["resumed"]
        assert sorted(rec.list_snapshots()) == ["a", "b"]
        for stream, name in ((s_a, "a"), (s_b, "b")):
            stream.seek(0)
            assert verify_snapshot(rec, stream, deep=True)["ok"]
        check_fs_invariants(rec)

    def test_hooks_are_registered_in_a_fresh_interpreter(self, tmp_path):
        """A program that imports only the device and ``DeNovaFS`` still
        rolls a torn ingest back: importing any ``repro`` module runs the
        package root, which registers backup's hook, then repl's."""
        dst = make_fs()
        receive_backup(dst, stream_of(), max_entries=2)
        mark_torn(dst, "s1")
        dst.dev.crash(mode="discard")
        dst.dev.recover_view()
        image = tmp_path / "torn.img"
        dst.dev.save_image(image)

        child = (
            "import json, sys\n"
            "from repro.pm import PMDevice\n"
            "from repro.dedup.denova import DeNovaFS\n"
            "fs = DeNovaFS.mount(PMDevice.load_image(sys.argv[1]))\n"
            "print(json.dumps({\n"
            f"    'stage': fs.exists({STAGE_DIR!r}),\n"
            "    'rollback': fs.last_recovery.extra.get('backup_rollback'),\n"
            "    'hooks': [f'{h.__module__}.{h.__name__}'\n"
            "              for h in DeNovaFS.unclean_mount_hooks]}))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", child, str(image)],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        got = json.loads(out.stdout)
        assert got["stage"] is False
        assert got["rollback"]["stages"] == 1
        assert got["hooks"] == ["repro.backup.recv.rollback_torn_ingests",
                                "repro.repl.relocate.replay_torn_relocation"]


class TestIngestCrashSweep:
    def test_sweep_every_persistence_event(self):
        """Tear the ingest at persistence events in both phases/modes;
        every recovery must be fsck-clean with the snapshot all-or-
        nothing and re-receivable (see repro.fuzz.backup)."""
        cfg = FuzzConfig(seed=2, seq_ops=24, budget=8, pages=2048)
        result = run_backup_case(cfg)
        assert result.crash_points > 0
        assert result.ok, "\n".join(str(v) for v in result.violations)

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_sweep_campaign(self):
        """Broader multi-seed sweep for the CI fuzz job."""
        for seed in range(4):
            cfg = FuzzConfig(seed=seed, seq_ops=40, budget=16, pages=2048)
            result = run_backup_case(cfg)
            assert result.ok, (seed,
                               [str(v) for v in result.violations])
