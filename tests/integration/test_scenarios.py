"""End-to-end scenarios: realistic multi-phase workloads on DeNova.

These are the "downstream user" stories the paper's introduction
motivates (backup servers, VM-image stores, container layers): long
sequences of duplicate-heavy ingest, mutation, deletion, crashes and
maintenance, validated for content fidelity and space behaviour at
every phase.
"""

import pytest

from repro.core import Config, Variant, make_fs
from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.gc import thorough_gc
from repro.workloads import DataGenerator


def build(pages=16384, inodes=2048):
    fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=pages,
                                              max_inodes=inodes))
    return fs


class TestBackupServer:
    """Nightly incremental backups: heavy cross-generation duplication."""

    def test_incremental_backup_generations(self):
        fs = build()
        gen_data = DataGenerator(alpha=0.0, seed=1)
        # The "source dataset": 20 files of 4 pages.
        dataset = {f"file{i}": bytearray(gen_data.file_data(4 * PAGE_SIZE))
                   for i in range(20)}
        mutator = DataGenerator(alpha=0.0, seed=2, stream=7)

        usage = []
        physical = []
        for generation in range(4):
            if generation:
                # Mutate ~10% of pages between backup runs.
                for name in list(dataset)[:2]:
                    page = generation % 4
                    dataset[name][page * PAGE_SIZE:(page + 1) * PAGE_SIZE] \
                        = mutator.file_data(PAGE_SIZE)
            fs.mkdir(f"/backup{generation}")
            for name, content in dataset.items():
                ino = fs.create(f"/backup{generation}/{name}")
                fs.write(ino, 0, bytes(content))
            fs.daemon.drain()
            usage.append(fs.statfs()["used_pages"])
            physical.append(fs.space_stats()["physical_pages"])

        # A later generation's *data* cost is exactly its mutated pages
        # (2 per generation); the remaining page cost is per-inode log
        # metadata, bounded by the file count.
        gen0 = usage[0]
        for g in (2, 3):
            assert physical[g] - physical[g - 1] == 2, \
                f"gen {g} stored {physical[g] - physical[g - 1]} new pages"
            assert usage[g] - usage[g - 1] <= 2 + len(dataset) + 2, \
                "metadata cost exceeded one log page per file"
            assert usage[g] - usage[g - 1] < 0.3 * gen0
        # All generations read back exactly (spot-check the last).
        for name, content in dataset.items():
            ino = fs.lookup(f"/backup3/{name}")
            assert fs.read(ino, 0, 4 * PAGE_SIZE) == bytes(content)
        check_fs_invariants(fs)

    def test_retention_expiry_frees_space(self):
        fs = build()
        gen_data = DataGenerator(alpha=0.0, seed=3)
        dataset = [gen_data.file_data(2 * PAGE_SIZE) for _ in range(15)]
        for g in range(3):
            fs.mkdir(f"/gen{g}")
            for i, content in enumerate(dataset):
                ino = fs.create(f"/gen{g}/f{i}")
                fs.write(ino, 0, content)
        fs.daemon.drain()
        used_all = fs.statfs()["used_pages"]
        # Expire the two oldest generations.
        for g in range(2):
            for i in range(15):
                fs.unlink(f"/gen{g}/f{i}")
            fs.rmdir(f"/gen{g}")
        used_after = fs.statfs()["used_pages"]
        # Shared pages survive (gen2 still references them): expiry of
        # duplicates frees metadata/log pages but few data pages.
        assert used_after <= used_all
        for i, content in enumerate(dataset):
            assert fs.read(fs.lookup(f"/gen2/f{i}"), 0,
                           2 * PAGE_SIZE) == content
        # Now expire the last generation: everything comes back.
        baseline = None
        for i in range(15):
            fs.unlink(f"/gen2/f{i}")
        fs.rmdir("/gen2")
        assert fs.fact.live_entries() == {}
        check_fs_invariants(fs)


class TestVMImageStore:
    """Cloned VM images: one base, many patched copies."""

    def test_clone_patch_lifecycle(self):
        fs = build()
        base_gen = DataGenerator(alpha=0.0, seed=9)
        base_image = base_gen.file_data(16 * PAGE_SIZE)
        golden = fs.create("/golden.img")
        fs.write(golden, 0, base_image)
        fs.daemon.drain()

        # Clone 8 VMs (full copies at the file level).
        clones = []
        for v in range(8):
            ino = fs.create(f"/vm{v}.img")
            fs.write(ino, 0, base_image)
            clones.append(ino)
        fs.daemon.drain()
        st = fs.space_stats()
        # 9 x 16 pages logical, ~16 physical.
        assert st["logical_pages"] == 9 * 16
        assert st["physical_pages"] == 16

        # Each VM patches two distinct pages.
        patcher = DataGenerator(alpha=0.0, seed=10, stream=3)
        for v, ino in enumerate(clones):
            fs.write(ino, (v % 16) * PAGE_SIZE, patcher.file_data(PAGE_SIZE))
            fs.write(ino, ((v + 5) % 16) * PAGE_SIZE,
                     patcher.file_data(PAGE_SIZE))
        fs.daemon.drain()
        st = fs.space_stats()
        assert st["physical_pages"] == 16 + 2 * 8  # base + unique patches
        # Golden image untouched by any patch.
        assert fs.read(golden, 0, 16 * PAGE_SIZE) == base_image

        # Delete half the VMs; survivors and golden stay intact.
        for v in range(0, 8, 2):
            fs.unlink(f"/vm{v}.img")
        fs.scrub()
        assert fs.read(golden, 0, 16 * PAGE_SIZE) == base_image
        check_fs_invariants(fs)

    def test_crash_between_every_phase(self):
        """The same lifecycle with a crash + remount between phases."""
        fs = build()
        base = DataGenerator(alpha=0.0, seed=4).file_data(8 * PAGE_SIZE)

        def crash_remount(fs):
            fs.dev.crash()
            fs.dev.recover_view()
            return DeNovaFS.mount(fs.dev)

        golden = fs.create("/golden")
        fs.write(golden, 0, base)
        fs = crash_remount(fs)
        for v in range(4):
            ino = fs.create(f"/vm{v}")
            fs.write(ino, 0, base)
        fs = crash_remount(fs)
        fs.daemon.drain()
        fs = crash_remount(fs)
        st = fs.space_stats()
        assert st["physical_pages"] == 8
        for v in range(4):
            assert fs.read(fs.lookup(f"/vm{v}"), 0, 8 * PAGE_SIZE) == base
        check_fs_invariants(fs)


class TestMaintenanceCycle:
    def test_churn_gc_scrub_converges(self):
        """Months of churn compressed: create/overwrite/delete cycles
        with periodic GC and scrubbing never leak pages."""
        fs = build()
        gen = DataGenerator(alpha=0.5, seed=6, dup_pool_size=4)
        for cycle in range(6):
            for i in range(12):
                path = f"/c{cycle}_f{i}"
                ino = fs.create(path)
                fs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
            fs.daemon.drain()
            # Delete the previous cycle's files.
            if cycle:
                for i in range(12):
                    fs.unlink(f"/c{cycle - 1}_f{i}")
            thorough_gc(fs, 1)  # compact the root directory log
            fs.scrub()
            check_fs_invariants(fs)
        # Only the last cycle's files remain.
        live = [n for n in fs.listdir("/")]
        assert len(live) == 12
        st = fs.space_stats()
        assert st["logical_pages"] == 24
        # The dup pool bounds physical pages: at most 12 unique x 2 + pool.
        assert st["physical_pages"] <= 24
