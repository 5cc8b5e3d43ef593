"""Unit tests for geometry planning and the superblock."""

import pytest

from repro.dedup import DeNovaFS, HybridDeNovaFS
from repro.nova.fs import CorruptImage, NovaFS
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.pm import DRAM, PMDevice, SimClock
from tests._ledger import READS, Ledger


def make_dev(pages=256):
    return PMDevice(pages * PAGE_SIZE, model=DRAM, clock=SimClock())


class TestGeometry:
    def test_plain_layout_has_no_fact(self):
        geo = Geometry.compute(1024, max_inodes=128)
        assert geo.fact_page == 0
        assert geo.fact_entries == 0
        assert geo.data_start_page < 1024
        assert geo.data_pages > 900

    def test_dedup_layout_sizes_fact_by_paper_rule(self):
        """n = ceil(log2(total pages)); FACT has 2^(n+1) entries."""
        geo = Geometry.compute(1024, with_dedup=True)
        assert geo.fact_prefix_bits == 10
        assert geo.fact_entries == 2 ** 11
        assert geo.fact_bytes == 2 ** 11 * 64
        assert geo.data_start_page > geo.fact_page

    def test_fact_covers_block_addresses(self):
        """Delete pointers index the DAA by block address (§IV-C), so the
        DAA must have at least one slot per device page."""
        for pages in (100, 1000, 5000):
            geo = Geometry.compute(pages, with_dedup=True)
            assert 2 ** geo.fact_prefix_bits >= pages

    def test_undersized_prefix_rejected(self):
        with pytest.raises(ValueError, match="delete pointers"):
            Geometry.compute(1024, with_dedup=True, fact_prefix_bits=5)

    def test_oversized_metadata_rejected(self):
        with pytest.raises(ValueError):
            Geometry.compute(20, max_inodes=4096)

    def test_tiny_device_rejected(self):
        with pytest.raises(ValueError):
            Geometry.compute(8)

    def test_fact_overhead_near_paper_3_2_percent(self):
        """§IV-C: FACT consumes ~3.2% of capacity (2 entries/block x 64 B /
        4 KB = 3.125%, paper rounds to 3.2%)."""
        geo = Geometry.compute(2 ** 14, with_dedup=True)  # 64 MB device
        overhead = geo.fact_bytes / (geo.total_pages * PAGE_SIZE)
        assert 0.028 <= overhead <= 0.036


class TestSuperblock:
    def test_format_then_load_roundtrip(self):
        dev = make_dev()
        geo = Geometry.compute(256, max_inodes=64, with_dedup=True)
        assert Superblock.format(dev, geo).geo == geo
        assert Superblock.load(dev).geo == geo

    def test_load_without_format_rejected(self):
        dev = make_dev()
        with pytest.raises(CorruptImage, match="magic"):
            Superblock.load(dev)

    def test_format_is_crash_atomic_via_magic(self):
        """Crash before the final magic write leaves 'no filesystem'."""
        dev = make_dev()
        geo = Geometry.compute(256, max_inodes=64)
        Superblock.format(dev, geo)
        # A fresh device that crashed mid-format: emulate by zeroing magic.
        dev.write(0, bytes(8))
        dev.persist(0, 8)
        with pytest.raises(CorruptImage, match="magic"):
            Superblock.load(dev)

    @pytest.mark.parametrize("offset,value,why", [
        (8, 2, "version"),
        (16, 255, "total_pages 255 on a device of 256"),    # total_pages
        (16, 10 ** 12, "total_pages 1000000000000"),
        (32, 1, "inode capacity 1"),
        (72, 2 ** 64 - 1, "FACT prefix bits"),
        (40, 0, "journal region at page 0, before page 3"),
        (64, 2, "FACT region at page 2, before page"),      # inside the itable
        (80, 5, "data region at page 5, before page"),      # inside FACT
        (80, 256, "regions end at page 257 of 256"),
        (56, 250, "before page"),                           # DWQ save pages
    ])
    def test_geometry_of_another_device_rejected(self, offset, value, why):
        """A superblock word that cannot describe this device is typed
        media corruption, not a mount that trips somewhere later (or,
        for an inflated total_pages, nowhere at all)."""
        dev = make_dev()
        Superblock.format(dev, Geometry.compute(256, max_inodes=64,
                                                with_dedup=True))
        dev.write_atomic64(offset, value, persist=True)
        with pytest.raises(CorruptImage, match=why):
            Superblock.load(dev)

    def test_clean_flag_roundtrip(self):
        dev = make_dev()
        sb = Superblock.format(dev, Geometry.compute(256, max_inodes=64))
        assert sb.clean
        sb.set_clean(False)
        assert not sb.clean and not Superblock.load(dev).clean
        sb.set_clean(True)
        assert sb.clean and Superblock.load(dev).clean

    def test_clean_flag_survives_crash_once_persisted(self):
        dev = make_dev()
        sb = Superblock.format(dev, Geometry.compute(256, max_inodes=64))
        sb.set_clean(False)
        dev.crash()
        dev.recover_view()
        assert not Superblock.load(dev).clean

    def test_epoch_and_dwq_count(self):
        dev = make_dev()
        sb = Superblock.format(dev, Geometry.compute(256, max_inodes=64))
        assert sb.epoch == 0
        assert sb.bump_epoch() == 1
        assert sb.epoch == 1
        sb.set_dwq_saved_count(17)
        assert sb.dwq_saved_count == 17
        loaded = Superblock.load(dev)
        assert (loaded.epoch, loaded.dwq_saved_count) == (1, 17)

    @pytest.mark.parametrize("clean", [False, True],
                             ids=["unclean", "clean"])
    @pytest.mark.parametrize("cls", [NovaFS, DeNovaFS, HybridDeNovaFS],
                             ids=lambda cls: cls.__name__)
    def test_a_mount_reads_the_superblock_with_one_request(self, cls, clean):
        """The mount decodes every word from one request; each later
        reader takes the filesystem's record (``fs.sb``)."""
        dev = make_dev(1024)
        fs = cls.mkfs(dev, max_inodes=64)
        fs.write(fs.create("/f"), 0, bytes(range(256)) * 16)
        if clean:
            fs.unmount()
        else:
            dev.crash()
            dev.recover_view()
        with Ledger(dev) as led:
            cls.mount(dev)
        reads = led.select(*READS, within=(0, PAGE_SIZE))
        assert [(r.addr, r.charge > 0) for r in reads] == [(0, True)]
