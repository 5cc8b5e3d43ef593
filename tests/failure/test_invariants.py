"""Every invariant must trip on a device corrupted by hand.

Each test builds a small healthy filesystem, verifies the checker
passes, introduces exactly one corruption, and asserts the checker
fails with the expected message — proving the invariant actually has
teeth (a checker that never fires verifies nothing).
"""

import pytest

from repro.dedup import DeNovaFS
from repro.dedup.fact import ENTRY
from repro.failure import image
from repro.failure.invariants import InvariantViolation, check_fs_invariants
from repro.nova import NovaFS
from repro.nova.inode import ITYPE_FILE, Inode
from repro.nova.layout import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock

PAGE = b"\x0b" * PAGE_SIZE


def make_nova():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = NovaFS.mkfs(dev, max_inodes=32)
    ino = fs.create("/a")
    fs.write(ino, 0, PAGE * 2)
    fs.create("/b")
    return fs, ino


def make_denova():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = DeNovaFS.mkfs(dev, max_inodes=32)
    a = fs.create("/a")
    fs.write(a, 0, PAGE)
    b = fs.create("/b")
    fs.write(b, 0, PAGE)          # duplicate content: RFC becomes 2
    fs.daemon.drain()
    return fs


def shared_entry(fs):
    (idx, ent), = fs.fact.live_entries().items()
    return idx, ent


class TestBaseline:
    def test_healthy_nova_passes(self):
        fs, _ = make_nova()
        report = check_fs_invariants(fs)
        assert report["page_refs"]

    def test_healthy_denova_passes(self):
        fs = make_denova()
        report = check_fs_invariants(fs)
        assert report["fact"]["live_entries"] == 1

    def test_one_silent_read_of_fact_per_check(self):
        """The entry checks and the chain check share one decode."""
        fs = make_denova()
        lo = fs.fact.base
        hi = lo + fs.fact.total * ENTRY
        reads = []
        read_silent = fs.dev.read_silent

        def counting(addr, n):
            if addr < hi and addr + n > lo:
                reads.append((addr, n))
            return read_silent(addr, n)

        fs.dev.read_silent = counting
        check_fs_invariants(fs)
        assert reads == [(lo, hi - lo)]


class TestDataInvariants:
    def test_referenced_page_on_free_list(self):
        fs, ino = make_nova()
        page = next(iter(check_fs_invariants(fs)["page_refs"]))
        fs.allocator.free(page, 1, 0)
        with pytest.raises(InvariantViolation, match="free list"):
            check_fs_invariants(fs)

    def test_corrupt_committed_log_entry(self):
        fs, ino = make_nova()
        cache = fs.caches[ino]
        addr, _raw = next(image.log(fs.dev, fs.geo).iter_slots(
            cache.inode.log_head, cache.inode.log_tail))
        fs.dev.write(addr, b"\xff" * 8)
        fs.dev.persist(addr, 8)
        with pytest.raises(InvariantViolation, match="corrupt committed"):
            check_fs_invariants(fs)

    def test_dangling_dentry(self):
        fs, _ = make_nova()
        from repro.nova.inode import ROOT_INO
        fs.caches[ROOT_INO].dentries["ghost"] = 999
        with pytest.raises(InvariantViolation, match="dangling dentry"):
            check_fs_invariants(fs)


class TestInodeTableInvariants:
    def test_valid_record_with_wrong_ino(self):
        fs, _ = make_nova()
        rec = Inode(ino=0, valid=1, itype=ITYPE_FILE, links=1)
        fs.dev.write(fs.itable.addr_of(7), rec.pack())
        fs.dev.persist(fs.itable.addr_of(7), 64)
        with pytest.raises(InvariantViolation, match="carries ino 0"):
            check_fs_invariants(fs)

    def test_leaked_valid_slot(self):
        fs, _ = make_nova()
        free = max(fs.caches) + 1
        rec = Inode(ino=free, valid=1, itype=ITYPE_FILE, links=1)
        fs.dev.write(fs.itable.addr_of(free), rec.pack())
        fs.dev.persist(fs.itable.addr_of(free), 64)
        with pytest.raises(InvariantViolation, match="leaked slot"):
            check_fs_invariants(fs)

    def test_mounted_ino_without_record(self):
        fs, ino = make_nova()
        blank = Inode(ino=ino, valid=0, itype=ITYPE_FILE, links=0)
        fs.dev.write(fs.itable.addr_of(ino), blank.pack())
        fs.dev.persist(fs.itable.addr_of(ino), 64)
        with pytest.raises(InvariantViolation, match="no valid inode"):
            check_fs_invariants(fs)

    def test_bad_itype(self):
        fs, _ = make_nova()
        free = max(fs.caches) + 1
        rec = Inode(ino=free, valid=1, itype=7, links=1)
        fs.dev.write(fs.itable.addr_of(free), rec.pack())
        fs.dev.persist(fs.itable.addr_of(free), 64)
        with pytest.raises(InvariantViolation, match="illegal itype"):
            check_fs_invariants(fs)


    def test_exact_reports_at_the_edges_of_the_table(self):
        """The checker reads the table in one piece and decodes only the
        slots marked valid: its four messages, their order and its count
        are what the slot-by-slot pass reported, first slot to last."""
        fs, ino = make_nova()
        last = fs.itable.capacity
        assert check_fs_invariants(fs)["valid_inode_records"] \
            == len(fs.caches) == 3

        def store(slot, **fields):
            fs.dev.write(fs.itable.addr_of(slot), Inode(**fields).pack(),
                         persist=True)

        def violation():
            with pytest.raises(InvariantViolation) as exc:
                check_fs_invariants(fs)
            return str(exc.value)

        # Any non-zero valid byte marks a record; the last slot is read.
        store(last, ino=5, valid=0x80, itype=ITYPE_FILE)
        assert violation() == (f"itable[{last}]: valid record carries ino 5 "
                               "(half-written create leaks the slot)")
        store(last, ino=last, valid=1, itype=0)
        assert violation() == (f"itable[{last}]: valid record has illegal "
                               "itype 0")
        store(last, ino=last, valid=1, itype=ITYPE_FILE)
        assert violation() == (f"itable[{last}]: valid record for an inode "
                               "the mount does not know (leaked slot)")
        # The lower slot is reported first; the unknown-record check
        # outranks the mounted-without-record one.
        store(ino, ino=ino, valid=0, itype=ITYPE_FILE)
        assert violation().startswith(f"itable[{last}]: ")
        store(last, ino=0, valid=0)
        assert violation() == f"mounted ino {ino} has no valid inode record"


class TestFactInvariants:
    def test_rfc_undercount(self):
        fs = make_denova()
        idx, ent = shared_entry(fs)
        assert ent.refcount == 2
        fs.fact._write_u64(idx, 0, 1)  # RFC=1 < 2 live references
        with pytest.raises(InvariantViolation, match="undercounts"):
            check_fs_invariants(fs)

    def test_stale_uc(self):
        fs = make_denova()
        idx, _ = shared_entry(fs)
        fs.fact.inc_uc(idx)
        with pytest.raises(InvariantViolation, match="UC="):
            check_fs_invariants(fs)

    def test_negative_direction_rfc_with_free_block(self):
        fs = make_denova()
        idx, ent = shared_entry(fs)
        fs.allocator.free(ent.block, 1, 0)
        with pytest.raises(InvariantViolation):
            check_fs_invariants(fs)

    def test_duplicate_block_claims(self):
        fs = make_denova()
        idx, ent = shared_entry(fs)
        import hashlib
        other_fp = hashlib.sha1(b"other").digest()
        fs.fact.insert(other_fp, ent.block)
        with pytest.raises(InvariantViolation, match="claim block"):
            check_fs_invariants(fs)

    def test_structural_chain_damage(self):
        from repro.dedup.fact import _OFF_NEXT, FactCorruption

        fs = make_denova()
        idx, _ = shared_entry(fs)
        fs.fact._write_u64(idx, _OFF_NEXT, idx + 1)  # self-cycle
        with pytest.raises((InvariantViolation, FactCorruption)):
            check_fs_invariants(fs)
