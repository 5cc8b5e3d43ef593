"""A read call fetches each physical page once.

Dedup maps every copy of a page onto one block, so a file with repeated
content maps several offsets to the same block.  ``NovaFS.read_runs``
issues one device request per run whose pages the call has not yet read
whole, and copies a run whose every page it has from the bytes already
assembled (docs/CONSISTENCY.md §5).  A page read only partly, at the edge
of the range, is not reused; holes still read as zeros, the staging
overlay still lands on top, and a plain NOVA read is untouched.  The
guards record every ``dev.read`` of one image.
"""

from repro.core import Config, Variant, make_fs as make_variant
from repro.dedup import DeNovaFS
from repro.nova import PAGE_SIZE, NovaFS
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.clock import fs_of
from tests._ledger import Ledger


def page(tag: int) -> bytes:
    return bytes((tag * 31 + k) % 251 for k in range(PAGE_SIZE))


A, B, C, D, E, F = (page(t) for t in range(1, 7))
#: Pages 0, 3 and 7 share one block once deduplicated.
CONTENT = A + B + C + A + D + E + F + A


def make_fs(cls=DeNovaFS):
    dev = PMDevice(1024 * PAGE_SIZE, model=DRAM, clock=SimClock())
    return cls.mkfs(dev, max_inodes=64)


def repeated_file(fs, data=CONTENT) -> int:
    ino = fs.create("/f")
    fs.write(ino, 0, data)
    fs.daemon.drain()
    return ino


def reads_of(fs, call) -> tuple[list[tuple[int, int]], object]:
    """``(address, bytes)`` of every device read ``call()`` makes, and
    what it returned."""
    with Ledger(fs.dev) as led:
        out = call()
    return [(r.addr, r.n) for r in led.select("read")], out


def page_by_page(fs, ino: int, npages: int) -> bytes:
    return b"".join(fs.read(ino, p * PAGE_SIZE, PAGE_SIZE)
                    for p in range(npages))


class TestRepeatsReadOnce:
    def test_a_whole_read_makes_one_request_per_distinct_run(self):
        fs = make_fs()
        ino = repeated_file(fs)
        index = fs.caches[ino].index
        b = index.block_of(0)
        assert [index.block_of(p) for p in (3, 7)] == [b, b]
        assert [list(r) for r in index.physical_runs()] == [
            [0, b, 3], [3, b, 1], [4, b + 4, 3], [7, b, 1]]
        reads, data = reads_of(fs, lambda: fs.read(ino, 0, len(CONTENT)))
        assert reads == [(b * PAGE_SIZE, 3 * PAGE_SIZE),
                         ((b + 4) * PAGE_SIZE, 3 * PAGE_SIZE)]
        assert data == CONTENT == page_by_page(fs, ino, 8)

    def test_a_copy_is_charged_at_dram_cost(self, monkeypatch):
        """What the call charges beyond its device reads and radix
        lookups is one DRAM read of each copied run."""
        fs = make_fs()
        ino = repeated_file(fs)
        cache = fs.caches[ino]
        others, block_of = [], cache.index.block_of

        def timed(*args):
            t0 = fs.clock.now_fs
            out = block_of(*args)
            others.append(fs.clock.now_fs - t0)
            return out

        monkeypatch.setattr(cache.index, "block_of", timed)
        t0 = fs.clock.now_fs
        with Ledger(fs.dev) as led:
            assert fs.read_runs(cache, 0, len(CONTENT)) == CONTENT
        others += [r.charge for r in led.select("read")]
        assert len(others) == 8 + 2
        copies = fs.clock.now_fs - t0 - sum(others)
        assert copies == 2 * fs_of(DRAM.read_cost(PAGE_SIZE))

    def test_a_partly_read_page_is_not_reused(self):
        """The range starts 100 bytes into page 0: its block is fetched
        only partly, so page 3's repeat of it is read from the device
        (whole), and page 7's is copied from page 3's bytes."""
        fs = make_fs()
        ino = repeated_file(fs)
        b = fs.caches[ino].index.block_of(0)
        reads, data = reads_of(
            fs, lambda: fs.read(ino, 100, len(CONTENT) - 100))
        assert reads == [(b * PAGE_SIZE + 100, 3 * PAGE_SIZE - 100),
                         (b * PAGE_SIZE, PAGE_SIZE),
                         ((b + 4) * PAGE_SIZE, 3 * PAGE_SIZE)]
        assert data == CONTENT[100:]

    def test_a_run_with_an_unread_page_is_read_whole(self):
        """Pages 3..4 repeat 0..1.  Read to mid-page 4, the repeat is
        copied: both blocks were fetched whole first.  Read from the end
        of page 0, block ``b`` is not fetched and ``b + 1`` only partly,
        so the repeat is one device request, not split."""
        fs = make_fs()
        data = A + B + D + A + B + C
        ino = repeated_file(fs, data)
        index = fs.caches[ino].index
        b = index.block_of(0)
        assert [list(r) for r in index.physical_runs()] == [
            [0, b, 3], [3, b, 2], [5, b + 5, 1]]
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 5 * PAGE_SIZE - 1))
        assert got == data[:-PAGE_SIZE - 1]
        assert reads == [(b * PAGE_SIZE, 3 * PAGE_SIZE)]
        reads, got = reads_of(
            fs, lambda: fs.read(ino, PAGE_SIZE - 1, 3 * PAGE_SIZE + 2))
        assert got == data[PAGE_SIZE - 1:4 * PAGE_SIZE + 1]
        assert reads == [(b * PAGE_SIZE + PAGE_SIZE - 1, 2 * PAGE_SIZE + 1),
                         (b * PAGE_SIZE, PAGE_SIZE + 1)]

    def test_a_run_half_fetched_is_one_request(self):
        """``/f``'s pages 2..3 share ``/g``'s run ``b, b + 1``; page 0 is
        ``b`` again.  The run's first page is fetched, its second is
        not, so the run is read whole, not split."""
        fs = make_fs()
        g = fs.create("/g")
        fs.write(g, 0, A + B)
        fs.daemon.drain()
        ino = repeated_file(fs, A + C + A + B)
        b = fs.caches[g].index.block_of(0)
        index = fs.caches[ino].index
        assert [index.block_of(p) for p in (0, 2, 3)] == [b, b, b + 1]
        c = index.block_of(1)
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 4 * PAGE_SIZE))
        assert got == A + C + A + B
        assert reads == [(b * PAGE_SIZE, PAGE_SIZE),
                         (c * PAGE_SIZE, PAGE_SIZE),
                         (b * PAGE_SIZE, 2 * PAGE_SIZE)]

    def test_a_hole_between_two_repeats_reads_as_zeros(self):
        fs = make_fs()
        ino = fs.create("/f")
        fs.write(ino, 0, A)
        fs.write(ino, 3 * PAGE_SIZE, A)
        fs.daemon.drain()
        index = fs.caches[ino].index
        b = index.block_of(0)
        assert index.block_of(3) == b and index.block_of(1) is None
        reads, data = reads_of(fs, lambda: fs.read(ino, 0, 4 * PAGE_SIZE))
        assert reads == [(b * PAGE_SIZE, PAGE_SIZE)]
        assert data == A + bytes(2 * PAGE_SIZE) + A

    def test_a_staged_write_over_a_repeat_is_overlaid(self):
        fs, _dd = make_variant(Variant.IMMEDIATE, Config(
            device_pages=1024, max_inodes=64, staging=True))
        ino = repeated_file(fs)
        fs.write(ino, 3 * PAGE_SIZE + 10, b"staged")
        assert fs.staging.stats()["absorbed"] == 1
        reads, data = reads_of(fs, lambda: fs.read(ino, 0, len(CONTENT)))
        assert len(reads) == 2
        want = bytearray(CONTENT)
        want[3 * PAGE_SIZE + 10:3 * PAGE_SIZE + 16] = b"staged"
        assert data == want
        assert data[:PAGE_SIZE] == data[7 * PAGE_SIZE:] == A


class TestNoRepeatPath:
    def test_a_nova_read_is_one_request_per_run(self):
        fs = make_fs(NovaFS)
        ino = fs.create("/f")
        fs.write(ino, 0, A + B + C + D)
        fs.write(fs.create("/gap"), 0, E)
        fs.write(ino, PAGE_SIZE, F)
        runs = fs.caches[ino].index.physical_runs()
        assert len(runs) == 3
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 4 * PAGE_SIZE))
        assert got == A + F + C + D
        assert reads == [(block * PAGE_SIZE, count * PAGE_SIZE)
                         for _pgoff, block, count in runs]
