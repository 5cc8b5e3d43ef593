"""A read call fetches each physical byte once, in address order.

Dedup maps every copy of a page onto one block, so a file with repeated
content maps several offsets to the same block, and a file whose pages
duplicate another file's in another order maps its runs out of order.
``NovaFS.read_runs`` turns the range's runs into device spans, sorts
them by address and issues one request per neighbourhood of them
(``repro.pm.plan``, docs/CONSISTENCY.md §5); a span an earlier one
covers whole is copied at DRAM cost.  Holes still read as zeros and the
staging overlay still lands on top.  The guards record every
``dev.read`` of one image.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Config, Variant, make_fs as make_variant
from repro.dedup import DeNovaFS
from repro.nova import PAGE_SIZE, NovaFS
from repro.nova.radix import extend_runs
from repro.pm import DRAM, OPTANE_DCPM, PMDevice, SimClock
from repro.pm.clock import fs_of
from repro.pm.plan import neighbourhoods
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


def runs_of(index) -> list[list[int]]:
    """The index's logical runs ``[pgoff, block, count]`` in file order: a
    run grows while both the file page and the block advance by one."""
    runs: list[list[int]] = []
    for pgoff, _addr, block in sorted(index.mappings()):
        extend_runs(runs, pgoff, block)
    return runs


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
        assert runs_of(index) == [
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
        """The range starts 100 bytes into page 0, so block ``b`` is
        first needed in part; pages 3 and 7 need it whole.  The block is
        read once, with the request that starts at its first byte: the
        part needed for page 0 is not fetched again, and page 7's copy
        of page 3's is charged at DRAM cost."""
        fs = make_fs()
        ino = repeated_file(fs)
        b = fs.caches[ino].index.block_of(0)
        reads, data = reads_of(
            fs, lambda: fs.read(ino, 100, len(CONTENT) - 100))
        assert reads == [(b * PAGE_SIZE, 3 * PAGE_SIZE),
                         ((b + 4) * PAGE_SIZE, 3 * PAGE_SIZE)]
        assert data == CONTENT[100:]

    def test_a_run_with_an_unread_page_is_read_whole(self):
        """Pages 3..4 repeat 0..1.  Read to mid-page 4, the repeat is
        copied: the request for ``b .. b + 2`` covers it.  Read from the
        end of page 0, the two spans overlap on the device (``b`` to
        mid ``b + 1``, and the end of ``b`` to ``b + 3``): one request
        from ``b`` reads both, nothing twice."""
        fs = make_fs()
        data = A + B + D + A + B + C
        ino = repeated_file(fs, data)
        index = fs.caches[ino].index
        b = index.block_of(0)
        assert runs_of(index) == [
            [0, b, 3], [3, b, 2], [5, b + 5, 1]]
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 5 * PAGE_SIZE - 1))
        assert got == data[:-PAGE_SIZE - 1]
        assert reads == [(b * PAGE_SIZE, 3 * PAGE_SIZE)]
        reads, got = reads_of(
            fs, lambda: fs.read(ino, PAGE_SIZE - 1, 3 * PAGE_SIZE + 2))
        assert got == data[PAGE_SIZE - 1:4 * PAGE_SIZE + 1]
        assert reads == [(b * PAGE_SIZE, 3 * PAGE_SIZE)]

    def test_a_run_half_fetched_is_one_request(self):
        """``/f``'s pages 2..3 share ``/g``'s run ``b, b + 1``; page 0 is
        ``b`` again.  In address order the run comes first and page 0's
        span lies inside it: one request reads the run, page 0 is copied,
        and ``/f``'s own page 1 is the second request."""
        fs = make_fs()
        g = fs.create("/g")
        fs.write(g, 0, A + B)
        fs.daemon.drain()
        ino = repeated_file(fs, A + C + A + B)
        b = fs.caches[g].index.block_of(0)
        index = fs.caches[ino].index
        assert [index.block_of(p) for p in (0, 2, 3)] == [b, b, b + 1]
        c = index.block_of(1)
        assert c > b + 2
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 4 * PAGE_SIZE))
        assert got == A + C + A + B
        assert reads == [(b * PAGE_SIZE, 2 * PAGE_SIZE),
                         (c * PAGE_SIZE, PAGE_SIZE)]

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
        """Three runs a page or more apart on the device: three requests,
        in address order, not file order."""
        fs = make_fs(NovaFS)
        ino = fs.create("/f")
        fs.write(ino, 0, A + B + C + D)
        fs.write(fs.create("/gap"), 0, E)
        fs.write(ino, PAGE_SIZE, F)
        runs = runs_of(fs.caches[ino].index)
        assert len(runs) == 3
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, 4 * PAGE_SIZE))
        assert got == A + F + C + D
        assert [block for _pgoff, block, _count in runs] != sorted(
            block for _pgoff, block, _count in runs)
        assert reads == [(block * PAGE_SIZE, count * PAGE_SIZE)
                         for _pgoff, block, count in sorted(
                             runs, key=lambda run: run[1])]


def logical_spans(fs, ino: int, offset: int, length: int):
    """The range's logical runs (pages whose blocks continue each other,
    in file order) as device spans ``(addr, end)``, from the index."""
    index, end = fs.caches[ino].index, offset + length
    spans: list[list[int]] = []
    for p in range(offset // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
        block = index.block_of(p)
        if block is None:
            continue
        lo, hi = max(p * PAGE_SIZE, offset), min((p + 1) * PAGE_SIZE, end)
        addr = block * PAGE_SIZE + lo - p * PAGE_SIZE
        if spans and spans[-1][2] == lo and spans[-1][1] == addr:
            spans[-1][1:] = [addr + hi - lo, hi]
        else:
            spans.append([addr, addr + hi - lo, hi])
    return [(addr, end) for addr, end, _ in spans]


@st.composite
def layouts(draw):
    """A file of up to 10 pages written piecewise (holes where nothing
    lands, later writes displacing earlier pages) beside a file ``/g``
    whose pages it may repeat, and a range with partial edges."""
    tags = st.integers(1, 5)
    g = draw(st.lists(tags, max_size=4))
    writes = draw(st.lists(st.tuples(st.integers(0, 9),
                                     st.lists(tags, min_size=1, max_size=4)),
                           min_size=1, max_size=4))
    size = max(p + len(ts) for p, ts in writes) * PAGE_SIZE
    offset = draw(st.integers(0, size - 1))
    length = draw(st.integers(1, size - offset))
    return draw(st.sampled_from([NovaFS, DeNovaFS])), g, writes, offset, length


class TestPlanProperty:
    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_requests_are_the_neighbourhoods_of_the_distinct_spans(
            self, layout):
        cls, g, writes, offset, length = layout
        fs = make_fs(cls)
        if g:
            fs.write(fs.create("/g"), 0, b"".join(map(page, g)))
        ino = fs.create("/f")
        for p, ts in writes:
            fs.write(ino, p * PAGE_SIZE, b"".join(map(page, ts)))
        if cls is DeNovaFS:
            fs.daemon.drain()
        npages = fs.caches[ino].inode.size // PAGE_SIZE
        whole = page_by_page(fs, ino, npages)
        spans = logical_spans(fs, ino, offset, length)
        cache = fs.caches[ino]
        reads, data = reads_of(fs, lambda: fs.read_runs(cache, offset, length))
        assert data == whole[offset:offset + length]
        distinct = sorted(set(spans), key=lambda s: (s[0], -s[1]))
        assert reads == [(lo, hi - lo) for _first, _last, lo, hi
                         in neighbourhoods(fs.dev.model, distinct)]
        assert all(lo == distinct[first][0]
                   and hi == max(e for _, e in distinct[first:last])
                   for first, last, lo, hi
                   in neighbourhoods(fs.dev.model, distinct))
        assert len(reads) <= len(spans)
        assert all(a + n <= b for (a, n), (b, _) in zip(reads, reads[1:]))


class TestShuffledDuplicates:
    """ROADMAP finding 5: a 1 MB file ``/b`` a fraction α of whose pages
    (at shuffled offsets) are shuffled duplicates of ``/a``'s, on Optane,
    read whole with one ``fs.read``.  Planned by address, the pages
    shared with ``/a`` merge wherever ``/a``'s blocks continue each
    other; one request per logical run (the per-run plan) read 114 /
    195 / 251 requests, 208.2 / 228.5 / 242.5 µs charged."""

    @staticmethod
    def build(cls, alpha: float):
        rng = random.Random(5)
        dev = PMDevice(4096 * PAGE_SIZE, model=OPTANE_DCPM, clock=SimClock())
        fs = cls.mkfs(dev, max_inodes=64)
        a = [rng.randbytes(PAGE_SIZE) for _ in range(256)]
        b = [rng.randbytes(PAGE_SIZE) for _ in range(256)]
        k = int(alpha * 256)
        for pos, src in zip(rng.sample(range(256), k),
                            rng.sample(range(256), k)):
            b[pos] = a[src]
        fs.write(fs.create("/a"), 0, b"".join(a))
        ino = fs.create("/b")
        fs.write(ino, 0, b"".join(b))
        if cls is DeNovaFS:
            fs.daemon.drain()
        return fs, ino, b"".join(b)

    @pytest.mark.parametrize("cls, alpha, requests, runs, charged_us", [
        (NovaFS, 0.5, 1, 1, 180.0),
        (DeNovaFS, 0.25, 95, 114, 203.5),
        (DeNovaFS, 0.5, 129, 195, 212.0),
        (DeNovaFS, 0.9, 47, 251, 191.5),
    ])
    def test_one_request_per_physical_neighbourhood(
            self, cls, alpha, requests, runs, charged_us):
        fs, ino, want = self.build(cls, alpha)
        assert len(runs_of(fs.caches[ino].index)) == runs
        t0 = fs.clock.now_ns
        reads, got = reads_of(fs, lambda: fs.read(ino, 0, len(want)))
        assert got == want
        assert len(reads) == requests <= runs
        assert round((fs.clock.now_ns - t0) / 1000, 1) == charged_us
