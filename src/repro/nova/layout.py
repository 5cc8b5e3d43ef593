"""On-device layout: superblock and region geometry.

Device layout (page = 4 KB)::

    page 0                superblock
    pages 1 .. it_end     inode table (128 B inodes)
    1 page                redo area reserved for future journal use
    dwq_save_pages        DWQ save area (clean-shutdown persistence, §IV-B1)
    fact_pages            FACT region (DeNova only; absent on plain NOVA)
    fact_map_pages        the FACT's DAA chunk map (DeNova only): one bit
                          per FACT_CHUNK_SLOTS DAA slots ever stored to
    data_start ..         log pages + data pages (allocated per-CPU)

The superblock is written once at mkfs and updated only for the clean
flag, the mount epoch, the saved-DWQ length, the hybrid-dedup policy
modes and the FACT's IAA mark — each one small persisted field, never a
rewrite of the whole block.  The chunk map is a region, not a word: its
words are FACT's to store (``FACT._touch``), the superblock holds its page.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from repro.nova.errors import CorruptImage
from repro.pm.device import PMDevice

__all__ = ["PAGE_SIZE", "MAGIC", "FACT_CHUNK_SLOTS", "Geometry", "Superblock"]

PAGE_SIZE = 4096
MAGIC = 0x41564F4E_4544_2121  # "!!DENOVA" little-endian flavour
INODE_SIZE = 128
#: DAA slots per bit of the FACT's chunk map (16 x 64 B = 1 KB, within
#: one read-through reach of an Optane request).
FACT_CHUNK_SLOTS = 16

# Superblock field offsets (bytes from device start).
_OFF_MAGIC = 0
_OFF_VERSION = 8
_OFF_CLEAN = 12
_OFF_TOTAL_PAGES = 16
_OFF_INODE_TABLE_PAGE = 24
_OFF_INODE_CAPACITY = 32
_OFF_JOURNAL_PAGE = 40
_OFF_DWQ_SAVE_PAGE = 48
_OFF_DWQ_SAVE_PAGES = 56
_OFF_FACT_PAGE = 64
_OFF_FACT_PREFIX_BITS = 72
_OFF_DATA_START_PAGE = 80
_OFF_DWQ_SAVED_COUNT = 88
_OFF_EPOCH = 96
_OFF_CKPT_PAGE = 104
_OFF_CKPT_PAGES = 112
# Hybrid-dedup policy state (zero on images formatted without it):
# one word of static config (bit 0 = hybrid marker, bits 8..15 = policy
# shard count) and one word of per-shard mode nibbles — a policy
# transition is a single atomic persisted store, so a crash can only
# observe the old or the new mode, never a torn mixture.
_OFF_HYBRID_CONF = 120
_OFF_HYBRID_MODES = 128
# Tenant registry region (two one-page A/B slots; zero on images
# formatted before multi-tenancy or too small to carve the region).
_OFF_TENANT_PAGE = 136
_OFF_TENANT_PAGES = 144
# Front-tier staging log region (per-slab persistent write-ahead records
# for small sync writes; zero on images formatted before the staging
# tier or too small to carve the region).
_OFF_STAGING_PAGE = 152
_OFF_STAGING_PAGES = 160
# FACT IAA mark: 1 + the number of IAA slots, counted from the start of
# the IAA, that may hold an entry — no valid slot sits at or above it.
# Raised (never lowered) by ``FACT.insert`` before its first store past
# it; zero on images formatted before the mark (read: the whole IAA).
_OFF_IAA_MARK = 168
# First page of the FACT's DAA chunk map, carved right after the FACT;
# zero on images formatted before the map (read: the whole DAA).
_OFF_FACT_MAP_PAGE = 176
_SB_BYTES = 184
#: The geometry's words, in :class:`Geometry`'s field order.
_GEOMETRY = (_OFF_TOTAL_PAGES, _OFF_INODE_TABLE_PAGE, _OFF_INODE_CAPACITY,
             _OFF_JOURNAL_PAGE, _OFF_DWQ_SAVE_PAGE, _OFF_DWQ_SAVE_PAGES,
             _OFF_FACT_PAGE, _OFF_FACT_PREFIX_BITS, _OFF_DATA_START_PAGE,
             _OFF_CKPT_PAGE, _OFF_CKPT_PAGES, _OFF_TENANT_PAGE,
             _OFF_TENANT_PAGES, _OFF_STAGING_PAGE, _OFF_STAGING_PAGES,
             _OFF_FACT_MAP_PAGE)
#: The words a mounted filesystem updates (the clean flag is a u32).
_RUNTIME = (_OFF_DWQ_SAVED_COUNT, _OFF_EPOCH, _OFF_HYBRID_CONF,
            _OFF_HYBRID_MODES, _OFF_IAA_MARK)

VERSION = 1


@dataclass(frozen=True)
class Geometry:
    """Computed region placement for a device."""

    total_pages: int
    inode_table_page: int
    inode_capacity: int
    journal_page: int
    dwq_save_page: int
    dwq_save_pages: int
    fact_page: int          # 0 when the filesystem has no dedup region
    fact_prefix_bits: int   # n; FACT holds 2^(n+1) 64 B entries
    data_start_page: int
    ckpt_page: int = 0      # 0 when the device is too small for a checkpoint
    ckpt_pages: int = 0
    tenant_page: int = 0    # 0 when the device has no tenant registry
    tenant_pages: int = 0
    staging_page: int = 0   # 0 when the device has no staging log
    staging_pages: int = 0
    fact_map_page: int = 0  # 0 when the image has no DAA chunk map

    @property
    def data_pages(self) -> int:
        return self.total_pages - self.data_start_page

    @property
    def fact_entries(self) -> int:
        return 2 ** (self.fact_prefix_bits + 1) if self.fact_page else 0

    @property
    def fact_bytes(self) -> int:
        return self.fact_entries * 64

    @property
    def fact_map_bytes(self) -> int:
        """The DAA chunk map's size (0 without a map)."""
        return _map_bytes(self.fact_prefix_bits) if self.fact_map_page else 0

    def areas(self) -> list[tuple[str, int, int]]:
        """``(name, first page, pages)`` of each area between superblock
        and data, in the order :meth:`compute` places them (absent: 0, 0)."""
        return [
            ("inode table", self.inode_table_page,
             math.ceil(self.inode_capacity * INODE_SIZE / PAGE_SIZE)),
            ("journal", self.journal_page, 1),
            ("DWQ save area", self.dwq_save_page, self.dwq_save_pages),
            ("FACT", self.fact_page, math.ceil(self.fact_bytes / PAGE_SIZE)),
            ("FACT chunk map", self.fact_map_page,
             math.ceil(self.fact_map_bytes / PAGE_SIZE)),
            ("checkpoint", self.ckpt_page, self.ckpt_pages),
            ("tenant registry", self.tenant_page, self.tenant_pages),
            ("staging log", self.staging_page, self.staging_pages)]

    @staticmethod
    def compute(total_pages: int, max_inodes: int = 1024,
                with_dedup: bool = False, fact_prefix_bits: int | None = None,
                dwq_save_pages: int = 8,
                staging_pages: int = 64) -> "Geometry":
        """Plan the layout for a ``total_pages`` device.

        The FACT prefix length follows the paper's sizing rule
        ``n = ceil(log2(device pages))`` so the direct-access area can hold
        one entry per data block even with zero duplicates (§IV-C); the
        indirect area is sized equal to the DAA.
        """
        if total_pages < 16:
            raise ValueError("device too small (need >= 16 pages)")
        if max_inodes < 2:
            raise ValueError("need at least 2 inodes (root + one file)")
        inode_table_page = 1
        it_pages = math.ceil(max_inodes * INODE_SIZE / PAGE_SIZE)
        journal_page = inode_table_page + it_pages
        dwq_save_page = journal_page + 1
        fact_page = fact_map_page = 0
        n = 0
        data_start = dwq_save_page + dwq_save_pages
        if with_dedup:
            n = (fact_prefix_bits if fact_prefix_bits is not None
                 else max(1, math.ceil(math.log2(total_pages))))
            fact_page = data_start
            fact_pages = math.ceil((2 ** (n + 1)) * 64 / PAGE_SIZE)
            fact_map_page = fact_page + fact_pages
            data_start = fact_map_page + math.ceil(_map_bytes(n) / PAGE_SIZE)
            if 2 ** n < total_pages:
                raise ValueError(
                    f"FACT prefix bits n={n} too small: delete pointers "
                    f"index the DAA by block address, so 2^n must cover "
                    f"all {total_pages} device pages"
                )
        if data_start >= total_pages - 2:
            raise ValueError(
                f"layout leaves no data pages: metadata needs "
                f"{data_start} of {total_pages} pages"
            )
        # Clean-unmount checkpoint region: sized for the inode records,
        # free-list extents, and FACT occupancy summary of a full device.
        # Skipped when carving it out would eat into the data pages of a
        # small device (old images read these fields back as zero and
        # simply never fast-remount).
        ckpt_page = 0
        ckpt_pages = 0
        want_bytes = (64 + 24 + max_inodes * 48
                      + (total_pages // 32) * 16 + 4096)
        want = math.ceil(want_bytes / PAGE_SIZE)
        if data_start + want < total_pages - max(2, total_pages // 8):
            ckpt_page = data_start
            ckpt_pages = want
            data_start += want
        # Tenant registry: two one-page A/B slots, written alternately so
        # a torn save leaves the previous table intact.  Skipped on
        # devices too small to give up two pages (tenant support is then
        # simply absent, matching pre-tenant images that read zero here).
        tenant_page = 0
        tenant_pages = 0
        if data_start + 2 < total_pages - max(2, total_pages // 8):
            tenant_page = data_start
            tenant_pages = 2
            data_start += 2
        # Front-tier staging log: per-slab append regions that absorb
        # small sync writes with one fence each.  Skipped on devices too
        # small to give the region up without starving the data area
        # (staging is then simply unavailable, and pre-staging images
        # read zero here).
        staging_page = 0
        staging_npages = 0
        if staging_pages > 0 \
                and data_start + staging_pages \
                < total_pages - max(2, total_pages // 8):
            staging_page = data_start
            staging_npages = staging_pages
            data_start += staging_pages
        return Geometry(
            total_pages=total_pages,
            inode_table_page=inode_table_page,
            inode_capacity=max_inodes,
            journal_page=journal_page,
            dwq_save_page=dwq_save_page,
            dwq_save_pages=dwq_save_pages,
            fact_page=fact_page,
            fact_prefix_bits=n,
            data_start_page=data_start,
            ckpt_page=ckpt_page,
            ckpt_pages=ckpt_pages,
            tenant_page=tenant_page,
            tenant_pages=tenant_pages,
            staging_page=staging_page,
            staging_pages=staging_npages,
            fact_map_page=fact_map_page,
        )


def _map_bytes(prefix_bits: int) -> int:
    """A DAA chunk map of ``2^prefix_bits`` slots: one bit per
    :data:`FACT_CHUNK_SLOTS` slots, in whole 8-byte words."""
    chunks = -(-2 ** prefix_bits // FACT_CHUNK_SLOTS)
    return -(-chunks // 64) * 8


def _geometry_problem(geo: Geometry, device_pages: int) -> str | None:
    """Why ``geo`` cannot be the layout of a ``device_pages`` device."""
    if geo.total_pages != device_pages:
        return (f"total_pages {geo.total_pages} on a device of "
                f"{device_pages} pages")
    if geo.inode_capacity < 2:
        return f"inode capacity {geo.inode_capacity}"
    if geo.fact_page and geo.fact_prefix_bits > 63:
        return f"FACT prefix bits {geo.fact_prefix_bits}"
    end = 1  # page 0 is the superblock
    for name, page, pages in [*geo.areas(), ("data", geo.data_start_page, 1)]:
        if page == 0 == pages:
            continue  # an optional region the image was formatted without
        if page < end:
            return (f"{name} region at page {page}, before page {end} "
                    f"where the region ahead of it ends")
        end = page + pages
    if end > geo.total_pages:
        return f"regions end at page {end} of {geo.total_pages}"
    return None


class Superblock:
    """The superblock's DRAM record (linux-nova's ``nova_sb_info``), the
    filesystem's ``fs.sb``: a getter returns the record's value, a setter
    makes its word's one atomic persisted store and updates the record."""

    def __init__(self, dev: PMDevice, geo: Geometry, words: dict[int, int]):
        self.dev = dev
        self.geo = geo
        self._words = words     # offset -> value of each runtime word

    # -- mkfs / mount ------------------------------------------------------------

    @classmethod
    def format(cls, dev: PMDevice, geo: Geometry) -> "Superblock":
        dev.zero_range(0, PAGE_SIZE)
        # The geometry, a saved-DWQ count and an epoch of 0, by address.
        for off, value in sorted([*zip(_GEOMETRY, astuple(geo)),
                                  (_OFF_DWQ_SAVED_COUNT, 0), (_OFF_EPOCH, 0)]):
            dev.write_atomic64(off, value)
        if geo.fact_page:
            dev.write_atomic64(_OFF_IAA_MARK, 1)  # a mark of 0 slots
        dev.write_u32(_OFF_VERSION, VERSION)
        dev.write_u32(_OFF_CLEAN, 1)
        # Clear the journal: an old image's committed rename is not ours.
        dev.zero_range(geo.journal_page * PAGE_SIZE, 16)
        dev.persist(0, _SB_BYTES)
        if geo.tenant_pages:
            # Re-mkfs over an old tenant-bearing image must not resurrect
            # its stale registry slots.
            dev.zero_range(geo.tenant_page * PAGE_SIZE,
                           geo.tenant_pages * PAGE_SIZE, persist=True)
        if geo.staging_pages:
            # Same for stale staging records: replay must never resurrect
            # writes from a previous filesystem generation.
            dev.zero_range(geo.staging_page * PAGE_SIZE,
                           geo.staging_pages * PAGE_SIZE, persist=True)
        if geo.fact_map_page:
            # A fresh map marks no chunk (the FACT's DRAM copy starts zero).
            dev.zero_range(geo.fact_map_page * PAGE_SIZE, geo.fact_map_bytes,
                           persist=True)
        # Magic last: a crash mid-mkfs leaves no valid filesystem.
        dev.write_atomic64(_OFF_MAGIC, MAGIC, persist=True)
        return cls(dev, geo, dict.fromkeys(_RUNTIME, 0)
                   | {_OFF_CLEAN: 1, _OFF_IAA_MARK: int(bool(geo.fact_page))})

    @classmethod
    def load(cls, dev: PMDevice) -> "Superblock":
        """The record mkfs stored, read with one device request."""
        return cls.decode(dev, dev.read(0, _SB_BYTES))

    @classmethod
    def decode(cls, dev, raw) -> "Superblock":
        """The record in ``raw`` (``dev``'s bytes from offset 0);
        :class:`CorruptImage` for no filesystem (mkfs stores the magic
        last), another layout version, or a geometry not ``dev``'s."""
        def word(off: int, n: int = 8) -> int:
            return int.from_bytes(raw[off:off + n], "little")

        if word(_OFF_MAGIC) != MAGIC:
            raise CorruptImage("no filesystem on device (bad magic)")
        if word(_OFF_VERSION, 4) != VERSION:
            raise CorruptImage(f"superblock version {word(_OFF_VERSION, 4)}"
                               f", not {VERSION}")
        geo = Geometry(*map(word, _GEOMETRY))
        problem = _geometry_problem(geo, dev.size // PAGE_SIZE)
        if problem:
            raise CorruptImage(f"superblock geometry is not this "
                               f"device's: {problem}")
        return cls(dev, geo, {off: word(off) for off in _RUNTIME}
                   | {_OFF_CLEAN: word(_OFF_CLEAN, 4)})

    def _store(self, off: int, value: int) -> None:
        self.dev.write_atomic64(off, value, persist=True)
        self._words[off] = value

    # -- runtime flags --------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return self._words[_OFF_CLEAN] == 1

    def set_clean(self, clean: bool) -> None:
        self.dev.write_u32(_OFF_CLEAN, 1 if clean else 0, persist=True)
        self._words[_OFF_CLEAN] = 1 if clean else 0

    @property
    def epoch(self) -> int:
        return self._words[_OFF_EPOCH]

    def bump_epoch(self) -> int:
        self._store(_OFF_EPOCH, self.epoch + 1)
        return self.epoch

    @property
    def dwq_saved_count(self) -> int:
        return self._words[_OFF_DWQ_SAVED_COUNT]

    def set_dwq_saved_count(self, count: int) -> None:
        self._store(_OFF_DWQ_SAVED_COUNT, count)

    # -- hybrid-dedup policy words ------------------------------------------------

    @property
    def hybrid_conf(self) -> int:
        """0 = not a hybrid image (also the value on pre-hybrid images)."""
        return self._words[_OFF_HYBRID_CONF]

    def set_hybrid_conf(self, conf: int) -> None:
        self._store(_OFF_HYBRID_CONF, conf)

    @property
    def hybrid_modes(self) -> int:
        """Packed 4-bit per-shard policy modes (up to 16 shards)."""
        return self._words[_OFF_HYBRID_MODES]

    def set_hybrid_modes(self, modes: int) -> None:
        self._store(_OFF_HYBRID_MODES, modes)

    # -- FACT IAA mark ---------------------------------------------------------

    def iaa_mark(self) -> int | None:
        """IAA slots that may hold an entry; None on an image formatted
        before the mark (every slot may)."""
        word = self._words[_OFF_IAA_MARK]
        return word - 1 if word else None

    def set_iaa_mark(self, slots: int) -> None:
        self._store(_OFF_IAA_MARK, slots + 1)
