"""Front-tier persistent staging log for small sync writes.

Small synchronous writes are the pathological case for the Fig. 1 write
discipline: a 4 KB append pays a CoW page allocation, a data NT-store, a
log-entry append, and an atomic tail commit — three-plus fence-ordered
persists on the critical path.  Under high thread counts those fences
(and the bandwidth-slot occupancy they imply) collapse small-file
throughput (fig. 9).

The staging log absorbs such writes with **one** NT-store + **one**
fence: the write's bytes and metadata are framed into a CRC-protected
record and appended to a per-slab region carved at mkfs
(:class:`repro.nova.layout.Geometry` ``staging_page/staging_pages``).
The record *is* the durability point — NOVA's "durable at syscall
return" contract holds — and a background destage replays the record
through the normal write path (CoW, log entry, tenant accounting, dedup
pipeline) off the critical path.

Persistence format
------------------

Each slab starts with a 64 B header::

    u64 slab magic
    u64 completed_seq      # watermark: records <= this are destaged

followed by 64 B-aligned records::

    u32 magic  u32 length  u64 ino  u64 offset  u64 seq   (32 B)
    u32 crc    u32 pad                                    (8 B)
    payload[length], zero-padded to the next 64 B boundary

A record whose ``offset`` is the all-ones sentinel is a **create**
record (payload: ``u64 parent_ino`` + leaf name): the whole small-file
op — create *and* its writes — stages as SplitFS/NVLog stage metadata
alongside data.  A staged create reserves its ino and builds the DRAM
cache in the foreground; the persistent inode record and parent dentry
append happen at destage (inode first, dentry second — the direct
path's orphan-collection order).  Until then the inode-table slot stays
invalid, so a crash simply re-creates the file from the record with the
same ino (:meth:`repro.nova.inode.InodeTable.claim`).

``crc`` covers the first 32 header bytes plus the payload, so a torn
record (crash mid-store) fails validation and is — correctly — not
replayed: the crash happened before the write's single commit fence.
``seq`` is per-slab monotonic and **never resets**; a replay scan stops
at the first invalid or non-increasing record, so stale records from a
previous slab generation can never resurrect.  Each append also writes
a 64 B zero terminator after the record (same NT-store granularity, same
single fence) so the scan terminates deterministically even on reused
slab space.

Ordering rules
--------------

* Records for one inode always land in one slab (``slab = ino % nslabs``)
  in ``seq`` order, and are destaged in that order — destage is a replay
  of the original write sequence.
* Any conflicting operation (large/direct write, truncate, reflink
  source, unlink of the last link) drains or discards the inode's staged
  records *first*, so the main write path never runs ahead of the
  staging tier.
* A destaged/discarded record is *persistently invalidated* before slab
  space is reused and before a conflicting direct write proceeds, so
  replay after a crash re-applies only records whose effect could not
  have been superseded.  Two mechanisms cover this: the per-slab
  watermark covers a slab's contiguous done-prefix, and — because slabs
  are shared across inodes (``ino % nslabs``) — a done record stuck
  behind another inode's still-pending record gets a per-record
  **tombstone**: the ``pad`` word of its header (outside the CRC) is
  flipped with one atomic store, sharing a cache line with the already-
  written ``crc``.  Replay skips tombstoned records.  Re-applying an
  already-destaged record that lost neither race is idempotent (absolute
  offset, same bytes, no intervening writes are possible before the
  invalidation persists).

Quota: admission (``check_pages``) happens at stage time, exactly as
gross as a direct write's check; the destage replays under a quota
*bypass* so the net ``account_pages`` charge — identical to the direct
path's — is applied once, by the normal write path.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.nova.errors import FSError
from repro.nova.layout import PAGE_SIZE

__all__ = ["StagingLog"]

_SLAB_MAGIC = 0x47415453_42414C53          # "SLABSTAG"
_REC_MAGIC = 0x47415453                    # "STAG"
_SLAB_HDR = 64
_REC_HDR = 40
_TERM = bytes(64)                          # record-scan terminator
#: Bit set in a record's ``pad`` word once it is destaged/discarded but
#: not (yet) covered by its slab's watermark.  ``pad`` is outside the
#: CRC, so the flip never invalidates the frame; ``crc``+``pad`` share
#: one 8-aligned word, so the flip is a single atomic store.
_TOMB_FLAG = 1
#: ``offset`` sentinel marking a *create* record: payload is
#: ``u64 parent_ino`` + the leaf name (the SplitFS-style whole-op
#: absorption — metadata ops stage alongside the data they precede).
_CREATE_OFF = (1 << 64) - 1
_FRAME_HDR = struct.Struct("<IIQQQ")       # magic, length, ino, offset, seq
_FRAME_TAIL = struct.Struct("<II")         # crc, pad (tombstone word)


def _align64(n: int) -> int:
    return (n + 63) & ~63


@dataclass
class _Rec:
    """DRAM shadow of one persisted staging record."""

    ino: int
    offset: int
    length: int
    data: bytes
    seq: int
    stage_ns: float
    trace_id: Optional[int] = None
    done: bool = False
    kind: str = "write"        # "write" | "create"
    parent_ino: int = 0        # create records only
    name: str = ""             # create records only
    addr: int = 0              # device address of the record header
    crc: int = 0               # persisted CRC (re-stored by a tombstone)
    tombed: bool = False       # per-record invalidation persisted


@dataclass
class _Slab:
    base: int                  # device byte address of the slab header
    end: int                   # one past the last usable byte
    write_off: int = 0         # next record's device address
    next_seq: int = 1
    completed_seq: int = 0     # in-DRAM watermark (persisted at base+8)
    recs: list = field(default_factory=list)

    @property
    def data_base(self) -> int:
        return self.base + _SLAB_HDR


class StagingLog:
    """Per-slab persistent write-ahead staging for small sync writes."""

    def __init__(self, fs):
        self.fs = fs
        self.dev = fs.dev
        geo = fs.geo
        if not geo.staging_pages:
            raise ValueError("image has no staging region")
        # Slab geometry derives from the *persistent* region size only —
        # never from mount-time knobs like cpus — so a remount (possibly
        # with a different thread count) sees the same slab boundaries
        # it must replay.  16 pages/slab holds ~15 page-sized records.
        self.nslabs = max(1, geo.staging_pages // 16)
        self.slab_pages = geo.staging_pages // self.nslabs
        self._slabs: list[_Slab] = []
        for i in range(self.nslabs):
            base = (geo.staging_page + i * self.slab_pages) * PAGE_SIZE
            self._slabs.append(
                _Slab(base=base, end=base + self.slab_pages * PAGE_SIZE))
        for slab in self._slabs:
            slab.write_off = slab.data_base
        #: Largest payload a slab can hold in one record.
        self.max_payload = (self.slab_pages * PAGE_SIZE
                            - _SLAB_HDR - _REC_HDR - 64)
        self._by_ino: dict[int, list[_Rec]] = {}
        # Staged-but-unmapped page offsets per inode: quota admission for
        # a burst of staged writes must not collectively exceed what the
        # same burst of direct writes could have admitted.
        self._pending_pgoffs: dict[int, set[int]] = {}
        #: True while destage/replay runs — its fs.write calls must not
        #: re-enter the staging tier.
        self.active = False
        #: Called (outside any lock) when a slab rejects an append —
        #: the concurrency layer points this at its destage-worker kick.
        self.on_pressure: Optional[Callable[[], None]] = None

        reg = fs.obs.registry
        self._c_absorbed = reg.counter(
            "staging.absorbed_writes_total",
            help="small sync writes absorbed by the staging log")
        self._c_absorbed_bytes = reg.counter(
            "staging.absorbed_bytes_total",
            help="payload bytes absorbed by the staging log")
        self._c_created = reg.counter(
            "staging.absorbed_creates_total",
            help="file creates absorbed by the staging log")
        self._c_fallback = reg.counter(
            "staging.fallback_total",
            help="absorb attempts rejected (slab full) and retried "
                 "through the direct write path")
        self._c_destaged = reg.counter(
            "staging.destaged_records_total",
            help="records replayed through the normal write path")
        self._c_replayed = reg.counter(
            "staging.replayed_records_total",
            help="records recovered from the staging region at mount")
        self._c_discarded = reg.counter(
            "staging.discarded_records_total",
            help="records dropped (inode unlinked before destage, or "
                 "replay target gone)")
        reg.gauge_fn("staging.depth",
                     lambda: sum(len(v) for v in self._by_ino.values()),
                     help="staged records awaiting destage")
        reg.gauge_fn("staging.bytes",
                     lambda: sum(r.length for v in self._by_ino.values()
                                 for r in v),
                     help="staged payload bytes awaiting destage")
        self._h_lag = reg.histogram(
            "staging.destage_lag_ns",
            help="simulated ns between a record's stage and its destage")

    # ------------------------------------------------------------ queries

    def has_pending(self, ino: int) -> bool:
        return bool(self._by_ino.get(ino))

    def has_pending_create(self, ino: int) -> bool:
        """True when ``ino``'s *create* is itself still staged.

        Namespace ops that persist a dentry referencing the inode
        (rename, link) must drain first: a persistent dentry pointing at
        a never-persisted inode would dangle after a crash.
        """
        return any(r.kind == "create" for r in self._by_ino.get(ino, ()))

    def slab_fill(self, ino: int) -> float:
        """Occupancy fraction of the slab ``ino`` stages into (0..1)."""
        slab = self._slabs[ino % self.nslabs]
        return ((slab.write_off - slab.data_base)
                / (slab.end - slab.data_base))

    def pending_inos(self) -> list[int]:
        return sorted(ino for ino, recs in self._by_ino.items() if recs)

    @property
    def depth(self) -> int:
        return sum(len(v) for v in self._by_ino.values())

    def stats(self) -> dict:
        return {
            "slabs": self.nslabs,
            "slab_pages": self.slab_pages,
            "pending_records": self.depth,
            "pending_bytes": sum(r.length for v in self._by_ino.values()
                                 for r in v),
            "absorbed": int(self._c_absorbed.value),
            "absorbed_bytes": int(self._c_absorbed_bytes.value),
            "absorbed_creates": int(self._c_created.value),
            "fallbacks": int(self._c_fallback.value),
            "destaged": int(self._c_destaged.value),
            "replayed": int(self._c_replayed.value),
            "discarded": int(self._c_discarded.value),
        }

    # ------------------------------------------------------------ absorb

    def _slab_for(self, ino: int, payload_len: int) -> Optional[_Slab]:
        """The slab ``ino`` stages into, if one more frame fits."""
        if payload_len > self.max_payload:
            return None
        slab = self._slabs[ino % self.nslabs]
        if (slab.write_off + _align64(_REC_HDR + payload_len) + len(_TERM)
                > slab.end):
            self._c_fallback.inc()
            if self.on_pressure is not None:
                self.on_pressure()
            return None
        return slab

    def _append(self, slab: _Slab, ino: int, offset: int, payload: bytes,
                **shadow) -> None:
        """The commit point: one NT-store, one fence.  A crash before
        the fence leaves a torn/invalid record — the op never happened;
        after it, replay applies the op."""
        seq = slab.next_seq
        slab.next_seq += 1
        hdr = _FRAME_HDR.pack(_REC_MAGIC, len(payload), ino, offset, seq)
        crc = zlib.crc32(hdr + payload) & 0xFFFFFFFF
        frame = hdr + _FRAME_TAIL.pack(crc, 0) + payload
        frame += bytes(_align64(len(frame)) - len(frame))
        addr = slab.write_off
        self.dev.write(addr, frame + _TERM, nt=True)
        self.dev.sfence()
        slab.write_off += len(frame)

        rec = _Rec(ino=ino, offset=offset, length=len(payload),
                   data=bytes(payload), seq=seq,
                   stage_ns=self.fs.clock.now_ns,
                   trace_id=self.fs.obs.tracer.current_trace_id,
                   addr=addr, crc=crc, **shadow)
        slab.recs.append(rec)
        self._by_ino.setdefault(ino, []).append(rec)

    def try_stage(self, ino: int, offset: int, data: bytes) -> bool:
        """Absorb one small write; False means the caller must fall back.

        Raises exactly what the direct path would for a bad target or an
        over-quota write (FileNotFound / IsADirectory / ReadOnlyFile /
        QuotaExceeded) — absorption never weakens those contracts.
        """
        fs = self.fs
        cache = fs._file_cache(ino, for_write=True)
        if offset > cache.inode.size and fs._stale_tail(cache):
            return False    # the direct write zeroes what a shrink left
        slab = self._slab_for(ino, len(data))
        if slab is None:
            return False

        with fs.obs.span("staging.absorb", ino=ino, bytes=len(data)):
            fs.clock.advance(fs.cpu_model.syscall_ns)
            pg_first = offset // PAGE_SIZE
            pg_last = (offset + len(data) - 1) // PAGE_SIZE
            pending = self._pending_pgoffs.setdefault(ino, set())
            # Gross check, like a direct write's, plus the pages earlier
            # staged writes will charge when they destage.  A pgoff both
            # in this write's span and in ``pending`` is deliberately
            # counted twice: had the burst run direct, the page would
            # already be charged (in ``used``) and the overwrite's gross
            # CoW check would count it again — ``used + npages``.  The
            # staged check is in exact parity, not stricter.
            span = range(pg_first, pg_last + 1)
            fs.tenants.check_pages(ino, len(span) + len(pending))
            for pgoff in span:
                if cache.index.block_of(pgoff) is None:
                    pending.add(pgoff)

            self._append(slab, ino, offset, data)
            new_size = max(cache.inode.size, offset + len(data))
            cache.inode.size = new_size
            cache.inode.mtime = fs.stamp()
            self._c_absorbed.inc()
            self._c_absorbed_bytes.inc(len(data))
        return True

    def try_stage_create(self, parent_ino: int, name: str,
                         ino: int) -> bool:
        """Absorb a file create; the record is the create's commit point.

        The caller has already *reserved* ``ino`` (DRAM only — no inode
        table write) and performs the DRAM-side create when this returns
        True; on False it must unreserve and take the direct path.  The
        persistent inode record and the parent-dir dentry append happen
        at destage, in the same inode-then-dentry order as a direct
        create, so the orphan-collection contract is unchanged.
        """
        payload = struct.pack("<Q", parent_ino) + name.encode()
        slab = self._slab_for(ino, len(payload))
        if slab is None:
            return False
        with self.fs.obs.span("staging.absorb", ino=ino, kind="create"):
            self._append(slab, ino, _CREATE_OFF, payload, kind="create",
                         parent_ino=parent_ino, name=name)
            self._c_created.inc()
        return True

    # ------------------------------------------------------------ reads

    def overlay(self, ino: int, offset: int, out: bytearray) -> None:
        """Patch staged-but-undestaged bytes over an assembled read."""
        recs = self._by_ino.get(ino)
        if not recs:
            return
        end = offset + len(out)
        for rec in recs:  # seq order: later records win
            if rec.kind != "write":
                continue
            if rec.offset >= end or rec.offset + rec.length <= offset:
                continue
            lo = max(rec.offset, offset)
            hi = min(rec.offset + rec.length, end)
            out[lo - offset:hi - offset] = \
                rec.data[lo - rec.offset:hi - rec.offset]

    # ------------------------------------------------------------ destage

    def drain_ino(self, ino: int, cpu: Optional[int] = None) -> int:
        """Replay every staged record of ``ino`` through the write path."""
        recs = self._by_ino.get(ino)
        if not recs:
            return 0
        fs = self.fs
        if cpu is None:
            cpu = ino % fs.cpus
        self.active = True
        n = 0
        try:
            with fs.obs.span("staging.destage", ino=ino,
                             records=len(recs)):
                with fs.tenants.bypass_quota():
                    for rec in list(recs):
                        ctx = (fs.obs.tracer.use_trace(rec.trace_id)
                               if rec.trace_id is not None
                               else nullcontext())
                        with ctx:
                            if rec.kind == "create":
                                fs._destage_create(rec.parent_ino,
                                                   rec.name, ino, cpu)
                            else:
                                fs.write(ino, rec.offset, rec.data,
                                         cpu=cpu)
                        rec.done = True
                        n += 1
                        self._c_destaged.inc()
                        self._h_lag.observe(fs.clock.now_ns - rec.stage_ns)
        finally:
            self.active = False
            self._forget_done(ino)
            self._advance_watermarks()
        return n

    def drain_all(self) -> int:
        n = 0
        for ino in self.pending_inos():
            n += self.drain_ino(ino)
        return n

    def discard_ino(self, ino: int) -> int:
        """Drop staged records whose inode body is going away."""
        recs = self._by_ino.get(ino)
        if not recs:
            return 0
        n = 0
        for rec in recs:
            rec.done = True
            n += 1
            self._c_discarded.inc()
        self._forget_done(ino)
        self._advance_watermarks()
        return n

    def _forget_done(self, ino: int) -> None:
        live = [r for r in self._by_ino.get(ino, ()) if not r.done]
        if live:
            self._by_ino[ino] = live
            # Keep only still-unmapped offsets pending (a partial drain
            # mapped some of them).
            cache = self.fs.caches.get(ino)
            if cache is not None:
                pending = self._pending_pgoffs.get(ino)
                if pending:
                    self._pending_pgoffs[ino] = {
                        p for p in pending
                        if cache.index.block_of(p) is None}
        else:
            self._by_ino.pop(ino, None)
            self._pending_pgoffs.pop(ino, None)

    def _advance_watermarks(self) -> None:
        """Persistently invalidate every done record, before returning.

        The contiguous done-prefix advances the slab watermark; done
        records stuck behind another inode's still-pending record (slabs
        are shared: ``ino % nslabs``) get a per-record tombstone instead.
        Both persist *before* the slab space becomes reusable and before
        the caller's conflicting operation proceeds — see the module
        docstring's ordering rules — so replay can never re-apply a
        record whose effect a later direct write or unlink superseded.
        """
        for slab in self._slabs:
            dirty = False
            while slab.recs and slab.recs[0].done:
                slab.completed_seq = slab.recs.pop(0).seq
                dirty = True
            if dirty:
                self.dev.write_atomic64(slab.base + 8, slab.completed_seq)
                self.dev.clwb(slab.base + 8, 8)
            for rec in slab.recs:
                if rec.done and not rec.tombed:
                    # One atomic store re-writes the crc|pad word with
                    # the tombstone bit set; the CRC (which does not
                    # cover pad) stays valid, so the scan still walks
                    # past the record to later live ones.
                    self.dev.write_atomic64(
                        rec.addr + 32, rec.crc | (_TOMB_FLAG << 32))
                    self.dev.clwb(rec.addr + 32, 8)
                    rec.tombed = True
                    dirty = True
            if dirty:
                self.dev.sfence()
                if not slab.recs:
                    # Fully drained: rewind the append cursor.  Stale
                    # record bytes beyond the terminator cannot replay —
                    # their seq is <= the persisted watermark.
                    slab.write_off = slab.data_base
            # Invalidation coverage is unconditional: every done record
            # is now below the watermark or durably tombstoned.
            assert all(r.tombed for r in slab.recs if r.done)

    # ------------------------------------------------------------ recovery

    def replay(self) -> dict:
        """Scan every slab at mount; re-apply undestaged valid records.

        Runs after the tenant ownership rebuild (charges need owners) and
        is idempotent: a crash mid-replay just replays again.  Records
        whose inode vanished (unlinked, or never committed) are
        discarded, matching the direct path where the write would have
        raised.
        """
        fs = self.fs
        stats = {"slabs": self.nslabs, "scanned": 0, "replayed": 0,
                 "discarded": 0}
        self.active = True
        try:
            with fs.tenants.bypass_quota():
                for slab in self._slabs:
                    self._replay_slab(slab, stats)
        finally:
            self.active = False
        return stats

    def format(self) -> None:
        """mkfs: an empty header on every (zeroed) slab, none read."""
        for slab in self._slabs:
            self._format_slab(slab)

    def _format_slab(self, slab: _Slab) -> None:
        self.dev.write_atomic64(slab.base, _SLAB_MAGIC)
        self.dev.write_atomic64(slab.base + 8, 0)
        self.dev.persist(slab.base, _SLAB_HDR)

    def _replay_slab(self, slab: _Slab, stats: dict) -> None:
        dev = self.dev
        fs = self.fs
        magic, persisted = struct.unpack("<QQ", dev.read(slab.base, 16))
        if magic != _SLAB_MAGIC:
            # Fresh (zeroed) region — or garbage, which must not replay.
            return self._format_slab(slab)
        slab.completed_seq = persisted
        pos = slab.data_base
        prev_seq = 0
        max_seq = slab.completed_seq
        candidates: list[tuple[int, int, bytes, int]] = []
        while pos + _REC_HDR <= slab.end:
            hdr = dev.read(pos, _REC_HDR)
            magic, length, ino, offset, seq = _FRAME_HDR.unpack_from(hdr, 0)
            if magic != _REC_MAGIC or length == 0 \
                    or length > self.max_payload:
                break
            size = _align64(_REC_HDR + length)
            if pos + size > slab.end or seq <= prev_seq:
                break  # a previous slab generation's leftover
            payload = dev.read(pos + _REC_HDR, length)
            crc, pad = _FRAME_TAIL.unpack_from(hdr, _FRAME_HDR.size)
            if zlib.crc32(hdr[:_FRAME_HDR.size] + payload) \
                    & 0xFFFFFFFF != crc:
                break  # torn append: the write never committed
            stats["scanned"] += 1
            prev_seq = seq
            max_seq = max(max_seq, seq)
            if seq > slab.completed_seq and not pad & _TOMB_FLAG:
                # Tombstoned records were destaged or discarded before a
                # conflicting op proceeded; replaying them would clobber
                # that op's newer state.
                candidates.append((ino, offset, payload, seq))
            pos += size
        if candidates:
            # Span only when there is real replay work: a clean mount's
            # scan must leave no observability trace behind.
            with fs.obs.span("staging.replay", records=len(candidates)):
                for ino, offset, payload, seq in candidates:
                    if offset == _CREATE_OFF:
                        parent_ino, = struct.unpack_from("<Q", payload, 0)
                        name = payload[8:].decode()
                        if fs._replay_create(parent_ino, name, ino):
                            stats["replayed"] += 1
                            self._c_replayed.inc()
                        else:
                            stats["discarded"] += 1
                            self._c_discarded.inc()
                        continue
                    try:
                        fs._file_cache(ino, for_write=True)
                    except FSError:
                        stats["discarded"] += 1
                        self._c_discarded.inc()
                    else:
                        fs.write(ino, offset, payload, cpu=ino % fs.cpus)
                        stats["replayed"] += 1
                        self._c_replayed.inc()
        slab.completed_seq = max_seq
        slab.next_seq = max_seq + 1
        slab.write_off = slab.data_base
        if candidates or persisted != slab.completed_seq:
            dev.write_atomic64(slab.base + 8, slab.completed_seq,
                               persist=True)
        # Terminate the (now logically empty) slab so the next scan never
        # walks into this generation's leftovers.
        dev.write(slab.data_base, _TERM, nt=True)
        dev.sfence()
