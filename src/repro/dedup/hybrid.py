"""Adaptive hybrid inline/offline dedup (weak + strong fingerprints).

The paper argues (Eq. 1-5) that inline dedup cannot win on PM because
the strong fingerprint is too expensive for the critical path.  This
module tests the boundary of that claim with the GogetaFS scheme: a
cheap CRC32 **weak** fingerprint computed inline at write time as a
pre-filter, with the SHA-1 **strong** confirmation deferred to the DWQ
daemon.  Three per-shard policy modes:

* ``delayed`` — every write enqueues, exactly like stock DeNova; the
  daemon itself still goes weak-first (strong hashes only pages whose
  weak fingerprint collides with a registered block).
* ``inline`` — the weak fingerprint runs in the write path.  Entries
  whose pages all weak-miss are *registered and completed immediately*
  (no DWQ node, no daemon work — the common case at low duplicate
  ratios); any weak hit defers the entry to the daemon with DRAM-only
  per-page hints.
* ``off`` — no dedup for new writes at all; the controller probes its
  way back periodically.

Weak fingerprints are **hints, never truth**: a page is shared only
after the daemon read the candidate block and its SHA-1 matched — a
weak-hit/strong-miss always falls back to keeping the real write, so
aliasing is impossible by construction.  Candidate blocks are always
*live* (the DRAM weak index holds only radix-referenced blocks;
:meth:`HybridDeNovaFS.reclaim_extents` and ``free_extents`` unregister
freed pages), and committed CoW data pages are immutable until freed, so
reading a candidate races nothing.

Persistence: the weak fingerprint of block *B* lives in bytes 60..64 of
FACT slot *B* (the "weak column", indexed by block address like the
delete column; 0 = unregistered, a genuine CRC of 0 is remapped to 1).
FACT entries are materialized **lazily** — a weak-miss page gets only a
weak registration (one 4-byte persisted store), and the full 64-byte
entry is inserted the first time another page weak-hits it and the
strong fingerprints confirm.  The per-shard policy mode is packed into
one superblock word (4 bits per shard), so a transition is a single
atomic persisted store and recovery always restores a consistent mode.

After a crash, the DRAM weak index is rebuilt from the weak column
intersected with the radix-derived set of live data blocks; stale column
values (blocks freed by scrub, or reused while a shard was ``off``) at
worst cost an extra strong comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dedup.daemon import DedupDaemon, NodeTask
from repro.dedup.denova import DeNovaFS
from repro.dedup.dwq import HINT_REGISTERED, DWQNode
from repro.dedup.fact import FactTxn, LookupResult
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_NEEDED,
    WriteEntry,
)
from repro.nova.inode import ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.nova.radix import page_refs

__all__ = ["HybridDeNovaFS", "HybridDedupDaemon", "HybridController",
           "HybridPolicy", "MODE_DELAYED", "MODE_INLINE", "MODE_OFF",
           "MODE_NAMES"]

# Policy modes, packed 4 bits per shard into the superblock modes word.
# ``delayed`` is 0 on purpose: a zeroed word (a plain DeNova image, or a
# torn first transition) decodes to stock-DeNova behaviour everywhere.
MODE_DELAYED = 0
MODE_INLINE = 1
MODE_OFF = 2
MODE_NAMES = {MODE_DELAYED: "delayed", MODE_INLINE: "inline",
              MODE_OFF: "off"}

_CONF_MARKER = 1          # bit 0 of the superblock conf word
_CONF_SHARD_SHIFT = 8     # bits 8..15: policy shard count
MAX_POLICY_SHARDS = 16    # 4-bit modes x 16 shards = one u64


@dataclass(frozen=True)
class HybridPolicy:
    """Controller thresholds (all observable in the decision log)."""

    window_pages: int = 64            # pages per decision window
    alpha_low: float = 0.02           # weak-hit ratio below which dedup
                                      # is buying (almost) nothing
    low_windows_off: int = 3          # consecutive low-alpha windows
                                      # before a shard turns off
    probe_pages: int = 512            # off shards re-probe after this
    depth_inline: int = 48            # DWQ backlog that flips a delayed
                                      # shard to inline (pre-filter cuts
                                      # the daemon's queue growth)
    depth_low: int = 8                # backlog considered drained
    contention_ns: float = 20_000.0   # foreground lock-wait ns/page at
                                      # which inline work moves offline


@dataclass
class _ShardState:
    mode: int = MODE_INLINE
    low_streak: int = 0
    off_pages: int = 0
    # Current-window accumulators.
    pages: int = 0
    weak_hits: int = 0
    depth_sum: int = 0
    contention_ns: float = 0.0


class HybridController:
    """Per-shard mode state machine over (alpha, depth, contention).

    Decisions are a **pure function of the observed window history**:
    :meth:`observe` folds raw per-write samples into fixed-size windows,
    and every closed window runs :meth:`decide` — a static function of
    (policy, mode, streaks, window observation) with no other inputs.
    ``decision_log`` records each closed window, so the whole run can be
    replayed through :meth:`replay` and must reproduce the same
    transitions (the determinism harness asserts exactly that).
    """

    def __init__(self, nshards: int, policy: HybridPolicy,
                 modes_word: int = 0, on_transition=None):
        if not 1 <= nshards <= MAX_POLICY_SHARDS:
            raise ValueError(f"policy shards must be 1..{MAX_POLICY_SHARDS}")
        self.nshards = nshards
        self.policy = policy
        self.on_transition = on_transition
        self.shards = [_ShardState(mode=(modes_word >> (4 * s)) & 0xF)
                       for s in range(nshards)]
        for st in self.shards:
            if st.mode not in MODE_NAMES:  # torn/garbage nibble: safe mode
                st.mode = MODE_DELAYED
        self.decision_log: list[dict] = []
        self.transitions = 0

    # ------------------------------------------------------------ queries

    def shard_of(self, ino: int) -> int:
        return ino % self.nshards

    def mode(self, shard: int) -> int:
        return self.shards[shard].mode

    def modes_word(self) -> int:
        word = 0
        for s, st in enumerate(self.shards):
            word |= (st.mode & 0xF) << (4 * s)
        return word

    def mode_counts(self) -> dict[str, int]:
        out = {name: 0 for name in MODE_NAMES.values()}
        for st in self.shards:
            out[MODE_NAMES[st.mode]] += 1
        return out

    # ------------------------------------------------------------ the machine

    @staticmethod
    def decide(policy: HybridPolicy, mode: int, low_streak: int,
               off_pages: int, alpha: float, depth: float,
               contention_ns: float) -> tuple[int, int, int]:
        """Pure transition function; returns (mode', low_streak', off_pages').

        * alpha persistently below ``alpha_low`` → ``off`` (dedup is all
          cost, no savings); ``off`` probes back to ``inline`` after
          ``probe_pages`` pages so a workload shift is noticed.
        * a ``delayed`` shard whose DWQ backlog exceeds ``depth_inline``
          goes ``inline``: the weak pre-filter completes all-unique
          entries without a queue node, cutting the backlog's growth.
        * an ``inline`` shard whose writers see heavy lock-wait while
          the daemon is drained goes ``delayed``: the inline weak pass
          is foreground work the idle daemon could absorb.
        """
        if mode == MODE_OFF:
            off_pages += policy.window_pages
            if off_pages >= policy.probe_pages:
                return MODE_INLINE, 0, 0
            return MODE_OFF, 0, off_pages
        low_streak = low_streak + 1 if alpha < policy.alpha_low else 0
        if low_streak >= policy.low_windows_off:
            return MODE_OFF, 0, 0
        if mode == MODE_DELAYED and depth > policy.depth_inline:
            return MODE_INLINE, low_streak, 0
        if (mode == MODE_INLINE and contention_ns > policy.contention_ns
                and depth < policy.depth_low):
            return MODE_DELAYED, low_streak, 0
        return mode, low_streak, 0

    def observe(self, shard: int, pages: int, weak_hits: int,
                depth: int, contention_ns: float) -> Optional[int]:
        """Fold one write's sample in; returns the new mode on transition."""
        st = self.shards[shard]
        st.pages += pages
        st.weak_hits += weak_hits
        st.depth_sum += depth * pages
        st.contention_ns += contention_ns
        if st.pages < self.policy.window_pages:
            return None
        alpha = st.weak_hits / st.pages
        depth_mean = st.depth_sum / st.pages
        cont_per_page = st.contention_ns / st.pages
        old = st.mode
        st.mode, st.low_streak, st.off_pages = self.decide(
            self.policy, st.mode, st.low_streak, st.off_pages,
            alpha, depth_mean, cont_per_page)
        self.decision_log.append({
            "shard": shard, "alpha": alpha, "depth": depth_mean,
            "contention_ns": cont_per_page, "from": old, "to": st.mode,
        })
        st.pages = st.weak_hits = st.depth_sum = 0
        st.contention_ns = 0.0
        if st.mode != old:
            self.transitions += 1
            if self.on_transition is not None:
                self.on_transition(shard, old, st.mode)
            return st.mode
        return None

    def replay(self, log: list[dict],
               initial_modes_word: int = None) -> list[dict]:
        """Re-run :meth:`decide` over a recorded window history.

        Returns the transitions a fresh controller makes from the same
        observations — byte-for-byte equal to ``log`` when decisions are
        pure (the purity regression test).
        """
        word = (self.modes_word() if initial_modes_word is None
                else initial_modes_word)
        fresh = HybridController(self.nshards, self.policy, modes_word=word)
        out = []
        for rec in log:
            st = fresh.shards[rec["shard"]]
            old = st.mode
            st.mode, st.low_streak, st.off_pages = self.decide(
                self.policy, st.mode, st.low_streak, st.off_pages,
                rec["alpha"], rec["depth"], rec["contention_ns"])
            out.append({"shard": rec["shard"], "alpha": rec["alpha"],
                        "depth": rec["depth"],
                        "contention_ns": rec["contention_ns"],
                        "from": old, "to": st.mode})
        return out


class HybridDedupDaemon(DedupDaemon):
    """Algorithm 1 with the strong hash gated behind the weak filter.

    The hash step computes (or takes from the inline pass's hints) the
    page's weak fingerprint first; only pages whose weak value collides
    with a registered live block pay the SHA-1.  A strong-index hit is
    the base class's duplicate; on a *miss* the candidate blocks are read
    back and strong-hashed — a confirmed match *lazily materializes* the
    canonical's FACT entry, a refuted one (weak false positive) registers
    the page as unique and the real write stands untouched.
    """

    def _hash_page(self, task: NodeTask, pgoff: int,
                   page: int) -> Optional[tuple[int, bytes]]:
        fs = self.fs
        hints = task.node.weak_hints
        hint = None if hints is None else hints.get(pgoff)
        if hint == HINT_REGISTERED:
            # The inline pass already weak-registered this page as
            # unique; nothing to stage (lazy — no FACT entry yet), and
            # the chunking read skipped it.
            return None
        data = task.live[pgoff]
        weak = hint if hint else (fs.fingerprinter.weak(data) or 1)
        if not fs._weak_candidates(weak, exclude=page):
            fs._register_weak(page, weak)
            if hint is None:  # inline pass (if any) already counted it
                fs._c_weak_misses.inc()
            return None
        if hint is None:
            fs._c_weak_hits.inc()
        task.weak_of[pgoff] = weak
        return page, fs.fingerprinter.strong(data)

    def _stage_miss(self, task: NodeTask, fp: bytes,
                    pages: list[tuple[int, int]], res: LookupResult) -> None:
        """Deferred strong confirmation of the first page against the weak
        candidates; the node's other pages of ``fp`` share what it found."""
        fs = self.fs
        (pgoff, page), rest = pages[0], pages[1:]
        weak = task.weak_of[pgoff]
        for cand in fs._weak_candidates(weak, exclude=page):
            if fs.fact.entry_for_block(cand) is not None:
                # Its strong fingerprint is in the index; a match would
                # have hit the lookup — different content.
                continue
            cdata = fs.dev.read(cand * PAGE_SIZE, PAGE_SIZE)
            if fs.fingerprinter.compare(fs.fingerprinter.strong(cdata), fp):
                break  # a weak-only block holds this content
        else:
            # Every candidate refuted the weak hit: a genuine false
            # positive.  The page's own write stands (it was never
            # redirected) and it registers as a unique weak-only block;
            # the node's other pages of ``fp`` duplicate it.
            fs._c_false_pos.inc()
            fs._register_weak(page, weak)
            self._c_unique.inc()
            if not rest:
                return
            cand, pages = page, rest
        # Confirmed duplicates of a weak-only block: lazily insert the
        # canonical's FACT entry, settled at RFC=1 for the canonical's own
        # live reference; these pages' staged UCs commit with the node,
        # landing at RFC=1+n — the same counts the pure-delayed pipeline
        # produces.
        cidx = task.txn.materialise(fp, cand, hint=res)
        if cidx is None:
            self._c_fact_full.inc(len(pages))
            for _pgoff, page in pages:
                fs._register_weak(page, weak)
            return
        task.txn.share(cidx, n=len(pages))
        task.dups += [(pgoff, cand, 1) for pgoff, _page in pages]
        self._c_duplicate.inc(len(pages))
        fs._c_confirmed.inc()


class HybridDeNovaFS(DeNovaFS):
    """DeNova with the adaptive weak/strong hybrid dedup pipeline."""

    variant_name = "DeNova-Hybrid"

    def __init__(self, sb, cpus: int = 1):
        super().__init__(sb, cpus)
        self.daemon = HybridDedupDaemon(self)
        # weak value -> live blocks in registration order (first block
        # registered for a content wins canonical, matching the FIFO
        # order the pure-delayed pipeline picks canonicals in).
        self._weak_index: dict[int, list[int]] = {}
        self._weak_by_block: dict[int, int] = {}
        conf = self.sb.hybrid_conf
        # Fresh mkfs (conf lands in _post_mkfs) or a plain DeNova image:
        # default shards; mkfs's zero modes word is all-delayed (stock).
        nshards = ((conf >> _CONF_SHARD_SHIFT) & 0xFF if conf & _CONF_MARKER
                   else min(cpus, MAX_POLICY_SHARDS))
        self.policy = HybridPolicy()
        self.controller = HybridController(
            max(1, nshards), self.policy, modes_word=self.sb.hybrid_modes,
            on_transition=self._on_mode_transition)
        reg = self.obs.registry
        self._c_weak_hits = reg.counter("dedup.weak_hits_total")
        self._c_weak_misses = reg.counter("dedup.weak_misses_total")
        self._c_false_pos = reg.counter("dedup.false_positive_total")
        self._c_confirmed = reg.counter("dedup.weak_confirmed_dups_total")
        self._c_inline_done = reg.counter("hybrid.inline_completions_total")
        self._c_off_writes = reg.counter("hybrid.off_writes_total")
        self._c_transitions = reg.counter("hybrid.mode_transitions_total")
        for s in range(self.controller.nshards):
            reg.gauge_fn(
                f"hybrid.shard{s}.mode",
                lambda s=s: self.controller.shards[s].mode,
                help="policy mode (0=delayed 1=inline 2=off)")
        self._last_contention_ns = 0.0

    # ------------------------------------------------------------ format/mount

    def _post_mkfs(self) -> None:
        super()._post_mkfs()
        conf = _CONF_MARKER | (self.controller.nshards << _CONF_SHARD_SHIFT)
        self.sb.set_hybrid_conf(conf)
        # All shards start inline — the pre-filter pays for itself until
        # the controller has evidence to move.
        for st in self.controller.shards:
            st.mode = MODE_INLINE
        self.sb.set_hybrid_modes(self.controller.modes_word())

    def _post_mount(self) -> None:
        super()._post_mount()
        with self.obs.span("hybrid.weak_index_rebuild"):
            self._rebuild_weak_index()

    def _rebuild_weak_index(self) -> int:
        """DRAM weak index = persisted weak column ∩ live data blocks.

        Log-derived liveness is authoritative after recovery, which is
        what keeps stale column values (freed or reused blocks) out of
        the candidate set.
        """
        column = self.fact.weak_column()
        self._weak_index.clear()
        self._weak_by_block.clear()
        for block in sorted(page_refs(self)):
            weak = column.get(block)
            if weak:
                self._weak_index.setdefault(weak, []).append(block)
                self._weak_by_block[block] = weak
        return len(self._weak_by_block)

    # ------------------------------------------------------------ weak index

    def _weak_candidates(self, weak: int, exclude: int) -> list[int]:
        return [b for b in self._weak_index.get(weak, ()) if b != exclude]

    def _register_weak(self, block: int, weak: int) -> None:
        """Register a live block's weak fingerprint (DRAM + NVM column)."""
        old = self._weak_by_block.get(block)
        if old == weak:
            return
        if old is not None:
            self._unregister_weak_dram(block, old)
        self._weak_index.setdefault(weak, []).append(block)
        self._weak_by_block[block] = weak
        self.fact.set_block_weak(block, weak)

    def _unregister_weak_dram(self, block: int, weak: int) -> None:
        blocks = self._weak_index.get(weak)
        if blocks:
            try:
                blocks.remove(block)
            except ValueError:
                pass
            if not blocks:
                del self._weak_index[weak]
        self._weak_by_block.pop(block, None)

    # ------------------------------------------------------------ write hook

    def on_write_committed(self, ino: int, entry_addr: int,
                           entry: WriteEntry, cpu: int) -> None:
        shard = self.controller.shard_of(ino)
        mode = self.controller.mode(shard)
        if mode == MODE_OFF:
            self.set_dedupe_flag(entry_addr, DEDUPE_COMPLETE)
            self._c_off_writes.inc(entry.num_pages)
            self._observe(shard, entry.num_pages, weak_hits=0)
            return
        if mode == MODE_DELAYED:
            super().on_write_committed(ino, entry_addr, entry, cpu)
            self._observe(shard, entry.num_pages, weak_hits=0)
            return
        # Inline: weak pre-filter in the write path.  The page content
        # was just written (still cache-resident — read_silent), only
        # the weak hash cost is charged to the writer.
        hints: dict[int, int] = {}
        hit_pages = 0
        for pgoff in range(entry.file_pgoff,
                           entry.file_pgoff + entry.num_pages):
            block = entry.block_for(pgoff)
            data = self.dev.read_silent(block * PAGE_SIZE, PAGE_SIZE)
            weak = self.fingerprinter.weak(data) or 1
            if self._weak_candidates(weak, exclude=block):
                hints[pgoff] = weak
                hit_pages += 1
                self._c_weak_hits.inc()
            else:
                self._register_weak(block, weak)
                hints[pgoff] = HINT_REGISTERED
                self._c_weak_misses.inc()
        if hit_pages:
            # Possible duplicates: defer the strong confirmation.  The
            # hints are DRAM-only (the 16-byte on-PM node format is
            # unchanged); a node restored after a crash simply re-runs
            # the full weak path.
            self._pending_pages[entry_addr // PAGE_SIZE] += 1
            self.dwq.enqueue(DWQNode(ino=ino, entry_addr=entry_addr,
                                     weak_hints=hints, entry=entry,
                                     cache=self.caches[ino]))
        else:
            # Every page is weak-unique: complete without daemon work.
            # A crash before this store leaves the flag dedupe_needed and
            # recovery re-enqueues the entry — the daemon's weak path
            # then converges to the same state (self-hits are excluded).
            self.set_dedupe_flag(entry_addr, DEDUPE_COMPLETE)
            self._c_inline_done.inc()
        self._observe(shard, entry.num_pages, weak_hits=hit_pages)

    def _observe(self, shard: int, pages: int, weak_hits: int) -> None:
        # Read, never created, here: the histogram belongs to the first
        # ConcurrentVFS over this fs, which registers it with its own
        # bucket layout.  Until one exists nothing has waited on a lock.
        waits = self.obs.registry.get("conc.lock_wait_ns")
        cont = waits.sum if waits is not None else 0.0
        delta = max(0.0, cont - self._last_contention_ns)
        self._last_contention_ns = cont
        self.controller.observe(shard, pages, weak_hits,
                                depth=len(self.dwq), contention_ns=delta)

    def force_mode(self, mode: int) -> None:
        """Pin every shard to one mode (CLI override, baselines, tests).

        Also neutralizes the adaptive thresholds so the controller never
        moves away from the pinned mode.
        """
        if mode not in MODE_NAMES:
            raise ValueError(f"unknown hybrid mode {mode}")
        self.controller.policy = HybridPolicy(
            alpha_low=0.0, probe_pages=2 ** 62, depth_inline=2 ** 62,
            contention_ns=float("inf"))
        self.policy = self.controller.policy
        for st in self.controller.shards:
            st.mode = mode
            st.low_streak = st.off_pages = 0
        self.sb.set_hybrid_modes(self.controller.modes_word())

    def _on_mode_transition(self, shard: int, old: int, new: int) -> None:
        """Persist the new mode word — one atomic store, one crash point."""
        self.sb.set_hybrid_modes(self.controller.modes_word())
        self._c_transitions.inc()
        self.obs.flight.record("hybrid.mode", shard=shard,
                               old=MODE_NAMES[old], new=MODE_NAMES[new])

    # ------------------------------------------------------------ reclaim hook

    def reclaim_extents(self, extents, cpu: int) -> None:
        extents = list(extents)
        super().reclaim_extents(extents, cpu)
        self._unregister_freed(extents)

    def free_extents(self, extents, cpu: int) -> None:
        extents = list(extents)
        super().free_extents(extents, cpu)
        self._unregister_freed(extents)

    def _unregister_freed(self, extents) -> None:
        """Freed pages must leave the candidate set (aliasing guard).  A
        page that kept its FACT entry (RFC > 0, or a staged UC) is still
        live and stays registered.  The NVM weak column is left as-is —
        it is a hint, and the mount-time rebuild intersects it with
        actual liveness."""
        for start, count in extents:
            for page in range(start, start + count):
                weak = self._weak_by_block.get(page)
                if weak is None:
                    continue
                if self.fact.delete_run(page, 1, silent=True) == [0]:
                    self._unregister_weak_dram(page, weak)

    # ------------------------------------------------------------ settle

    def settle_weak(self) -> dict:
        """Materialize FACT entries for every live weak-only block.

        Re-arms the dedupe flag of each live write entry that references
        a block without a FACT entry and drains the queue with a stock
        :class:`DedupDaemon` (the base strong-always pipeline).  Afterwards
        the FACT state matches what the pure-delayed pipeline would have
        produced: every live block has an entry, duplicates discovered
        across lazily-registered blocks are redirected and reclaimed.

        Crash-safe: re-armed flags are ordinary ``dedupe_needed`` states
        recovery re-enqueues; a crash mid-settle converges on the next
        mount + drain.
        """
        requeued = 0
        files = [(ino, sorted(cache.index.mappings()))
                 for ino, cache in sorted(self.caches.items())
                 if cache.inode.itype == ITYPE_FILE]
        txn = FactTxn(self.fact).plan(block for _, maps in files
                                      for _, _, block in maps)
        for ino, maps in files:
            rearmed: set[int] = set()
            for _pgoff, addr, block in maps:
                if addr in rearmed or txn.entry(block) is not None:
                    continue
                live_flag = self.read_entry(addr).dedupe_flag
                if live_flag != DEDUPE_NEEDED:
                    self.set_dedupe_flag(addr, DEDUPE_NEEDED)
                rearmed.add(addr)
                self._pending_pages[addr // PAGE_SIZE] += 1
                self.dwq.enqueue(DWQNode(ino=ino, entry_addr=addr,
                                         cache=self.caches[ino]))
                requeued += 1
        return {"requeued": requeued, "drained": DedupDaemon(self).drain()}

    # ------------------------------------------------------------ reporting

    def hybrid_stats(self) -> dict:
        return {
            "shard_modes": {f"shard{s}": MODE_NAMES[st.mode]
                            for s, st in enumerate(self.controller.shards)},
            "mode_counts": self.controller.mode_counts(),
            "transitions": self.controller.transitions,
            "weak_hits": self._c_weak_hits.value,
            "weak_misses": self._c_weak_misses.value,
            "false_positives": self._c_false_pos.value,
            "confirmed_dups": self._c_confirmed.value,
            "inline_completions": self._c_inline_done.value,
            "off_writes": self._c_off_writes.value,
            "weak_registered": len(self._weak_by_block),
            "decision_windows": len(self.controller.decision_log),
        }

    def space_stats(self) -> dict:
        out = super().space_stats()
        out["hybrid"] = self.hybrid_stats()
        return out
