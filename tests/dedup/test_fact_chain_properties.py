"""Property tests for IAA chain structure under random interleavings.

``random.Random``-driven sequences of insert / remove / reorder —
including crashes injected mid-reorder at every persistence event —
must preserve the chain structural invariants the recovery path relies
on:

* **doubly-linked integrity** — following ``next`` from the DAA head
  and ``prev`` from the tail visit the same slots in opposite order;
* **acyclicity** — no walk revisits a slot (``check_chains`` raises);
* **prefix-homogeneity** — every entry in a chain shares the DAA head's
  fingerprint prefix;
* **lookup completeness** — every fingerprint a shadow dict says is
  live is found, with the block the shadow recorded; removed ones miss.
"""

import hashlib
import random

import pytest

from repro.dedup.fact import _OFF_NEXT, _OFF_PREV, FACT
from repro.dedup.reorder import chain_order, recover_reorders, reorder_chain
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm.device import CrashRequested

N_BITS = 8   # minimum legal for a 256-page device (delete pointers)
PREFIXES = (3, 9, 42, 77)  # inserts restricted here to force long chains


def make_fact():
    dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
    geo = Geometry.compute(256, max_inodes=16, with_dedup=True,
                           fact_prefix_bits=N_BITS)
    return FACT(Superblock.format(dev, geo))


def mkfp(prefix: int, salt: int) -> bytes:
    body = hashlib.sha1(f"{prefix}:{salt}".encode()).digest()
    head = int.from_bytes(body[:8], "big")
    head = (head & ((1 << (64 - N_BITS)) - 1)) | (prefix << (64 - N_BITS))
    return head.to_bytes(8, "big") + body[8:]


def check_structure(fact, shadow):
    """All four chain properties against the shadow fp -> block dict."""
    fact.check_chains()  # integrity + acyclicity + UC/flag sanity
    live = fact.live_entries()
    assert len(live) == len(shadow)

    seen = set()
    for head in range(fact.daa_size):
        forward = chain_order(fact, head)
        if not forward:
            continue
        # Prefix homogeneity: every live chain member hashes to this
        # head (a removed DAA head stays in the walk as a zeroed,
        # invalid placeholder that keeps the chain reachable).
        for ent in fact.chain(head, silent=True):
            if not ent.valid:
                continue
            assert fact.head_of(ent.fp) == head, \
                f"FACT[{ent.idx}] prefix-foreign in chain {head}"
        # Doubly-linked integrity: walk prev links back from the tail.
        backward = []
        idx = forward[-1]
        while idx != head:
            backward.append(idx)
            idx = fact._read_u64(idx, _OFF_PREV) - 1
            assert idx >= 0, "broken prev link"
            assert len(backward) <= len(forward), "prev-walk cycle"
        head_ent = fact.read_entry(head)
        if head_ent.valid:
            backward.append(head)
        assert backward == list(reversed(
            [i for i in forward if fact.read_entry(i).valid])), \
            f"chain {head}: prev-walk disagrees with next-walk"
        seen.update(i for i in forward if fact.read_entry(i).valid)

    assert seen == set(live), "live entries unreachable from any chain"
    for fp, block in shadow.items():
        res = fact.lookup(fp)
        assert res.found is not None, "live fingerprint not found"
        assert res.found.block == block


def random_interleaving(fact, rng, steps, shadow, salt_counter,
                        reorder_ok=True):
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55 or not shadow:
            prefix = rng.choice(PREFIXES)
            salt = next(salt_counter)
            fp = mkfp(prefix, salt)
            block = 100 + salt
            idx = fact.insert(fp, block)
            # Give entries distinct RFCs so reorders actually permute.
            for _ in range(rng.randrange(4)):
                fact.inc_uc(idx, fact.read_counts(idx))
                fact.commit_uc(idx, fact.read_counts(idx))
            fact.discard_all_uc()
            shadow[fp] = block
        elif roll < 0.85:
            fp = rng.choice(sorted(shadow))
            ent = fact.lookup(fp).found
            fact._write_u64(ent.idx, 0, 0)  # force counts to 0
            fact.remove(ent.idx)
            del shadow[fp]
        elif reorder_ok:
            reorder_chain(fact, rng.choice(PREFIXES))


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_preserve_structure(seed):
    fact = make_fact()
    rng = random.Random(seed)
    shadow = {}
    salts = iter(range(10 ** 6))
    for _round in range(6):
        random_interleaving(fact, rng, 25, shadow, salts)
        check_structure(fact, shadow)


@pytest.mark.parametrize("seed", range(4))
def test_structure_survives_crash_and_recovery(seed):
    fact = make_fact()
    rng = random.Random(1000 + seed)
    shadow = {}
    salts = iter(range(10 ** 6))
    random_interleaving(fact, rng, 60, shadow, salts)
    fact.dev.crash()          # every FACT mutation persists eagerly,
    fact.dev.recover_view()   # so a clean crash loses nothing
    fact.structural_recover()
    check_structure(fact, shadow)


def test_crash_mid_reorder_at_every_persist_event():
    """Fig. 7: a crash at ANY step of a reorder must recover to a chain
    with the same member set and full structural integrity."""
    prefix = 3

    def build():
        fact = make_fact()
        shadow = {}
        for salt in range(6):
            fp = mkfp(prefix, salt)
            idx = fact.insert(fp, 100 + salt)
            for _ in range(salt % 4):     # distinct RFCs force a permute
                fact.inc_uc(idx, fact.read_counts(idx))
                fact.commit_uc(idx, fact.read_counts(idx))
            shadow[fp] = 100 + salt
        return fact, shadow

    # Count persist events inside the reorder alone.
    fact, shadow = build()
    counter = [0]
    fact.dev.hooks.on_persist = lambda n, d: counter.__setitem__(
        0, counter[0] + 1)
    assert reorder_chain(fact, prefix)
    fact.dev.hooks.on_persist = None
    total = counter[0]
    assert total > 0

    for point in range(1, total + 1):
        fact, shadow = build()
        count = [0]

        def trip(_n, _d):
            count[0] += 1
            if count[0] == point:
                raise CrashRequested("reorder", point)

        fact.dev.hooks.on_persist = trip
        with pytest.raises(CrashRequested):
            reorder_chain(fact, prefix)
        fact.dev.hooks.on_persist = None
        fact.dev.crash()
        fact.dev.recover_view()
        recover_reorders(fact)
        fact.structural_recover()
        check_structure(fact, shadow)
