"""Ablation: IAA chain reordering on/off (§IV-E).

A skewed reference pattern (one hot chunk behind a long collision chain)
with and without the DD's reordering: reordering must cut the NVM reads
per lookup for the hot entry, without perturbing chain contents.
"""

import hashlib

from _common import emit

from repro.analysis import render_table
from repro.dedup.fact import FACT
from repro.dedup.reorder import chain_order, reorder_chain
from repro.nova.layout import Geometry, PAGE_SIZE, Superblock
from repro.pm import OPTANE_DCPM, PMDevice, SimClock

N_BITS = 8
PREFIX = 0x2A
CHAIN = 10          # cold entries in front of the hot one
HOT_LOOKUPS = 300


def make_fact():
    dev = PMDevice(256 * PAGE_SIZE, model=OPTANE_DCPM, clock=SimClock())
    geo = Geometry.compute(256, max_inodes=16, with_dedup=True,
                           fact_prefix_bits=N_BITS)
    return FACT(Superblock.format(dev, geo))


def colliding_fp(salt: int) -> bytes:
    body = hashlib.sha1(salt.to_bytes(8, "little")).digest()
    head = int.from_bytes(body[:8], "big")
    head = (head & ((1 << (64 - N_BITS)) - 1)) | (PREFIX << (64 - N_BITS))
    return head.to_bytes(8, "big") + body[8:]


def run(reorder: bool):
    fact = make_fact()
    # A chain of cold entries, then the hot one at the tail.
    for s in range(CHAIN):
        idx = fact.insert(colliding_fp(s), 1 + s)
        fact.commit_uc(idx, fact.read_counts(idx))
    hot_fp = colliding_fp(CHAIN)
    hot_idx = fact.insert(hot_fp, 1 + CHAIN)
    fact.commit_uc(hot_idx, fact.read_counts(hot_idx))
    # The hot chunk keeps getting written (dedup hits + RFC growth).
    for _ in range(6):
        fact.inc_uc(hot_idx, fact.read_counts(hot_idx))
        fact.commit_uc(hot_idx, fact.read_counts(hot_idx))
    if reorder:
        assert reorder_chain(fact, PREFIX)
    t0 = fact.dev.clock.now_ns
    steps = 0
    for _ in range(HOT_LOOKUPS):
        res = fact.lookup(hot_fp)
        assert res.found is not None and res.found.idx == hot_idx
        steps += res.steps
    return {
        "steps_per_lookup": steps / HOT_LOOKUPS,
        "ns_per_lookup": (fact.dev.clock.now_ns - t0) / HOT_LOOKUPS,
        "order": chain_order(fact, PREFIX),
        "fact": fact,
    }


def test_reorder_ablation():
    off, on = run(reorder=False), run(reorder=True)
    doc = {label: {k: r[k] for k in ("steps_per_lookup", "ns_per_lookup")}
           for label, r in (("reorder OFF", off), ("reorder ON", on))}
    emit("ablation_reorder", doc, render_table(
        ["config", "NVM reads per hot lookup", "ns per hot lookup"],
        [[label, round(d["steps_per_lookup"], 2), round(d["ns_per_lookup"])]
         for label, d in doc.items()],
        title="Ablation: §IV-E chain reordering on a hot tail entry "
              f"(chain length {CHAIN + 1})",
    ))
    # The hot entry moves right behind the head: 2 reads instead of 11.
    assert off["steps_per_lookup"] == CHAIN + 1
    assert on["steps_per_lookup"] == 2
    assert on["ns_per_lookup"] < 0.4 * off["ns_per_lookup"]
    # Same membership either way.
    assert sorted(on["order"]) == sorted(off["order"])
    on["fact"].check_chains()
