"""Ablation: FACT prefix length n (§IV-C "Setting the size of FACT").

The paper fixes n = ceil(log2(device pages)) so the DAA can hold one
entry per block.  This ablation shrinks n below the rule (more prefix
collisions, longer IAA chains, more NVM reads per lookup) to quantify
what the sizing rule buys.  Because delete pointers index the DAA by
block address, n below the rule requires a smaller *logical* device —
we emulate by restricting the block universe instead.
"""

import hashlib

from _common import emit

from repro.analysis import render_table
from repro.dedup.fact import FACT
from repro.nova.layout import Geometry, PAGE_SIZE, Superblock
from repro.pm import DRAM, OPTANE_DCPM, PMDevice, SimClock

N_KEYS = 220


def run_prefix(n_bits: int):
    """Insert N_KEYS distinct fingerprints, then look each one up."""
    total_pages = 256
    dev = PMDevice(total_pages * PAGE_SIZE, model=OPTANE_DCPM,
                   clock=SimClock())
    geo = Geometry.compute(total_pages, max_inodes=16, with_dedup=True,
                           fact_prefix_bits=n_bits)
    fact = FACT(Superblock.format(dev, geo))
    fps = [hashlib.sha1(i.to_bytes(8, "little")).digest()
           for i in range(N_KEYS)]
    for i, fp in enumerate(fps):
        fact.insert(fp, 1 + i)
    t0 = dev.clock.now_ns
    steps = 0
    for fp in fps:
        res = fact.lookup(fp)
        assert res.found is not None
        steps += res.steps
    lookup_ns = (dev.clock.now_ns - t0) / N_KEYS
    occ = fact.occupancy()
    return {
        "n": n_bits,
        "daa_slots": 2 ** n_bits,
        "mean_steps": steps / N_KEYS,
        "max_chain": occ["max_chain"],
        "iaa_used": occ["iaa_used"],
        "lookup_ns": lookup_ns,
        "table_kb": occ["bytes"] // 1024,
    }


def test_prefix_length_ablation():
    results = [run_prefix(n) for n in (8, 9, 10, 12)]
    rows = [[r["n"], r["daa_slots"], round(r["mean_steps"], 2),
             r["max_chain"], r["iaa_used"], round(r["lookup_ns"]),
             r["table_kb"]]
            for r in results]
    emit("ablation_prefix", {"rows": results}, render_table(
        ["n bits", "DAA slots", "mean lookup steps", "max chain",
         "IAA used", "ns/lookup", "table KB"],
        rows,
        title="Ablation: FACT prefix length vs lookup cost "
              "(the paper's rule: n = ceil(log2(pages)) = 8 here)",
    ))
    # Longer prefixes => fewer collisions => cheaper lookups,
    # at exponentially growing table size.
    steps = [r["mean_steps"] for r in results]
    assert all(a >= b for a, b in zip(steps, steps[1:])), steps
    assert results[-1]["mean_steps"] < 1.05  # ~all DAA hits at n=12
    assert results[0]["iaa_used"] > results[-1]["iaa_used"]
    sizes = [r["table_kb"] for r in results]
    assert sizes == sorted(sizes) and sizes[-1] >= 8 * sizes[0]
    # Lookup latency tracks NVM reads.
    assert results[0]["lookup_ns"] > results[-1]["lookup_ns"]
