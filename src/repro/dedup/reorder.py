"""IAA chain reordering (paper §IV-E, Fig. 7).

Hot (high-RFC) entries migrate toward the front of their collision
chain so future lookups touch fewer NVM entries.  Entries are never
physically moved — delete pointers index slots by position — only the
``prev``/``next`` links are rewritten, in place, under the commit-flag
protocol that makes a crash at any step recoverable:

1. set the commit flag: ``head.prev = head's own index``;
2. write every node's ``prev`` to its new-order predecessor;
3. advance the flag: ``head.prev = last node's index``;
4. write every ``next`` to the new order (head's included);
5. clear the flag: ``head.prev = 0``.

Recovery reads the flag: ``0`` — nothing to do; *own index* — the
``next`` chain is still the old, consistent order, so rebuild the
``prev`` links from it; *anything else* — the ``prev`` links are the
complete new order, so walk them backwards from the flagged last node
and rewrite the ``next`` links, finishing the reorder.
"""

from __future__ import annotations

import numpy as np

from repro.dedup.fact import (
    FACT,
    FactCorruption,
    _OFF_NEXT,
    _OFF_PREV,
)

__all__ = ["reorder_chain", "recover_reorder", "recover_reorders",
           "chain_order"]


def chain_order(fact: FACT, head_idx: int) -> list[int]:
    """Current chain as a list of slot indexes (head first)."""
    return [ent.idx for ent in fact.chain(head_idx, silent=True)]


def reorder_chain(fact: FACT, head_idx: int) -> bool:
    """Reorder the IAA portion of a chain by descending RFC.

    Returns True if a reorder was performed.  The DAA head stays first
    (its slot *is* the chain's address); only IAA nodes move.
    """
    entries = list(fact.chain(head_idx))
    nodes = [e for e in entries if e.idx != head_idx]
    if len(nodes) < 2:
        return False
    desired = sorted(nodes, key=lambda e: e.refcount, reverse=True)
    if [e.idx for e in desired] == [e.idx for e in nodes]:
        return False
    fact._c_reorders.inc()
    order = [e.idx for e in desired]

    # Step 1: commit flag up.
    fact._write_u64(head_idx, _OFF_PREV, head_idx + 1)
    # Step 2: prev links describe the new order.
    prev = head_idx
    for idx in order:
        fact._write_u64(idx, _OFF_PREV, prev + 1)
        prev = idx
    # Step 3: flag -> last node (prevs are now authoritative).
    fact._write_u64(head_idx, _OFF_PREV, order[-1] + 1)
    # Step 4: next links follow.
    fact._write_u64(head_idx, _OFF_NEXT, order[0] + 1)
    for a, b in zip(order, order[1:]):
        fact._write_u64(a, _OFF_NEXT, b + 1)
    fact._write_u64(order[-1], _OFF_NEXT, 0)
    # Step 5: flag down — reorder committed.
    fact._write_u64(head_idx, _OFF_PREV, 0)
    return True


def recover_reorder(fact: FACT, head_idx: int) -> str:
    """Resume or roll back a reorder interrupted by a crash.

    Returns which path ran: ``"clean"``, ``"rebuilt_prevs"`` (phase-1
    crash: old order kept) or ``"resumed"`` (phase-2 crash: new order
    completed).
    """
    flag = fact._read_u64(head_idx, _OFF_PREV)
    if flag == 0:
        return "clean"
    if flag == head_idx + 1:
        # Phase 1: prevs are garbage, nexts hold the old order.
        prev = head_idx
        idx = fact._read_u64(head_idx, _OFF_NEXT) - 1
        hops = 0
        while idx >= 0:
            if hops > fact.total:
                raise FactCorruption(
                    f"reorder recovery: next-cycle at head {head_idx}")
            fact._write_u64(idx, _OFF_PREV, prev + 1)
            prev = idx
            idx = fact._read_u64(idx, _OFF_NEXT) - 1
            hops += 1
        fact._write_u64(head_idx, _OFF_PREV, 0)
        return "rebuilt_prevs"
    # Phase 2: prevs hold the complete new order; finish the nexts.
    last = flag - 1
    order_rev = [last]
    idx = last
    hops = 0
    while True:
        if hops > fact.total:
            raise FactCorruption(
                f"reorder recovery: prev-cycle at head {head_idx}")
        prev = fact._read_u64(idx, _OFF_PREV) - 1
        if prev == head_idx:
            break
        if prev < 0:
            raise FactCorruption(
                f"reorder recovery: broken prev chain at slot {idx}")
        order_rev.append(prev)
        idx = prev
        hops += 1
    order = list(reversed(order_rev))
    fact._write_u64(head_idx, _OFF_NEXT, order[0] + 1)
    for a, b in zip(order, order[1:]):
        fact._write_u64(a, _OFF_NEXT, b + 1)
    fact._write_u64(order[-1], _OFF_NEXT, 0)
    fact._write_u64(head_idx, _OFF_PREV, 0)
    return "resumed"


def recover_reorders(fact: FACT) -> int:
    """Settle every chain whose commit flag a crash left set (the first
    pass of DeNova's structural recovery, which scans the copy
    :meth:`FACT.in_dram` holds); returns how many it found."""
    flags = fact._scan("prev", stop=fact.daa_size)["prev"]  # the heads
    heads = np.flatnonzero(flags).tolist()
    for head in heads:
        recover_reorder(fact, head)
    return len(heads)
