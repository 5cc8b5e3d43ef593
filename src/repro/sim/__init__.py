"""Discrete-event simulation (DES) kernel.

The paper evaluates DeNova with real POSIX threads on a 40-core Xeon.  A
pure-Python reproduction cannot use wall-clock threading meaningfully (the
GIL serializes compute), so concurrency is modelled with a deterministic
discrete-event simulator: simulated threads are generator-based processes
that yield events (timeouts, lock acquisitions, slot requests) to the
engine.

The kernel keeps only what the concurrency layer (:mod:`repro.conc`) runs:

* :class:`Engine` — the event loop, on the simulated clock's integer
  femtoseconds (``now_fs``; ``now`` is the nanosecond view).
* :class:`Process` — a generator wrapped as a schedulable coroutine; also
  an :class:`Event`, so processes can be joined.
* :class:`Lock` / :class:`RWLock` — a FIFO mutex and a phase-fair
  reader/writer lock (inode, namespace, DWQ-shard and FACT locks).
* :class:`Resource` — a counting semaphore (models iMC bandwidth slots).

Scheduling is deterministic: events firing at the same simulated time run
in creation order, so every simulation is exactly reproducible.
"""

from repro.sim.engine import (
    Engine,
    Event,
    Lock,
    Process,
    Resource,
    RWLock,
)

__all__ = [
    "Engine",
    "Event",
    "Lock",
    "Process",
    "Resource",
    "RWLock",
]
