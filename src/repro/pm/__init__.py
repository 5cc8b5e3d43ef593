"""Persistent-memory device emulation.

The paper evaluates on an Intel Optane DC PM device emulated over DRAM
(their Table III).  This package provides the equivalent substrate:

* :class:`SimClock` — a simulated nanosecond clock every cost is charged
  to, with a capture mode used by the DES workload runner.
* :class:`LatencyModel` / :class:`CpuModel` — device and CPU cost models;
  profiles for DRAM, Optane DC PM, PCM and STT-RAM reproduce Table I.
* :class:`PMDevice` — a byte-addressable device with x86 persistence
  semantics: stores land in a volatile CPU cache and only become durable
  after ``clwb`` + ``sfence``; aligned 8-byte stores are atomic (never
  torn); a :meth:`PMDevice.crash` drops (or adversarially
  partially-persists) everything that was not yet durable.
* :class:`PageAllocator` — NOVA's per-CPU free lists, handing out
  *contiguous* page extents (a NOVA write entry describes one contiguous
  run of data pages).
* :mod:`repro.pm.plan` — one read request per neighbourhood of spans.
"""

from repro.pm.clock import CostCapture, SimClock
from repro.pm.latency import (
    CpuModel,
    LatencyModel,
    DRAM,
    OPTANE_DCPM,
    PCM,
    STT_RAM,
    PROFILES,
)
from repro.pm.device import CACHELINE, CrashRequested, PMDevice, PMStats
from repro.pm.allocator import AllocError, PageAllocator

__all__ = [
    "SimClock",
    "CostCapture",
    "CpuModel",
    "LatencyModel",
    "DRAM",
    "OPTANE_DCPM",
    "PCM",
    "STT_RAM",
    "PROFILES",
    "PMDevice",
    "PMStats",
    "CrashRequested",
    "CACHELINE",
    "PageAllocator",
    "AllocError",
]
