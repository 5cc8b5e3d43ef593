"""System variants and one-call construction.

The paper's §V-A comparison set, as an enum:

* :attr:`Variant.BASELINE` — plain NOVA, no deduplication.
* :attr:`Variant.INLINE` — DeNova-Inline: the full dedup pipeline in the
  critical write path (NVDedup methodology on NOVA).
* :attr:`Variant.INLINE_ADAPTIVE` — NVDedup's workload-adaptive weak
  fingerprinting (the Eq. 4 baseline).
* :attr:`Variant.IMMEDIATE` — DeNova-Immediate: offline dedup, daemon
  polls aggressively (n = 0).
* :attr:`Variant.DELAYED` — DeNova-Delayed(n, m): daemon triggered every
  n ms for m DWQ nodes.

``make_fs(Variant.IMMEDIATE, Config(...))`` gives a mounted filesystem
plus the :class:`repro.workloads.DDMode` that drives its daemon in the
workload runner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.inline import AdaptiveInlineFS, InlineDedupFS
from repro.nova.fs import NovaFS
from repro.nova.layout import PAGE_SIZE
from repro.pm.clock import SimClock
from repro.pm.device import PMDevice
from repro.pm.latency import LatencyModel, OPTANE_DCPM, PROFILES
from repro.workloads.runner import DDMode

__all__ = ["Variant", "Config", "make_device", "make_fs", "TESTBED"]

#: The simulated analogue of the paper's Table III testbed.
TESTBED = {
    "cpu": "modelled Xeon-class core, SHA-1 ~350 MB/s",
    "pm": "emulated Intel Optane DC PM (Table I latency profile)",
    "pm_write_latency_ns": OPTANE_DCPM.write_latency_ns,
    "pm_read_latency_ns": OPTANE_DCPM.read_latency_ns,
    "kernel": "user-space NOVA model (see DESIGN.md substitutions)",
}


class Variant(enum.Enum):
    BASELINE = "nova"
    INLINE = "denova-inline"
    INLINE_ADAPTIVE = "denova-inline-adaptive"
    IMMEDIATE = "denova-immediate"
    DELAYED = "denova-delayed"
    HYBRID = "denova-hybrid"

    @property
    def has_dedup(self) -> bool:
        return self is not Variant.BASELINE


_FS_CLASSES = {
    Variant.BASELINE: NovaFS,
    Variant.INLINE: InlineDedupFS,
    Variant.INLINE_ADAPTIVE: AdaptiveInlineFS,
    Variant.IMMEDIATE: DeNovaFS,
    Variant.DELAYED: DeNovaFS,
    Variant.HYBRID: HybridDeNovaFS,
}


@dataclass(frozen=True)
class Config:
    """Device + filesystem sizing for an experiment."""

    device_pages: int = 8192          # 32 MB default simulation device
    max_inodes: int = 1024
    cpus: int = 4
    model: LatencyModel = OPTANE_DCPM
    fact_prefix_bits: Optional[int] = None  # None = the paper's rule
    delayed_interval_ms: float = 750.0      # the paper's (750, 20000)
    delayed_batch: int = 20000
    track_wear: bool = False
    # Front-tier staging log (repro.nova.staging).  The region is always
    # carved (staging_pages > 0 and the device is big enough); absorbing
    # small sync writes (up to a page) is opt-in so baselines are
    # unchanged.
    staging: bool = False
    staging_pages: int = 64

    @classmethod
    def with_profile(cls, profile: str, **kw) -> "Config":
        return cls(model=PROFILES[profile], **kw)

    @property
    def device_bytes(self) -> int:
        return self.device_pages * PAGE_SIZE


def make_device(cfg: Config) -> PMDevice:
    return PMDevice(cfg.device_bytes, model=cfg.model, clock=SimClock(),
                    track_wear=cfg.track_wear)


def make_fs(variant: Variant, cfg: Config = Config(),
            dev: Optional[PMDevice] = None):
    """Format a device for ``variant`` and return ``(fs, dd_mode)``.

    ``dd_mode`` is what :func:`repro.workloads.run_workload` needs to
    drive the variant's daemon (``DDMode.none()`` for variants that have
    no background daemon).
    """
    if dev is None:
        dev = make_device(cfg)
    cls = _FS_CLASSES[variant]
    if variant.has_dedup:
        fs = cls.mkfs(dev, max_inodes=cfg.max_inodes, cpus=cfg.cpus,
                      fact_prefix_bits=cfg.fact_prefix_bits,
                      staging_pages=cfg.staging_pages)
    else:
        fs = cls.mkfs(dev, max_inodes=cfg.max_inodes, cpus=cfg.cpus,
                      staging_pages=cfg.staging_pages)
    if cfg.staging:
        fs.enable_staging()
    if variant is Variant.IMMEDIATE:
        dd = DDMode.immediate()
    elif variant in (Variant.DELAYED, Variant.HYBRID):
        dd = DDMode.delayed(cfg.delayed_interval_ms, cfg.delayed_batch)
    else:
        dd = DDMode.none()
    return fs, dd
