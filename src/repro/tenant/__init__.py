"""Multi-tenant service layer: identity, quotas, weighted-fair QoS.

A tenant is a named principal rooted at ``/t/<name>``.  The layer has
three parts, stacked on the existing filesystem and concurrency code:

* :class:`TenantRegistry` — the persisted tenant table (id, name,
  quotas, QoS weight) in the superblock-adjacent region carved out by
  :class:`repro.nova.layout.Geometry`, crash-safe via A/B page slots.
* :class:`TenantManager` — DRAM-only runtime state (inode ownership,
  logical page/inode usage) rebuilt at mount, plus quota enforcement
  hooks called from the allocation paths.
* :class:`TenantQoS` — deficit-weighted-fair admission in front of the
  bandwidth slots and the DWQ's per-CPU lanes, with per-tenant token
  buckets.

See ``docs/TENANCY.md``.
"""

from .errors import QuotaExceeded
from .manager import TENANT_ROOT, TenantManager
from .qos import DRRGate, TenantQoS, TokenBucket
from .registry import MAX_TENANT_NAME, TenantInfo, TenantRegistry

__all__ = [
    "QuotaExceeded",
    "TenantInfo", "TenantRegistry", "MAX_TENANT_NAME",
    "TenantManager", "TENANT_ROOT",
    "TenantQoS", "DRRGate", "TokenBucket",
]
