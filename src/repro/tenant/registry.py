"""The persisted tenant table.

Two one-page A/B slots inside the region placed by
:class:`repro.nova.layout.Geometry` (``tenant_page``/``tenant_pages``).
A save serializes the whole table and writes it to the slot the last
valid save did *not* use, as a header-last
:class:`repro.nova.persist.SlotRecord` (the clean-unmount checkpoint's
discipline), so a crash at any persist boundary leaves the previous
slot's table intact and the loader simply picks the valid slot with the
highest sequence number.  Every ``dev.persist`` a save issues is
therefore a crash point the fuzz sweep replays and checks.

Record format (little-endian)::

    u32 tid | u32 weight | u64 quota_pages | u64 quota_inodes
    u8 name_len | name bytes (<= 47)

Quotas are logical: a zero quota means "unlimited" for that resource.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.nova.layout import PAGE_SIZE
from repro.nova.persist import SlotRecord

__all__ = ["TenantInfo", "TenantRegistry", "MAX_TENANT_NAME"]

TENANT_MAGIC = 0x544E_414E_4554_2121  # "!!TENANT" little-endian flavour
MAX_TENANT_NAME = 47

_REC_FIXED = "<IIQQB"
_REC_FIXED_BYTES = struct.calcsize(_REC_FIXED)


@dataclass
class TenantInfo:
    """One tenant's durable record."""

    tid: int
    name: str
    quota_pages: int = 0      # 0 = unlimited
    quota_inodes: int = 0     # 0 = unlimited
    weight: int = 1           # QoS weight (>= 1)


class TenantRegistry:
    """In-DRAM tenant table with A/B-slot persistence."""

    def __init__(self, dev, tenant_page: int, tenant_pages: int):
        if tenant_pages < 2:
            raise ValueError("tenant registry needs two slot pages")
        self.base = tenant_page * PAGE_SIZE
        self.slot_bytes = (tenant_pages // 2) * PAGE_SIZE
        self._record = SlotRecord(dev, self.base, self.slot_bytes,
                                  magic=TENANT_MAGIC, slots=2)
        self.tenants: dict[int, TenantInfo] = {}
        self.by_name: dict[str, int] = {}
        self.seq = 0

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(sorted(self.tenants.values(), key=lambda t: t.tid))

    def get(self, name: str) -> TenantInfo | None:
        tid = self.by_name.get(name)
        return self.tenants.get(tid) if tid is not None else None

    # ------------------------------------------------------------ mutation

    def create(self, name: str, quota_pages: int = 0,
               quota_inodes: int = 0, weight: int = 1) -> TenantInfo:
        """Add a tenant and persist the table (commit point = save)."""
        self._check_name(name)
        if name in self.by_name:
            raise ValueError(f"tenant {name!r} already exists")
        self._check_limits(quota_pages, quota_inodes, weight)
        tid = max(self.tenants, default=0) + 1
        info = TenantInfo(tid=tid, name=name, quota_pages=int(quota_pages),
                          quota_inodes=int(quota_inodes), weight=int(weight))
        self.tenants[tid] = info
        self.by_name[name] = tid
        try:
            self.save()
        except Exception:
            del self.tenants[tid]
            del self.by_name[name]
            raise
        return info

    def set_quota(self, name: str, quota_pages: int | None = None,
                  quota_inodes: int | None = None,
                  weight: int | None = None) -> TenantInfo:
        info = self.get(name)
        if info is None:
            raise KeyError(f"no such tenant: {name!r}")
        self._check_limits(quota_pages, quota_inodes, weight)
        if quota_pages is not None:
            info.quota_pages = int(quota_pages)
        if quota_inodes is not None:
            info.quota_inodes = int(quota_inodes)
        if weight is not None:
            info.weight = int(weight)
        self.save()
        return info

    @staticmethod
    def _check_limits(quota_pages, quota_inodes, weight) -> None:
        """Refuse what the record's fields cannot hold, before anything
        is changed (``None``: that limit is being left as it is)."""
        if weight is not None and not 1 <= weight < 1 << 32:
            raise ValueError(f"tenant weight must be >= 1 and fit a u32, "
                             f"got {weight}")
        for what, quota in (("page", quota_pages), ("inode", quota_inodes)):
            if quota is not None and not 0 <= quota < 1 << 64:
                raise ValueError(f"tenant {what} quota must be >= 0 "
                                 f"(0 = unlimited) and fit a u64, got {quota}")

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or len(name.encode()) > MAX_TENANT_NAME:
            raise ValueError(
                f"tenant name must be 1..{MAX_TENANT_NAME} bytes")
        if "/" in name or name in (".", ".."):
            raise ValueError(f"invalid tenant name {name!r}")

    # ------------------------------------------------------------ persistence

    def _pack(self) -> bytes:
        parts = []
        for info in self:
            nm = info.name.encode()
            parts.append(struct.pack(_REC_FIXED, info.tid, info.weight,
                                     info.quota_pages, info.quota_inodes,
                                     len(nm)))
            parts.append(nm)
        return b"".join(parts)

    def save(self) -> None:
        """Write the table to the inactive slot, header last."""
        self._record.store(self.seq + 1, self._pack())
        self.seq += 1

    def load(self) -> None:
        """Rebuild the table from the newest valid slot (if any)."""
        self.tenants.clear()
        self.by_name.clear()
        self.seq, payload = self._record.load() or (0, b"")
        off = 0
        while off < len(payload):
            tid, weight, qp, qi, nlen = struct.unpack_from(
                _REC_FIXED, payload, off)
            off += _REC_FIXED_BYTES
            name = payload[off:off + nlen].decode()
            off += nlen
            info = TenantInfo(tid=tid, name=name, quota_pages=qp,
                              quota_inodes=qi, weight=weight)
            self.tenants[tid] = info
            self.by_name[name] = tid
