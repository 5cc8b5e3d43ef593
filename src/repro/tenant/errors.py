"""Tenant-layer errors.

:class:`QuotaExceeded` subclasses :class:`repro.nova.errors.NoSpace` on
purpose: to every layer that already understands "the write could not
be placed" — the fuzz differential oracle's resource-error stop rule,
the workload runner, the CLI's ENOSPC-style exit — a quota hit is
exactly a (per-tenant) out-of-space condition.  Code that cares about
the distinction catches ``QuotaExceeded`` first.
"""

from __future__ import annotations

from repro.nova.errors import NoSpace

__all__ = ["QuotaExceeded"]


class QuotaExceeded(NoSpace):
    """A tenant hit its page or inode quota.

    Carries enough structure for a one-line CLI message
    (``tenant 'a' over data-page quota: used 128 + want 4 > limit 128``).
    """

    def __init__(self, tenant: str, resource: str, used: int, want: int,
                 limit: int):
        self.tenant = tenant
        self.resource = resource
        self.used = used
        self.want = want
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r} over {resource} quota: "
            f"used {used} + want {want} > limit {limit}")
