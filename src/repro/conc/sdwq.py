"""``ShardedDWQ`` is :class:`repro.dedup.dwq.DWQ`, which owns the lanes.

The name stays because the e2e tracer's boundary table
(``benchmarks/e2e/trace.py::BOUNDARIES``) names
``repro.conc.sdwq:ShardedDWQ.dequeue_shard`` and ``.steal_from``, and
the benchmark compares each commit with its parent by that same table.
"""

from repro.dedup.dwq import DWQ

ShardedDWQ = DWQ
