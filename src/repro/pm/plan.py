"""Device read planning (docs/CONSISTENCY.md §5): :func:`neighbourhoods`
groups the byte spans one request reads (FACT's chunk-map reader and
delete-pointer plan use it), :func:`read_scattered` plans a file read."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.pm.device import PMDevice
from repro.pm.latency import DRAM, LatencyModel

__all__ = ["neighbourhoods", "read_scattered"]


def neighbourhoods(model: LatencyModel, spans: Sequence[Sequence[int]]
                   ) -> Iterator[tuple[int, int, int, int]]:
    """``(first, last, lo, hi)`` per device request that reads the byte
    ranges ``spans[first:last]`` together, as bytes ``[lo, hi)``; each
    span starts ``(start, end)``, sorted by start, and they may overlap.
    A gap past the largest end so far is read through when ``gap /
    read_bw <= read_latency`` on ``model``, i.e. when streaming it costs
    no more than a second request would."""
    if not spans:
        return
    reach = model.read_latency_ns * model.read_bw_bytes_per_ns
    first, lo, hi = 0, spans[0][0], spans[0][1]
    for i, span in enumerate(spans):
        if span[0] - hi > reach:
            yield first, i, lo, hi
            first, lo, hi = i, span[0], span[1]
        elif span[1] > hi:
            hi = span[1]
    yield first, len(spans), lo, hi


def read_scattered(dev: PMDevice, spans: list[tuple[int, int, int]],
                   out: bytearray) -> None:
    """Read device bytes ``[addr, end)`` into ``out[dst:dst + end - addr]``
    for every ``(addr, end, dst)`` of ``spans`` (sorted in place): one
    :meth:`PMDevice.read` per :func:`neighbourhoods` of them, in address
    order, so no device byte is read twice.  A span an earlier one (by
    address, the longer first) covers whole is a repeat, copied at
    ``DRAM.read_cost`` of its length; one only partly covered rides in
    the request."""
    spans.sort(key=lambda span: (span[0], -span[1]))
    for first, last, lo, hi in neighbourhoods(dev.model, spans):
        buf = dev.read(lo, hi - lo)
        reach = lo
        for addr, end, dst in spans[first:last]:
            out[dst:dst + end - addr] = buf[addr - lo:end - lo]
            if end <= reach:
                dev.clock.advance(DRAM.read_cost(end - addr))
            else:
                reach = end
