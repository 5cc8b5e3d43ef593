"""Always-on span tracing over the simulated clock.

A span brackets one logical operation (``fs.write``, ``recovery.mount``)
and records where simulated work was spent.  Spans nest: the tracer
keeps a stack per :class:`Tracer` instance, so a write issued during log
replay shows up as a child of the ``recovery.log_replay`` span.

Durations are **charged** simulated nanoseconds (``clock.charged_fs``
deltas, exact integers, read out as ns), not ``now`` deltas — in DES
capture mode charges bypass ``now`` entirely, and ``sync_to`` moves
``now`` without any work being done.  Charged deltas measure modelled
work in both modes.

Completed spans land in a bounded ring buffer (``deque(maxlen=...)``):
constant memory, oldest spans evicted first, cheap enough to leave on
for every operation.

Causality (``trace_id``): every span belongs to a *trace* rooted at the
client operation that started it.  A root span (empty stack) allocates a
fresh trace id unless an explicit context is active
(:meth:`Tracer.use_trace`); nested spans inherit their parent's.  The
id crosses queue handoffs by riding on the queued object — a DWQ node
stamped at enqueue time hands the enqueuing write's trace id to the
dedup worker that later processes it — so a ``dedup.process_node`` span
is causally linked to the ``fs.write`` that created the work.

Tracks (``track``): which simulated actor recorded the span — a
ConcurrentVFS client (``writer-3``), a dedup worker (``worker-1``), a
DWQ shard handoff (``shard:2``), recovery, backup, or ``main``.  The
Chrome-trace exporter renders one Perfetto thread lane per track.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import NamedTuple, Optional, Sequence

from repro.pm.clock import FS_PER_NS

from .registry import DEFAULT_LATENCY_BUCKETS_NS, Histogram, MetricsRegistry
from .slo import _NULL_CLOCK, FlightRecorder

__all__ = ["SpanEvent", "Tracer", "ObsHub"]


class SpanEvent(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: float        # clock.now_ns at entry (simulated timestamp)
    duration_ns: float     # charged simulated work inside the span
    attrs: tuple           # sorted (key, value) pairs
    trace_id: int = 0      # causal root (0 = unattributed)
    track: str = "main"    # simulated actor that recorded the span


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "trace_id", "track", "start_ns", "_start_charged",
                 "duration_ns", "_hist")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 hist: Optional[Histogram]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._hist = hist
        self.span_id = 0
        self.parent_id = None
        self.trace_id = 0
        self.track = "main"
        self.start_ns = 0.0
        self._start_charged = 0
        self.duration_ns = 0.0

    def __enter__(self) -> "_Span":
        t = self._tracer
        t._next_id += 1
        self.span_id = t._next_id
        if t._stack:
            self.parent_id, self.trace_id = t._stack[-1]
        else:
            self.parent_id = None
            self.trace_id = t._active_trace() or t.new_trace()
        self.track = t.current_track
        t._stack.append((self.span_id, self.trace_id))
        clock = t.clock
        self.start_ns = clock.now_ns
        self._start_charged = clock.charged_fs
        return self

    def __exit__(self, *exc) -> None:
        t = self._tracer
        self.duration_ns = ((t.clock.charged_fs - self._start_charged)
                            / FS_PER_NS)
        popped, _ = t._stack.pop()
        assert popped == self.span_id, "unbalanced span stack"
        t.total_spans += 1
        t.events.append(SpanEvent(
            self.span_id, self.parent_id, self.name, self.start_ns,
            self.duration_ns, tuple(sorted(self.attrs.items())),
            self.trace_id, self.track))
        if self._hist is not None:
            self._hist.observe(self.duration_ns)
        if t.flight is not None:
            t.flight.record("op", name=self.name, trace_id=self.trace_id,
                            track=self.track, dur_ns=self.duration_ns)


class _Track:
    """``with tracer.use_track(name):`` — every simulated op enters one."""

    __slots__ = ("_ctx", "_track")

    def __init__(self, ctx: list[str], track: str):
        self._ctx = ctx
        self._track = track

    def __enter__(self) -> None:
        self._ctx.append(self._track)

    def __exit__(self, *exc) -> None:
        self._ctx.pop()


class Tracer:
    """Bounded ring buffer of completed spans plus the live span stack."""

    def __init__(self, clock=None, capacity: int = 4096):
        self.clock = clock if clock is not None else _NULL_CLOCK
        self.capacity = capacity
        self.events: deque[SpanEvent] = deque(maxlen=capacity)
        self.total_spans = 0
        self._stack: list[tuple[int, int]] = []   # (span_id, trace_id)
        self._next_id = 0
        self._next_trace = 0
        self._trace_ctx: list[Optional[int]] = []
        self._track_ctx: list[str] = []
        self.flight: Optional[FlightRecorder] = None

    @property
    def evicted(self) -> int:
        return self.total_spans - len(self.events)

    # ------------------------------------------------------------ causality

    def new_trace(self) -> int:
        """Allocate a fresh trace id (a new causal root)."""
        self._next_trace += 1
        return self._next_trace

    def _active_trace(self) -> Optional[int]:
        for tid in reversed(self._trace_ctx):
            if tid:
                return tid
        return None

    @property
    def current_trace_id(self) -> int:
        """The trace a span opened right now would belong to (0 = none).

        Innermost open span wins, then any :meth:`use_trace` context.
        Queue producers read this to stamp handed-off work items.
        """
        if self._stack:
            return self._stack[-1][1]
        return self._active_trace() or 0

    @contextmanager
    def use_trace(self, trace_id: Optional[int]):
        """Adopt ``trace_id`` for root spans opened inside the block.

        ``0``/``None`` pushes an empty context (root spans allocate
        fresh ids) — the right call for work items with no recorded
        provenance, e.g. DWQ nodes restored from a previous mount.
        """
        self._trace_ctx.append(trace_id or None)
        try:
            yield
        finally:
            self._trace_ctx.pop()

    @property
    def current_track(self) -> str:
        return self._track_ctx[-1] if self._track_ctx else "main"

    def use_track(self, track: str) -> "_Track":
        """Attribute spans opened inside the block to ``track``."""
        return _Track(self._track_ctx, track)

    # ------------------------------------------------------------ recording

    def span(self, name: str, hist: Optional[Histogram] = None,
             **attrs) -> _Span:
        return _Span(self, name, attrs, hist)

    def emit(self, name: str, start_ns: float, duration_ns: float, *,
             trace_id: Optional[int] = None, track: Optional[str] = None,
             parent_id: Optional[int] = None, **attrs) -> SpanEvent:
        """Record an externally-timed span (no context manager).

        The concurrent worker pool uses this for spans whose stages are
        interleaved with other simulated threads: a context-manager span
        across engine yields would corrupt the nesting stack and absorb
        other actors' charges, so the caller measures start/duration
        itself and emits the finished event.
        """
        self._next_id += 1
        ev = SpanEvent(
            self._next_id, parent_id, name, start_ns, duration_ns,
            tuple(sorted(attrs.items())),
            trace_id if trace_id is not None
            else (self.current_trace_id or self.new_trace()),
            track if track is not None else self.current_track)
        self.total_spans += 1
        self.events.append(ev)
        if self.flight is not None:
            self.flight.record("op", name=name, trace_id=ev.trace_id,
                               track=ev.track, dur_ns=duration_ns)
        return ev

    def reset(self) -> None:
        self.events.clear()
        self.total_spans = 0
        self._stack.clear()
        self._next_id = 0
        self._next_trace = 0
        self._trace_ctx.clear()
        self._track_ctx.clear()


class ObsHub:
    """One filesystem instance's observability: registry + tracer + flight.

    ``obs.span("fs.write")`` both records a trace event and feeds an
    auto-created ``fs.write_latency_ns`` histogram, so every traced
    operation gets p50/p95/p99 for free.  The flight recorder keeps the
    most recent structured events (op ends, lock acquisitions, DWQ
    enqueues, persistence points, alerts) so a crash report or SLO
    alert can be dumped with its recent history attached.
    """

    #: Spans the tracer's ring keeps (a test subclass keeps fewer).
    trace_capacity = 4096

    def __init__(self, clock=None):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, capacity=self.trace_capacity)
        self.flight = FlightRecorder(clock=self.tracer.clock)
        self.tracer.flight = self.flight
        self._span_hists: dict[str, Histogram] = {}

    # ------------------------------------------------------------ spans

    def span(self, name: str, buckets: Sequence[float] = None, **attrs):
        hist = self._hist_for(name, buckets)
        return self.tracer.span(name, hist=hist, **attrs)

    def emit_span(self, name: str, start_ns: float, duration_ns: float,
                  **kw) -> SpanEvent:
        """Externally-timed span that still feeds the auto-histogram."""
        self._hist_for(name, None).observe(duration_ns)
        return self.tracer.emit(name, start_ns, duration_ns, **kw)

    def _hist_for(self, name: str,
                  buckets: Optional[Sequence[float]]) -> Histogram:
        hist = self._span_hists.get(name)
        if hist is None:
            hist = self.registry.histogram(
                f"{name}_latency_ns",
                buckets=buckets or DEFAULT_LATENCY_BUCKETS_NS,
                help=f"charged simulated ns inside {name} spans")
            self._span_hists[name] = hist
        elif buckets is not None and tuple(sorted(buckets)) != hist.bounds:
            # Mirror registry.counter semantics: a silent get-or-create
            # that ignores different buckets would leave the caller
            # believing their layout took effect.
            raise ValueError(
                f"span {name!r} already has a latency histogram with "
                f"buckets {hist.bounds}; pass the same buckets (or none)")
        return hist

    # ------------------------------------------------------------ export

    def snapshot(self) -> dict:
        snap = self.registry.snapshot()
        snap["trace"] = {
            "spans_recorded": self.tracer.total_spans,
            "spans_evicted": self.tracer.evicted,
        }
        return snap

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self.flight.reset()
