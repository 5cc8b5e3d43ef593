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
constant memory, oldest events evicted first, cheap enough to leave on
for every operation.  The same ring holds the flight recorder's
instants: zero-duration events with span id 0 — one timeline, one store.

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
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.pm.clock import FS_PER_NS, SimClock

from .registry import DEFAULT_LATENCY_BUCKETS_NS, Histogram, MetricsRegistry
from .slo import FlightRecorder

__all__ = ["SpanEvent", "Tracer", "ObsHub", "spans_of"]


class SpanEvent(NamedTuple):
    """One ring event: a span, or an instant (span id 0, the open span
    as its parent, its kind as name, its fields in call order)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: float        # clock.now_ns at entry (simulated timestamp)
    duration_ns: float     # charged simulated work inside the span
    attrs: tuple           # sorted (key, value) pairs
    trace_id: int = 0      # causal root (0 = unattributed)
    track: str = "main"    # simulated actor that recorded the span


def spans_of(events: Iterable[SpanEvent]) -> list[SpanEvent]:
    """The spans of a ring, in ring order (instants skipped)."""
    return [ev for ev in events if ev.span_id]


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "trace_id", "track", "start_ns", "_start_charged",
                 "duration_ns", "_hist")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 hist: Optional[Histogram]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._hist = hist   # __enter__ sets the ids, __exit__ the duration

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


class _Push:
    """``with tracer.use_track(name):`` / ``use_trace(id):`` — a value on a
    context stack for the block (stateless: one object serves them all)."""

    __slots__ = ("_ctx", "_value")

    def __init__(self, ctx: list, value):
        self._ctx = ctx
        self._value = value

    def __enter__(self) -> None:
        self._ctx.append(self._value)

    def __exit__(self, *exc) -> None:
        self._ctx.pop()


class Tracer:
    """Bounded ring of spans and instants plus the live span stack."""

    def __init__(self, clock=None, capacity: int = 4096):
        # An unwired tracer's clock never moves: durations read as 0.
        self.clock = clock if clock is not None else SimClock()
        self.events: deque = deque(maxlen=capacity)
        self.total_spans = 0
        self.instants = 0
        self._stack: list[tuple[int, int]] = []   # (span_id, trace_id)
        self._next_id = 0
        self._next_trace = 0
        self._trace_ctx: list[Optional[int]] = []
        self._track_ctx: list[str] = []
        self._lanes: dict[str, _Push] = {}
        self._untraced = _Push(self._trace_ctx, None)

    @property
    def evicted(self) -> int:
        """Spans pushed out of the ring (instants are not counted)."""
        return self.total_spans - len(spans_of(self.events))

    # ------------------------------------------------------------ causality

    def new_trace(self) -> int:
        """Allocate a fresh trace id (a new causal root)."""
        self._next_trace += 1
        return self._next_trace

    def _active_trace(self) -> Optional[int]:
        """The innermost :meth:`use_trace` context's id (None: no context,
        or an empty one — the innermost decides)."""
        return self._trace_ctx[-1] if self._trace_ctx else None

    @property
    def current_trace_id(self) -> int:
        """The trace a span opened right now would belong to (0 = none).

        Innermost open span wins, then any :meth:`use_trace` context.
        Queue producers read this to stamp handed-off work items.
        """
        if self._stack:
            return self._stack[-1][1]
        return self._active_trace() or 0

    def use_trace(self, trace_id: Optional[int]) -> _Push:
        """Adopt ``trace_id`` for root spans opened inside the block.

        ``0``/``None`` pushes an empty context (root spans allocate
        fresh ids, even inside an outer context) — the right call for
        work items with no recorded provenance, e.g. DWQ nodes restored
        from a previous mount and drained under a destage's trace.
        """
        return _Push(self._trace_ctx, trace_id) if trace_id \
            else self._untraced

    @property
    def current_track(self) -> str:
        return self._track_ctx[-1] if self._track_ctx else "main"

    def use_track(self, track: str) -> _Push:
        """Attribute spans opened inside the block to ``track``."""
        lane = self._lanes.get(track)
        if lane is None:
            lane = self._lanes[track] = _Push(self._track_ctx, track)
        return lane

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
        return ev

    def instant(self, kind: str, fields: dict) -> None:
        """Append a zero-duration event inside the open span."""
        if self._stack:
            parent_id, trace_id = self._stack[-1]
        else:
            parent_id = None
            trace_id = self._active_trace() or 0
        self.instants += 1
        self.events.append(SpanEvent(
            0, parent_id, kind, self.clock.now_ns, 0.0,
            tuple(fields.items()), trace_id,
            self._track_ctx[-1] if self._track_ctx else "main"))

    def reset(self) -> None:
        self.events.clear()
        self.total_spans = 0
        self.instants = 0
        self._stack.clear()
        self._next_id = 0
        self._next_trace = 0
        self._trace_ctx.clear()
        self._track_ctx.clear()


class ObsHub:
    """One filesystem instance's observability: registry + tracer + flight.

    ``obs.span("fs.write")`` both records a trace event and feeds an
    auto-created ``fs.write_latency_ns`` histogram, so every traced
    operation gets p50/p95/p99 for free.  The flight recorder notes
    instants (lock acquisitions, DWQ enqueues, persistence points) in
    the tracer's ring and dumps that ring, so a crash report carries its
    recent history.
    """

    #: Events the tracer's ring keeps (a test subclass keeps fewer).
    trace_capacity = 4096

    def __init__(self, clock=None):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, capacity=self.trace_capacity)
        self.flight = FlightRecorder(self.tracer)
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
