"""Generator-based discrete-event simulation engine.

Design notes
------------
A :class:`Process` drives a generator.  Each ``yield`` must produce an
:class:`Event`; the process suspends until the event *succeeds*, then
resumes with the event's value sent into the generator.  The engine pops
``(time, seq)``-ordered events off a heap, so same-time events fire in the
order they were scheduled — simulations are fully deterministic.

Time is the simulated clock's: an exact integer count of femtoseconds
(:data:`repro.pm.clock.FS_PER_NS` to the nanosecond).  Delays are given in
nanoseconds and rounded once, on entry (:meth:`Engine.timeout`); ``now``
is the float nanosecond view of ``now_fs``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.pm.clock import FS_PER_NS, fs_of

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Lock",
    "RWLock",
    "Resource",
]


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *pending* until :meth:`succeed` is called, after which
    waiting processes are resumed with its value.
    """

    __slots__ = ("engine", "callbacks", "value", "triggered", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self.value: Any = None
        self.triggered = False
        self.name = name

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, resuming waiters at the current sim time."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        eng = self.engine                               # waiters run now
        eng._seq += 1
        heappush(eng._heap, (eng.now_fs, eng._seq, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already dispatched: run at the current time, immediately.
            fn(self)
        else:
            self.callbacks.append(fn)


class Process(Event):
    """A running generator; also an event that fires on termination."""

    __slots__ = ("gen",)

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(engine, name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        # Kick off at the current simulated time.
        boot = Event(engine, f"{self.name}:boot")
        boot.add_callback(self._resume)
        boot.succeed()

    def _resume(self, event: Event) -> None:
        try:
            nxt = self.gen.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(nxt, Event):
            raise TypeError(
                f"process {self.name!r} yielded {nxt!r}; processes must "
                "yield Event instances (timeout/acquire/request/...)"
            )
        if nxt.callbacks is None:       # add_callback, inlined
            self._resume(nxt)
        else:
            nxt.callbacks.append(self._resume)


class Engine:
    """The event loop: a heap of ``(time_fs, seq, event)`` entries.

    Pass ``obs`` (an :class:`repro.obs.ObsHub`) to expose the loop's
    dispatch/process counts as callback-backed ``sim.*`` counters — the
    hot loop only bumps plain ints; the registry reads them at export.
    """

    def __init__(self, obs=None):
        self.now_fs = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._dispatching = False
        self.events_dispatched = 0
        self.processes_started = 0
        if obs is not None:
            obs.registry.counter_fn("sim.events_dispatched_total",
                                    lambda: self.events_dispatched,
                                    help="DES events popped and dispatched")
            obs.registry.counter_fn("sim.processes_total",
                                    lambda: self.processes_started,
                                    help="simulated threads registered")

    @property
    def now(self) -> float:
        """Simulated time in nanoseconds (a view of ``now_fs``)."""
        return self.now_fs / FS_PER_NS

    # -- event construction ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A manually-triggered event (condition-variable style)."""
        return Event(self, name)

    def timeout(self, delay: float) -> Event:
        """An event that fires ``delay`` nanoseconds from now."""
        return self.timeout_fs(fs_of(delay))

    def timeout_fs(self, delay_fs: int) -> Event:
        """An event that fires ``delay_fs`` femtoseconds from now."""
        if delay_fs < 0:
            raise ValueError(f"negative delay {delay_fs} fs")
        ev = Event(self)
        self._seq += 1
        heappush(self._heap, (self.now_fs + delay_fs, self._seq, ev))
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a new simulated thread."""
        self.processes_started += 1
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every given event has fired."""
        events = list(events)
        done = self.event("all_of")
        remaining = [len(events)]
        if not events:
            done.succeed([])
            return done

        def on_fire(_ev: Event) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                done.succeed([e.value for e in events])

        for e in events:
            e.add_callback(on_fire)
        return done

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the heap drains (or sim time passes
        ``until`` ns).  Returns the final simulated time in ns."""
        if self._dispatching:
            raise RuntimeError("Engine.run() is not reentrant")
        stop = None if until is None else fs_of(until)
        heap = self._heap
        self._dispatching = True
        try:
            while heap:
                if stop is not None and heap[0][0] > stop:
                    break
                when, _seq, ev = heappop(heap)
                self.now_fs = when
                self.events_dispatched += 1
                if ev.callbacks is None:
                    continue  # already dispatched via succeed()
                ev.triggered = True
                callbacks, ev.callbacks = ev.callbacks, None
                for fn in callbacks:
                    fn(ev)
            if stop is not None and stop > self.now_fs:
                self.now_fs = stop
        finally:
            self._dispatching = False
        return self.now


class Lock:
    """A strictly-FIFO mutex for simulated threads.

    Fairness guarantee: waiters are granted in arrival order and a new
    ``acquire()`` can never barge past the queue — :meth:`release` names
    the next holder synchronously (``_holder`` is re-pointed before any
    hand-off delay elapses), so an acquire that arrives mid-hand-off
    still sees the lock taken and queues behind everyone else.

    ``contention_penalty_ns`` models cache-coherence cost per queued waiter
    at acquire time: heavily contended locks (per-CPU allocator under
    oversubscription) get progressively slower, which is what produces the
    post-peak throughput decline in Fig. 9.
    """

    __slots__ = ("engine", "_holder", "_waiters", "acquisitions",
                 "contended_acquisitions", "contention_penalty_ns")

    def __init__(self, engine: Engine, contention_penalty_ns: float = 0.0):
        self.engine = engine
        self._holder: Optional[Event] = None
        self._waiters: deque[Event] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.contention_penalty_ns = contention_penalty_ns

    def acquire(self) -> Event:
        ev = self.engine.event("lock.acquire")
        self.acquisitions += 1
        if self._holder is None:
            self._holder = ev
            ev.succeed()
        else:
            self.contended_acquisitions += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._holder is None:
            raise RuntimeError("release of a free Lock")
        if not self._waiters:
            self._holder = None
            return
        nxt = self._holder = self._waiters.popleft()
        penalty = self.contention_penalty_ns * (1 + len(self._waiters))
        if penalty:
            # Hand-off is delayed by coherence traffic among waiters.
            hand = self.engine.timeout(penalty)
            hand.add_callback(lambda _e: nxt.succeed())
        else:
            nxt.succeed()


class RWLock:
    """A phase-fair reader/writer lock for simulated threads.

    * Readers share the lock; a writer holds it exclusively.
    * Grant order is strictly FIFO over *phases*: a reader arriving after
      a queued writer waits behind it (no reader barging), so a writer
      behind any stream of readers runs after at most one read phase.
    * On hand-off the longest possible leading run of queued readers is
      admitted as one batch (maximum read parallelism without reordering).

    Contention penalty semantics match :class:`Lock`: each hand-off is
    delayed by ``contention_penalty_ns * (1 + remaining queue length)``.
    """

    __slots__ = ("engine", "_readers", "_writer", "_waiters",
                 "contention_penalty_ns")

    def __init__(self, engine: Engine, contention_penalty_ns: float = 0.0):
        self.engine = engine
        self._readers = 0
        self._writer: Optional[Event] = None
        self._waiters: deque[tuple[str, Event]] = deque()
        self.contention_penalty_ns = contention_penalty_ns

    def acquire_read(self) -> Event:
        ev = self.engine.event("rwlock.acquire_read")
        if self._writer is None and not self._waiters:
            self._readers += 1
            ev.succeed()
        else:
            self._waiters.append(("r", ev))
        return ev

    def acquire_write(self) -> Event:
        ev = self.engine.event("rwlock.acquire_write")
        if self._writer is None and self._readers == 0 and not self._waiters:
            self._writer = ev
            ev.succeed()
        else:
            self._waiters.append(("w", ev))
        return ev

    def acquire(self, mode: str) -> Event:
        if mode == "r":
            return self.acquire_read()
        if mode == "w":
            return self.acquire_write()
        raise ValueError(f"RWLock mode must be 'r' or 'w', not {mode!r}")

    def release_read(self) -> None:
        if self._readers <= 0:
            raise RuntimeError("release_read of an RWLock with no reader")
        self._readers -= 1
        if self._readers == 0:
            self._hand_off()

    def release_write(self) -> None:
        if self._writer is None:
            raise RuntimeError("release_write of an RWLock with no writer")
        self._writer = None
        self._hand_off()

    def release(self, mode: str) -> None:
        if mode == "r":
            self.release_read()
        elif mode == "w":
            self.release_write()
        else:
            raise ValueError(f"RWLock mode must be 'r' or 'w', not {mode!r}")

    def _grant(self, ev: Event, penalty: float) -> None:
        if penalty:
            self.engine.timeout(penalty).add_callback(
                lambda _e, ev=ev: ev.succeed())
        else:
            ev.succeed()

    def _hand_off(self) -> None:
        waiters = self._waiters
        if not waiters:
            return
        mode, ev = waiters.popleft()
        if mode == "w":
            # Holder is named synchronously: no reader can barge in
            # during the hand-off delay.
            self._writer = ev
            penalty = self.contention_penalty_ns * (1 + len(waiters))
            self._grant(ev, penalty)
            return
        batch = [ev]
        while waiters and waiters[0][0] == "r":
            batch.append(waiters.popleft()[1])
        # The next writer (if any) ends the batch: a phase boundary.
        self._readers += len(batch)
        penalty = self.contention_penalty_ns * (1 + len(waiters))
        for e in batch:
            self._grant(e, penalty)


class Resource:
    """A counting semaphore: at most ``capacity`` concurrent holders.

    Used to model the memory controller's limited concurrency — requests
    beyond capacity queue, which saturates device throughput.
    """

    __slots__ = ("engine", "capacity", "_in_use", "_waiters", "total_requests",
                 "queued_requests")

    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self.total_requests = 0
        self.queued_requests = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self) -> Event:
        ev = self.engine.event("resource.request")
        self.total_requests += 1
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self.queued_requests += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release of idle Resource")
        if self._waiters:
            # The slot transfers FIFO: no barging, no starvation.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
