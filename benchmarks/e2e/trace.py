"""Per-layer spans on two clocks, recorded from outside the program.

While a :class:`Tracer` is tracing, every public method in
:data:`BOUNDARIES` is replaced by a wrapper that records one span per
call: host time from ``time.perf_counter`` and simulated time from the
nanoseconds charged to any :class:`repro.pm.clock.SimClock`.  A layer's
*self* time is its spans' duration minus the part their child spans
cover, so the self times of all layers plus the root span's own self
time add up to the traced section exactly.  The originals are put back
when the section ends; nothing under ``src/`` is edited.

Spans stay in memory.  Aggregates (per layer and per boundary) and the
first :data:`RAW_SPAN_LIMIT` raw spans are what :meth:`Tracer.write`
puts on disk once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pathlib
import time
from contextlib import contextmanager

__all__ = ["BOUNDARIES", "LAYERS", "RAW_SPAN_LIMIT", "Tracer"]

RAW_SPAN_LIMIT = 10_000

#: layer -> the calls that enter it, as ``module:function`` or
#: ``module:Class.method``.  A module-level function is named in the
#: module whose global the *caller* reads.  Every name must exist where
#: it is listed: a boundary that was renamed fails the traced pass
#: instead of silently reporting a layer as idle.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.datagen:DataGenerator.file_data",
    ),
    "sim": (
        "repro.sim.engine:Engine.run",
    ),
    "conc": (
        "repro.conc.vfs:ConcurrentVFS.op",
        "repro.conc.vfs:ConcurrentVFS.admit",
    ),
    "tenant": (
        "repro.tenant.manager:TenantManager.check_pages",
        "repro.tenant.manager:TenantManager.account_pages",
        "repro.tenant.manager:TenantManager.check_inode",
        "repro.tenant.manager:TenantManager.note_inode",
        "repro.tenant.qos:TenantQoS.wait_turn",
        "repro.tenant.qos:TenantQoS.throttle",
        "repro.tenant.qos:DRRGate.acquire",
        "repro.tenant.qos:DRRGate.release",
    ),
    "nova.fs": (
        "repro.nova.fs:NovaFS.mkfs",
        "repro.nova.fs:NovaFS.mount",
        "repro.nova.fs:NovaFS.unmount",
        "repro.nova.fs:NovaFS.create",
        "repro.nova.fs:NovaFS.mkdir",
        "repro.nova.fs:NovaFS.write",
        "repro.nova.fs:NovaFS.read",
        "repro.nova.fs:NovaFS.unlink",
        "repro.nova.fs:NovaFS.truncate",
        "repro.nova.fs:NovaFS.rename",
        "repro.nova.fs:NovaFS.link",
        "repro.nova.fs:NovaFS.rmdir",
        "repro.dedup.denova:DeNovaFS.mkfs",
        "repro.dedup.inline:InlineDedupFS.write",
    ),
    "nova.log": (
        "repro.nova.log:LogManager.ensure_log",
        "repro.nova.log:LogManager.append",
        "repro.nova.log:LogManager.commit",
    ),
    "nova.radix": (
        "repro.nova.radix:FileIndex.lookup",
        "repro.nova.radix:FileIndex.install",
        "repro.nova.radix:FileIndex.redirect",
    ),
    "nova.recovery": (
        "repro.nova.recovery:recover",
    ),
    "pm.device": (
        "repro.pm.device:PMDevice.read",
        "repro.pm.device:PMDevice.write",
        "repro.pm.device:PMDevice.clwb",
        "repro.pm.device:PMDevice.sfence",
        "repro.pm.device:PMDevice.persist",
        "repro.pm.device:PMDevice.write_atomic64",
    ),
    "pm.allocator": (
        "repro.pm.allocator:PageAllocator.alloc",
        "repro.pm.allocator:PageAllocator.free",
    ),
    "dedup.fingerprint": (
        "repro.dedup.fingerprint:Fingerprinter.strong",
        "repro.dedup.fingerprint:Fingerprinter.weak",
    ),
    "dedup.fact": (
        "repro.dedup.fact:FACT.lookup",
        "repro.dedup.fact:FACT.insert",
        "repro.dedup.fact:FACT.inc_uc",
        "repro.dedup.fact:FACT.commit_uc",
        "repro.dedup.fact:FACT.dec_rfc",
        "repro.dedup.fact:FACT.remove",
        "repro.dedup.fact:FACT.set_delete",
        "repro.dedup.fact:FACT.clear_delete",
        "repro.dedup.fact:FACT.entry_for_block",
    ),
    "dedup.dwq": (
        "repro.dedup.dwq:DWQ.enqueue",
        "repro.dedup.dwq:DWQ.dequeue",
        "repro.conc.sdwq:ShardedDWQ.dequeue_shard",
        "repro.conc.sdwq:ShardedDWQ.steal_from",
    ),
    "dedup.daemon": (
        "repro.dedup.daemon:DedupDaemon.process_node",
        "repro.dedup.daemon:DedupDaemon.validate_node",
        "repro.dedup.daemon:DedupDaemon.fingerprint_page",
        "repro.dedup.daemon:DedupDaemon.stage_page",
        "repro.dedup.daemon:DedupDaemon.commit_node",
    ),
    "dedup.recovery": (
        "repro.dedup.recovery:dedup_recover",
    ),
    "obs": (
        "repro.obs.trace:ObsHub.span",
        "repro.obs.trace:ObsHub.emit_span",
        # What ObsHub.span hands back: the ``with`` protocol of the span
        # is where always-on observation spends its time.
        "repro.obs.trace:_Span.__enter__",
        "repro.obs.trace:_Span.__exit__",
        "repro.obs.slo:FlightRecorder.record",
    ),
    "fuzz": (
        "repro.fuzz.runner:run_case",
        "repro.fuzz.gen:SequenceGenerator.generate",
        "repro.fuzz.diff:apply_op",
        "repro.fuzz.diff:model_after",
        "repro.fuzz.diff:full_equivalence_check",
        "repro.fuzz.diff:prefix_equivalence_check",
    ),
    "failure": (
        "repro.fuzz.diff:check_fs_invariants",
        "repro.fuzz.diff:count_persist_events",
        "repro.fuzz.diff:sweep_crash_points",
    ),
}

LAYERS: tuple[str, ...] = tuple(BOUNDARIES)

_SIM_CLOCK_ADVANCE = "repro.pm.clock:SimClock.advance"


def _resolve(spec: str):
    """``module:a.b`` -> (owner object, attribute name, raw attribute)."""
    module, _, path = spec.partition(":")
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    try:
        return owner, name, vars(owner)[name]
    except KeyError:
        raise LookupError(f"trace boundary {spec!r} does not exist") from None


class Tracer:
    """Records the spans of one traced section (one workload, one pass).

    ``Tracer(enabled=False)`` patches nothing and only times the root
    span, so the untraced and the traced pass run the same harness code.
    ``clock`` is the host clock and ``boundaries`` the table to patch;
    the self-tests pass a fake clock and a toy table.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter,
                 boundaries: dict[str, tuple[str, ...]] = BOUNDARIES):
        self.enabled = enabled
        self.boundaries = boundaries
        self._clock = clock
        #: boundary spec -> [calls, host_self_s, sim_self_ns]
        self.by_boundary: dict[str, list] = {
            spec: [0, 0.0, 0.0]
            for specs in boundaries.values() for spec in specs}
        #: (name, span id, parent id, host start/end s, sim start/end ns)
        self.raw: list[tuple] = []
        self.root: dict = {}
        self._stack: list[list] = []   # [child_host_s, child_sim_ns, id]
        self._sim = [0.0]              # ns charged to any SimClock
        self._ids = [0]                # last span id handed out
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _hooks(self):
        """The two halves of a span, closed over this tracer's state.

        The host clock is read last on entry and first on exit, so the
        tracer's own bookkeeping is billed to the *parent* span.
        """
        stack, sim, raw, ids = self._stack, self._sim, self.raw, self._ids
        clock = self._clock

        def enter():
            ids[0] += 1
            frame = [0.0, 0.0, ids[0]]
            stack.append(frame)
            return frame, sim[0], clock()

        def leave(agg, spec, frame, s0, t0):
            t1 = clock()
            stack.pop()
            dt = t1 - t0
            ds = sim[0] - s0
            agg[1] += dt - frame[0]
            agg[2] += ds - frame[1]
            parent = stack[-1]
            parent[0] += dt
            parent[1] += ds
            if frame[2] <= RAW_SPAN_LIMIT:
                raw.append((spec, frame[2], parent[2], t0, t1, s0, s0 + ds))

        return enter, leave

    def _wrap_function(self, fn, spec, agg, enter, leave):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg[0] += 1
            frame, s0, t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(agg, spec, frame, s0, t0)
        return traced

    def _wrap_generator(self, fn, spec, agg, enter, leave):
        """One span per resume step: while the generator is parked on
        the DES heap other simulated threads run, and their time is not
        this boundary's."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg[0] += 1
            gen = fn(*args, **kwargs)
            resume, value = gen.send, None
            while True:
                frame, s0, t0 = enter()
                try:
                    yielded = resume(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(agg, spec, frame, s0, t0)
                try:
                    value = yield yielded
                    resume = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    resume, value = gen.throw, exc
        return traced

    # ------------------------------------------------------------ patching

    def _install(self) -> None:
        enter, leave = self._hooks()
        for spec, agg in self.by_boundary.items():
            owner, name, raw = _resolve(spec)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                    else self._wrap_function)
            traced = wrap(fn, spec, agg, enter, leave)
            if isinstance(raw, classmethod):
                traced = classmethod(traced)
            self._patched.append((owner, name, raw))
            setattr(owner, name, traced)

        owner, name, advance = _resolve(_SIM_CLOCK_ADVANCE)
        sim = self._sim

        @functools.wraps(advance)
        def counted_advance(clock, ns):
            advance(clock, ns)
            sim[0] += ns

        self._patched.append((owner, name, advance))
        setattr(owner, name, counted_advance)

    def _restore(self) -> None:
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    @contextmanager
    def trace(self, workload: str):
        """The traced section; its extent is the root span."""
        root = [0.0, 0.0, 0]
        self._stack.append(root)
        try:
            if self.enabled:
                self._install()
            s0, t0 = self._sim[0], self._clock()
            try:
                yield self
            finally:
                t1 = self._clock()
                sim_ns = self._sim[0] - s0
                self.root = {
                    "workload": workload,
                    "host_start_s": t0,
                    "host_s": t1 - t0,
                    "host_self_s": (t1 - t0) - root[0],
                    "sim_ns": sim_ns,
                    "sim_self_ns": sim_ns - root[1],
                }
        finally:
            self._restore()
            self._stack.pop()

    @property
    def spans(self) -> int:
        """Spans recorded so far (the raw list keeps only the first)."""
        return self._ids[0]

    # ------------------------------------------------------------ reporting

    def by_layer(self) -> dict[str, dict]:
        """layer -> calls, host self seconds, simulated self ms."""
        out = {}
        for layer, specs in self.boundaries.items():
            aggs = [self.by_boundary[s] for s in specs]
            out[layer] = {
                "calls": sum(a[0] for a in aggs),
                "host_self_s": sum(a[1] for a in aggs),
                "sim_self_ms": sum(a[2] for a in aggs) / 1e6,
            }
        return out

    def chrome_trace(self) -> dict:
        """The raw spans as Chrome trace-event JSON (``ph: X``), host
        time on the time axis, both simulated stamps in ``args``."""
        layer_of = {spec: layer for layer, specs in self.boundaries.items()
                    for spec in specs}
        t_base = self.root.get("host_start_s", 0.0)
        events = [{
            "name": spec.partition(":")[2], "cat": layer_of[spec],
            "ph": "X", "pid": self.root.get("workload", ""), "tid": 0,
            "ts": (t0 - t_base) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"id": sid, "parent": parent,
                     "sim_start_ns": s0, "sim_end_ns": s1},
        } for spec, sid, parent, t0, t1, s0, s1 in self.raw]
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, outdir: pathlib.Path) -> list[pathlib.Path]:
        """Write aggregates and raw spans; returns the files written."""
        outdir.mkdir(parents=True, exist_ok=True)
        stem = self.root.get("workload", "trace")
        agg_path = outdir / f"{stem}.layers.json"
        agg_path.write_text(json.dumps({
            "root": self.root,
            "spans": self.spans,
            "layers": self.by_layer(),
            "boundaries": {
                spec: {"calls": a[0], "host_self_s": a[1],
                       "sim_self_ms": a[2] / 1e6}
                for spec, a in self.by_boundary.items()},
        }, indent=2) + "\n")
        raw_path = outdir / f"{stem}.trace.json"
        raw_path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return [agg_path, raw_path]
