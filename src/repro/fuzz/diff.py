"""The differential checker and the crash-sweep engine.

Protocol per operation (``apply_op``): the real filesystem runs first,
then the model.  Four outcomes:

* both succeed — for ``read``, the returned bytes must be identical;
* both reject — the op is *skipped* (the generator emits a small
  fraction of deliberately invalid ops to exercise exactly this);
* one side rejects what the other accepts — :class:`OracleDivergence`.

Resource exhaustion on the real side (``NoSpace``; a full FACT never
escapes an op — ``FactTxn.claim`` is its one handler) is not a
divergence — the model has no space accounting — it deterministically
*stops* the sequence early instead.  A raw allocator ``AllocError`` is
not on that list: every FS op owes its caller a typed, rolled-back
``NoSpace``, so one escaping is reported as an ``exception`` violation.

Crash checking is one loop, :func:`sweep_case`, for every
:class:`Scenario`: it runs the scenario's workload once under
:func:`repro.failure.injector.sweep_crash_points`, crashed in all four
(phase, mode) combinations, and holds each recovery mount to
`check_fs_invariants` plus dedupe-flag convergence before and after a
post-recovery drain, with the scenario's own oracle in between.  For the
differential scenario the engine's progress count says how many ops
committed before the crash, and the recovered state must be *pointwise
between* the model states M_k and M_{k+1}: each path's recovered
descriptor equals its descriptor in one of the two adjacent model
states, and paths identical in both must survive.  The two-image
backup/replication pipelines are the scenarios of
:mod:`repro.fuzz.pipeline`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.hybrid import HybridDeNovaFS
from repro.dedup.inline import InlineDedupFS
from repro.failure import image
from repro.failure.injector import count_persist_events, sweep_crash_points
from repro.failure.invariants import InvariantViolation, check_fs_invariants
from repro.fuzz.gen import apply_to_model, model_after
from repro.fuzz.model import ModelError, ModelFS
from repro.nova.entries import DEDUPE_IN_PROCESS, WriteEntry, decode_entry
from repro.nova.fs import FSError, NoSpace
from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK, ROOT_INO
from repro.nova.layout import PAGE_SIZE, Geometry
from repro.pm.device import CrashRequested, PMDevice
from repro.pm.latency import DRAM
from repro.pm.clock import SimClock
from repro.workloads.trace import TraceOp, apply_trace_op

__all__ = ["FuzzConfig", "Violation", "CaseResult", "OracleDivergence",
           "Scenario", "sweep_case", "differential_scenario",
           "apply_op", "run_case", "fs_namespace",
           "flags_converged", "full_equivalence_check",
           "prefix_equivalence_check", "make_fs"]


class OracleDivergence(AssertionError):
    """Real filesystem and model oracle disagree."""


@dataclass
class FuzzConfig:
    """Everything one fuzz campaign (or one case) needs."""

    seed: int = 0
    total_ops: int = 2000        # campaign budget (runner)
    seq_ops: int = 40            # ops per generated sequence
    budget: int = 16             # crash replays per sequence, all combos
    pages: int = 2048            # device size in 4 KB pages
    cpus: int = 1
    alpha: float = 0.55          # duplicate-page ratio
    corpus: Optional[str] = None
    max_failures: int = 3        # stop the campaign after this many
    clients: int = 1             # >1: concurrent-mode sequences (merged
    #                              per-client streams under /c<i> roots)
    tenants: int = 1             # >1: multi-tenant sequences (streams
    #                              under /t/tn<i> roots created via
    #                              tenant_create — covers the tenant
    #                              registry's persistence crash points)
    dedup_mode: str = "delayed"  # "delayed" (classic DeNova), "hybrid"
    #                              (weak+strong pipeline, adaptive policy)
    #                              or "inline" (counts staged and settled
    #                              inside each write)
    staging: bool = False        # absorb small writes + creates through
    #                              the front-tier staging log: every
    #                              record append / destage / watermark
    #                              persist enters the crash sweep
    # Every campaign sweeps both crash modes at both phases of a persist
    # on a device of 192 inodes; a test subclass narrows them.
    inodes: ClassVar[int] = 192
    phases: ClassVar[tuple] = ("pre", "post")
    modes: ClassVar[tuple] = ("discard", "torn")

    def __post_init__(self):
        """Refuse now what the first case would refuse from deep inside a
        sweep: a ratio that is not one, a device :func:`make_fs` cannot
        format."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        Geometry.compute(self.pages, self.inodes, with_dedup=True)


@dataclass
class Violation:
    """One detected consistency violation."""

    kind: str                    # "divergence" | "invariant" | "exception"
    detail: str
    stage: str                   # "clean" | "sweep"
    op_index: Optional[int] = None
    point: Optional[int] = None
    phase: Optional[str] = None
    mode: Optional[str] = None
    #: ``repro.flight/2`` dump captured at detection time (when available).
    flight: Optional[dict] = None

    def __str__(self) -> str:
        where = f"op {self.op_index}" if self.op_index is not None else ""
        if self.point is not None:
            where += (f" crash@{self.point} ({self.phase}-commit, "
                      f"mode={self.mode})")
        return f"[{self.stage}] {self.kind} {where}: {self.detail}"


@dataclass
class CaseResult:
    """Outcome of one case, whichever scenario it swept."""

    violations: list = field(default_factory=list)
    ops_applied: int = 0
    ops_skipped: int = 0
    crash_points: int = 0
    # Pipeline scenarios only: what was sent between the two images.
    snapshots: tuple = ()
    stream_bytes: int = 0
    records: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _fs_cls(cfg: FuzzConfig):
    return {"hybrid": HybridDeNovaFS,
            "inline": InlineDedupFS}.get(cfg.dedup_mode, DeNovaFS)


def make_fs(cfg: FuzzConfig) -> DeNovaFS:
    dev = PMDevice(cfg.pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = _fs_cls(cfg).mkfs(dev, max_inodes=cfg.inodes, cpus=cfg.cpus)
    if cfg.staging:
        fs.enable_staging()
    return fs


def _settle(fs) -> None:
    """Materialize any weak-only blocks so the RFC lower bound applies.

    The hybrid pipeline legally leaves never-duplicated blocks without a
    FACT entry (weak fingerprint only); ``full_equivalence_check``
    demands an entry per live page image, so hybrid cases settle first.
    A no-op on the classic pipeline.
    """
    if hasattr(fs, "settle_weak"):
        fs.settle_weak()


# ---------------------------------------------------------------- per-op


def apply_op(fs, model: ModelFS, op: TraceOp):
    """Apply one op to both sides; returns ``(fs, status)``.

    ``status`` is ``"ok"``, ``"skipped"`` (both sides rejected) or
    ``"stop"`` (real side ran out of a resource the model doesn't
    track).  Raises :class:`OracleDivergence` on any disagreement.
    """
    real_err: Optional[Exception] = None
    real_data: Optional[bytes] = None
    try:
        if op.op == "read":
            real_data = fs.read(fs.lookup(op.path), op.offset, op.length)
        else:
            fs = apply_trace_op(fs, op, verify=False)
    except CrashRequested:
        raise
    except NoSpace:
        return fs, "stop"
    except (FSError, ValueError) as exc:
        real_err = exc

    try:
        model_data = apply_to_model(model, op)
        model_ok = True
    except ModelError as exc:
        model_ok = False
        model_err = exc

    if real_err is None and not model_ok:
        raise OracleDivergence(
            f"{op.op} {op.path!r}: real filesystem accepted an op the "
            f"model rejects ({model_err})")
    if real_err is not None and model_ok:
        raise OracleDivergence(
            f"{op.op} {op.path!r}: real filesystem rejected a valid op "
            f"({type(real_err).__name__}: {real_err})")
    if real_err is not None:
        return fs, "skipped"
    if op.op == "read" and real_data != model_data:
        raise OracleDivergence(
            f"read {op.path!r}@{op.offset}+{op.length}: got "
            f"{len(real_data)} bytes != model {len(model_data)} bytes "
            f"(first divergence at byte "
            f"{_first_diff(real_data, model_data)})")
    return fs, "ok"


def _first_diff(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


# ---------------------------------------------------------------- equivalence


def _walk(fs, prefix: str = "", ino: int = ROOT_INO):
    """``(path, ino, cache)`` of every entry under ``ino``, depth first
    in name order."""
    dentries = fs.caches[ino].dentries
    for name in sorted(dentries):
        child, path = dentries[name], f"{prefix}/{name}"
        cache = fs.caches.get(child)
        if cache is None:
            raise InvariantViolation(f"dangling dentry {path!r} -> ino {child}")
        yield path, child, cache
        if cache.inode.itype == ITYPE_DIR:
            yield from _walk(fs, path, child)


def fs_namespace(fs) -> dict[str, tuple]:
    """Real-filesystem counterpart of :meth:`ModelFS.namespace`."""
    out: dict[str, tuple] = {}
    for path, ino, cache in _walk(fs):
        itype, size = cache.inode.itype, cache.inode.size
        out[path] = (("dir",) if itype == ITYPE_DIR
                     else ("symlink", cache.symlink_target)
                     if itype == ITYPE_SYMLINK
                     else ("file", size, fs.read(ino, 0, size)))
    return out


def _hardlink_groups_real(fs) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}
    for path, ino, cache in _walk(fs):
        if cache.inode.itype not in (ITYPE_DIR, ITYPE_SYMLINK):
            groups.setdefault(ino, []).append(path)
    return groups


def _dir_links_real(fs) -> dict[str, int]:
    """path -> on-PM nlink for every directory (counterpart of
    :meth:`ModelFS.dir_links`)."""
    out = {"/": fs.caches[ROOT_INO].inode.links}
    out.update((path, cache.inode.links) for path, _ino, cache in _walk(fs)
               if cache.inode.itype == ITYPE_DIR)
    return out


def flags_converged(fs) -> bool:
    """After a drain no committed write entry may stay ``in_process``."""
    for cache in fs.caches.values():
        for _a, raw in image.log(fs.dev, fs.geo).iter_slots(
                cache.inode.log_head, cache.inode.log_tail):
            e = decode_entry(raw)
            if (isinstance(e, WriteEntry)
                    and e.dedupe_flag == DEDUPE_IN_PROCESS):
                return False
    return True


def _diff_namespaces(real: dict, model: dict) -> list[str]:
    diffs = []
    for path in sorted(set(real) | set(model)):
        r, m = real.get(path), model.get(path)
        if r == m:
            continue
        if r is None:
            diffs.append(f"{path}: missing on the real filesystem "
                         f"(model: {_short(m)})")
        elif m is None:
            diffs.append(f"{path}: unexpected on the real filesystem "
                         f"({_short(r)})")
        else:
            diffs.append(f"{path}: real {_short(r)} != model {_short(m)}")
    return diffs


def _short(desc: tuple) -> str:
    if desc[0] == "file":
        return f"file[{desc[1]}B sha={hashlib.sha1(desc[2]).hexdigest()[:10]}]"
    return repr(desc)


def full_equivalence_check(fs, model: ModelFS) -> None:
    """The clean-path oracle: byte-exact equality plus dedup soundness.

    Run after the sequence finished and the daemon fully drained.
    Raises OracleDivergence / InvariantViolation on any failure.
    """
    check_fs_invariants(fs)

    diffs = _diff_namespaces(fs_namespace(fs), model.namespace())
    if diffs:
        raise OracleDivergence(
            f"namespace/content divergence ({len(diffs)} paths): "
            + "; ".join(diffs[:5]))

    # Hard-link identity: the partition of file paths into inodes must
    # match the model's partition into nodes, with matching link counts.
    real_groups = {frozenset(v): k
                   for k, v in _hardlink_groups_real(fs).items()}
    model_groups = {frozenset(v)
                    for v in model.hardlink_groups().values()}
    if set(real_groups) != model_groups:
        raise OracleDivergence(
            f"hard-link partition mismatch: real {sorted(map(sorted, real_groups))!r} "
            f"!= model {sorted(map(sorted, model_groups))!r}")
    for paths, ino in real_groups.items():
        links = fs.stat(ino).links
        if links != len(paths):
            raise OracleDivergence(
                f"ino {ino}: link count {links} != {len(paths)} paths "
                f"{sorted(paths)!r}")

    # POSIX directory link counts: nlink == 2 + nsubdirs, everywhere.
    real_links = _dir_links_real(fs)
    model_links = model.dir_links()
    if real_links != model_links:
        bad = [f"{p}: real {real_links.get(p)} != model {model_links.get(p)}"
               for p in sorted(set(real_links) | set(model_links))
               if real_links.get(p) != model_links.get(p)]
        raise OracleDivergence(
            f"directory link-count divergence ({len(bad)} dirs): "
            + "; ".join(bad[:5]))

    if not flags_converged(fs):
        raise InvariantViolation(
            "in_process write entries survive a full drain")

    # RFC lower bound: after a full drain every materialized page image
    # has a FACT entry whose RFC covers all live occurrences.  Skipped
    # if the table ever filled (pages then legally stay un-deduplicated).
    if not fs.obs.registry.counter("daemon.fact_full_events_total").value:
        for img, n in model.page_occurrences().items():
            res = fs.fact.lookup(fs.fingerprinter.strong(img))
            if res.found is None:
                raise InvariantViolation(
                    f"page image with {n} live occurrences has no FACT "
                    f"entry after a full drain")
            if res.found.refcount < n:
                raise InvariantViolation(
                    f"FACT[{res.found.idx}]: RFC={res.found.refcount} "
                    f"undercounts {n} model-tracked occurrences")


def prefix_equivalence_check(fs, mk: ModelFS, mk1: ModelFS) -> None:
    """Post-crash oracle: recovered state sits between M_k and M_k+1."""
    real_ns = fs_namespace(fs)
    ns_k = mk.namespace()
    ns_k1 = mk1.namespace()
    for path in sorted(set(real_ns) | set(ns_k) | set(ns_k1)):
        r = real_ns.get(path)
        allowed = [ns[path] for ns in (ns_k, ns_k1) if path in ns]
        if r is None:
            if len(allowed) == 2 and allowed[0] == allowed[1]:
                raise OracleDivergence(
                    f"{path}: committed state lost across the crash "
                    f"(was {_short(allowed[0])})")
            continue
        if not allowed:
            raise OracleDivergence(
                f"{path}: exists after recovery but in neither adjacent "
                f"model state ({_short(r)})")
        if r not in allowed:
            raise OracleDivergence(
                f"{path}: recovered {_short(r)} matches neither "
                f"{_short(allowed[0])} nor "
                f"{_short(allowed[-1]) if len(allowed) > 1 else '-'}")


# ---------------------------------------------------------------- the engine


@dataclass
class Scenario:
    """All the sweep engine does not know about what it sweeps.

    ``build(tick)`` makes a fresh device and returns ``(dev, workload)``;
    ``workload()`` is what gets torn, and calls ``tick()`` once per step
    it completes so the engine knows how far it got before the crash.
    ``oracle(fs, progress)`` raises if the recovered, invariant-clean
    ``fs`` is not a legal outcome of a crash after ``progress`` steps.
    """

    build: Callable[[Callable[[], None]], tuple]
    oracle: Callable[[object, int], None]


def sweep_case(scenario: Scenario, cfg: FuzzConfig,
               result: Optional[CaseResult] = None) -> CaseResult:
    """The crash sweep: every scenario's persist events, torn and checked.

    Counts the scenario's persist events once, turns ``cfg.budget`` into
    a stride over them, and runs the workload once, crashing it at each
    sampled event in every (mode, phase); a budget of one point per
    (mode, phase) sweeps event #1 without counting.  After each crash:
    recovery mount, ``check_fs_invariants``, the scenario's oracle, then
    daemon drain + weak-block settle, invariants again, and dedupe-flag
    convergence — once per event for byte-equal media, clock and
    progress.  Each mode's first failed point becomes one ``Violation``.
    """
    result = result if result is not None else CaseResult()
    combos = len(cfg.modes) * len(cfg.phases)
    if not combos or cfg.budget <= 0:
        return result
    progress = [0]
    passed = [None, []]     # (clock, progress) now, media that passed

    def tick() -> None:
        progress[0] += 1

    def build():
        progress[0] = 0
        return scenario.build(tick)

    def check(dev, point, phase):
        key, media = (dev.clock.now_fs, dev.clock.charged_fs,
                      progress[0]), dev.media_key()
        if key != passed[0]:
            passed[:] = [key, []]
        elif media in passed[1]:
            return
        rec = _fs_cls(cfg).mount(dev, cpus=cfg.cpus)
        try:
            check_fs_invariants(rec)
            scenario.oracle(rec, progress[0])
            rec.daemon.drain()
            _settle(rec)  # hybrid: exercise lazy FACT insert post-recovery
            check_fs_invariants(rec)
            if not flags_converged(rec):
                raise InvariantViolation(
                    "in_process entries survive recovery + drain")
        except Exception as exc:
            if getattr(exc, "flight_dump", None) is None:
                exc.flight_dump = rec.obs.flight.dump(reason="fuzz:sweep")
            raise
        passed[1].append(media)

    per_combo = max(1, cfg.budget // combos)
    if per_combo == 1:
        # Whatever the count, the stride would be all of it: event #1 is
        # the one point due, and a run with none finishes uncrashed.
        total = stride = 1
    else:
        total = count_persist_events(build)
        # Ceiling: ``per_combo`` points at most, whatever the remainder.
        stride = max(1, -(-total // per_combo))
    try:
        result.crash_points += sweep_crash_points(
            build, check, phases=cfg.phases, mode=tuple(cfg.modes),
            stride=stride, seed=cfg.seed, total=total)
    except AssertionError as exc:
        result.crash_points += getattr(exc, "tested", 0)
        for mode, failure in getattr(exc, "failures",
                                     dict.fromkeys(cfg.modes, exc)).items():
            if not isinstance(failure, AssertionError):
                raise failure   # the workload's own: a replay raised it
            result.violations.append(Violation(
                kind="invariant", detail=str(failure), stage="sweep",
                point=getattr(failure, "point", None),
                phase=getattr(failure, "phase", None), mode=mode,
                flight=getattr(failure.__cause__, "flight_dump", None)))
    return result


# ---------------------------------------------------------------- scenarios


def differential_scenario(ops: list[TraceOp], cfg: FuzzConfig) -> Scenario:
    """Tear the op sequence itself; a crash after ``k`` committed ops
    must recover pointwise between the model states M_k and M_k+1."""
    model_cache: dict[int, ModelFS] = {}

    def model_at(k: int) -> ModelFS:
        k = max(0, min(k, len(ops)))
        if k not in model_cache:
            model_cache[k] = model_after(ops[:k])
        return model_cache[k]

    def build(tick):
        case_fs = make_fs(cfg)

        def workload():
            f, m = case_fs, ModelFS()
            for op in ops:
                f, status = apply_op(f, m, op)
                tick()
                if status == "stop":
                    break
            f.daemon.drain()
            # Clean unmount persists the DWQ save area and the remount
            # checkpoint — sweeping past the drain tears every
            # checkpoint persist event too (recovery must fall back to
            # the full scan when the header or payload is incomplete).
            f.unmount()

        return case_fs.dev, workload

    def oracle(rec, k):
        prefix_equivalence_check(rec, model_at(k), model_at(k + 1))

    return Scenario(build, oracle)


# ---------------------------------------------------------------- the case


def run_case(ops: list[TraceOp],
             cfg: Optional[FuzzConfig] = None) -> CaseResult:
    """Differential-check one op sequence, then sweep its crashes."""
    cfg = cfg or FuzzConfig()
    result = CaseResult()

    # ---- clean pass: run everything, drain, full equivalence ----------
    fs = make_fs(cfg)
    model = ModelFS()
    stop_at = len(ops)
    try:
        for i, op in enumerate(ops):
            fs, status = apply_op(fs, model, op)
            if status == "stop":
                stop_at = i
                break
            if status == "ok":
                result.ops_applied += 1
            else:
                result.ops_skipped += 1
        if fs.staging is not None:
            # Destage before the daemon drain: the destaged writes are
            # what enqueue the DWQ nodes the drain must then retire.
            fs.staging.drain_all()
        fs.daemon.drain()
        _settle(fs)
        full_equivalence_check(fs, model)
    except (OracleDivergence, InvariantViolation, AssertionError) as exc:
        result.violations.append(Violation(
            kind="divergence" if isinstance(exc, OracleDivergence)
            else "invariant",
            detail=str(exc), stage="clean",
            op_index=result.ops_applied + result.ops_skipped,
            flight=getattr(exc, "flight_dump", None)
            or fs.obs.flight.dump(reason="fuzz:clean")))
        return result
    except (FSError, Exception) as exc:  # implementation blew up
        result.violations.append(Violation(
            kind="exception",
            detail=f"{type(exc).__name__}: {exc}", stage="clean",
            op_index=result.ops_applied + result.ops_skipped,
            flight=fs.obs.flight.dump(reason="fuzz:exception")))
        return result

    fs.dev.close()  # built here, checked, done: the sweep's builds reuse it
    # ---- crash sweep: all (phase, mode) combos, budget-limited --------
    return sweep_case(differential_scenario(ops[:stop_at], cfg), cfg, result)
