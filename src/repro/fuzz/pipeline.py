"""The two-image pipeline scenario: backup ingest and replication.

The differential scenario can't host ``recv`` — its namespace oracle
(:class:`repro.fuzz.model.ModelFS`) models one image, a ``recv``
involves two.  (It does host ``relocate``/``restore`` ops, which are
namespace no-ops in the model, when a ``GenConfig`` weights them.)
This module is the scenario for the rest, expressed as data
``(snapshot names, relocate?)`` and swept by the same engine,
:func:`repro.fuzz.diff.sweep_case`.  ``run_backup_case`` is the
one-snapshot / no-relocate instance, ``run_repl_case`` the two-snapshot
/ relocate one:

1. a seeded source tree is built by applying a generated op sequence
   to a real filesystem *and* the model oracle in lockstep (the usual
   :func:`repro.fuzz.diff.apply_op` protocol); one snapshot is taken at
   the end — or, for a two-link chain, one at the midpoint and one at
   the end — and sent to in-memory streams, the first full, the rest
   incremental;
2. a target image — prefilled with the first half of the same sequence
   so the ingest exercises the RFC-bump dup path, not just novel copies
   — receives every stream and, when relocating, reverse-dedups the
   latest snapshot (``relocate_latest``) and digest-restores it, while
   the engine crashes it at every persistence event: recv
   staging-cursor writes *and* relocation intent-journal writes;
3. after each recovery mount (torn-stage rollback + intent replay) the
   target must have no ``/.backup_stage`` or ``/.repl/relocate.intent``
   residue and nothing under ``/.repl`` but the chain records, its own
   tree byte-identical to the pre-ingest baseline, each snapshot either
   fully absent (crash before the commit rename) or byte-identical to
   the model namespace relocated under ``/.snapshots/<name>`` (crash
   after) with none present before its base — and every *present*
   snapshot must restore byte-identically to a never-relocated control,
   even before an interrupted relocation pass is finished;
4. the pipeline must then be completable from any crash point:
   re-receive whatever is missing (each must commit), run relocation to
   ``done``, and demand the whole namespace and every restore converge.
"""

from __future__ import annotations

import io

from repro.backup import receive_backup, send_backup
from repro.dedup.reflink import REPL_DIR, SNAPSHOT_DIR, STAGE_DIR, snapshot
from repro.fuzz.diff import (
    CaseResult,
    FuzzConfig,
    Scenario,
    apply_op,
    fs_namespace,
    make_fs,
    sweep_case,
)
from repro.fuzz.gen import GenConfig, generate_sequence
from repro.fuzz.model import ModelFS
from repro.repl import INTENT_PATH, relocate_latest, restore_snapshot

__all__ = ["backup_gen_config", "prepare_pipeline_case",
           "pipeline_scenario", "run_pipeline_case", "run_backup_case",
           "run_repl_case"]


def backup_gen_config(alpha: float = 0.55) -> GenConfig:
    """Generator knobs for building a pipeline *source* tree.

    Snapshot/crash/remount ops are disabled: the sweep takes its own
    snapshots, and the source build must run straight through so the
    model stays an exact oracle for the snapshotted tree.
    """
    cfg = GenConfig(alpha=alpha)
    cfg.weights = dict(cfg.weights)
    for kind in ("snapshot", "snap_delete", "crash", "remount"):
        cfg.weights[kind] = 0
    return cfg


def _under(ns: dict, root: str) -> dict:
    return {p: d for p, d in ns.items()
            if p == root or p.startswith(root + "/")}


def _apply(fs, model: ModelFS, ops) -> tuple:
    """Run ops against (fs, model) in lockstep until one stops; returns
    ``(fs, applied-count, ran-to-the-end?)``."""
    applied = 0
    for op in ops:
        fs, status = apply_op(fs, model, op)
        if status == "stop":
            return fs, applied, False
        if status == "ok":
            applied += 1
    return fs, applied, True


def prepare_pipeline_case(cfg: FuzzConfig, names: tuple) -> dict:
    """Build the source chain, send it, and derive the sweep oracles.

    Returns ``{"streams", "expected", "prefill", "want", "baseline",
    "ops_applied", "records"}`` where ``expected[name]`` is the model
    namespace under that snapshot root, ``want[name]`` the restore
    manifest of a never-relocated control target, ``prefill`` the
    op-sequence prefix that seeds every target, and ``baseline`` the
    target's own pre-ingest namespace.
    """
    ops = generate_sequence(cfg.seed, stream=0, nops=cfg.seq_ops,
                            cfg=backup_gen_config(cfg.alpha))
    half = len(ops) // 2
    cuts = (half, len(ops))[-len(names):]
    src, model = make_fs(cfg), ModelFS()
    applied, start, cont = 0, 0, True
    streams, expected, records = [], {}, 0
    for i, (name, cut) in enumerate(zip(names, cuts)):
        if cont:
            src, n, cont = _apply(src, model, ops[start:cut])
            applied += n
        start = cut
        src.daemon.drain()
        snapshot(src, name)
        buf = io.BytesIO()
        records += send_backup(
            src, name, buf, base=names[i - 1] if i else None)["records_total"]
        streams.append(buf.getvalue())
        root = f"{SNAPSHOT_DIR}/{name}"
        expected[name] = {root: ("dir",)}
        for path, desc in model.namespace().items():
            expected[name][root + path] = desc

    # Never-relocated control target: same prefill as the swept builds,
    # receives every stream, restores forward — the equivalence oracle.
    # Its pre-ingest namespace is the tree that must ride through every
    # crash untouched (builds are deterministic).
    ctrl, _n, _c = _apply(make_fs(cfg), ModelFS(), ops[:half])
    ctrl.daemon.drain()
    baseline = fs_namespace(ctrl)
    for data in streams:
        receive_backup(ctrl, io.BytesIO(data))
    return {
        "streams": tuple(streams),
        "expected": expected,
        "prefill": ops[:half],
        "want": {n: restore_snapshot(ctrl, n)["manifest"] for n in names},
        "baseline": baseline,
        "ops_applied": applied,
        "records": records,
    }


def pipeline_scenario(case: dict, cfg: FuzzConfig, names: tuple,
                      relocate: bool) -> Scenario:
    """The swept target of one prepared case; see the module docstring."""
    streams, expected = case["streams"], case["expected"]
    want, baseline = case["want"], case["baseline"]
    allowed_repl = {REPL_DIR} | {f"{REPL_DIR}/{n}.chain" for n in names}

    def build(_tick):
        tfs, _n, _c = _apply(make_fs(cfg), ModelFS(), case["prefill"])
        tfs.daemon.drain()

        def workload():
            for data in streams:
                receive_backup(tfs, io.BytesIO(data))
            if relocate:
                out = relocate_latest(tfs)
                assert out["done"]
                restore_snapshot(tfs, names[-1])
            tfs.unmount()

        return tfs.dev, workload

    def present_snapshots(fs) -> list:
        """Check the whole namespace; returns the committed snapshots.

        ``/.repl`` is advisory metadata recv records after the commit
        rename; a chain record may legitimately be present (commit
        reached) or absent (crash in the window between rename and
        record), so it is carved out of the baseline comparison and
        path-checked separately.
        """
        ns = fs_namespace(fs)
        residue = sorted(_under(ns, STAGE_DIR))
        if residue:
            raise AssertionError(
                f"staging residue after recovery: {residue[:4]}")
        snap, repl = _under(ns, SNAPSHOT_DIR), _under(ns, REPL_DIR)
        if INTENT_PATH in repl:
            raise AssertionError(
                "relocation intent journal survived recovery replay")
        stray = sorted(set(repl) - allowed_repl)
        if stray:
            raise AssertionError(
                f"unexpected /.repl residue after crash: {stray[:4]}")
        rest = {p: d for p, d in ns.items()
                if p not in snap and p not in repl}
        if rest != baseline:
            changed = sorted(set(rest) ^ set(baseline))[:4]
            raise AssertionError(
                f"target's own tree changed across crash: {changed}")
        # Each snapshot root is all-or-nothing, and receives are
        # ordered: none commits before its base.
        present = []
        for n in names:
            mine = _under(snap, f"{SNAPSHOT_DIR}/{n}")
            if not mine:
                continue
            if mine != expected[n]:
                missing = sorted(set(expected[n]) - set(mine))[:4]
                extra = sorted(set(mine) - set(expected[n]))[:4]
                wrong = sorted(p for p in set(mine) & set(expected[n])
                               if mine[p] != expected[n][p])[:4]
                raise AssertionError(
                    f"snapshot {n} diverges from model: "
                    f"missing={missing} extra={extra} wrong={wrong}")
            present.append(n)
        if present != list(names[:len(present)]):
            raise AssertionError(
                f"{present[-1]} committed without its base")
        leftovers = sorted(
            p for p in snap if p != SNAPSHOT_DIR
            and not any(p in expected[n] for n in present))
        if leftovers:
            raise AssertionError(
                f"partial snapshot visible after crash: {leftovers[:4]}")
        return present

    def expect_restores(fs, which) -> None:
        for n in which:
            if restore_snapshot(fs, n)["manifest"] != want[n]:
                raise AssertionError(
                    f"restore of {n} diverges from never-relocated "
                    f"control after crash")

    def oracle(rec, _progress):
        present = present_snapshots(rec)
        # Whatever committed must already restore correctly — the
        # recovery replay settled any half-relocated pages.
        expect_restores(rec, present)
        # Every crash point is resumable: rollback left a clean slate,
        # so finish the pipeline from scratch and demand convergence.
        for n, data in zip(names, streams):
            if n not in present:
                if not receive_backup(rec, io.BytesIO(data))["committed"]:
                    raise AssertionError(
                        f"post-crash re-receive of {n} did not commit")
        while relocate and not relocate_latest(rec)["done"]:
            pass
        if present_snapshots(rec) != list(names):
            raise AssertionError(
                "post-crash completion left a snapshot uncommitted")
        expect_restores(rec, names)

    return Scenario(build, oracle)


def run_pipeline_case(cfg: FuzzConfig, names: tuple,
                      relocate: bool) -> CaseResult:
    """Sweep crashes through one pipeline; see the module docstring."""
    case = prepare_pipeline_case(cfg, names)
    result = CaseResult(
        snapshots=tuple(names), records=case["records"],
        stream_bytes=sum(len(s) for s in case["streams"]),
        ops_applied=case["ops_applied"])
    return sweep_case(pipeline_scenario(case, cfg, names, relocate), cfg,
                      result)


def run_backup_case(cfg: FuzzConfig) -> CaseResult:
    """Backup ingest: one full stream, no relocation."""
    return run_pipeline_case(cfg, ("fz",), relocate=False)


def run_repl_case(cfg: FuzzConfig) -> CaseResult:
    """Replication: full + incremental stream, relocate, restore."""
    return run_pipeline_case(cfg, ("fz1", "fz2"), relocate=True)
