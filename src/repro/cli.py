"""Command-line interface: ``python -m repro <command>``.

Operates on device *image files* (durable bytes of the emulated PM
device), so state persists across invocations like a real filesystem
image would:

    python -m repro mkfs disk.img --pages 8192 --variant denova-immediate
    python -m repro put disk.img /hello.txt local_file.txt
    python -m repro get disk.img /hello.txt -
    python -m repro ls disk.img /
    python -m repro dedup disk.img              # drain the daemon
    python -m repro stats disk.img
    python -m repro fsck disk.img
    python -m repro crash disk.img              # simulate power loss
    python -m repro workload disk.img --files 200 --dup 0.5
    python -m repro bench-model --size 4096 --alpha 0.5

Every command that mutates the image performs a clean unmount (or, for
``crash``, deliberately does not) and writes the image back.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import InlineModel, render_table
from repro.core import Config, Variant
from repro.dedup import DeNovaFS, HybridDeNovaFS
from repro.dedup.hybrid import MODE_NAMES
from repro.nova import NovaFS
from repro.nova.layout import Superblock
from repro.obs import (PROFILE_SCHEMA, diff_profiles, evaluate_snapshot,
                       format_profile, format_table, load_profile,
                       merge_profiles, merge_snapshots, profile_from_events,
                       to_chrome_trace, to_folded, to_prometheus)
from repro.pm import PMDevice, SimClock
from repro.pm.latency import PROFILES

__all__ = ["main"]


def _image_fs_class(dev):
    """Mount class for an existing image, from its superblock alone."""
    sb = Superblock(dev)
    if not sb.load_geometry().fact_page:
        return NovaFS
    if sb.hybrid_conf & 1:
        return HybridDeNovaFS
    return DeNovaFS


#: What ``mkfs --variant`` accepts: the kinds an image can remember
#: (:func:`_image_fs_class` reads them back).  Inline dedup is a property
#: of the mounting class and recorded nowhere on media, so an "inline"
#: image would be mounted offline by every later command.
_MKFS_CLASSES = {
    Variant.BASELINE: NovaFS,
    Variant.IMMEDIATE: DeNovaFS,
    Variant.DELAYED: DeNovaFS,
    Variant.HYBRID: HybridDeNovaFS,
}


class CLIError(Exception):
    """A failure the user caused: ``main`` prints one ``error:`` line."""


def _load_device(image: str) -> PMDevice:
    try:
        return PMDevice.load_image(image, clock=SimClock())
    except OSError as exc:
        raise CLIError(f"{image}: {exc.strerror}") from None
    except ValueError as exc:   # bad magic, unknown model, truncated
        raise CLIError(str(exc)) from None


def _open_fs(image: str, **mount_kw):
    dev = _load_device(image)
    fs = _image_fs_class(dev).mount(dev, **mount_kw)
    # SLO alerts / invariant trips during this invocation dump the
    # flight recorder next to the image automatically.
    fs.obs.flight.artifact_path = image + ".flight.json"
    return fs


def _metrics_path(image: str) -> str:
    return image + ".metrics.json"


def _load_metrics(image: str) -> dict:
    """The image's persisted metrics history (empty when none)."""
    try:
        with open(_metrics_path(image)) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"schema": "repro.metrics/1", "counters": {}, "gauges": {},
                "histograms": {}}


def _save_metrics(fs, image: str) -> dict:
    """Fold this process's snapshot onto the image's metrics sidecar.

    Registries are DRAM state, reset at every mount — but each CLI
    invocation is its own process, so per-image history (e.g. the DWQ
    residency histogram produced by ``repro dedup``) is kept in a JSON
    sidecar and merged across runs, the way a real system's scrape
    target would accumulate.
    """
    merged = merge_snapshots(_load_metrics(image), fs.obs.snapshot())
    with open(_metrics_path(image), "w") as fh:
        json.dump(merged, fh)
    return merged


def _profile_path(image: str) -> str:
    return image + ".profile.json"


def _load_profile_sidecar(image: str) -> dict:
    """The image's persisted profile history (empty when none)."""
    try:
        return load_profile(_profile_path(image))
    except (OSError, ValueError):
        return {"schema": PROFILE_SCHEMA, "unit": "charged_ns",
                "spans": 0, "stacks": {}}


def _save_profile(fs, image: str) -> dict:
    """Fold this mount's span profile onto the image's profile sidecar."""
    merged = merge_profiles(_load_profile_sidecar(image),
                            profile_from_events(fs.obs.tracer.events))
    with open(_profile_path(image), "w") as fh:
        json.dump(merged, fh)
    return merged


def _close(fs, image: str, clean: bool = True) -> None:
    if clean:
        if hasattr(fs, "daemon"):
            pass  # the DWQ is saved, not drained — offline semantics
        fs.unmount()
    fs.dev.save_image(image)
    _save_metrics(fs, image)
    _save_profile(fs, image)


def cmd_mkfs(args) -> int:
    variant = Variant(args.variant)
    model = PROFILES[args.profile]
    dev = PMDevice(args.pages * 4096, model=model, clock=SimClock())
    fs = _MKFS_CLASSES[variant].mkfs(dev, max_inodes=args.inodes)
    fs.unmount()
    dev.save_image(args.image)
    print(f"formatted {args.image}: {args.pages} pages "
          f"({args.pages * 4 // 1024} MB), {variant.value}, "
          f"{args.profile}, {args.inodes} inodes")
    return 0


def cmd_ls(args) -> int:
    fs = _open_fs(args.image)
    for name in fs.listdir(args.path):
        ino = fs.lookup(f"{args.path.rstrip('/')}/{name}")
        st = fs.stat(ino)
        kind = "d" if st.itype == 2 else "-"
        print(f"{kind} {st.size:>10}  ino={st.ino:<5} links={st.links}  "
              f"{name}")
    return 0


#: put/get/backup stream in chunks of this size — no whole-file buffer.
STREAM_CHUNK = 1 << 20


def _streamed_counter(fs):
    return fs.obs.registry.counter(
        "cli.bytes_streamed_total",
        help="bytes moved through chunked CLI streaming (put/get)")


def cmd_put(args) -> int:
    src = sys.stdin.buffer if args.source == "-" else open(args.source, "rb")
    fs = _open_fs(args.image)
    streamed = _streamed_counter(fs)
    try:
        if not fs.exists(args.path):
            fs.create(args.path)
        ino = fs.lookup(args.path)
        fs.truncate(ino, 0)
        offset = 0
        while True:
            chunk = src.read(STREAM_CHUNK)
            if not chunk:
                break
            fs.write(ino, offset, chunk)
            offset += len(chunk)
            streamed.inc(len(chunk))
    finally:
        if src is not sys.stdin.buffer:
            src.close()
    _close(fs, args.image)
    print(f"wrote {offset} bytes to {args.path}")
    return 0


def cmd_get(args) -> int:
    from repro.nova.fs import IsADirectory
    from repro.nova.inode import ITYPE_DIR

    fs = _open_fs(args.image)
    streamed = _streamed_counter(fs)
    ino = fs.lookup(args.path)
    st = fs.stat(ino)
    if st.itype == ITYPE_DIR:
        # A directory's size is 0: the loop below would never reach the
        # fs.read that refuses it.  Before the destination is touched.
        raise IsADirectory(args.path)
    size = st.size
    out = sys.stdout.buffer if args.dest == "-" else open(args.dest, "wb")
    try:
        offset = 0
        while offset < size:
            chunk = fs.read(ino, offset, min(STREAM_CHUNK, size - offset))
            if not chunk:
                break
            out.write(chunk)
            offset += len(chunk)
            streamed.inc(len(chunk))
    finally:
        if out is not sys.stdout.buffer:
            out.close()
    _close(fs, args.image)
    return 0


def cmd_rm(args) -> int:
    fs = _open_fs(args.image)
    fs.unlink(args.path)
    _close(fs, args.image)
    print(f"removed {args.path}")
    return 0


def cmd_dedup(args) -> int:
    fs = _open_fs(args.image)
    if not hasattr(fs, "daemon"):
        print("image has no dedup layer (formatted as baseline NOVA)",
              file=sys.stderr)
        return 1
    n = fs.daemon.drain()
    st = fs.space_stats()
    _close(fs, args.image)
    print(f"deduplicated {n} write entries; "
          f"{st['pages_saved']} pages saved "
          f"({st['space_saving']:.1%} of logical data)")
    return 0


def cmd_stats(args) -> int:
    fs = _open_fs(args.image)
    s = fs.statfs()
    rows = [["total pages", s["total_pages"]],
            ["data pages", s["data_pages"]],
            ["used pages", s["used_pages"]],
            ["free pages", s["free_pages"]]]
    space = None
    if hasattr(fs, "space_stats"):
        space = fs.space_stats()
        rows += [["logical pages", space["logical_pages"]],
                 ["physical pages", space["physical_pages"]],
                 ["logical bytes", space["logical_bytes"]],
                 ["physical bytes", space["physical_bytes"]],
                 ["dedup saving", f"{space['space_saving']:.1%}"],
                 ["FACT RFC sum", space["rfc_sum"]],
                 ["unfingerprinted pages", space["unfingerprinted_pages"]],
                 ["snapshots", space["snapshots"]["count"]],
                 ["snapshot logical pages",
                  space["snapshots"]["logical_pages"]],
                 ["DWQ backlog", space["dwq_backlog"]],
                 ["FACT entries", space["fact"]["entries"]],
                 ["FACT DAA/IAA", f"{space['fact']['daa_used']}"
                                  f"/{space['fact']['iaa_used']}"]]
        hy = space.get("hybrid")
        if hy:
            rows += [["hybrid shard modes",
                      " ".join(f"{s}={m}"
                               for s, m in hy["shard_modes"].items())],
                     ["hybrid weak hits/misses",
                      f"{hy['weak_hits']}/{hy['weak_misses']}"],
                     ["hybrid false positives", hy["false_positives"]],
                     ["hybrid confirmed dups", hy["confirmed_dups"]],
                     ["hybrid inline completions", hy["inline_completions"]],
                     ["hybrid off-mode writes", hy["off_writes"]],
                     ["hybrid mode transitions", hy["transitions"]],
                     ["hybrid weak index size", hy["weak_registered"]]]
    tenants = (fs.tenant_stats()
               if getattr(fs, "tenants", None) is not None
               and fs.tenants.enabled else {})
    _close(fs, args.image)
    metrics = _load_metrics(args.image)  # history incl. this mount

    if args.json:
        out = {
            "schema": "repro.stats/1",
            "image": args.image,
            "statfs": s,
            "space": space,
            "tenants": tenants,
            "metrics": metrics,
        }
        print(json.dumps(out, indent=2))
        return 0

    print(render_table(["metric", "value"], rows,
                       title=f"{args.image}"))
    if tenants:
        trows = [[name, t["tid"], t["weight"],
                  f"{t['used_pages']}/{t['quota_pages'] or '∞'}",
                  f"{t['used_inodes']}/{t['quota_inodes'] or '∞'}"]
                 for name, t in sorted(tenants.items())]
        print(render_table(
            ["tenant", "tid", "weight", "pages used/quota",
             "inodes used/quota"], trows,
            title=f"{args.image} tenants"))
    # Consolidated component report: daemon / FACT / allocator counters
    # plus histogram percentiles, from the per-image metrics history.
    print(format_table(metrics, title=f"{args.image} metrics (cumulative)"))
    return 0


def cmd_metrics(args) -> int:
    """Prometheus text-format dump of the image's metrics history."""
    fs = _open_fs(args.image)
    _close(fs, args.image)  # folds this mount's snapshot into the sidecar
    sys.stdout.write(to_prometheus(_load_metrics(args.image)))
    return 0


def cmd_trace(args) -> int:
    """Spans recorded during this mount (recovery phases, replay ops)."""
    fs = _open_fs(args.image)
    events = list(fs.obs.tracer.events)
    if args.name:
        events = [e for e in events if e.name.startswith(args.name)]
    if args.limit and len(events) > args.limit:
        events = events[-args.limit:]

    def _emit(text: str) -> int:
        if args.output and args.output != "-":
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.chrome:
        return _emit(json.dumps(to_chrome_trace(events), indent=1) + "\n")
    if args.folded:
        return _emit(to_folded(events))

    rows = [[e.span_id,
             e.parent_id if e.parent_id is not None else "-",
             e.trace_id,
             e.track,
             e.name,
             f"{e.start_ns / 1e3:.1f}",
             f"{e.duration_ns / 1e3:.2f}",
             " ".join(f"{k}={v}" for k, v in e.attrs)]
            for e in events]
    print(render_table(
        ["span", "parent", "trace", "track", "name", "start us", "dur us",
         "attrs"], rows,
        title=f"mount trace of {args.image}"))
    t = fs.obs.tracer
    # Ring truncation must be visible, never silent.
    print(f"spans_recorded={t.total_spans} spans_evicted={t.evicted} "
          f"shown={len(rows)}")
    return 0


def cmd_profile(args) -> int:
    """Charged-ns call-tree profile from the image's profile sidecar."""
    fs = _open_fs(args.image)
    _close(fs, args.image)  # folds this mount's spans into the sidecar
    prof = _load_profile_sidecar(args.image)
    if args.diff:
        prof = diff_profiles(prof, load_profile(args.diff))
    if args.json:
        print(json.dumps(prof, indent=2))
        return 0
    title = f"profile of {args.image}"
    if args.diff:
        title += f" minus {args.diff}"
    print(title)
    print(format_profile(prof, top=args.top, sort=args.sort))
    return 0


def cmd_slo(args) -> int:
    """Evaluate declarative SLO rules against the metrics history.

    One-shot evaluation (latency and gauge rules; rate rules need the
    live in-run watchdog — ``run_workload(..., slo=rules)``).  Exit
    status 1 when any rule is violated.
    """
    fs = _open_fs(args.image)
    _close(fs, args.image)  # fold this mount, then judge the history
    alerts = evaluate_snapshot(args.rules, _load_metrics(args.image))
    violations = [a for a in alerts if a.get("kind") != "skipped"]
    skipped = [a for a in alerts if a.get("kind") == "skipped"]
    if args.json:
        print(json.dumps({"schema": "repro.slo.report/1",
                          "image": args.image, "rules": args.rules,
                          "alerts": alerts}, indent=2))
        return 1 if violations else 0
    for a in violations:
        bound = "<" if a.get("below") else ">"
        print(f"VIOLATED {a['rule']}: {a['metric']} = {a['value']:.6g} "
              f"{bound} bound {a['bound']:.6g}")
    for a in skipped:
        print(f"skipped (need live watchdog): {', '.join(a['rules'])}")
    if not violations:
        print("SLO OK")
    return 1 if violations else 0


def cmd_fsck(args) -> int:
    from repro.failure import InvariantViolation, check_fs_invariants

    fs = _open_fs(args.image,
                  use_checkpoint=not args.full_scan,
                  recovery_workers=args.workers)
    rep = fs.last_recovery
    how = "clean" if rep.clean else "recovered"
    ck = rep.extra.get("checkpoint")
    if ck:
        how += f", checkpoint gen={ck['generation']}"
    print(f"mounted ({how}): "
          f"{rep.inodes_recovered} inodes, "
          f"{rep.entries_replayed} log entries, "
          f"{rep.orphans_collected} orphans collected")
    try:
        result = check_fs_invariants(fs)
    except InvariantViolation as exc:
        print(f"FSCK FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"invariants OK: {len(result['page_refs'])} data pages live, "
          f"{len(result['log_pages'])} log pages")
    if "fact" in result:
        print(f"FACT OK: {result['fact']['live_entries']} live entries")
    if args.scrub and hasattr(fs, "scrub"):
        srep = fs.scrub()
        print(f"scrub: {srep}")
    if args.deep and hasattr(fs, "deep_verify"):
        vrep = fs.deep_verify()
        if not vrep["clean"]:
            print(f"DEEP VERIFY FAILED: corrupt canonical pages "
                  f"{vrep['corrupt']}", file=sys.stderr)
            return 1
        print(f"deep verify: {vrep['checked']} canonical pages match "
              f"their fingerprints")
    _close(fs, args.image)
    return 0


def cmd_scrub(args) -> int:
    """Budgeted, resumable FACT maintenance (scrub / deep verify)."""
    fs = _open_fs(args.image)
    if not hasattr(fs, "scrub"):
        print("scrub needs a dedup-enabled image", file=sys.stderr)
        return 1
    code = 0
    if args.cursor:
        fs.cursors.set("deep_verify" if args.deep else "scrub", args.cursor)
    if args.deep:
        rep = fs.deep_verify(budget=args.budget)
        if not rep["clean"]:
            print(f"DEEP VERIFY FAILED: corrupt canonical pages "
                  f"{rep['corrupt']}", file=sys.stderr)
            code = 1
    else:
        rep = fs.scrub(budget=args.budget)
    _close(fs, args.image)
    if args.json:
        print(json.dumps({"schema": "repro.scrub/1", "image": args.image,
                          "deep": args.deep, **{k: v for k, v in rep.items()
                                                if k != "corrupt"},
                          "corrupt": rep.get("corrupt", [])}, indent=2))
        return code
    what = "deep verify" if args.deep else "scrub"
    tail = ("done" if rep["done"]
            else f"paused, resume with --cursor {rep['next_cursor']}")
    print(f"{what}: {rep['examined']} FACT entries examined ({tail})")
    if not args.deep:
        print(f"  {rep['entries_removed']} stale entries removed, "
              f"{rep['pages_freed']} pages freed, "
              f"{rep['overcounted_remaining']} overcounted remain")
    return code


def cmd_tenant(args) -> int:
    """Tenant lifecycle: create, list, adjust quotas/weight."""
    fs = _open_fs(args.image)
    if getattr(fs, "tenants", None) is None or fs.tenants.registry is None:
        print("image has no tenant registry region (too small at mkfs "
              "time)", file=sys.stderr)
        return 1
    if args.taction == "create":
        try:
            info = fs.tenant_create(args.name,
                                    quota_pages=args.quota_pages,
                                    quota_inodes=args.quota_inodes,
                                    weight=args.weight)
        except ValueError as exc:
            print(f"tenant create failed: {exc}", file=sys.stderr)
            return 1
        _close(fs, args.image)
        print(f"created tenant {info.name!r} (tid={info.tid}, "
              f"root=/t/{info.name}, "
              f"quota_pages={info.quota_pages or 'unlimited'}, "
              f"quota_inodes={info.quota_inodes or 'unlimited'}, "
              f"weight={info.weight})")
        return 0
    if args.taction == "quota":
        try:
            info = fs.tenant_set_quota(args.name,
                                       quota_pages=args.quota_pages,
                                       quota_inodes=args.quota_inodes,
                                       weight=args.weight)
        except (KeyError, ValueError) as exc:
            print(f"tenant quota failed: {exc}", file=sys.stderr)
            return 1
        _close(fs, args.image)
        print(f"tenant {info.name!r}: quota_pages="
              f"{info.quota_pages or 'unlimited'}, quota_inodes="
              f"{info.quota_inodes or 'unlimited'}, weight={info.weight}")
        return 0
    # list
    stats = fs.tenant_stats()
    _close(fs, args.image)
    if args.json:
        print(json.dumps({"schema": "repro.tenants/1",
                          "image": args.image, "tenants": stats},
                         indent=2))
        return 0
    rows = [[name, t["tid"], t["weight"],
             f"{t['used_pages']}/{t['quota_pages'] or '∞'}",
             f"{t['used_inodes']}/{t['quota_inodes'] or '∞'}"]
            for name, t in sorted(stats.items())]
    print(render_table(
        ["tenant", "tid", "weight", "pages used/quota",
         "inodes used/quota"], rows, title=f"tenants on {args.image}"))
    return 0


def cmd_crash(args) -> int:
    dev = _load_device(args.image)
    fs = _image_fs_class(dev).mount(dev)
    # Leave some work in flight so the crash is interesting, then pull
    # the plug without unmounting.
    dev.crash()
    dev.recover_view()
    dev.save_image(args.image)
    print(f"simulated power failure on {args.image} "
          f"(next mount will recover)")
    return 0


#: ``workload --dedup-mode`` values.  ``auto`` keeps whatever the image
#: was formatted with (adaptive controller on hybrid images); ``hybrid``
#: requires a hybrid image and keeps its controller adaptive; the pinned
#: variants force every policy shard into one mode for A/B comparison.
DEDUP_MODES = ["auto", "hybrid", "hybrid-inline", "hybrid-delayed",
               "hybrid-off"]

_FORCED_MODE = {name: mode for mode, name in MODE_NAMES.items()}


def cmd_workload(args) -> int:
    fs = _open_fs(args.image)
    if args.dedup_mode != "auto":
        if not hasattr(fs, "force_mode"):
            print(f"--dedup-mode {args.dedup_mode} needs an image "
                  f"formatted with --variant denova-hybrid",
                  file=sys.stderr)
            return 1
        pinned = args.dedup_mode.removeprefix("hybrid").lstrip("-")
        if pinned:  # "hybrid" alone keeps the adaptive controller
            fs.force_mode(_FORCED_MODE[pinned])
    if args.staging:
        from repro.nova.fs import FSError
        try:
            fs.enable_staging()
        except FSError as exc:
            print(f"--staging: {exc} (reformat with a staging region)",
                  file=sys.stderr)
            return 1
    print(_run_fleet_workload(fs, args) if args.tenants
          else _run_flat_workload(fs, args))
    if args.trace_out:
        # The span ring dies with this process; export the concurrent
        # run's causal trace (writer/worker/shard lanes) while we have it.
        with open(args.trace_out, "w") as fh:
            json.dump(to_chrome_trace(list(fs.obs.tracer.events)), fh,
                      indent=1)
        print(f"chrome trace written to {args.trace_out}")
    _close(fs, args.image)
    return 0


def _staging_rows(fs) -> list:
    st = fs.staging.stats()
    return [["staging absorbed",
             f"{st['absorbed']} writes + {st['absorbed_creates']} "
             f"creates ({st['absorbed_bytes']} B)"],
            ["staging destaged/fallbacks",
             f"{st['destaged']}/{st['fallbacks']}"]]


def _run_flat_workload(fs, args) -> str:
    """``workload``: N fio threads on one flat file set."""
    from repro.workloads import run_workload, small_file_job

    spec = small_file_job(nfiles=args.files, dup_ratio=args.dup,
                          threads=args.threads, seed=args.seed)
    res = run_workload(fs, spec, workers=args.workers)
    rows = [["files", res.files_done],
            ["throughput MB/s (sim)", round(res.throughput_mb_s, 1)],
            ["files/s (sim)", round(res.files_per_s)],
            ["mean op latency us", round(res.mean_op_latency_us, 2)],
            ["dedup nodes", res.dd_nodes],
            ["dedup workers", res.workers],
            ["dwq steals", res.steals],
            ["writer stalls", res.stalls],
            ["space saving", f"{res.space.get('space_saving', 0):.1%}"]]
    if args.staging:
        rows += _staging_rows(fs) + [["staging destage records",
                                      res.destage_records]]
    hy = res.space.get("hybrid")
    if hy:
        rows += [["hybrid modes",
                  " ".join(f"{m}:{n}" for m, n in
                           hy["mode_counts"].items() if n)],
                 ["hybrid weak hits/misses",
                  f"{hy['weak_hits']}/{hy['weak_misses']}"],
                 ["hybrid confirmed dups", hy["confirmed_dups"]],
                 ["hybrid false positives", hy["false_positives"]],
                 ["hybrid mode transitions", hy["transitions"]]]
    for t, lat in enumerate(res.per_thread_latency):
        rows.append([f"t{t} p50/p95/p99 us",
                     "/".join(f"{lat[k] / 1000:.1f}"
                              for k in ("p50_ns", "p95_ns", "p99_ns"))])
    return render_table(["metric", "value"], rows,
                        title=f"workload on {args.image}")


def _run_fleet_workload(fs, args) -> str:
    """``workload --tenants N``: the multi-tenant fleet scenario."""
    from repro.workloads.fleet import FleetSpec, run_fleet

    spec = FleetSpec(tenants=args.tenants, base_files=args.files,
                     dup_ratio=args.dup, seed=args.seed,
                     noisy_tenant=args.noisy,
                     noisy_burst_files=(args.files if args.noisy is not None
                                        else 0))
    res = run_fleet(fs, spec, workers=args.workers,
                    max_shard_depth=8, qos=args.qos)
    rows = []
    for name, st in sorted(res.per_tenant.items()):
        rows.append([name, st["files"], st["bytes"],
                     "/".join(f"{st[k] / 1000:.1f}"
                              for k in ("p50_ns", "p95_ns", "p99_ns")),
                     res.quota_failures.get(name, 0)])
    table = render_table(
        ["tenant", "files", "bytes", "p50/p95/p99 us", "quota fails"],
        rows,
        title=f"fleet on {args.image} "
              f"(qos={'on' if args.qos else 'off'}, "
              f"stalls={res.stalls})")
    if args.staging:
        table += "\n" + "\n".join(f"{k}: {v}" for k, v in _staging_rows(fs))
    return table


def cmd_tree(args) -> int:
    fs = _open_fs(args.image)
    for dirpath, dirnames, filenames in fs.walk(args.path):
        depth = max(0, dirpath.rstrip("/").count("/"))
        indent = "  " * depth
        label = dirpath.rstrip("/").rsplit("/", 1)[-1]
        print("/" if not label else f"{indent}{label}/")
        for name in filenames:
            full = f"{dirpath.rstrip('/')}/{name}"
            ino = fs.lookup(full, follow=False)
            cache = fs.caches[ino]
            if cache.inode.itype == 3:
                print(f"{indent}  {name} -> {cache.symlink_target}")
            else:
                print(f"{indent}  {name} ({cache.inode.size} B)")
    return 0


def cmd_du(args) -> int:
    fs = _open_fs(args.image)
    rep = fs.du(args.path)
    print(render_table(
        ["metric", "value"],
        [["files", rep["files"]], ["dirs", rep["dirs"]],
         ["logical bytes", rep["logical_bytes"]],
         ["logical pages", rep["logical_pages"]],
         ["unique data pages", rep["unique_pages"]],
         ["shared data pages", rep["shared_pages"]],
         ["physical bytes", rep["physical_bytes"]],
         ["saved by sharing", rep["saved_bytes"]]],
        title=f"du {args.path} on {args.image} (dedup-aware)"))
    return 0


def cmd_reflink(args) -> int:
    fs = _open_fs(args.image)
    if not hasattr(fs, "reflink"):
        print("reflink needs a dedup-enabled image", file=sys.stderr)
        return 1
    fs.reflink(args.src, args.dst)
    _close(fs, args.image)
    print(f"reflinked {args.src} -> {args.dst} (shared pages, O(metadata))")
    return 0


def cmd_snap(args) -> int:
    fs = _open_fs(args.image)
    if not hasattr(fs, "snapshot"):
        print("snapshots need a dedup-enabled image", file=sys.stderr)
        return 1
    code = 0
    if args.action == "create":
        rep = fs.snapshot(args.name)
        print(f"snapshot {rep['name']!r}: {rep['files']} files, "
              f"{rep['dirs']} dirs at {rep['path']}")
    elif args.action == "list":
        for name in fs.list_snapshots():
            print(name)
    elif args.action == "delete":
        removed = fs.delete_snapshot(args.name)
        print(f"deleted snapshot {args.name!r} ({removed} files)")
    _close(fs, args.image)
    return code


def cmd_backup(args) -> int:
    """Dedup-aware snapshot replication between device images."""
    from repro.backup import (StreamError, receive_backup, send_backup,
                              verify_snapshot, verify_stream)
    from repro.nova.fs import FSError

    fs = _open_fs(args.image)
    if not hasattr(fs, "fact"):
        print("backup needs a dedup-enabled image", file=sys.stderr)
        return 1
    code = 0
    try:
        if args.baction == "send":
            rep = send_backup(fs, args.snapshot, args.stream,
                              base=args.base, resume=not args.no_resume,
                              max_records=args.max_records)
            _close(fs, args.image)
            if args.json:
                print(json.dumps({"schema": "repro.backup.send/1", **rep},
                                 indent=2))
            else:
                state = ("complete" if rep["complete"]
                         else "interrupted (resumable)")
                print(f"sent {rep['snapshot']!r}"
                      + (f" (incremental vs {rep['base']!r})"
                         if rep["base"] else " (full)")
                      + f": {rep['records_written']}/{rep['records_total']}"
                      f" records, {rep['bytes_written']} B, {state}")
                print(f"  {rep['base_shared_pages']}/{rep['total_pages']} "
                      f"page refs shared with base; stream "
                      f"{rep['stream_id'][:12]}")
            return 0 if rep["complete"] else 3
        if args.baction == "recv":
            rep = receive_backup(fs, args.stream,
                                 resume=not args.no_resume,
                                 max_entries=args.max_entries)
            _close(fs, args.image)
            if args.json:
                print(json.dumps({"schema": "repro.backup.recv/1", **rep},
                                 indent=2))
            else:
                state = ("committed" if rep["committed"]
                         else "staged (resumable)")
                print(f"received {rep['snapshot']!r}: "
                      f"{rep['entries_applied']} entries applied"
                      f" ({rep['entries_skipped']} resumed), "
                      f"{rep['pages_dup']} pages deduped, "
                      f"{rep['pages_novel']} copied — {state}")
            return 0 if rep["committed"] else 3
        if args.baction == "verify":
            srep = verify_stream(args.stream)
            nrep = (verify_snapshot(fs, args.stream, deep=args.deep)
                    if srep.get("snapshot") else
                    {"ok": False, "present": False, "mismatches": []})
            _close(fs, args.image)
            if args.json:
                print(json.dumps({"schema": "repro.backup.verify/1",
                                  "stream": srep, "snapshot": nrep},
                                 indent=2))
            else:
                print(f"stream: {'OK' if srep['ok'] else 'BAD'} "
                      f"({srep['records']} records)")
                for err in srep.get("errors", []):
                    print(f"  {err}", file=sys.stderr)
                if nrep.get("present"):
                    print(f"snapshot {nrep['snapshot']!r}: "
                          f"{'OK' if nrep['ok'] else 'MISMATCH'} "
                          f"({nrep.get('entries', 0)} entries, "
                          f"{nrep.get('fingerprints', 0)} fingerprints"
                          + (", deep" if args.deep else "") + ")")
                    for m in nrep["mismatches"]:
                        print(f"  {m}", file=sys.stderr)
                else:
                    print("snapshot: not present in image "
                          "(stream-only verify)")
            return 0 if srep["ok"] and (not nrep.get("present")
                                        or nrep["ok"]) else 1
        # list: snapshots (backup sources/targets) with chain metadata,
        # + staged ingests, in the same deterministic order as ``snap
        # list`` (chain_table keeps the sorted contract).
        from repro.repl import chain_table
        for row in chain_table(fs):
            meta = [f"depth {row['depth']}", row["layout"]]
            if row["parent"]:
                meta.insert(0, f"parent {row['parent']}")
            print(f"{row['snapshot']} [{', '.join(meta)}]")
        from repro.backup import staged_ingests
        for st in staged_ingests(fs):
            state = "torn" if st["active"] else "paused"
            applied = st["applied"] if st["applied"] is not None else "?"
            print(f"{st['snapshot']} [staged: {applied} entries, "
                  f"stream {str(st['stream_id'])[:12]}, {state}]")
        _close(fs, args.image)
        return 0
    except (FSError, StreamError, OSError) as exc:
        print(f"backup {args.baction}: {exc}", file=sys.stderr)
        return 1


def cmd_repl(args) -> int:
    """Reverse-dedup snapshot chains + fan-out/fan-in replication."""
    from repro.backup import BackupError
    from repro.nova.fs import CorruptImage, FSError

    if args.raction in ("fanout", "fanin"):
        import tempfile

        from repro.repl import ReplicationTopology

        spool = args.spool or tempfile.mkdtemp(prefix="repro-spool-")
        opened: list = []

        def open_image(path):
            fs = _open_fs(path)
            if not hasattr(fs, "fact"):
                raise BackupError(f"{path}: repl needs a dedup-enabled "
                                  "image")
            opened.append((fs, path))
            return fs

        try:
            topo = ReplicationTopology(spool_dir=spool, batch=args.batch)
            if args.raction == "fanout":
                src = open_image(args.image)
                replicas = [open_image(p) for p in args.replica]
                rep = topo.fan_out(src, args.snapshot, replicas,
                                   base=args.base)
            else:
                dst = open_image(args.image)
                sources = []
                for spec in args.source:
                    if ":" not in spec:
                        raise BackupError(
                            f"source {spec!r}: want IMAGE:SNAPSHOT")
                    path, name = spec.rsplit(":", 1)
                    sources.append((open_image(path), name))
                rep = topo.fan_in(sources, dst)
        except CorruptImage:
            raise  # no stream has moved yet: main()'s one error: line
        except (FSError, BackupError, OSError) as exc:
            print(f"repl {args.raction}: {exc}", file=sys.stderr)
            for fs, path in opened:
                _close(fs, path)
            return 1
        for fs, path in opened:
            _close(fs, path)
        if args.json:
            print(json.dumps({"schema": "repro.repl.topology/1", **rep},
                             indent=2))
        else:
            print(f"{args.raction}: {rep['committed']}/"
                  f"{len(rep['streams'])} streams committed"
                  + (", converged" if rep["converged"] else ""))
            for st in rep["streams"]:
                state = "committed" if st["committed"] else "pending"
                err = f" ERROR: {st['error']}" if st["error"] else ""
                print(f"  {st['name']}: {st['snapshot']!r} "
                      f"rounds={st['rounds']} dup={st['pages_dup']} "
                      f"novel={st['pages_novel']} {state}{err}")
        ok = rep["committed"] == len(rep["streams"]) and not rep["errors"]
        return 0 if ok else 1

    fs = _open_fs(args.image)
    if not hasattr(fs, "relocate"):
        print("repl needs a dedup-enabled image", file=sys.stderr)
        return 1
    try:
        if args.raction == "relocate":
            rep = fs.relocate(budget=args.budget)
            _close(fs, args.image)
            if args.json:
                print(json.dumps({"schema": "repro.repl.relocate/1",
                                  **rep}, indent=2))
            elif rep["snapshot"] is None:
                print("relocate: no snapshots")
            else:
                state = ("done" if rep["done"]
                         else f"paused at file {rep['next_cursor']}")
                print(f"relocated {rep['snapshot']!r}: "
                      f"{rep['pages_moved']} pages across "
                      f"{rep['files_moved']} files "
                      f"({rep['files_examined']} examined, "
                      f"{rep['skipped_enospc']} enospc) — {state}")
            return 0 if rep["done"] else 3
        # restore: digest-restore a snapshot through the sequential
        # read path (newest of the chain unless --snapshot is given).
        if args.snapshot:
            from repro.repl import restore_snapshot
            rep = restore_snapshot(fs, args.snapshot)
        else:
            rep = fs.restore_latest()
        _close(fs, args.image)
        if args.json:
            print(json.dumps({"schema": "repro.repl.restore/1", **rep},
                             indent=2))
        elif rep["snapshot"] is None:
            print("restore: no snapshots")
        else:
            print(f"restored {rep['snapshot']!r}: {rep['files']} files, "
                  f"{rep['bytes']} B in {rep['requests']} requests, "
                  f"{rep['throughput_gbps']:.2f} GB/s")
        return 0
    except FSError as exc:
        print(f"repl {args.raction}: {exc}", file=sys.stderr)
        return 1


def cmd_fuzz(args) -> int:
    """Crash-consistency fuzzing (no image file needed)."""
    from repro.fuzz import (FuzzConfig, FuzzRunner, GenConfig,
                            run_backup_case, run_repl_case)

    # The scenario: a two-image pipeline sweep, or the differential
    # campaign (which hosts relocate/restore ops too, via
    # repro.fuzz.pipeline.repl_gen_config).
    pipeline, noun = ((run_backup_case, "ingest sweeps") if args.backup
                      else (run_repl_case, "repl sweeps") if args.repl
                      else (None, "sequences"))
    if pipeline and (args.clients != 1 or args.tenants != 1 or args.corpus
                     or args.replay_corpus):
        args.usage_error("--backup/--repl generate their own single-stream "
                         "sequences: --clients, --tenants, --corpus and "
                         "--replay-corpus do not apply")
    cfg = FuzzConfig(seed=args.seed, total_ops=args.ops,
                     seq_ops=args.seq_ops, budget=args.budget,
                     pages=args.pages, alpha=args.alpha,
                     corpus=args.corpus, max_failures=args.max_failures,
                     clients=args.clients, tenants=args.tenants,
                     dedup_mode=args.dedup_mode, staging=args.staging)
    runner = FuzzRunner(cfg, gen_cfg=GenConfig(alpha=args.alpha),
                        shrink_failures=not args.no_shrink,
                        log=lambda msg: print(f"  {msg}", file=sys.stderr))
    if pipeline:
        result = runner.run_pipeline(pipeline)
    elif args.replay_corpus:
        result = runner.replay_corpus()
    else:
        result = runner.run()

    snapshot = runner.registry.snapshot()
    if args.json:
        print(json.dumps({
            "seed": cfg.seed,
            "sequences": result.sequences,
            "ops_generated": result.ops_generated,
            "ops_applied": result.ops_applied,
            "ops_skipped": result.ops_skipped,
            "crash_points": result.crash_points,
            "failures": [{
                "stream": f.stream,
                "violation": str(f.violation),
                "ops": len(f.ops),
                "reduced": len(f.reduced),
                "repro_path": f.repro_path,
            } for f in result.failures],
        }, indent=2))
    else:
        print(format_table(snapshot, title=f"fuzz seed={cfg.seed}"))
        verdict = "CLEAN" if result.ok else "FAILURES"
        print(f"{verdict}: {result.sequences} {noun}, "
              f"{result.ops_applied} ops applied, "
              f"{result.crash_points} crash points checked, "
              f"{len(result.failures)} violations")
        for f in result.failures:
            print(f"  stream {f.stream}: {f.violation}")
            if f.repro_path:
                print(f"    reproducer ({len(f.reduced)} ops): "
                      f"{f.repro_path}")
    return 0 if result.ok else 1


def cmd_bench_model(args) -> int:
    model = InlineModel()
    print(render_table(
        ["quantity", "us"],
        [["T_w", model.t_w(args.size) / 1000],
         ["T_f", model.t_f(args.size) / 1000],
         ["T_fw", model.t_fw(args.size) / 1000],
         ["baseline write", model.baseline_write_time(args.size) / 1000],
         [f"inline @ a={args.alpha}",
          model.inline_write_time(args.size, args.alpha) / 1000],
         [f"adaptive @ a={args.alpha}",
          model.adaptive_write_time(args.size, args.alpha) / 1000]],
        title=f"Eq. 1-5 model, {args.size} B writes"))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mkfs", help="format a new device image")
    s.add_argument("image")
    s.add_argument("--pages", type=int, default=8192)
    s.add_argument("--inodes", type=int, default=1024)
    s.add_argument("--variant", default="denova-immediate",
                   choices=[v.value for v in _MKFS_CLASSES],
                   help="inline dedup is not an image property: use "
                        "repro.core.make_fs(Variant.INLINE, ...)")
    s.add_argument("--profile", default="OptaneDCPM",
                   choices=sorted(PROFILES))
    s.set_defaults(fn=cmd_mkfs)

    s = sub.add_parser("ls", help="list a directory")
    s.add_argument("image")
    s.add_argument("path", nargs="?", default="/")
    s.set_defaults(fn=cmd_ls)

    s = sub.add_parser("put", help="copy a local file in")
    s.add_argument("image")
    s.add_argument("path")
    s.add_argument("source", help="local file, or - for stdin")
    s.set_defaults(fn=cmd_put)

    s = sub.add_parser("get", help="copy a file out")
    s.add_argument("image")
    s.add_argument("path")
    s.add_argument("dest", help="local file, or - for stdout")
    s.set_defaults(fn=cmd_get)

    s = sub.add_parser("rm", help="unlink a file")
    s.add_argument("image")
    s.add_argument("path")
    s.set_defaults(fn=cmd_rm)

    s = sub.add_parser("dedup", help="run the dedup daemon to completion")
    s.add_argument("image")
    s.set_defaults(fn=cmd_dedup)

    s = sub.add_parser("stats", help="consolidated space/dedup/metrics "
                                     "report")
    s.add_argument("image")
    s.add_argument("--json", action="store_true",
                   help="emit the stable repro.stats/1 JSON schema")
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("metrics",
                       help="Prometheus text-format metrics dump")
    s.add_argument("image")
    s.set_defaults(fn=cmd_metrics)

    s = sub.add_parser("trace", help="spans recorded during the mount")
    s.add_argument("image")
    s.add_argument("--limit", type=int, default=40,
                   help="show at most the last N spans (0 = all)")
    s.add_argument("--name", default=None,
                   help="only spans whose name starts with this prefix")
    s.add_argument("--chrome", action="store_true",
                   help="emit Chrome trace-event JSON (Perfetto-loadable, "
                        "one lane per client/worker/shard)")
    s.add_argument("--folded", action="store_true",
                   help="emit collapsed stacks (flamegraph.pl/speedscope)")
    s.add_argument("-o", "--output", default=None,
                   help="write --chrome/--folded output to a file "
                        "(default: stdout)")
    s.set_defaults(fn=cmd_trace)

    s = sub.add_parser("profile",
                       help="charged-ns call-tree profile "
                            "(<image>.profile.json history)")
    s.add_argument("image")
    s.add_argument("--top", type=int, default=15,
                   help="hot paths to list (0 = all)")
    s.add_argument("--sort", default="self_ns",
                   choices=["self_ns", "total_ns", "count"])
    s.add_argument("--diff", default=None,
                   help="subtract another repro.profile/1 JSON dump")
    s.add_argument("--json", action="store_true",
                   help="emit the repro.profile/1 schema")
    s.set_defaults(fn=cmd_profile)

    s = sub.add_parser("slo", help="evaluate SLO rules against the "
                                   "image's metrics history")
    s.add_argument("image")
    s.add_argument("--rules", required=True,
                   help="repro.slo/1 rules file (JSON)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_slo)

    s = sub.add_parser("fsck", help="mount, recover, verify invariants")
    s.add_argument("image")
    s.add_argument("--scrub", action="store_true",
                   help="also run the FACT scrubber")
    s.add_argument("--deep", action="store_true",
                   help="fingerprint-verify every canonical page")
    s.add_argument("--full-scan", action="store_true",
                   help="ignore any clean-unmount checkpoint and rebuild "
                        "all recovery state from the logs")
    s.add_argument("--workers", type=int, default=1,
                   help="simulated per-CPU recovery threads for the "
                        "replay and dedup flag scan")
    s.set_defaults(fn=cmd_fsck)

    s = sub.add_parser("scrub", help="budgeted, resumable FACT "
                                     "maintenance sweep")
    s.add_argument("image")
    s.add_argument("--budget", type=_positive_int, default=None,
                   help="examine at most N FACT entries (default: all)")
    s.add_argument("--cursor", type=int, default=0,
                   help="resume from a previous run's next_cursor")
    s.add_argument("--deep", action="store_true",
                   help="fingerprint-verify canonical pages instead of "
                        "reconciling reference counts")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_scrub)

    s = sub.add_parser("crash", help="simulate power failure on the image")
    s.add_argument("image")
    s.set_defaults(fn=cmd_crash)

    s = sub.add_parser("workload", help="run a fio-like workload")
    s.add_argument("image")
    s.add_argument("--files", type=_positive_int, default=100)
    s.add_argument("--dup", type=float, default=0.5)
    s.add_argument("--threads", type=_positive_int, default=1)
    s.add_argument("--workers", type=_positive_int, default=1,
                   help="dedup worker pool size (1 = the paper's daemon)")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--dedup-mode", default="auto", choices=DEDUP_MODES,
                   help="hybrid-image policy: auto keeps the image's "
                        "adaptive controller, hybrid-* pins every shard")
    s.add_argument("--trace-out", metavar="FILE",
                   help="write the run's Chrome/Perfetto trace "
                        "(per-client and per-worker lanes) to FILE")
    s.add_argument("--tenants", type=int, default=0,
                   help="run the multi-tenant fleet scenario with this "
                        "many tenants instead of the flat workload")
    s.add_argument("--qos", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="weighted-fair admission + DWQ shares "
                        "(--tenants mode; --no-qos records the "
                        "unisolated baseline)")
    s.add_argument("--noisy", type=int, default=None,
                   help="index of a noisy-neighbor tenant that bursts "
                        "without think time (--tenants mode)")
    s.add_argument("--staging", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="absorb small sync writes (and their creates) "
                        "through the front-tier staging log; destage "
                        "runs in background workers")
    s.set_defaults(fn=cmd_workload)

    s = sub.add_parser("tenant", help="multi-tenant namespaces, quotas, "
                                      "QoS weights")
    tsub = s.add_subparsers(dest="taction", required=True)
    t = tsub.add_parser("create", help="create a tenant and its /t root")
    t.add_argument("image")
    t.add_argument("name")
    t.add_argument("--quota-pages", type=int, default=0,
                   help="data-page quota (0 = unlimited)")
    t.add_argument("--quota-inodes", type=int, default=0,
                   help="inode quota (0 = unlimited)")
    t.add_argument("--weight", type=int, default=1,
                   help="QoS scheduling weight")
    t.set_defaults(fn=cmd_tenant)
    t = tsub.add_parser("list", help="tenants with usage vs. quota")
    t.add_argument("image")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_tenant)
    t = tsub.add_parser("quota", help="adjust quotas / QoS weight")
    t.add_argument("image")
    t.add_argument("name")
    t.add_argument("--quota-pages", type=int, default=None)
    t.add_argument("--quota-inodes", type=int, default=None)
    t.add_argument("--weight", type=int, default=None)
    t.set_defaults(fn=cmd_tenant)

    s = sub.add_parser("tree", help="print the directory tree")
    s.add_argument("image")
    s.add_argument("path", nargs="?", default="/")
    s.set_defaults(fn=cmd_tree)

    s = sub.add_parser("du", help="dedup-aware tree usage")
    s.add_argument("image")
    s.add_argument("path", nargs="?", default="/")
    s.set_defaults(fn=cmd_du)

    s = sub.add_parser("reflink", help="O(metadata) copy via shared pages")
    s.add_argument("image")
    s.add_argument("src")
    s.add_argument("dst")
    s.set_defaults(fn=cmd_reflink)

    s = sub.add_parser("snap", help="manage snapshots")
    s.add_argument("image")
    s.add_argument("action", choices=["create", "list", "delete"])
    s.add_argument("name", nargs="?", default="")
    s.set_defaults(fn=cmd_snap)

    s = sub.add_parser("backup", help="dedup-aware snapshot replication "
                                      "(send/recv/verify/list)")
    bsub = s.add_subparsers(dest="baction", required=True)

    b = bsub.add_parser("send", help="serialize a snapshot diff into a "
                                     "stream file")
    b.add_argument("image")
    b.add_argument("snapshot", help="snapshot name to send")
    b.add_argument("stream", help="output stream file")
    b.add_argument("--base", default=None,
                   help="base snapshot for an incremental send")
    b.add_argument("--no-resume", action="store_true",
                   help="ignore any sidecar cursor and restart")
    b.add_argument("--max-records", type=int, default=None,
                   help="write at most N new records, then pause "
                        "(resumable)")
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_backup)

    b = bsub.add_parser("recv", help="ingest a stream into this image "
                                     "(dedup against its FACT)")
    b.add_argument("image")
    b.add_argument("stream")
    b.add_argument("--no-resume", action="store_true",
                   help="discard any staged ingest and restart")
    b.add_argument("--max-entries", type=int, default=None,
                   help="apply at most N new tree entries, then pause "
                        "(resumable)")
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_backup)

    b = bsub.add_parser("verify", help="CRC-check a stream and compare "
                                       "the received snapshot")
    b.add_argument("image")
    b.add_argument("stream")
    b.add_argument("--deep", action="store_true",
                   help="re-hash page bytes instead of trusting FACT")
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_backup)

    b = bsub.add_parser("list", help="snapshots and staged ingests "
                                     "(same order as 'snap list')")
    b.add_argument("image")
    b.set_defaults(fn=cmd_backup)

    s = sub.add_parser("repl", help="reverse-dedup snapshot chains and "
                                    "fan-out/fan-in replication")
    rsub = s.add_subparsers(dest="raction", required=True)

    r = rsub.add_parser("fanout", help="replicate one snapshot to N "
                                       "images over resumable streams")
    r.add_argument("image", help="source image")
    r.add_argument("snapshot", help="snapshot name to replicate")
    r.add_argument("replica", nargs="+", help="destination image(s)")
    r.add_argument("--base", default=None,
                   help="base snapshot for incremental streams")
    r.add_argument("--batch", type=int, default=None,
                   help="records/entries per pump round (default: "
                        "whole stream at once)")
    r.add_argument("--spool", default=None,
                   help="directory for stream spool files (default: "
                        "a fresh temp dir)")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_repl)

    r = rsub.add_parser("fanin", help="consolidate snapshots from N "
                                      "source images into this one")
    r.add_argument("image", help="destination image")
    r.add_argument("source", nargs="+", metavar="IMAGE:SNAPSHOT",
                   help="source image and snapshot name, colon-joined")
    r.add_argument("--batch", type=int, default=None)
    r.add_argument("--spool", default=None)
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_repl)

    r = rsub.add_parser("relocate", help="reverse-dedup pass: make the "
                                         "newest snapshot sequential")
    r.add_argument("image")
    r.add_argument("--budget", type=_positive_int, default=None,
                   help="max pages moved this call (resumes next call)")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_repl)

    r = rsub.add_parser("restore", help="digest-restore a snapshot "
                                        "through the sequential read "
                                        "path")
    r.add_argument("image")
    r.add_argument("--snapshot", default=None,
                   help="snapshot to restore (default: newest of the "
                        "chain)")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_repl)

    s = sub.add_parser("fuzz", help="differential crash-consistency "
                                    "fuzzing against the model oracle")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--ops", type=int, default=2000,
                   help="total generated ops for the campaign")
    s.add_argument("--seq-ops", type=int, default=40,
                   help="ops per generated sequence")
    s.add_argument("--budget", type=int, default=8,
                   help="crash replays per sequence across all "
                        "phase/mode combinations")
    s.add_argument("--pages", type=int, default=2048,
                   help="device size in 4 KB pages")
    s.add_argument("--alpha", type=float, default=0.55,
                   help="duplicate-page ratio of generated data")
    s.add_argument("--corpus", default=None,
                   help="directory for minimized reproducer traces")
    s.add_argument("--replay-corpus", action="store_true",
                   help="re-check saved reproducers instead of generating")
    s.add_argument("--no-shrink", action="store_true",
                   help="keep failing sequences at full length")
    s.add_argument("--max-failures", type=int, default=3)
    s.add_argument("--clients", type=int, default=1,
                   help="concurrent-mode sequences: merge this many "
                        "per-client op streams under /c<i> roots")
    s.add_argument("--tenants", type=int, default=1,
                   help="multi-tenant sequences: per-tenant op streams "
                        "under /t/tn<i> roots, covering the tenant "
                        "registry's persistence crash points")
    s.add_argument("--dedup-mode", default="delayed",
                   choices=["delayed", "hybrid"],
                   help="dedup pipeline under test: classic delayed "
                        "DeNova, or the hybrid weak+strong path with "
                        "its extra persistence events")
    s.add_argument("--staging", action="store_true",
                   help="absorb small writes and creates through the "
                        "front-tier staging log, sweeping crashes "
                        "through its record/watermark persists too")
    s.add_argument("--backup", action="store_true",
                   help="sweep crashes through backup ingest instead of "
                        "the differential campaign")
    s.add_argument("--repl", action="store_true",
                   help="sweep crashes through the replication pipeline "
                        "(recv cursors + relocation intent journals)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_fuzz, usage_error=s.error)

    s = sub.add_parser("bench-model", help="print the Eq. 1-5 numbers")
    s.add_argument("--size", type=int, default=4096)
    s.add_argument("--alpha", type=float, default=0.5)
    s.set_defaults(fn=cmd_bench_model)

    return p


def main(argv=None) -> int:
    from repro.dedup.fact import FactCorruption
    from repro.nova.fs import FSError
    from repro.tenant import QuotaExceeded

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ENOSPC-style UX: one structured line on stderr, non-zero exit,
    # never a traceback.
    except QuotaExceeded as exc:
        print(f"quota exceeded: {exc}", file=sys.stderr)
    except (FSError, FactCorruption) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:   # host side: a missing source, an unwritable dest
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
