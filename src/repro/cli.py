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

Every subcommand is one :class:`Command` in :data:`COMMANDS`, declared
beside the function that runs it.  One that mutates the image runs inside
:func:`_mounted`: a clean unmount and the image written back when it
completes (``crash`` deliberately never unmounts), nothing written when it
fails; :func:`main` is the only place a failure becomes a line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Callable, NamedTuple

from repro.analysis import InlineModel, render_table
from repro.backup import (StreamError, receive_backup, send_backup,
                          staged_ingests, verify_snapshot, verify_stream)
from repro.core import Variant
from repro.dedup import DeNovaFS, HybridDeNovaFS
from repro.dedup.fact import FactCorruption
from repro.dedup.hybrid import MODE_NAMES
from repro.nova import NovaFS
from repro.nova.fs import FSError, IsADirectory
from repro.nova.inode import ITYPE_DIR
from repro.nova.layout import Superblock
from repro.obs import (diff_profiles, evaluate_snapshot, format_profile,
                       format_table, load_profile, load_rules, merge_profiles,
                       merge_snapshots, profile_from_events, to_chrome_trace,
                       to_folded, to_prometheus)
from repro.pm import PMDevice, SimClock
from repro.pm.latency import PROFILES
from repro.repl import (ReplicationTopology, chain_table, relocate_latest,
                        restore_latest, restore_snapshot)
from repro.tenant import QuotaExceeded
from repro.workloads import run_workload, small_file_job

__all__ = ["COMMANDS", "Command", "build_parser", "main"]


class Command(NamedTuple):
    """One subcommand: where it sits, what it takes, what runs it."""

    path: tuple          # ("backup", "send")
    help: str
    params: tuple        # (names, add_argument keywords), in --help order
    image: object        # False: takes no image; a str: the positional's help
    fn: Callable


#: Every leaf subcommand, in ``--help`` order.
COMMANDS: list[Command] = []

#: The three subcommand families: ``dest`` of the second level, help line.
_FAMILIES = {
    "tenant": ("taction", "multi-tenant namespaces, quotas, QoS weights"),
    "backup": ("baction", "dedup-aware snapshot replication "
                          "(send/recv/verify/list)"),
    "repl": ("raction", "reverse-dedup snapshot chains and fan-out/fan-in "
                        "replication"),
}


def arg(*names, **kw):
    """One ``add_argument`` call, as data."""
    return names, kw


def flag(*names, **kw):
    return arg(*names, action="store_true", **kw)


JSON = flag("--json")


def command(path: str, help: str, *params, image=True):
    """Declare the decorated function as the subcommand ``path``."""
    def declare(fn):
        COMMANDS.append(Command(tuple(path.split()), help, params, image, fn))
        return fn
    return declare


def _int_from(low: int):
    """An argparse ``type``: an integer that is at least ``low``."""
    def at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    return at_least


_positive_int = _int_from(1)
_count = _int_from(0)       # a count, a cursor or a limit (0 = none / all)
_seed = _count              # NumPy's generators refuse a negative one


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    families = {}
    for cmd in COMMANDS:
        *family, leaf = cmd.path
        parent = sub
        for name in family:
            if name not in families:
                dest, text = _FAMILIES[name]
                families[name] = sub.add_parser(name, help=text) \
                    .add_subparsers(dest=dest, required=True)
            parent = families[name]
        s = parent.add_parser(leaf, help=cmd.help)
        if cmd.image:
            s.add_argument("image", **({} if cmd.image is True
                                       else {"help": cmd.image}))
        for names, kw in cmd.params:
            s.add_argument(*names, **kw)
        s.set_defaults(fn=cmd.fn, usage_error=s.error)
    return p


class CLIError(Exception):
    """A failure the user caused: ``main`` prints one ``error:`` line."""


class Verdict(Exception):
    """A check that came out negative: ``main`` prints its line as it is
    and exits 1; like any failure, nothing is written back."""


@contextmanager
def _refusing(*types, where: str = ""):
    """What the library refuses about a value the user typed (``where``:
    the file it was read from) is a :class:`CLIError`, not a traceback."""
    try:
        yield
    except types as exc:
        text = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        if where and not str(text).startswith(where):
            text = f"{where}: {text}"
        raise CLIError(text) from None


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
    # Invariant trips during this invocation dump the
    # flight recorder next to the image automatically.
    fs.obs.flight.artifact_path = image + ".flight.json"
    return fs


def _sidecar(image: str, suffix: str) -> dict:
    """The image's persisted ``repro.<suffix>/1`` history ({} when none)."""
    try:
        with open(f"{image}.{suffix}.json") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    ours = isinstance(doc, dict) and doc.get("schema") == f"repro.{suffix}/1"
    return doc if ours else {}


def _fold(image: str, suffix: str, merge, this_mount: dict) -> None:
    """Fold this mount's document onto the image's sidecar.

    Registries and the span ring are DRAM state, reset at every mount —
    but each CLI invocation is its own process, so per-image history (e.g.
    the DWQ residency histogram produced by ``repro dedup``) is kept in a
    JSON sidecar and merged across runs, the way a real system's scrape
    target would accumulate.
    """
    merged = merge(_sidecar(image, suffix), this_mount)
    with open(f"{image}.{suffix}.json", "w") as fh:
        json.dump(merged, fh)


@contextmanager
def _mounted(image: str, needs: str = "", save: bool = True, **mount_kw):
    """Mount ``image`` for one command: open → run → write back.

    ``needs`` names a command only a dedup-enabled image can serve.  When
    the block completes the filesystem is unmounted cleanly (the DWQ is
    saved, not drained — offline semantics), the image saved and both
    sidecars folded, unless the command only reads (``save=False``); when
    it raises, nothing is written: the image file stays as it was found.
    """
    fs = _open_fs(image, **mount_kw)
    if needs and not hasattr(fs, "fact"):
        raise CLIError(f"{image}: {needs} needs a dedup-enabled image")
    yield fs
    if save:
        fs.unmount()
        fs.dev.save_image(image)
        _fold(image, "metrics", merge_snapshots, fs.obs.snapshot())
        _fold(image, "profile", merge_profiles,
              profile_from_events(fs.obs.tracer.events))


def _host_file(path: str, mode: str):
    """``-`` is the standard stream (left open), anything else a file."""
    if path != "-":
        return open(path, mode)
    std = sys.stdin if "r" in mode else sys.stdout
    return nullcontext(std.buffer if "b" in mode else std)


def _print_json(schema: str, doc: dict) -> None:
    print(json.dumps({"schema": schema, **doc}, indent=2))


@command("mkfs", "format a new device image",
         arg("--pages", type=int, default=8192),
         arg("--inodes", type=int, default=1024),
         arg("--variant", default="denova-immediate",
             choices=[v.value for v in _MKFS_CLASSES],
             help="inline dedup is not an image property: use "
                  "repro.core.make_fs(Variant.INLINE, ...)"),
         arg("--profile", default="OptaneDCPM", choices=sorted(PROFILES)))
def cmd_mkfs(args):
    variant = Variant(args.variant)
    with _refusing(ValueError):     # a geometry no device can have
        dev = PMDevice(args.pages * 4096, model=PROFILES[args.profile],
                       clock=SimClock())
        fs = _MKFS_CLASSES[variant].mkfs(dev, max_inodes=args.inodes)
    fs.unmount()
    dev.save_image(args.image)
    print(f"formatted {args.image}: {args.pages} pages "
          f"({args.pages * 4 // 1024} MB), {variant.value}, "
          f"{args.profile}, {args.inodes} inodes")


@command("ls", "list a directory", arg("path", nargs="?", default="/"))
def cmd_ls(args):
    with _mounted(args.image, save=False) as fs:
        for name in fs.listdir(args.path):
            ino = fs.lookup(f"{args.path.rstrip('/')}/{name}")
            st = fs.stat(ino)
            kind = "d" if st.itype == 2 else "-"
            print(f"{kind} {st.size:>10}  ino={st.ino:<5} "
                  f"links={st.links}  {name}")


#: put/get/backup stream in chunks of this size — no whole-file buffer.
STREAM_CHUNK = 1 << 20


def _streamed_counter(fs):
    return fs.obs.registry.counter(
        "cli.bytes_streamed_total",
        help="bytes moved through chunked CLI streaming (put/get)")


@command("put", "copy a local file in", arg("path"),
         arg("source", help="local file, or - for stdin"))
def cmd_put(args):
    with _host_file(args.source, "rb") as src, _mounted(args.image) as fs:
        streamed = _streamed_counter(fs)
        if not fs.exists(args.path):
            fs.create(args.path)
        ino = fs.lookup(args.path)
        fs.truncate(ino, 0)
        offset = 0
        while chunk := src.read(STREAM_CHUNK):
            fs.write(ino, offset, chunk)
            offset += len(chunk)
            streamed.inc(len(chunk))
    print(f"wrote {offset} bytes to {args.path}")


@command("get", "copy a file out", arg("path"),
         arg("dest", help="local file, or - for stdout"))
def cmd_get(args):
    with _mounted(args.image) as fs:
        streamed = _streamed_counter(fs)
        ino = fs.lookup(args.path)
        st = fs.stat(ino)
        if st.itype == ITYPE_DIR:
            # A directory's size is 0: the loop below would never reach
            # the fs.read that refuses it.  Before the destination is
            # touched.
            raise IsADirectory(args.path)
        with _host_file(args.dest, "wb") as out:
            offset = 0
            while offset < st.size:
                chunk = fs.read(ino, offset,
                                min(STREAM_CHUNK, st.size - offset))
                if not chunk:
                    break
                out.write(chunk)
                offset += len(chunk)
                streamed.inc(len(chunk))


@command("rm", "unlink a file", arg("path"))
def cmd_rm(args):
    with _mounted(args.image) as fs:
        fs.unlink(args.path)
    print(f"removed {args.path}")


@command("dedup", "run the dedup daemon to completion")
def cmd_dedup(args):
    with _mounted(args.image, needs="dedup") as fs:
        n = fs.daemon.drain()
        st = fs.space_stats()
    print(f"deduplicated {n} write entries; "
          f"{st['pages_saved']} pages saved "
          f"({st['space_saving']:.1%} of logical data)")


def _tenant_table(tenants: dict, title: str) -> str:
    rows = [[name, t["tid"], t["weight"],
             f"{t['used_pages']}/{t['quota_pages'] or '∞'}",
             f"{t['used_inodes']}/{t['quota_inodes'] or '∞'}"]
            for name, t in sorted(tenants.items())]
    return render_table(["tenant", "tid", "weight", "pages used/quota",
                         "inodes used/quota"], rows, title=title)


@command("stats", "consolidated space/dedup/metrics report",
         flag("--json", help="emit the stable repro.stats/1 JSON schema"))
def cmd_stats(args):
    with _mounted(args.image) as fs:
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
                     ["unfingerprinted pages",
                      space["unfingerprinted_pages"]],
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
                         ["hybrid inline completions",
                          hy["inline_completions"]],
                         ["hybrid off-mode writes", hy["off_writes"]],
                         ["hybrid mode transitions", hy["transitions"]],
                         ["hybrid weak index size", hy["weak_registered"]]]
        tenants = fs.tenant_stats() if fs.tenants.enabled else {}
    metrics = _sidecar(args.image, "metrics")   # history incl. this mount

    if args.json:
        _print_json("repro.stats/1", {
            "image": args.image, "statfs": s, "space": space,
            "tenants": tenants, "metrics": metrics})
        return
    print(render_table(["metric", "value"], rows, title=f"{args.image}"))
    if tenants:
        print(_tenant_table(tenants, f"{args.image} tenants"))
    # Consolidated component report: daemon / FACT / allocator counters
    # plus histogram percentiles, from the per-image metrics history.
    print(format_table(metrics, title=f"{args.image} metrics (cumulative)"))


@command("metrics", "Prometheus text-format metrics dump")
def cmd_metrics(args):
    with _mounted(args.image):
        pass    # the write-back folds this mount's snapshot in
    sys.stdout.write(to_prometheus(_sidecar(args.image, "metrics")))


@command("trace", "spans recorded during the mount",
         arg("--limit", type=_count, default=40,
             help="show at most the last N spans (0 = all)"),
         arg("--name", default=None,
             help="only spans whose name starts with this prefix"),
         flag("--chrome",
              help="emit Chrome trace-event JSON (Perfetto-loadable, "
                   "one lane per client/worker/shard)"),
         flag("--folded",
              help="emit collapsed stacks (flamegraph.pl/speedscope)"),
         arg("-o", "--output", default=None,
             help="write --chrome/--folded output to a file "
                  "(default: stdout)"))
def cmd_trace(args):
    """Spans recorded during this mount (recovery phases, replay ops)."""
    with _mounted(args.image, save=False) as fs:
        t = fs.obs.tracer
    events = list(t.events)
    if args.name:
        events = [e for e in events if e.name.startswith(args.name)]
    if args.limit and len(events) > args.limit:
        events = events[-args.limit:]

    if args.chrome or args.folded:
        text = (json.dumps(to_chrome_trace(events), indent=1) + "\n"
                if args.chrome else to_folded(events))
        with _host_file(args.output or "-", "w") as fh:
            fh.write(text)
        return
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
    # Ring truncation must be visible, never silent.
    print(f"spans_recorded={t.total_spans} spans_evicted={t.evicted} "
          f"shown={len(rows)}")


@command("profile", "charged-ns call-tree profile "
                    "(<image>.profile.json history)",
         arg("--top", type=_count, default=15,
             help="hot paths to list (0 = all)"),
         arg("--sort", default="self_ns",
             choices=["self_ns", "total_ns", "count"]),
         arg("--diff", default=None,
             help="subtract another repro.profile/1 JSON dump"),
         flag("--json", help="emit the repro.profile/1 schema"))
def cmd_profile(args):
    if args.diff:
        with _refusing(ValueError, where=args.diff):
            base = load_profile(args.diff)
    with _mounted(args.image):
        pass    # the write-back folds this mount's spans in
    prof = _sidecar(args.image, "profile")
    title = f"profile of {args.image}"
    if args.diff:
        prof = diff_profiles(prof, base)
        title += f" minus {args.diff}"
    if args.json:
        print(json.dumps(prof, indent=2))
    else:
        print(title)
        print(format_profile(prof, top=args.top, sort=args.sort))


@command("slo", "evaluate SLO rules against the image's metrics history",
         arg("--rules", required=True, help="repro.slo/1 rules file (JSON)"),
         JSON)
def cmd_slo(args) -> int:
    """Evaluate declarative SLO rules against the metrics history.

    One-shot evaluation (latency and gauge rules; a rate rule needs two
    observations and a snapshot is one).  Exit status 1 when any rule
    is violated.
    """
    with _refusing(ValueError, KeyError, where=args.rules):
        rules = load_rules(args.rules)
    with _mounted(args.image):
        pass    # fold this mount, then judge the history
    alerts = evaluate_snapshot(rules, _sidecar(args.image, "metrics"))
    violations = [a for a in alerts if a.get("kind") != "skipped"]
    if args.json:
        _print_json("repro.slo.report/1", {
            "image": args.image, "rules": args.rules, "alerts": alerts})
    else:
        for a in violations:
            bound = "<" if a.get("below") else ">"
            print(f"VIOLATED {a['rule']}: {a['metric']} = "
                  f"{a['value']:.6g} {bound} bound {a['bound']:.6g}")
        for a in alerts:
            if a.get("kind") == "skipped":
                print("skipped (a rate rule needs two snapshots; "
                      "repro slo judges one): " + ", ".join(a["rules"]))
        if not violations:
            print("SLO OK")
    return 1 if violations else 0


def _deep_failure(rep: dict) -> str:
    """The verdict line of a ``deep_verify`` report that is not clean."""
    return "" if rep["clean"] else (f"DEEP VERIFY FAILED: corrupt canonical "
                                    f"pages {rep['corrupt']}")


@command("fsck", "mount, recover, verify invariants",
         flag("--scrub", help="also run the FACT scrubber"),
         flag("--deep", help="fingerprint-verify every canonical page"),
         flag("--full-scan",
              help="ignore any clean-unmount checkpoint and rebuild "
                   "all recovery state from the logs"),
         arg("--workers", type=_positive_int, default=1,
             help="simulated per-CPU recovery threads for the one "
                  "log replay and the dedup work it finds"))
def cmd_fsck(args):
    from repro.failure import (  # lazy: only fsck runs the checkers
        InvariantViolation, check_fs_invariants)

    with _mounted(args.image, use_checkpoint=not args.full_scan,
                  recovery_workers=args.workers) as fs:
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
            raise Verdict(f"FSCK FAILED: {exc}") from None
        print(f"invariants OK: {len(result['page_refs'])} data pages live, "
              f"{len(result['log_pages'])} log pages")
        if "fact" in result:
            print(f"FACT OK: {result['fact']['live_entries']} live entries")
        if args.scrub and hasattr(fs, "scrub"):
            print(f"scrub: {fs.scrub()}")
        if args.deep and hasattr(fs, "deep_verify"):
            vrep = fs.deep_verify()
            if bad := _deep_failure(vrep):
                raise Verdict(bad)
            print(f"deep verify: {vrep['checked']} canonical pages match "
                  f"their fingerprints")


@command("scrub", "budgeted, resumable FACT maintenance sweep",
         arg("--budget", type=_positive_int, default=None,
             help="examine at most N FACT entries (default: all)"),
         arg("--cursor", type=_count, default=0,
             help="resume from a previous run's next_cursor"),
         flag("--deep",
              help="fingerprint-verify canonical pages instead of "
                   "reconciling reference counts"),
         JSON)
def cmd_scrub(args) -> int:
    with _mounted(args.image, needs="scrub") as fs:
        if args.cursor:
            fs.cursors.set("deep_verify" if args.deep else "scrub",
                           args.cursor)
        rep = (fs.deep_verify(budget=args.budget) if args.deep
               else fs.scrub(budget=args.budget))
    # A deep-verify miss is this pass's result, not a failure of it: the
    # cursor it advanced is saved, and the report below still follows.
    bad = args.deep and _deep_failure(rep)
    if bad:
        print(bad, file=sys.stderr)
    if args.json:
        _print_json("repro.scrub/1", {
            "image": args.image, "deep": args.deep,
            **{k: v for k, v in rep.items() if k != "corrupt"},
            "corrupt": rep.get("corrupt", [])})
    else:
        what = "deep verify" if args.deep else "scrub"
        tail = ("done" if rep["done"]
                else f"paused, resume with --cursor {rep['next_cursor']}")
        print(f"{what}: {rep['examined']} FACT entries examined ({tail})")
        if not args.deep:
            print(f"  {rep['entries_removed']} stale entries removed, "
                  f"{rep['pages_freed']} pages freed, "
                  f"{rep['overcounted_remaining']} overcounted remain")
    return 1 if bad else 0


@command("crash", "simulate power failure on the image")
def cmd_crash(args):
    dev = _load_device(args.image)
    _image_fs_class(dev).mount(dev)
    # Pull the plug without unmounting.
    dev.crash()
    dev.recover_view()
    dev.save_image(args.image)
    print(f"simulated power failure on {args.image} "
          f"(next mount will recover)")


#: ``workload --dedup-mode`` values.  ``auto`` keeps whatever the image
#: was formatted with (adaptive controller on hybrid images); ``hybrid``
#: requires a hybrid image and keeps its controller adaptive; the pinned
#: variants force every policy shard into one mode for A/B comparison.
DEDUP_MODES = ["auto", "hybrid", "hybrid-inline", "hybrid-delayed",
               "hybrid-off"]

_FORCED_MODE = {name: mode for mode, name in MODE_NAMES.items()}


@command("workload", "run a fio-like workload",
         arg("--files", type=_positive_int, default=100),
         arg("--dup", type=float, default=0.5),
         arg("--threads", type=_positive_int, default=1),
         arg("--workers", type=_positive_int, default=1,
             help="dedup worker pool size (1 = the paper's daemon)"),
         arg("--seed", type=_seed, default=42),
         arg("--dedup-mode", default="auto", choices=DEDUP_MODES,
             help="hybrid-image policy: auto keeps the image's "
                  "adaptive controller, hybrid-* pins every shard"),
         arg("--trace-out", metavar="FILE",
             help="write the run's Chrome/Perfetto trace "
                  "(per-client and per-worker lanes) to FILE"),
         arg("--tenants", type=_count, default=0,
             help="run the multi-tenant fleet scenario with this "
                  "many tenants instead of the flat workload"),
         arg("--qos", action=argparse.BooleanOptionalAction, default=True,
             help="weighted-fair admission + DWQ shares "
                  "(--tenants mode; --no-qos records the "
                  "unisolated baseline)"),
         arg("--noisy", type=int, default=None,
             help="index of a noisy-neighbor tenant that bursts "
                  "without think time (--tenants mode)"),
         arg("--staging", action=argparse.BooleanOptionalAction,
             default=False,
             help="absorb small sync writes (and their creates) "
                  "through the front-tier staging log; destage "
                  "runs in background workers"))
def cmd_workload(args):
    with _mounted(args.image) as fs:
        if args.dedup_mode != "auto":
            if not hasattr(fs, "force_mode"):
                raise CLIError(f"--dedup-mode {args.dedup_mode} needs an "
                               f"image formatted with --variant "
                               f"denova-hybrid")
            pinned = args.dedup_mode.removeprefix("hybrid").lstrip("-")
            if pinned:  # "hybrid" alone keeps the adaptive controller
                fs.force_mode(_FORCED_MODE[pinned])
        if args.staging:
            fs.enable_staging()
        print(_run_fleet_workload(fs, args) if args.tenants
              else _run_flat_workload(fs, args))
        if args.trace_out:
            # The span ring dies with this process; export the concurrent
            # run's causal trace (writer/worker/shard lanes) while we
            # have it.
            with open(args.trace_out, "w") as fh:
                json.dump(to_chrome_trace(list(fs.obs.tracer.events)), fh,
                          indent=1)
            print(f"chrome trace written to {args.trace_out}")


def _staging_rows(fs) -> list:
    st = fs.staging.stats()
    return [["staging absorbed",
             f"{st['absorbed']} writes + {st['absorbed_creates']} "
             f"creates ({st['absorbed_bytes']} B)"],
            ["staging destaged/fallbacks",
             f"{st['destaged']}/{st['fallbacks']}"]]


def _run_flat_workload(fs, args) -> str:
    """``workload``: N fio threads on one flat file set."""
    with _refusing(ValueError):
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
    from repro.workloads.fleet import (  # lazy: only --tenants runs a fleet
        FleetSpec, run_fleet)

    with _refusing(ValueError):
        spec = FleetSpec(tenants=args.tenants, base_files=args.files,
                         dup_ratio=args.dup, seed=args.seed,
                         noisy_tenant=args.noisy,
                         noisy_burst_files=(
                             args.files if args.noisy is not None else 0))
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


def _need_registry(fs) -> None:
    if fs.tenants.registry is None:
        raise CLIError("image has no tenant registry region (too small at "
                       "mkfs time)")


def _limits(info) -> str:
    return (f"quota_pages={info.quota_pages or 'unlimited'}, "
            f"quota_inodes={info.quota_inodes or 'unlimited'}, "
            f"weight={info.weight}")


@command("tenant create", "create a tenant and its /t root", arg("name"),
         arg("--quota-pages", type=int, default=0,
             help="data-page quota (0 = unlimited)"),
         arg("--quota-inodes", type=int, default=0,
             help="inode quota (0 = unlimited)"),
         arg("--weight", type=int, default=1, help="QoS scheduling weight"))
def cmd_tenant_create(args):
    with _mounted(args.image) as fs:
        _need_registry(fs)
        with _refusing(ValueError):
            info = fs.tenant_create(args.name, quota_pages=args.quota_pages,
                                    quota_inodes=args.quota_inodes,
                                    weight=args.weight)
    print(f"created tenant {info.name!r} (tid={info.tid}, "
          f"root=/t/{info.name}, {_limits(info)})")


@command("tenant list", "tenants with usage vs. quota", JSON)
def cmd_tenant_list(args):
    with _mounted(args.image) as fs:
        _need_registry(fs)
        stats = fs.tenant_stats()
    if args.json:
        _print_json("repro.tenants/1", {"image": args.image,
                                        "tenants": stats})
    else:
        print(_tenant_table(stats, f"tenants on {args.image}"))


@command("tenant quota", "adjust quotas / QoS weight", arg("name"),
         arg("--quota-pages", type=int, default=None),
         arg("--quota-inodes", type=int, default=None),
         arg("--weight", type=int, default=None))
def cmd_tenant_quota(args):
    with _mounted(args.image) as fs:
        _need_registry(fs)
        with _refusing(ValueError, KeyError):
            info = fs.tenant_set_quota(args.name,
                                       quota_pages=args.quota_pages,
                                       quota_inodes=args.quota_inodes,
                                       weight=args.weight)
    print(f"tenant {info.name!r}: {_limits(info)}")


@command("tree", "print the directory tree",
         arg("path", nargs="?", default="/"))
def cmd_tree(args):
    with _mounted(args.image, save=False) as fs:
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


@command("du", "dedup-aware tree usage", arg("path", nargs="?", default="/"))
def cmd_du(args):
    with _mounted(args.image, save=False) as fs:
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


@command("reflink", "O(metadata) copy via shared pages",
         arg("src"), arg("dst"))
def cmd_reflink(args):
    with _mounted(args.image, needs="reflink") as fs:
        fs.reflink(args.src, args.dst)
    print(f"reflinked {args.src} -> {args.dst} (shared pages, O(metadata))")


@command("snap", "manage snapshots",
         arg("action", choices=["create", "list", "delete"]),
         arg("name", nargs="?", default=""))
def cmd_snap(args):
    with _mounted(args.image, needs="snap") as fs:
        if args.action == "create":
            with _refusing(ValueError):
                rep = fs.snapshot(args.name)
            print(f"snapshot {rep['name']!r}: {rep['files']} files, "
                  f"{rep['dirs']} dirs at {rep['path']}")
        elif args.action == "list":
            for name in fs.list_snapshots():
                print(name)
        elif args.action == "delete":
            with _refusing(ValueError):
                removed = fs.delete_snapshot(args.name)
            print(f"deleted snapshot {args.name!r} ({removed} files)")


@command("backup send", "serialize a snapshot diff into a stream file",
         arg("snapshot", help="snapshot name to send"),
         arg("stream", help="output stream file"),
         arg("--base", default=None,
             help="base snapshot for an incremental send"),
         flag("--no-resume", help="ignore any sidecar cursor and restart"),
         arg("--max-records", type=_positive_int, default=None,
             help="write at most N new records, then pause (resumable)"),
         JSON)
def cmd_backup_send(args) -> int:
    with _mounted(args.image, needs="backup") as fs:
        rep = send_backup(fs, args.snapshot, args.stream,
                          base=args.base, resume=not args.no_resume,
                          max_records=args.max_records)
    if args.json:
        _print_json("repro.backup.send/1", rep)
    else:
        state = "complete" if rep["complete"] else "interrupted (resumable)"
        print(f"sent {rep['snapshot']!r}"
              + (f" (incremental vs {rep['base']!r})"
                 if rep["base"] else " (full)")
              + f": {rep['records_written']}/{rep['records_total']}"
              f" records, {rep['bytes_written']} B, {state}")
        print(f"  {rep['base_shared_pages']}/{rep['total_pages']} "
              f"page refs shared with base; stream "
              f"{rep['stream_id'][:12]}")
    return 0 if rep["complete"] else 3


@command("backup recv", "ingest a stream into this image "
                        "(dedup against its FACT)",
         arg("stream"),
         flag("--no-resume", help="discard any staged ingest and restart"),
         arg("--max-entries", type=_positive_int, default=None,
             help="apply at most N new tree entries, then pause "
                  "(resumable)"),
         JSON)
def cmd_backup_recv(args) -> int:
    with _mounted(args.image, needs="backup") as fs:
        rep = receive_backup(fs, args.stream, resume=not args.no_resume,
                             max_entries=args.max_entries)
    if args.json:
        _print_json("repro.backup.recv/1", rep)
    else:
        state = "committed" if rep["committed"] else "staged (resumable)"
        print(f"received {rep['snapshot']!r}: "
              f"{rep['entries_applied']} entries applied"
              f" ({rep['entries_skipped']} resumed), "
              f"{rep['pages_dup']} pages deduped, "
              f"{rep['pages_novel']} copied — {state}")
    return 0 if rep["committed"] else 3


@command("backup verify", "CRC-check a stream and compare the received "
                          "snapshot",
         arg("stream"),
         flag("--deep", help="re-hash page bytes instead of trusting FACT"),
         JSON)
def cmd_backup_verify(args) -> int:
    with _mounted(args.image, needs="backup") as fs:
        srep = verify_stream(args.stream)
        nrep = (verify_snapshot(fs, args.stream, deep=args.deep)
                if srep.get("snapshot") else
                {"ok": False, "present": False, "mismatches": []})
    if args.json:
        _print_json("repro.backup.verify/1", {"stream": srep,
                                              "snapshot": nrep})
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
            print("snapshot: not present in image (stream-only verify)")
    return 0 if srep["ok"] and (not nrep.get("present") or nrep["ok"]) else 1


@command("backup list", "snapshots and staged ingests "
                        "(same order as 'snap list')")
def cmd_backup_list(args):
    """Snapshots (backup sources/targets) with chain metadata, + staged
    ingests, in the same deterministic order as ``snap list``
    (chain_table keeps the sorted contract)."""
    with _mounted(args.image, needs="backup") as fs:
        for row in chain_table(fs):
            meta = [f"depth {row['depth']}", row["layout"]]
            if row["parent"]:
                meta.insert(0, f"parent {row['parent']}")
            print(f"{row['snapshot']} [{', '.join(meta)}]")
        for st in staged_ingests(fs):
            state = "torn" if st["active"] else "paused"
            applied = st["applied"] if st["applied"] is not None else "?"
            print(f"{st['snapshot']} [staged: {applied} entries, "
                  f"stream {str(st['stream_id'])[:12]}, {state}]")


def _topology(args, run) -> int:
    """``repl fanout`` / ``fanin``: ``run(topo, mount)`` mounts the images
    it names and pumps the streams; every image is then written back.  A
    stream that fails is its line in the report (its image is unmounted
    cleanly, whatever it staged is saved); a command that fails before
    any stream moves writes nothing."""
    topo = ReplicationTopology(
        spool_dir=args.spool or tempfile.mkdtemp(prefix="repro-spool-"),
        batch=args.batch)
    with ExitStack() as images:
        rep = run(topo, lambda path: images.enter_context(
            _mounted(path, needs="repl")))
    if args.json:
        _print_json("repro.repl.topology/1", rep)
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


@command("repl fanout", "replicate one snapshot to N images over "
                        "resumable streams",
         arg("snapshot", help="snapshot name to replicate"),
         arg("replica", nargs="+", help="destination image(s)"),
         arg("--base", default=None,
             help="base snapshot for incremental streams"),
         arg("--batch", type=_positive_int, default=None,
             help="records/entries per pump round (default: "
                  "whole stream at once)"),
         arg("--spool", default=None,
             help="directory for stream spool files (default: "
                  "a fresh temp dir)"),
         JSON, image="source image")
def cmd_repl_fanout(args) -> int:
    return _topology(args, lambda topo, mount: topo.fan_out(
        mount(args.image), args.snapshot,
        [mount(path) for path in args.replica], base=args.base))


@command("repl fanin", "consolidate snapshots from N source images into "
                       "this one",
         arg("source", nargs="+", metavar="IMAGE:SNAPSHOT",
             help="source image and snapshot name, colon-joined"),
         arg("--batch", type=_positive_int, default=None),
         arg("--spool", default=None),
         JSON, image="destination image")
def cmd_repl_fanin(args) -> int:
    def run(topo, mount):
        pairs = [spec.rsplit(":", 1) for spec in args.source]
        bad = [p[0] for p in pairs if len(p) != 2]
        if bad:
            raise CLIError(f"source {bad[0]!r}: want IMAGE:SNAPSHOT")
        dst = mount(args.image)
        return topo.fan_in([(mount(path), name) for path, name in pairs],
                           dst)
    return _topology(args, run)


@command("repl relocate", "reverse-dedup pass: make the newest snapshot "
                          "sequential",
         arg("--budget", type=_positive_int, default=None,
             help="max pages moved this call (resumes next call)"),
         JSON)
def cmd_repl_relocate(args) -> int:
    with _mounted(args.image, needs="repl") as fs:
        rep = relocate_latest(fs, budget=args.budget)
    if args.json:
        _print_json("repro.repl.relocate/1", rep)
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


@command("repl restore", "digest-restore a snapshot through the "
                         "sequential read path",
         arg("--snapshot", default=None,
             help="snapshot to restore (default: newest of the chain)"),
         JSON)
def cmd_repl_restore(args):
    with _mounted(args.image, needs="repl") as fs:
        rep = (restore_snapshot(fs, args.snapshot) if args.snapshot
               else restore_latest(fs))
    if args.json:
        _print_json("repro.repl.restore/1", rep)
    elif rep["snapshot"] is None:
        print("restore: no snapshots")
    else:
        print(f"restored {rep['snapshot']!r}: {rep['files']} files, "
              f"{rep['bytes']} B in {rep['requests']} requests, "
              f"{rep['throughput_gbps']:.2f} GB/s")


@command("fuzz", "differential crash-consistency fuzzing against the "
                 "model oracle",
         arg("--seed", type=_seed, default=0),
         arg("--ops", type=_positive_int, default=2000,
             help="total generated ops for the campaign"),
         arg("--seq-ops", type=_positive_int, default=40,
             help="ops per generated sequence"),
         arg("--budget", type=_count, default=8,
             help="crash replays per sequence across all "
                  "phase/mode combinations"),
         arg("--pages", type=int, default=2048,
             help="device size in 4 KB pages"),
         arg("--alpha", type=float, default=0.55,
             help="duplicate-page ratio of generated data"),
         arg("--corpus", default=None,
             help="directory for minimized reproducer traces"),
         flag("--replay-corpus",
              help="re-check saved reproducers instead of generating"),
         flag("--no-shrink", help="keep failing sequences at full length"),
         arg("--max-failures", type=_positive_int, default=3),
         arg("--clients", type=_positive_int, default=1,
             help="concurrent-mode sequences: merge this many "
                  "per-client op streams under /c<i> roots"),
         arg("--tenants", type=_positive_int, default=1,
             help="multi-tenant sequences: per-tenant op streams "
                  "under /t/tn<i> roots, covering the tenant "
                  "registry's persistence crash points"),
         arg("--dedup-mode", default="delayed", choices=["delayed", "hybrid"],
             help="dedup pipeline under test: classic delayed "
                  "DeNova, or the hybrid weak+strong path with "
                  "its extra persistence events"),
         flag("--staging",
              help="absorb small writes and creates through the "
                   "front-tier staging log, sweeping crashes "
                   "through its record/watermark persists too"),
         flag("--backup",
              help="sweep crashes through backup ingest instead of "
                   "the differential campaign"),
         flag("--repl",
              help="sweep crashes through the replication pipeline "
                   "(recv cursors + relocation intent journals)"),
         JSON, image=False)
def cmd_fuzz(args) -> int:
    from repro.fuzz import (  # lazy: only fuzz loads its engine
        FuzzConfig, FuzzRunner, GenConfig, run_backup_case, run_repl_case)

    # The scenario: a two-image pipeline sweep, or the differential
    # campaign.
    pipeline, noun = ((run_backup_case, "ingest sweeps") if args.backup
                      else (run_repl_case, "repl sweeps") if args.repl
                      else (None, "sequences"))
    if pipeline and (args.clients != 1 or args.tenants != 1 or args.corpus
                     or args.replay_corpus):
        args.usage_error("--backup/--repl generate their own single-stream "
                         "sequences: --clients, --tenants, --corpus and "
                         "--replay-corpus do not apply")
    with _refusing(ValueError):
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
        print(format_table(runner.registry.snapshot(),
                           title=f"fuzz seed={cfg.seed}"))
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


@command("bench-model", "print the Eq. 1-5 numbers",
         arg("--size", type=int, default=4096),
         arg("--alpha", type=float, default=0.5), image=False)
def cmd_bench_model(args):
    model = InlineModel()
    with _refusing(ValueError):
        rows = [["T_w", model.t_w(args.size) / 1000],
                ["T_f", model.t_f(args.size) / 1000],
                ["T_fw", model.t_fw(args.size) / 1000],
                ["baseline write",
                 model.baseline_write_time(args.size) / 1000],
                [f"inline @ a={args.alpha}",
                 model.inline_write_time(args.size, args.alpha) / 1000],
                [f"adaptive @ a={args.alpha}",
                 model.adaptive_write_time(args.size, args.alpha) / 1000]]
    print(render_table(["quantity", "us"], rows,
                       title=f"Eq. 1-5 model, {args.size} B writes"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args) or 0
    # ENOSPC-style UX: one structured line on stderr, non-zero exit,
    # never a traceback.
    except Verdict as exc:
        line = str(exc)
    except QuotaExceeded as exc:
        line = f"quota exceeded: {exc}"
    except (FSError, FactCorruption, StreamError) as exc:
        line = f"error: {type(exc).__name__}: {exc}"
    except CLIError as exc:
        line = f"error: {exc}"
    except OSError as exc:   # host side: a missing source, an unwritable dest
        where = f"{exc.filename}: " if exc.filename else ""
        line = f"error: {where}{exc.strerror or exc}"
    print(line, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
