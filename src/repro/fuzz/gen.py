"""Seeded operation-sequence generation for the crash fuzzer.

Sequences are lists of :class:`repro.workloads.trace.TraceOp` — the
repo's trace format is the fuzzer's native representation, so any
sequence (and any shrunken reproducer) serializes losslessly to a
JSON-lines trace file and replays through :func:`repro.workloads.replay`.

The generator drives its own :class:`repro.fuzz.model.ModelFS` so ops
are generated *against the state they will run in*: writes target files
that exist, renames pick live sources and fresh destinations, snapshot
deletes pick live snapshots.  A small configurable fraction of ops is
deliberately invalid (unlink of a missing path, mkdir over an existing
name, write through a dangling symlink) to exercise the error paths —
the differential runner demands the real filesystem reject exactly what
the model rejects.

Payloads come from :class:`repro.workloads.datagen.DataGenerator`, so
the page stream is duplicate-heavy (``alpha``) and byte-deterministic
per seed — crucial both for dedup coverage and for replayability.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from repro.fuzz.model import ModelError, ModelFS, SNAPSHOT_DIR
from repro.nova.layout import PAGE_SIZE
from repro.workloads.datagen import DataGenerator
from repro.workloads.trace import TraceOp

__all__ = ["GenConfig", "SequenceGenerator", "generate_sequence",
           "generate_concurrent_sequence", "generate_tenant_sequence"]


DIR_NAMES = 5             # pool of directory names
SNAP_NAMES = 3            # pool of snapshot names
MAX_WRITE_PAGES = 4       # pages per write op
MAX_FILE_PAGES = 10       # truncate/extend ceiling per file
INVALID_RATE = 0.04       # deliberately-invalid op fraction


@dataclass
class GenConfig:
    """Knobs of one generated sequence (not of the whole campaign)."""

    alpha: float = 0.55            # duplicate-page ratio of payloads
    max_data_pages: int = 224      # cumulative payload budget (pages)
    max_nodes: int = 120           # model-node ceiling (inode pressure)
    #: op -> relative weight; ops must match TraceOp kinds.
    weights: dict = field(default_factory=lambda: {
        "write": 26, "read": 10, "truncate": 6, "create": 9, "mkdir": 4,
        "unlink": 8, "rmdir": 2, "rename": 5, "link": 4, "symlink": 4,
        "reflink": 4, "snapshot": 2, "snap_delete": 2, "dedup": 6,
        "remount": 2, "crash": 2,
        # Reverse-dedup ops are opt-in (fuzz --repl / run_repl_case):
        # relocation appends redirect entries to snapshot logs, which
        # the plain namespace oracle never needs to know about, but the
        # default campaign keeps them off to preserve historical seeds.
        "relocate": 0, "restore": 0,
    })
    file_names: ClassVar[int] = 16     # pool of leaf names


class SequenceGenerator:
    """Deterministic op-sequence source: same (seed, stream) → same ops."""

    def __init__(self, seed: int, stream: int = 0,
                 cfg: Optional[GenConfig] = None):
        self.cfg = cfg or GenConfig()
        self.rng = random.Random(f"repro.fuzz:{seed}:{stream}")
        self.datagen = DataGenerator(self.cfg.alpha, seed=seed,
                                     stream=stream)
        self.model = ModelFS()
        self.pages_written = 0

    # ------------------------------------------------------------ helpers

    def _name(self, kind: str) -> str:
        if kind == "dir":
            return f"d{self.rng.randrange(DIR_NAMES)}"
        if kind == "snap":
            return f"snap{self.rng.randrange(SNAP_NAMES)}"
        return f"f{self.rng.randrange(self.cfg.file_names)}"

    def _some_dir(self) -> str:
        dirs = [d for d in self.model.dir_paths()
                if not d.startswith(SNAPSHOT_DIR)]
        return self.rng.choice(dirs)

    def _fresh_path(self, kind: str = "file") -> Optional[str]:
        """A parent-exists path whose leaf is currently unbound."""
        for _ in range(8):
            parent = self._some_dir()
            name = self._name(kind)
            path = f"{parent.rstrip('/')}/{name}"
            if not self.model.exists(path):
                return path
        return None

    def _live_file(self) -> Optional[str]:
        files = [p for p in self.model.file_paths()
                 if not p.startswith(SNAPSHOT_DIR)]
        return self.rng.choice(files) if files else None

    def _payload(self, npages: int, partial: bool) -> bytes:
        body = b"".join(self.datagen.pages(npages))
        if partial:
            cut = self.rng.randrange(1, len(body) + 1)
            body = body[:cut]
        return body

    def _missing_path(self) -> str:
        return f"{self._some_dir().rstrip('/')}/missing{self.rng.randrange(99)}"

    # ------------------------------------------------------------ op builders

    def _gen_write(self) -> Optional[TraceOp]:
        if self.pages_written >= self.cfg.max_data_pages:
            return None
        path = self._live_file()
        if path is None:
            return None
        size = self.model.size_of(path)
        npages = self.rng.randint(1, MAX_WRITE_PAGES)
        partial = self.rng.random() < 0.3
        data = self._payload(npages, partial)
        max_off = min(size, (MAX_FILE_PAGES - npages) * PAGE_SIZE)
        max_off = max(max_off, 0)
        offset = self.rng.randrange(0, max_off + 1)
        if self.rng.random() < 0.7:
            offset = (offset // PAGE_SIZE) * PAGE_SIZE  # page-align mostly
        self.pages_written += (offset % PAGE_SIZE + len(data)
                               + PAGE_SIZE - 1) // PAGE_SIZE
        return TraceOp(op="write", path=path, offset=offset,
                       length=len(data),
                       data_b64=base64.b64encode(data).decode())

    def _gen_read(self) -> Optional[TraceOp]:
        path = self._live_file()
        if path is None:
            return None
        size = self.model.size_of(path)
        offset = self.rng.randrange(0, max(size, 1) + PAGE_SIZE)
        length = self.rng.randrange(1, 3 * PAGE_SIZE)
        data = self.model.read(path, offset, length)
        return TraceOp(op="read", path=path, offset=offset, length=length,
                       digest=hashlib.sha1(data).hexdigest())

    def _gen_truncate(self) -> Optional[TraceOp]:
        path = self._live_file()
        if path is None:
            return None
        size = self.rng.randrange(0, MAX_FILE_PAGES * PAGE_SIZE)
        return TraceOp(op="truncate", path=path, length=size)

    def _gen_create(self) -> Optional[TraceOp]:
        if self.model.count_nodes() >= self.cfg.max_nodes:
            return None
        path = self._fresh_path("file")
        return TraceOp(op="create", path=path) if path else None

    def _gen_mkdir(self) -> Optional[TraceOp]:
        if self.model.count_nodes() >= self.cfg.max_nodes:
            return None
        path = self._fresh_path("dir")
        return TraceOp(op="mkdir", path=path) if path else None

    def _gen_unlink(self) -> Optional[TraceOp]:
        nonfiles = [p for p, d in self.model.namespace().items()
                    if d[0] != "dir"]
        if not nonfiles:
            return None
        return TraceOp(op="unlink", path=self.rng.choice(nonfiles))

    def _gen_rmdir(self) -> Optional[TraceOp]:
        empties = [p for p, d in self.model.namespace().items()
                   if d[0] == "dir" and p != SNAPSHOT_DIR
                   and not self.model.nodes[
                       self.model.lookup(p, follow=False)].children]
        if not empties:
            return None
        return TraceOp(op="rmdir", path=self.rng.choice(empties))

    def _gen_rename(self) -> Optional[TraceOp]:
        candidates = [p for p in self.model.all_paths()
                      if not p.startswith(SNAPSHOT_DIR)]
        if not candidates:
            return None
        src = self.rng.choice(candidates)
        dst = self._fresh_path("file")
        if dst is None or dst == src or dst.startswith(src + "/"):
            return None
        return TraceOp(op="rename", path=src, path2=dst)

    def _gen_link(self) -> Optional[TraceOp]:
        src = self._live_file()
        dst = self._fresh_path("file")
        if src is None or dst is None:
            return None
        return TraceOp(op="link", path=src, path2=dst)

    def _gen_symlink(self) -> Optional[TraceOp]:
        if self.model.count_nodes() >= self.cfg.max_nodes:
            return None
        linkpath = self._fresh_path("file")
        if linkpath is None:
            return None
        roll = self.rng.random()
        if roll < 0.6 and self.model.file_paths():
            target = self.rng.choice(self.model.file_paths())
        elif roll < 0.8:
            target = self._some_dir()
        else:
            target = f"dangling{self.rng.randrange(9)}"  # relative, dangling
        if not 0 < len(target.encode()) <= 40:
            return None
        return TraceOp(op="symlink", path=linkpath, path2=target)

    def _gen_reflink(self) -> Optional[TraceOp]:
        if self.model.count_nodes() >= self.cfg.max_nodes:
            return None
        src = self._live_file()
        dst = self._fresh_path("file")
        if src is None or dst is None:
            return None
        return TraceOp(op="reflink", path=src, path2=dst)

    def _gen_snapshot(self) -> Optional[TraceOp]:
        tree = self.model.count_nodes()
        if tree * 2 >= self.cfg.max_nodes:
            return None  # a snapshot roughly doubles the node count
        name = self._name("snap")
        if self.model.exists(f"{SNAPSHOT_DIR}/{name}"):
            return None
        return TraceOp(op="snapshot", path=name)

    def _gen_snap_delete(self) -> Optional[TraceOp]:
        if not self.model.exists(SNAPSHOT_DIR):
            return None
        snaps = sorted(self.model.nodes[
            self.model.lookup(SNAPSHOT_DIR, follow=False)].children)
        if not snaps:
            return None
        return TraceOp(op="snap_delete", path=self.rng.choice(snaps))

    def _gen_relocate(self) -> Optional[TraceOp]:
        """Budgeted reverse-dedup pass (only once snapshots exist);
        ``length`` carries the page budget (0 = unbounded)."""
        if not self._has_snapshots():
            return None
        return TraceOp(op="relocate",
                       length=self.rng.choice([0, 1, 2, 4, 8]))

    def _gen_restore(self) -> Optional[TraceOp]:
        """Digest-restore the newest snapshot and self-verify it."""
        if not self._has_snapshots():
            return None
        return TraceOp(op="restore")

    def _has_snapshots(self) -> bool:
        if not self.model.exists(SNAPSHOT_DIR):
            return False
        return bool(self.model.nodes[
            self.model.lookup(SNAPSHOT_DIR, follow=False)].children)

    def _gen_invalid(self) -> Optional[TraceOp]:
        """Deliberately-invalid ops: both sides must reject them."""
        kind = self.rng.choice(["unlink", "rmdir", "create", "write",
                                "rename"])
        if kind == "unlink":
            return TraceOp(op="unlink", path=self._missing_path())
        if kind == "rmdir":
            return TraceOp(op="rmdir", path=self._missing_path())
        if kind == "create":
            paths = [p for p in self.model.all_paths()
                     if not p.startswith(SNAPSHOT_DIR)]
            if not paths:
                return None
            return TraceOp(op="create", path=self.rng.choice(paths))
        if kind == "write":
            data = base64.b64encode(b"x" * 16).decode()
            return TraceOp(op="write", path=self._missing_path(),
                           length=16, data_b64=data)
        src = self._missing_path()
        return TraceOp(op="rename", path=src, path2=self._missing_path())

    # ------------------------------------------------------------ main loop

    def generate(self, nops: int) -> list[TraceOp]:
        """The next ``nops`` operations, advancing the internal model."""
        cfg = self.cfg
        ops: list[TraceOp] = []
        kinds = list(cfg.weights)
        weights = [cfg.weights[k] for k in kinds]
        builders = {
            "write": self._gen_write, "read": self._gen_read,
            "truncate": self._gen_truncate, "create": self._gen_create,
            "mkdir": self._gen_mkdir, "unlink": self._gen_unlink,
            "rmdir": self._gen_rmdir, "rename": self._gen_rename,
            "link": self._gen_link, "symlink": self._gen_symlink,
            "reflink": self._gen_reflink, "snapshot": self._gen_snapshot,
            "snap_delete": self._gen_snap_delete,
            "dedup": lambda: TraceOp(op="dedup"),
            "remount": lambda: TraceOp(op="remount"),
            "crash": lambda: TraceOp(op="crash"),
            "relocate": self._gen_relocate,
            "restore": self._gen_restore,
        }
        while len(ops) < nops:
            if self.rng.random() < INVALID_RATE:
                op = self._gen_invalid()
                if op is not None and not self._model_accepts(op):
                    ops.append(op)
                continue
            kind = self.rng.choices(kinds, weights=weights, k=1)[0]
            op = builders[kind]()
            if op is None:
                continue
            try:
                apply_to_model(self.model, op)
            except ModelError:
                continue  # raced against earlier generated state: drop it
            ops.append(op)
        return ops

    def _model_accepts(self, op: TraceOp) -> bool:
        probe = clone_model_via(self.model, [])
        try:
            apply_to_model(probe, op)
        except ModelError:
            return False
        return True


def apply_to_model(model: ModelFS, op: TraceOp):
    """Apply one TraceOp to a model; returns read bytes for ``read`` ops.

    Raises :class:`ModelError` (model unchanged) when the op is invalid;
    ``dedup``/``remount``/``crash`` are no-ops — all committed state in
    this filesystem family is durable, and background dedup never
    changes observable contents.
    """
    kind = op.op
    if kind == "create":
        model.create(op.path)
    elif kind == "mkdir":
        model.mkdir(op.path)
    elif kind == "unlink":
        model.unlink(op.path)
    elif kind == "rmdir":
        model.rmdir(op.path)
    elif kind == "rename":
        model.rename(op.path, op.path2)
    elif kind == "link":
        model.link(op.path, op.path2)
    elif kind == "symlink":
        model.symlink(op.path2, op.path)
    elif kind == "reflink":
        model.reflink(op.path, op.path2)
    elif kind == "snapshot":
        model.snapshot(op.path)
    elif kind == "snap_delete":
        model.delete_snapshot(op.path)
    elif kind == "write":
        model.write(op.path, op.offset, op.data)
    elif kind == "truncate":
        model.truncate(op.path, op.length)
    elif kind == "read":
        return model.read(op.path, op.offset, op.length)
    elif kind == "tenant_create":
        # Mirrors TenantManager.tenant_create: a duplicate name is an
        # error, pre-existing directories are adopted.  The registry
        # record itself has no namespace footprint, so the model only
        # needs the name set plus the (idempotent) directories.
        tenants = getattr(model, "tenants", None)
        if tenants is None:
            tenants = model.tenants = set()
        if op.path in tenants:
            raise ModelError(f"tenant {op.path!r} already exists")
        if not model.exists("/t"):
            model.mkdir("/t")
        root = f"/t/{op.path}"
        if not model.exists(root):
            model.mkdir(root)
        tenants.add(op.path)
    elif kind in ("dedup", "remount", "crash", "relocate", "restore"):
        # relocate/restore change physical placement only, never the
        # logical namespace the model oracles.
        return None
    else:
        raise ValueError(f"unknown fuzz op {kind!r}")
    return None


def clone_model_via(model: ModelFS, extra_ops: list[TraceOp]) -> ModelFS:
    """Deep-copy a model (cheap: pure Python state) and apply more ops."""
    probe = copy.deepcopy(model)
    for op in extra_ops:
        try:
            apply_to_model(probe, op)
        except ModelError:
            pass
    return probe


def model_after(ops: list[TraceOp]) -> ModelFS:
    """Fresh model state after an op prefix (invalid ops skipped, exactly
    as the differential runner skips them)."""
    model = ModelFS()
    for op in ops:
        try:
            apply_to_model(model, op)
        except ModelError:
            pass
    return model


def generate_sequence(seed: int, stream: int, nops: int,
                      cfg: Optional[GenConfig] = None) -> list[TraceOp]:
    """One-shot convenience wrapper."""
    return SequenceGenerator(seed, stream, cfg).generate(nops)


# ---------------------------------------------------------------- concurrent


def _prefix_path(path: Optional[str], prefix: str) -> Optional[str]:
    """Move an absolute path under a client's private root.

    Relative paths (dangling symlink targets) and ``None`` pass through:
    a relative target resolves against its (already prefixed) parent, so
    it needs no rewrite to stay inside the client tree.
    """
    if path is None or not path.startswith("/"):
        return path
    return prefix if path == "/" else prefix + path


def _client_cfg(cfg: GenConfig, clients: int) -> GenConfig:
    """Per-client budgets + no global-namespace ops.

    Snapshots capture the *whole* tree, so under concurrent clients their
    contents would depend on the merge order — exactly the kind of
    cross-client coupling the mode excludes.  Payload and node budgets
    are divided so a K-client sequence stresses the same totals as a
    sequential one.
    """
    weights = {k: w for k, w in cfg.weights.items()
               if k not in ("snapshot", "snap_delete")}
    return replace(
        cfg, weights=weights,
        max_data_pages=max(MAX_WRITE_PAGES, cfg.max_data_pages // clients),
        max_nodes=max(8, cfg.max_nodes // clients))


def generate_concurrent_sequence(seed: int, stream: int, nops: int,
                                 clients: int = 2,
                                 cfg: Optional[GenConfig] = None,
                                 ) -> list[TraceOp]:
    """A K-client trace: per-client streams merged in a seeded interleave.

    Each client generates against its own model under a private root
    ``/c<i>`` (paths — including absolute symlink targets — are
    rewritten), so clients are logically race-free: any interleaving of
    the merged trace reaches the same final state, which is what the
    repro.conc schedule permuter asserts on the real filesystem.  The
    merge preserves each client's program order and is itself seeded,
    so the whole trace stays a deterministic function of
    ``(seed, stream, clients)`` — and remains an ordinary sequential
    trace that the differential crash runner replays unchanged.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    base = cfg or GenConfig()
    if clients == 1:
        return SequenceGenerator(seed, stream, base).generate(nops)
    ccfg = _client_cfg(base, clients)
    share = nops // clients
    counts = [share + (1 if c < nops % clients else 0)
              for c in range(clients)]
    queues: list[list[TraceOp]] = []
    merged: list[TraceOp] = []
    for c in range(clients):
        prefix = f"/c{c}"
        merged.append(TraceOp(op="mkdir", path=prefix))
        gen = SequenceGenerator(seed, stream * clients + c, ccfg)
        ops = [replace(op,
                       path=_prefix_path(op.path, prefix),
                       path2=_prefix_path(op.path2, prefix))
               for op in gen.generate(counts[c])]
        queues.append(ops)
    rng = random.Random(f"repro.fuzz.conc:{seed}:{stream}:{clients}")
    return merged + _seeded_merge(queues, rng)


def _seeded_merge(queues: list[list[TraceOp]],
                  rng: random.Random) -> list[TraceOp]:
    """Merge per-stream op queues preserving each stream's order."""
    merged: list[TraceOp] = []
    cursors = [0] * len(queues)
    while True:
        live = [c for c in range(len(queues))
                if cursors[c] < len(queues[c])]
        if not live:
            break
        c = rng.choice(live)
        merged.append(queues[c][cursors[c]])
        cursors[c] += 1
    return merged


def generate_tenant_sequence(seed: int, stream: int, nops: int,
                             tenants: int = 2,
                             cfg: Optional[GenConfig] = None,
                             ) -> list[TraceOp]:
    """A multi-tenant trace: per-tenant streams under ``/t/tn<i>`` roots.

    Structurally the concurrent mode, but each stream's private root is
    a *tenant* root created by a leading ``tenant_create`` op — so every
    merged trace exercises the registry's A/B-slot save at a seeded
    position, and the crash sweep (which breaks at every persist event)
    covers the tenant-table persistence points alongside the usual log
    and checkpoint ones.  Quotas are left unlimited: the model oracle
    has no space accounting, and ``QuotaExceeded`` would merely stop
    sequences early via the resource-exhaustion rule.

    A trailing phase adds deliberate *cross-tenant* ops: rename and
    link across tenant roots (both sides must reject, EXDEV-style) and
    reflink across roots (both sides accept — the clone is owned and
    quota-charged by the destination tenant), so the differential
    oracle covers the tenant-boundary paths, not just the happy paths
    inside each stream.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    base = cfg or GenConfig()
    tcfg = _client_cfg(base, tenants)
    share = nops // tenants
    counts = [share + (1 if c < nops % tenants else 0)
              for c in range(tenants)]
    queues: list[list[TraceOp]] = []
    for c in range(tenants):
        name = f"tn{c}"
        prefix = f"/t/{name}"
        gen = SequenceGenerator(seed, stream * tenants + c, tcfg)
        ops = [replace(op,
                       path=_prefix_path(op.path, prefix),
                       path2=_prefix_path(op.path2, prefix))
               for op in gen.generate(counts[c])]
        queues.append([TraceOp(op="tenant_create", path=name)] + ops)
    rng = random.Random(f"repro.fuzz.tenant:{seed}:{stream}:{tenants}")
    merged = _seeded_merge(queues, rng)
    return merged + _cross_tenant_ops(merged, tenants, rng)


def _cross_tenant_ops(merged: list[TraceOp], tenants: int,
                      rng: random.Random) -> list[TraceOp]:
    """Boundary-crossing ops against the post-merge model state."""
    if tenants < 2:
        return []
    model = model_after(merged)
    roots = [f"/t/tn{c}" for c in range(tenants)]
    ops: list[TraceOp] = []
    for a in range(tenants):
        b = (a + 1) % tenants
        files = [p for p in model.file_paths()
                 if p.startswith(roots[a] + "/")]
        if not files:
            continue
        src = rng.choice(files)
        leaf = src.rsplit("/", 1)[1]
        ops.append(TraceOp(op="rename", path=src,
                           path2=f"{roots[b]}/xrn{a}-{leaf}"))
        ops.append(TraceOp(op="link", path=src,
                           path2=f"{roots[b]}/xln{a}-{leaf}"))
        ops.append(TraceOp(op="reflink", path=src,
                           path2=f"{roots[b]}/xrf{a}-{leaf}"))
    return ops
