"""Filesystem operation traces: record, save, replay, verify.

A :class:`TracedFS` wraps any filesystem and records every mutating (and
optionally reading) operation into a :class:`Trace`, which serializes to
JSON-lines (payloads base64-encoded, digests kept for verification).
Replaying a trace against a fresh filesystem reproduces the exact
namespace and contents; replaying with ``verify=True`` additionally
checks every recorded read against its original digest — a regression
harness for cross-variant equivalence (the same trace must produce the
same bytes on NOVA, DeNova, and the inline variants).

Besides the POSIX core, traces carry the dedup-specific surface
(``symlink``/``reflink``/``snapshot``/``snap_delete``), explicit dedup
daemon triggers (``dedup``), and whole-device lifecycle ops: ``remount``
(clean unmount + mount) and ``crash`` (power loss + recovery mount).
The latter two swap the live filesystem object, so :func:`replay`
returns the final instance in its counters — this is the serialization
format of :mod:`repro.fuzz` reproducers, which must be committable as
self-contained regression tests.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.repl import relocate_latest, restore_latest

__all__ = ["Trace", "TraceOp", "TracedFS", "TraceMismatch",
           "apply_trace_op", "replay"]


class TraceMismatch(AssertionError):
    """A replayed read returned different bytes than the recording."""


@dataclass
class TraceOp:
    op: str
    path: Optional[str] = None
    path2: Optional[str] = None
    offset: int = 0
    length: int = 0
    data_b64: Optional[str] = None
    digest: Optional[str] = None

    def to_json(self) -> str:
        body = {k: v for k, v in self.__dict__.items() if v not in
                (None, 0) or k == "op"}
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceOp":
        return cls(**json.loads(line))

    @property
    def data(self) -> bytes:
        return base64.b64decode(self.data_b64) if self.data_b64 else b""


@dataclass
class Trace:
    ops: list[TraceOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for op in self.ops:
                fh.write(op.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as fh:
            return cls(ops=[TraceOp.from_json(line)
                            for line in fh if line.strip()])


class TracedFS:
    """A recording proxy: same public surface, every call traced.

    File identity is recorded by *path*, not ino, so a trace replays
    against any filesystem.  The proxy therefore tracks the live names,
    oldest first, of each ino its caller obtained through it; a handle
    op is recorded under the first of them.
    """

    #: Reads are recorded with a digest of what they returned (a test
    #: subclass leaves them out).
    record_reads = True

    def __init__(self, fs):
        self.fs = fs
        self.trace = Trace()
        self._names: dict[int, list[str]] = {}

    # -- namespace ----------------------------------------------------------

    def create(self, path: str) -> int:
        ino = self.fs.create(path)
        self._names[ino] = [path]
        self.trace.append(TraceOp(op="create", path=path))
        return ino

    def mkdir(self, path: str) -> int:
        ino = self.fs.mkdir(path)
        self.trace.append(TraceOp(op="mkdir", path=path))
        return ino

    def unlink(self, path: str) -> None:
        self.fs.unlink(path)
        for names in self._names.values():
            if path in names:
                names.remove(path)
        self.trace.append(TraceOp(op="unlink", path=path))

    def rmdir(self, path: str) -> None:
        self.fs.rmdir(path)
        self.trace.append(TraceOp(op="rmdir", path=path))

    def rename(self, src: str, dst: str) -> None:
        self.fs.rename(src, dst)
        for names in self._names.values():
            names[:] = [dst + p[len(src):]
                        if p == src or p.startswith(src + "/") else p
                        for p in names]
        self.trace.append(TraceOp(op="rename", path=src, path2=dst))

    def link(self, existing: str, newpath: str) -> None:
        self.fs.link(existing, newpath)
        for names in self._names.values():
            if existing in names:
                names.append(newpath)
        self.trace.append(TraceOp(op="link", path=existing, path2=newpath))

    def symlink(self, target: str, linkpath: str) -> int:
        ino = self.fs.symlink(target, linkpath)
        self.trace.append(TraceOp(op="symlink", path=linkpath,
                                  path2=target))
        return ino

    def reflink(self, src: str, dst: str, immutable: bool = False) -> int:
        ino = self.fs.reflink(src, dst, immutable=immutable)
        self.trace.append(TraceOp(op="reflink", path=src, path2=dst))
        return ino

    def snapshot(self, name: str) -> dict:
        out = self.fs.snapshot(name)
        self.trace.append(TraceOp(op="snapshot", path=name))
        return out

    def delete_snapshot(self, name: str) -> int:
        n = self.fs.delete_snapshot(name)
        self.trace.append(TraceOp(op="snap_delete", path=name))
        return n

    def drain(self) -> int:
        n = self.fs.daemon.drain()
        self.trace.append(TraceOp(op="dedup"))
        return n

    def tenant_create(self, name: str, quota_pages: int = 0,
                      quota_inodes: int = 0, weight: int = 1):
        info = self.fs.tenant_create(name, quota_pages=quota_pages,
                                     quota_inodes=quota_inodes,
                                     weight=weight)
        self.trace.append(TraceOp(op="tenant_create", path=name,
                                  offset=quota_pages, length=quota_inodes))
        return info

    def lookup(self, path: str) -> int:
        ino = self.fs.lookup(path)
        names = self._names.setdefault(ino, [])
        if path not in names:
            names.append(path)
        return ino

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def listdir(self, path: str):
        return self.fs.listdir(path)

    # -- data ------------------------------------------------------------------

    def _path(self, ino: int) -> str:
        names = self._names.get(ino)
        if not names:
            raise KeyError(f"ino {ino} has no live name opened through "
                           "this proxy")
        return names[0]

    def write(self, ino: int, offset: int, data: bytes, cpu: int = 0) -> int:
        n = self.fs.write(ino, offset, data, cpu=cpu)
        self.trace.append(TraceOp(
            op="write", path=self._path(ino), offset=offset,
            length=len(data),
            data_b64=base64.b64encode(data).decode()))
        return n

    def read(self, ino: int, offset: int, length: int, cpu: int = 0) -> bytes:
        data = self.fs.read(ino, offset, length, cpu=cpu)
        if self.record_reads:
            self.trace.append(TraceOp(
                op="read", path=self._path(ino), offset=offset,
                length=length,
                digest=hashlib.sha1(data).hexdigest()))
        return data

    def truncate(self, ino: int, size: int, cpu: int = 0) -> None:
        self.fs.truncate(ino, size, cpu=cpu)
        self.trace.append(TraceOp(op="truncate", path=self._path(ino),
                                  length=size))

    def stat(self, ino: int):
        return self.fs.stat(ino)

    def __getattr__(self, name):
        return getattr(self.fs, name)


def apply_trace_op(fs, op: TraceOp, i: int = 0, verify: bool = True,
                   counters: Optional[dict] = None):
    """Apply one :class:`TraceOp` to ``fs``; returns the (possibly new)
    filesystem instance.

    ``remount``/``crash`` replace the live filesystem object — callers
    must rebind to the return value.  Unknown op kinds raise ValueError.
    """
    if op.op == "create":
        fs.create(op.path)
    elif op.op == "mkdir":
        fs.mkdir(op.path)
    elif op.op == "unlink":
        fs.unlink(op.path)
    elif op.op == "rmdir":
        fs.rmdir(op.path)
    elif op.op == "rename":
        fs.rename(op.path, op.path2)
    elif op.op == "link":
        fs.link(op.path, op.path2)
    elif op.op == "symlink":
        fs.symlink(op.path2, op.path)
    elif op.op == "reflink":
        fs.reflink(op.path, op.path2)
    elif op.op == "snapshot":
        fs.snapshot(op.path)
    elif op.op == "snap_delete":
        fs.delete_snapshot(op.path)
    elif op.op == "dedup":
        fs.daemon.drain()
    elif op.op == "tenant_create":
        # offset/length carry the page/inode quotas (0 = unlimited).
        fs.tenant_create(op.path, quota_pages=op.offset,
                         quota_inodes=op.length)
    elif op.op == "remount":
        fs.unmount()
        fs = type(fs).mount(fs.dev, cpus=fs.cpus)
    elif op.op == "crash":
        # Dirty power loss: volatile stores vanish, then recovery mounts.
        fs.dev.crash()
        fs.dev.recover_view()
        fs = type(fs).mount(fs.dev, cpus=fs.cpus)
    elif op.op == "write":
        fs.write(fs.lookup(op.path), op.offset, op.data)
    elif op.op == "truncate":
        fs.truncate(fs.lookup(op.path), op.length)
    elif op.op == "read":
        data = fs.read(fs.lookup(op.path), op.offset, op.length)
        if verify and op.digest is not None:
            got = hashlib.sha1(data).hexdigest()
            if got != op.digest:
                raise TraceMismatch(
                    f"op {i}: read {op.path}@{op.offset}+{op.length} "
                    f"digest {got[:12]} != recorded {op.digest[:12]}")
            if counters is not None:
                counters["verified_reads"] += 1
    elif op.op == "relocate":
        # ``length`` carries the page budget (0 = unbounded pass).
        relocate_latest(fs, budget=op.length or None)
    elif op.op == "restore":
        # Digest-restore the newest snapshot and self-verify every
        # manifest entry against the logical read path.
        out = restore_latest(fs)
        if verify and out["snapshot"] is not None:
            root = f"/.snapshots/{out['snapshot']}"
            for rel, meta in out["manifest"].items():
                ino = fs.lookup(f"{root}/{rel}", follow=False)
                raw = fs.read(ino, 0, fs.stat(ino).size)
                got = hashlib.sha256(raw).hexdigest()
                if got != meta["sha256"]:
                    raise TraceMismatch(
                        f"op {i}: restore {out['snapshot']}:{rel} digest "
                        f"{got[:12]} != manifest {meta['sha256'][:12]}")
    else:
        raise ValueError(f"unknown trace op {op.op!r}")
    return fs


def replay(fs, trace: Trace | Iterable[TraceOp], verify: bool = True,
           drain_every: int = 0) -> dict:
    """Apply a trace to ``fs``; returns counters.

    ``verify=True`` re-checks recorded read digests (TraceMismatch on
    drift).  ``drain_every > 0`` runs the dedup daemon after every N ops
    when the filesystem has one — interleaving background dedup with the
    replay, which must never change observable contents.

    ``counters["fs"]`` holds the final filesystem instance: ``remount``
    and ``crash`` ops replace it, so callers that keep using the
    filesystem after a replay must rebind to it.
    """
    ops = trace.ops if isinstance(trace, Trace) else list(trace)
    counters = {"applied": 0, "verified_reads": 0}
    for i, op in enumerate(ops):
        fs = apply_trace_op(fs, op, i, verify=verify, counters=counters)
        counters["applied"] += 1
        if drain_every and hasattr(fs, "daemon") \
                and (i + 1) % drain_every == 0:
            fs.daemon.drain()
    if hasattr(fs, "daemon"):
        fs.daemon.drain()
    counters["fs"] = fs
    return counters
