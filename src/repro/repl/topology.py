"""Replication topology: fan-out and fan-in over ``backup`` streams.

``ReplicationTopology`` multiplexes N concurrent ``repro.backup/1``
streams with a round-robin pump: each round gives every unfinished
stream one budgeted slice of work — ``send_backup(max_records=batch)``
while its stream file is incomplete, then
``receive_backup(max_entries=batch)`` until the replica commits.  The
cursors are exactly the native ones (the sender's sidecar file, the
receiver's in-image cursor), so any stream survives interruption and
resumes mid-topology, and recreating a source snapshot invalidates only
that stream.

Fan-out (one source → N replicas) runs one *independent* stream per
replica — independent spool files, independent cursors — so a slow or
torn replica never holds the others back.  With one replica and no
batching, the topology degenerates to exactly ``send | recv``: streams
are deterministic functions of source content, so the replica's final
state is byte-identical to a direct transfer (pinned by test).

Fan-in (N sources → one target) interleaves N concurrent ingests into
one ``/.backup_stage``; the per-``stream_id`` stage namespacing is what
keeps their crash/rollback domains disjoint.  Source snapshots must
carry distinct names — consolidation is a namespace union, not a merge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.backup.diff import BackupError
from repro.backup.recv import receive_backup
from repro.backup.send import send_backup
from repro.backup.stream import StreamError
from repro.conc.permute import fs_state_digest
from repro.nova.fs import FSError

__all__ = ["ReplicationTopology", "StreamState"]


@dataclass
class StreamState:
    """One logical stream's progress through the pump."""

    name: str                     # display name ("r0", "src1", ...)
    src_fs: object
    dst_fs: object
    snapshot: str
    base: Optional[str]
    spool: str                    # host path of the stream file
    sent: bool = False
    committed: bool = False
    rounds: int = 0
    send_report: Optional[dict] = None
    recv_report: Optional[dict] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.committed or self.error is not None


@dataclass
class ReplicationTopology:
    """Round-robin pump for N concurrent backup streams.

    ``spool_dir`` is a host directory for stream files (and their
    sidecar cursors); ``batch`` caps records sent / entries received
    per stream per round (None = each stream finishes a phase in one
    slice).
    """

    spool_dir: str
    batch: Optional[int] = None
    streams: list[StreamState] = field(default_factory=list)

    def _add(self, name: str, src_fs, dst_fs, snapshot: str,
             base: Optional[str]) -> StreamState:
        st = StreamState(
            name=name, src_fs=src_fs, dst_fs=dst_fs, snapshot=snapshot,
            base=base,
            spool=os.path.join(self.spool_dir, f"{name}.{snapshot}.stream"))
        self.streams.append(st)
        return st

    def _pump_one(self, st: StreamState) -> None:
        st.rounds += 1
        if not st.sent:
            rep = send_backup(st.src_fs, st.snapshot, st.spool,
                              base=st.base, max_records=self.batch)
            st.send_report = rep
            st.sent = rep["complete"]
            return
        rep = receive_backup(st.dst_fs, st.spool, max_entries=self.batch)
        st.recv_report = rep
        st.committed = rep["committed"]

    def run(self, max_rounds: int = 100_000) -> list[StreamState]:
        """Pump round-robin until every stream commits (or errors)."""
        rounds = 0
        while any(not st.done for st in self.streams):
            if rounds >= max_rounds:
                raise BackupError(
                    f"topology did not converge in {max_rounds} rounds")
            rounds += 1
            for st in self.streams:
                if st.done:
                    continue
                try:
                    self._pump_one(st)
                except (FSError, StreamError) as exc:
                    # Per-stream failure domain: one replica that
                    # already has the snapshot (FileExists), is full,
                    # or got a torn stream must not abort the others.
                    st.error = str(exc)
        return self.streams

    # ---------------------------------------------------------- shapes

    def fan_out(self, src_fs, snapshot: str, replicas: list,
                base: Optional[str] = None) -> dict:
        """One source snapshot → every filesystem in ``replicas``."""
        os.makedirs(self.spool_dir, exist_ok=True)
        for i, dst in enumerate(replicas):
            self._add(f"r{i}", src_fs, dst, snapshot, base)
        with src_fs.obs.span("repl.fan_out", snapshot=snapshot,
                             replicas=len(replicas)):
            self.run()
        return self._report()

    def fan_in(self, sources: list, dst_fs) -> dict:
        """``sources`` = (src_fs, snapshot[, base]) tuples → one target.

        Snapshot names must be pairwise distinct: the consolidated
        target holds each under its own name.
        """
        names = [s[1] for s in sources]
        if len(set(names)) != len(names):
            raise BackupError(f"fan-in needs distinct snapshot names: {names}")
        os.makedirs(self.spool_dir, exist_ok=True)
        for i, src in enumerate(sources):
            base = src[2] if len(src) > 2 else None
            self._add(f"src{i}", src[0], dst_fs, src[1], base)
        with dst_fs.obs.span("repl.fan_in", sources=len(sources)):
            self.run()
        return self._report()

    def _report(self) -> dict:
        streams = []
        digests: dict[int, str] = {}  # id(fs) -> digest, computed once
        for st in self.streams:
            if id(st.dst_fs) not in digests:
                digests[id(st.dst_fs)] = fs_state_digest(st.dst_fs)
            streams.append({
                "name": st.name,
                "snapshot": st.snapshot,
                "rounds": st.rounds,
                "committed": st.committed,
                "error": st.error,
                "dst_digest": digests[id(st.dst_fs)],
                "pages_novel": (st.recv_report or {}).get("pages_novel", 0),
                "pages_dup": (st.recv_report or {}).get("pages_dup", 0),
            })
        return {
            "streams": streams,
            "committed": sum(1 for st in self.streams if st.committed),
            "errors": [st.error for st in self.streams if st.error],
            "converged": len({s["dst_digest"] for s in streams}) <= 1,
        }
