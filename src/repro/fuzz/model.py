"""A pure-Python model filesystem: the fuzzer's differential oracle.

The model tracks what a POSIX-correct filesystem *must* answer after a
sequence of operations: the namespace (directories, files, symlinks,
hard links), every file's byte content, and which file pages have been
materialized by writes (the basis of the shared-page refcount bound —
see :meth:`ModelFS.page_occurrences`).

It deliberately mirrors the semantic quirks of :class:`repro.nova.fs
.NovaFS` that are contracts, not bugs:

* path resolution follows intermediate symlinks always and the final
  component per-operation, with the same depth limit;
* ``link`` follows symlinks and targets regular files only;
* symlink targets are limited to 40 bytes (one cache-line log entry);
* snapshot members are immutable (writes/truncates rejected) but may be
  unlinked;
* ``snapshot`` reflinks the tree per file in sorted order, copying
  symlinks verbatim and skipping ``/.snapshots`` itself.

Every mutating op validates first and only then mutates, so a raised
:class:`ModelError` guarantees the model state is unchanged — the
differential runner relies on this for its both-fail-or-both-succeed
protocol.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from repro.nova.layout import PAGE_SIZE

__all__ = ["ModelError", "ModelFS", "ModelNode", "SNAPSHOT_DIR"]

SNAPSHOT_DIR = "/.snapshots"
ROOT_ID = 1
MAX_SYMLINK_DEPTH = 8
MAX_SYMLINK_TARGET = 40


class ModelError(Exception):
    """The modelled filesystem must reject this operation."""


@dataclass
class ModelNode:
    """One inode-equivalent: a dir, a regular file, or a symlink."""

    kind: str                       # "dir" | "file" | "symlink"
    content: bytearray = field(default_factory=bytearray)   # files
    materialized: set = field(default_factory=set)          # written pgoffs
    children: dict = field(default_factory=dict)            # dirs: name->id
    target: str = ""                                        # symlinks
    nlink: int = 1
    immutable: bool = False


class ModelFS:
    """Expected filesystem state; all ops are instant and in-DRAM."""

    def __init__(self):
        self.nodes: dict[int, ModelNode] = {
            ROOT_ID: ModelNode(kind="dir", nlink=2)}
        self._next_id = ROOT_ID + 1

    # ------------------------------------------------------------ resolution

    def _resolve(self, path: str, follow_final: bool) -> tuple[int, str]:
        """Mirror of ``NovaFS._resolve``: returns (parent id, leaf name)."""
        parts = deque(p for p in path.split("/") if p)
        if not parts:
            return ROOT_ID, ""
        cur = ROOT_ID
        hops = 0
        while parts:
            comp = parts.popleft()
            node = self.nodes[cur]
            if node.kind != "dir":
                raise ModelError(f"{comp!r} lookup under non-directory")
            child = node.children.get(comp)
            is_final = not parts
            if child is not None:
                cnode = self.nodes.get(child)
                if (cnode is not None and cnode.kind == "symlink"
                        and (not is_final or follow_final)):
                    hops += 1
                    if hops > MAX_SYMLINK_DEPTH:
                        raise ModelError(
                            f"too many levels of symbolic links: {path!r}")
                    target = cnode.target
                    tparts = [p for p in target.split("/") if p]
                    if target.startswith("/"):
                        cur = ROOT_ID
                    parts.extendleft(reversed(tparts))
                    continue
            if is_final:
                return cur, comp
            if child is None:
                raise ModelError(f"no such directory: {comp!r} in {path!r}")
            cur = child
        return ROOT_ID, ""

    def _namei(self, path: str) -> tuple[int, str, ModelNode]:
        pid, name = self._resolve(path, follow_final=False)
        if not name:
            raise ModelError("empty path")
        parent = self.nodes[pid]
        if parent.kind != "dir":
            raise ModelError(f"parent of {name!r} is not a directory")
        return pid, name, parent

    def lookup(self, path: str, follow: bool = True) -> int:
        pid, name = self._resolve(path, follow_final=follow)
        if not name:
            return ROOT_ID
        nid = self.nodes[pid].children.get(name)
        if nid is None:
            raise ModelError(f"not found: {path}")
        return nid

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except ModelError:
            return False

    def _file_node(self, path: str, for_write: bool = False
                   ) -> tuple[int, ModelNode]:
        nid = self.lookup(path, follow=True)
        node = self.nodes[nid]
        if node.kind != "file":
            raise ModelError(f"not a regular file: {path}")
        if for_write and node.immutable:
            raise ModelError(f"immutable (snapshot member): {path}")
        return nid, node

    def _alloc(self, node: ModelNode) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = node
        return nid

    # ------------------------------------------------------------ namespace

    def create(self, path: str) -> int:
        pid, name, parent = self._namei(path)
        if name in parent.children:
            raise ModelError(f"exists: {path}")
        nid = self._alloc(ModelNode(kind="file"))
        parent.children[name] = nid
        return nid

    def mkdir(self, path: str) -> int:
        pid, name, parent = self._namei(path)
        if name in parent.children:
            raise ModelError(f"exists: {path}")
        # POSIX: a new directory has nlink 2 ("." + its parent's entry)
        # and its ".." adds one link to the parent.
        nid = self._alloc(ModelNode(kind="dir", nlink=2))
        parent.children[name] = nid
        parent.nlink += 1
        return nid

    def symlink(self, target: str, linkpath: str) -> int:
        pid, name, parent = self._namei(linkpath)
        if name in parent.children:
            raise ModelError(f"exists: {linkpath}")
        if not 0 < len(target.encode()) <= MAX_SYMLINK_TARGET:
            raise ModelError(f"symlink target too long/empty: {target!r}")
        nid = self._alloc(ModelNode(kind="symlink", target=target))
        parent.children[name] = nid
        return nid

    def unlink(self, path: str) -> None:
        pid, name, parent = self._namei(path)
        nid = parent.children.get(name)
        if nid is None:
            raise ModelError(f"not found: {path}")
        node = self.nodes[nid]
        if node.kind == "dir":
            raise ModelError(f"is a directory: {path}")
        del parent.children[name]
        node.nlink -= 1
        if node.nlink == 0:
            del self.nodes[nid]

    def rmdir(self, path: str) -> None:
        pid, name, parent = self._namei(path)
        nid = parent.children.get(name)
        if nid is None:
            raise ModelError(f"not found: {path}")
        node = self.nodes[nid]
        if node.kind != "dir":
            raise ModelError(f"not a directory: {path}")
        if node.children:
            raise ModelError(f"not empty: {path}")
        del parent.children[name]
        del self.nodes[nid]
        parent.nlink -= 1

    def link(self, existing: str, newpath: str) -> None:
        nid = self.lookup(existing, follow=True)
        node = self.nodes[nid]
        if node.kind != "file":
            raise ModelError(f"hard links to non-files: {existing}")
        pid, name, parent = self._namei(newpath)
        if name in parent.children:
            raise ModelError(f"exists: {newpath}")
        if self._tenant_of_id(nid) != self._tenant_of_id(pid):
            raise ModelError(
                f"cross-tenant hard link: {existing!r} -> {newpath!r}")
        parent.children[name] = nid
        node.nlink += 1

    def rename(self, src: str, dst: str) -> None:
        spid, sname, sparent = self._namei(src)
        nid = sparent.children.get(sname)
        if nid is None:
            raise ModelError(f"not found: {src}")
        dpid, dname, dparent = self._namei(dst)
        if dname in dparent.children:
            raise ModelError(f"exists: {dst}")
        if self.nodes[nid].kind == "dir":
            if nid == dpid or self._is_ancestor(nid, dpid):
                raise ModelError(f"cannot move {src!r} into its own subtree")
        if self._tenant_of_id(nid) != self._tenant_of_id(dpid):
            raise ModelError(f"cross-tenant rename: {src!r} -> {dst!r}")
        del sparent.children[sname]
        dparent.children[dname] = nid
        if self.nodes[nid].kind == "dir" and spid != dpid:
            sparent.nlink -= 1
            dparent.nlink += 1

    def _tenant_of_id(self, nid: int) -> Optional[str]:
        """The tenant root subtree containing ``nid``, or None.

        Mirrors ``TenantManager.tenant_of`` (ino -> owner) by subtree
        membership: ownership is inherited from the parent at creation
        and rename/link may not cross a tenant root, so the subtree a
        node sits in *is* its owner.  ``tenants`` is populated by the
        ``tenant_create`` fuzz op; directories under ``/t`` that are not
        registered tenants are unowned, as on the real filesystem.
        """
        tenants = getattr(self, "tenants", None)
        t_id = self.nodes[ROOT_ID].children.get("t")
        if not tenants or t_id is None or self.nodes[t_id].kind != "dir":
            return None
        for name in tenants:
            rid = self.nodes[t_id].children.get(name)
            if rid == nid or rid is not None and any(
                    n == nid for _p, n, _node in self._entries(f"/t/{name}")):
                return name
        return None

    def _is_ancestor(self, maybe_ancestor: int, nid: int) -> bool:
        parent_of: dict[int, int] = {}
        for pid, node in self.nodes.items():
            if node.kind == "dir":
                for child in node.children.values():
                    parent_of[child] = pid
        cur = nid
        seen: set[int] = set()
        while cur in parent_of and cur not in seen:
            seen.add(cur)
            cur = parent_of[cur]
            if cur == maybe_ancestor:
                return True
        return False

    # ------------------------------------------------------------ data

    def write(self, path: str, offset: int, data: bytes) -> None:
        # Check order mirrors NovaFS.write: resolve, reject negative
        # offsets, no-op on empty data *before* the file/immutable checks.
        nid = self.lookup(path, follow=True)
        if offset < 0:
            raise ModelError("negative offset")
        if not data:
            return
        node = self.nodes[nid]
        if node.kind != "file":
            raise ModelError(f"not a regular file: {path}")
        if node.immutable:
            raise ModelError(f"immutable (snapshot member): {path}")
        end = offset + len(data)
        if len(node.content) < end:
            node.content.extend(bytes(end - len(node.content)))
        node.content[offset:end] = data
        for pg in range(offset // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            node.materialized.add(pg)

    def truncate(self, path: str, size: int) -> None:
        nid, node = self._file_node(path, for_write=True)
        if size < 0:
            raise ModelError("negative size")
        if size < len(node.content):
            del node.content[size:]
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            node.materialized = {p for p in node.materialized if p < keep}
        elif size > len(node.content):
            node.content.extend(bytes(size - len(node.content)))
        # Growing materializes nothing: NOVA records only a new size and
        # the gap reads as holes.

    def read(self, path: str, offset: int, length: int) -> bytes:
        nid, node = self._file_node(path)
        if offset < 0 or length < 0:
            raise ModelError("negative offset/length")
        return bytes(node.content[offset:offset + length])

    def size_of(self, path: str) -> int:
        return len(self._file_node(path)[1].content)

    # ------------------------------------------------------------ dedup surface

    def _copy_file(self, src_node: ModelNode, immutable: bool) -> ModelNode:
        return ModelNode(kind="file",
                         content=bytearray(src_node.content),
                         materialized=set(src_node.materialized),
                         immutable=immutable)

    def reflink(self, src: str, dst: str, immutable: bool = False) -> int:
        src_nid = self.lookup(src, follow=True)
        src_node = self.nodes[src_nid]
        if src_node.kind != "file":
            raise ModelError(f"reflink source is not a file: {src}")
        dpid, dname, dparent = self._namei(dst)
        if dname in dparent.children:
            raise ModelError(f"exists: {dst}")
        nid = self._alloc(self._copy_file(src_node, immutable))
        dparent.children[dname] = nid
        return nid

    def snapshot(self, name: str) -> None:
        if "/" in name or not name:
            raise ModelError(f"bad snapshot name {name!r}")
        base = f"{SNAPSHOT_DIR}/{name}"
        if self.exists(base):
            raise ModelError(f"exists: {base}")
        if not self.exists(SNAPSHOT_DIR):
            self.mkdir(SNAPSHOT_DIR)
        self.mkdir(base)

        def copy(src_path: str, node: ModelNode) -> None:
            dst_path = f"{base}{src_path}"
            if node.kind == "dir":
                self.mkdir(dst_path)
            elif node.kind == "file":
                self.reflink(src_path, dst_path, immutable=True)
            else:
                self.symlink(node.target, dst_path)

        root = self.nodes[ROOT_ID]
        for entry in sorted(root.children):
            src_path = f"/{entry}"
            if src_path == SNAPSHOT_DIR:
                continue
            node = self.nodes[root.children[entry]]
            copy(src_path, node)
            if node.kind == "dir":
                for path, _nid, child in self._entries(src_path):
                    copy(path, child)

    def delete_snapshot(self, name: str) -> None:
        base = f"{SNAPSHOT_DIR}/{name}"
        if not self.exists(base):
            raise ModelError(f"not found: {base}")
        # Children before their directory (the model has no clock).
        for path, _nid, node in reversed(list(self._entries(base))):
            if node.kind == "dir":
                self.rmdir(path)
            else:
                self.unlink(path)
        self.rmdir(base)

    # ------------------------------------------------------------ oracles

    def page_occurrences(self) -> Counter:
        """How many live file pages hold each distinct 4 KB image.

        Only *materialized* pages count (holes have no device page, and
        NOVA never allocates for them), so for every image the real
        filesystem must keep at least this many live page references —
        the lower bound the RFC check enforces after a full dedup drain.
        """
        occ: Counter = Counter()
        for node in self.nodes.values():
            if node.kind != "file":
                continue
            npages = (len(node.content) + PAGE_SIZE - 1) // PAGE_SIZE
            for pg in node.materialized:
                if pg >= npages:
                    continue
                img = bytes(node.content[pg * PAGE_SIZE:(pg + 1) * PAGE_SIZE])
                if len(img) < PAGE_SIZE:
                    img = img + bytes(PAGE_SIZE - len(img))
                occ[img] += 1
        return occ

    def _entries(self, top: str):
        """``(path, node id, node)`` for every entry under directory
        ``top``, depth first in name order (as ``NovaFS.walk``)."""
        node = self.nodes[self.lookup(top, follow=False)]
        for name in sorted(node.children):
            nid = node.children[name]
            child = self.nodes[nid]
            path = f"{top.rstrip('/')}/{name}"
            yield path, nid, child
            if child.kind == "dir":
                yield from self._entries(path)

    def namespace(self) -> dict[str, tuple]:
        """Flatten to {path: descriptor} for byte-exact comparison.

        Descriptors: ``("dir",)``, ``("symlink", target)``, and
        ``("file", size, content_bytes)``.
        """
        out: dict[str, tuple] = {}
        for path, _nid, node in self._entries("/"):
            if node.kind == "dir":
                out[path] = ("dir",)
            elif node.kind == "symlink":
                out[path] = ("symlink", node.target)
            else:
                out[path] = ("file", len(node.content), bytes(node.content))
        return out

    def hardlink_groups(self) -> dict[int, list[str]]:
        """Node id -> sorted list of paths naming it (files only)."""
        groups: dict[int, list[str]] = {}
        for path, nid, node in self._entries("/"):
            if node.kind == "file":
                groups.setdefault(nid, []).append(path)
        return groups

    def dir_links(self) -> dict[str, int]:
        """path -> expected nlink for every directory (``2 + nsubdirs``)."""
        out: dict[str, int] = {"/": self.nodes[ROOT_ID].nlink}
        for path, _nid, node in self._entries("/"):
            if node.kind == "dir":
                out[path] = node.nlink
        return out

    def count_nodes(self) -> int:
        return len(self.nodes)

    def file_paths(self) -> list[str]:
        return sorted(p for p, d in self.namespace().items()
                      if d[0] == "file")

    def dir_paths(self) -> list[str]:
        return ["/"] + sorted(p for p, d in self.namespace().items()
                              if d[0] == "dir")

    def all_paths(self) -> list[str]:
        return sorted(self.namespace())
