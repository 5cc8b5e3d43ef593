"""Structural guard: each persistence rule has exactly one body.

*Header last*, *torn state file ⇒ absent*, *one store + one fence per
staged record* and *cursor/budget/resume* each live in one function
(``repro.nova.persist``; the frame codec beside its only user in
``repro.nova.staging``), and the superblock's words have one owner
(``repro.nova.layout``).  These checks fail when a deleted copy is
pasted back into a client module.
"""

import ast
import re

from tests._code_index import src_tree, src_trees as _modules

_TOOLKIT = "nova/persist.py"


def _functions(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(node, attr):
    """Attribute calls ``<anything>.attr(...)`` under ``node``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_crc_framing_lives_in_the_toolkit():
    """``zlib.crc32`` frames persistent records in two places only: the
    slot record and the staging frame codec.  (``dedup/fingerprint.py``
    is the weak content hash, ``backup/stream.py`` the host wire
    format — neither is media framing.)"""
    owners = {}
    for rel, tree in _modules():
        for fn in _functions(tree):
            if _calls(fn, "crc32"):
                owners.setdefault(rel, set()).add(fn.name)
    wire = {"dedup/fingerprint.py", "backup/stream.py"}
    assert {k: v for k, v in owners.items() if k not in wire} == {
        _TOOLKIT: {"_crc"},
        "nova/staging.py": {"_append", "_replay_slab"}}, owners

    for rel in ("tenant/registry.py", "nova/checkpoint.py"):
        tree = src_tree(rel)
        assert "zlib" not in _names(tree), f"{rel} imports zlib again"
        assert not _calls(tree, "persist") and not _calls(tree, "sfence"), \
            f"{rel} orders its own persists again"
        assert "<QQQQ" not in {
            n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
        }, f"{rel} packs a record header again"


def test_one_staging_frame_append_and_one_decoder():
    tree = src_tree("nova/staging.py")
    users = {}
    for fn in _functions(tree):
        for codec in ("_FRAME_HDR", "_FRAME_TAIL"):
            if codec in _names(fn):
                users.setdefault(codec, set()).add(fn.name)
    assert users == {"_FRAME_HDR": {"_append", "_replay_slab"},
                     "_FRAME_TAIL": {"_append", "_replay_slab"}}, users
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "StagingLog")
    for fn in _functions(cls):
        if fn.name in ("try_stage", "try_stage_create"):
            # Absorb = admission + one ``_append``; no store of its own.
            assert not _calls(fn, "write") and not _calls(fn, "sfence"), \
                f"{fn.name} stores a frame by hand again"
            assert len(_calls(fn, "_append")) == 1


def test_state_file_protocol_lives_in_the_toolkit():
    """``json.loads(fs.read(...))`` and truncate-to-zero-then-write."""
    gone = re.compile(r"_present|_write_small|_read_json\w*|_read_cursor")
    for rel, tree in _modules():
        if rel == _TOOLKIT:
            continue
        for fn in _functions(tree):
            assert not gone.fullmatch(fn.name), \
                f"{rel} defines {fn.name} again"
            for call in _calls(fn, "loads"):
                assert not _calls(call, "read"), \
                    f"{rel}::{fn.name} decodes an in-image file by hand"
            if (rel, fn.name) == ("cli.py", "cmd_put"):
                continue    # ``put`` overwrites a *user* file in place
            zeroing = [c for c in _calls(fn, "truncate")
                       if len(c.args) == 2
                       and isinstance(c.args[1], ast.Constant)
                       and c.args[1].value == 0]
            assert not (zeroing and _calls(fn, "write")), \
                f"{rel}::{fn.name} rewrites a state file by hand"


#: ``conc/vfs.py``'s dedup worker splits a *batch* across the pool — a
#: DES generator's loop bound, not a resumable pass (ISSUE 16 read it
#: and left it alone).
_NOT_A_SWEEP = {("conc/vfs.py", "_worker_proc")}


def test_cursor_and_budget_arithmetic_lives_in_the_sweep():
    def bare(node, *names):
        return isinstance(node, ast.Name) and node.id in names

    for rel, tree in _modules():
        if rel == _TOOLKIT:
            continue
        for fn in _functions(tree):
            where = f"{rel}::{fn.name}"
            if (rel, fn.name) in _NOT_A_SWEEP:
                continue
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            assert not {"budget", "cursor"} <= params, \
                f"{where} takes a budget and a cursor: use persist.sweep"
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    assert not any(bare(s, "budget") for s in sides), \
                        f"{where} compares against a budget by hand"
                if isinstance(node, ast.AugAssign):
                    assert not bare(node.target, "cursor"), \
                        f"{where} advances a cursor by hand"
                if isinstance(node, ast.BinOp):
                    assert not (bare(node.left, "cursor")
                                or bare(node.right, "cursor")), \
                        f"{where} does cursor arithmetic by hand"


def test_cursors_are_held_by_the_holder_only():
    """No ``fs._scrub_cursor`` / ``getattr(fs, "_relocate_cursor", …)``."""
    private = re.compile(r"_\w*cursor\w*")
    for rel, tree in _modules():
        if rel == _TOOLKIT:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert not private.fullmatch(node.attr), \
                    f"{rel}:{node.lineno} private cursor .{node.attr}"
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                assert not private.fullmatch(node.value), \
                    f"{rel}:{node.lineno} private cursor {node.value!r}"
    # The CLI seeds a resume through the holder, not through the class.
    cli = src_tree("cli.py")
    for node in ast.walk(cli):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for tgt in targets:
                assert not (isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "fs"
                            and tgt.attr.startswith("_")), \
                    f"cli.py:{node.lineno} assigns fs.{tgt.attr}"



#: ``(module, function)`` that build or load a ``Superblock`` record:
#: mkfs and mount, the CLI's class probe and the image decoder.
_RECORD_MAKERS = {("nova/fs.py", "mkfs"), ("nova/fs.py", "mount"),
                  ("cli.py", "_image_fs_class"),
                  *(("failure/image.py", fn)
                    for fn in ("iaa_mark", "chunk_map", "decode"))}


def _record_makers(tree):
    """Functions (``<module>`` outside any) of ``tree`` that call
    ``Superblock(...)`` or ``Superblock.<method>(...)``."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func.value if isinstance(node.func, ast.Attribute) \
                else node.func
            if isinstance(func, ast.Name) and func.id == "Superblock":
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_superblock_words_have_one_owner():
    """Only ``nova/layout.py`` names a superblock offset, and a record is
    made only where :data:`_RECORD_MAKERS` says: every other reader takes
    the filesystem's record (``fs.sb``)."""
    offsets = {t.id for n in src_tree("nova/layout.py").body
               if isinstance(n, ast.Assign) for t in n.targets
               if isinstance(t, ast.Name) and t.id.startswith("_OFF_")}
    assert {"_OFF_MAGIC", "_OFF_EPOCH", "_OFF_IAA_MARK"} <= offsets
    makers = set()
    for rel, tree in _modules():
        if rel == "nova/layout.py":
            continue
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) for a in n.names}
        named = offsets & (_names(tree) | imported)
        assert not named, f"{rel} names superblock offsets {named}"
        makers |= {(rel, fn) for fn in _record_makers(tree)}
    assert makers == _RECORD_MAKERS, makers
