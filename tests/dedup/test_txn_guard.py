"""Structural guard: Algorithm 1's *stage → commit | abort* has one body.

Update counts are staged, settled and dropped by ``FactTxn``
(``dedup/fact.py``) and nowhere else; the live-reference census is
``nova/radix.py::page_refs``; FACT's words are FACT's.  These checks
fail when a deleted copy — ``reflink``'s ``fs.fact.inc_uc(idx);
staged.append(idx)``, recv's ``discard_uc`` loop, the hybrid daemon's
``settle_mode`` fork, a ``cache.index._slots`` loop, a second map of
held FACT words — is pasted back.
"""

import ast
import functools

from repro.dedup.daemon import DedupDaemon
from repro.dedup.fact import FACT
from repro.dedup.hybrid import HybridDedupDaemon
from tests._code_index import SRC, source, src_trees

_FACT = "dedup/fact.py"


@functools.cache
def _functions():
    """``(module, enclosing function name | None, node)`` for every node."""
    out = []
    for rel, tree in src_trees():
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        out += [(rel, owner.get(node), node) for node in ast.walk(tree)]
    return out


def _receiver(attribute):
    """Last name of what an attribute hangs off: ``fs.fact._x`` -> fact."""
    value = attribute.value
    return value.attr if isinstance(value, ast.Attribute) \
        else getattr(value, "id", None)


def _method_calls():
    for rel, fn, node in _functions():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield rel, fn, node.func


def test_counts_are_staged_and_dropped_only_by_the_transaction():
    for rel, fn, func in _method_calls():
        if rel == _FACT:
            continue
        where = f"{rel}::{fn}"
        assert func.attr not in ("inc_uc", "discard_uc"), \
            f"{where} calls .{func.attr}(): stage through FactTxn"
        assert not (func.attr == "insert" and _receiver(func) == "fact"), \
            f"{where} inserts a FACT entry by hand: use FactTxn.claim"
        if func.attr == "commit_uc":
            # Recovery resumes *another* mount's transaction (Alg. 1
            # step 6 from the in_process flags): no FactTxn survives a
            # crash, so this one caller settles counts directly.
            assert (rel, fn) == ("dedup/recovery.py", "_resume_step6"), \
                f"{where} settles a count by hand: use FactTxn.commit"


def test_counts_words_come_from_the_transaction():
    """A count primitive takes its word from ``FactTxn.word`` (held, or
    read once and held), never from a decoded ``FactEntry.counts``."""
    for rel, fn, node in _functions():
        if (rel == _FACT or not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr not in ("inc_uc", "commit_uc", "dec_rfc")):
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            assert not any(isinstance(sub, ast.Attribute)
                           and sub.attr == "counts"
                           for sub in ast.walk(arg)), \
                f"{rel}::{fn} hands an entry's counts to .{node.func.attr}()"


def test_one_held_value_map():
    """What an operation uses of FACT without reading it lives in its
    ``FactTxn``: FACT keeps no plan of its own, and one guard —
    ``FactTxn.held`` — asks whether a store flushed a held slot."""
    assert not {"planned", "_plans", "DeletePlan"} & set(vars(FACT))
    for rel, fn, node in _functions():
        if isinstance(node, (ast.Attribute, ast.Name)):
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name not in ("planned", "_plans", "DeletePlan"), \
                f"{rel}::{fn} names {name}"
    callers = [(rel, fn) for rel, fn, func in _method_calls()
               if func.attr == "_unflushed"]
    assert callers == [(_FACT, "held")], callers


def test_fact_full_is_handled_in_one_place():
    for rel, fn, node in _functions():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = {n.id for n in ast.walk(node.type)
                     if isinstance(n, ast.Name)}
            assert "FactFull" not in named or rel == _FACT, \
                f"{rel}::{fn} has its own FactFull policy: " \
                f"FactTxn.claim returns None"


def test_private_state_stays_private():
    for rel, fn, node in _functions():
        if not isinstance(node, ast.Attribute):
            continue
        where = f"{rel}::{fn}"
        assert node.attr != "_slots" or rel == "nova/radix.py", \
            f"{where} reads FileIndex._slots: use mappings() / page_refs()"
        if (_receiver(node) == "fact" and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            assert rel in (_FACT, "dedup/reorder.py"), \
                f"{where} touches FACT.{node.attr}"


def test_no_settle_mode():
    for rel, _tree in src_trees():
        assert "settle_mode" not in source(SRC / rel), \
            f"{rel.rpartition('/')[2]}: the hybrid daemon's mode flag is back"


def test_hybrid_daemon_overrides_only_the_two_hooks():
    """The five stages stay methods of ``DedupDaemon`` (the e2e tracer
    resolves them through ``vars(owner)``); the hybrid daemon says only
    what differs — the hash step and the miss branch."""
    stages = {"process_node", "validate_node", "fingerprint_page",
              "stage_page", "commit_node"}
    assert stages <= set(vars(DedupDaemon))
    assert {n for n in vars(HybridDedupDaemon) if not n.startswith("__")} \
        == {"_hash_page", "_stage_miss"}
    assert {"lookup", "insert", "inc_uc", "commit_uc", "dec_rfc", "remove",
            "set_delete", "clear_delete", "entry_for_block"} <= set(vars(FACT))
