"""Unit tests for the runtime lock-order (acquisition DAG) validator."""

import pytest

from repro.conc.lockorder import LockOrderValidator, LockOrderViolation

pytestmark = pytest.mark.conc


def order_snapshot(v) -> dict[str, list[str]]:
    """The recorded DAG: lock -> locks taken after it."""
    return {k: sorted(locks) for k, locks in v._edges.items() if locks}


class TestDagRecording:
    def test_edges_accumulate(self):
        v = LockOrderValidator()
        v.acquiring("a", "ns")
        v.acquiring("a", "ino:1")
        v.acquiring("a", "bucket:7")
        assert v.edges_recorded == 3  # ns->ino, ns->bucket, ino->bucket
        order = order_snapshot(v)
        assert "ino:1" in order["ns"]
        assert "bucket:7" in order["ino:1"]

    def test_release_clears_held(self):
        v = LockOrderValidator()
        v.acquiring("a", "ino:1")
        v.released("a", "ino:1")
        # Inverted order is now legal for this holder: no lock held.
        v.acquiring("a", "ino:2")
        v.acquiring("a", "ino:1")  # records ino:2 -> ino:1...
        v.released("a", "ino:1")
        v.released("a", "ino:2")

    def test_holders_are_independent(self):
        v = LockOrderValidator()
        v.acquiring("a", "ns")
        v.acquiring("b", "ino:3")  # b holds nothing else: no edge from ns
        assert v.edges_recorded == 0


class TestCycleDetection:
    def test_two_lock_inversion_raises(self):
        v = LockOrderValidator()
        v.acquiring("a", "ino:1")
        v.acquiring("a", "ino:2")  # edge ino:1 -> ino:2
        v.released("a", "ino:2")
        v.released("a", "ino:1")
        v.acquiring("b", "ino:2")
        with pytest.raises(LockOrderViolation) as exc:
            v.acquiring("b", "ino:1")  # would close ino:1->ino:2->ino:1
        assert "ino:1" in str(exc.value) and "ino:2" in str(exc.value)

    def test_three_lock_cycle_raises(self):
        v = LockOrderValidator()
        v.acquiring("a", "x"); v.acquiring("a", "y")
        v.released("a", "y"); v.released("a", "x")
        v.acquiring("b", "y"); v.acquiring("b", "z")
        v.released("b", "z"); v.released("b", "y")
        v.acquiring("c", "z")
        with pytest.raises(LockOrderViolation):
            v.acquiring("c", "x")  # closes x->y->z->x

    def test_reentrant_acquisition_raises(self):
        v = LockOrderValidator()
        v.acquiring("a", "ino:1")
        with pytest.raises(LockOrderViolation):
            v.acquiring("a", "ino:1")

    def test_hierarchy_order_never_raises(self):
        """The documented ns -> ino -> shard -> bucket order is acyclic
        by construction; interleaved holders must all pass."""
        v = LockOrderValidator()
        for h, ino, b in (("w0", 1, 4), ("w1", 2, 4), ("w0", 3, 9)):
            holder = f"client-{h}"
            for name in ("ns", f"ino:{ino}", f"shard:{ino % 2}",
                         f"bucket:{b}"):
                v.acquiring(holder, name)
            for name in (f"bucket:{b}", f"shard:{ino % 2}", f"ino:{ino}",
                         "ns"):
                v.released(holder, name)
        assert v.edges_recorded > 0
