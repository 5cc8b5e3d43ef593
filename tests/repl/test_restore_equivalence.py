"""Satellite property: forward-ingested-then-relocated chains restore
byte-identically to never-relocated chains at every chain length 1..8 —
including when the relocation pass is torn by a crash at an arbitrary
persistence event (the intent-journal replay settles the half-move)."""

import pytest

from repro.dedup import DeNovaFS
from repro.failure import check_fs_invariants
from repro.failure.injector import count_persist_events, sweep_crash_points
from repro.repl import relocate_latest, restore_snapshot

from tests.repl.util import build_chain_pair, make_fs, recv_stream

pytestmark = pytest.mark.repl


def manifests(fs, names):
    return {n: restore_snapshot(fs, n)["manifest"] for n in names}


class TestRestoreEquivalence:
    def test_every_chain_length_1_to_8(self):
        """One incrementally grown pair: after each received snapshot,
        the relocated target restores every snapshot in the chain
        byte-identically to the never-relocated control."""
        src = make_fs()
        dst_rel = make_fs()
        dst_fwd = make_fs()
        from tests.repl.util import grow_chain, send_stream
        names = []
        prev = None
        for i in range(1, 9):
            name = grow_chain(src, i)
            stream = send_stream(src, name, base=prev)
            recv_stream(dst_rel, stream)
            recv_stream(dst_fwd, stream)
            names.append(name)
            prev = name
            out = relocate_latest(dst_rel)
            assert out["done"]
            assert manifests(dst_rel, names) == manifests(dst_fwd, names), \
                f"divergence at chain length {i}"
        check_fs_invariants(dst_rel)
        check_fs_invariants(dst_fwd)

    def test_restore_digests_match_source(self):
        """The manifest digests are the source's actual bytes, not just
        internally consistent between the two targets."""
        import hashlib
        src, dst, _b, names = build_chain_pair(4)
        relocate_latest(dst)
        for name in names:
            man = restore_snapshot(dst, name)["manifest"]
            ino = src.lookup(f"/.snapshots/{name}/data", follow=False)
            raw = src.read(ino, 0, src.stat(ino).size)
            assert man["data"]["sha256"] == hashlib.sha256(raw).hexdigest()


class TestRelocationCrashSweep:
    def test_mid_relocation_crash_preserves_equivalence(self):
        """Tear the relocation at persistence events (both phases): after
        every recovery — which replays the intent journal — all
        snapshots restore byte-identically to the control, and a
        follow-up full pass completes cleanly."""
        _src, _a, control, names = build_chain_pair(3)
        want = manifests(control, names)

        def build():
            src, dst, _b, _names = build_chain_pair(3)

            def scenario():
                out = relocate_latest(dst)
                assert out["done"]
                dst.unmount()

            return dst.dev, scenario

        tested = [0]

        def check(dev, point, phase):
            rec = DeNovaFS.mount(dev)
            check_fs_invariants(rec)
            assert manifests(rec, names) == want, \
                f"restore diverged after crash point {point}/{phase}"
            # The pass must still be completable post-crash.
            while not relocate_latest(rec)["done"]:
                pass
            assert manifests(rec, names) == want
            check_fs_invariants(rec)
            tested[0] += 1

        total = count_persist_events(build)
        stride = max(1, total // 10)  # ~10 points per phase
        sweep_crash_points(build, check, phases=("pre", "post"),
                           mode="discard", stride=stride)
        assert tested[0] > 0
