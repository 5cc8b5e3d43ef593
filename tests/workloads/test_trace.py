"""Tests for trace record/replay and cross-variant equivalence."""

import pytest

from repro.core import Config, Variant, make_fs
from repro.nova import PAGE_SIZE
from repro.workloads import DataGenerator
from repro.workloads.trace import Trace, TracedFS, TraceMismatch, replay
from tests._seams import overriding


def build(variant=Variant.IMMEDIATE):
    fs, _ = make_fs(variant, Config(device_pages=2048, max_inodes=128))
    return fs


def run_scenario(tfs):
    """A workload exercising every traced operation."""
    gen = DataGenerator(alpha=0.5, seed=8, dup_pool_size=4)
    tfs.mkdir("/dir")
    for i in range(6):
        ino = tfs.create(f"/dir/f{i}")
        tfs.write(ino, 0, gen.file_data(2 * PAGE_SIZE))
    a = tfs.lookup("/dir/f0")
    tfs.read(a, 0, 2 * PAGE_SIZE)
    tfs.write(a, 100, b"patch!")
    tfs.read(a, 0, 200)
    tfs.truncate(a, PAGE_SIZE)
    tfs.rename("/dir/f1", "/dir/renamed")
    tfs.link("/dir/f2", "/dir/alias")
    tfs.unlink("/dir/f3")
    tfs.read(tfs.lookup("/dir/renamed"), 0, PAGE_SIZE)


class TestRecord:
    def test_operations_recorded(self):
        tfs = TracedFS(build())
        run_scenario(tfs)
        ops = [o.op for o in tfs.trace.ops]
        for kind in ("mkdir", "create", "write", "read", "truncate",
                     "rename", "link", "unlink"):
            assert kind in ops

    def test_reads_optional(self):
        tfs = overriding(TracedFS, record_reads=False)(build())
        run_scenario(tfs)
        assert "read" not in {o.op for o in tfs.trace.ops}

    def test_proxy_passthrough(self):
        tfs = TracedFS(build())
        ino = tfs.create("/f")
        tfs.write(ino, 0, b"abc")
        assert tfs.stat(ino).size == 3
        assert tfs.exists("/f")
        assert "f" in tfs.listdir("/")
        assert tfs.statfs()["free_pages"] > 0  # __getattr__ delegation

    def test_unknown_ino_rejected(self):
        tfs = TracedFS(build())
        # A file created behind the proxy's back has no path mapping.
        ino = tfs.fs.create("/sneaky")
        with pytest.raises(KeyError):
            tfs.write(ino, 0, b"x")


    def test_write_after_parent_rename_replays(self):
        tfs = TracedFS(build())
        tfs.mkdir("/d")
        ino = tfs.create("/d/f")
        tfs.write(ino, 0, b"one")
        tfs.rename("/d", "/e")
        tfs.write(ino, 3, b"two")
        assert tfs.trace.ops[-1].path == "/e/f"
        fresh = replay(build(), tfs.trace)["fs"]
        assert fresh.read(fresh.lookup("/e/f"), 0, 6) == b"onetwo"

    def test_write_after_unlinking_first_name_replays(self):
        tfs = TracedFS(build())
        ino = tfs.create("/a")
        tfs.link("/a", "/b")
        tfs.unlink("/a")
        tfs.write(ino, 0, b"kept")
        assert tfs.trace.ops[-1].path == "/b"
        fresh = replay(build(), tfs.trace)["fs"]
        assert fresh.read(fresh.lookup("/b"), 0, 4) == b"kept"
        tfs.fs.link("/b", "/c")     # a name the proxy never saw
        tfs.unlink("/b")
        with pytest.raises(KeyError):
            tfs.write(ino, 0, b"x")   # no live name it could record


class TestSaveLoad:
    def test_jsonl_roundtrip(self, tmp_path):
        tfs = TracedFS(build())
        run_scenario(tfs)
        path = tmp_path / "trace.jsonl"
        tfs.trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(tfs.trace)
        assert [o.op for o in loaded.ops] == [o.op for o in tfs.trace.ops]
        writes = [o for o in loaded.ops if o.op == "write"]
        assert all(len(o.data) == o.length for o in writes)


class TestReplay:
    def test_replay_reproduces_state(self):
        tfs = TracedFS(build())
        run_scenario(tfs)
        tfs.fs.daemon.drain()
        fresh = build()
        counters = replay(fresh, tfs.trace)
        assert counters["applied"] == len(tfs.trace)
        assert counters["verified_reads"] >= 3
        # Full-tree equivalence.
        assert fresh.listdir("/dir") == tfs.listdir("/dir")
        for name in fresh.listdir("/dir"):
            i1 = tfs.lookup(f"/dir/{name}")
            i2 = fresh.lookup(f"/dir/{name}")
            size = tfs.stat(i1).size
            assert fresh.stat(i2).size == size
            assert fresh.read(i2, 0, size) == tfs.read(i1, 0, size)

    def test_cross_variant_equivalence(self):
        """The same trace yields identical bytes on every variant —
        dedup (inline or offline) must be observationally invisible."""
        tfs = TracedFS(build(Variant.BASELINE))
        run_scenario(tfs)
        reference = {}
        for name in tfs.listdir("/dir"):
            ino = tfs.lookup(f"/dir/{name}")
            reference[name] = tfs.read(ino, 0, tfs.stat(ino).size)

        for variant in (Variant.IMMEDIATE, Variant.INLINE,
                        Variant.INLINE_ADAPTIVE):
            fs = build(variant)
            replay(fs, tfs.trace, drain_every=3)
            assert fs.listdir("/dir") == sorted(reference)
            for name, data in reference.items():
                ino = fs.lookup(f"/dir/{name}")
                assert fs.read(ino, 0, len(data) + 1) == data, \
                    f"{variant.value}: {name} diverged"

    def test_verify_catches_divergence(self):
        tfs = TracedFS(build())
        ino = tfs.create("/f")
        tfs.write(ino, 0, b"original")
        tfs.read(ino, 0, 8)
        # Tamper: change the write payload but keep the read digest.
        for op in tfs.trace.ops:
            if op.op == "write":
                import base64

                op.data_b64 = base64.b64encode(b"tampered").decode()
        with pytest.raises(TraceMismatch):
            replay(build(), tfs.trace)

    def test_replay_with_interleaved_dedup(self):
        tfs = TracedFS(build(Variant.BASELINE))
        gen = DataGenerator(alpha=0.9, seed=4, dup_pool_size=2)
        for i in range(10):
            ino = tfs.create(f"/f{i}")
            tfs.write(ino, 0, gen.file_data(PAGE_SIZE))
            tfs.read(ino, 0, PAGE_SIZE)
        fs = build(Variant.IMMEDIATE)
        counters = replay(fs, tfs.trace, drain_every=1)
        assert counters["verified_reads"] == 10
        assert fs.space_stats()["space_saving"] > 0.5
