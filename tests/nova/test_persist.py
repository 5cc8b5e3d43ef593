"""Exhaustive oracles for the persistence toolkit (repro.nova.persist).

One oracle per primitive instead of one per client: every persist event
of a slot-record ``store`` and of a state-file ``write``/``remove`` is
crashed (``discard`` and ``torn``) through ``sweep_crash_points``, and
the budgeted sweep is checked as a property over budget sequences.
"""

import itertools
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.failure import check_fs_invariants, sweep_crash_points
from repro.nova import FSError, NovaFS, PAGE_SIZE
from repro.nova.persist import (
    HDR_BYTES,
    SlotRecord,
    SweepCursors,
    lexists,
    read_state,
    remove_state,
    sweep,
    write_state,
)
from repro.obs import MetricsRegistry
from repro.pm import DRAM, PMDevice, SimClock

pytestmark = pytest.mark.recovery

MAGIC = 0x5445_5354_5245_4331
MODES = ("discard", "torn")


# ---------------------------------------------------------------- slot record

def slot_record(dev, slots):
    return SlotRecord(dev, PAGE_SIZE, PAGE_SIZE, magic=MAGIC, slots=slots)


def payload_of(tag, size):
    return bytes((tag + i) & 0xFF for i in range(size))


def header_of(seq, payload):
    """The on-media header, spelled out independently of the module."""
    crc = zlib.crc32(payload + struct.pack("<QQ", seq, len(payload)))
    return struct.pack("<QQQQ", MAGIC, seq, len(payload), crc)


class TestSlotRecord:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", (0, 1, 4000))
    @pytest.mark.parametrize("slots", (1, 2))
    def test_store_is_old_or_new_at_every_persist_event(self, slots, size,
                                                        mode):
        old = (5, payload_of(0x11, 777))
        new = (6, payload_of(0x77, size))

        def build():
            dev = PMDevice(4 * PAGE_SIZE, model=DRAM, clock=SimClock())
            rec = slot_record(dev, slots)
            rec.store(*old)
            return dev, lambda: rec.store(*new)

        seen = set()

        def check(dev, point, phase):
            got = slot_record(dev, slots).load()
            # One slot holds no second copy: a save torn mid-payload
            # leaves no record at all — but never a mix of the two.
            assert got in ((old, new, None) if slots == 1 else (old, new))
            seen.add(got)
            # Header last, CRC or no CRC: once the new header is on the
            # media, so is every byte of the payload it describes.
            slot = PAGE_SIZE + (new[0] % slots) * PAGE_SIZE
            if dev.read_silent(slot, HDR_BYTES) == header_of(*new):
                assert dev.read_silent(slot + HDR_BYTES, size) == new[1]

        assert sweep_crash_points(build, check, mode=mode) > 0
        assert new in seen       # post-commit of the header fence
        dev, scenario = build()
        scenario()
        assert slot_record(dev, slots).load() == new

    @pytest.mark.parametrize("size", (0, 1, 4000))
    def test_flipped_bit_drops_that_slot_only(self, size):
        dev = PMDevice(4 * PAGE_SIZE, model=DRAM, clock=SimClock())
        rec = slot_record(dev, 2)
        older = (1, payload_of(0x21, size))     # slot 1
        newer = (2, payload_of(0x42, size))     # slot 0
        rec.store(*older)
        rec.store(*newer)
        assert rec.load() == newer
        for slot, survivor in ((0, older), (1, newer)):
            base = PAGE_SIZE + slot * PAGE_SIZE
            # Every header bit; one (rotating) bit of every payload byte.
            flips = [(off, bit) for off in range(HDR_BYTES)
                     for bit in range(8)]
            flips += [(HDR_BYTES + i, i % 8) for i in range(size)]
            for off, bit in flips:
                byte = dev.read_silent(base + off, 1)[0]
                dev.write(base + off, bytes([byte ^ (1 << bit)]))
                assert rec.load() == survivor, (slot, off, bit)
                dev.write(base + off, bytes([byte]))
        assert rec.load() == newer

    def test_invalidate_and_capacity(self):
        dev = PMDevice(4 * PAGE_SIZE, model=DRAM, clock=SimClock())
        rec = SlotRecord(dev, PAGE_SIZE, PAGE_SIZE, magic=MAGIC,
                         payload_off=64)
        assert rec.load() is None           # zeroed region
        assert rec.capacity == PAGE_SIZE - 64
        with pytest.raises(ValueError):
            rec.store(1, bytes(rec.capacity + 1))
        rec.store(0, b"x" * rec.capacity)   # seq 0 is a valid generation
        assert rec.load() == (0, b"x" * rec.capacity)
        rec.invalidate()
        assert rec.load() is None


# ---------------------------------------------------------------- state file

PATH = "/.state/doc.json"
OLD = {"stream_id": "a" * 40, "applied": 3, "active": True}
NEW = {"stream_id": "b" * 40, "applied": 4, "active": False,
       "pad": "x" * 300}


def state_fs():
    dev = PMDevice(256 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = NovaFS.mkfs(dev, max_inodes=32)
    write_state(fs, PATH, OLD, mkparent=True)
    return fs


class TestStateFile:
    @pytest.mark.parametrize("mode", MODES)
    def test_write_is_old_new_or_absent(self, mode):
        def build():
            fs = state_fs()
            return fs.dev, lambda: write_state(fs, PATH, NEW)

        seen = []

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            got = read_state(fs2, PATH)
            assert got in (OLD, NEW, None)
            seen.append(got)
            # Whatever survived, the next write lands.
            write_state(fs2, PATH, NEW)
            assert read_state(fs2, PATH) == NEW

        assert sweep_crash_points(build, check, mode=mode) > 0
        assert None in seen and NEW in seen   # the torn window is real

    @pytest.mark.parametrize("mode", MODES)
    def test_remove_is_old_or_absent_and_prunes_parent(self, mode):
        def build():
            fs = state_fs()
            return fs.dev, lambda: remove_state(fs, PATH)

        def check(dev, point, phase):
            fs2 = NovaFS.mount(dev)
            check_fs_invariants(fs2)
            assert read_state(fs2, PATH) in (OLD, None)
            # A crash between the unlink and the rmdir is finished by
            # the tolerant form; nothing empty is left behind.
            remove_state(fs2, PATH, missing_ok=True)
            assert not lexists(fs2, "/.state")

        assert sweep_crash_points(build, check, mode=mode) > 0
        fs = state_fs()
        remove_state(fs, PATH)
        assert not lexists(fs, "/.state")

    def test_remove_keeps_a_parent_with_siblings(self):
        fs = state_fs()
        write_state(fs, "/.state/other.json", [1, 2])
        remove_state(fs, PATH)
        assert fs.listdir("/.state") == ["other.json"]
        remove_state(fs, PATH, missing_ok=True)   # absent: no error
        assert read_state(fs, "/.state/other.json", list) == [1, 2]

    def test_garbage_reads_as_absent(self):
        fs = state_fs()
        ino = fs.lookup(PATH)
        for raw in (b"", b"{\"stream_id\": \"aa", b"\xff\xfe\x00", b"[1]"):
            fs.truncate(ino, 0)
            if raw:
                fs.write(ino, 0, raw)
            assert read_state(fs, PATH) is None
            assert read_state(fs, PATH, torn={}) == {}
        assert read_state(fs, "/.state/missing", torn={}) is None
        assert read_state(fs, PATH, list) == [1]

    def test_unmounted_is_an_error_not_absent(self):
        """Read as "not found", an unmounted image had no state files."""
        fs = state_fs()
        fs.unmount()
        for probe in (lambda: lexists(fs, PATH), lambda: fs.exists(PATH),
                      lambda: read_state(fs, PATH)):
            with pytest.raises(FSError, match="not mounted"):
                probe()


# ---------------------------------------------------------------- sweep

def run_pass(cursors, table, budgets):
    """Drive ``cursors.run`` over ``table`` (key -> cost) until done."""
    calls = []
    for budget in itertools.cycle(budgets):
        visited = []

        def visit(key, cost):
            visited.append(key)
            return cost

        n, next_cursor, done = cursors.run("p", sorted(table.items()),
                                           visit, budget)
        assert n == len(visited)
        calls.append((budget, visited, done))
        if done:
            assert next_cursor == 0
            return calls
        assert next_cursor == visited[-1] + 1
        assert len(calls) < 10_000


tables = st.dictionaries(st.integers(0, 500), st.integers(0, 4), max_size=40)
budget_seqs = st.lists(st.one_of(st.none(), st.integers(1, 7)), min_size=1,
                       max_size=5)


def cursors():
    return SweepCursors(MetricsRegistry(), {"p": "test.p_cursor"})


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(tables, budget_seqs)
    def test_budgeted_calls_concatenate_to_one_pass(self, table, budgets):
        calls = run_pass(cursors(), table, budgets)
        assert [k for _b, vis, _d in calls for k in vis] == sorted(table)
        for budget, visited, done in calls:
            costs = [table[k] for k in visited]
            if budget is not None:
                # Stops as soon as the budget is spent, never later: all
                # but the last visit fit strictly inside the budget.
                assert sum(costs[:-1]) < budget
            if not done:
                assert sum(costs) >= budget

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(0, 500), max_size=40), st.integers(1, 5),
           st.randoms(use_true_random=False))
    def test_deleted_items_are_skipped_not_revisited(self, keys, budget,
                                                     rng):
        table = dict.fromkeys(keys, 1)
        cur = cursors()
        visited, gone = [], set()
        while True:
            _n, next_cursor, done = cur.run(
                "p", sorted(table.items()),
                lambda key, cost: visited.append(key) or cost, budget)
            if done:
                break
            # Delete on both sides of the cursor between calls.
            for key in rng.sample(sorted(table), len(table) // 3):
                del table[key]
                if key >= next_cursor:
                    gone.add(key)
        assert visited == sorted(set(visited))            # never revisited
        assert set(visited) == keys - gone

    def test_tag_change_resets_the_cursor(self):
        cur = cursors()
        table = dict.fromkeys(range(10), 1)
        visited = []

        def visit(key, cost):
            visited.append(key)
            return cost

        res = cur.run("p", sorted(table.items()), visit, 4, tag="s1")
        assert (visited, res) == ([0, 1, 2, 3], (4, 4, False))
        assert cur.get("p", "s1") == 4 and cur.get("p", "s2") == 0
        cur.run("p", sorted(table.items()), visit, 2, tag="s2")
        assert visited[4:] == [0, 1]
        assert cur.get("p", "s2") == 2 and cur.get("p", "s1") == 0

    def test_cursor_is_a_gauge_and_settable(self):
        reg = MetricsRegistry()
        cur = SweepCursors(reg, {"p": "test.p_cursor"})
        cur.set("p", 7)
        assert reg.snapshot()["gauges"]["test.p_cursor"] == 7
        res = cur.run("p", [(k, None) for k in range(10)],
                      lambda k, _i: 1, 100)
        assert res == (3, 0, True)
        assert reg.snapshot()["gauges"]["test.p_cursor"] == 0

    @pytest.mark.parametrize("budget", (0, -1))
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            sweep([(0, None)], lambda k, i: 1, budget=budget)
