"""The inode table's scans against their per-slot form.

``InodeTable`` reads the valid column with ``PMDevice.scan`` — one device
call per run of slots — where it used to make one charged 1-byte ``read``
per slot from Python.  ``PerSlotTable`` below is that older form, kept as
the oracle: on equal tables both must return the same inodes, leave the
same device counters and the same clock behind — charge by charge on a
recording clock, to the last bit on a plain one (where the real table's
equal charges are folded by ``SimClock.advance_n``).
"""

import random
from itertools import repeat

import pytest

from repro.nova import inode as inode_module
from repro.nova.inode import (ITYPE_DIR, ITYPE_FILE, ITYPE_SYMLINK, Inode,
                              InodeTable)
from repro.nova.layout import INODE_SIZE, PAGE_SIZE, Geometry
from repro.pm import PMDevice, SimClock

_OFF_VALID = inode_module._OFF_VALID


class RecordingClock(SimClock):
    __slots__ = ("charges",)

    def __init__(self):
        super().__init__()
        self.charges = []

    def advance(self, ns):
        self.charges.append(ns)
        super().advance(ns)


class PerSlotTable(InodeTable):
    """The scans as they were: a charged 1-byte read per slot."""

    def _scan_valid(self, inos: range):
        first = self.addr_of(inos.start) + _OFF_VALID
        addrs = range(first, first + (inos.stop - inos.start) * INODE_SIZE,
                      inos.step * INODE_SIZE)
        return zip(inos, map(self.dev.read, addrs, repeat(1)))

    def _scan_free(self):
        top_down = range(self.capacity, 1, -1)
        self._free = [ino for ino, valid in self._scan_valid(top_down)
                      if valid == b"\x00"]
        self._free_scanned = True

    def iter_valid(self, released):
        for ino, valid in self._scan_valid(range(1, self.capacity + 1)):
            if valid != b"\x01":
                continue
            rec = self.read(ino)
            if rec.ino == ino and rec.itype in (ITYPE_FILE, ITYPE_DIR,
                                                ITYPE_SYMLINK):
                yield rec
            else:
                self.release(ino)
                released.append(ino)


def _tables(capacity, fill, clock=RecordingClock):
    """The two forms over equal media: ``fill(table)`` stores the same
    records through each."""
    geo = Geometry.compute(total_pages=64 + capacity * INODE_SIZE // PAGE_SIZE,
                           max_inodes=capacity)
    made = []
    for cls in (InodeTable, PerSlotTable):
        dev = PMDevice(geo.total_pages * PAGE_SIZE, clock=clock())
        table = cls(dev, geo)
        fill(table)
        made.append(table)
    assert made[0].dev.read_silent(0, made[0].dev.size) \
        == made[1].dev.read_silent(0, made[1].dev.size)
    return made


def _same_cost(new, old, where=""):
    assert new.dev.stats.snapshot() == old.dev.stats.snapshot(), where
    assert (new.dev.clock.charged_ns, new.dev.clock.now_ns) \
        == (old.dev.clock.charged_ns, old.dev.clock.now_ns), where
    if isinstance(new.dev.clock, RecordingClock):
        assert new.dev.clock.charges == old.dev.clock.charges, where


def _put(table, ino, valid=1, itype=ITYPE_FILE, recorded_ino=None):
    """One record; ``recorded_ino`` other than ``ino`` is what a torn
    create leaves: the valid flag's line persisted, the ino field not."""
    rec = Inode(ino=ino, valid=valid, itype=itype, links=1, size=ino * 10)
    raw = bytearray(rec.pack())
    raw[0:8] = (ino if recorded_ino is None else recorded_ino) \
        .to_bytes(8, "little")
    table.dev.write(table.addr_of(ino), bytes(raw), persist=True)


def _random_fill(seed, density):
    def fill(table):
        rng = random.Random(seed)
        for ino in range(1, table.capacity + 1):
            if rng.random() >= density:
                continue
            kind = rng.random()
            if kind < 0.70:
                _put(table, ino, itype=rng.choice((ITYPE_FILE, ITYPE_DIR,
                                                   ITYPE_SYMLINK)))
            elif kind < 0.80:       # not 1: neither valid nor free
                _put(table, ino, valid=rng.choice((2, 0xFF)))
            elif kind < 0.88:       # torn: flag without the ino field
                _put(table, ino, recorded_ino=0)
            elif kind < 0.94:       # torn the other way round
                _put(table, ino, valid=0)
            else:                   # a record of no known type
                _put(table, ino, itype=rng.choice((0, 9)))
    return fill


SHAPES = {
    "no slot valid": lambda t: None,
    "first only": lambda t: _put(t, 1),
    "last only": lambda t: _put(t, t.capacity),
    "first and last": lambda t: (_put(t, 1), _put(t, t.capacity)),
    "every slot": lambda t: [_put(t, i) for i in range(1, t.capacity + 1)],
    "every slot 0xFF": lambda t: [_put(t, i, valid=0xFF)
                                  for i in range(1, t.capacity + 1)],
    "every slot torn": lambda t: [_put(t, i, recorded_ino=0)
                                  for i in range(1, t.capacity + 1)],
    "only ino 2 free": lambda t: [_put(t, i, valid=2 if i % 2 else 1)
                                  for i in range(1, t.capacity + 1)
                                  if i != 2],
    "sparse": _random_fill(1, 0.1),
    "half": _random_fill(2, 0.5),
    "dense": _random_fill(3, 0.95),
}


@pytest.mark.parametrize("clock", [RecordingClock, SimClock])
@pytest.mark.parametrize("capacity", [2, 33, 192])
@pytest.mark.parametrize("shape", SHAPES)
def test_scans_match_the_per_slot_form(shape, capacity, clock):
    new, old = _tables(capacity, SHAPES[shape], clock)
    released = [], []
    assert list(new.iter_valid(released[0])) \
        == list(old.iter_valid(released[1]))
    assert released[0] == released[1]
    _same_cost(new, old, "iter_valid")
    assert new.dev.read_silent(0, new.dev.size) \
        == old.dev.read_silent(0, old.dev.size)
    again = [], []
    assert [r.ino for r in new.iter_valid(again[0])] \
        == [r.ino for r in old.iter_valid(again[1])]   # releases seen
    assert again == ([], [])
    new._scan_free()
    old._scan_free()
    assert new._free == old._free and 1 not in new._free
    _same_cost(new, old, "_scan_free")
    # The free cache serves alloc / claim / release as it did.
    for table in (new, old):
        if table._free:
            ino = table.alloc()
            assert ino == min([ino] + table._free)
            table.release(ino)
    assert new._free == old._free


def test_a_table_longer_than_one_scan_run(monkeypatch):
    """``_valid_inos`` bounds each device scan; a run boundary before,
    on and behind a valid slot must change nothing."""
    capacity = 700
    for run in (1, 7, 64, 699, 700, 701):
        monkeypatch.setattr(inode_module, "_SCAN_RUN", run)
        new, old = _tables(capacity, _random_fill(run, 0.05))
        released = [], []
        assert [r.ino for r in new.iter_valid(released[0])] \
            == [r.ino for r in old.iter_valid(released[1])]
        assert released[0] == released[1]
        _same_cost(new, old, run)


@pytest.mark.parametrize("clock", [RecordingClock, SimClock])
def test_a_consumer_that_releases_inodes_between_yields(clock):
    """A slot is read when the walk reaches it, not before: an inode the
    consumer releases ahead of the walk is not yielded, one behind it
    already was — in both forms, at the same cost."""
    capacity = 96
    new, old = _tables(capacity, _random_fill(11, 0.6), clock)
    seen = []
    for table in (new, old):
        rng = random.Random(5)
        inos = []
        for rec in table.iter_valid([]):
            inos.append(rec.ino)
            roll = rng.random()
            if roll < 0.3 and rec.ino < capacity:      # just ahead
                table.release(rec.ino + 1)
            elif roll < 0.5:                           # far ahead
                table.release(rng.randint(rec.ino, capacity))
            elif roll < 0.6:                           # behind: no effect
                table.release(rng.randint(1, rec.ino))
            elif roll < 0.7 and rec.ino < capacity:    # appears ahead
                _put(table, rec.ino + 1)
        seen.append(inos)
    assert seen[0] == seen[1] and len(seen[0]) > 10
    _same_cost(new, old)
    survivors = [r.ino for r in old.iter_valid([])]
    assert set(seen[0]) - set(survivors)    # something released was seen
    assert [r.ino for r in new.iter_valid([])] == survivors


def test_an_abandoned_walk_reads_no_further():
    new, old = _tables(64, SHAPES["every slot"])
    for table in (new, old):
        walk = table.iter_valid([])
        assert [next(walk).ino for _ in range(3)] == [1, 2, 3]
        walk.close()
    _same_cost(new, old)
    assert new.dev.stats.reads == 6         # three flags, three records
