"""Property-based (stateful) testing of FACT against a dict oracle.

The machine performs random insert / stage / commit / discard / dec /
remove / reorder / crash-and-recover sequences and checks after every
step that FACT's decoded contents equal a trivial Python-dict model, and
that the structural invariants (chains, delete pointers) hold.
"""

import hashlib

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dedup.fact import FACT, FactFull
from repro.dedup.reorder import reorder_chain
from repro.nova.layout import Geometry, PAGE_SIZE, Superblock
from repro.pm import DRAM, PMDevice, SimClock

N_BITS = 5  # tiny prefix space -> dense collisions
TOTAL_PAGES = 32


def fp_for(key: int) -> bytes:
    return hashlib.sha1(key.to_bytes(8, "little")).digest()


class FactMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        dev = PMDevice(TOTAL_PAGES * PAGE_SIZE, model=DRAM,
                       clock=SimClock())
        geo = Geometry.compute(TOTAL_PAGES, max_inodes=4, with_dedup=True,
                               fact_prefix_bits=N_BITS)
        self.fact = FACT(Superblock.format(dev, geo))
        self.dev = dev
        # Oracle: key -> [idx, rfc, uc, block]; blocks are unique per key.
        self.model: dict[int, list] = {}
        self.next_block = 1

    # -- operations -----------------------------------------------------------

    @rule(key=st.integers(0, 24))
    def insert(self, key):
        if key in self.model:
            return
        block = self.next_block
        if block >= TOTAL_PAGES:
            return
        try:
            idx = self.fact.insert(fp_for(key), block)
        except FactFull:
            return
        self.next_block += 1
        self.model[key] = [idx, 0, 1, block]

    @rule(key=st.integers(0, 24))
    def stage_uc(self, key):
        ent = self.model.get(key)
        if ent is None:
            return
        self.fact.inc_uc(ent[0], self.fact.read_counts(ent[0]))
        ent[2] += 1

    @rule(key=st.integers(0, 24))
    def commit_uc(self, key):
        ent = self.model.get(key)
        if ent is None:
            return
        committed = self.fact.commit_uc(ent[0], self.fact.read_counts(ent[0]))
        assert committed == (ent[2] > 0)
        if committed:
            ent[2] -= 1
            ent[1] += 1

    @rule(key=st.integers(0, 24))
    def discard_uc(self, key):
        ent = self.model.get(key)
        if ent is None:
            return
        self.fact.discard_all_uc()      # every entry's staged UC
        for staged in self.model.values():
            staged[2] = 0

    @rule(key=st.integers(0, 24))
    def dec_and_maybe_remove(self, key):
        ent = self.model.get(key)
        if ent is None or ent[1] == 0:
            return
        new_rfc = self.fact.dec_rfc(ent[0], self.fact.read_counts(ent[0]))
        ent[1] -= 1
        assert new_rfc == ent[1]
        if new_rfc == 0 and ent[2] == 0:
            self.fact.remove(ent[0])
            del self.model[key]

    @rule(prefix=st.integers(0, 2 ** N_BITS - 1))
    def reorder(self, prefix):
        reorder_chain(self.fact, prefix)
        # Indexes never move; the oracle is unaffected.

    @rule()
    def crash_recover(self):
        """Everything is persisted synchronously, so a crash + structural
        recovery must be a no-op for the logical contents."""
        self.dev.crash()
        self.dev.recover_view()
        self.fact.structural_recover()

    # -- correspondence -----------------------------------------------------------

    @rule(key=st.integers(0, 24))
    def lookup_matches_model(self, key):
        res = self.fact.lookup(fp_for(key))
        ent = self.model.get(key)
        if ent is None:
            assert res.found is None
        else:
            assert res.found is not None
            assert res.found.idx == ent[0]
            assert res.found.refcount == ent[1]
            assert res.found.update_count == ent[2]
            assert res.found.block == ent[3]

    @rule(key=st.integers(0, 24))
    def delete_pointer_matches_model(self, key):
        ent = self.model.get(key)
        if ent is None:
            return
        found = self.fact.entry_for_block(ent[3])
        assert found is not None and found.idx == ent[0]

    @invariant()
    def chains_are_sound(self):
        if getattr(self, "fact", None) is not None:
            self.fact.check_chains()

    @invariant()
    def live_set_matches_model(self):
        if getattr(self, "fact", None) is None:
            return
        live = self.fact.live_entries()
        assert {e[0] for e in self.model.values()} == set(live)


TestFactMachine = FactMachine.TestCase
TestFactMachine.settings = settings(
    max_examples=30,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
