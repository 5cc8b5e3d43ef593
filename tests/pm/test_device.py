"""Unit tests for the PM device: data path, persistence, crash semantics."""

import numpy as np
import pytest

from repro.pm import CACHELINE, DRAM, PMDevice, SimClock

from .reference_device import volatile_lines


def make_dev(size=4096 * 4, **kw):
    return PMDevice(size, model=DRAM, clock=SimClock(), **kw)


class TestDataPath:
    def test_write_then_read_roundtrip(self):
        dev = make_dev()
        dev.write(128, b"hello pm world")
        assert dev.read(128, 14) == b"hello pm world"

    def test_read_of_untouched_memory_is_zero(self):
        dev = make_dev()
        assert dev.read(0, 32) == bytes(32)

    def test_out_of_bounds_rejected(self):
        dev = make_dev(size=256)
        with pytest.raises(ValueError):
            dev.read(250, 10)
        with pytest.raises(ValueError):
            dev.write(256, b"x")
        with pytest.raises(ValueError):
            dev.read(-1, 4)

    @pytest.mark.parametrize("call", [
        lambda d: d.write(-8, b""),
        lambda d: d.write(d.size + 64, b""),
        lambda d: d.write(d.size + 1, b"", persist=True),
        lambda d: d.zero_range(-64, 0),
        lambda d: d.zero_range(d.size + 8, 0, persist=True),
        lambda d: d.read(-8, 0),
        lambda d: d.read(d.size + 64, 0),
    ], ids=range(7))
    def test_zero_length_access_outside_the_device_rejected(self, call):
        """Empty or not, an access must lie on the device; refused, it
        charges and counts nothing."""
        dev = make_dev()
        dev.write(64, b"volatile")
        stats, now = dev.stats.snapshot(), dev.clock.now_fs
        with pytest.raises(ValueError, match="out of device bounds"):
            call(dev)
        assert (dev.stats.snapshot(), dev.clock.now_fs) == (stats, now)
        assert volatile_lines(dev) == 1
        # At the device's end, an empty access is still in bounds.
        dev.write(dev.size, b"")
        assert dev.read(dev.size, 0) == b""

    def test_size_must_be_line_multiple(self):
        with pytest.raises(ValueError):
            PMDevice(100)

    def test_typed_helpers_roundtrip(self):
        dev = make_dev()
        dev.write_u32(64, 0xDEADBEEF)
        assert dev.read(64, 4) == (0xDEADBEEF).to_bytes(4, "little")
        dev.write_atomic64(72, 2**63 + 5)
        assert dev.read_u64(72) == 2**63 + 5

    def test_atomic64_requires_alignment(self):
        dev = make_dev()
        with pytest.raises(ValueError):
            dev.write_atomic64(3, 1)

    def test_zero_range(self):
        dev = make_dev()
        dev.write(0, b"\xff" * 256)
        dev.zero_range(64, 128)
        assert dev.read(0, 64) == b"\xff" * 64
        assert dev.read(64, 128) == bytes(128)
        assert dev.read(192, 64) == b"\xff" * 64

    def test_costs_charged_to_clock(self):
        dev = make_dev()
        t0 = dev.clock.now_ns
        dev.write(0, b"x" * 4096)
        t1 = dev.clock.now_ns
        assert t1 > t0
        dev.read(0, 4096)
        assert dev.clock.now_ns > t1

    def test_read_silent_charges_nothing(self):
        dev = make_dev()
        dev.write(0, b"abc")
        t = dev.clock.now_ns
        assert dev.read_silent(0, 3) == b"abc"
        assert dev.clock.now_ns == t

    def test_stats_counters(self):
        dev = make_dev()
        dev.write(0, b"abcd")
        dev.write(64, b"ef", nt=True)
        dev.read(0, 4)
        assert dev.stats.writes == 2
        assert dev.stats.nt_writes == 1
        assert dev.stats.bytes_written == 6
        assert dev.stats.reads == 1
        assert dev.stats.bytes_read == 4


class TestPersistence:
    def test_unflushed_write_lost_on_crash(self):
        dev = make_dev()
        dev.write(0, b"volatile!")
        dev.crash()
        dev.recover_view()
        assert dev.read(0, 9) == bytes(9)

    def test_flushed_and_fenced_write_survives(self):
        dev = make_dev()
        dev.write(0, b"durable")
        dev.persist(0, 7)
        dev.crash()
        dev.recover_view()
        assert dev.read(0, 7) == b"durable"

    def test_clwb_without_fence_not_durable(self):
        dev = make_dev()
        dev.write(0, b"pending")
        dev.clwb(0, 7)
        dev.crash()
        dev.recover_view()
        assert dev.read(0, 7) == bytes(7)

    def test_nt_write_durable_after_fence_only(self):
        dev = make_dev()
        dev.write(0, b"streamed", nt=True)
        dev2 = make_dev()
        dev2.write(0, b"streamed", nt=True)
        dev2.sfence()
        dev.crash()
        dev.recover_view()
        dev2.crash()
        dev2.recover_view()
        assert dev.read(0, 8) == bytes(8)
        assert dev2.read(0, 8) == b"streamed"

    def test_store_after_clwb_invalidates_writeback(self):
        dev = make_dev()
        dev.write(0, b"old")
        dev.clwb(0, 3)
        dev.write(0, b"new")  # same line: clwb no longer covers it
        dev.sfence()
        dev.crash()
        dev.recover_view()
        assert dev.read(0, 3) == bytes(3)

    def test_partial_line_crash_preserves_other_durable_data(self):
        dev = make_dev()
        dev.write(0, b"AAAA")
        dev.persist(0, 4)
        dev.write(8, b"BBBB")  # same cache line, never persisted
        dev.crash()
        dev.recover_view()
        assert dev.read(0, 4) == b"AAAA"
        assert dev.read(8, 4) == bytes(4)

    def test_volatile_lines_tracks_shadow(self):
        dev = make_dev()
        assert volatile_lines(dev) == 0
        dev.write(0, b"x" * 200)  # spans 4 lines
        assert volatile_lines(dev) == 4
        dev.persist(0, 200)
        assert volatile_lines(dev) == 0

    def test_fence_with_nothing_pending_is_cheap_noop(self):
        dev = make_dev()
        dev.sfence()
        assert dev.stats.lines_persisted == 0

    def test_crash_unknown_mode_rejected(self):
        dev = make_dev()
        with pytest.raises(ValueError):
            dev.crash(mode="lol")

    def test_access_after_crash_requires_recover(self):
        dev = make_dev()
        dev.crash()
        with pytest.raises(RuntimeError):
            dev.read(0, 1)
        dev.recover_view()
        dev.read(0, 1)

    def test_recover_without_crash_rejected(self):
        dev = make_dev()
        with pytest.raises(RuntimeError):
            dev.recover_view()


class TestTornCrash:
    def test_torn_crash_never_tears_an_aligned_word(self):
        """Each aligned 8-byte word is entirely old or entirely new."""
        dev = make_dev()
        old = bytes(range(64))
        dev.write(0, old)
        dev.persist(0, 64)
        new = bytes(255 - b for b in range(64))
        dev.write(0, new)
        dev.crash(mode="torn", rng=np.random.default_rng(7))
        dev.recover_view()
        got = dev.read(0, 64)
        for w in range(8):
            word = got[w * 8:(w + 1) * 8]
            assert word in (old[w * 8:(w + 1) * 8], new[w * 8:(w + 1) * 8])

    def test_torn_crash_is_seed_deterministic(self):
        def run(seed):
            dev = make_dev()
            dev.write(0, bytes(range(64)))
            dev.persist(0, 64)
            dev.write(0, b"\xaa" * 64)
            dev.crash(mode="torn", rng=np.random.default_rng(seed))
            dev.recover_view()
            return dev.read(0, 64)

        assert run(3) == run(3)

    def test_atomic64_store_never_torn(self):
        """An aligned 8-byte store is all-or-nothing even in torn mode."""
        for seed in range(20):
            dev = make_dev()
            dev.write_atomic64(0, 0x1111111111111111)
            dev.persist(0, 8)
            dev.write_atomic64(0, 0x2222222222222222)
            dev.crash(mode="torn", rng=np.random.default_rng(seed))
            dev.recover_view()
            assert dev.read_u64(0) in (0x1111111111111111,
                                       0x2222222222222222)


class TestHooksAndWear:
    def test_persist_hook_sees_event_count(self):
        dev = make_dev()
        events = []
        dev.hooks.on_persist = lambda n, d: events.append(n)
        dev.write(0, b"a")
        dev.persist(0, 1)
        dev.write(64, b"b")
        dev.persist(64, 1)
        assert len(events) == 2

    def test_wear_counts_persisted_lines(self):
        dev = make_dev(track_wear=True)
        dev.write(0, b"x")
        dev.persist(0, 1)
        dev.write(0, b"y")
        dev.persist(0, 1)
        dev.write(CACHELINE, b"z")
        dev.persist(CACHELINE, 1)
        assert dev.wear_max() == 2
        assert dev.wear_total() == 3

    def test_wear_disabled_raises(self):
        dev = make_dev()
        with pytest.raises(RuntimeError):
            dev.wear_max()


class TestClose:
    """``close()`` ends a device; afterwards every public method is the
    same typed error — not a ``TypeError`` on a dropped view, not the
    crashed device's "call recover_view() first"."""

    CALLS = {
        "read": lambda d: d.read(0, 8),
        "read_silent": lambda d: d.read_silent(0, 8),
        "read_view": lambda d: d.read_view(0, 8),
        "read_u64": lambda d: d.read_u64(0),
        "write": lambda d: d.write(0, b"x"),
        "write empty": lambda d: d.write(0, b""),
        "write durable": lambda d: d.write(0, b"x" * 200, persist=True),
        "write empty durable": lambda d: d.write(0, b"", persist=True),
        "write_atomic64": lambda d: d.write_atomic64(0, 1, persist=True),
        "write_u32": lambda d: d.write_u32(0, 1),
        "zero_range": lambda d: d.zero_range(0, 4096, persist=True),
        "clwb": lambda d: d.clwb(0, 64),
        "sfence": lambda d: d.sfence(),
        "persist": lambda d: d.persist(0, 64),
        "crash": lambda d: d.crash(),
        "crash torn": lambda d: d.crash("torn"),
        "recover_view": lambda d: d.recover_view(),
        "fork": lambda d: d.fork(),
        "media_key": lambda d: d.media_key(),
        "wear_max": lambda d: d.wear_max(),
        "wear_total": lambda d: d.wear_total(),
    }

    @pytest.mark.parametrize("state", ["live", "volatile", "crashed"])
    def test_every_method_of_a_closed_device_is_one_typed_error(
            self, state, tmp_path):
        dev = make_dev(track_wear=True)
        dev.write(0, b"durable", persist=True)
        if state != "live":
            dev.write(4096, b"volatile" * 100)
        if state == "crashed":
            dev.crash()
        dev.close()
        calls = dict(self.CALLS,
                     save_image=lambda d: d.save_image(tmp_path / "x.img"))
        for name, call in calls.items():
            with pytest.raises(RuntimeError) as err:
                call(dev)
            assert str(err.value) == "device is closed", name
        assert not (tmp_path / "x.img").exists()
        dev.close()                     # twice: a no-op
        assert (dev.size, dev.model) == (4096 * 4, DRAM)    # still told

    def test_the_list_covers_every_public_method(self):
        public = {name for name, member in vars(PMDevice).items()
                  if not name.startswith("_")
                  and (callable(member) or isinstance(member, property))}
        covered = {name.split()[0] for name in self.CALLS} | {"save_image"}
        assert public - covered - {"load_image"} == {"close"}

    def test_a_crashed_device_still_says_so(self):
        dev = make_dev()
        dev.crash()
        for call in (lambda: dev.read(0, 1), lambda: dev.write(0, b"x"),
                     lambda: dev.write(0, b""), dev.sfence,
                     lambda: dev.clwb(0, 64)):
            with pytest.raises(RuntimeError, match="has crashed; call "
                                                   "recover_view"):
                call()
        assert dev.read_silent(0, 1) == b"\0" and volatile_lines(dev) == 0
