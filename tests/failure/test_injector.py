"""Unit tests for the crash-point injector itself."""

import pytest

from repro.failure.injector import (
    count_persist_events,
    run_with_crash,
    sweep_crash_points,
)
from repro.nova import NovaFS
from repro.nova.layout import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock
from repro.pm import device as device_module


def build():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = NovaFS.mkfs(dev, max_inodes=32)
    dev._fs = fs

    def scenario():
        ino = fs.create("/a")
        fs.write(ino, 0, b"x" * PAGE_SIZE)
        fs.create("/b")

    return dev, scenario


def test_count_persist_events_positive_and_stable():
    n1 = count_persist_events(build)
    n2 = count_persist_events(build)
    assert n1 == n2 > 0


def test_hooks_removed_after_count():
    dev, scenario = build()
    # count_persist_events runs its own build(); on this instance, attach
    # and verify manually that a completed run leaves no hook behind.
    count_persist_events(lambda: (dev, scenario))
    assert dev.hooks.on_persist is None


def test_run_with_crash_trips_at_point():
    out = run_with_crash(build, point=3, phase="pre")
    assert out.crashed
    assert out.point == 3
    assert out.phase == "pre"


def test_point_beyond_scenario_does_not_crash():
    total = count_persist_events(build)
    out = run_with_crash(build, point=total + 100)
    assert not out.crashed


def test_bad_phase_rejected():
    with pytest.raises(ValueError):
        run_with_crash(build, point=1, phase="during")


def test_point_zero_rejected():
    with pytest.raises(ValueError):
        run_with_crash(build, point=0)


def test_pre_phase_discards_the_fenced_lines():
    """A pre-commit crash at event #1 must lose that fence's lines: the
    recovered device is all-volatile-dropped, so a mount sees less state
    than a post-commit crash at the same point."""
    pre = run_with_crash(build, point=1, phase="pre")
    post = run_with_crash(build, point=1, phase="post")
    assert pre.crashed and post.crashed
    # Durable images differ: post persisted one more event than pre.
    assert pre.dev.read_silent(0, pre.dev.size) != post.dev.read_silent(0, post.dev.size)


def test_torn_mode_seeded_deterministically():
    a = run_with_crash(build, point=5, phase="pre", mode="torn", seed=9)
    b = run_with_crash(build, point=5, phase="pre", mode="torn", seed=9)
    assert a.dev.read_silent(0, a.dev.size) == b.dev.read_silent(0, b.dev.size)


def test_sweep_counts_points_and_respects_stride():
    total = count_persist_events(build)
    seen = []

    def check(dev, point, phase):
        seen.append((point, phase))
        NovaFS.mount(dev)

    tested = sweep_crash_points(build, check, phases=("pre",), stride=7)
    assert tested == len(seen) == len(range(1, total + 1, 7))


def test_sweep_max_points_caps():
    seen = []

    def check(dev, point, phase):
        seen.append(point)

    # A known event count is where the sweep stops.
    sweep_crash_points(build, check, phases=("pre",), total=4)
    assert max(seen) <= 4


def test_sweep_wraps_check_failure_with_context():
    def check(dev, point, phase):
        raise RuntimeError("boom")

    with pytest.raises(AssertionError, match=r"event #1 \(pre-commit"):
        sweep_crash_points(build, check, phases=("pre",))


def test_recovery_mount_works_at_every_point():
    """End-to-end: NOVA must mount after a crash at any persist event."""
    def check(dev, point, phase):
        fs = NovaFS.mount(dev)
        assert fs.last_recovery is not None

    tested = sweep_crash_points(build, check, stride=5)
    assert tested > 0


# -- the sweep owns the devices ``build`` returns ----------------------------


def _is_closed(dev) -> bool:
    try:
        dev.read_silent(0, 1)
    except RuntimeError as exc:
        assert str(exc) == "device is closed"
        return True
    return False


def _counting(built: list):
    def counted():
        dev, scenario = build()
        built.append(dev)
        return dev, scenario
    return counted


def test_counting_pass_closes_its_device():
    built = []
    assert count_persist_events(_counting(built)) > 0
    assert len(built) == 1 and _is_closed(built[0])


@pytest.fixture
def forks(monkeypatch):
    """Every fork of a device, in order."""
    made = []
    fork = PMDevice.fork

    def recorded(dev):
        made.append(fork(dev))
        return made[-1]

    monkeypatch.setattr(PMDevice, "fork", recorded)
    return made


def test_sweep_leaves_no_device_it_built_open(forks):
    """The one build and every crashed-and-checked fork all end closed —
    each fork only after ``check`` has had it live; with ``total``
    overstated the run ends uncrashed, past its last fork."""
    built = []
    total = count_persist_events(build)
    device_module._idle.clear()

    def check(dev, point, phase):
        assert dev is forks[-1] and not _is_closed(dev)
        assert not _is_closed(built[0])     # the workload is still live
        NovaFS.mount(dev)

    tested = sweep_crash_points(_counting(built), check, stride=9,
                                total=total + 20)
    assert len(built) == 1
    assert tested == len(forks) == 2 * len(range(1, total + 1, 9))
    assert all(_is_closed(dev) for dev in built + forks)
    # Two mappings served them all: the build's, and each fork's in turn.
    assert [len(m) for m in device_module._idle] == [built[0].size] * 2


def test_failing_check_keeps_its_device_open(forks):
    built = []

    def check(dev, point, phase):
        if point == 3:
            raise RuntimeError("boom")

    with pytest.raises(AssertionError, match=r"event #3 \(pre-commit"):
        sweep_crash_points(_counting(built), check, phases=("pre",))
    # counting pass and the sweep's build closed, so are the forks at
    # points 1 and 2; the failing one is readable.
    assert [_is_closed(dev) for dev in built] == [True, True]
    assert [_is_closed(dev) for dev in forks] == [True, True, False]
    assert any(forks[-1].read_silent(0, 4096))


def _raising(built):
    """A build whose workload raises after two persist events."""
    def counted():
        dev = PMDevice(64 * PAGE_SIZE, model=DRAM, clock=SimClock())
        built.append(dev)

        def scenario():
            dev.write(0, b"one", persist=True)
            dev.write(4096, b"two", persist=True)
            raise ValueError("the workload's own bug")

        return dev, scenario
    return counted


@pytest.mark.parametrize("run", [
    count_persist_events,
    lambda b: sweep_crash_points(b, lambda *args: None, total=3),
    lambda b: run_with_crash(b, point=3),
], ids=["count", "sweep", "run_with_crash"])
def test_a_raising_workload_closes_and_unhooks_its_device(run):
    built = []
    with pytest.raises(ValueError, match="the workload's own bug"):
        run(_raising(built))
    (dev,) = built
    assert _is_closed(dev)
    assert (dev.hooks.on_persist, dev.hooks.on_persist_done) == (None, None)
