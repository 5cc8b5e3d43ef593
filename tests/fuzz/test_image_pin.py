"""End-to-end pin on the crash images of a differential fuzz case.

``PMDevice.crash`` decides what a crash leaves on the media; in ``torn``
mode it spends one random draw per volatile line, in the order the lines
first became volatile.  The sweep engine's reproducibility — a violation
names ``(seed, point, phase, mode)`` and replays to the same image —
rests on that order.  The digests were first recorded from the per-line
device this repository had before the PM layer moved to run granularity
(commit 64b7fb6); any change to which lines are volatile at a crash, to
their restore, or to the draw order moves them.

A change that moves only the simulated clock moves them too: a log entry
records ``clock.now_ns`` as its mtime, so a recovery that charges less
time changes what every later operation stamps.  Such a move is shown
clock-only first (a copy of the change that charges the removed time back
must reproduce the old table bit for bit), then the table is printed anew
by ``PYTHONPATH=src python tests/fuzz/regen_image_pins.py``.  It was
regenerated that way three times: when an unclean mount came to read
FACT once instead of six times, when it came to read each log once, and
when a contiguous run of bytes (a log page's committed slots, a file's
physical run in ``fs.read``) came to be one device request.
"""

import hashlib

import pytest

from repro.failure import injector
from repro.fuzz.diff import FuzzConfig, run_case
from repro.fuzz.gen import generate_sequence
from tests._seams import overriding

#: seed -> [(point, phase, mode, sha256(image)[:16]), ...] by mode, phase,
#: point.
PINNED = {
    6: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (35, 'pre', 'discard', '22eada108eb891c7'),
        (69, 'pre', 'discard', '53219ff202b1a2a1'),
        (103, 'pre', 'discard', 'df4826e2bedee519'),
        (137, 'pre', 'discard', '709f2b701543f3da'),
        (171, 'pre', 'discard', '7c89d9037b8a9c4b'),
        (205, 'pre', 'discard', '18a47349582e10d5'),
        (1, 'post', 'discard', '5d99eccc46747197'),
        (35, 'post', 'discard', '91ce67d3d8cdfcbc'),
        (69, 'post', 'discard', '788455add407076d'),
        (103, 'post', 'discard', '4b67feed10bb707b'),
        (137, 'post', 'discard', '62ee30375140e933'),
        (171, 'post', 'discard', 'a7417cbc8b40940f'),
        (205, 'post', 'discard', '18a47349582e10d5'),
        (1, 'pre', 'torn', '5d99eccc46747197'),
        (35, 'pre', 'torn', '22eada108eb891c7'),
        (69, 'pre', 'torn', '788455add407076d'),
        (103, 'pre', 'torn', 'df4826e2bedee519'),
        (137, 'pre', 'torn', 'b31532501920c6ea'),
        (171, 'pre', 'torn', 'a7417cbc8b40940f'),
        (205, 'pre', 'torn', '18a47349582e10d5'),
        (1, 'post', 'torn', '5d99eccc46747197'),
        (35, 'post', 'torn', '91ce67d3d8cdfcbc'),
        (69, 'post', 'torn', '788455add407076d'),
        (103, 'post', 'torn', '4b67feed10bb707b'),
        (137, 'post', 'torn', '62ee30375140e933'),
        (171, 'post', 'torn', 'a7417cbc8b40940f'),
        (205, 'post', 'torn', '18a47349582e10d5')],
    9: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (27, 'pre', 'discard', '7578e78616dc0158'),
        (53, 'pre', 'discard', '6006aac0b7492bda'),
        (79, 'pre', 'discard', '6dca969e58780cc6'),
        (105, 'pre', 'discard', '34cbccf405d1608f'),
        (131, 'pre', 'discard', 'ee2505a0d2cd3342'),
        (157, 'pre', 'discard', '62e040b3dd96d112'),
        (1, 'post', 'discard', '232337258c6a5116'),
        (27, 'post', 'discard', '0aaad2c002d34629'),
        (53, 'post', 'discard', '30d29f945a849399'),
        (79, 'post', 'discard', '5125e0041f0072f7'),
        (105, 'post', 'discard', '1a0687c09fe51d54'),
        (131, 'post', 'discard', '77b19f709e99f96e'),
        (157, 'post', 'discard', '60c43370d3477a90'),
        (1, 'pre', 'torn', '86bad7abaab8fade'),
        (27, 'pre', 'torn', '673aeea1bdc99424'),
        (53, 'pre', 'torn', '6006aac0b7492bda'),
        (79, 'pre', 'torn', 'c027761e21798c41'),
        (105, 'pre', 'torn', '34cbccf405d1608f'),
        (131, 'pre', 'torn', '77b19f709e99f96e'),
        (157, 'pre', 'torn', 'bd54f1e3fd4d321c'),
        (1, 'post', 'torn', '232337258c6a5116'),
        (27, 'post', 'torn', '0aaad2c002d34629'),
        (53, 'post', 'torn', '30d29f945a849399'),
        (79, 'post', 'torn', '5125e0041f0072f7'),
        (105, 'post', 'torn', '1a0687c09fe51d54'),
        (131, 'post', 'torn', '77b19f709e99f96e'),
        (157, 'post', 'torn', '60c43370d3477a90')],
}


def crash_images(seed: int):
    """Sweep seed's case; returns its result and every crashed fork,
    shared recoveries included, as ``(point, phase, mode,
    sha256(image)[:16])`` in the order the pins are kept in: mode, then
    phase, then point."""
    visited = []
    crash_fork = injector._crash_fork

    def logged(dev, point, phase, mode, seed):
        out = crash_fork(dev, point, phase, mode, seed)
        image = out.dev.read_silent(0, out.dev.size)
        visited.append((point, phase, mode,
                        hashlib.sha256(image).hexdigest()[:16]))
        return out

    injector._crash_fork = logged
    try:
        cfg = overriding(FuzzConfig, inodes=64)(seed=seed, budget=24,
                                                pages=1024)
        result = run_case(generate_sequence(seed=seed, stream=0, nops=30),
                          cfg)
    finally:
        injector._crash_fork = crash_fork
    visited.sort(key=lambda v: (cfg.modes.index(v[2]),
                                cfg.phases.index(v[1]), v[0]))
    return result, visited


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sweep_lands_on_the_pinned_images(seed):
    result, visited = crash_images(seed)
    assert result.ok, result.violations
    assert visited == PINNED[seed]
    assert result.crash_points == len(visited)
    # Both modes, both phases, and torn differs from discard somewhere.
    by_mode = {mode: [v[3] for v in visited if v[2] == mode]
               for mode in ("discard", "torn")}
    assert by_mode["discard"] and by_mode["discard"] != by_mode["torn"]
