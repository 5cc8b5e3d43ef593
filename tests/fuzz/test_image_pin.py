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
regenerated that way twice: when an unclean mount came to read FACT once
instead of six times, and when it came to read each log once.
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
        (35, 'pre', 'discard', '78c8049b44a03f71'),
        (69, 'pre', 'discard', '95a056a1a44b5656'),
        (103, 'pre', 'discard', 'd831c6b929e7a4d7'),
        (137, 'pre', 'discard', 'd465325e2c5e52be'),
        (171, 'pre', 'discard', '67c59fc472b5f6a3'),
        (205, 'pre', 'discard', 'e2d12834a5d97c04'),
        (1, 'post', 'discard', '5d99eccc46747197'),
        (35, 'post', 'discard', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'discard', 'f1eabcb1019ab8d5'),
        (103, 'post', 'discard', '8bc6737ca570748a'),
        (137, 'post', 'discard', '9e20e0aa9dbf6222'),
        (171, 'post', 'discard', 'd75191d8eea0381b'),
        (205, 'post', 'discard', 'e2d12834a5d97c04'),
        (1, 'pre', 'torn', '5d99eccc46747197'),
        (35, 'pre', 'torn', '78c8049b44a03f71'),
        (69, 'pre', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'pre', 'torn', 'd831c6b929e7a4d7'),
        (137, 'pre', 'torn', '6a4462d7dd50e5ee'),
        (171, 'pre', 'torn', 'd75191d8eea0381b'),
        (205, 'pre', 'torn', 'e2d12834a5d97c04'),
        (1, 'post', 'torn', '5d99eccc46747197'),
        (35, 'post', 'torn', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'post', 'torn', '8bc6737ca570748a'),
        (137, 'post', 'torn', '9e20e0aa9dbf6222'),
        (171, 'post', 'torn', 'd75191d8eea0381b'),
        (205, 'post', 'torn', 'e2d12834a5d97c04')],
    9: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (27, 'pre', 'discard', '7578e78616dc0158'),
        (53, 'pre', 'discard', '6006aac0b7492bda'),
        (79, 'pre', 'discard', '45991b2b57dcba2e'),
        (105, 'pre', 'discard', '1db1a7b3d8c2458a'),
        (131, 'pre', 'discard', '1ed8c2d350f04a70'),
        (157, 'pre', 'discard', 'f7b792be682e7539'),
        (1, 'post', 'discard', '232337258c6a5116'),
        (27, 'post', 'discard', '0aaad2c002d34629'),
        (53, 'post', 'discard', '92f5eda463b1e2f9'),
        (79, 'post', 'discard', 'fa4bd2cfe0e94710'),
        (105, 'post', 'discard', 'a625167280f88c28'),
        (131, 'post', 'discard', '01e92f8c2a24897d'),
        (157, 'post', 'discard', 'fcd1fb96f4fd7a7e'),
        (1, 'pre', 'torn', '86bad7abaab8fade'),
        (27, 'pre', 'torn', '673aeea1bdc99424'),
        (53, 'pre', 'torn', '6006aac0b7492bda'),
        (79, 'pre', 'torn', '5ef39772e917ab54'),
        (105, 'pre', 'torn', '1db1a7b3d8c2458a'),
        (131, 'pre', 'torn', '01e92f8c2a24897d'),
        (157, 'pre', 'torn', 'f5ed5e4e8ae34c4b'),
        (1, 'post', 'torn', '232337258c6a5116'),
        (27, 'post', 'torn', '0aaad2c002d34629'),
        (53, 'post', 'torn', '92f5eda463b1e2f9'),
        (79, 'post', 'torn', 'fa4bd2cfe0e94710'),
        (105, 'post', 'torn', 'a625167280f88c28'),
        (131, 'post', 'torn', '01e92f8c2a24897d'),
        (157, 'post', 'torn', 'fcd1fb96f4fd7a7e')],
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
