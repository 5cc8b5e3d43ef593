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
regenerated that way when an unclean mount came to read FACT once
instead of six times, when it came to read each log once, when a
contiguous run of bytes (a log page's committed slots, a file's physical
run in ``fs.read``) came to be one device request, when a FACT count
update came to reuse the line its operation had just read, and when the
dedup daemon came to read a node's live pages one run per request.  It
was regenerated once more when the superblock gained the FACT's IAA mark
word: every image carries the word, and an insert that raises it adds a
persist and its time (shown by a copy without the word, the raises and
the shorter reads reproducing the old table).
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
    6: [(1, 'pre', 'discard', '3d7bd8c195bfebaf'),
        (35, 'pre', 'discard', '56aad43ee8259986'),
        (69, 'pre', 'discard', '0016ec1249e2be9f'),
        (103, 'pre', 'discard', '812015f6021e2fde'),
        (137, 'pre', 'discard', '384b51bfc4e5b5b5'),
        (171, 'pre', 'discard', 'b22836db9904b0b0'),
        (205, 'pre', 'discard', 'ad773ea14dcc774e'),
        (1, 'post', 'discard', '3d7bd8c195bfebaf'),
        (35, 'post', 'discard', 'f838cb7fdd81b9f9'),
        (69, 'post', 'discard', 'd0290c8b876f4140'),
        (103, 'post', 'discard', '6b6803789f83b43c'),
        (137, 'post', 'discard', 'de39f5a0a3475b05'),
        (171, 'post', 'discard', '3ceb90f19f42c150'),
        (205, 'post', 'discard', 'ad773ea14dcc774e'),
        (1, 'pre', 'torn', '3d7bd8c195bfebaf'),
        (35, 'pre', 'torn', '56aad43ee8259986'),
        (69, 'pre', 'torn', 'd0290c8b876f4140'),
        (103, 'pre', 'torn', '812015f6021e2fde'),
        (137, 'pre', 'torn', '9fabf3db47bd8f11'),
        (171, 'pre', 'torn', '3ceb90f19f42c150'),
        (205, 'pre', 'torn', 'ad773ea14dcc774e'),
        (1, 'post', 'torn', '3d7bd8c195bfebaf'),
        (35, 'post', 'torn', 'f838cb7fdd81b9f9'),
        (69, 'post', 'torn', 'd0290c8b876f4140'),
        (103, 'post', 'torn', '6b6803789f83b43c'),
        (137, 'post', 'torn', 'de39f5a0a3475b05'),
        (171, 'post', 'torn', '3ceb90f19f42c150'),
        (205, 'post', 'torn', 'ad773ea14dcc774e')],
    9: [(1, 'pre', 'discard', '3d7bd8c195bfebaf'),
        (27, 'pre', 'discard', '811fd6416e45a26c'),
        (53, 'pre', 'discard', '85905f06f3f5c21e'),
        (79, 'pre', 'discard', 'ca72b41e3a8471d3'),
        (105, 'pre', 'discard', 'da8162012bf08bcb'),
        (131, 'pre', 'discard', 'a7b99edc779ae680'),
        (157, 'pre', 'discard', '01f1dace848e4ae5'),
        (1, 'post', 'discard', '9420d27fde1cb489'),
        (27, 'post', 'discard', 'db2870effb792888'),
        (53, 'post', 'discard', 'c17ee1740051aeb9'),
        (79, 'post', 'discard', '32730406d2a68db3'),
        (105, 'post', 'discard', 'bc7e9c02a0fdf0ec'),
        (131, 'post', 'discard', '734e121328111333'),
        (157, 'post', 'discard', 'a353fa5b875ad2ea'),
        (1, 'pre', 'torn', '63cb8a9749bcfcee'),
        (27, 'pre', 'torn', '5dd265e5930ef105'),
        (53, 'pre', 'torn', '85905f06f3f5c21e'),
        (79, 'pre', 'torn', 'fff658ca4f7fbd71'),
        (105, 'pre', 'torn', 'da8162012bf08bcb'),
        (131, 'pre', 'torn', '734e121328111333'),
        (157, 'pre', 'torn', '56f64ee5e641e1f4'),
        (1, 'post', 'torn', '9420d27fde1cb489'),
        (27, 'post', 'torn', 'db2870effb792888'),
        (53, 'post', 'torn', 'c17ee1740051aeb9'),
        (79, 'post', 'torn', '32730406d2a68db3'),
        (105, 'post', 'torn', 'bc7e9c02a0fdf0ec'),
        (131, 'post', 'torn', '734e121328111333'),
        (157, 'post', 'torn', 'a353fa5b875ad2ea')],
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
