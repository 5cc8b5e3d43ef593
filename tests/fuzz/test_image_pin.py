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
regenerated once that way, when an unclean mount came to read FACT once
instead of six times.
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
        (103, 'pre', 'discard', '9aced5fd5db5996e'),
        (137, 'pre', 'discard', '6dd5104597b376bf'),
        (171, 'pre', 'discard', '84627a4b915b86f3'),
        (205, 'pre', 'discard', 'f20a11357e6ce67c'),
        (1, 'post', 'discard', '5d99eccc46747197'),
        (35, 'post', 'discard', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'discard', 'f1eabcb1019ab8d5'),
        (103, 'post', 'discard', 'ad5a3220396a5b50'),
        (137, 'post', 'discard', '8fa81682b27205de'),
        (171, 'post', 'discard', 'b71eee7d1b37e4ab'),
        (205, 'post', 'discard', 'f20a11357e6ce67c'),
        (1, 'pre', 'torn', '5d99eccc46747197'),
        (35, 'pre', 'torn', '78c8049b44a03f71'),
        (69, 'pre', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'pre', 'torn', '9aced5fd5db5996e'),
        (137, 'pre', 'torn', 'a00a95c5f3a01b09'),
        (171, 'pre', 'torn', 'b71eee7d1b37e4ab'),
        (205, 'pre', 'torn', 'f20a11357e6ce67c'),
        (1, 'post', 'torn', '5d99eccc46747197'),
        (35, 'post', 'torn', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'post', 'torn', 'ad5a3220396a5b50'),
        (137, 'post', 'torn', '8fa81682b27205de'),
        (171, 'post', 'torn', 'b71eee7d1b37e4ab'),
        (205, 'post', 'torn', 'f20a11357e6ce67c')],
    9: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (27, 'pre', 'discard', '580d97603e5f1bd8'),
        (53, 'pre', 'discard', '833c2938d247ca4f'),
        (79, 'pre', 'discard', '3f217fef4b9f3c1e'),
        (105, 'pre', 'discard', '9c9dc71effeaa5e5'),
        (131, 'pre', 'discard', '7f680d9c594e14fd'),
        (157, 'pre', 'discard', '3925b09ac9f6ce29'),
        (1, 'post', 'discard', '232337258c6a5116'),
        (27, 'post', 'discard', '8edc8005316c9bb3'),
        (53, 'post', 'discard', '141b22a7db4bb0e4'),
        (79, 'post', 'discard', 'c9e21f3c01e085e6'),
        (105, 'post', 'discard', 'cc5c8c5fba162d1e'),
        (131, 'post', 'discard', 'b43cc892eeef193a'),
        (157, 'post', 'discard', 'e01d409df593b3d0'),
        (1, 'pre', 'torn', '86bad7abaab8fade'),
        (27, 'pre', 'torn', '421bf059fe987570'),
        (53, 'pre', 'torn', '833c2938d247ca4f'),
        (79, 'pre', 'torn', '02f985d55c075942'),
        (105, 'pre', 'torn', '9c9dc71effeaa5e5'),
        (131, 'pre', 'torn', 'b43cc892eeef193a'),
        (157, 'pre', 'torn', '43cca318519a61da'),
        (1, 'post', 'torn', '232337258c6a5116'),
        (27, 'post', 'torn', '8edc8005316c9bb3'),
        (53, 'post', 'torn', '141b22a7db4bb0e4'),
        (79, 'post', 'torn', 'c9e21f3c01e085e6'),
        (105, 'post', 'torn', 'cc5c8c5fba162d1e'),
        (131, 'post', 'torn', 'b43cc892eeef193a'),
        (157, 'post', 'torn', 'e01d409df593b3d0')],
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
