"""End-to-end pin on the crash images of a differential fuzz case.

``PMDevice.crash`` decides what a crash leaves on the media; in ``torn``
mode it spends one random draw per volatile line, in the order the lines
first became volatile.  The sweep engine's reproducibility — a violation
names ``(seed, point, phase, mode)`` and replays to the same image —
rests on that order.  The digests below were recorded from the per-line
device this repository had before the PM layer moved to run granularity
(commit 64b7fb6); any change to which lines are volatile at a crash, to
their restore, or to the draw order moves them.
"""

import hashlib

import pytest

from repro.failure import injector
from repro.fuzz.diff import FuzzConfig, run_case
from repro.fuzz.gen import generate_sequence

#: seed -> [(point, phase, mode, sha256(image)[:16]), ...] by mode, phase,
#: point.
PINNED = {
    6: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (35, 'pre', 'discard', '78c8049b44a03f71'),
        (69, 'pre', 'discard', '95a056a1a44b5656'),
        (103, 'pre', 'discard', '94964705c1c3d7de'),
        (137, 'pre', 'discard', '881922cc01c17d26'),
        (171, 'pre', 'discard', '1f9269402966394d'),
        (205, 'pre', 'discard', '66c8e27dcda520a6'),
        (1, 'post', 'discard', '5d99eccc46747197'),
        (35, 'post', 'discard', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'discard', 'f1eabcb1019ab8d5'),
        (103, 'post', 'discard', '0d1405744a8c2464'),
        (137, 'post', 'discard', '3bffc649ad1eb9fe'),
        (171, 'post', 'discard', '56ee8b6aae728d2b'),
        (205, 'post', 'discard', '66c8e27dcda520a6'),
        (1, 'pre', 'torn', '5d99eccc46747197'),
        (35, 'pre', 'torn', '78c8049b44a03f71'),
        (69, 'pre', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'pre', 'torn', '94964705c1c3d7de'),
        (137, 'pre', 'torn', '9a18de91b35c3ecd'),
        (171, 'pre', 'torn', '56ee8b6aae728d2b'),
        (205, 'pre', 'torn', '66c8e27dcda520a6'),
        (1, 'post', 'torn', '5d99eccc46747197'),
        (35, 'post', 'torn', 'ee3235a8d5d5a0c9'),
        (69, 'post', 'torn', 'f1eabcb1019ab8d5'),
        (103, 'post', 'torn', '0d1405744a8c2464'),
        (137, 'post', 'torn', '3bffc649ad1eb9fe'),
        (171, 'post', 'torn', '56ee8b6aae728d2b'),
        (205, 'post', 'torn', '66c8e27dcda520a6')],
    9: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (27, 'pre', 'discard', '038e95a5c54d6197'),
        (53, 'pre', 'discard', '9b258cf2549086ab'),
        (79, 'pre', 'discard', '98979a7af1a09c70'),
        (105, 'pre', 'discard', '917f4280615e6af7'),
        (131, 'pre', 'discard', '47cde9f217cfbe39'),
        (157, 'pre', 'discard', '82c1ead820bca0bf'),
        (1, 'post', 'discard', '232337258c6a5116'),
        (27, 'post', 'discard', '882ba2172bbf6c01'),
        (53, 'post', 'discard', '031652eb06e8ddc1'),
        (79, 'post', 'discard', '133070f94ee41226'),
        (105, 'post', 'discard', 'a9c70f92f956bce7'),
        (131, 'post', 'discard', 'd499a0c2c957e7c8'),
        (157, 'post', 'discard', '20a15a0ea8f838b9'),
        (1, 'pre', 'torn', '86bad7abaab8fade'),
        (27, 'pre', 'torn', '069f237c62183071'),
        (53, 'pre', 'torn', '9b258cf2549086ab'),
        (79, 'pre', 'torn', '0567b3dc9730fa98'),
        (105, 'pre', 'torn', '917f4280615e6af7'),
        (131, 'pre', 'torn', 'd499a0c2c957e7c8'),
        (157, 'pre', 'torn', '632fda7bd5d70d90'),
        (1, 'post', 'torn', '232337258c6a5116'),
        (27, 'post', 'torn', '882ba2172bbf6c01'),
        (53, 'post', 'torn', '031652eb06e8ddc1'),
        (79, 'post', 'torn', '133070f94ee41226'),
        (105, 'post', 'torn', 'a9c70f92f956bce7'),
        (131, 'post', 'torn', 'd499a0c2c957e7c8'),
        (157, 'post', 'torn', '20a15a0ea8f838b9')],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sweep_lands_on_the_pinned_images(seed, monkeypatch):
    """Every crashed fork, shared recoveries included, in the order the
    pins were recorded in: mode, then phase, then point."""
    visited = []
    crash_fork = injector._crash_fork

    def logged(dev, point, phase, mode, seed):
        out = crash_fork(dev, point, phase, mode, seed)
        image = out.dev.read_silent(0, out.dev.size)
        visited.append((point, phase, mode,
                        hashlib.sha256(image).hexdigest()[:16]))
        return out

    monkeypatch.setattr(injector, "_crash_fork", logged)
    cfg = FuzzConfig(seed=seed, budget=24, pages=1024, inodes=64)
    result = run_case(generate_sequence(seed=seed, stream=0, nops=30), cfg)
    assert result.ok, result.violations
    visited.sort(key=lambda v: (cfg.modes.index(v[2]),
                                cfg.phases.index(v[1]), v[0]))
    assert visited == PINNED[seed]
    assert result.crash_points == len(visited)
    # Both modes, both phases, and torn differs from discard somewhere.
    by_mode = {mode: [v[3] for v in visited if v[2] == mode]
               for mode in ("discard", "torn")}
    assert by_mode["discard"] and by_mode["discard"] != by_mode["torn"]
