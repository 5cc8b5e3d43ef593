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
dedup daemon came to read a node's live pages one run per request.
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
        (35, 'pre', 'discard', '317ebcbd6df0bc99'),
        (69, 'pre', 'discard', '107dbc38acd708c9'),
        (103, 'pre', 'discard', '99833ac2801cede3'),
        (137, 'pre', 'discard', '29272f9714df0b0a'),
        (171, 'pre', 'discard', '0783964ab9ade0ce'),
        (205, 'pre', 'discard', 'c8048d8bee37c931'),
        (1, 'post', 'discard', '5d99eccc46747197'),
        (35, 'post', 'discard', '814d51fbc56d52d8'),
        (69, 'post', 'discard', '09e05ecb30d3b0ff'),
        (103, 'post', 'discard', 'e292412fb26b116c'),
        (137, 'post', 'discard', '407d8f42a4e767c4'),
        (171, 'post', 'discard', 'b80828e7282ba3f0'),
        (205, 'post', 'discard', 'c8048d8bee37c931'),
        (1, 'pre', 'torn', '5d99eccc46747197'),
        (35, 'pre', 'torn', '317ebcbd6df0bc99'),
        (69, 'pre', 'torn', '09e05ecb30d3b0ff'),
        (103, 'pre', 'torn', '99833ac2801cede3'),
        (137, 'pre', 'torn', 'b618030f82ddcfea'),
        (171, 'pre', 'torn', 'b80828e7282ba3f0'),
        (205, 'pre', 'torn', 'c8048d8bee37c931'),
        (1, 'post', 'torn', '5d99eccc46747197'),
        (35, 'post', 'torn', '814d51fbc56d52d8'),
        (69, 'post', 'torn', '09e05ecb30d3b0ff'),
        (103, 'post', 'torn', 'e292412fb26b116c'),
        (137, 'post', 'torn', '407d8f42a4e767c4'),
        (171, 'post', 'torn', 'b80828e7282ba3f0'),
        (205, 'post', 'torn', 'c8048d8bee37c931')],
    9: [(1, 'pre', 'discard', '5d99eccc46747197'),
        (27, 'pre', 'discard', 'daa451ffea816784'),
        (53, 'pre', 'discard', '21f8ab2eb9e07eb7'),
        (79, 'pre', 'discard', 'f49def15777c0794'),
        (105, 'pre', 'discard', '1005f2b760210a28'),
        (131, 'pre', 'discard', 'ba585da60247efc8'),
        (157, 'pre', 'discard', 'ccfe92be0ac30c22'),
        (1, 'post', 'discard', '2bba57c1461e193d'),
        (27, 'post', 'discard', 'e6ebb2f666582e2d'),
        (53, 'post', 'discard', '9fc697dc9511deea'),
        (79, 'post', 'discard', '33151f3161f9f050'),
        (105, 'post', 'discard', 'dc1856a750d6eb42'),
        (131, 'post', 'discard', '5308f29ffff41df4'),
        (157, 'post', 'discard', 'ec1af91cf1cc1a27'),
        (1, 'pre', 'torn', '14bd44db41cd0a20'),
        (27, 'pre', 'torn', 'cd642e34c19e2e22'),
        (53, 'pre', 'torn', '21f8ab2eb9e07eb7'),
        (79, 'pre', 'torn', '498ef25c171735af'),
        (105, 'pre', 'torn', '1005f2b760210a28'),
        (131, 'pre', 'torn', '5308f29ffff41df4'),
        (157, 'pre', 'torn', '8610986879ecd952'),
        (1, 'post', 'torn', '2bba57c1461e193d'),
        (27, 'post', 'torn', 'e6ebb2f666582e2d'),
        (53, 'post', 'torn', '9fc697dc9511deea'),
        (79, 'post', 'torn', '33151f3161f9f050'),
        (105, 'post', 'torn', 'dc1856a750d6eb42'),
        (131, 'post', 'torn', '5308f29ffff41df4'),
        (157, 'post', 'torn', 'ec1af91cf1cc1a27')],
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
