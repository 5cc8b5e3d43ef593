"""End-to-end pin on the crash images of a differential fuzz case.

``PMDevice.crash`` decides what a crash leaves on the media; in ``torn``
mode it spends one random draw per volatile line, in the order the lines
first became volatile.  The sweep engine's reproducibility — a violation
names ``(seed, point, phase, mode)`` and replays to the same image —
rests on that order.  The full digests were first recorded from the
per-line device this repository had before the PM layer moved to run
granularity (commit 64b7fb6); any change to which lines are volatile at
a crash, to their restore, or to the draw order moves them.

No byte of an image depends on simulated time: an mtime is a logical
stamp (``NovaFS.stamp``), so a change that moves only the clock moves
no digest here.  Beside the full digest each image keeps a short digest
per region, through :mod:`repro.failure.image` — ``PYTHONPATH=src python
tests/fuzz/regen_image_pins.py`` rewrites ``image_pins.json`` and prints
which images moved, and in which regions.
"""

import json
import pathlib

import pytest

from repro.failure import injector
from repro.failure.image import decode
from repro.fuzz.diff import FuzzConfig, run_case
from repro.fuzz.gen import generate_sequence
from tests._seams import overriding

PIN_FILE = pathlib.Path(__file__).with_name("image_pins.json")

#: seed -> [[point, phase, mode, digest, {region: digest}], ...] by mode,
#: phase, point; digests are sha256 prefixes.
PINNED = {int(seed): rows
          for seed, rows in json.loads(PIN_FILE.read_text()).items()}


def pin_row(point: int, phase: str, mode: str, dev) -> list:
    """One crashed image's row of the table."""
    img = decode(dev)
    return [point, phase, mode, img.region_digest()[:16],
            {name: img.region_digest(name)[:8]
             for name in sorted(set(img.pages))}]


def crash_images(seed: int, row=pin_row):
    """Sweep seed's case; returns its result and the ``row`` of every
    crashed fork, shared recoveries included, in the order the pins are
    kept in: mode, then phase, then point."""
    visited = []
    crash_fork = injector._crash_fork

    def logged(dev, point, phase, mode, seed):
        out = crash_fork(dev, point, phase, mode, seed)
        visited.append(row(point, phase, mode, out.dev))
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


def pin_diff(seed: int, old: list, new: list) -> list[str]:
    """One line per image that moved, naming the regions that moved."""
    lines = [] if len(old) == len(new) else [
        f"seed {seed}: {len(old)} images pinned, {len(new)} crashed"]
    old_at = {tuple(row[:3]): row for row in old}
    new_at = {tuple(row[:3]): row for row in new}
    for key in sorted(old_at.keys() | new_at.keys(), key=str):
        a, b = old_at.get(key), new_at.get(key)
        if a is None or b is None:
            lines.append(f"seed {seed} {key}: "
                         f"{'new image' if a is None else 'image gone'}")
            continue
        regions = [name for name in sorted(a[4].keys() | b[4].keys())
                   if a[4].get(name) != b[4].get(name)]
        if a[3] != b[3] or regions:
            lines.append(f"seed {seed} {key}: moved in "
                         f"{', '.join(regions) or 'no region'}")
    return lines


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sweep_lands_on_the_pinned_images(seed):
    result, visited = crash_images(seed)
    assert result.ok, result.violations
    assert visited == PINNED[seed], \
        "\n".join(pin_diff(seed, PINNED[seed], visited))
    assert result.crash_points == len(visited)
    # Both modes, both phases, and torn differs from discard somewhere.
    by_mode = {mode: [v[3] for v in visited if v[2] == mode]
               for mode in ("discard", "torn")}
    assert by_mode["discard"] and by_mode["discard"] != by_mode["torn"]
