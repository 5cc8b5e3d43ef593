"""A scenario of the sweep engine that only the tests sweep.

:func:`nested_scenario` tears the *recovery mount* of a crashed image
(``test_nested.py``, ``test_sweep_reference.py``): recovery must be
idempotent.
"""

from repro.failure.injector import run_with_crash
from repro.fuzz.diff import FuzzConfig, Scenario, _fs_cls


def nested_scenario(outer: Scenario, cfg: FuzzConfig, point: int,
                    phase: str, mode: str) -> Scenario:
    """Tear the *recovery mount* of an image ``outer`` left crashed at
    one point: recovery must be idempotent, so whatever a second mount
    recovers owes ``outer``'s oracle exactly what the first one did."""

    def build(tick):
        dev = run_with_crash(lambda: outer.build(tick), point, phase=phase,
                             mode=mode, seed=cfg.seed).dev
        return dev, lambda: _fs_cls(cfg).mount(dev, cpus=cfg.cpus)

    return Scenario(build, outer.oracle)
