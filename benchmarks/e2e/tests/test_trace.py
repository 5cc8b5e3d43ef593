"""Span arithmetic and patch hygiene of ``e2e.trace``."""

import sys
import types

import pytest

from e2e.trace import (BOUNDARIES, RAW_SPAN_LIMIT, Tracer, _resolve,
                       _SIM_CLOCK_ADVANCE)
from repro.pm.clock import SimClock


class FakeClock:
    """Host clock that only moves when the toy program says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """A toy program: outer() calls inner(); steps() is a generator."""
    host, sim = FakeClock(), SimClock()
    mod = types.ModuleType("e2e_toy")

    def inner(fail=False):
        host.now += 2.0
        sim.advance(200.0)
        if fail:
            raise KeyError("boom")

    class Outer:
        def run(self, fail=False):
            host.now += 1.0
            sim.advance(100.0)
            mod.inner(fail)
            host.now += 3.0

        @classmethod
        def make(cls):
            host.now += 0.5
            return cls()

    def steps():
        host.now += 1.0
        got = yield "first"
        host.now += 2.0
        mod.inner()
        yield got
        return "done"

    mod.inner, mod.Outer, mod.steps = inner, Outer, steps
    monkeypatch.setitem(sys.modules, "e2e_toy", mod)
    table = {"outer": ("e2e_toy:Outer.run", "e2e_toy:Outer.make"),
             "inner": ("e2e_toy:inner",),
             "gen": ("e2e_toy:steps",)}
    tracer = Tracer(clock=host, boundaries=table)
    return mod, host, tracer


def test_nested_self_times_add_up_to_the_root(toy):
    mod, host, tracer = toy
    with tracer.trace("toy"):
        host.now += 0.25            # harness time outside any boundary
        mod.Outer.make().run()
        mod.inner()
    layers = tracer.by_layer()
    assert layers["outer"] == {"calls": 2, "host_self_s": 4.5,
                               "sim_self_ms": 100.0 / 1e6}
    assert layers["inner"] == {"calls": 2, "host_self_s": 4.0,
                               "sim_self_ms": 400.0 / 1e6}
    root = tracer.root
    assert root["host_s"] == 8.75 and root["host_self_s"] == 0.25
    assert root["sim_ns"] == 500.0 and root["sim_self_ns"] == 0.0
    total = sum(v["host_self_s"] for v in layers.values())
    assert total + root["host_self_s"] == root["host_s"]


def test_generator_is_billed_per_resume_step_not_while_parked(toy):
    mod, host, tracer = toy
    with tracer.trace("toy"):
        gen = mod.steps()
        assert next(gen) == "first"
        host.now += 10.0            # parked: other simulated threads run
        assert gen.send("echo") == "echo"
        host.now += 10.0
        with pytest.raises(StopIteration) as stop:
            next(gen)
    assert stop.value.value == "done"
    layers = tracer.by_layer()
    assert layers["gen"]["calls"] == 1
    assert layers["gen"]["host_self_s"] == 3.0      # 1 + 2, inner excluded
    assert layers["inner"]["host_self_s"] == 2.0
    assert tracer.root["host_self_s"] == 20.0
    assert tracer.spans == 4                        # three steps + inner


def test_exception_unwinds_the_span_stack(toy):
    mod, host, tracer = toy
    with tracer.trace("toy"):
        with pytest.raises(KeyError):
            mod.Outer().run(fail=True)
        mod.inner()
    layers = tracer.by_layer()
    assert layers["outer"]["host_self_s"] == 1.0    # never reached the +3
    assert layers["inner"] == {"calls": 2, "host_self_s": 4.0,
                               "sim_self_ms": 400.0 / 1e6}
    assert tracer.root["host_self_s"] == 0.0


def test_exception_thrown_into_a_parked_generator_reaches_it(toy):
    mod, _host, tracer = toy
    with tracer.trace("toy"):
        gen = mod.steps()
        next(gen)
        with pytest.raises(RuntimeError):
            gen.throw(RuntimeError("interrupt"))
    assert tracer.by_layer()["gen"]["calls"] == 1


def test_raw_spans_are_capped_and_parented(toy):
    mod, _host, tracer = toy
    with tracer.trace("toy"):
        mod.Outer().run()
        for _ in range(RAW_SPAN_LIMIT + 50):
            mod.inner()
    assert tracer.spans == RAW_SPAN_LIMIT + 52
    assert len(tracer.raw) == RAW_SPAN_LIMIT
    events = tracer.chrome_trace()["traceEvents"]
    outer, inner = events[0], events[1]
    assert (outer["name"], outer["cat"], outer["ph"]) == (
        "Outer.run", "outer", "X")
    assert outer["args"]["parent"] == 0             # the root span
    assert inner["args"]["parent"] == outer["args"]["id"]
    assert (outer["dur"], inner["dur"]) == (6.0e6, 2.0e6)
    assert inner["args"]["sim_end_ns"] - inner["args"]["sim_start_ns"] == 200


def test_disabled_tracer_times_the_root_and_patches_nothing(toy):
    mod, host, _ = toy
    before = vars(mod)["inner"]
    tracer = Tracer(enabled=False, clock=host,
                    boundaries={"inner": ("e2e_toy:inner",)})
    with tracer.trace("toy"):
        assert vars(mod)["inner"] is before
        mod.inner()
    assert tracer.root["host_s"] == 2.0 and tracer.spans == 0


def test_every_real_boundary_exists_and_is_restored_exactly():
    specs = [s for group in BOUNDARIES.values() for s in group]
    specs.append(_SIM_CLOCK_ADVANCE)
    assert len(specs) == len(set(specs))
    before = {spec: _resolve(spec)[2] for spec in specs}
    tracer = Tracer()
    with tracer.trace("nothing"):
        patched = {spec: _resolve(spec)[2] for spec in specs}
    assert all(patched[s] is not before[s] for s in specs)
    for spec in specs:                   # class __dict__ identity
        owner, name, now = _resolve(spec)
        assert now is before[spec], spec
        assert vars(owner)[name] is before[spec]
    assert tracer.spans == 0


def test_restored_even_when_the_traced_section_raises():
    spec = "repro.pm.device:PMDevice.write"
    before = _resolve(spec)[2]
    with pytest.raises(ZeroDivisionError):
        with Tracer().trace("boom"):
            1 / 0
    assert _resolve(spec)[2] is before


def test_missing_boundary_fails_loudly_and_leaves_nothing_patched():
    good = "repro.pm.device:PMDevice.read"
    before = _resolve(good)[2]
    tracer = Tracer(boundaries={
        "x": (good, "repro.pm.device:PMDevice.nope")})
    with pytest.raises(LookupError, match="PMDevice.nope"):
        with tracer.trace("x"):
            pass
    assert _resolve(good)[2] is before
