"""The fuzz campaign driver.

A campaign turns one ``(seed, total_ops)`` pair into a stream of
generated sequences (each on its own stream so sequences are
independent yet reproducible), differential-checks every sequence with
:func:`repro.fuzz.diff.run_case`, shrinks any failure to a minimal
reproducer, and optionally writes reproducers to a corpus directory as
JSON-lines traces.  :meth:`FuzzRunner.run_pipeline` is the same
campaign over cases that generate their own sequence (the two-image
sweeps of :mod:`repro.fuzz.pipeline`).  Progress and cost are tracked
on a :class:`repro.obs.MetricsRegistry` so the CLI can print the same
table and Prometheus text every other subsystem uses.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.fuzz.diff import FuzzConfig, Violation, run_case
from repro.fuzz.gen import (GenConfig, SequenceGenerator,
                            generate_concurrent_sequence,
                            generate_tenant_sequence)
from repro.fuzz.shrink import shrink
from repro.obs import MetricsRegistry
from repro.workloads.trace import Trace, TraceOp

__all__ = ["FuzzRunner", "CampaignResult", "Failure"]

_CASE_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


@dataclass
class Failure:
    """One failing sequence, before and after shrinking."""

    stream: int
    violation: Violation
    ops: list = field(default_factory=list)
    reduced: list = field(default_factory=list)
    repro_path: Optional[str] = None


@dataclass
class CampaignResult:
    sequences: int = 0
    ops_generated: int = 0
    ops_applied: int = 0
    ops_skipped: int = 0
    crash_points: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class FuzzRunner:
    """Drives one campaign: generate, check, shrink, persist."""

    def __init__(self, cfg: Optional[FuzzConfig] = None,
                 gen_cfg: Optional[GenConfig] = None,
                 shrink_failures: bool = True,
                 log=None):
        self.cfg = cfg or FuzzConfig()
        self.gen_cfg = gen_cfg or GenConfig(alpha=self.cfg.alpha)
        self.registry = MetricsRegistry()
        self.shrink_failures = shrink_failures
        self.log = log or (lambda msg: None)

        r = self.registry
        self.m_sequences = r.counter(
            "fuzz.sequences_total", help="generated op sequences checked")
        self.m_ops = r.counter(
            "fuzz.ops_applied_total", help="ops applied on the clean pass")
        self.m_skipped = r.counter(
            "fuzz.ops_skipped_total", help="invalid ops both sides rejected")
        self.m_points = r.counter(
            "fuzz.crash_points_total", help="crash points replayed + checked")
        self.m_violations = r.counter(
            "fuzz.violations_total", help="consistency violations found")
        self.m_shrunk = r.counter(
            "fuzz.shrink_rounds_total", help="candidate replays during shrink")
        self.h_case = r.histogram(
            "fuzz.case_seconds", buckets=_CASE_SECONDS_BUCKETS,
            help="wall-clock seconds per differential case")

    # ------------------------------------------------------------ campaign

    def run(self) -> CampaignResult:
        cfg = self.cfg
        result = CampaignResult()
        stream = 0
        while result.ops_generated < cfg.total_ops:
            if len(result.failures) >= cfg.max_failures:
                self.log(f"stopping after {len(result.failures)} failures")
                break
            nops = min(cfg.seq_ops, cfg.total_ops - result.ops_generated)
            if cfg.tenants > 1:
                ops = generate_tenant_sequence(
                    seed=cfg.seed, stream=stream, nops=nops,
                    tenants=cfg.tenants, cfg=self.gen_cfg)
            elif cfg.clients > 1:
                ops = generate_concurrent_sequence(
                    seed=cfg.seed, stream=stream, nops=nops,
                    clients=cfg.clients, cfg=self.gen_cfg)
            else:
                gen = SequenceGenerator(seed=cfg.seed, stream=stream,
                                        cfg=self.gen_cfg)
                ops = gen.generate(nops)
            result.ops_generated += len(ops)
            failure = self.run_sequence(ops, stream, result)
            if failure is not None:
                result.failures.append(failure)
            stream += 1
        return result

    def run_pipeline(self, case_fn) -> CampaignResult:
        """One ``case_fn(cfg)`` per ``seq_ops`` of the op budget, on
        seeds ``seed, seed + 1, ...``; nothing to shrink or persist."""
        cfg = self.cfg
        result = CampaignResult()
        for i in range(max(1, cfg.total_ops // max(1, cfg.seq_ops))):
            result.ops_generated += cfg.seq_ops
            failure = self._check(
                lambda: case_fn(replace(cfg, seed=cfg.seed + i)), i, result)
            if failure is not None:
                result.failures.append(failure)
        return result

    def _check(self, case_fn, stream: int,
               result: CampaignResult) -> Optional[Failure]:
        """Run one case, account for it; a Failure if it was not clean."""
        t0 = time.perf_counter()
        case = case_fn()
        self.h_case.observe(time.perf_counter() - t0)
        self.m_sequences.inc()
        self.m_ops.inc(case.ops_applied)
        self.m_skipped.inc(case.ops_skipped)
        self.m_points.inc(case.crash_points)
        result.sequences += 1
        result.ops_applied += case.ops_applied
        result.ops_skipped += case.ops_skipped
        result.crash_points += case.crash_points
        if case.ok:
            return None

        self.m_violations.inc(len(case.violations))
        violation = case.violations[0]
        self.log(f"stream {stream}: {violation}")
        return Failure(stream=stream, violation=violation)

    def run_sequence(self, ops: list[TraceOp], stream: int,
                     result: CampaignResult) -> Optional[Failure]:
        failure = self._check(lambda: run_case(ops, self.cfg), stream, result)
        if failure is not None:
            failure.ops = list(ops)
            failure.reduced = self._shrink(ops) if self.shrink_failures \
                else list(ops)
            failure.repro_path = self._persist(failure)
        return failure

    # ------------------------------------------------------------ plumbing

    def _shrink(self, ops: list[TraceOp]) -> list[TraceOp]:
        def failing(candidate: list[TraceOp]) -> bool:
            self.m_shrunk.inc()
            return not run_case(candidate, self.cfg).ok

        reduced = shrink(ops, failing)
        self.log(f"shrunk {len(ops)} ops -> {len(reduced)}")
        return reduced

    def _persist(self, failure: Failure) -> Optional[str]:
        if not self.cfg.corpus:
            return None
        os.makedirs(self.cfg.corpus, exist_ok=True)
        path = os.path.join(
            self.cfg.corpus,
            f"repro-seed{self.cfg.seed}-stream{failure.stream}.trace")
        Trace(ops=list(failure.reduced)).save(path)
        self.log(f"reproducer saved to {path}")
        if failure.violation.flight is not None:
            # Flight-recorder history from the detecting run, so the
            # reproducer ships with the events leading up to the failure.
            fpath = path[:-len(".trace")] + ".flight.json"
            with open(fpath, "w") as fh:
                json.dump(failure.violation.flight, fh, indent=2)
            self.log(f"flight recording saved to {fpath}")
        return path

    # ------------------------------------------------------------ replay

    def replay_corpus(self) -> CampaignResult:
        """Re-check every saved reproducer in the corpus directory."""
        result = CampaignResult()
        corpus = self.cfg.corpus
        if not corpus or not os.path.isdir(corpus):
            return result
        for name in sorted(os.listdir(corpus)):
            if not name.endswith(".trace"):
                continue
            ops = Trace.load(os.path.join(corpus, name)).ops
            result.ops_generated += len(ops)
            failure = self.run_sequence(ops, stream=-1, result=result)
            if failure is not None:
                failure.repro_path = os.path.join(corpus, name)
                result.failures.append(failure)
        return result
