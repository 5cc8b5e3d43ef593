"""Differential crash-consistency fuzzing for the DeNova stack.

Five pieces, composable from tests and the ``repro fuzz`` CLI:

* :mod:`repro.fuzz.gen` — a seeded generator of op sequences (writes
  with a controlled duplicate ratio via :class:`~repro.workloads.datagen.
  DataGenerator`, namespace churn, reflinks/snapshots, explicit dedup
  drains, remounts) expressed as :class:`~repro.workloads.trace.TraceOp`
  so every sequence is already a serializable trace;
* :mod:`repro.fuzz.model` — a pure-Python model filesystem: the oracle
  for namespace, file contents, hard-link identity, and a lower bound
  on shared-page reference counts;
* :mod:`repro.fuzz.diff` — the differential checker (clean-run
  byte-exact equivalence) and the one crash-sweep engine,
  :func:`~repro.fuzz.diff.sweep_case`: every scenario's persist events
  torn through :func:`repro.failure.injector.sweep_crash_points`, with
  :func:`repro.failure.invariants.check_fs_invariants` and the
  scenario's oracle (prefix-equivalence against the model, for the
  differential one) after every recovery;
* :mod:`repro.fuzz.pipeline` — the two-image scenario (backup ingest,
  replication) swept by the same engine;
* :mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.runner` — ddmin shrinking
  of failing sequences to minimal reproducers, and the campaign driver
  with obs metrics and a reproducer corpus.
"""

from repro.fuzz.diff import (
    CaseResult,
    FuzzConfig,
    OracleDivergence,
    Scenario,
    Violation,
    apply_op,
    fs_namespace,
    run_case,
    sweep_case,
)
from repro.fuzz.gen import (
    GenConfig,
    SequenceGenerator,
    apply_to_model,
    generate_sequence,
    model_after,
)
from repro.fuzz.model import ModelError, ModelFS
from repro.fuzz.pipeline import (
    backup_gen_config,
    run_backup_case,
    run_repl_case,
)
from repro.fuzz.runner import CampaignResult, Failure, FuzzRunner
from repro.fuzz.shrink import shrink

__all__ = [
    "ModelFS", "ModelError",
    "GenConfig", "SequenceGenerator", "generate_sequence",
    "apply_to_model", "model_after",
    "FuzzConfig", "CaseResult", "Violation", "OracleDivergence",
    "apply_op", "run_case", "fs_namespace", "Scenario", "sweep_case",
    "shrink",
    "FuzzRunner", "CampaignResult", "Failure",
    "backup_gen_config", "run_backup_case", "run_repl_case",
]
