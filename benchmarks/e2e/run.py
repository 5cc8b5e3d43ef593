#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the DeNova reproduction.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--repeats R] [--trace {0,1} | --traced]
                                  [--out FILE] [--list] [--check-repeat]

Runs the workloads of ``BENCHMARK.json`` and prints every metric by name
with its unit and sample count, verifies outputs, and ends with one JSON
line per workload in the shape the benchmark contract prescribes.  Each
pass (set-up, timed section, verification) runs in a fresh interpreter
with ``PYTHONHASHSEED=0``, one after the other: one process and one host
thread at a time.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()   # set-up of a pass starts with its imports

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
PASS_TIMEOUT_S = 150
HELD_OUT_SEED = 1337


# ---------------------------------------------------------------- one pass

def run_one_pass(workload: str, seed: int, scale: float, traced: bool,
                 check_invariants: bool) -> dict:
    """Child side: run one pass in this interpreter, return its record."""
    from dataclasses import asdict

    from e2e.trace import Tracer
    from e2e.workloads import WORKLOADS, PassSpec

    tracer = Tracer(enabled=traced)
    record = asdict(WORKLOADS[workload](PassSpec(
        seed=seed, scale=scale, tracer=tracer, t_start=T_START,
        check_invariants=check_invariants)))
    if traced:
        record["counts"]["nova.log.appends"] = tracer.by_boundary[
            "repro.nova.log:LogManager.append"][0]
        record["trace"] = {"layers": tracer.by_layer(), "root": tracer.root,
                           "spans": tracer.spans}
        record["trace_files"] = [
            str(p.relative_to(HERE)) for p in tracer.write(OUT_DIR)]
    return record


def spawn_pass(workload: str, seed: int, seconds: float, traced: bool,
               check_invariants: bool) -> dict:
    """Parent side: one pass in a fresh interpreter.

    Adds ``slowdown``: how much slower than nominal the pass's reference
    loop found the sandbox; host times are reported divided by it.
    """
    from e2e.calibrate import REF_NOMINAL_S

    cmd = [sys.executable, str(HERE / "run.py"),
           "--pass", "invariants" if check_invariants else "plain",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode:
        raise SystemExit(f"{workload}: pass exited with {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["slowdown"] = record["ref_s"] / REF_NOMINAL_S
    return record


# ---------------------------------------------------------------- one workload

HOST_METRICS = ("host_ops_s", "host_peak_rss_mb", "setup_s")


def is_host_time(name: str) -> bool:
    """Per-layer metrics on the host clock (the rest repeat exactly)."""
    return ("host" in name or name.startswith("trace.")
            or name == "fuzz.case_p50_s")


def run_workload(workload: str, seed: int, seconds: float, repeats: int,
                 traced: bool) -> dict:
    """All passes of one workload, folded into one result."""
    from e2e.metrics import per_layer_metrics

    # Every pass of a run builds the same image (checked below), so the
    # invariant checker, which costs as much as a timed section, runs
    # on the first one only.
    passes = [spawn_pass(workload, seed, seconds, traced=False,
                         check_invariants=(i == 0))
              for i in range(repeats)]
    first = passes[0]
    host = {
        "host_ops_s": [p["units"] / (p["timed_s"] / p["slowdown"])
                       for p in passes],
        "host_peak_rss_mb": [p["rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] / p["slowdown"] for p in passes],
    }
    out = {
        "workload": workload, "unit": first["unit"], "units": first["units"],
        "timed_s": [p["timed_s"] for p in passes],
        "slowdown": [p["slowdown"] for p in passes],
        "end_to_end": {**first["e2e"],
                       **{k: statistics.median(v) for k, v in host.items()}},
        "range": {k: (min(v), max(v)) for k, v in host.items()},
        "samples": {**first["samples"],
                    **dict.fromkeys(HOST_METRICS, repeats)},
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for p in passes for msg in p["problems"]],
    }
    # The simulated clock is deterministic: a repeat that disagrees is
    # an incorrect run, not noise.
    def exact(p: dict) -> tuple:
        return p["e2e"], {k: v for k, v in p["counts"].items()
                          if not is_host_time(k)}

    for p in passes[1:]:
        if exact(p) != exact(first):
            out["problems"].append(
                "simulated metrics or counters differ between repeats")
    if traced:
        t = spawn_pass(workload, seed, seconds, traced=True,
                       check_invariants=False)
        out["attempted"] += t["attempted"]
        out["failed"] += t["failed"]
        out["problems"] += t["problems"]
        if t["e2e"] != first["e2e"]:
            out["problems"].append(
                "traced pass changed the simulated metrics")
        # Overhead compares like with like: both sides at nominal speed.
        root = t["trace"]["root"]
        root["host_nominal_s"] = root["host_s"] / t["slowdown"]
        out["per_layer"] = per_layer_metrics(
            t["trace"]["layers"], root, t["counts"], statistics.median(
                p["timed_s"] / p["slowdown"] for p in passes))
        out["trace"] = {**t["trace"]["root"], "spans": t["trace"]["spans"],
                        "files": t["trace_files"]}
    out["correct"] = not out["failed"] and not out["problems"]
    return out


def contract_line(result: dict, spec: dict, traced: bool) -> str:
    """The last line the contract asks for: metrics with their units."""
    section = "per_layer" if traced else "end_to_end"
    values = result[section]
    declared = {m["name"] for m in spec[section]}
    if set(values) != declared:
        raise SystemExit(f"{section} metrics measured and declared differ: "
                         f"{sorted(set(values) ^ declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------- printing

def _arrow(better: str) -> str:
    return "↑" if better == "higher" else "↓"


def print_result(result: dict, spec: dict) -> None:
    timed, slow = result["timed_s"], result["slowdown"]
    print(f"\n== {result['workload']}: {result['units']} {result['unit']} "
          f"per timed section; timed section "
          f"{statistics.median(timed):.2f} s of raw host time "
          f"(min {min(timed):.2f}, max {max(timed):.2f}, n={len(timed)}); "
          f"sandbox slowdown {min(slow):.2f}-{max(slow):.2f}x")
    print("  end to end (sim_* and stored_per_user_byte: simulated clock, "
          "exact; host_ops_s and setup_s: host clock at nominal sandbox "
          "speed, median of the repeats)")
    for m in spec["end_to_end"]:
        name = m["name"]
        line = (f"    {name:<22} {result['end_to_end'][name]:>14.4f} "
                f"{m['unit']:<6} n={result['samples'][name]:<6} "
                f"{_arrow(m['better'])} bound {m['bound']:.0%}")
        if name in result["range"]:
            lo, hi = result["range"][name]
            line += f"  min {lo:.4f} max {hi:.4f}"
        print(line)
    share = result["failed"] / result["attempted"]
    print(f"    {'fail_share':<22} {share:>14.4f} {'ratio':<6} "
          f"n={result['attempted']:<6} ↓ bound 0%")
    for msg in result["problems"][:10]:
        print(f"    PROBLEM: {msg}")
    if "per_layer" in result:
        tr = result["trace"]
        layer_sum = sum(v for k, v in result["per_layer"].items()
                        if k.endswith(".host_self_s"))
        print(f"  per layer (traced pass: {tr['spans']} spans, timed "
              f"section {tr['host_s']:.2f} s; layer self times "
              f"{layer_sum:.2f} s + unattributed {tr['host_self_s']:.2f} s)")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<40} "
                  f"{result['per_layer'][m['name']]:>16.4f} {m['unit']}")
        print(f"  trace written to {', '.join(tr['files'])} under {HERE}")


def print_list(spec: dict) -> None:
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<14} {w['why']}")
    print("end-to-end metrics (fail_share = failed / attempted, bound 0, "
          "is reported through the result's correct/attempted/failed):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<22} {m['unit']:<6} {_arrow(m['better'])} "
              f"{m['better']:<6} bound {m['bound']:.0%}")
    print("per-layer metrics:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<40} {m['unit']:<6} {_arrow(m['better'])} "
              f"{m['better']}")
    print(f"default seed 42; seed {HELD_OUT_SEED} is held out for "
          f"validating later claims")


# ---------------------------------------------------------------- check-repeat

def check_repeat(first: dict, second: dict, spec: dict) -> list[str]:
    """Differences two sets of runs of the same code must not show."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = []
    for name, a in first.items():
        b = second[name]
        for metric, m in bounds.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            if metric in HOST_METRICS:
                if abs(x - y) / x > m["bound"]:
                    bad.append(f"{name}: {metric} medians {x:.4f} and "
                               f"{y:.4f} are more than {m['bound']:.0%} apart")
            elif x != y:
                bad.append(f"{name}: {metric} {x!r} != {y!r}")
        if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            bad.append(f"{name}: attempted/failed differ")
        for metric, x in a["per_layer"].items():
            if not is_host_time(metric) and x != b["per_layer"][metric]:
                bad.append(f"{name}: {metric} {x!r} != "
                           f"{b['per_layer'][metric]!r}")
    return bad


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    from e2e.metrics import load_spec

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=42,
                    help="the only input to JobSpec.seed, FleetSpec.seed "
                         f"and FuzzConfig.seed ({HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="host time one run of a workload takes on the "
                         "quiet sandbox; scales every size by one factor")
    ap.add_argument("--repeats", type=int, default=3,
                    help="untraced passes per workload, each in a fresh "
                         "interpreter")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced pass and report per-layer metrics")
    ap.add_argument("--traced", action="store_const", const=1, dest="trace",
                    help="same as --trace 1")
    ap.add_argument("--out", type=pathlib.Path,
                    help="also write the full results as JSON")
    ap.add_argument("--list", action="store_true",
                    help="print workloads and metrics, run nothing")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run two traced sets and fail unless they agree")
    ap.add_argument("--pass", choices=("plain", "invariants"),
                    dest="one_pass", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.list:
        print_list(spec)
        return 0
    if args.one_pass:
        print(json.dumps(run_one_pass(
            args.workload, args.seed, args.seconds / spec["run_seconds"],
            bool(args.trace), args.one_pass == "invariants")))
        return 0

    traced = bool(args.trace) or args.check_repeat
    selected = [args.workload] if args.workload else names
    sets = []
    for _ in range(2 if args.check_repeat else 1):
        results = {}
        for name in selected:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.repeats, traced)
            print_result(results[name], spec)
        sets.append(results)
    results = sets[0]

    if args.out:
        args.out.write_text(json.dumps(
            {"schema": "denova.e2e/1", "seed": args.seed,
             "seconds": args.seconds, "repeats": args.repeats,
             "results": results}, indent=2) + "\n")
    status = 0 if all(r["correct"] for s in sets for r in s.values()) else 1
    if args.check_repeat:
        bad = check_repeat(sets[0], sets[1], spec)
        for msg in bad:
            print(f"CHECK-REPEAT: {msg}")
        print(f"check-repeat: {'FAILED' if bad else 'passed'}; trace "
              "overhead ratio " + ", ".join(
                  f"{n} {r['per_layer']['trace.overhead_ratio']:.2f}"
                  for n, r in results.items()))
        status = status or bool(bad)
    print()
    for name in selected:
        print(contract_line(results[name], spec, traced=bool(args.trace)))
    return status


if __name__ == "__main__":
    # As a script, sys.path[0] is this directory, where ``trace.py``
    # would shadow the standard library's; import it as ``e2e.trace``.
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(HERE.parents[1] / "src"))    # ``repro``
    sys.exit(main())
