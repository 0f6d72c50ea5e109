#!/usr/bin/env python3
"""Benchmark of the dgorbits package: four workloads, end to end and by layer.

    python3 dgbench/run.py --workload weak_order --seed 1 --seconds 20 --trace 0
    python3 dgbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one process, one thread and one caller in a closed loop: the
next operation starts when the last one returns.  The run makes its
inputs from ``--seed`` (set-up, repeated ``SETUP_REPS`` times with a fresh
import of the package each time), then runs whole rounds of those inputs
until ``--seconds`` would be exceeded, then checks the first round's
outputs and that every later round gave the same outputs.  Times are
reported at reference speed: scaled by a reference loop timed next to
the work (``speed.py``), because the reference machine's speed drifts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, with the tracing overhead per round.  The last line of
standard output is one JSON object; the line before it records the run
(git rev, Python version, CPU count).  Both are also written, with the
spans of a traced run, under ``.bench_out/``.  ``--workload all`` runs the
four workloads one after another, each in its own process.

Exit codes: 0 after a run (read ``correct`` for the checks), 2 when the
arguments are bad or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from speed import REF_EVERY_S, at_reference_speed, reference_s
from tracing import Tracer, layer_targets, per_layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("young", "linalg", "subspace", "poset", "canonical", "serialize")
SETUP_REPS = 31
FAILED = object()


def load_program():
    """Import the package afresh, so that set-up pays its import time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "dgorbits"]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module("dgorbits." + m) for m in MODULES
    })


def set_up(workload, seed):
    """Median set-up time over SETUP_REPS, at reference speed, and the
    last set-up's result."""
    times, refs = [], [reference_s()]
    for _ in range(SETUP_REPS):
        prog = inputs = None    # free the last set-up before the next one
        gc.collect()
        t0 = time.perf_counter()
        prog = load_program()
        inputs = workload.setup(prog, random.Random(f"{workload.name}:{seed}"))
        times.append(time.perf_counter() - t0)
        refs.append(reference_s())
    scaled = at_reference_speed(times, refs, range(SETUP_REPS))
    return statistics.median(scaled), prog, inputs


def timed_phase(workload, prog, inputs, seconds, tracer):
    """Whole rounds of the inputs until the next would pass ``seconds``.

    With a tracer, rounds alternate untraced and traced.  Returns per
    mode (False = untraced, True = traced) each round's time and median
    operation time at reference speed (``speed``), each round's measured
    time, and the first round's outputs.  A round's time is the sum of
    its operation times.  The reference is timed before a round and
    after every ``REF_EVERY_S`` of operation time.  Each later output is
    compared with the first round's between operations, untimed, and
    then dropped.  Nothing kept grows with the number of rounds, so peak
    memory does not depend on how fast the program is.
    """
    modes = (False, True) if tracer else (False,)
    round_s = {m: [] for m in modes}
    measured_s = {m: [] for m in modes}
    op_s = {m: [] for m in modes}
    walls = {m: [] for m in modes}
    expected = []
    differing = failed = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for traced in modes:
            gc.collect()
            t_round = clock()
            if traced:
                tracer.install()
            first = not expected
            times, segment, refs = [], [], [reference_s()]
            stretch = 0.0
            for index, inp in enumerate(inputs):
                t_op = clock()
                try:
                    out = workload.op(prog, inp)
                except Exception:
                    if not failed:
                        traceback.print_exc()
                    failed += 1
                    out = FAILED
                times.append(clock() - t_op)
                segment.append(len(refs) - 1)
                stretch += times[-1]
                if first:
                    expected.append(out)
                elif out != expected[index]:
                    differing += 1
                del out
                if stretch >= REF_EVERY_S or index == len(inputs) - 1:
                    refs.append(reference_s())
                    stretch = 0.0
            if traced:
                tracer.uninstall()
            scaled = at_reference_speed(times, refs, segment)
            round_s[traced].append(sum(scaled))
            measured_s[traced].append(sum(times))
            op_s[traced].append(statistics.median(scaled))
            walls[traced].append(clock() - t_round)
        cycle = sum(statistics.median(walls[m]) for m in modes)
        if clock() - start + cycle > seconds:
            break
    rounds = sum(len(r) for r in round_s.values())
    return SimpleNamespace(round_s=round_s, measured_s=measured_s,
                           op_s=op_s, outputs=expected,
                           attempted=rounds * len(inputs), failed=failed,
                           differing=differing)


def check(workload, prog, inputs, outputs, differing):
    """Problems in the outputs of the operations that did not fail."""
    try:
        problems = workload.check(prog, inputs, outputs)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if differing:
        problems.append(f"{differing} outputs of later rounds differ from "
                        "the first round's")
    return problems


def git_rev():
    """HEAD of the repository at ROOT; git does not look above ROOT."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    setup_s, prog, inputs = set_up(workload, seed)
    tracer = Tracer(layer_targets(prog)) if trace else None
    phase = timed_phase(workload, prog, inputs, seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kept = [(i, o) for i, o in zip(inputs, phase.outputs) if o is not FAILED]
    kept_inputs, kept_outputs = [i for i, _ in kept], [o for _, o in kept]
    problems = check(workload, prog, kept_inputs, kept_outputs,
                     phase.differing)
    for problem in problems:
        print("check failed:", problem, file=sys.stderr)

    untraced = statistics.median(phase.round_s[False])
    if trace:
        traced = phase.round_s[True]
        metrics = per_layer_metrics(
            tracer, len(traced), workload.json_bytes(phase.outputs),
            statistics.median(traced) - untraced,
        )
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": untraced, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(phase.op_s[False]),
                          "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": git_rev(), "python": platform.python_version(),
        "cpus": os.cpu_count(), "ops_per_round": len(inputs),
        "round_s": {("traced" if m else "untraced"): v
                    for m, v in phase.round_s.items()},
        "measured_round_s": {("traced" if m else "untraced"): v
                             for m, v in phase.measured_s.items()},
        "makeup": workload.makeup(kept_inputs, kept_outputs),
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": phase.attempted,
              "failed": phase.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n"
    )
    if trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(record))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, then a table and a summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}, no result",
                  file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
            summary["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dgorbits" / "__init__.py").is_file():
        print(f"error: no dgorbits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
    else:
        run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
