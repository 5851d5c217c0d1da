"""Benchmark of the klr package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each repetition is a fresh interpreter that sets up (imports klr, builds
graphs and rings, writes the graph files for the CLI, generates the seeded
inputs) and makes one cold pass over every task of the workload, checking
each answer.  A fresh process per repetition keeps the pass cold
(``canonical_word`` has a process-wide cache) and makes ``ru_maxrss`` that
repetition's own peak.  Repetitions run one at a time.  Their number is
``--seconds`` divided by a fixed nominal wall time per repetition
(REPETITION_S), so it is the same on every commit however fast the code is.

Times are scaled to a fixed host speed (see speed.py), because a shared
machine's speed swings by half within seconds and stays low for minutes:
on a 2-core VM, one 10-strand ``klr tight`` query took 2.8 to 5.7 s
within a minute, while its times scaled by the speed probe were 4% apart.
``setup_s`` and ``run_s`` are medians over the repetitions;
``task_p50_ms`` and ``task_p90_ms`` are percentiles over tasks of each
task's median latency; ``peak_rss_mb`` is the median over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see tracer.py) plus the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch files and span tables; git-ignored
DEADLINE_S = 170  # the whole run fails if its repetitions take longer
MAX_ERRORS_SHOWN = 3
# Nominal wall time of one repetition, untraced and traced, at the seed
# commit on a 2-core VM (Python 3.11).  A run makes round(--seconds / s)
# repetitions, at least one, of each kind it reports.
REPETITION_S = {"forms": (5.5, 13.0), "quotients": (4.5, 5.5),
                "rewriting": (6.5, 8.0)}

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("task_p50_ms", "ms"),
              ("task_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def import_klr():
    """Import klr from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import klr
    where = Path(klr.__file__).resolve().parent
    if where != SRC / "klr":
        raise ImportError(f"klr imported from {where}, not from {SRC}")
    return klr


# -- one repetition, in its own interpreter --------------------------------------

def repetition(name, seed, traced):
    """Set up and make one pass.  An untraced pass runs under the speed
    probe and reports its times scaled to the reference speed; a traced
    one reports wall times (the probe would land inside the spans)."""
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    speed = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if not traced:
            speed.start()
        try:
            setup = [time.perf_counter()]
            workload = WORKLOADS[name](seed)
            klr = import_klr()
            workload.setup(klr, workdir)
            setup.append(time.perf_counter())
            spans, errors = [], []

            def one_pass():
                for task in workload.tasks:
                    begin = time.perf_counter()
                    try:
                        workload.run(task)
                    except Exception:  # a failed task is counted, not fatal
                        if len(errors) < MAX_ERRORS_SHOWN:
                            print(f"task {task!r} failed:\n"
                                  f"{traceback.format_exc()}", file=sys.stderr)
                        errors.append(task)
                    spans.append((begin, time.perf_counter()))

            if traced:
                tracer = Tracer()
                for ring in workload.rings():
                    tracer.watch(ring)
                tracer.run(one_pass)
                wall_s = tracer.run_s
            else:
                begin = time.perf_counter()
                one_pass()
                wall_s = time.perf_counter() - begin
        finally:
            if not traced:
                speed.stop()
    if traced:
        setup_s = setup[1] - setup[0]
        latencies = [end - begin for begin, end in spans]
    else:
        setup_s = speed.scaled(*setup)
        latencies = [speed.scaled(*span) for span in spans]
    out = {
        "setup_s": setup_s,
        "run_s": sum(latencies),
        "wall_s": wall_s,
        "probe_s": statistics.mean(speed.times) if speed.times else None,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(latencies),
        "failed": len(errors),
    }
    if traced:
        faults = tracer.faults()
        for fault in faults:
            print(f"trace: {fault}", file=sys.stderr)
        out["trace_ok"] = not faults
        out["layers"] = tracer.metrics()
        with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump(tracer.table(), fh, indent=1)
    return out


# -- repetitions and the report ---------------------------------------------------

def spawn(name, seed, traced, timeout):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"  # same dict and set orders in every repetition
    cmd = [sys.executable, "-s", str(HERE / "run.py"), "--repetition",
           "--workload", name, "--seed", str(seed), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds(name, seconds, trace):
    """How many repetitions of each kind a run makes; not timed, so that
    every commit is measured over as many samples."""
    nominal = REPETITION_S[name][:2 if trace else 1]
    return max(1, round(seconds / sum(nominal)))


def measure(name, seed, seconds, trace):
    """{traced: [result of each repetition]}, untraced and traced alternating."""
    modes = [False, True] if trace else [False]
    reps = {mode: [] for mode in modes}
    start = time.monotonic()
    for _ in range(rounds(name, seconds, trace)):
        for mode in modes:
            left = DEADLINE_S - (time.monotonic() - start)
            if left <= 0:
                raise RuntimeError(f"repetitions took over {DEADLINE_S} s")
            reps[mode].append(spawn(name, seed, mode, left))
    return reps


def task_percentiles_ms(reps):
    """p50 and p90 over tasks of each task's median latency.

    Every repetition runs the same tasks in the same order.
    """
    median = [1e3 * statistics.median(times)
              for times in zip(*(r["latencies"] for r in reps))]
    return statistics.median(median), statistics.quantiles(median, n=10)[-1]


def report(name, reps, trace):
    import speed
    from tracer import metric_units

    plain = reps[False]
    everything = plain + reps.get(True, [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    correct = failed == 0 and all(r["trace_ok"] for r in reps.get(True, []))
    metrics = {}
    if trace:
        traced = reps[True]
        for key, unit in metric_units():
            if key == "trace.overhead_ratio":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][key] for r in traced)
            metrics[key] = {"value": value, "unit": unit}
    else:
        p50, p90 = task_percentiles_ms(plain)
        values = {key: statistics.median(r[key] for r in plain)
                  for key in ("setup_s", "run_s", "peak_rss_mb")}
        values.update(task_p50_ms=p50, task_p90_ms=p90)
        for key, unit in END_TO_END:
            metrics[key] = {"value": values[key], "unit": unit}
    counts = ", ".join(f"{len(v)} {'traced' if k else 'untraced'}"
                       for k, v in reps.items())
    print(f"{name}: {counts} repetitions of {plain[0]['attempted']} tasks")
    probe_ms = 1e3 * statistics.median(r["probe_s"] for r in plain)
    print(f"  speed probe {probe_ms:.3f} ms (reference "
          f"{1e3 * speed.REFERENCE_S:.3f} ms; untraced times are scaled by it)")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed}/{attempted} = "
          f"{failed / attempted:.6g} 1")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetition", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repetition:
        print(json.dumps(repetition(args.workload, args.seed, args.trace)))
        return 0
    try:
        reps = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args.workload, reps, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
