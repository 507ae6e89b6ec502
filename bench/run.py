"""Benchmark for cohdual: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload {suite,certify,desk} --seed N \\
        --seconds S --trace {0,1}

Run it from a checkout that holds ``src/cohdual`` and ``BENCHMARK.json``;
nothing needs installing.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured over
a closed loop with one client for S seconds of operations.  With
``--trace 1`` they are the per-layer metrics: a fixed number of operations
runs once untraced and then once more, the same operations, under the
tracer, and the difference is the tracing overhead.  The line before it is
a JSON report with provenance, generation time, sample counts, failures
and the workload-specific figures (``report_p50_ms``, ``decided_share``,
``failed_share``, ``p90_ms`` where at least ten samples lie beyond it).

Every time printed, per-layer ones included, is scaled to a reference
machine speed: a fixed pure-Python loop is timed between operations (after
at least 0.2 s of operation time) and around set-up probes, and times are
multiplied by ``REFERENCE_S`` over its median (see ``common.Pace``).  The
run pins itself and its children to one CPU, so the loop runs where the
work runs.  The report keeps the unscaled values.

Inputs, ``@doc`` files and request lists are generated before the timed
region.  Files go to a scratch directory under ``.bench_work/`` in the
checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import Context, Outcome, Pace, p50_ms, p90_ms
from tracer import CLI_COMMANDS, LayerTotals, Tracer, load

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
PACE_EVERY_S = 0.2  # least operation time between two timings of the reference loop
TIME_POWER = {"s": 1, "ms": 1, "1/s": -1}
SETUP_CODE = ("import time; t = time.perf_counter(); import cohdual, cohdual.cli; "
              "cohdual.cli.build_parser(); print(time.perf_counter() - t)")


def workloads():
    # imported late: certify needs src/ on sys.path first
    from certify import CertifyWorkload
    from desk import DeskWorkload
    from suite import SuiteWorkload

    return {"suite": SuiteWorkload, "certify": CertifyWorkload, "desk": DeskWorkload}


def measure_setup(ctx: Context, pace: Pace, code: str, probes: int):
    """Median wall time of fresh interpreters running code, and of what they print."""
    ctx.spawn([ctx.python, "-c", code], ctx.work)  # writes the bytecode caches
    walls, printed = [], []
    for _ in range(probes):
        pace.sample()
        proc, wall = ctx.spawn([ctx.python, "-c", code], ctx.work)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc and proc.stderr[-300:]!r}")
        walls.append(wall)
        if proc.stdout.strip():
            printed.append(float(proc.stdout))
    pace.sample()
    return statistics.median(walls), (statistics.median(printed) if printed else None)


def record(outcome, op, result, by_command=None) -> float:
    seconds, failure = result
    outcome.attempted += 1
    outcome.latencies.append(seconds)
    if by_command is not None and op.command:
        by_command.setdefault(op.command, []).append(seconds)
    if failure is not None:
        outcome.fail(failure)
    return seconds


def scale_times(values, units, pace, setup_pace, setup_names):
    """Factors that put each metric at reference speed (1 for non-times).

    Set-up metrics use the loop samples taken around the set-up probes, the
    others those taken between operations.
    """
    factors = {}
    for name in values:
        power = TIME_POWER.get(units[name], 0)
        scale = (setup_pace if name in setup_names else pace).scale()
        factors[name] = scale ** power if power else 1
    return factors


def timed_run(ctx, workload, ops, units):
    outcome, pace, setup_pace = Outcome(), Pace(), Pace()
    setup_s, _ = measure_setup(ctx, setup_pace, SETUP_CODE, SETUP_PROBES)
    phase_dir = ctx.work / "timed"
    phase_dir.mkdir()
    workload.prepare(phase_dir)
    busy = next_sample = 0.0
    for op in ops:
        if busy >= ctx.seconds:
            break
        if busy >= next_sample:
            pace.sample()
            next_sample = busy + PACE_EVERY_S
        busy += record(outcome, op, workload.execute(op, phase_dir))
    pace.sample()
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    workload.finish(outcome)
    outcome.details["p90_ms"] = p90_ms(outcome.latencies)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "ops_per_s": len(outcome.latencies) / busy,
        "p50_ms": p50_ms(outcome.latencies),
    }
    return outcome, values, scale_times(values, units, pace, setup_pace, {"setup_s"}), pace


def traced_run(ctx, workload, ops, units):
    """Run each of the first trace_ops operations untraced, then traced.

    Alternating per operation keeps drift in machine speed out of the
    overhead figure.  The two runs use separate directories, so documents
    written by one never feed the other.
    """
    outcome, pace, setup_pace = Outcome(), Pace(), Pace()
    interpreter_s, _ = measure_setup(ctx, setup_pace, "pass", 5)
    _, import_s = measure_setup(ctx, setup_pace, SETUP_CODE, SETUP_PROBES)
    ops = ops[:workload.trace_ops]
    plain_dir, traced_dir = ctx.work / "untraced", ctx.work / "traced"
    for phase_dir in (plain_dir, traced_dir):
        phase_dir.mkdir()
        workload.prepare(phase_dir)
    by_command: dict[str, list] = {}
    totals = LayerTotals()
    plain = traced = 0.0
    for index, op in enumerate(ops):
        pace.sample()
        plain += record(outcome, op, workload.execute(op, plain_dir), by_command)
        if workload.in_process:
            tracer = Tracer()
            tracer.install()
            try:
                traced += record(outcome, op, workload.execute(op, traced_dir))
            finally:
                tracer.uninstall()
        else:
            trace_file = ctx.work / f"{index}.trace"
            traced += record(outcome, op, workload.execute(op, traced_dir, trace_file))
            tracer = load(trace_file)
            trace_file.unlink()
        totals.add(tracer)
    pace.sample()
    workload.finish(outcome)
    outcome.details["traced_ops"] = len(ops)
    values = {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "trace.overhead_pct": (traced / plain - 1.0) * 100.0,
    }
    for command in CLI_COMMANDS:
        values[f"cli.{command}.p50_ms"] = p50_ms(by_command.get(command, []))
    for name in units:
        if name not in values:
            values[name] = totals.value(name)
    setup_names = {"cli.interpreter_s", "cli.import_s"}
    return outcome, values, scale_times(values, units, pace, setup_pace, setup_names), pace


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "certify", "desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohdual" / "__init__.py").is_file():
        print(f"bench: no cohdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    cpus = sorted(os.sched_getaffinity(0))
    # One CPU for this process and its children, so the reference loop is
    # timed on the CPU that runs the measured work.
    os.sched_setaffinity(0, cpus[:1])
    load_start = os.getloadavg()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        ctx = Context.create(ROOT, args.seconds, work)
        workload = workloads()[args.workload](ctx)
        t0 = perf_counter()
        ops = workload.generate(random.Random(args.seed))
        generation_s = perf_counter() - t0
        if args.trace:
            run, metric_list = traced_run, spec["per_layer"]
        else:
            run, metric_list = timed_run, spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in metric_list}
        outcome, values, factors, pace = run(ctx, workload, ops, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    load_end = os.getloadavg()
    metrics = {name: {"value": values[name] * factors[name], "unit": units[name]}
               for name in units}
    for key, value in outcome.details.items():
        if key.endswith("_ms") and value is not None:
            outcome.details[key] = value * pace.scale()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "noisy": max(load_start[0], load_end[0]) > len(cpus),
        "generation_s": generation_s,
        "reference_loop_ms": statistics.median(pace.samples) * 1000.0,
        "unscaled": {name: values[name] for name in units if factors[name] != 1},
        "samples": len(outcome.latencies),
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "details": outcome.details,
        "failures": outcome.failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": outcome.wrong == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
