"""Host-time benchmark of the HawkEye simulator.

Run from the root of a checkout::

    python3 simbench/run.py --workload frag-promote --seed 0 --seconds 20 --trace 0

The workload's cell list runs again and again, one cell after another
in this process, until the next iteration would overrun ``--seconds``
(at least once).  Every cell's simulated result is checked exactly; the
last line of standard output is one JSON object with the checks'
verdict and the metrics.  ``--trace 0`` reports the end-to-end metrics
(medians over iterations); ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  ``--bless`` rewrites the workload's committed
reference from one iteration at the reference seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("frag-promote", "fleet-churn", "fault-storm", "sweep-capture")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_epochs_per_s", "1/s"),
    ("sim_faults_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the reference from the reference seed")
    return parser.parse_args(argv)


def _iteration_sample(iteration, meter) -> dict[str, float]:
    records = iteration.records
    loop = sum(r.loop_s for r in records)
    return {
        "wall_s": meter.reference_seconds(iteration.start, iteration.end),
        "raw_wall_s": iteration.end - iteration.start,
        "setup_s": sum(r.setup_s for r in records),
        "sim_epochs_per_s": sum(r.epochs for r in records) / loop if loop else 0.0,
        "sim_faults_per_s": sum(r.faults for r in records) / loop if loop else 0.0,
    }


def _report_failures(records) -> None:
    for record in records:
        if record.error is not None:
            print(f"FAILED {record.cell_id}: {record.error.strip()}", file=sys.stderr)
        for problem in record.problems:
            print(f"FAILED {record.cell_id}: {problem}", file=sys.stderr)


def measure(workload, ctx, seconds: float, traced: bool) -> dict:
    """Run iterations until the budget is spent; returns the result object."""
    from simbench import checks, stats
    from simbench.spans import SpanRecorder
    from simbench.workloads import REFERENCE_SEED

    reference = None
    if not workload.seeded or ctx.seed == REFERENCE_SEED:
        reference = checks.load_reference(workload.name)
    uncaptured = ctx.uncaptured if workload.prepare is not None else None
    first: dict[str, dict] = {}
    recorder = SpanRecorder() if traced else None
    samples, traced_samples, traced_records = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for rec in ([None, recorder] if traced else [None]):
            iteration = _iterate(workload, ctx, rec)
            records = iteration.records
            checks.check_records(records, reference, first, uncaptured)
            _report_failures(records)
            attempted += len(records)
            failed += sum(r.failed for r in records)
            sample = _iteration_sample(iteration, ctx.probe.meter)
            if rec is None:
                if not samples:
                    # The heap keeps growing for a few passes before it
                    # settles, so the peak is taken after the first pass:
                    # the number of passes depends on the host's speed.
                    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                                   .ru_maxrss / 1024.0)
                samples.append(sample)
            else:
                traced_samples.append(sample)
                traced_records.extend(records)
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            break

    for name, unit in END_TO_END[:-1]:
        print(stats.describe(name, [s[name] for s in samples], unit))
    print(stats.describe("peak_rss_mb", [peak_rss_mb], "MB"))
    print("iteration wall_s   " + " ".join(f"{s['wall_s']:.4g}" for s in samples)
          + "  (raw host s: " + " ".join(f"{s['raw_wall_s']:.4g}" for s in samples)
          + f"; median host speed {ctx.probe.meter.speed():.3f} of reference)")
    print(f"fail_frac          {failed / attempted:.6g} ({failed} of {attempted} cells)")
    correct = failed == 0
    if traced:
        values, units, observers_ok = _layer_report(
            workload, recorder, samples, traced_samples, traced_records)
        correct = correct and observers_ok
    else:
        values = {name: stats.median([s[name] for s in samples])
                  for name, _ in END_TO_END[:-1]}
        values["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def _iterate(workload, ctx, recorder):
    """One iteration, with the layer wrappers installed when tracing."""
    from simbench import layers

    if recorder is None:
        return workload.iterate(ctx, None)
    layers.install(recorder)
    try:
        return workload.iterate(ctx, recorder)
    finally:
        recorder.uninstall()


def _layer_report(workload, recorder, samples, traced_samples, traced_records):
    """Per-layer metrics, the observer assertion and the span dump."""
    from simbench import layers, stats

    def median(key, rows):
        return stats.median([row[key] for row in rows])

    values = layers.metrics(
        recorder, len(traced_samples),
        sum(r.fleet_deferred for r in traced_records),
        sum(r.fleet_oom_kills for r in traced_records),
        median("wall_s", traced_samples), median("wall_s", samples))
    calls = layers.observer_calls(recorder)
    wrong = [name for name, n in calls.items() if (n > 0) != workload.observers]
    if wrong:
        expect = "calls" if workload.observers else "no calls"
        print(f"FAILED observer check: expected {expect} into "
              f"{', '.join(wrong)}; got {calls}", file=sys.stderr)
    out_dir = ROOT / ".simbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.npz"
    recorder.dump(spans_path)
    raw = median("raw_wall_s", traced_samples) - median("raw_wall_s", samples)
    print(f"tracing overhead   {values['tracing.overhead_s']:.6g} s "
          f"(traced {values['tracing.wall_s']:.6g} s vs untraced "
          f"{median('wall_s', samples):.6g} s; raw host {raw:.6g} s); "
          f"{len(recorder.t0)} spans in {spans_path}")
    return values, dict(layers.PER_LAYER), not wrong


def bless(workload, ctx) -> int:
    """Write the workload's reference from one iteration at the reference seed."""
    from simbench import checks

    records = workload.iterate(ctx, None).records
    if workload.prepare is not None:
        checks.check_records(records, None, {}, ctx.uncaptured)
    _report_failures(records)
    if any(r.failed for r in records):
        return 1
    path = checks.write_reference(workload.name, ctx.seed,
                                  {r.cell_id: r.result for r in records})
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator sources under {ROOT / 'src'}; run it "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from simbench.probe import KernelProbe
    from simbench.speed import SpeedMeter
    from simbench.workloads import REFERENCE_SEED, WORKLOADS, RunContext

    workload = WORKLOADS[args.workload]
    seed = REFERENCE_SEED if args.bless else args.seed
    work_dir = ROOT / ".simbench" / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(seed, KernelProbe(SpeedMeter()), work_dir,
                     ROOT / "benchmarks" / "baselines" / "ci-smoke.json")
    ctx.probe.install()
    try:
        if workload.prepare is not None:
            workload.prepare(ctx)
        if args.bless:
            return bless(workload, ctx)
        result = measure(workload, ctx, args.seconds, bool(args.trace))
    finally:
        ctx.probe.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
