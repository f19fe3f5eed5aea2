"""The benchmark's four workloads: lists of registry cells run in-process.

Every workload is a closed loop: one process runs its cells one after
another, with no pool and no extra threads.  Each cell yields a
JSON-round-tripped result — the cell's own simulated result plus the
final ``KernelStats`` of every kernel it built — which the checks in
``checks.py`` compare exactly, because simulated statistics are
deterministic.

The seed reaches the simulator only as generated inputs: the
``Fragmenter`` seed and ``FleetSpec.seed`` (offsets from the seeds the
``fig5`` and ``fleet`` registry cells use, so seed 0 runs those cells'
inputs at the benchmark's scale), and the order in which the unseeded
workloads run their cells.
"""

from __future__ import annotations

import random
import shutil
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments import Scale, fragment, make_kernel, reset_sim_state
from repro.fleet.experiment import (
    BASE_RATE_PER_S,
    BATCH_GROUP_CAP,
    FLEET_MEM_FULL,
    _seed as fleet_registry_seed,
    drive_fleet,
    fleet_result,
)
from repro.fleet.manager import FleetManager, FleetSpec
from repro.mem.fragmentation import Fragmenter
from repro.report.regress import compare, load_baseline
from repro.runner.adapters import FIG5_WORK_S
from repro.runner.cache import ResultCache, source_digest
from repro.runner.registry import Cell, execute_cell, parse_selectors
from repro.runner.scheduler import run_sweep
from repro.units import GB, SEC
from repro.workloads.graph import Graph500
from repro.workloads.npb import NPBWorkload

from simbench.checks import roundtrip
from simbench.probe import KernelProbe, KernelTiming, kernel_stats
from simbench.spans import SpanRecorder
from simbench.speed import SpeedMeter

#: the seed whose results are committed under ``reference/``.
REFERENCE_SEED = 0
#: scale of the cells built here: half the registry's default 1/128, so
#: an iteration of frag-promote or fleet-churn takes 5-10 host seconds
#: and a run holds several (host time on a shared 2-core container varies
#: by +-10% between iterations, so a run's median needs several samples).
SCALE = Scale.from_denominator(256)
#: a cell that runs longer than this counts as failed (the slowest cell
#: takes under 10 s untraced on a 2-core container).
CELL_TIMEOUT_S = 90.0
#: ``Fragmenter``'s default seed, which the fig5 registry cells use.
FRAGMENTER_SEED = 7
#: epoch cap of the fig5 registry body.
FIG5_MAX_EPOCHS = 6000
#: the CI grid: `repro sweep run smoke tab1 numa fleet-smoke`.
SWEEP_SELECTORS = ("smoke", "tab1", "numa", "fleet-smoke")


class CellTimeout(Exception):
    """A cell exceeded :data:`CELL_TIMEOUT_S`."""


@contextmanager
def _deadline(seconds: float):
    def on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Iteration:
    """One pass over a workload's cell list: host clock span and cells."""

    start: float
    end: float
    records: list["CellRecord"]


@dataclass
class CellRecord:
    """One executed cell: its checked result and its host-time split."""

    cell_id: str
    #: ``{"result": ..., "kernels": [KernelStats, ...]}`` or None on error.
    result: dict | None
    error: str | None = None
    #: reference seconds (see speed.py) of set-up and epoch loop.
    setup_s: float = 0.0
    loop_s: float = 0.0
    epochs: int = 0
    faults: int = 0
    fleet_deferred: int = 0
    fleet_oom_kills: int = 0
    #: check failures found after the cell ran (filled by checks.py).
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _record(cell_id: str, result: dict | None, error: str | None,
            timings: list[KernelTiming], meter: SpeedMeter) -> CellRecord:
    """Fold a cell's kernels into its record, checking each kernel's books."""
    stats = []
    record = CellRecord(cell_id, None, error)
    for timing in timings:
        kernel = timing.kernel
        if kernel.frames.allocated_count() != kernel.buddy.allocated_pages:
            record.problems.append(
                "frame table and buddy free lists disagree on allocated pages")
        stats.append(kernel_stats(kernel))
        record.setup_s += meter.reference_seconds(*timing.setup)
        record.loop_s += meter.reference_seconds(*timing.loop)
        record.epochs += kernel.stats.epochs
        record.faults += kernel.stats.faults
        if kernel.fleet is not None:
            record.fleet_deferred += kernel.fleet.deferred
            record.fleet_oom_kills += kernel.fleet.oom_kills
    if error is None:
        record.result = roundtrip({"result": result, "kernels": stats})
    return record


def run_cells(cells: list[tuple[str, Callable[[], dict]]], probe: KernelProbe,
              recorder: SpanRecorder | None) -> Iteration:
    """Run cell bodies one after another, each under a deadline."""
    meter = probe.meter
    records = []
    meter.sample()
    start = time.perf_counter()
    for cell_id, body in cells:
        if recorder is not None:
            recorder.begin_cell(cell_id)
        reset_sim_state()
        result = error = None
        try:
            with _deadline(CELL_TIMEOUT_S):
                result = body()
        except Exception:
            error = traceback.format_exc(limit=6)
        meter.sample()
        records.append(_record(cell_id, result, error, probe.take(), meter))
    return Iteration(start, time.perf_counter(), records)


# --------------------------------------------------------------------- #
# frag-promote                                                          #
# --------------------------------------------------------------------- #

FRAG_CELLS = (("cg.D", "hawkeye-g"), ("cg.D", "linux-4kb"),
              ("graph500", "hawkeye-g"))


def frag_promote_cell(case: str, policy: str, seed: int) -> dict:
    """The fig5 body, with the fragmenter seeded and epochs stepped here."""
    kernel = make_kernel(96 * GB, policy, SCALE)
    kernel.fragmenter = Fragmenter(kernel.buddy, seed=FRAGMENTER_SEED + seed)
    fmfi = fragment(kernel)
    work_us = FIG5_WORK_S * SEC
    workload = (Graph500(scale=SCALE.factor, work_us=work_us)
                if case == "graph500" else
                NPBWorkload(case, scale=SCALE.factor, work_us=work_us))
    run = kernel.spawn(workload)
    epochs = 0
    while kernel.active_runs() and epochs < FIG5_MAX_EPOCHS:
        kernel.run_epoch()
        epochs += 1
    if not run.finished:
        raise RuntimeError(f"{case}/{policy} did not finish within "
                           f"{FIG5_MAX_EPOCHS} epochs")
    return {
        "time_s": run.elapsed_us / SEC,
        "promotions": int(run.proc.stats.promotions),
        "fmfi_after_fragment": fmfi,
    }


# --------------------------------------------------------------------- #
# fleet-churn                                                           #
# --------------------------------------------------------------------- #

#: (case, arrival-rate multiplier, simulated epochs).  A fixed epoch
#: count, about what 1000 lifetimes take at seed 0, keeps the work per
#: run steady across seeds: the epochs the registry's run-to-1000-exits
#: rule needs vary from 240 to 381 at 4x over seeds 0-7.
FLEET_CELLS = (("arrival-1x", 1.0, 540), ("arrival-4x", 4.0, 320))
FLEET_POLICY = "hawkeye-g"


def fleet_churn_cell(case: str, rate_mult: float, epochs: int, seed: int) -> dict:
    """The fleet body under hawkeye-g with the batch-* cap, seed offset."""
    kernel = make_kernel(FLEET_MEM_FULL, FLEET_POLICY, SCALE, boot_zeroed=True)
    spec = FleetSpec(
        rate_per_s=BASE_RATE_PER_S * rate_mult,
        seed=(fleet_registry_seed(case, FLEET_POLICY) + seed) % 2**32,
        group_limits={"batch-*": BATCH_GROUP_CAP},
    )
    manager = FleetManager(kernel, spec, scale_factor=SCALE.factor)
    ran = drive_fleet(kernel, manager, target_lifetimes=2**62, max_epochs=epochs)
    result = fleet_result(kernel, manager, ran)
    by_class = sum(c["oom_kills"] for c in result["classes"].values())
    if by_class != result["oom_kills"]:
        raise RuntimeError(f"{case}: OOM kills {result['oom_kills']} != "
                           f"per-class sum {by_class}")
    return result


# --------------------------------------------------------------------- #
# workloads                                                             #
# --------------------------------------------------------------------- #


@dataclass
class Workload:
    """A named cell list the benchmark times as one unit (an iteration)."""

    name: str
    why: str
    #: whether the seed changes simulated results (if not, the committed
    #: reference applies at every seed).
    seeded: bool
    #: whether capture (trace/audit/heat/telemetry) is attached.
    observers: bool
    #: runs the cell list once.
    iterate: Callable[["RunContext", SpanRecorder | None], Iteration]
    #: runs once before the first iteration (untimed).
    prepare: Callable[["RunContext"], None] | None = None


@dataclass
class RunContext:
    """State one benchmark run shares across its iterations."""

    seed: int
    probe: KernelProbe
    work_dir: Path
    baseline_path: Path
    #: sweep-capture: cell_id -> uncaptured ``execute_cell`` record.
    uncaptured: dict[str, CellRecord] = field(default_factory=dict)


def _frag_iterate(ctx: RunContext, recorder):
    return run_cells(
        [(f"frag-promote/{case}:{policy}",
          lambda case=case, policy=policy: frag_promote_cell(case, policy, ctx.seed))
         for case, policy in FRAG_CELLS],
        ctx.probe, recorder)


def _fleet_iterate(ctx: RunContext, recorder):
    return run_cells(
        [(f"fleet-churn/{case}:{FLEET_POLICY}",
          lambda case=case, mult=mult, epochs=epochs:
              fleet_churn_cell(case, mult, epochs, ctx.seed))
         for case, mult, epochs in FLEET_CELLS],
        ctx.probe, recorder)


FAULT_STORM_CELLS = tuple(
    [Cell("tab1", "alloc-touch-free", p) for p in ("linux-4kb", "linux-2mb", "hawkeye-g")]
    + [Cell("tab8", case, p)
       for case in ("sparsehash", "redis-bulk", "kvm-spinup")
       for p in ("linux-4kb", "hawkeye-g")])


def _shuffled(cells, seed: int) -> list:
    cells = list(cells)
    random.Random(seed).shuffle(cells)
    return cells


def _fault_storm_iterate(ctx: RunContext, recorder):
    return run_cells(
        [(cell.cell_id, lambda cell=cell: execute_cell(cell))
         for cell in _shuffled(FAULT_STORM_CELLS, ctx.seed)],
        ctx.probe, recorder)


def sweep_cells(seed: int) -> list[Cell]:
    """The CI grid in a seed-shuffled order (results are order-independent)."""
    return _shuffled(parse_selectors(list(SWEEP_SELECTORS)), seed)


def _sweep_prepare(ctx: RunContext) -> None:
    """Run the grid uncaptured once; captured results must equal these."""
    source_digest()  # memoised: keep the source hash out of the first sweep
    done = run_cells([(c.cell_id, lambda c=c: execute_cell(c))
                      for c in sweep_cells(ctx.seed)], ctx.probe, None)
    ctx.uncaptured = {record.cell_id: record for record in done.records}


def _sweep_iterate(ctx: RunContext, recorder):
    """One captured ``run_sweep`` of the grid into a fresh cache.

    Only ``run_sweep`` is timed; the regression gate runs afterwards.
    """
    cache_dir = ctx.work_dir / "sweep-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    ctx.probe.meter.sample()
    cells = sweep_cells(ctx.seed)
    start = time.perf_counter()
    report = run_sweep(cells, jobs=1, timeout_s=CELL_TIMEOUT_S,
                       retries=0, cache=cache)
    end = time.perf_counter()
    ctx.probe.meter.sample()
    timings: dict[str, list[KernelTiming]] = {}
    for timing in ctx.probe.take():
        timings.setdefault(timing.cell_id, []).append(timing)
    records = [
        _record(o.cell.cell_id, o.result, None if o.good else (o.error or o.status),
                timings.get(o.cell.cell_id, []), ctx.probe.meter)
        for o in report.outcomes
    ]
    regression = compare(load_baseline(ctx.baseline_path), cache)
    gated = {c.cell_id: c for c in regression.cells}
    for record in records:
        verdict = gated.get(record.cell_id)
        if verdict is not None and verdict.status not in ("pass", "warn", "new"):
            flagged = ", ".join(d.describe() for d in verdict.flagged()[:3])
            record.problems.append(
                f"regression gate against the ci-smoke baseline: "
                f"{verdict.status} {flagged}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    return Iteration(start, end, records)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("frag-promote",
                 "fig5 fragmented start: fragmenter, buddy per-block frees, "
                 "kcompactd and promotion; no group caps",
                 seeded=True, observers=False, iterate=_frag_iterate),
        Workload("fleet-churn",
                 "1000+ tenant lifetimes at 1x and 4x arrivals: spawn, fault, "
                 "exit, group-cap checks, deferral and OOM kills",
                 seeded=True, observers=False, iterate=_fleet_iterate),
        Workload("fault-storm",
                 "tab1/tab8 fault-bound cells on an unfragmented machine: "
                 "batched fault path, extent allocation, range frees",
                 seeded=False, observers=False, iterate=_fault_storm_iterate),
        Workload("sweep-capture",
                 "the 26-cell CI grid through run_sweep with capture armed: "
                 "observers, runner, cache and NUMA cells",
                 seeded=False, observers=True, iterate=_sweep_iterate,
                 prepare=_sweep_prepare),
    )
}
