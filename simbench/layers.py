"""Which calls the traced run wraps, and the per-layer metrics it reports.

Every layer is named after its module.  Each wrapped call records a
span (see ``spans.py``); a few also add counts measured at the same
boundary — failed allocations, pages moved against the budget, pages
faulted, promotions that succeeded, limit refusals — so the ratios are
taken where the work happens.
"""

from __future__ import annotations

from simbench.spans import SpanRecorder
from simbench.speed import SpeedMeter
from simbench.stats import percentile

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("mem.fragmentation.fragment.self_s", "s"),
    ("mem.buddy.try_alloc.calls", "count"),
    ("mem.buddy.try_alloc.self_s", "s"),
    ("mem.buddy.try_alloc.fail_ratio", "ratio"),
    ("mem.buddy.try_alloc_run_extent.calls", "count"),
    ("mem.buddy.try_alloc_run_extent.self_s", "s"),
    ("mem.buddy.free.calls", "count"),
    ("mem.buddy.free.self_s", "s"),
    ("mem.buddy.free_range.calls", "count"),
    ("mem.buddy.free_range.self_s", "s"),
    ("mem.compaction.run.calls", "count"),
    ("mem.compaction.run.self_s", "s"),
    ("mem.compaction.run.pages_moved", "pages"),
    ("mem.compaction.run.yield", "ratio"),
    ("kernel.run_epoch.calls", "count"),
    ("kernel.run_epoch.self_s", "s"),
    ("kernel.run_epoch.p50_ms", "ms"),
    ("kernel.run_epoch.p99_ms", "ms"),
    ("kernel.fault.calls", "count"),
    ("kernel.fault.self_s", "s"),
    ("kernel.fault_range.calls", "count"),
    ("kernel.fault_range.pages", "pages"),
    ("kernel.fault_range.self_s", "s"),
    ("kernel.madvise_free.self_s", "s"),
    ("kernel.promote_region.calls", "count"),
    ("kernel.promote_region.self_s", "s"),
    ("kernel.promote_region.ok_ratio", "ratio"),
    ("kernel.exit_process.calls", "count"),
    ("kernel.exit_process.self_s", "s"),
    ("kernel.spawn.calls", "count"),
    ("workloads.step.calls", "count"),
    ("workloads.step.self_s", "s"),
    ("policies.on_epoch.self_s", "s"),
    ("policies.on_sample.calls", "count"),
    ("policies.on_sample.self_s", "s"),
    ("core.limits.may_promote.calls", "count"),
    ("core.limits.may_promote.self_s", "s"),
    ("core.limits.may_promote.refusal_ratio", "ratio"),
    ("fleet.on_epoch.self_s", "s"),
    ("fleet.deferred", "count"),
    ("fleet.oom_kills", "count"),
    ("numa.on_epoch.self_s", "s"),
    ("numa.on_sample.self_s", "s"),
    ("trace.emit.calls", "count"),
    ("trace.emit.self_s", "s"),
    ("audit.on_alloc.calls", "count"),
    ("audit.on_alloc.self_s", "s"),
    ("audit.record.calls", "count"),
    ("audit.record.self_s", "s"),
    ("audit.decide.calls", "count"),
    ("heat.on_sample.self_s", "s"),
    ("telemetry.on_epoch.self_s", "s"),
    ("runner.execute_cell.self_s", "s"),
    ("runner.cache.put.self_s", "s"),
    ("runner.end_capture.self_s", "s"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_s", "s"),
)

#: the speed meter's calibrations (benchmark work, not simulator work).
CALIBRATION_SPAN = "simbench.calibration"

#: observer entry points: no calls unless capture is armed.
OBSERVER_SPANS = ("trace.emit", "audit.on_alloc", "heat.on_sample",
                  "telemetry.on_epoch")


def _count(key: str, test):
    def post(counters, result, args):
        if test(result):
            counters[key] += 1
    return post


def _compaction_post(counters, result, args):
    counters["mem.compaction.run.pages_moved"] += result.pages_moved
    counters["mem.compaction.run.budget"] += args[1]


def _fault_range_post(counters, result, args):
    counters["kernel.fault_range.pages"] += result[1]


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public calls (undo with ``recorder.uninstall``)."""
    from repro import audit, heat, trace
    from repro.core.limits import HugePageLimits
    from repro.fleet.manager import FleetManager
    from repro.kernel.kernel import Kernel
    from repro.mem.buddy import BuddyAllocator
    from repro.mem.compaction import Compactor
    from repro.mem.fragmentation import Fragmenter
    from repro.metrics import telemetry
    from repro.numa.balance import NumaState
    from repro.policies.base import HugePagePolicy
    from repro.runner import cache, registry
    from repro.workloads.base import WorkloadRun

    put = recorder.install
    put(Fragmenter, "fragment", "mem.fragmentation.fragment")
    put(BuddyAllocator, "try_alloc", "mem.buddy.try_alloc",
        post=_count("mem.buddy.try_alloc.fails", lambda r: r is None))
    put(BuddyAllocator, "try_alloc_run_extent", "mem.buddy.try_alloc_run_extent")
    put(BuddyAllocator, "free", "mem.buddy.free")
    put(BuddyAllocator, "free_range", "mem.buddy.free_range")
    put(Compactor, "run", "mem.compaction.run", post=_compaction_post)
    put(Kernel, "run_epoch", "kernel.run_epoch")
    put(Kernel, "fault", "kernel.fault")
    put(Kernel, "fault_range", "kernel.fault_range", post=_fault_range_post)
    put(Kernel, "madvise_free", "kernel.madvise_free")
    put(Kernel, "promote_region", "kernel.promote_region",
        post=_count("kernel.promote_region.ok", lambda r: r is not None))
    put(Kernel, "exit_process", "kernel.exit_process")
    put(Kernel, "spawn", "kernel.spawn")
    put(WorkloadRun, "step", "workloads.step")
    for cls in _policy_classes(HugePagePolicy):
        for hook in ("on_epoch", "on_sample"):
            if hook in cls.__dict__:
                put(cls, hook, f"policies.{hook}")
    put(HugePageLimits, "may_promote", "core.limits.may_promote",
        post=_count("core.limits.may_promote.refused", lambda r: not r))
    put(FleetManager, "on_epoch", "fleet.on_epoch")
    put(NumaState, "on_epoch", "numa.on_epoch")
    put(NumaState, "on_sample", "numa.on_sample")
    put(trace.Tracer, "emit", "trace.emit")
    put(audit.FrameLedger, "on_alloc", "audit.on_alloc")
    put(audit.FrameLedger, "record", "audit.record")
    put(audit.AuditLog, "decide", "audit.decide")
    put(heat.HeatMonitor, "on_sample", "heat.on_sample")
    put(telemetry.TelemetrySampler, "on_epoch", "telemetry.on_epoch")
    put(registry, "execute_cell", "runner.execute_cell",
        cell_label=lambda args: args[0].cell_id)
    put(cache.ResultCache, "put", "runner.cache.put")
    put(telemetry, "end_capture", "runner.end_capture")
    # The speed meter calibrates between epochs, inside kernel.run_epoch
    # (and between sweep cells, inside runner.execute_cell): as a span of
    # its own, its time drops out of those layers' self time, and
    # ``metrics`` leaves it out of the epoch durations.
    put(SpeedMeter, "sample", CALIBRATION_SPAN)


def _policy_classes(base: type) -> list[type]:
    """``base`` and every subclass of it, each once."""
    import repro.experiments  # noqa: F401  (imports every policy module)

    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(recorder: SpanRecorder, iterations: int, fleet_deferred: float,
            fleet_oom_kills: float, traced_wall_s: float,
            untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric, per traced iteration (percentiles pooled).

    ``fleet_*`` are the simulated counters summed over the traced
    iterations; the wall times are medians over the run's iterations.
    """
    totals = recorder.totals(excluded=(CALIBRATION_SPAN,))
    counters = recorder.counters
    per = 1.0 / max(iterations, 1)
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        span = totals.get(layer)
        if stat == "calls":
            out[name] = span["calls"] * per if span else 0.0
        elif stat == "self_s":
            out[name] = span["self_s"] * per if span else 0.0
    epochs = totals.get("kernel.run_epoch")
    durations = epochs["durations"] if epochs else []
    out["kernel.run_epoch.p50_ms"] = (
        percentile(durations, 50.0) * 1e3 if len(durations) else 0.0)
    out["kernel.run_epoch.p99_ms"] = (
        percentile(durations, 99.0) * 1e3 if len(durations) else 0.0)

    def calls(layer: str) -> float:
        span = totals.get(layer)
        return span["calls"] if span else 0

    out["mem.buddy.try_alloc.fail_ratio"] = _ratio(
        counters["mem.buddy.try_alloc.fails"], calls("mem.buddy.try_alloc"))
    out["mem.compaction.run.pages_moved"] = (
        counters["mem.compaction.run.pages_moved"] * per)
    out["mem.compaction.run.yield"] = _ratio(
        counters["mem.compaction.run.pages_moved"],
        counters["mem.compaction.run.budget"])
    out["kernel.fault_range.pages"] = counters["kernel.fault_range.pages"] * per
    out["kernel.promote_region.ok_ratio"] = _ratio(
        counters["kernel.promote_region.ok"], calls("kernel.promote_region"))
    out["core.limits.may_promote.refusal_ratio"] = _ratio(
        counters["core.limits.may_promote.refused"],
        calls("core.limits.may_promote"))
    out["fleet.deferred"] = fleet_deferred * per
    out["fleet.oom_kills"] = fleet_oom_kills * per
    out["tracing.wall_s"] = traced_wall_s
    out["tracing.overhead_s"] = traced_wall_s - untraced_wall_s
    return out


def observer_calls(recorder: SpanRecorder) -> dict[str, int]:
    """Calls into each observer entry point over the traced iterations."""
    totals = recorder.totals()
    return {name: (totals[name]["calls"] if name in totals else 0)
            for name in OBSERVER_SPANS}
