"""Timeline executor: drive the kernel epoch loop from a Scenario.

``run_scenario_case`` executes one (case, policy) grid point of a
validated :class:`~repro.scenario.schema.Scenario` and returns a
JSON-able result; ``register_scenario`` wraps that in a registry
:class:`~repro.runner.registry.Experiment` whose cells flow through the
sweep scheduler, content-addressed cache (the scenario digest joins the
cache key via ``Experiment.key_material``), telemetry capture,
regression gate and HTML report exactly like the hand-written adapters.

Within a phase, actions apply in a fixed documented order —
kill, restart, spawn, hog, balloon, node_pressure, fragment — then the
kernel runs ``run_s`` epochs.  After the last phase the timeline
optionally drains (runs until every workload finishes, bounded by
``max_epochs`` total) and the scenario's assertions are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import OutOfMemoryError
from repro.experiments import (
    Scale,
    make_kernel,
    rss_bytes,
    useful_bytes,
)
from repro.scenario.schema import (
    Scenario,
    ScenarioError,
    SpawnSpec,
    load_scenario,
)
from repro.units import GB, MB, SEC

#: frame-table owner id for balloon-held frames (cf. the fragmenter's
#: FILE_CACHE_OWNER = -2); balloon frames are not reclaimable.
BALLOON_OWNER = -3


@dataclass
class _ManagedProcess:
    """One scenario-managed process: its spec, live handle and history."""

    name: str
    workload: str
    spawn: SpawnSpec | None          # None for hogs
    hog_gb: float = 0.0
    hog_hold_s: float = 0.0
    node: int | None = None
    run: object = None               # WorkloadRun
    alive: bool = False
    restarts: int = 0
    #: faults accumulated by incarnations that were torn down.
    prior_faults: int = 0


@dataclass
class _Timeline:
    """Mutable execution state for one (case, policy) grid point."""

    kernel: object
    scale: Scale
    processes: dict[str, _ManagedProcess] = field(default_factory=dict)
    balloon_frames: list[int] = field(default_factory=list)
    pressure_frames: list[int] = field(default_factory=list)
    fleet: object = None             # FleetManager once a fleet action ran
    oom: bool = False


def _make_mempolicy(kind: str | None, node: int | None):
    if kind is None:
        return None
    from repro.numa.mempolicy import MemPolicy, MemPolicyKind

    mp_kind = MemPolicyKind(kind)
    if mp_kind in (MemPolicyKind.PREFERRED, MemPolicyKind.BIND):
        return MemPolicy(mp_kind, node=node if node is not None else 0)
    return MemPolicy(mp_kind)


def _spawn_one(tl: _Timeline, name: str, spec: SpawnSpec) -> None:
    from repro.workloads.catalog import make_workload

    workload = make_workload(spec.workload, tl.scale.factor)
    run = tl.kernel.spawn(workload, name=name, node=spec.node,
                          mempolicy=_make_mempolicy(spec.mempolicy, spec.node))
    managed = tl.processes.get(name)
    if managed is None:
        managed = _ManagedProcess(name=name, workload=spec.workload,
                                  spawn=spec, node=spec.node)
        tl.processes[name] = managed
    managed.run = run
    managed.alive = True


def _spawn_hog(tl: _Timeline, hog) -> None:
    from repro.workloads.hog import MemoryHog

    workload = MemoryHog(footprint_bytes=hog.gb * GB,
                         hold_us=hog.hold_s * SEC, scale=tl.scale.factor)
    run = tl.kernel.spawn(workload, name=hog.name, node=hog.node)
    managed = tl.processes.get(hog.name)
    if managed is None:
        managed = _ManagedProcess(name=hog.name, workload="memhog",
                                  spawn=None, hog_gb=hog.gb,
                                  hog_hold_s=hog.hold_s, node=hog.node)
        tl.processes[hog.name] = managed
    managed.run = run
    managed.alive = True


def _kill(tl: _Timeline, name: str) -> None:
    managed = tl.processes[name]
    if managed.alive and managed.run is not None:
        managed.prior_faults += managed.run.proc.stats.faults
        tl.kernel.exit_process(managed.run.proc)
        managed.alive = False


def _restart(tl: _Timeline, name: str) -> None:
    managed = tl.processes[name]
    _kill(tl, name)
    managed.restarts += 1
    if managed.spawn is not None:
        _spawn_one(tl, name, managed.spawn)
    else:
        from repro.scenario.schema import HogSpec

        _spawn_hog(tl, HogSpec(gb=managed.hog_gb, name=name,
                               hold_s=managed.hog_hold_s, node=managed.node))


def _inflate(tl: _Timeline, pages: int, frames: list[int],
             node: int | None = None) -> int:
    """Take ``pages`` order-0 frames straight from the buddy."""
    taken = 0
    kwargs = {} if node is None else {"node": node, "strict": True}
    while taken < pages:
        got = tl.kernel.buddy.try_alloc(0, False, BALLOON_OWNER, **kwargs)
        if got is None:
            break
        frames.append(got[0])
        taken += 1
    return taken


def _release(tl: _Timeline, frames: list[int]) -> None:
    for frame in frames:
        tl.kernel.buddy.free(frame, 0)
    frames.clear()


def _run_epochs(tl: _Timeline, count: int) -> None:
    try:
        tl.kernel.run_epochs(count)
    except OutOfMemoryError:
        tl.oom = True


def _apply_fleet(tl: _Timeline, spec) -> None:
    """First fleet action attaches the manager; later ones re-rate it."""
    if tl.fleet is None:
        from repro.fleet import FleetManager, FleetSpec

        tl.fleet = FleetManager(
            tl.kernel,
            FleetSpec(rate_per_s=spec.rate_per_s, seed=spec.seed,
                      max_tenants=spec.max_tenants),
            scale_factor=tl.scale.factor,
        )
    else:
        tl.fleet.set_rate(spec.rate_per_s)


def _gb_to_pages(tl: _Timeline, gb: float) -> int:
    from repro.units import BASE_PAGE_SIZE

    return max(1, int(tl.scale.bytes(gb * GB)) // BASE_PAGE_SIZE)


def _apply_phase(tl: _Timeline, phase) -> None:
    for name in phase.kill:
        _kill(tl, name)
    for name in phase.restart:
        _restart(tl, name)
    for spec in phase.spawn:
        if spec.count == 1:
            _spawn_one(tl, spec.name, spec)
        else:
            for j in range(spec.count):
                _spawn_one(tl, f"{spec.name}-{j}", spec)
    for hog in phase.hog:
        _spawn_hog(tl, hog)
    if phase.balloon is not None:
        if phase.balloon.release:
            _release(tl, tl.balloon_frames)
        if phase.balloon.gb:
            _inflate(tl, _gb_to_pages(tl, phase.balloon.gb),
                     tl.balloon_frames)
    for pressure in phase.node_pressure:
        _inflate(tl, _gb_to_pages(tl, pressure.gb), tl.pressure_frames,
                 node=pressure.node)
    if phase.fragment is not None:
        tl.kernel.fragmenter.fragment(
            keep_fraction=phase.fragment.keep_fraction,
            target_fmfi=phase.fragment.target_fmfi)
    if phase.fleet is not None:
        _apply_fleet(tl, phase.fleet)
    if phase.run_s and not tl.oom:
        _run_epochs(tl, phase.run_s)


# --------------------------------------------------------------------- #
# measurement + assertions                                               #
# --------------------------------------------------------------------- #


def _process_report(tl: _Timeline, managed: _ManagedProcess) -> dict:
    proc = managed.run.proc
    factor = tl.scale.factor
    rss = rss_bytes(proc) if managed.alive else 0
    useful = useful_bytes(tl.kernel, proc) if managed.alive else 0
    return {
        "workload": managed.workload,
        "alive": managed.alive,
        "finished": bool(managed.run.finished),
        "restarts": managed.restarts,
        "faults": managed.prior_faults + proc.stats.faults,
        "promotions": proc.stats.promotions,
        "rss_mb_full": round(rss / factor / MB, 3),
        "bloat_mb_full": round(max(0, rss - useful) / factor / MB, 3),
        "mmu_overhead": round(proc.mmu_overhead, 6),
    }


def _fault_p99_us(kernel) -> float | None:
    """p99 over the merged fault-latency histograms, or None untraced."""
    from repro.trace import LatencyHistogram, TraceKind

    tracer = kernel.trace
    if tracer is None:
        return None
    merged = LatencyHistogram()
    for kind in (TraceKind.FAULT_BASE, TraceKind.FAULT_HUGE,
                 TraceKind.FAULT_COW):
        hist = tracer.histograms.get(kind)
        if hist is None:
            continue
        merged.count += hist.count
        merged.total_us += hist.total_us
        merged.min_us = min(merged.min_us, hist.min_us)
        merged.max_us = max(merged.max_us, hist.max_us)
        for idx, count in hist.buckets.items():
            merged.buckets[idx] = merged.buckets.get(idx, 0) + count
    if not merged.count:
        return None
    return merged.quantile(0.99)


def _evaluate_assertion(spec, tl: _Timeline, reports: dict,
                        fault_p99: float | None) -> dict:
    record: dict = {"kind": spec.kind}
    if spec.kind == "bloat-ceiling":
        if spec.process is not None:
            record["process"] = spec.process
            actual = reports[spec.process]["bloat_mb_full"]
        else:
            actual = round(sum(r["bloat_mb_full"] for r in reports.values()), 3)
        record.update(actual_mb=actual, limit_mb=spec.max_mb,
                      passed=actual <= spec.max_mb)
    elif spec.kind == "fault-p99":
        actual = fault_p99
        record.update(actual_us=None if actual is None else round(actual, 3),
                      limit_us=spec.max_us,
                      passed=actual is not None and actual <= spec.max_us)
    else:  # fairness-spread
        values = [r[spec.metric] for r in reports.values()]
        positive = [v for v in values if v > 0]
        if len(positive) < 2:
            ratio = 1.0
        else:
            ratio = max(positive) / min(positive)
        record.update(metric=spec.metric, actual_ratio=round(ratio, 4),
                      limit_ratio=spec.max_ratio,
                      passed=ratio <= spec.max_ratio)
    return record


def format_assertion_failure(record: dict) -> str:
    """One failed assertion as a measured-value-vs-threshold sentence.

    The record is one entry of a scenario result's ``assertions`` list
    (see :func:`_evaluate_assertion`); the rendering names the measured
    value and the limit it broke, so a failing
    ``repro sweep run --scenario`` says *what* was out of bounds, not
    just that something was.
    """
    kind = record.get("kind")
    if kind == "bloat-ceiling":
        scope = (f" [{record['process']}]"
                 if record.get("process") is not None else " [total]")
        return (f"bloat-ceiling{scope}: measured {record['actual_mb']} MB "
                f"> limit {record['limit_mb']} MB")
    if kind == "fault-p99":
        if record.get("actual_us") is None:
            return (f"fault-p99: no fault samples recorded "
                    f"(limit {record['limit_us']} us)")
        return (f"fault-p99: measured {record['actual_us']} us "
                f"> limit {record['limit_us']} us")
    if kind == "fairness-spread":
        return (f"fairness-spread[{record.get('metric')}]: measured ratio "
                f"{record['actual_ratio']} > limit {record['limit_ratio']}")
    detail = ", ".join(f"{k}={v}" for k, v in sorted(record.items())
                       if k not in ("kind", "passed"))
    return f"{kind}: {detail}"


# --------------------------------------------------------------------- #
# the grid-point runner + registration                                   #
# --------------------------------------------------------------------- #


def run_scenario_case(scenario: Scenario, case: str, policy: str,
                      scale: Scale) -> dict:
    """Execute one (case, policy) grid point; returns a JSON-able dict."""
    machine = scenario.case(case).machine
    kernel = make_kernel(
        machine.mem_gb * GB, policy, scale,
        numa_nodes=machine.numa_nodes,
        numa_balance=machine.numa_balance,
        swap_bytes_full=machine.swap_gb * GB,
        boot_zeroed=machine.boot_zeroed,
    )
    if any(a.kind == "fault-p99" for a in scenario.assertions):
        from repro import trace

        # telemetry capture may already have attached one (attach is
        # idempotent); warn_on_drop off — histograms are drop-exact.
        trace.attach(kernel, warn_on_drop=False)

    tl = _Timeline(kernel=kernel, scale=scale)
    for phase in scenario.phases:
        if tl.oom:
            break
        _apply_phase(tl, phase)
    if scenario.drain and not tl.oom:
        remaining = scenario.max_epochs - kernel.stats.epochs
        if remaining > 0:
            try:
                kernel.run(max_epochs=remaining)
            except OutOfMemoryError:
                tl.oom = True

    reports = {name: _process_report(tl, managed)
               for name, managed in tl.processes.items()}
    fault_p99 = _fault_p99_us(kernel)
    assertions = [_evaluate_assertion(a, tl, reports, fault_p99)
                  for a in scenario.assertions]
    stats = kernel.stats
    result = {
        "scenario": scenario.name,
        "case": case,
        "policy": policy,
        "epochs": stats.epochs,
        "time_s": round(kernel.now_us / SEC, 3),
        "oom": tl.oom,
        "fmfi": round(kernel.fmfi(), 4),
        "faults": sum(r["faults"] for r in reports.values()),
        "rss_mb_full": round(sum(r["rss_mb_full"] for r in reports.values()), 3),
        "bloat_mb_full": round(sum(r["bloat_mb_full"] for r in reports.values()), 3),
        "processes": reports,
        "assertions": assertions,
        "assertions_passed": all(a["passed"] for a in assertions),
    }
    if fault_p99 is not None:
        result["fault_p99_us"] = round(fault_p99, 3)
    if tl.fleet is not None:
        # conditional key: fleetless scenario results stay byte-identical.
        result["fleet"] = tl.fleet.snapshot()
    return result


def experiment_name(scenario: Scenario) -> str:
    """The registry name scenario cells run under."""
    return f"scn-{scenario.name}"


def register_scenario(scenario: Scenario, replace: bool = True):
    """Register a scenario as a sweep experiment; returns the record.

    The scenario's content digest becomes the experiment's
    ``key_material``, so cached cells are invalidated by scenario edits
    exactly like source edits — and a warm rerun of an unchanged
    scenario is a 100 % cache hit.
    """
    from repro.runner.registry import register

    def run(case: str, policy: str, scale: Scale) -> dict:
        return run_scenario_case(scenario, case, policy, scale)

    return register(
        experiment_name(scenario),
        title=scenario.title,
        cases=scenario.case_names(),
        policies=scenario.policies,
        run=run,
        replace=replace,
        key_material=f"scenario:{scenario.digest}",
    )


def register_scenario_file(path: str | Path):
    """Load, validate and register a scenario file in one step."""
    return register_scenario(load_scenario(path))


def discover_scenarios(directory: str | Path) -> list[Path]:
    """Scenario files under ``directory`` (.yaml/.yml/.json), sorted."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ScenarioError("scenario", f"{directory} is not a directory")
    return sorted(
        path for suffix in ("*.yaml", "*.yml", "*.json")
        for path in directory.glob(suffix)
    )
