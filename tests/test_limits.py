"""Unit tests for huge-page limits (§3.5 starvation extension)."""

import pytest

from repro.core.hawkeye import HawkEyePolicy
from repro.core.limits import HugePageLimits
from repro.kernel.kernel import Kernel
from repro.units import MB, PAGES_PER_HUGE
from repro.vm.process import Process
from tests.conftest import small_config
from tests.test_fault import make_proc


def test_exact_and_prefix_limits():
    limits = HugePageLimits({"redis": 4, "batch-*": 2})
    redis = Process("redis")
    batch = Process("batch-7")
    other = Process("other")
    assert limits.limit_for(redis) == 4
    assert limits.limit_for(batch) == 2
    assert limits.limit_for(other) is None


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        HugePageLimits({"x": -1})


def test_may_promote_counts_held_pages():
    limits = HugePageLimits({"p": 2})
    proc = Process("p")
    assert limits.may_promote(proc)
    proc.page_table.map_huge(1, 512)
    proc.page_table.map_huge(2, 1024)
    assert not limits.may_promote(proc)
    assert limits.refusals == 1


def test_exact_beats_prefix():
    limits = HugePageLimits({"svc-*": 1, "svc-db": 10})
    assert limits.limit_for(Process("svc-db")) == 10
    assert limits.limit_for(Process("svc-web")) == 1


def test_hawkeye_fault_path_respects_limit():
    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g", huge_page_limits={"t": 1}),
    )
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    kernel.fault(proc, vma.start)  # first region: huge allowed
    assert proc.stats.huge_faults == 1
    kernel.fault(proc, vma.start + PAGES_PER_HUGE)  # cap reached: base
    assert proc.stats.huge_faults == 1
    assert kernel.policy.limits.refusals >= 1


def test_unlimited_by_default():
    kernel = Kernel(small_config(64), lambda k: HawkEyePolicy(k, variant="g"))
    assert kernel.policy.limits is None


# --------------------------------------------------------------------- #
# group caps (cgroup-style, summed across live members)                  #
# --------------------------------------------------------------------- #


def _named_proc(kernel, name, nbytes=8 * MB):
    from repro.tlb.perf import PMUCounters

    proc = Process(name)
    kernel.processes.append(proc)
    kernel.pmu[proc.pid] = PMUCounters()
    vma = kernel.mmap(proc, nbytes, "heap")
    return proc, vma


def test_group_cap_sums_across_members():
    limits = HugePageLimits(group_limits={"svc-*": 2})
    a, b = Process("svc-a"), Process("svc-b")
    assert limits.may_promote(a)
    a.page_table.map_huge(1, 512)
    assert limits.may_promote(b)
    b.page_table.map_huge(40, 1024)
    # the group now holds 2 huge pages in total: both members blocked.
    assert not limits.may_promote(a)
    assert not limits.may_promote(b)
    assert limits.refusals == 2
    assert limits.group_refusals == 2
    assert limits.group_stats() == {"svc-": (2, 2)}


def test_group_cap_exact_name_spelling_equivalent():
    with_star = HugePageLimits(group_limits={"svc-*": 1})
    without = HugePageLimits(group_limits={"svc-": 1})
    assert with_star.group_stats() == without.group_stats()


def test_group_cap_restart_churn_does_not_leak():
    """Satellite: a killed-and-restarted tenant must not pin its old
    holdings against the group cap."""
    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g",
                                huge_page_group_limits={"svc-*": 1}),
    )
    limits = kernel.policy.limits
    proc, vma = _named_proc(kernel, "svc-a")
    kernel.fault(proc, vma.start)
    assert proc.stats.huge_faults == 1
    assert limits.group_held("svc-") == 1
    # cap reached: a sibling is refused.
    sibling, svma = _named_proc(kernel, "svc-b")
    kernel.fault(sibling, svma.start)
    assert sibling.stats.huge_faults == 0
    assert limits.group_refusals >= 1

    # kill-and-restart churn: teardown must free the group budget...
    kernel.exit_process(proc)
    assert limits.group_held("svc-") == 0
    # ...so the restarted incarnation gets the huge page again.
    fresh, fvma = _named_proc(kernel, "svc-a")
    kernel.fault(fresh, fvma.start)
    assert fresh.stats.huge_faults == 1
    assert limits.group_held("svc-") == 1


def test_group_cap_restart_churn_unbound_registry():
    """Same property without a kernel: teardown's clear uncharges."""
    limits = HugePageLimits(group_limits={"svc-*": 1})
    old = Process("svc-a")
    assert limits.may_promote(old)
    old.page_table.map_huge(1, 512)
    assert not limits.may_promote(old)
    old.finished = True  # torn down: page table cleared, run finished
    old.page_table.clear()
    fresh = Process("svc-a")
    assert limits.may_promote(fresh)
    assert limits.group_held("svc-") == 0


def test_fleet_caps_join_existing_limits_while_tenants_hold_huge_pages():
    """FleetManager installs a group cap into HawkEye limits that already
    exist: the new group's counter starts at the tenants' holdings."""
    from repro.fleet import FleetManager, FleetSpec
    from tests.test_prop_limits import Idle

    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g",
                                huge_page_limits={"web-*": 8}),
    )
    limits = kernel.policy.limits
    procs = {}
    for name in ("batch-1", "batch-2", "web-1"):
        proc = kernel.spawn(Idle(), name=name).proc
        vma = kernel.mmap(proc, 4 * MB, "heap")
        kernel.fault(proc, vma.start)
        kernel.fault(proc, vma.start + PAGES_PER_HUGE)
        assert proc.stats.huge_faults == 2
        procs[name] = proc
    FleetManager(kernel, FleetSpec(group_limits={"batch-*": 3}),
                 scale_factor=1 / 128)
    assert kernel.policy.limits is limits
    assert kernel.policy.engine.limits is limits
    assert limits.group_stats() == {"batch-": (4, 3)}
    assert not limits.may_promote(procs["batch-2"])
    assert limits.may_promote(procs["web-1"])
    assert limits.limit_for(procs["web-1"]) == 8
    kernel.exit_process(procs["batch-1"])
    assert limits.group_held("batch-") == 2
    assert limits.may_promote(procs["batch-2"])


def test_refusal_names_the_cap_that_refused():
    limits = HugePageLimits({"svc-db": 1}, group_limits={"svc-*": 2})
    db, web = Process("svc-db"), Process("svc-web")
    db.page_table.map_huge(1, 512)
    assert not limits.may_promote(db)
    assert limits.refusal(db) == ("limit_cap", {"limit": 1, "held": 1})
    web.page_table.map_huge(1, 1024)
    assert not limits.may_promote(web)
    assert limits.refusal(web) == (
        "group_cap", {"group": "svc-", "held": 2, "cap": 2})
    assert limits.refusals == 2 and limits.group_refusals == 1


def test_audit_records_group_refusals_as_group_cap():
    """A group-cap refusal is audited with the group's numbers; a
    per-process refusal keeps ``limit_cap`` with the process's."""
    from repro import audit

    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g", huge_page_limits={"t": 0},
                                huge_page_group_limits={"svc-*": 1}),
    )
    log = audit.attach(kernel)
    capped, cvma = make_proc(kernel, nbytes=4 * MB)
    kernel.fault(capped, cvma.start)
    first, fvma = _named_proc(kernel, "svc-a")
    kernel.fault(first, fvma.start)
    second, svma = _named_proc(kernel, "svc-b")
    kernel.fault(second, svma.start)
    audit.detach(kernel)
    refused = {d.pid: d for d in log.decisions_for(point="fault_size")}
    assert set(refused) == {capped.pid, second.pid}
    assert refused[capped.pid].reason == "limit_cap"
    assert refused[capped.pid].inputs == {"limit": 0, "held": 0}
    assert refused[second.pid].reason == "group_cap"
    assert refused[second.pid].inputs == {"group": "svc-", "held": 1, "cap": 1}
    assert log.rejections["fault_size"] == {"limit_cap": 1, "group_cap": 1}


def test_limits_telemetry_family():
    """Satellite: refusals and group held/cap surface as limits.* metrics."""
    from repro.metrics import telemetry as tmod

    kernel = Kernel(
        small_config(64),
        lambda k: HawkEyePolicy(k, variant="g",
                                huge_page_limits={"t": 0},
                                huge_page_group_limits={"svc-*": 3}),
    )
    sampler = tmod.attach(kernel)
    proc, vma = make_proc(kernel, nbytes=8 * MB)
    kernel.fault(proc, vma.start)  # cap 0: refused, falls back to base
    assert proc.stats.huge_faults == 0
    kernel.run_epochs(2)
    art = sampler.telemetry()
    tmod.detach(kernel)
    counters = art.scrapes[-1]["counters"]["limit_refusals_total"]
    assert counters["kind=total"] >= 1
    gauges = art.scrapes[-1]["gauges"]
    assert gauges["limit_group_cap"]["group=svc-"] == 3
    assert gauges["limit_group_held"]["group=svc-"] == 0


def test_no_limits_no_telemetry_family():
    """Zero-cost contract: limitless kernels scrape no limits.* family."""
    from repro.metrics import telemetry as tmod

    kernel = Kernel(small_config(64), lambda k: HawkEyePolicy(k, variant="g"))
    sampler = tmod.attach(kernel)
    kernel.run_epochs(2)
    art = sampler.telemetry()
    tmod.detach(kernel)
    assert "limit_refusals_total" not in art.scrapes[-1]["counters"]
    assert "limit_group_held" not in art.scrapes[-1]["gauges"]
