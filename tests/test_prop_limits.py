"""Property test: incremental group counters agree with a full rescan.

``HugePageLimits`` keeps one counter cell per group, charged by the page
table wherever a member's huge-mapping count changes.  The oracle here is
the definition those cells replace: a group holds the summed
count of huge-mapped regions of every live process whose name starts with
its prefix, and a process may receive one more huge page unless its own
cap or one of its groups' caps is reached.

The machine drives a HawkEye kernel with group caps on two overlapping
prefixes (``svc-`` and ``svc-db``) and a per-process cap on a third
(``web-``) through spawns, huge faults, base-only faults followed by a
direct ``promote_region`` (a process that never passes ``may_promote``),
demotions, ``madvise`` frees, a natural workload finish that leaves the
process live, exits and late ``set_group_limit`` calls.  Every verdict
the kernel asks for is compared with the oracle's at the moment it is
asked, and every group's counter is compared with the rescan after each
step.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.hawkeye import HawkEyePolicy
from repro.kernel.kernel import Kernel
from repro.units import PAGES_PER_HUGE
from repro.vm.vma import HugePageHint
from repro.workloads.base import Workload
from tests.conftest import small_config

NAMES = ("svc-a", "svc-db1", "svc-db2", "web-1", "web-2")
REGIONS = 4
MAX_LIVE = 5


class Idle(Workload):
    """No phases: the first step finishes the run, the process stays live."""

    name = "idle"

    def build_phases(self):
        return []


def rescan_verdict(kernel, caps, group_caps, proc) -> bool:
    """``may_promote`` by definition: rescan every live process."""
    huge = proc.page_table.huge_hvpns().size
    if proc.name in caps:
        cap = caps[proc.name]
    else:
        matches = [c for p, c in caps.items()
                   if p.endswith("*") and proc.name.startswith(p[:-1])]
        cap = min(matches) if matches else None
    if cap is not None and huge >= cap:
        return False
    for prefix, group_cap in group_caps.items():
        if proc.name.startswith(prefix) and \
                rescan_held(kernel, prefix) >= group_cap:
            return False
    return True


def rescan_held(kernel, prefix: str) -> int:
    return sum(q.page_table.huge_hvpns().size for q in kernel.processes
               if q.name.startswith(prefix))


class GroupLimitMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.caps = {"web-*": 2}
        self.group_caps = {"svc-": 3, "svc-db": 1}
        self.kernel = Kernel(
            small_config(128),
            lambda k: HawkEyePolicy(
                k, variant="g", huge_page_limits=dict(self.caps),
                huge_page_group_limits={"svc-*": 3, "svc-db*": 1}),
        )
        self.limits = self.kernel.policy.limits
        self.runs = []
        #: pids whose faults stay base-only (NOHUGEPAGE around each touch).
        self.quiet: set[int] = set()
        #: pids the kernel asked ``may_promote`` about.
        self.asked: set[int] = set()
        real = self.limits.may_promote

        def checked(proc):
            want = rescan_verdict(self.kernel, self.caps, self.group_caps, proc)
            got = real(proc)
            self.asked.add(proc.pid)
            assert got == want, (proc.name, got, want)
            return got

        self.limits.may_promote = checked

    def _pick(self, idx):
        return self.runs[idx % len(self.runs)]

    @precondition(lambda self: len(self.runs) < MAX_LIVE)
    @rule(name=st.sampled_from(NAMES), quiet=st.booleans())
    def spawn(self, name, quiet):
        run = self.kernel.spawn(Idle(), name=name)
        self.kernel.mmap(run.proc, REGIONS * PAGES_PER_HUGE * 4096, "heap")
        if quiet:
            self.quiet.add(run.proc.pid)
            self.kernel.madvise_hugepage(run.proc, "heap", HugePageHint.NEVER)
        self.runs.append(run)

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1), region=st.integers(0, REGIONS - 1),
          offset=st.integers(0, PAGES_PER_HUGE - 1))
    def fault(self, idx, region, offset):
        proc = self._pick(idx).proc
        vma = self.kernel.find_vma(proc, "heap")
        self.kernel.fault(proc, vma.start + region * PAGES_PER_HUGE + offset)

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1), region=st.integers(0, REGIONS - 1))
    def fill_and_promote(self, idx, region):
        """Fault a whole region in (base pages for quiet processes), then
        promote it directly, bypassing ``may_promote``."""
        proc = self._pick(idx).proc
        vma = self.kernel.find_vma(proc, "heap")
        vpn0 = vma.start + region * PAGES_PER_HUGE
        for vpn in range(vpn0, vpn0 + PAGES_PER_HUGE, 64):
            self.kernel.fault(proc, vpn)
        if proc.pid in self.quiet:
            vma.hint = HugePageHint.DEFAULT
        self.kernel.promote_region(proc, vpn0 >> 9)
        if proc.pid in self.quiet:
            vma.hint = HugePageHint.NEVER

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1), region=st.integers(0, REGIONS - 1))
    def demote(self, idx, region):
        proc = self._pick(idx).proc
        hvpn = (self.kernel.find_vma(proc, "heap").start >> 9) + region
        if proc.page_table.huge_frame_of(hvpn) >= 0:
            self.kernel.demote_region(proc, hvpn)

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1),
          offset=st.integers(0, REGIONS * PAGES_PER_HUGE - 1),
          npages=st.integers(1, 2 * PAGES_PER_HUGE))
    def madvise(self, idx, offset, npages):
        proc = self._pick(idx).proc
        vma = self.kernel.find_vma(proc, "heap")
        npages = min(npages, vma.npages - offset)
        self.kernel.madvise_free(proc, vma.start + offset, npages)

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1))
    def finish(self, idx):
        run = self._pick(idx)
        run.step(self.kernel.config.epoch_us)
        assert run.finished and run.proc in self.kernel.processes

    @precondition(lambda self: self.runs)
    @rule(idx=st.integers(0, MAX_LIVE - 1))
    def exit(self, idx):
        run = self.runs.pop(idx % len(self.runs))
        self.kernel.exit_process(run.proc)

    @rule(pattern=st.sampled_from(("svc-*", "svc-db*", "web-", "web-2*")),
          cap=st.integers(0, 4))
    def set_group_limit(self, pattern, cap):
        self.limits.set_group_limit(pattern, cap)
        self.group_caps[pattern.rstrip("*")] = cap

    @invariant()
    def counters_match_rescan(self):
        for prefix in self.group_caps:
            assert self.limits.group_held(prefix) == \
                rescan_held(self.kernel, prefix), prefix
        assert self.limits.group_stats() == {
            prefix: (rescan_held(self.kernel, prefix), cap)
            for prefix, cap in sorted(self.group_caps.items())}

    @invariant()
    def verdicts_match_rescan(self):
        for run in self.runs:
            proc = run.proc
            if proc.pid in self.quiet:
                assert proc.pid not in self.asked
                continue
            self.limits.may_promote(proc)


GroupLimitMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestGroupLimits = GroupLimitMachine.TestCase
