"""Huge-page allocation limits (paper §3.5, "huge page starvation").

The paper notes that allocating huge pages purely by MMU overhead lets an
adversarial process monopolise contiguity, and suggests integrating with
resource-limiting tools like cgroups.  This module implements that
extension: a :class:`HugePageLimits` registry caps the number of huge
pages a process (or cgroup of processes) may hold; the promotion engine
skips processes at their cap, and the fault path falls back to base pages
for them.

Limits come in two flavours:

* **per-process caps** — attached to a process name (exact match) or a
  name prefix (``prefix*``); each matching process is individually
  capped.
* **group caps** — attached to a name prefix (``prefix*``), bounding the
  *sum* of huge pages held across every matching process, the way a
  cgroup's ``hugetlb`` controller bounds a subtree.

A process is resolved once, the first time the registry meets it: its
effective per-process cap and the groups it belongs to are fixed then.
Each group owns a :class:`~repro.vm.page_table.HugeCounter` cell that is
attached to every member's page table, and the page table charges the
cell wherever its huge-mapping count changes (map, unmap/demote, and the
teardown ``clear``).  A process therefore counts against its groups
exactly while its page table maps huge pages, so a killed-and-restarted
tenant can never leak its old holdings into the group's budget, and a
check costs O(groups of the process) instead of a rescan of every live
process.  The registry meets processes at :meth:`HugePageLimits.bind`
and :meth:`HugePageLimits.set_group_limit` (everything already in the
kernel's process list), at ``Kernel.spawn`` (through the policy's
``limits`` slot), and otherwise at their first check.
"""

from __future__ import annotations

from repro.vm.page_table import HugeCounter
from repro.vm.process import Process

#: one resolved process: per-process cap (None = unlimited), its groups as
#: ``(prefix, cell, group cap)``, and the process itself.
_Entry = tuple[int | None, tuple[tuple[str, HugeCounter, int], ...], Process]


class HugePageLimits:
    """Per-process / per-group caps on held huge pages."""

    def __init__(self, limits: dict[str, int] | None = None,
                 group_limits: dict[str, int] | None = None):
        self._exact: dict[str, int] = {}
        self._prefix: list[tuple[str, int]] = []
        #: prefix -> cap on the SUM of huge pages held by its members.
        self._group_caps: dict[str, int] = {}
        #: prefix -> the cell attached to every member's page table.
        self._counters: dict[str, HugeCounter] = {}
        #: pid -> resolution of every process met and not yet exited.
        self._met: dict[int, _Entry] = {}
        #: kernel whose process list is met at bind / set_group_limit.
        self._kernel = None
        #: promotion attempts refused because a cap was reached.
        self.refusals = 0
        #: the subset of refusals caused by a *group* cap.
        self.group_refusals = 0
        for pattern, cap in (limits or {}).items():
            self.set_limit(pattern, cap)
        for pattern, cap in (group_limits or {}).items():
            self.set_group_limit(pattern, cap)

    def set_limit(self, pattern: str, cap: int) -> None:
        """Cap ``pattern`` (exact name, or ``prefix*``) at ``cap`` huge pages."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        if pattern.endswith("*"):
            self._prefix.append((pattern[:-1], cap))
        else:
            self._exact[pattern] = cap
        self._meet_all()

    def set_group_limit(self, pattern: str, cap: int) -> None:
        """Cap the summed holdings of every ``pattern`` process at ``cap``."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        prefix = pattern[:-1] if pattern.endswith("*") else pattern
        self._group_caps[prefix] = cap
        self._counters.setdefault(prefix, HugeCounter())
        self._meet_all()

    def bind(self, kernel) -> None:
        """Meet every process of ``kernel`` now and on each later cap change."""
        self._kernel = kernel
        self._meet_all()

    # ------------------------------------------------------------------ #
    # resolution                                                          #
    # ------------------------------------------------------------------ #

    def meet(self, proc: Process) -> _Entry:
        """(Re-)resolve ``proc`` and attach its page table to its groups.

        Idempotent: a cell already attached to the table is not charged
        twice, so re-resolving after a cap change only adds new groups.
        """
        name = proc.name
        pt = proc.page_table
        groups = []
        for prefix, group_cap in self._group_caps.items():
            if name.startswith(prefix):
                counter = self._counters[prefix]
                if counter not in pt.counters:
                    counter.held += pt.huge_count
                    pt.counters += (counter,)
                groups.append((prefix, counter, group_cap))
        cap = self._exact.get(name)
        if cap is None:
            matches = [c for prefix, c in self._prefix if name.startswith(prefix)]
            cap = min(matches) if matches else None
        entry = (cap, tuple(groups), proc)
        self._met[proc.pid] = entry
        return entry

    def forget(self, proc: Process) -> None:
        """Drop an exited process's resolution (its table is already clear)."""
        self._met.pop(proc.pid, None)

    def _meet_all(self) -> None:
        procs = [entry[2] for entry in self._met.values()]
        if self._kernel is not None:
            procs.extend(self._kernel.processes)
        for proc in procs:
            self.meet(proc)

    def _entry(self, proc: Process) -> _Entry:
        entry = self._met.get(proc.pid)
        return entry if entry is not None else self.meet(proc)

    # ------------------------------------------------------------------ #
    # queries                                                             #
    # ------------------------------------------------------------------ #

    def limit_for(self, proc: Process) -> int | None:
        """Effective per-process cap for ``proc``, or None when unlimited."""
        return self._entry(proc)[0]

    def group_held(self, prefix: str) -> int:
        """Huge pages currently held across a group's members."""
        return self._counters[prefix].held

    def group_stats(self) -> dict[str, tuple[int, int]]:
        """``prefix -> (held, cap)`` for every configured group."""
        return {prefix: (self._counters[prefix].held, cap)
                for prefix, cap in sorted(self._group_caps.items())}

    def may_promote(self, proc: Process) -> bool:
        """True when ``proc`` may receive one more huge page."""
        entry = self._met.get(proc.pid)
        if entry is None:
            entry = self.meet(proc)
        cap, groups, _ = entry
        if cap is not None and proc.page_table.huge_count >= cap:
            self.refusals += 1
            return False
        for _, counter, group_cap in groups:
            if counter.held >= group_cap:
                self.refusals += 1
                self.group_refusals += 1
                return False
        return True

    def refusal(self, proc: Process) -> tuple[str, dict]:
        """Audit reason and inputs for a ``proc`` that :meth:`may_promote` refused.

        ``limit_cap`` (per-process cap) with ``{limit, held}``, or
        ``group_cap`` with the first full group's ``{group, held, cap}``.
        """
        cap, groups, _ = self._entry(proc)
        held = proc.page_table.huge_count
        if cap is not None and held >= cap:
            return "limit_cap", {"limit": cap, "held": held}
        for prefix, counter, group_cap in groups:
            if counter.held >= group_cap:
                return "group_cap", {"group": prefix, "held": counter.held,
                                     "cap": group_cap}
        raise ValueError(f"{proc.name} (pid {proc.pid}) is under every cap")
