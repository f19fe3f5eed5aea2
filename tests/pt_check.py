"""Page-table consistency checks and read helpers shared by the tests.

:func:`check_page_tables` is a small fsck over a kernel's page tables:
it checks the array table's own invariants rather than comparing it to a
second copy.
"""

import numpy as np

from repro.units import PAGES_PER_HUGE
from repro.vm.page_table import SHARED, SHARED_ZERO


def base_entries(pt) -> dict[int, tuple[int, int]]:
    """``vpn -> (frame, flags)`` for every base mapping, ascending vpn."""
    vpns = pt.base_vpns().tolist()
    return {vpn: (pt.frame_of(vpn), pt.flags_of(vpn)) for vpn in vpns}


def huge_entries(pt) -> dict[int, tuple[int, int]]:
    """``hvpn -> (frame, flags)`` for every huge mapping, ascending hvpn."""
    hvpns = pt.huge_hvpns().tolist()
    return {h: (pt.huge_frame_of(h), pt.huge_flags_of(h)) for h in hvpns}


def private_count(pt) -> int:
    """Base mappings that own their frame (no shared flag)."""
    return sum(1 for _, flags in base_entries(pt).values() if not flags & SHARED)


def check_page_table(pt) -> None:
    """One table's invariants: counts, granularity exclusion, flag hygiene."""
    frames, flags = pt._frame, pt._flags
    hframes, hflags = pt._hframe, pt._hflags
    assert hframes.shape[0] == frames.shape[0] // PAGES_PER_HUGE
    mapped, hmapped = frames >= 0, hframes >= 0
    # the counts equal the arrays
    assert pt.base_count == int(mapped.sum())
    assert pt.huge_count == int(hmapped.sum())
    assert pt.shared_zero_count == int(((flags & SHARED_ZERO) != 0).sum())
    # no vpn is mapped at both granularities
    per_region = mapped.reshape(-1, PAGES_PER_HUGE).any(axis=1)
    assert not (per_region & hmapped).any(), "vpn mapped base and huge"
    # flags are set only on mapped slots
    assert not flags[~mapped].any(), "flags on an unmapped vpn"
    assert not hflags[~hmapped].any(), "flags on an unmapped region"
    # a mapping carries at most one shared flag
    assert not ((flags & SHARED) == SHARED).any()
    # map stamps are unique among live mappings
    stamps = np.concatenate([pt._seq[mapped], pt._hseq[hmapped]])
    assert np.unique(stamps).size == stamps.size


def check_page_tables(kernel) -> None:
    """Every live table's invariants, plus the shared huge-page cells.

    Each :class:`~repro.vm.page_table.HugeCounter` attached to a live
    table must equal the summed huge counts of the live tables it is
    attached to (exited tables are empty, so they add nothing).
    """
    held: dict[int, int] = {}
    cells = {}
    for proc in kernel.processes:
        pt = proc.page_table
        check_page_table(pt)
        for cell in pt.counters:
            cells[id(cell)] = cell
            held[id(cell)] = held.get(id(cell), 0) + pt.huge_count
    for key, cell in cells.items():
        assert cell.held == held[key], "huge counter drifted from its tables"
