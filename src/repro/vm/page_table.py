"""Per-process page tables with 4 KiB and 2 MiB mappings.

The table keeps two maps: base PTEs keyed by virtual page number and huge
PTEs keyed by huge-region number (``vpn >> 9``).  A virtual page is mapped
by at most one of the two — promotion replaces 512 base PTEs with one huge
PTE, demotion does the reverse.  Base PTEs can also be *shared-zero*
mappings onto the canonical zero frame (copy-on-write), which is how
HawkEye's bloat recovery returns memory without unmapping anything.

Alongside the authoritative PTE dicts, the table maintains flat numpy
*mirrors* — ``vpn -> frame`` (−1 when unmapped), ``vpn -> private`` and
``hvpn -> huge frame`` — so range operations (region scans, contiguity
checks, rmap walks, NUMA placement counts) become array slices instead of
512 dict probes per huge region.  The dicts stay the source of truth;
every mutation path updates the mirrors in the same call, and the few
call sites that mutate a PTE *in place* (COW breaks, migration, page
deduplication) re-sync via :meth:`PageTable.sync_pte` /
:meth:`PageTable.sync_huge`.

A table can also carry :class:`HugeCounter` cells shared with other
tables (the §3.5 group caps attach one per group the process belongs
to).  ``huge`` changes only in :meth:`PageTable.map_huge`,
:meth:`PageTable.unmap_huge` (demotion goes through it) and
:meth:`PageTable.clear`, and each of those charges its delta to every
attached cell, so a cell always holds the summed huge-mapping count of
its tables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidAddressError
from repro.units import PAGES_PER_HUGE, huge_align_down

#: initial mirror capacity in base pages (grows by doubling).
_INITIAL_VPN_CAPACITY = 8 * PAGES_PER_HUGE


class BasePTE:
    """A 4 KiB mapping: physical frame plus access metadata.

    ``shared_zero`` marks a copy-on-write mapping of the canonical zero
    frame (bloat recovery, §3.2); ``shared_cow`` marks a copy-on-write
    mapping of a KSM-merged content frame (same-page merging).  Both are
    broken by the fault path on write.
    """

    __slots__ = ("frame", "accessed", "dirty", "shared_zero", "shared_cow")

    def __init__(self, frame: int, shared_zero: bool = False):
        self.frame = frame
        self.accessed = False
        self.dirty = False
        self.shared_zero = shared_zero
        self.shared_cow = False

    @property
    def private(self) -> bool:
        """True when this mapping exclusively owns its frame."""
        return not (self.shared_zero or self.shared_cow)


class HugePTE:
    """A 2 MiB mapping: start frame of an order-9 physical block."""

    __slots__ = ("frame", "accessed", "dirty")

    def __init__(self, frame: int):
        self.frame = frame
        self.accessed = False
        self.dirty = False


class HugeCounter:
    """Huge mappings held across every page table the cell is attached to."""

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held = 0


class PageTable:
    """Both-granularity page table for one process."""

    def __init__(self) -> None:
        self.base: dict[int, BasePTE] = {}
        self.huge: dict[int, HugePTE] = {}
        #: mappings currently shared onto the canonical zero frame.
        self.shared_zero_count = 0
        #: vpn -> frame mirror of ``base`` (-1 = not base-mapped).
        self._mframe = np.full(_INITIAL_VPN_CAPACITY, -1, dtype=np.int64)
        #: vpn -> base-mapped AND private (exclusively owns its frame).
        self._mpriv = np.zeros(_INITIAL_VPN_CAPACITY, dtype=bool)
        #: hvpn -> huge start frame mirror of ``huge`` (-1 = not mapped).
        self._mhuge = np.full(
            _INITIAL_VPN_CAPACITY // PAGES_PER_HUGE, -1, dtype=np.int64
        )
        #: shared cells charged with every change to ``len(huge)``.
        self.counters: tuple[HugeCounter, ...] = ()

    # ------------------------------------------------------------------ #
    # mirror maintenance                                                 #
    # ------------------------------------------------------------------ #

    def _ensure_base(self, end_vpn: int) -> None:
        """Grow the base mirrors to cover vpns below ``end_vpn``."""
        cap = self._mframe.shape[0]
        if end_vpn <= cap:
            return
        while cap < end_vpn:
            cap *= 2
        mframe = np.full(cap, -1, dtype=np.int64)
        mframe[: self._mframe.shape[0]] = self._mframe
        self._mframe = mframe
        mpriv = np.zeros(cap, dtype=bool)
        mpriv[: self._mpriv.shape[0]] = self._mpriv
        self._mpriv = mpriv

    def _ensure_huge(self, hvpn: int) -> None:
        """Grow the huge mirror to cover region ``hvpn``."""
        cap = self._mhuge.shape[0]
        if hvpn < cap:
            return
        while cap <= hvpn:
            cap *= 2
        mhuge = np.full(cap, -1, dtype=np.int64)
        mhuge[: self._mhuge.shape[0]] = self._mhuge
        self._mhuge = mhuge

    def sync_pte(self, vpn: int, pte: BasePTE) -> None:
        """Re-sync the mirrors after an in-place mutation of a base PTE.

        Required after any call site changes ``pte.frame`` or the shared
        flags directly (COW breaks, frame migration, zero/KSM dedup).
        """
        self._mframe[vpn] = pte.frame
        self._mpriv[vpn] = not (pte.shared_zero or pte.shared_cow)

    def sync_huge(self, hvpn: int, pte: HugePTE) -> None:
        """Re-sync the huge mirror after an in-place frame change."""
        self._mhuge[hvpn] = pte.frame

    # ------------------------------------------------------------------ #
    # mapping                                                            #
    # ------------------------------------------------------------------ #

    def map_base(self, vpn: int, frame: int, shared_zero: bool = False) -> BasePTE:
        """Install a 4 KiB mapping (optionally onto the shared zero frame)."""
        if vpn in self.base:
            raise InvalidAddressError(f"vpn {vpn} already mapped")
        if (vpn >> 9) in self.huge:
            raise InvalidAddressError(f"vpn {vpn} inside huge mapping")
        pte = BasePTE(frame, shared_zero)
        self.base[vpn] = pte
        self._ensure_base(vpn + 1)
        self._mframe[vpn] = frame
        self._mpriv[vpn] = not shared_zero
        if shared_zero:
            self.shared_zero_count += 1
        return pte

    def map_base_range(
        self, vpn0: int, extents: list[tuple[int, int, bool]], accessed: bool = False
    ) -> int:
        """Install base PTEs for consecutive vpns over physical ``extents``.

        ``extents`` is a list of ``(start_frame, count, zeroed)`` runs (each
        one :meth:`repro.mem.buddy.BuddyAllocator.try_alloc_run_extent`
        result); virtual pages ``vpn0, vpn0+1, ...`` map onto the extents'
        frames in order.  One bounds/overlap check per run replaces the per-page
        checks of :meth:`map_base`.  Returns the number of PTEs installed.
        """
        total = sum(count for _, count, _ in extents)
        if total == 0:
            return 0
        if (self._mframe[vpn0 : vpn0 + total] >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {vpn0 + total}) overlaps base mappings")
        if (self._mhuge[vpn0 >> 9 : ((vpn0 + total - 1) >> 9) + 1] >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {vpn0 + total}) overlaps a huge mapping")
        self._ensure_base(vpn0 + total)
        base = self.base
        mframe = self._mframe
        vpn = vpn0
        for start, count, _ in extents:
            for i in range(count):
                pte = BasePTE(start + i)
                pte.accessed = accessed
                base[vpn + i] = pte
            mframe[vpn : vpn + count] = np.arange(start, start + count, dtype=np.int64)
            vpn += count
        self._mpriv[vpn0 : vpn0 + total] = True
        return total

    def map_huge(self, hvpn: int, frame: int) -> HugePTE:
        """Install a 2 MiB mapping over an order-9 physical block."""
        if hvpn in self.huge:
            raise InvalidAddressError(f"huge region {hvpn} already mapped")
        pte = HugePTE(frame)
        self.huge[hvpn] = pte
        self._ensure_huge(hvpn)
        self._mhuge[hvpn] = frame
        for counter in self.counters:
            counter.held += 1
        return pte

    def unmap_base(self, vpn: int) -> BasePTE:
        """Remove and return a base PTE; raises if absent."""
        pte = self.base.pop(vpn, None)
        if pte is None:
            raise InvalidAddressError(f"vpn {vpn} not base-mapped")
        self._mframe[vpn] = -1
        self._mpriv[vpn] = False
        if pte.shared_zero:
            self.shared_zero_count -= 1
        return pte

    def unmap_base_run_private(self, vpn0: int, count: int) -> None:
        """Drop ``count`` consecutive *private* base PTEs (bulk teardown).

        Callers guarantee every page in the run is base-mapped and
        private, so no shared-zero accounting applies; the dict deletions
        happen in ascending order and the mirrors clear as one slice.
        """
        base = self.base
        for vpn in range(vpn0, vpn0 + count):
            del base[vpn]
        self._mframe[vpn0 : vpn0 + count] = -1
        self._mpriv[vpn0 : vpn0 + count] = False

    def unmap_huge(self, hvpn: int) -> HugePTE:
        """Remove and return a huge PTE; raises if absent."""
        pte = self.huge.pop(hvpn, None)
        if pte is None:
            raise InvalidAddressError(f"huge region {hvpn} not mapped")
        self._mhuge[hvpn] = -1
        for counter in self.counters:
            counter.held -= 1
        return pte

    # ------------------------------------------------------------------ #
    # promotion / demotion plumbing                                      #
    # ------------------------------------------------------------------ #

    def demote_huge(self, hvpn: int) -> list[tuple[int, BasePTE]]:
        """Replace a huge PTE with 512 base PTEs onto the same frames.

        Returns the new ``(vpn, pte)`` pairs; the physical block stays
        allocated and contiguous — only the mapping granularity changes.
        """
        huge_pte = self.unmap_huge(hvpn)
        vpn0 = hvpn << 9
        self._ensure_base(vpn0 + PAGES_PER_HUGE)
        created = []
        base = self.base
        frame0 = huge_pte.frame
        accessed = huge_pte.accessed
        dirty = huge_pte.dirty
        for i in range(PAGES_PER_HUGE):
            pte = BasePTE(frame0 + i)
            pte.accessed = accessed
            pte.dirty = dirty
            base[vpn0 + i] = pte
            created.append((vpn0 + i, pte))
        self._mframe[vpn0 : vpn0 + PAGES_PER_HUGE] = np.arange(
            frame0, frame0 + PAGES_PER_HUGE, dtype=np.int64
        )
        self._mpriv[vpn0 : vpn0 + PAGES_PER_HUGE] = True
        return created

    def region_base_vpns(self, hvpn: int) -> list[int]:
        """Base-mapped VPNs inside huge region ``hvpn``."""
        vpn0 = hvpn << 9
        seg = self._mframe[vpn0 : vpn0 + PAGES_PER_HUGE]
        return (np.nonzero(seg >= 0)[0] + vpn0).tolist()

    def region_mirror(self, hvpn: int) -> tuple[np.ndarray, np.ndarray]:
        """``(frames, private)`` mirror slices for one huge region.

        Read-only views over the region's 512 vpn slots (shorter when the
        mirror has never grown that far — missing slots are unmapped).
        ``frames[i] == -1`` means vpn ``(hvpn << 9) + i`` is not
        base-mapped.
        """
        vpn0 = hvpn << 9
        return (
            self._mframe[vpn0 : vpn0 + PAGES_PER_HUGE],
            self._mpriv[vpn0 : vpn0 + PAGES_PER_HUGE],
        )

    def contiguous_private_block(self, vpn0: int) -> int | None:
        """Start frame when a region's 512 pages form one aligned block.

        Array check over the mirrors: all 512 pages base-mapped, private,
        onto consecutive frames starting at an order-9 boundary.
        """
        seg = self._mframe[vpn0 : vpn0 + PAGES_PER_HUGE]
        if seg.shape[0] < PAGES_PER_HUGE:
            return None
        frame0 = int(seg[0])
        if frame0 < 0 or frame0 % PAGES_PER_HUGE != 0:
            return None
        if not self._mpriv[vpn0 : vpn0 + PAGES_PER_HUGE].all():
            return None
        expect = np.arange(frame0, frame0 + PAGES_PER_HUGE, dtype=np.int64)
        if not np.array_equal(seg, expect):
            return None
        return frame0

    # ------------------------------------------------------------------ #
    # lookup                                                             #
    # ------------------------------------------------------------------ #

    def translate(self, vpn: int) -> tuple[int, bool] | None:
        """Physical frame for ``vpn`` and whether the mapping is huge."""
        huge_pte = self.huge.get(vpn >> 9)
        if huge_pte is not None:
            return huge_pte.frame + (vpn - huge_align_down(vpn)), True
        pte = self.base.get(vpn)
        if pte is not None:
            return pte.frame, False
        return None

    def translate_range(self, vpn0: int, count: int) -> np.ndarray:
        """Frames for ``count`` consecutive vpns (-1 where unmapped).

        Vectorized :meth:`translate` over both granularities; huge-mapped
        vpns resolve to ``huge_frame + offset``.
        """
        out = np.full(count, -1, dtype=np.int64)
        seg = self._mframe[vpn0 : vpn0 + count]
        out[: seg.shape[0]] = seg
        hlo, hhi = vpn0 >> 9, (vpn0 + count - 1) >> 9
        hseg = self._mhuge[hlo : hhi + 1]
        if hseg.size and (hseg >= 0).any():
            vpns = np.arange(vpn0, vpn0 + count, dtype=np.int64)
            idx = (vpns >> 9) - hlo
            valid = idx < hseg.shape[0]
            hframes = np.where(valid, hseg[np.minimum(idx, hseg.shape[0] - 1)], -1)
            mask = hframes >= 0
            out[mask] = hframes[mask] + (vpns[mask] & (PAGES_PER_HUGE - 1))
        return out

    def is_mapped(self, vpn: int) -> bool:
        """Whether the virtual page is mapped at either granularity."""
        return vpn in self.base or (vpn >> 9) in self.huge

    def huge_count_in_range(self, hvpn_lo: int, hvpn_hi: int) -> int:
        """Number of huge-mapped regions in ``[hvpn_lo, hvpn_hi)``."""
        return int((self._mhuge[hvpn_lo:hvpn_hi] >= 0).sum())

    # ------------------------------------------------------------------ #
    # accounting                                                         #
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop every mapping (process teardown); mirrors reset wholesale."""
        for counter in self.counters:
            counter.held -= len(self.huge)
        self.base.clear()
        self.huge.clear()
        self.shared_zero_count = 0
        self._mframe[:] = -1
        self._mpriv[:] = False
        self._mhuge[:] = -1

    def resident_pages(self) -> int:
        """RSS in base pages, excluding shared-zero (deduplicated) mappings."""
        return len(self.base) - self.shared_zero_count + len(self.huge) * PAGES_PER_HUGE

    def huge_mapped_pages(self) -> int:
        """Base-page count covered by huge mappings."""
        return len(self.huge) * PAGES_PER_HUGE
