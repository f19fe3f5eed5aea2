"""Per-process page tables with 4 KiB and 2 MiB mappings, as flat arrays.

Per virtual page number (vpn) the table holds a frame (``-1`` = not
base-mapped) and a flag byte of :data:`ACCESSED`, :data:`DIRTY`,
:data:`SHARED_ZERO` and :data:`SHARED_COW` — the shape of a Linux PTE
word; per huge-region number (``hvpn = vpn >> 9``) it holds the start
frame of an order-9 block and a flag byte.  A vpn is mapped by at most
one of the two: promotion replaces 512 base mappings with one huge
mapping, demotion does the reverse.  A *shared-zero* mapping points at
the canonical zero frame (HawkEye's bloat recovery, §3.2, returns memory
this way without unmapping anything); a *shared-COW* mapping points at a
same-page-merged canonical frame.  *Private* — neither shared flag — is
derived, never stored.  Base, huge and shared-zero counts are kept as the
arrays change, so RSS and huge-page counts are reads, not scans.

Only this module writes the arrays.  Callers change a mapping through a
named operation — :meth:`PageTable.rebind` (migration),
:meth:`~PageTable.share_zero` / :meth:`~PageTable.share_cow`
(deduplication), :meth:`~PageTable.break_share` (COW breaks) — and read
through scalar reads such as :meth:`~PageTable.frame_of` or read-only
:meth:`~PageTable.slots`.

**Map order.**  Every vpn and hvpn is stamped with a monotone sequence
number when it is mapped.  In-place rebinds keep the stamp; unmapping and
mapping again takes a new one.  Process teardown frees frames in stamp
order (:meth:`PageTable.base_in_map_order`), and that order decides the
buddy free lists' order and so every later placement.

A table can carry :class:`HugeCounter` cells shared with other tables
(the §3.5 group caps attach one per group the process belongs to).  The
huge count changes only in :meth:`PageTable.map_huge`,
:meth:`PageTable.unmap_huge` (demotion goes through it) and
:meth:`PageTable.clear`, each of which charges its delta to every
attached cell, so a cell always holds the summed huge count of its
tables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidAddressError
from repro.units import PAGES_PER_HUGE

#: flag bits, per base vpn and per huge region.
ACCESSED = 1
DIRTY = 2
SHARED_ZERO = 4
SHARED_COW = 8
#: either shared flag: the mapping does not own its frame.
SHARED = SHARED_ZERO | SHARED_COW

#: initial capacity in base pages (grows by doubling): one region, so an
#: exited process's cleared table holds almost nothing.
_INITIAL_VPN_CAPACITY = PAGES_PER_HUGE


class HugeCounter:
    """Huge mappings held across every page table the cell is attached to."""

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held = 0


def frame_runs(frames: np.ndarray, flags: np.ndarray,
               cuts: np.ndarray | None = None) -> tuple[list[int], list[int]]:
    """Split mapped base pages, in release order, into release segments.

    A segment is one shared page or a maximal run of private pages on
    ascending consecutive frames; ``cuts[i]`` (optional) stops a run from
    continuing into page ``i``.  Returns ``(starts, lengths)`` lists.
    """
    private = (flags & SHARED) == 0
    cont = np.zeros(frames.shape[0], dtype=bool)
    cont[1:] = private[1:] & private[:-1] & (frames[1:] == frames[:-1] + 1)
    if cuts is not None:
        cont &= ~cuts
    starts = np.flatnonzero(~cont).tolist()
    return starts, [b - a for a, b in zip(starts, starts[1:] + [frames.shape[0]])]


class PageTable:
    """Both-granularity page table for one process."""

    def __init__(self) -> None:
        self._alloc(_INITIAL_VPN_CAPACITY)
        #: mapped base pages, huge regions and shared-zero base pages.
        self.base_count = 0
        self.huge_count = 0
        self.shared_zero_count = 0
        #: next map-order stamp.
        self._next_seq = 0
        #: shared cells charged with every change to ``huge_count``.
        self.counters: tuple[HugeCounter, ...] = ()

    def _alloc(self, cap: int) -> None:
        """Fresh, empty arrays for ``cap`` vpns and ``cap >> 9`` regions.

        Base and huge capacity always grow together, so a vpn inside the
        base arrays has its region inside the huge arrays."""
        self._cap, self._hcap = cap, cap // PAGES_PER_HUGE
        self._frame = np.full(cap, -1, dtype=np.int64)
        self._flags = np.zeros(cap, dtype=np.uint8)
        self._seq = np.zeros(cap, dtype=np.int64)
        self._hframe = np.full(self._hcap, -1, dtype=np.int64)
        self._hflags = np.zeros(self._hcap, dtype=np.uint8)
        self._hseq = np.zeros(self._hcap, dtype=np.int64)

    def _ensure(self, end_vpn: int) -> None:
        """Grow every array (by doubling) to cover vpns below ``end_vpn``."""
        cap, hcap = self._cap, self._hcap
        if end_vpn <= cap:
            return
        old = (self._frame, self._flags, self._seq,
               self._hframe, self._hflags, self._hseq)
        new_cap = cap
        while new_cap < end_vpn:
            new_cap *= 2
        self._alloc(new_cap)
        self._frame[:cap], self._flags[:cap], self._seq[:cap] = old[:3]
        self._hframe[:hcap], self._hflags[:hcap], self._hseq[:hcap] = old[3:]

    def _stamp(self, count: int) -> int:
        """Reserve ``count`` consecutive map-order stamps; returns the first."""
        seq = self._next_seq
        self._next_seq = seq + count
        return seq

    # ------------------------------------------------------------------ #
    # mapping                                                            #
    # ------------------------------------------------------------------ #

    def map_base(self, vpn: int, frame: int, flags: int = 0) -> None:
        """Install a 4 KiB mapping with initial ``flags``."""
        if self.frame_of(vpn) >= 0:
            raise InvalidAddressError(f"vpn {vpn} already mapped")
        if self.huge_frame_of(vpn >> 9) >= 0:
            raise InvalidAddressError(f"vpn {vpn} inside huge mapping")
        self._ensure(vpn + 1)
        self._frame[vpn] = frame
        self._flags[vpn] = flags
        self._seq[vpn] = self._stamp(1)
        self.base_count += 1
        if flags & SHARED_ZERO:
            self.shared_zero_count += 1

    def map_base_range(
        self, vpn0: int, extents: list[tuple[int, int, bool]], flags: int = 0
    ) -> int:
        """Install private base mappings for consecutive vpns over ``extents``.

        ``extents`` is a list of ``(start_frame, count, zeroed)`` runs (each
        one :meth:`repro.mem.buddy.BuddyAllocator.try_alloc_run_extent`
        result); virtual pages ``vpn0, vpn0+1, ...`` map onto the extents'
        frames in order and take ascending stamps, as ``map_base`` per page
        would.  Returns the number of pages mapped.
        """
        total = sum(count for _, count, _ in extents)
        if total == 0:
            return 0
        end = vpn0 + total
        if (self._frame[vpn0:end] >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {end}) overlaps base mappings")
        if (self._hframe[vpn0 >> 9:((end - 1) >> 9) + 1] >= 0).any():
            raise InvalidAddressError(f"range [{vpn0}, {end}) overlaps a huge mapping")
        self._ensure(end)
        vpn = vpn0
        for start, count, _ in extents:
            self._frame[vpn:vpn + count] = np.arange(start, start + count, dtype=np.int64)
            vpn += count
        self._flags[vpn0:end] = flags
        seq = self._stamp(total)
        self._seq[vpn0:end] = np.arange(seq, seq + total, dtype=np.int64)
        self.base_count += total
        return total

    def map_huge(self, hvpn: int, frame: int, flags: int = 0) -> None:
        """Install a 2 MiB mapping over an order-9 physical block."""
        if self.huge_frame_of(hvpn) >= 0:
            raise InvalidAddressError(f"huge region {hvpn} already mapped")
        self._ensure((hvpn + 1) << 9)
        self._hframe[hvpn] = frame
        self._hflags[hvpn] = flags
        self._hseq[hvpn] = self._stamp(1)
        self.huge_count += 1
        for counter in self.counters:
            counter.held += 1

    def unmap_base(self, vpn: int) -> tuple[int, int]:
        """Remove a base mapping; returns its ``(frame, flags)``."""
        frame, flags = self.frame_of(vpn), self.flags_of(vpn)
        if frame < 0:
            raise InvalidAddressError(f"vpn {vpn} not base-mapped")
        self._frame[vpn] = -1
        self._flags[vpn] = 0
        self.base_count -= 1
        if flags & SHARED_ZERO:
            self.shared_zero_count -= 1
        return frame, flags

    def unmap_base_run_private(self, vpn0: int, count: int) -> None:
        """Drop ``count`` consecutive base mappings the caller knows are private."""
        self._frame[vpn0:vpn0 + count] = -1
        self._flags[vpn0:vpn0 + count] = 0
        self.base_count -= count

    def unmap_huge(self, hvpn: int) -> int:
        """Remove a huge mapping; returns its block's start frame."""
        frame = self.huge_frame_of(hvpn)
        if frame < 0:
            raise InvalidAddressError(f"huge region {hvpn} not mapped")
        self._hframe[hvpn] = -1
        self._hflags[hvpn] = 0
        self.huge_count -= 1
        for counter in self.counters:
            counter.held -= 1
        return frame

    def demote_huge(self, hvpn: int) -> int:
        """Replace a huge mapping with 512 base mappings onto the same frames.

        The base pages inherit the accessed and dirty bits and take
        ascending stamps.  Returns the block's start frame; the physical
        block stays allocated — only the mapping granularity changes.
        """
        flags = self.huge_flags_of(hvpn)
        frame0 = self.unmap_huge(hvpn)
        self.map_base_range(hvpn << 9, [(frame0, PAGES_PER_HUGE, False)], flags)
        return frame0

    # ------------------------------------------------------------------ #
    # in-place rebinds (each keeps the map-order stamp)                  #
    # ------------------------------------------------------------------ #

    def rebind(self, vpn: int, frame: int) -> None:
        """Point a base mapping at a new frame (page migration)."""
        self._frame[vpn] = frame

    def rebind_huge(self, hvpn: int, frame: int) -> None:
        """Point a huge mapping at a new order-9 block (huge migration)."""
        self._hframe[hvpn] = frame

    def share_zero(self, vpn: int, zero_frame: int) -> None:
        """Turn a base mapping into a shared mapping of the zero frame."""
        self._frame[vpn] = zero_frame
        self._flags[vpn] = self._flags.item(vpn) | SHARED_ZERO
        self.shared_zero_count += 1

    def share_cow(self, vpn: int, canonical: int) -> None:
        """Turn a base mapping into a COW mapping of a merged canonical frame."""
        self._frame[vpn] = canonical
        self._flags[vpn] = self._flags.item(vpn) | SHARED_COW

    def break_share(self, vpn: int, frame: int) -> None:
        """A write to a shared mapping: a private, dirty copy at ``frame``."""
        flags = self._flags.item(vpn)
        if flags & SHARED_ZERO:
            self.shared_zero_count -= 1
        self._frame[vpn] = frame
        self._flags[vpn] = (flags & ~SHARED) | DIRTY

    # ------------------------------------------------------------------ #
    # the fault path                                                     #
    # ------------------------------------------------------------------ #

    def touch(self, vpn: int) -> int:
        """An access to ``vpn``: set ACCESSED on the mapping that serves it.

        Returns -1 when ``vpn`` is unmapped, 0 for a private base or a
        huge mapping, and the shared flags of a shared base mapping, which
        is left as it is: a write must break the share first.
        """
        if vpn >= self._cap:
            return -1
        if self._frame.item(vpn) >= 0:
            flags = self._flags.item(vpn)
            if flags & SHARED:
                return flags & SHARED
            if not flags & ACCESSED:
                self._flags[vpn] = flags | ACCESSED
            return 0
        hvpn = vpn >> 9
        if self._hframe.item(hvpn) < 0:
            return -1
        flags = self._hflags.item(hvpn)
        if not flags & ACCESSED:
            self._hflags[hvpn] = flags | ACCESSED
        return 0

    def touch_private_run(self, vpn: int, end: int) -> np.ndarray:
        """Set ACCESSED on the private base mappings from ``vpn`` on.

        The run stops before ``end`` or the first unmapped or shared page;
        returns its frames (a read-only view, in vpn order)."""
        frames, flags = self.slots(vpn, end)
        stop = np.flatnonzero((frames < 0) | ((flags & SHARED) != 0))
        n = stop.item(0) if stop.size else frames.shape[0]
        self._flags[vpn:vpn + n] |= ACCESSED
        return frames[:n]

    def next_base_mapped(self, vpn: int, end: int) -> int:
        """First base-mapped vpn in ``[vpn, end)``, or ``end``."""
        hits = np.flatnonzero(self._frame[vpn:end] >= 0)
        return vpn + hits.item(0) if hits.size else end

    # ------------------------------------------------------------------ #
    # lookup                                                             #
    # ------------------------------------------------------------------ #

    def frame_of(self, vpn: int) -> int:
        """Frame of ``vpn``'s base mapping, or -1 when not base-mapped."""
        return self._frame.item(vpn) if vpn < self._cap else -1

    def flags_of(self, vpn: int) -> int:
        """Flag bits of ``vpn``'s base mapping (0 when not base-mapped)."""
        return self._flags.item(vpn) if vpn < self._cap else 0

    def huge_frame_of(self, hvpn: int) -> int:
        """Start frame of region ``hvpn``'s huge mapping, or -1."""
        return self._hframe.item(hvpn) if hvpn < self._hcap else -1

    def huge_flags_of(self, hvpn: int) -> int:
        """Flag bits of region ``hvpn``'s huge mapping (0 when not mapped)."""
        return self._hflags.item(hvpn) if hvpn < self._hcap else 0

    def slots(self, vpn0: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(frames, flags)`` views over vpns ``[vpn0, end)``.

        Shorter where the table has never grown (those slots are unmapped).
        """
        frames, flags = self._frame[vpn0:end], self._flags[vpn0:end]
        frames.flags.writeable = flags.flags.writeable = False
        return frames, flags

    def region_view(self, hvpn: int) -> tuple[np.ndarray, np.ndarray]:
        """``(frames, private)`` over the 512 vpn slots of region ``hvpn``.

        ``frames`` is a read-only :meth:`slots` view; ``private`` masks the
        base-mapped pages without a shared flag.
        """
        frames, flags = self.slots(hvpn << 9, (hvpn + 1) << 9)
        return frames, (frames >= 0) & ((flags & SHARED) == 0)

    def region_base_vpns(self, hvpn: int) -> list[int]:
        """Base-mapped VPNs inside huge region ``hvpn``."""
        frames, _ = self.slots(hvpn << 9, (hvpn + 1) << 9)
        return (np.flatnonzero(frames >= 0) + (hvpn << 9)).tolist()

    def region_heads(self, hvpns: np.ndarray) -> np.ndarray:
        """Per region: its huge frame, else its first page's frame when that
        page is private, else -1."""
        hcap = self._hcap
        safe = np.minimum(hvpns, hcap - 1)
        heads = np.where(hvpns < hcap, self._hframe[safe], -1)
        first = safe << 9
        private = (self._frame[first] >= 0) & ((self._flags[first] & SHARED) == 0)
        base = (heads < 0) & (hvpns < hcap) & private
        heads[base] = self._frame[first[base]]
        return heads

    def contiguous_private_block(self, vpn0: int) -> int | None:
        """Start frame when a region's 512 pages are base-mapped, private
        and on one aligned order-9 block, else None."""
        frames, flags = self.slots(vpn0, vpn0 + PAGES_PER_HUGE)
        frame0 = frames.item(0) if frames.shape[0] == PAGES_PER_HUGE else -1
        if (frame0 < 0 or frame0 % PAGES_PER_HUGE != 0 or (flags & SHARED).any()
                or not np.array_equal(frames, np.arange(frame0, frame0 + PAGES_PER_HUGE))):
            return None
        return frame0

    def translate(self, vpn: int) -> tuple[int, bool] | None:
        """Physical frame for ``vpn`` and whether the mapping is huge."""
        hframe = self.huge_frame_of(vpn >> 9)
        if hframe >= 0:
            return hframe + (vpn & (PAGES_PER_HUGE - 1)), True
        frame = self.frame_of(vpn)
        return (frame, False) if frame >= 0 else None

    def is_mapped(self, vpn: int) -> bool:
        """Whether the virtual page is mapped at either granularity."""
        return self.frame_of(vpn) >= 0 or self.huge_frame_of(vpn >> 9) >= 0

    def huge_count_in_range(self, hvpn_lo: int, hvpn_hi: int) -> int:
        """Number of huge-mapped regions in ``[hvpn_lo, hvpn_hi)``."""
        return int((self._hframe[hvpn_lo:hvpn_hi] >= 0).sum())

    def base_vpns(self) -> np.ndarray:
        """Every base-mapped vpn, ascending."""
        return np.flatnonzero(self._frame >= 0)

    def huge_hvpns(self) -> np.ndarray:
        """Every huge-mapped region, ascending."""
        return np.flatnonzero(self._hframe >= 0)

    def base_in_map_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(frames, flags)`` of every base mapping, oldest stamp first."""
        vpns = self.base_vpns()
        order = vpns[np.argsort(self._seq[vpns])]
        return self._frame[order], self._flags[order]

    def huge_in_map_order(self) -> np.ndarray:
        """Start frames of every huge mapping, oldest stamp first."""
        hvpns = self.huge_hvpns()
        return self._hframe[hvpns[np.argsort(self._hseq[hvpns])]]

    # ------------------------------------------------------------------ #
    # accounting                                                         #
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop every mapping (process teardown); storage shrinks back."""
        for counter in self.counters:
            counter.held -= self.huge_count
        self._alloc(_INITIAL_VPN_CAPACITY)
        self.base_count = self.huge_count = self.shared_zero_count = 0

    def resident_pages(self) -> int:
        """RSS in base pages, excluding shared-zero (deduplicated) mappings."""
        return (self.base_count - self.shared_zero_count
                + self.huge_count * PAGES_PER_HUGE)

    def huge_mapped_pages(self) -> int:
        """Base-page count covered by huge mappings."""
        return self.huge_count * PAGES_PER_HUGE
