"""Fragmentation metrics and a controlled memory fragmenter.

``fmfi`` is the Free Memory Fragmentation Index Ingens consults (after
Gorman & Whitcroft's *unusable free space index*): the fraction of free
memory that cannot be used to satisfy an allocation of the given order.
0.0 means every free page sits in a sufficiently large block; 1.0 means
no block of the requested order exists.  Ingens switches from aggressive
to conservative huge-page promotion when FMFI crosses 0.5 (paper §2.1).

``Fragmenter`` reproduces the paper's experimental setup of fragmenting
memory "by reading several files in memory" before launching workloads
(§4, Figure 5 setup): it fills free memory with single-frame file-cache
pages and releases a random subset, leaving the free space shattered into
low-order blocks.  The retained pages behave like page cache: they are
*reclaimable* when the kernel runs out of memory, but they keep physical
contiguity broken until compaction migrates around them.

Both directions are bulk operations with the exact per-frame outcome.
Filling is one ``try_alloc_frames`` (the frame sequence of one order-0
``try_alloc`` per page); the shuffle runs on a plain list, so the RNG
stream is the per-frame one; releasing, the optional FMFI early stop and
reclaim all go through the allocator's ``free_frames``, which leaves the
free lists in the order per-frame ``free`` calls would.
"""

from __future__ import annotations

import random

from repro.mem.buddy import BuddyAllocator
from repro.units import HUGE_PAGE_ORDER

#: Owner id used for fragmenter (file-cache) frames.
FILE_CACHE_OWNER = -2


def fmfi(buddy: BuddyAllocator, order: int = 9) -> float:
    """Fraction of free memory unusable for an order-``order`` allocation."""
    free = buddy.free_pages
    if free == 0:
        return 1.0
    return (free - usable_pages(buddy, order)) / free


def usable_pages(buddy: BuddyAllocator, order: int) -> int:
    """Free pages sitting in blocks of at least ``order``."""
    counts = buddy.free_block_counts()
    return sum((1 << o) * n for o, n in enumerate(counts) if o >= order)


class Fragmenter:
    """Deliberately fragments physical memory with reclaimable file pages."""

    def __init__(self, buddy: BuddyAllocator, seed: int = 7):
        self.buddy = buddy
        self._rng = random.Random(seed)
        self._cache_pages: set[int] = set()

    @property
    def cache_pages(self) -> int:
        """File-cache frames currently held (reclaimable)."""
        return len(self._cache_pages)

    def holds(self, frame: int) -> bool:
        """Whether ``frame`` is a file-cache page (and so movable)."""
        return frame in self._cache_pages

    def migrate_page(self, old: int, new: int) -> bool:
        """Compaction support: clean page-cache pages are movable."""
        if old not in self._cache_pages:
            return False
        self._cache_pages.discard(old)
        self._cache_pages.add(new)
        return True

    def fragment(self, keep_fraction: float = 0.1, target_fmfi: float | None = None) -> float:
        """Fill free memory with file pages, then evict all but ``keep_fraction``.

        Returns the resulting order-9 FMFI.  ``target_fmfi`` stops early
        once the index is reached (useful for partially fragmented setups).
        """
        buddy = self.buddy
        taken = buddy.try_alloc_frames(
            buddy.free_pages, prefer_zero=False, owner=FILE_CACHE_OWNER).tolist()
        self._rng.shuffle(taken)
        keep = int(len(taken) * keep_fraction)
        kept, to_free = taken[:keep], taken[keep:]
        self._cache_pages.update(kept)
        if target_fmfi is not None and to_free:
            stop = self._stop_index(to_free, target_fmfi)
            self._cache_pages.update(to_free[stop + 1:])
            to_free = to_free[:stop + 1]
        buddy.free_frames(to_free)
        return fmfi(buddy)

    def _stop_index(self, to_free: list[int], target_fmfi: float) -> int:
        """Index of the free after which FMFI first drops to ``target_fmfi``.

        Between frees that complete no aligned order-9 block, ``usable``
        is constant while ``free`` grows, so the index is non-decreasing:
        it can only reach the target at the first free (for degenerate
        targets that are already met) or at a completion.  Those are the
        only candidates checked, each from the counts FMFI would read.
        """
        buddy = self.buddy
        done = buddy.completion_indices(to_free, HUGE_PAGE_ORDER)
        free0 = buddy.free_pages
        usable0 = usable_pages(buddy, HUGE_PAGE_ORDER)
        # (free index, order-9 blocks completed by then)
        candidates = [(0, int(done.size > 0 and done[0] == 0))]
        candidates += [(i, k + 1) for k, i in enumerate(done.tolist())]
        for i, completed in candidates:
            free = free0 + i + 1
            usable = usable0 + (completed << HUGE_PAGE_ORDER)
            if (free - usable) / free <= target_fmfi:
                return i
        return len(to_free) - 1

    def reclaim(self, npages: int) -> int:
        """Evict up to ``npages`` file-cache pages (memory-pressure path).

        Clean page-cache pages are the kernel's cheapest reclaim target;
        the simulator evicts them before declaring out-of-memory.  Pages
        leave in set-pop order and are freed in that order.
        """
        evicted = [self._cache_pages.pop()
                   for _ in range(min(npages, len(self._cache_pages)))]
        self.buddy.free_frames(evicted)
        return len(evicted)

    def release_all(self) -> int:
        """Drop the entire simulated file cache."""
        return self.reclaim(len(self._cache_pages))
