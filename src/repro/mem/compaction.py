"""Memory compaction: migrate movable pages to rebuild huge-page blocks.

Models Linux's compaction pass (Corbet, "Memory compaction") at the level
the paper depends on: sparse huge-page-sized chunks are emptied by
migrating their movable frames into already-fragmented space, and the
buddy allocator's coalescing turns the vacated chunks into order-9 blocks
that huge-page promotion can then use.  Each migrated page costs a copy,
which the caller charges to the simulated clock; compaction runs are
budgeted so background promotion stays rate-limited like ``khugepaged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import audit
from repro.mem.buddy import BuddyAllocator
from repro.units import PAGES_PER_HUGE

#: Kernel-side callback that rebinds every reference to ``old`` frame onto
#: ``new`` (page tables, rmap, file cache).  Returns False when the frame
#: cannot be migrated, in which case compaction gives the chunk up.
MigrateFn = Callable[[int, int], bool]

#: Side-effect-free companion of :data:`MigrateFn`: True exactly when
#: ``migrate(old, new)`` would succeed for any destination ``new``.
MovableFn = Callable[[int], bool]


@dataclass
class CompactionStats:
    pages_moved: int = 0
    blocks_created: int = 0
    chunks_abandoned: int = 0
    runs: int = 0

    def merge(self, other: "CompactionStats") -> None:
        """Accumulate another run's counters into this one."""
        self.pages_moved += other.pages_moved
        self.blocks_created += other.blocks_created
        self.chunks_abandoned += other.chunks_abandoned
        self.runs += other.runs


@dataclass
class Compactor:
    """Budgeted compaction over a buddy allocator.

    ``lo``/``hi`` bound the frame range scanned for candidate chunks; a
    NUMA zone passes its own range so compaction never migrates pages
    across a node boundary.  The defaults cover the whole frame table.
    """

    buddy: BuddyAllocator
    migrate: MigrateFn
    movable: MovableFn
    stats: CompactionStats = field(default_factory=CompactionStats)
    lo: int = 0
    hi: int | None = None

    def _candidate_chunks(self) -> np.ndarray:
        """Starts of huge-aligned chunks by occupancy (emptiest first).

        A chunk qualifies when it is partially allocated, contains no
        pinned frame, and is cheaper to empty than to leave (occupancy
        under half the chunk).
        """
        frames = self.buddy.frames
        hi = frames.num_frames if self.hi is None else self.hi
        first = -(-self.lo // PAGES_PER_HUGE)       # first whole chunk
        last = hi // PAGES_PER_HUGE                  # one past the last
        nchunks = last - first
        if nchunks <= 0:
            return np.zeros(0, dtype=np.int64)
        window = slice(first * PAGES_PER_HUGE, last * PAGES_PER_HUGE)
        alloc = frames.allocated[window].reshape(nchunks, PAGES_PER_HUGE)
        pinned = frames.pinned[window].reshape(nchunks, PAGES_PER_HUGE)
        occupancy = alloc.sum(axis=1)
        ok = (occupancy > 0) & (occupancy <= PAGES_PER_HUGE // 2) & ~pinned.any(axis=1)
        order = np.argsort(occupancy, kind="stable")
        return (first + order[ok[order]]) * PAGES_PER_HUGE

    def run(self, budget_pages: int) -> CompactionStats:
        """Migrate up to ``budget_pages`` frames; returns stats for this run."""
        run_stats = CompactionStats(runs=1)
        frames = self.buddy.frames
        for chunk_start in self._candidate_chunks().tolist():
            # Recompute occupancy: destination pages from earlier chunks
            # may have landed here since the candidate list was built.
            occupancy = int(
                frames.allocated[chunk_start:chunk_start + PAGES_PER_HUGE].sum()
            )
            if run_stats.pages_moved + occupancy > budget_pages:
                break
            if not self._empty_chunk(chunk_start, run_stats):
                run_stats.chunks_abandoned += 1
                continue
            # Freeing the migrated frames coalesced the chunk if nothing
            # else inside it was allocated.
            if not frames.allocated[chunk_start:chunk_start + PAGES_PER_HUGE].any():
                run_stats.blocks_created += 1
        self.stats.merge(run_stats)
        return run_stats

    def _empty_chunk(self, chunk_start: int, run_stats: CompactionStats) -> bool:
        """Migrate every allocated frame out of one huge-aligned chunk.

        Leaves exactly the state of the per-frame loop: for each allocated
        frame in ascending order, allocate a destination with
        ``try_alloc(0, prefer_zero=False)`` and migrate, stopping at the
        first frame that cannot move (freeing its destination) or when
        destinations run out.  The chunk's own free blocks are carved off
        the free lists first so destinations always land outside, and
        handed back before the migrated frames are freed into the hole.

        In bulk: the first immovable frame is found before allocating, so
        one :meth:`~BuddyAllocator.try_alloc_frames` call draws exactly
        the destinations the loop would; content and provenance move with
        array writes; and a chunk left wholly free goes back as one
        order-9 insert (:meth:`~BuddyAllocator.restore_carved`).
        """
        frames = self.buddy.frames
        chunk_end = chunk_start + PAGES_PER_HUGE
        olds = np.flatnonzero(frames.allocated[chunk_start:chunk_end]) + chunk_start
        movable = self.movable
        stop = next((i for i, old in enumerate(olds.tolist()) if not movable(old)),
                    olds.size)
        carved = self.buddy.carve_range(chunk_start, chunk_end)
        news = self.buddy.try_alloc_frames(min(stop + 1, olds.size),
                                           prefer_zero=False)
        moved = min(stop, news.size)
        olds_moved, news_moved = olds[:moved], news[:moved]
        for old, new in zip(olds_moved.tolist(), news_moved.tolist()):
            if not self.migrate(old, new):
                raise RuntimeError(f"frame {old} passed movable() but not migrate()")
        if news.size > moved:
            # The immovable frame's destination: the migrate call is kept
            # because refusing may drop a stale reverse mapping.
            self.migrate(int(olds[moved]), int(news[moved]))
            self.buddy.free(int(news[moved]), 0)
        # Content moves with the page ...
        frames.first_nonzero[news_moved] = frames.first_nonzero[olds_moved]
        frames.content_tag[news_moved] = frames.content_tag[olds_moved]
        frames.owner[news_moved] = frames.owner[olds_moved]
        # ... and so does its provenance (page_owner's
        # __folio_copy_owner); the migration itself is an event on the
        # destination frame, attributed to compaction.
        if (led := frames.ledger) is not None and led.enabled:
            led.copy_provenance(olds_moved, news_moved)
            led.record_frames(news_moved, audit.EV_COMPACTED, olds_moved)
            led.set_site(news_moved, audit.SITE_COMPACT)
        self.buddy.restore_carved(chunk_start, chunk_end, carved, olds_moved)
        run_stats.pages_moved += moved
        return moved == olds.size
