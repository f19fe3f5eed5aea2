"""Binary buddy allocator with dual zero / non-zero free lists.

This mirrors Linux's physical page allocator at the granularity the paper
cares about (orders 0..``MAX_ORDER``, huge pages at order 9) and adds the
one structural change HawkEye §3.1 makes: every free list is split in two,

* a **zero list** of blocks whose every base frame holds all-zero content
  (pre-zeroed and ready to map without synchronous clearing), and
* a **non-zero list** of blocks with stale content.

Anonymous faults prefer the zero list; copy-on-write and file-backed
allocations prefer the non-zero list so pre-zeroed frames are not wasted
on pages that will be overwritten immediately.  The asynchronous
pre-zeroing thread (``repro.core.prezero``) drains the non-zero lists,
zero-fills blocks and moves them across.

A block's zero-ness is derived from the frame table's content descriptors,
so splitting and coalescing keep the two lists exactly consistent with
page content — merging a zero half with a dirty half yields a non-zero
block, exactly as real memory would behave.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.mem.frames import NO_OWNER, FrameTable
from repro.units import MAX_ORDER

#: completion times in :meth:`BuddyAllocator._free_plan` that are not a
#: sequence index: inside an already-free block / never wholly free.
_PRE = -1
_NEVER = -2


def frees_valid(frames: FrameTable, idx: np.ndarray, start: int, end: int) -> bool:
    """True when ``idx`` holds distinct allocated frames in ``[start, end)``."""
    if idx.min() < start or idx.max() >= end:
        return False
    if not bool(frames.allocated[idx].all()):
        return False
    seen = np.zeros(end - start, dtype=bool)
    seen[idx - start] = True
    return int(np.count_nonzero(seen)) == idx.size


class _FreePlan(NamedTuple):
    """Outcome of a bulk order-0 free, worked out before any state changes."""

    #: per order: completion time of every block in the touched rows.
    times: list[np.ndarray]
    #: the free blocks the frees leave, sorted by completion time.
    starts: np.ndarray
    orders: np.ndarray
    zeroed: np.ndarray
    #: ``(start, order)`` of already-free blocks a new block absorbs.
    merged: list[tuple[int, int]]


class BuddyAllocator:
    """Buddy allocator over the frames of a :class:`FrameTable`.

    By default the allocator manages the whole frame table; a NUMA zone
    passes an explicit ``[start, end)`` sub-range so several allocators
    can share one table without overlapping.  Coalescing is naturally
    confined to the zone: a buddy outside ``[start, end)`` is never in
    this allocator's ``_block_order``, so merges cannot cross zones.
    """

    def __init__(
        self,
        frames: FrameTable,
        max_order: int = MAX_ORDER,
        start: int = 0,
        end: int | None = None,
    ):
        self.frames = frames
        self.max_order = max_order
        self.start = start
        self.end = frames.num_frames if end is None else end
        # Free lists are dicts used as ordered sets: O(1) membership,
        # O(1) removal by key, and O(1) amortised pop via popitem()
        # (plain sets degrade to O(n) scans under churn).
        self._zero: list[dict[int, None]] = [{} for _ in range(max_order + 1)]
        self._nonzero: list[dict[int, None]] = [{} for _ in range(max_order + 1)]
        #: order of every free block, keyed by its start frame.
        self._block_order: dict[int, int] = {}
        self.free_pages = 0
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the managed frame range into maximal aligned free blocks.

        One prefix-sum over the range classifies every seeded block's
        zero-ness in O(1) instead of one ``zero_mask().all()`` scan per
        block.
        """
        start, end = self.start, self.end
        if start >= end:
            return
        base = start
        nonzero = self.frames.first_nonzero[start:end] >= 0
        csum = np.zeros(end - start + 1, dtype=np.int64)
        np.cumsum(nonzero, out=csum[1:])
        while start < end:
            order = self.max_order
            while order > 0 and (start % (1 << order) != 0 or start + (1 << order) > end):
                order -= 1
            lo = start - base
            self._insert(start, order,
                         zeroed=bool(csum[lo + (1 << order)] == csum[lo]))
            start += 1 << order

    # ------------------------------------------------------------------ #
    # free-list plumbing                                                 #
    # ------------------------------------------------------------------ #

    def _block_is_zero(self, start: int, order: int) -> bool:
        if order == 0:  # scalar fast path: splits/frees hit this constantly
            return self.frames.first_nonzero[start] < 0
        return bool(self.frames.zero_mask(start, 1 << order).all())

    def _insert(self, start: int, order: int, zeroed: bool | None = None) -> None:
        # Callers that already know the block's zero-ness (zero-list
        # invariant, prefix sums, coalescing) pass it to skip the scan.
        if zeroed is None:
            zeroed = self._block_is_zero(start, order)
        lists = self._zero if zeroed else self._nonzero
        lists[order][start] = None
        self._block_order[start] = order
        self.free_pages += 1 << order

    def _remove(self, start: int, order: int) -> None:
        self._zero[order].pop(start, None)
        self._nonzero[order].pop(start, None)
        del self._block_order[start]
        self.free_pages -= 1 << order

    def _pop_block(self, order: int, zeroed: bool) -> tuple[int, bool] | None:
        """Pop one free block of exactly ``order`` from the given list."""
        lists = self._zero if zeroed else self._nonzero
        if lists[order]:
            start, _ = lists[order].popitem()
            del self._block_order[start]
            self.free_pages -= 1 << order
            return start, zeroed
        return None

    # ------------------------------------------------------------------ #
    # allocation                                                         #
    # ------------------------------------------------------------------ #

    def try_alloc(
        self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> tuple[int, bool] | None:
        """Allocate a ``2**order``-page block, or None when none exists.

        Returns ``(start_frame, zeroed)`` where ``zeroed`` says whether the
        block came off a zero list (no synchronous clearing needed).
        """
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} outside [0, {self.max_order}]")
        # Two passes: honour the zero-ness preference across *all* orders
        # first (an anonymous fault would rather split a large pre-zeroed
        # block than take a small dirty one, and vice versa for COW), then
        # fall back to the other lists.
        for want_zeroed in (prefer_zero, not prefer_zero):
            for have in range(order, self.max_order + 1):
                popped = self._pop_block(have, want_zeroed)
                if popped is None:
                    continue
                start, _ = popped
                # Split excess halves back onto the free lists.  A block
                # off a zero list is all-zero, so every half is too; a
                # dirty block's halves are classified off one scan of its
                # nonzero positions instead of one scan per level.
                if want_zeroed:
                    while have > order:
                        have -= 1
                        self._insert(start + (1 << have), have, zeroed=True)
                    zeroed = True
                elif have > order:
                    nz = np.nonzero(
                        self.frames.first_nonzero[start:start + (1 << have)]
                        >= 0)[0]
                    while have > order:
                        have -= 1
                        half = 1 << have
                        lo = np.searchsorted(nz, half)
                        hi = np.searchsorted(nz, 2 * half)
                        self._insert(start + half, have, zeroed=bool(lo == hi))
                    zeroed = bool(nz.size == 0 or nz[0] >= (1 << order))
                else:
                    zeroed = self._block_is_zero(start, order)
                self.frames.mark_allocated(start, 1 << order, owner, order)
                return start, zeroed
        return None

    def alloc(self, order: int = 0, prefer_zero: bool = True, owner: int = NO_OWNER) -> tuple[int, bool]:
        """Like :meth:`try_alloc` but raises :class:`AllocationError` on failure."""
        got = self.try_alloc(order, prefer_zero, owner)
        if got is None:
            raise AllocationError(f"no free block of order {order}")
        return got

    # ------------------------------------------------------------------ #
    # bulk order-0 allocation                                            #
    # ------------------------------------------------------------------ #

    def try_alloc_run_extent(
        self, max_pages: int, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> tuple[int, int, bool] | None:
        """Allocate one contiguous extent of up to ``max_pages`` order-0 frames.

        Returns ``(start, count, zeroed)`` or None when nothing is free.
        The free-list state and the frame sequence are *identical* to what
        ``count`` scalar ``try_alloc(0, prefer_zero, owner)`` calls would
        leave: scalar allocation drains a popped block's frames in
        ascending order before touching any other block (splits keep the
        low half and dict pops are LIFO), so a content-uniform block can
        be consumed wholesale in O(1) pops instead of O(pages).  Blocks of
        mixed content (where scalar draining would interleave the zero
        and non-zero sub-pieces) fall back to one scalar allocation.
        """
        if max_pages <= 0:
            return None
        found = self._lowest_bucket(prefer_zero)
        if found is None:
            return None
        want_zeroed, order, bucket = found
        start = next(reversed(bucket))  # the block popitem() would take
        if not (want_zeroed or order == 0 or self._all_dirty(start, order)):
            # Mixed block: scalar draining would jump between the zero
            # and non-zero halves, so take exactly one page through the
            # scalar path.
            got = self.try_alloc(0, prefer_zero, owner)
            assert got is not None
            return got[0], 1, got[1]
        take = min(1 << order, max_pages)
        self._drain_uniform(start, order, take, want_zeroed)
        self.frames.mark_allocated(start, take, owner)
        return start, take, want_zeroed

    def try_alloc_frames(
        self, n: int, prefer_zero: bool = True, owner: int = NO_OWNER
    ) -> np.ndarray:
        """Allocate up to ``n`` order-0 frames; returns them in allocation order.

        The frames, the free lists (with their dict order),
        ``_block_order``, ``free_pages``, the frame table and the audit
        ledger end up exactly as after ``n`` scalar ``try_alloc(0,
        prefer_zero, owner)`` calls, and fewer frames come back only where
        those calls would start returning None.  Each scalar call pops the
        newest block of the lowest non-empty bucket, so a popped block is
        drained before any other:

        * an order-0 bucket yields its frames newest first;
        * a content-uniform block yields its frames in ascending order
          (as in :meth:`try_alloc_run_extent`);
        * a mixed dirty block under ``prefer_zero=False`` is walked by
          :meth:`_drain_mixed`;
        * a mixed dirty block under ``prefer_zero=True`` sheds zero halves
          that the next calls prefer, so it goes one scalar step at a time.

        The frame table and ledger take one write for all the frames.
        """
        pieces: list[np.ndarray] = []
        remaining = n
        while remaining > 0:
            found = self._lowest_bucket(prefer_zero)
            if found is None:
                break
            want_zeroed, order, bucket = found
            if order == 0:
                got = [bucket.popitem()[0]
                       for _ in range(min(len(bucket), remaining))]
                for frame in got:
                    del self._block_order[frame]
                self.free_pages -= len(got)
            else:
                start = next(reversed(bucket))
                if want_zeroed or self._all_dirty(start, order):
                    take = min(1 << order, remaining)
                    self._drain_uniform(start, order, take, want_zeroed)
                    got = np.arange(start, start + take)
                elif not prefer_zero:
                    got = self._drain_mixed(start, order, remaining)
                else:
                    # marked here and again below with the rest: the
                    # frame-table and ledger writes are idempotent
                    got = [self.try_alloc(0, prefer_zero, owner)[0]]
            pieces.append(np.asarray(got, dtype=np.int64))
            remaining -= len(got)
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        frames = np.concatenate(pieces)
        self.frames.mark_allocated_frames(frames, owner)
        return frames

    def _lowest_bucket(
        self, prefer_zero: bool
    ) -> tuple[bool, int, dict[int, None]] | None:
        """``(zeroed, order, bucket)`` of the list an order-0 allocation pops."""
        for want_zeroed in (prefer_zero, not prefer_zero):
            lists = self._zero if want_zeroed else self._nonzero
            for order, bucket in enumerate(lists):
                if bucket:
                    return want_zeroed, order, bucket
        return None

    def _all_dirty(self, start: int, order: int) -> bool:
        return bool((self.frames.first_nonzero[start:start + (1 << order)]
                     >= 0).all())

    def _drain_uniform(self, start: int, order: int, take: int,
                       zeroed: bool) -> None:
        """Take the first ``take`` frames of a content-uniform free block.

        Scalar draining splits off the right sibling of every block on the
        path to the last frame taken, top-down; the siblings still free
        are re-inserted in that order (their lists were empty: the block
        came from the lowest non-empty bucket).
        """
        lists = self._zero if zeroed else self._nonzero
        del lists[order][start]
        del self._block_order[start]
        self.free_pages -= 1 << order
        last = take - 1
        for o in range(order - 1, -1, -1):
            if not (last >> o) & 1:
                self._insert(start + ((last >> o | 1) << o), o, zeroed=zeroed)

    def _drain_mixed(self, start: int, order: int, limit: int) -> list[int]:
        """Scalar ``prefer_zero=False`` draining of a mixed dirty block.

        Each scalar call pops the lowest-order dirty block, takes its
        first frame and splits the rest: zero halves go onto the zero
        lists, dirty halves onto the dirty lists, where the next calls
        find them lowest order (lowest address) first.  The dirty lists
        below ``order`` start empty, so the calls walk the block depth
        first and the zero lists stay untouched until it is spent.  One
        prefix sum classifies every half; up to ``limit`` frames are
        taken, and the halves still free are inserted in the order the
        scalar splits inserted them.
        """
        del self._nonzero[order][start]
        del self._block_order[start]
        self.free_pages -= 1 << order
        csum = np.zeros((1 << order) + 1, dtype=np.int64)
        np.cumsum(self.frames.first_nonzero[start:start + (1 << order)] >= 0,
                  out=csum[1:])
        dirty = csum.tolist()
        #: every split-off half as [start, order, zeroed, still free].
        halves: list[list] = []
        stack: list[list] = [[start, order, False, True]]
        taken: list[int] = []
        while stack and len(taken) < limit:
            block = stack.pop()
            s, o = block[0], block[1]
            block[3] = False
            rel = s - start
            for k in range(o - 1, -1, -1):
                lo = rel + (1 << k)
                half = [s + (1 << k), k, dirty[lo + (1 << k)] == dirty[lo], True]
                halves.append(half)
                if not half[2]:
                    stack.append(half)  # lowest order ends on top
            taken.append(s)
        for s, o, zeroed, free in halves:
            if free:
                self._insert(s, o, zeroed=zeroed)
        return taken

    # ------------------------------------------------------------------ #
    # freeing                                                            #
    # ------------------------------------------------------------------ #

    def free(self, start: int, order: int = 0) -> int:
        """Return an allocated block and coalesce with free buddies.

        Returns the order of the free block the pages ended up in after
        coalescing.  Many order-0 frees at once go through
        :meth:`free_frames` instead, which leaves the same state.
        """
        count = 1 << order
        if not self.frames.allocated[start:start + count].all():
            raise AllocationError(f"double free of block {start} order {order}")
        self.frames.mark_free(start, count)
        return self.insert_free_block(start, order)

    def insert_free_block(self, start: int, order: int) -> int:
        """Insert an (already frame-table-free) block, coalescing buddies.

        Returns the final coalesced order."""
        return self._coalesce_insert(
            start, order, self._block_is_zero(start, order))

    def _coalesce_insert(self, start: int, order: int, zeroed: bool) -> int:
        # A merged block is zero iff both halves are, and a free buddy's
        # zero-ness is encoded by which list it sits on — so coalescing
        # never re-scans frame content.
        while order < self.max_order:
            buddy = start ^ (1 << order)
            if self._block_order.get(buddy) != order:
                break
            zeroed = zeroed and buddy in self._zero[order]
            self._remove(buddy, order)
            start = min(start, buddy)
            order += 1
        self._insert(start, order, zeroed=zeroed)
        return order

    def carve_range(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Temporarily remove every free block lying fully inside [lo, hi).

        Used by compaction to keep destination allocations out of the
        chunk being emptied.  Blocks are power-of-two aligned, so any
        free block overlapping a *partially allocated* chunk lies fully
        inside it.  Hand the blocks back with :meth:`restore_carved`.
        """
        carved: list[tuple[int, int]] = []
        s = lo
        while s < hi:
            order = self._block_order.get(s)
            if order is not None and s + (1 << order) <= hi:
                self._remove(s, order)
                carved.append((s, order))
                s += 1 << order
            else:
                s += 1
        return carved

    def restore_carved(self, lo: int, hi: int, carved: list[tuple[int, int]],
                       frames: np.ndarray) -> None:
        """Hand back :meth:`carve_range`'s blocks, then free order-0 ``frames``.

        Leaves the state :meth:`insert_free_block` per carved block
        followed by ``free(f, 0)`` per frame would.  When the blocks and
        frames tile ``[lo, hi)`` and that range is one aligned block of
        this zone, that state is a single coalescing insert of the range:
        every block inside it went onto the lists during the sequence, so
        eager coalescing leaves no free buddies unmerged, and the last
        free completes the range, which then merges outward as here.
        """
        idx = np.asarray(frames, dtype=np.int64)
        size = hi - lo
        order = size.bit_length() - 1
        if (idx.size and size == 1 << order and lo % size == 0
                and order <= self.max_order
                and self.start <= lo and hi <= self.end
                and sum(1 << o for _, o in carved) + idx.size == size
                and frees_valid(self.frames, idx, lo, hi)):
            self.frames.mark_free_frames(idx)
            zeroed = not bool((self.frames.first_nonzero[lo:hi] >= 0).any())
            self._coalesce_insert(lo, order, zeroed)
            return
        for start, o in carved:
            self.insert_free_block(start, o)
        self.free_frames(idx)

    def free_range(self, start: int, count: int) -> None:
        """Free an arbitrary page range, decomposed into maximal buddy blocks.

        Batched bookkeeping: one double-free validation, one
        ``mark_free`` and one zero-ness prefix-sum cover the whole range,
        then each maximal block goes straight into the coalescing insert.
        Free-list contents and dict order end up identical to per-block
        :meth:`free` calls.
        """
        if count <= 0:
            return
        end = start + count
        if not bool(self.frames.allocated[start:end].all()):
            # Replay the scalar path so a double free raises on exactly
            # the same block, with earlier blocks already freed.
            while start < end:
                order = 0
                while (
                    order < self.max_order
                    and start % (1 << (order + 1)) == 0
                    and start + (1 << (order + 1)) <= end
                ):
                    order += 1
                self.free(start, order)
                start += 1 << order
            return
        base = start
        self.frames.mark_free(start, count)
        nonzero = self.frames.first_nonzero[start:end] >= 0
        csum = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(nonzero, out=csum[1:])
        while start < end:
            order = 0
            while (
                order < self.max_order
                and start % (1 << (order + 1)) == 0
                and start + (1 << (order + 1)) <= end
            ):
                order += 1
            lo = start - base
            self._coalesce_insert(
                start, order, bool(csum[lo + (1 << order)] == csum[lo]))
            start += 1 << order

    # ------------------------------------------------------------------ #
    # bulk order-0 free (the fragmenter and file-cache reclaim)          #
    # ------------------------------------------------------------------ #

    def free_frames(self, frames: Sequence[int] | np.ndarray) -> None:
        """Free a sequence of order-0 frames in one pass.

        Leaves exactly the state ``free(f, 0)`` for each frame in sequence
        order would: free-list contents *and* dict order, ``_block_order``,
        ``free_pages``, the frame table and the audit ledger.  Eager
        coalescing makes the final block set a function of which blocks
        end up wholly free (see :meth:`_free_plan`), and a surviving
        block's dict position is set by its last insertion — the free of
        the last frame inside it — so the new blocks are appended sorted
        by that time.  Untouched free blocks keep their place.

        Invalid input (a frame freed twice, listed twice, or outside the
        zone) replays the scalar loop, so it raises on the same frame with
        the earlier frames already freed.
        """
        idx = np.asarray(frames, dtype=np.int64)
        if idx.size == 0:
            return
        if not frees_valid(self.frames, idx, self.start, self.end):
            for frame in idx.tolist():
                self.free(frame, 0)
            return
        plan = self._free_plan(idx)
        self.frames.mark_free_frames(idx)
        for start, order in plan.merged:
            self._remove(start, order)
        for order in range(self.max_order + 1):
            at = plan.orders == order
            for lists, want in ((self._zero, True), (self._nonzero, False)):
                picked = plan.starts[at & (plan.zeroed == want)]
                lists[order].update(dict.fromkeys(picked.tolist()))
        self._block_order.update(zip(plan.starts.tolist(), plan.orders.tolist()))
        self.free_pages += int((1 << plan.orders).sum())

    def completion_indices(
        self, frames: Sequence[int] | np.ndarray, order: int
    ) -> np.ndarray:
        """Where in ``frames`` each order-``order`` block would become free.

        For a prospective :meth:`free_frames` call, returns (ascending)
        the sequence index of every free after which one more aligned
        order-``order`` block lies wholly inside a free block — exactly
        the frees whose scalar :meth:`free` returns an order >= ``order``.
        Raises :class:`AllocationError` for input :meth:`free_frames`
        would reject.
        """
        idx = np.asarray(frames, dtype=np.int64)
        if idx.size == 0 or order > self.max_order:
            return np.zeros(0, dtype=np.int64)
        if not frees_valid(self.frames, idx, self.start, self.end):
            raise AllocationError("not a sequence of distinct allocated frames")
        times = self._free_plan(idx).times[order]
        return np.sort(times[times >= 0])

    def _free_plan(self, idx: np.ndarray) -> _FreePlan:
        """Which blocks a valid order-0 free sequence creates and merges.

        Works per order over the aligned ``max_order`` blocks the frees
        touch (coalescing never leaves them).  ``t`` is each block's
        completion time: the sequence index of the free that makes it one
        free block, ``_PRE`` inside an already-free block, ``_NEVER`` when
        it does not end up whole.  A block completes when both halves are
        whole and at least one completed in this batch (two halves that
        were already free and unmerged stay unmerged, as in scalar
        coalescing); its time is the later half's.  Zero-ness follows
        :meth:`_coalesce_insert`: an already-free block's comes from its
        list, a merged block is zero iff both halves are.
        """
        top = self.max_order
        span = 1 << top
        lo = (self.start >> top) << top
        rel = idx - lo
        touched = np.zeros(((self.end - lo) + span - 1) >> top, dtype=bool)
        touched[rel >> top] = True
        rows = np.flatnonzero(touched)
        row_of = np.cumsum(touched) - 1

        def local(frame_rel: np.ndarray) -> np.ndarray:
            return (row_of[frame_rel >> top] << top) | (frame_rel & (span - 1))

        # Already-free blocks inside the touched rows, per order.
        pre, pre_zero = [], []
        for order in range(top + 1):
            blocks = rows.size << (top - order)
            is_pre = np.zeros(blocks, dtype=bool)
            zero = np.zeros(blocks, dtype=bool)
            for lists, want in ((self._zero, True), (self._nonzero, False)):
                bucket = lists[order]
                if bucket:
                    keys = np.fromiter(bucket, np.int64, len(bucket)) - lo
                    keys = keys[touched[keys >> top]]
                    pos = local(keys) >> order
                    is_pre[pos] = True
                    zero[pos] = want
            pre.append(is_pre)
            pre_zero.append(zero)
        inside = [pre[top]]
        for order in range(top - 1, -1, -1):
            inside.append(pre[order] | np.repeat(inside[-1], 2))
        inside.reverse()

        t = np.full(rows.size << top, _NEVER, dtype=np.int64)
        t[local(rel)] = np.arange(idx.size, dtype=np.int64)
        t[inside[0]] = _PRE
        z = np.zeros(t.size, dtype=bool)
        z[local(rel)] = self.frames.first_nonzero[idx] < 0
        z[pre[0]] = pre_zero[0][pre[0]]
        times, zeros = [t], [z]
        for order in range(1, top + 1):
            a, b = t[0::2], t[1::2]
            last = np.maximum(a, b)
            joins = (np.minimum(a, b) >= _PRE) & (last >= 0)
            t = np.where(inside[order], _PRE, np.where(joins, last, _NEVER))
            z = np.where(pre[order], pre_zero[order], z[0::2] & z[1::2])
            times.append(t)
            zeros.append(z)

        def start_of(pos: np.ndarray, order: int) -> np.ndarray:
            return (lo + (rows[pos >> (top - order)] << top)
                    + ((pos << order) & (span - 1)))

        new, merged = [], []
        for order, t in enumerate(times):
            if order < top:
                parent_done = np.repeat(times[order + 1] >= 0, 2)
            else:
                parent_done = np.zeros(t.size, dtype=bool)
            final = np.flatnonzero((t >= 0) & ~parent_done)
            new.append((t[final], start_of(final, order),
                        np.full(final.size, order, dtype=np.int64),
                        zeros[order][final]))
            gone = start_of(np.flatnonzero(pre[order] & parent_done), order)
            merged.extend((start, order) for start in gone.tolist())
        when, starts, orders, zeroed = (np.concatenate(col) for col in zip(*new))
        rank = np.argsort(when)
        return _FreePlan(times, starts[rank], orders[rank], zeroed[rank], merged)

    # ------------------------------------------------------------------ #
    # pre-zeroing support                                                #
    # ------------------------------------------------------------------ #

    def pop_nonzero_block(self, max_order: int | None = None) -> tuple[int, int] | None:
        """Remove the largest dirty free block (for the pre-zero thread).

        Returns ``(start, order)``; the caller zero-fills the frames and
        hands the block back via :meth:`reinsert_zeroed`.
        """
        top = self.max_order if max_order is None else max_order
        for order in range(top, -1, -1):
            if self._nonzero[order]:
                start, _ = self._nonzero[order].popitem()
                del self._block_order[start]
                self.free_pages -= 1 << order
                return start, order
        return None

    def reinsert_zeroed(self, start: int, order: int) -> None:
        """Put back a block whose frames were just zero-filled."""
        self.frames.zero_fill(start, 1 << order)
        self._insert(start, order, zeroed=True)

    def reinsert_dirty(self, start: int, order: int) -> None:
        """Put back a popped block untouched (pre-zero budget ran out)."""
        self._insert(start, order)

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def total_pages(self) -> int:
        return self.end - self.start

    @property
    def allocated_pages(self) -> int:
        return self.total_pages - self.free_pages

    def free_zeroed_pages(self) -> int:
        """Pages sitting on zero lists, mappable without synchronous clearing."""
        return sum(len(blocks) << order for order, blocks in enumerate(self._zero))

    def free_block_counts(self) -> list[int]:
        """Number of free blocks per order (zero + non-zero lists)."""
        return [
            len(self._zero[order]) + len(self._nonzero[order])
            for order in range(self.max_order + 1)
        ]

    def free_blocks_at_least(self, order: int) -> int:
        """Free blocks that can satisfy an order-``order`` allocation."""
        counts = self.free_block_counts()
        return sum(counts[order:])

    def iter_free_blocks(self) -> Iterator[tuple[int, int, bool]]:
        """Yield ``(start, order, zeroed)`` for every free block."""
        for order in range(self.max_order + 1):
            for start in self._zero[order]:
                yield start, order, True
            for start in self._nonzero[order]:
                yield start, order, False
