"""Property tests: bulk compaction equals the per-frame reference loop.

Two identical set-ups (a deep copy after a random history) compact with
the same budgets, one through :class:`Compactor` / :class:`NodeCompactor`
and one through ``PerFrameCompactor`` from ``test_compaction.py``.  Every
run's stats, the migrate call log (frame pairs and verdicts), the reverse
map, every free list's ``items()`` order, ``_block_order``,
``free_pages``, the frame-table arrays and an attached audit ledger must
be identical.  Histories cover refused and stale frames, frames nothing
maps, pinned chunks, dirty and pre-zeroed content, nearly full memory
(destinations run out mid-chunk) and zones with ``max_order < 9``, where
an emptied chunk cannot become one block.
"""

from __future__ import annotations

import copy
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mem.buddy import BuddyAllocator
from repro.mem.compaction import CompactionStats, Compactor
from repro.mem.frames import FrameTable
from repro.numa.allocator import NodeAllocator, NodeCompactor
from repro.numa.topology import NumaTopology
from repro.units import PAGES_PER_HUGE
from tests.test_compaction import PerFrameCompactor
from tests.test_prop_buddy_bulk import _attach_ledger, _snapshot

NUM_FRAMES = 8 * PAGES_PER_HUGE


class Registry:
    """Reverse map standing in for the kernel's migrate callbacks.

    Frames outside ``by_frame`` cannot move; ``refuse`` frames are mapped
    but pinned by their user; a ``stale`` entry is dropped by the migrate
    call that refuses it, as ``Kernel._migrate_frame`` drops one."""

    def __init__(self) -> None:
        self.by_frame: dict[int, int] = {}
        self.refuse: set[int] = set()
        self.stale: set[int] = set()
        self.log: list[tuple[int, int, bool]] = []

    def movable(self, old: int) -> bool:
        return (old in self.by_frame and old not in self.refuse
                and old not in self.stale)

    def migrate(self, old: int, new: int) -> bool:
        ok = self.movable(old)
        self.log.append((old, new, ok))
        if old in self.stale:
            self.stale.discard(old)
            del self.by_frame[old]
        elif ok:
            self.by_frame[new] = self.by_frame.pop(old)
        return ok


@st.composite
def allocators(draw):
    """Whole table, one zone (unaligned, any ``max_order``) or 2-3 nodes."""
    frames = FrameTable(NUM_FRAMES)
    kind = draw(st.sampled_from(["flat", "zone", "nodes"]))
    if kind == "flat":
        return BuddyAllocator(frames)
    if kind == "zone":
        start = draw(st.integers(0, 2 * PAGES_PER_HUGE))
        end = draw(st.integers(NUM_FRAMES - 2 * PAGES_PER_HUGE, NUM_FRAMES))
        return BuddyAllocator(frames, max_order=draw(st.integers(0, 10)),
                              start=start, end=end)
    nodes = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return NodeAllocator(frames, NumaTopology(nodes=nodes))
    cuts = sorted(draw(st.sets(st.integers(1, NUM_FRAMES - 1),
                               min_size=nodes - 1, max_size=nodes - 1)))
    bounds = [0, *cuts, NUM_FRAMES]
    return NodeAllocator(frames, NumaTopology(
        nodes=nodes, ranges=tuple(zip(bounds[:-1], bounds[1:]))))


SETUPS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32),
    # per-chunk share of frames kept allocated
    "keep": st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.45, 0.7]),
                     min_size=8, max_size=8),
    "dirt": st.sampled_from([0.0, 0.3, 1.0]),
    "prezero": st.integers(0, 6),
    "refuse": st.sampled_from([0.0, 0.01, 0.1]),
    "stale": st.sampled_from([0.0, 0.01, 0.1]),
    "unmapped": st.sampled_from([0.0, 0.02]),
    "pins": st.integers(0, 3),
    # (sparse chunk, spare frames): every other chunk is full but for the
    # spare frames, so destinations can run out mid-chunk
    "tight": st.one_of(st.none(), st.tuples(st.integers(0, 7),
                                            st.integers(0, 120))),
})

BUDGETS = st.lists(st.sampled_from([0, 7, 60, 300, 1000, 10**6]),
                   min_size=1, max_size=3)


def _history(alloc, reg: Registry, setup: dict) -> None:
    """Fill memory, thin each chunk to its share, then mark frames."""
    rng = random.Random(setup["seed"])
    frames = alloc.frames
    taken = alloc.try_alloc_frames(alloc.free_pages, prefer_zero=False,
                                   owner=1).tolist()
    for frame in taken:
        if rng.random() < setup["dirt"]:
            frames.write(frame, first_nonzero=rng.randrange(4096))
    rng.shuffle(taken)
    keep = setup["keep"]
    if setup["tight"] is not None:
        sparse, spare = setup["tight"]
        keep = [min(share, 0.45) if chunk == sparse else 1.0
                for chunk, share in enumerate(keep)]
    kept = [f for f in taken if rng.random() < keep[f // PAGES_PER_HUGE]]
    if setup["tight"] is not None:
        dense = [f for f in kept if f // PAGES_PER_HUGE != sparse]
        spares = set(rng.sample(dense, min(spare, len(dense))))
        kept = [f for f in kept if f not in spares]
    held = set(kept)
    for frame in taken:
        if frame not in held:
            alloc.free(frame, 0)
    for _ in range(setup["prezero"]):
        block = alloc.pop_nonzero_block()
        if block is not None:
            alloc.reinsert_zeroed(*block)
    for logical, frame in enumerate(kept):
        roll = rng.random()
        if roll < setup["unmapped"]:
            continue
        reg.by_frame[frame] = logical
        if roll < setup["unmapped"] + setup["refuse"]:
            reg.refuse.add(frame)
        elif roll < setup["unmapped"] + setup["refuse"] + setup["stale"]:
            reg.stale.add(frame)
    for _ in range(setup["pins"]):
        if kept:
            frames.pinned[rng.choice(kept)] = True


def _compactors(alloc, reg: Registry):
    if isinstance(alloc, NodeAllocator):
        bulk = NodeCompactor(alloc, reg.migrate, reg.movable)
        ref = NodeCompactor(alloc, reg.migrate, reg.movable)
        ref.compactors = [
            PerFrameCompactor(c.buddy, c.migrate, c.movable, lo=c.lo, hi=c.hi)
            for c in ref.compactors]
        return bulk, ref
    lo, hi = alloc.start, alloc.end
    return (Compactor(alloc, reg.migrate, reg.movable, lo=lo, hi=hi),
            PerFrameCompactor(alloc, reg.migrate, reg.movable, lo=lo, hi=hi))


def _state(alloc, reg: Registry) -> tuple:
    return (_snapshot(alloc), list(reg.by_frame.items()), reg.log,
            sorted(reg.stale))


def _check(alloc, setup: dict, budgets: list[int]) -> list[CompactionStats]:
    """Compact twins with each budget in turn; returns the bulk runs."""
    _attach_ledger(alloc.frames)
    reg = Registry()
    _history(alloc, reg, setup)
    bulk_side = (alloc, reg)
    ref_side = copy.deepcopy(bulk_side)
    bulk, _ = _compactors(*bulk_side)
    _, ref = _compactors(*ref_side)
    runs = []
    for budget in budgets:
        runs.append(bulk.run(budget))
        assert runs[-1] == ref.run(budget)
        assert _state(*bulk_side) == _state(*ref_side)
    assert bulk.stats == ref.stats
    return runs


@settings(max_examples=100, deadline=None)
@given(alloc=allocators(), setup=SETUPS, budgets=BUDGETS)
def test_compaction_matches_per_frame_reference(alloc, setup, budgets):
    _check(alloc, setup, budgets)


@pytest.mark.parametrize("spare", [0, 1, 30, 70, 300])
@pytest.mark.parametrize("max_order", [10, 9, 5])
def test_destinations_run_out_mid_chunk(spare, max_order):
    """One sparse chunk (about 100 frames) and fewer spare frames anywhere
    else: the chunk is abandoned where the destinations run out.  With
    enough spare frames it empties (below order 9, into several blocks)."""
    alloc = BuddyAllocator(FrameTable(NUM_FRAMES), max_order=max_order)
    setup = dict(seed=spare, keep=[0.2] * 8, dirt=0.3, prezero=2, refuse=0.0,
                 stale=0.0, unmapped=0.0, pins=0, tight=(3, spare))
    (run,) = _check(alloc, setup, [10**6])
    if spare < 80:
        assert (run.pages_moved, run.chunks_abandoned) == (spare, 1)
    else:
        assert (run.chunks_abandoned, run.blocks_created) == (0, 1)
