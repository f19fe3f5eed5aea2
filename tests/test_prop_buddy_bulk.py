"""Property tests: the bulk order-0 paths equal their per-frame loops.

``free_frames`` must equal per-frame ``free(f, 0)``, and
``try_alloc_frames(n, prefer_zero)`` must equal ``n`` scalar
``try_alloc(0, prefer_zero)`` calls (the same frames in the same order,
stopping where the scalar calls start returning None).

Two identical allocators (a deep copy after a random history) run the
same request, one through the bulk call and one through the scalar loop
this file keeps as the reference.  Afterwards every free
list's ``items()`` order, ``_block_order`` (with its order),
``free_pages``, the frame-table arrays and an attached audit ledger must
be identical.  The history mixes scalar and extent allocations, frees,
dirty writes, pre-zeroing and a held-block free that leaves two free
buddies unmerged, so the bulk free starts from arbitrary free-list
states.  Invalid sequences (a double free, a frame listed twice) must
raise the same ``AllocationError`` and leave the same partial state.
Allocation runs also start from boot content with random dirt, so the
seeded blocks themselves mix zero and dirty frames.
"""

from __future__ import annotations

import copy
import random
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.audit import FrameLedger
from repro.errors import AllocationError
from repro.mem.buddy import BuddyAllocator
from repro.mem.frames import FrameTable
from repro.numa.allocator import NodeAllocator
from repro.numa.topology import NumaTopology

NUM_FRAMES = 2048

_LEDGER_COLUMNS = ("live", "alloc_pid", "alloc_order", "alloc_epoch",
                   "alloc_site", "ev_code", "ev_epoch", "ev_arg", "ev_len")

OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "run", "free", "write", "prezero", "hold"]),
        st.integers(0, 10**6),
        st.integers(0, 10),
    ),
    max_size=40,
)

#: share of the allocated frames a sequence frees (all of them often, so
#: whole high-order blocks complete).
FRACTIONS = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


def _frame_table(draw, dirt: bool) -> FrameTable:
    """A fresh table; with ``dirt``, boot content carries random dirty
    frames, so the seeded blocks already mix zero and dirty frames."""
    frames = FrameTable(NUM_FRAMES)
    if dirt:
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.9, 1.0]))
        frames.first_nonzero[rng.random(NUM_FRAMES) < density] = 0
    return frames


@st.composite
def buddies(draw, dirt: bool = False):
    """A whole-table allocator, or one zone with unaligned bounds."""
    frames = _frame_table(draw, dirt)
    if draw(st.booleans()):
        return BuddyAllocator(frames)
    start = draw(st.integers(0, NUM_FRAMES // 2))
    end = draw(st.integers(start + 1, NUM_FRAMES))
    return BuddyAllocator(frames, max_order=draw(st.integers(0, 10)),
                          start=start, end=end)


@st.composite
def node_allocators(draw, dirt: bool = False):
    """2-4 zones, default-aligned or cut at arbitrary frames."""
    nodes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        topology = NumaTopology(nodes=nodes)
    else:
        cuts = sorted(draw(st.sets(st.integers(1, NUM_FRAMES - 1),
                                   min_size=nodes - 1, max_size=nodes - 1)))
        bounds = [0, *cuts, NUM_FRAMES]
        topology = NumaTopology(
            nodes=nodes, ranges=tuple(zip(bounds[:-1], bounds[1:])))
    return NodeAllocator(_frame_table(draw, dirt), topology)


def _attach_ledger(frames: FrameTable) -> None:
    kernel = SimpleNamespace(frames=frames, stats=SimpleNamespace(epochs=3))
    frames.ledger = FrameLedger(kernel)


def _history(alloc, ops) -> None:
    """Drive ``alloc`` through a random alloc/free/write/prezero history."""
    frames = alloc.frames
    live: list[tuple[int, int]] = []
    top = alloc.max_order
    for kind, pick, order in ops:
        order %= top + 1
        if kind == "alloc":
            got = alloc.try_alloc(order, prefer_zero=pick % 2 == 0,
                                  owner=pick % 5)
            if got is not None:
                live.append((got[0], order))
        elif kind == "run":
            # The fault path's extent loop.
            want = pick % 300 + 1
            while want > 0:
                ext = alloc.try_alloc_run_extent(
                    want, prefer_zero=pick % 2 == 0, owner=7)
                if ext is None:
                    break
                start, count, _ = ext
                live.extend((f, 0) for f in range(start, start + count))
                want -= count
        elif kind == "free" and live:
            alloc.free(*live.pop(pick % len(live)))
        elif kind == "write" and live:
            start, order = live[pick % len(live)]
            frames.write(start + pick % (1 << order), first_nonzero=pick % 4096)
            frames.ledger.record(start, 1, 5)
        elif kind == "prezero":
            block = alloc.pop_nonzero_block()
            if block is not None:
                alloc.reinsert_zeroed(*block)
        elif kind == "hold":
            # Free everything in a dirty free block's buddy while the block
            # is off the lists: once reinserted, the two free buddies stay
            # unmerged (scalar coalescing only merges on insert).
            block = alloc.pop_nonzero_block(max_order=order)
            if block is None:
                continue
            buddy = block[0] ^ (1 << block[1])
            inside = [b for b in live
                      if buddy <= b[0] < buddy + (1 << block[1])]
            for b in inside:
                live.remove(b)
                alloc.free(*b)
            alloc.reinsert_dirty(*block)


def _snapshot(alloc) -> tuple:
    zones = getattr(alloc, "zones", [alloc])
    lists = [
        ([list(d.items()) for d in z._zero],
         [list(d.items()) for d in z._nonzero],
         list(z._block_order.items()),
         z.free_pages)
        for z in zones
    ]
    frames = alloc.frames
    arrays = [getattr(frames, name).tolist() for name in
              ("allocated", "owner", "pinned", "first_nonzero", "content_tag")]
    ledger = frames.ledger
    columns = [getattr(ledger, name).tolist() for name in _LEDGER_COLUMNS]
    return lists, arrays, columns, ledger.events_recorded


def _sequence(alloc, seed: int, fraction: float) -> list[int]:
    """A random order over a random share of the allocated frames."""
    held = np.flatnonzero(alloc.frames.allocated).tolist()
    rng = random.Random(seed)
    rng.shuffle(held)
    return held[:max(1, int(len(held) * fraction))] if held else []


def _twins(alloc, ops):
    _attach_ledger(alloc.frames)
    _history(alloc, ops)
    return alloc, copy.deepcopy(alloc)


def _check_valid(alloc, ops, seed, fraction):
    bulk, scalar = _twins(alloc, ops)
    seq = _sequence(bulk, seed, fraction)
    orders = [bulk.completion_indices(seq, o).tolist()
              for o in range(bulk.max_order + 1)]
    ended = [scalar.free(f, 0) for f in seq]
    bulk.free_frames(seq)
    assert _snapshot(bulk) == _snapshot(scalar)
    for order, got in enumerate(orders):
        assert got == [i for i, o in enumerate(ended) if o >= order]


@settings(max_examples=80, deadline=None)
@given(alloc=buddies(), ops=OPS, seed=st.integers(0, 2**32),
       fraction=FRACTIONS)
def test_free_frames_matches_scalar_frees(alloc, ops, seed, fraction):
    _check_valid(alloc, ops, seed, fraction)


@settings(max_examples=60, deadline=None)
@given(alloc=node_allocators(), ops=OPS, seed=st.integers(0, 2**32),
       fraction=FRACTIONS)
def test_node_free_frames_matches_scalar_frees(alloc, ops, seed, fraction):
    _check_valid(alloc, ops, seed, fraction)


@settings(max_examples=60, deadline=None)
@given(alloc=st.one_of(buddies(), node_allocators()), ops=OPS,
       seed=st.integers(0, 2**32), fraction=FRACTIONS,
       duplicate=st.booleans(), at=st.integers(0, 10**6))
def test_invalid_sequence_raises_like_scalar(alloc, ops, seed, fraction,
                                             duplicate, at):
    bulk, scalar = _twins(alloc, ops)
    seq = _sequence(bulk, seed, fraction)
    if duplicate and seq:
        first = at % len(seq)
        seq.insert(first + 1 + at % (len(seq) - first), seq[first])
    else:
        lo = getattr(bulk, "start", 0)
        hi = getattr(bulk, "end", NUM_FRAMES)
        free = np.flatnonzero(~bulk.frames.allocated[lo:hi]) + lo
        if free.size == 0:
            return
        seq.insert(at % (len(seq) + 1), int(free[at % free.size]))
    with pytest.raises(AllocationError) as want:
        for f in seq:
            scalar.free(f, 0)
    with pytest.raises(AllocationError) as got:
        bulk.free_frames(seq)
    assert str(got.value) == str(want.value)
    assert _snapshot(bulk) == _snapshot(scalar)


def test_empty_sequence_is_a_no_op():
    alloc = BuddyAllocator(FrameTable(1024))
    _attach_ledger(alloc.frames)
    before = _snapshot(alloc)
    alloc.free_frames([])
    assert _snapshot(alloc) == before
    assert alloc.completion_indices([], 9).size == 0


def test_unmerged_free_buddies_stay_unmerged():
    """Two free order-8 buddies left unmerged (a block was off the lists
    while its buddy was freed) do not merge when their order-9 buddy
    completes: scalar coalescing stops at the order-9 level."""
    frames = FrameTable(2048)
    alloc = BuddyAllocator(frames)
    _attach_ledger(frames)
    alloc.try_alloc_frames(2048)
    frames.write(0)
    alloc.free_range(0, 256)
    held = alloc.pop_nonzero_block()
    assert held == (0, 8)
    alloc.free_range(256, 256)
    alloc.reinsert_dirty(*held)
    scalar = copy.deepcopy(alloc)
    seq = list(range(1023, 511, -1))
    ended = [scalar.free(f, 0) for f in seq]
    assert ended[-1] == 9
    alloc.free_frames(seq)
    assert _snapshot(alloc) == _snapshot(scalar)
    assert alloc._block_order == {0: 8, 256: 8, 512: 9}


# ---------------------------------------------------------------------- #
# try_alloc_frames                                                        #
# ---------------------------------------------------------------------- #


def _scalar_frames(alloc, n: int, prefer_zero: bool, owner: int) -> list[int]:
    """Reference: one scalar order-0 allocation per frame."""
    out = []
    for _ in range(n):
        got = alloc.try_alloc(0, prefer_zero, owner)
        if got is None:
            break
        out.append(got[0])
    return out


def _numa_counters(alloc) -> tuple:
    return tuple(getattr(alloc, name, None)
                 for name in ("numa_hit", "numa_miss", "numa_foreign"))


@settings(max_examples=120, deadline=None)
@given(alloc=st.one_of(buddies(dirt=True), node_allocators(dirt=True)),
       ops=OPS, prefer_zero=st.booleans(),
       share=st.one_of(st.just(1.0), st.floats(0.0, 1.2)),
       extra=st.integers(0, 3), owner=st.integers(-3, 9))
def test_try_alloc_frames_matches_scalar_allocs(alloc, ops, prefer_zero,
                                                share, extra, owner):
    bulk, scalar = _twins(alloc, ops)
    n = int(bulk.free_pages * share) + extra
    want = _scalar_frames(scalar, n, prefer_zero, owner)
    got = bulk.try_alloc_frames(n, prefer_zero, owner)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert _snapshot(bulk) == _snapshot(scalar)
    assert _numa_counters(bulk) == _numa_counters(scalar)


@pytest.mark.parametrize("prefer_zero", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 16, 40])
def test_try_alloc_frames_stops_inside_a_mixed_block(prefer_zero, n):
    """A dirty order-4 block with zero frames scattered inside: the drain
    may stop at any frame, leaving the halves the scalar calls left."""
    frames = FrameTable(64)
    frames.first_nonzero[:] = 0
    frames.first_nonzero[[1, 4, 5, 6, 7, 10, 11, 33]] = -1
    alloc = BuddyAllocator(frames, max_order=4)
    _attach_ledger(frames)
    scalar = copy.deepcopy(alloc)
    want = _scalar_frames(scalar, n, prefer_zero, 7)
    assert alloc.try_alloc_frames(n, prefer_zero, 7).tolist() == want
    assert _snapshot(alloc) == _snapshot(scalar)
