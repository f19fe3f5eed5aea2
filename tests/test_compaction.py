"""Unit tests for memory compaction.

``PerFrameCompactor`` keeps the per-frame loop ``Compactor`` ran before
its bulk path, as the reference the bulk path must equal exactly (here
on real kernels, in ``test_prop_compaction.py`` on random allocators).
"""

import numpy as np
import pytest

from repro import audit
from repro.mem.buddy import BuddyAllocator
from repro.mem.compaction import CompactionStats, Compactor
from repro.mem.frames import FrameTable
from repro.units import PAGES_PER_HUGE


class PerFrameCompactor(Compactor):
    """Reference: one destination ``try_alloc(0, prefer_zero=False)``, one
    migrate and scalar content and ledger writes per frame, stopping at
    the first refusal; then the carved blocks go back one by one and each
    moved frame is freed with ``free(f, 0)``."""

    def run(self, budget_pages: int) -> CompactionStats:
        run_stats = CompactionStats(runs=1)
        frames = self.buddy.frames
        hi = frames.num_frames if self.hi is None else self.hi
        first, last = -(-self.lo // PAGES_PER_HUGE), hi // PAGES_PER_HUGE
        candidates = []
        if last > first:
            window = slice(first * PAGES_PER_HUGE, last * PAGES_PER_HUGE)
            alloc = frames.allocated[window].reshape(-1, PAGES_PER_HUGE)
            pinned = frames.pinned[window].reshape(-1, PAGES_PER_HUGE)
            occupancy = alloc.sum(axis=1)
            ok = ((occupancy > 0) & (occupancy <= PAGES_PER_HUGE // 2)
                  & ~pinned.any(axis=1))
            candidates = [(first + int(c)) * PAGES_PER_HUGE
                          for c in np.argsort(occupancy, kind="stable") if ok[c]]
        for chunk_start in candidates:
            chunk = slice(chunk_start, chunk_start + PAGES_PER_HUGE)
            occupancy = int(frames.allocated[chunk].sum())
            if run_stats.pages_moved + occupancy > budget_pages:
                break
            if not self._empty_chunk(chunk_start, run_stats):
                run_stats.chunks_abandoned += 1
                continue
            if not frames.allocated[chunk].any():
                run_stats.blocks_created += 1
        self.stats.merge(run_stats)
        return run_stats

    def _empty_chunk(self, chunk_start: int, run_stats: CompactionStats) -> bool:
        frames = self.buddy.frames
        chunk_end = chunk_start + PAGES_PER_HUGE
        occupied = np.flatnonzero(frames.allocated[chunk_start:chunk_end]) + chunk_start
        carved = self.buddy.carve_range(chunk_start, chunk_end)
        ok = True
        emptied = []
        for old in occupied.tolist():
            got = self.buddy.try_alloc(0, prefer_zero=False)
            if got is None:
                ok = False
                break
            new = got[0]
            assert not chunk_start <= new < chunk_end
            if not self.migrate(old, new):
                self.buddy.free(new, 0)
                ok = False
                break
            frames.first_nonzero[new] = frames.first_nonzero[old]
            frames.content_tag[new] = frames.content_tag[old]
            frames.owner[new] = frames.owner[old]
            if (led := frames.ledger) is not None and led.enabled:
                led.copy_provenance(old, new)
                led.record(new, 1, audit.EV_COMPACTED, old)
                led.set_site(new, audit.SITE_COMPACT)
            emptied.append(old)
        for start, order in carved:
            self.buddy.insert_free_block(start, order)
        for old in emptied:
            self.buddy.free(old, 0)
        run_stats.pages_moved += len(emptied)
        return ok


class MigrationRegistry:
    """Trivial rmap standing in for the kernel's migrate callback."""

    def __init__(self):
        self.locations: dict[int, int] = {}  # logical page -> frame
        self.by_frame: dict[int, int] = {}
        self.refuse: set[int] = set()

    def place(self, logical: int, frame: int) -> None:
        self.locations[logical] = frame
        self.by_frame[frame] = logical

    def movable(self, old: int) -> bool:
        return old not in self.refuse and old in self.by_frame

    def migrate(self, old: int, new: int) -> bool:
        if not self.movable(old):
            return False
        self.place(self.by_frame.pop(old), new)
        return True


def sparse_setup(num_frames=8192, per_chunk=10):
    """Allocate a few frames in every chunk so no order-9 block exists."""
    frames = FrameTable(num_frames)
    buddy = BuddyAllocator(frames)
    reg = MigrationRegistry()
    logical = 0
    taken = []
    while True:
        got = buddy.try_alloc(0, prefer_zero=False)
        if got is None:
            break
        taken.append(got[0])
    # keep `per_chunk` frames per chunk, free the rest
    keep = []
    for chunk in range(num_frames // PAGES_PER_HUGE):
        base = chunk * PAGES_PER_HUGE
        keep.extend(range(base, base + per_chunk))
    keep_set = set(keep)
    for f in taken:
        if f in keep_set:
            reg.place(logical, f)
            logical += 1
        else:
            buddy.free(f, 0)
    return frames, buddy, reg


def test_compaction_creates_huge_blocks():
    frames, buddy, reg = sparse_setup()
    assert buddy.free_blocks_at_least(9) == 0
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    stats = compactor.run(budget_pages=200)
    assert stats.blocks_created > 0
    # created order-9 blocks may have coalesced into order-10 blocks;
    # compare order-9 allocation *capacity* instead of block count
    counts = buddy.free_block_counts()
    capacity = sum((1 << (o - 9)) * n for o, n in enumerate(counts) if o >= 9)
    assert capacity >= stats.blocks_created
    assert stats.pages_moved <= 200


def test_compaction_preserves_mappings_and_content():
    frames, buddy, reg = sparse_setup()
    # give each mapped frame distinctive content
    for logical, frame in reg.locations.items():
        frames.write(frame, first_nonzero=logical % 4096, tag=1000 + logical)
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    compactor.run(budget_pages=500)
    for logical, frame in reg.locations.items():
        assert frames.allocated[frame]
        assert frames.content_tag[frame] == 1000 + logical
        assert frames.first_nonzero[frame] == logical % 4096


def test_compaction_respects_budget():
    frames, buddy, reg = sparse_setup()
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    stats = compactor.run(budget_pages=15)
    assert stats.pages_moved <= 15


def test_unmovable_frame_abandons_chunk():
    frames, buddy, reg = sparse_setup(num_frames=2048)
    victim = next(iter(reg.by_frame))
    reg.refuse.add(victim)
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    stats = compactor.run(budget_pages=10_000)
    assert stats.chunks_abandoned >= 1
    assert frames.allocated[victim]


def test_pinned_chunks_skipped():
    frames, buddy, reg = sparse_setup(num_frames=2048)
    some_frame = next(iter(reg.by_frame))
    frames.pinned[some_frame] = True
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    compactor.run(budget_pages=10_000)
    assert frames.allocated[some_frame]
    chunk = some_frame // PAGES_PER_HUGE
    lo = chunk * PAGES_PER_HUGE
    assert frames.allocated[lo:lo + PAGES_PER_HUGE].sum() >= 1


def test_stats_merge():
    a = CompactionStats(pages_moved=1, blocks_created=2, chunks_abandoned=3, runs=1)
    b = CompactionStats(pages_moved=10, blocks_created=20, chunks_abandoned=30, runs=2)
    a.merge(b)
    assert (a.pages_moved, a.blocks_created, a.chunks_abandoned, a.runs) == (11, 22, 33, 3)


def test_free_page_conservation():
    frames, buddy, reg = sparse_setup()
    before_free = buddy.free_pages
    before_alloc = frames.allocated_count()
    compactor = Compactor(buddy, reg.migrate, reg.movable)
    compactor.run(budget_pages=300)
    assert buddy.free_pages == before_free
    assert frames.allocated_count() == before_alloc


# ---------------------------------------------------------------------- #
# bulk path vs the per-frame reference on real kernels                    #
# ---------------------------------------------------------------------- #


def _kernel_state(kernel) -> dict:
    """Everything compaction can change, in observable order."""
    from tests.test_fragmentation import full_state

    state = full_state(kernel.fragmenter)
    frames = kernel.frames
    state["content"] = [getattr(frames, name).tolist()
                        for name in ("first_nonzero", "content_tag")]
    state["rmap"] = [(frame, proc.pid, vpn)
                     for frame, (proc, vpn) in kernel._rmap.items()]
    state["ptes"] = [(proc.pid, sorted(
        (vpn, proc.page_table.frame_of(vpn))
        for vpn in proc.page_table.base_vpns().tolist()))
                     for proc in kernel.processes]
    return state


def _fragmented_kernel(audited: bool):
    """A 64 MB kernel fragmented by file pages, plus one process whose
    sparse base pages landed in the fragmented space, and a few
    kernel-owned frames nothing can migrate."""
    from repro.experiments import reset_sim_state
    from repro.kernel.kernel import Kernel
    from repro.policies.linux import Linux4KPolicy
    from tests.conftest import small_config
    from tests.test_fault import make_proc

    reset_sim_state()  # same pids in both twins
    kernel = Kernel(small_config(), Linux4KPolicy)
    if audited:
        audit.attach(kernel)
    kernel.fragmenter.fragment(keep_fraction=0.05)
    proc, vma = make_proc(kernel, nbytes=16 * 2**20)
    for i in range(0, 4096, 3):
        kernel.fault(proc, vma.start + i)
        if i % 300 == 0:
            kernel.buddy.try_alloc(0, prefer_zero=False, owner=-3)
    kernel.frames.write_frames(
        np.flatnonzero(kernel.frames.allocated)[::7].tolist(), first_nonzero=9)
    return kernel, proc, vma


def _twin_kernels(audited: bool, reference_cls=PerFrameCompactor):
    """Identically built kernels; the second compacts per frame."""
    bulk, ref = (_fragmented_kernel(audited) for _ in range(2))
    ref[0].compactor = reference_cls(
        ref[0].buddy, ref[0]._migrate_frame, ref[0]._movable_frame)
    return bulk, ref


@pytest.mark.parametrize("audited", [True, False])
def test_kernel_compaction_matches_per_frame_reference(audited):
    """Several budgeted runs on a fragmented kernel: page tables, reverse
    map, file cache, free lists, frame content and (with audit) every
    ledger column and ``events_recorded`` equal the per-frame loop's."""
    (bulk, *_), (ref, *_) = _twin_kernels(audited)
    assert _kernel_state(bulk) == _kernel_state(ref)
    for budget in (40, 300, 2000, 10**6):
        got, want = bulk.compactor.run(budget), ref.compactor.run(budget)
        assert got == want
        assert _kernel_state(bulk) == _kernel_state(ref)
    assert bulk.compactor.stats == ref.compactor.stats
    assert bulk.compactor.stats.blocks_created > 0
    assert bulk.compactor.stats.chunks_abandoned > 0
    if audited:
        ledger = bulk.audit.ledger
        moved = np.flatnonzero((ledger.alloc_site == audit.SITE_COMPACT)
                               & ledger.live)
        assert moved.size > 0
        assert all(ledger.frame_events(int(f))[-1][0] == "compacted"
                   for f in moved[:50])


def test_stale_rmap_entry_abandons_chunk_like_per_frame_loop():
    """A reverse-map entry whose PTE maps another frame: movable() says no
    without touching it, the migrate call still drops it, the refused
    frame's destination is freed, and the state equals the reference."""
    (bulk, proc, vma), (ref, ref_proc, _) = _twin_kernels(audited=True)
    chunk = int(bulk.compactor._candidate_chunks()[0])
    victim = int(np.flatnonzero(
        bulk.frames.allocated[chunk:chunk + PAGES_PER_HUGE])[0]) + chunk
    vpn = vma.start  # mapped, to a frame other than the victim
    assert proc.page_table.frame_of(vpn) not in (victim, -1)
    bulk._rmap[victim] = (proc, vpn)
    ref._rmap[victim] = (ref_proc, vpn)
    assert not bulk._movable_frame(victim)
    assert bulk._rmap[victim] == (proc, vpn)  # the check changed nothing
    freed = []
    real_free = bulk.buddy.free
    bulk.buddy.free = lambda start, order=0: (freed.append((start, order)),
                                              real_free(start, order))[1]
    budget = int(bulk.frames.allocated[chunk:chunk + PAGES_PER_HUGE].sum())
    got, want = bulk.compactor.run(budget), ref.compactor.run(budget)
    assert got == want and got.chunks_abandoned >= 1
    assert victim not in bulk._rmap
    assert bulk.frames.allocated[victim]
    assert len(freed) == got.chunks_abandoned and freed[0][1] == 0
    assert not chunk <= freed[0][0] < chunk + PAGES_PER_HUGE
    assert _kernel_state(bulk) == _kernel_state(ref)


def test_emptied_chunk_returns_as_one_order9_insert():
    """A chunk whose every frame moved goes back as one coalescing insert:
    its carved blocks never re-enter the free lists."""
    frames, buddy, reg = sparse_setup()
    inserted = []
    real_insert = buddy.insert_free_block
    buddy.insert_free_block = lambda start, order: (
        inserted.append((start, order)), real_insert(start, order))[1]
    stats = Compactor(buddy, reg.migrate, reg.movable).run(budget_pages=200)
    assert stats.blocks_created > 0 and stats.chunks_abandoned == 0
    assert inserted == []
