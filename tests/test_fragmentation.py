"""Unit tests for FMFI and the controlled fragmenter."""

import pytest

from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import Fragmenter, fmfi
from repro.mem.frames import FrameTable


def make(num_frames=8192):
    frames = FrameTable(num_frames)
    buddy = BuddyAllocator(frames)
    return frames, buddy, Fragmenter(buddy)


def test_fmfi_zero_when_pristine():
    _, buddy, _ = make()
    assert fmfi(buddy) == 0.0


def test_fmfi_one_when_memory_exhausted():
    _, buddy, _ = make(1024)
    buddy.alloc(order=10)
    assert fmfi(buddy) == 1.0


def test_fmfi_rises_with_fragmentation():
    _, buddy, frag = make()
    low = fmfi(buddy)
    frag.fragment(keep_fraction=0.05)
    assert fmfi(buddy) > low
    assert fmfi(buddy) > 0.9, "scattered 5% residue should break all order-9 blocks"


def test_fragment_keeps_requested_fraction():
    _, buddy, frag = make(8192)
    frag.fragment(keep_fraction=0.1)
    assert frag.cache_pages == pytest.approx(8192 * 0.1, rel=0.05)
    assert buddy.allocated_pages == frag.cache_pages


def test_fragment_with_target_fmfi_stops_early():
    # keep_fraction 0 would normally release everything (FMFI back to 0);
    # the target makes the fragmenter stop while still fragmented.
    _, buddy, frag = make(8192)
    result = frag.fragment(keep_fraction=0.0, target_fmfi=0.6)
    assert result <= 0.6
    assert frag.cache_pages > 0, "early stop retains extra pages in the cache"


def naive_fragment(frag: Fragmenter, keep_fraction: float,
                   target_fmfi: float | None = None):
    """Reference implementation: one scalar allocation and one scalar free
    per frame, with FMFI recomputed after every single free.

    ``Fragmenter.fragment`` replaced these loops with one extent
    allocation, one bulk ``free_frames`` and an early stop checked only at
    order-9 completions; kept here to pin exact equivalence.
    """
    taken = []
    while True:
        got = frag.buddy.try_alloc(order=0, prefer_zero=False, owner=-2)
        if got is None:
            break
        taken.append(got[0])
    frag._rng.shuffle(taken)
    keep = int(len(taken) * keep_fraction)
    kept, to_free = taken[:keep], taken[keep:]
    frag._cache_pages.update(kept)
    for i, frame in enumerate(to_free):
        frag.buddy.free(frame, 0)
        if target_fmfi is not None and fmfi(frag.buddy) <= target_fmfi:
            frag._cache_pages.update(to_free[i + 1:])
            return fmfi(frag.buddy)
    return fmfi(frag.buddy)


_LEDGER_COLUMNS = ("live", "alloc_pid", "alloc_order", "alloc_epoch",
                   "alloc_site", "ev_code", "ev_epoch", "ev_arg", "ev_len")


def full_state(frag: Fragmenter) -> dict:
    """Everything a later allocation or report can observe."""
    buddy = frag.buddy
    frames = buddy.frames
    state = {
        "zero": [list(d.items()) for d in buddy._zero],
        "nonzero": [list(d.items()) for d in buddy._nonzero],
        "block_order": list(buddy._block_order.items()),
        "free_pages": buddy.free_pages,
        "frames": [getattr(frames, name).tolist()
                   for name in ("allocated", "owner", "pinned")],
        "cache": list(frag._cache_pages),
        "rng": frag._rng.getstate(),
    }
    if (ledger := frames.ledger) is not None:
        state["ledger"] = [getattr(ledger, name).tolist()
                           for name in _LEDGER_COLUMNS]
        state["events"] = ledger.events_recorded
    return state


@pytest.mark.parametrize("target", [0.3, 0.6, 0.9, 1.0])
def test_target_fmfi_matches_every_free_reference(target):
    """The event-driven early stop lands on the exact same frame (and
    therefore identical FMFI, cache contents and buddy state) as the
    per-free scan."""
    _, _, frag_fast = make(8192)
    _, _, frag_ref = make(8192)
    fast = frag_fast.fragment(keep_fraction=0.0, target_fmfi=target)
    ref = naive_fragment(frag_ref, keep_fraction=0.0, target_fmfi=target)
    assert fast == ref
    assert frag_fast.cache_pages == frag_ref.cache_pages
    assert full_state(frag_fast) == full_state(frag_ref)


@pytest.mark.parametrize("keep_fraction", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("seed", [7, 8])
def test_fragment_matches_per_frame_reference(keep_fraction, seed):
    """Without a target, the bulk path leaves every free list in the same
    dict order, the same block orders and frame arrays, and then reclaims
    the same pages."""
    frames_fast, buddy_fast, _ = make(8192)
    frames_ref, buddy_ref, _ = make(8192)
    frag_fast = Fragmenter(buddy_fast, seed=seed)
    frag_ref = Fragmenter(buddy_ref, seed=seed)
    assert (frag_fast.fragment(keep_fraction=keep_fraction)
            == naive_fragment(frag_ref, keep_fraction))
    assert full_state(frag_fast) == full_state(frag_ref)
    frag_fast.reclaim(100)
    for _ in range(100):
        frag_ref.buddy.free(frag_ref._cache_pages.pop(), 0)
    assert full_state(frag_fast) == full_state(frag_ref)


@pytest.mark.parametrize("target", [None, 0.6])
def test_fragment_with_audit_matches_per_frame_reference(target):
    """With an audit ledger attached the file-cache frames record order 0
    and one ``freed`` event each, exactly as per-frame calls record."""
    from repro import audit
    from repro.experiments import Scale, make_kernel
    from repro.units import GB

    kernels = [make_kernel(8 * GB, "linux-4kb", Scale.from_denominator(256))
               for _ in range(2)]
    for kernel in kernels:
        audit.attach(kernel)
    fast, ref = (kernel.fragmenter for kernel in kernels)
    assert (fast.fragment(keep_fraction=0.05, target_fmfi=target)
            == naive_fragment(ref, 0.05, target))
    assert full_state(fast) == full_state(ref)
    ledger = kernels[0].audit.ledger
    cache = sorted(fast._cache_pages)
    assert (ledger.alloc_order[cache] == 0).all()


def test_target_fmfi_checks_only_on_coalesce_events(monkeypatch):
    """Setup cost: FMFI is recomputed per order-9 coalesce, not per free."""
    import repro.mem.fragmentation as fragmentation

    _, _, frag = make(8192)
    calls = {"n": 0}
    real = fragmentation.fmfi

    def counting(buddy, order=9):
        calls["n"] += 1
        return real(buddy, order)

    monkeypatch.setattr(fragmentation, "fmfi", counting)
    frag.fragment(keep_fraction=0.0, target_fmfi=0.0)  # frees all 8192 frames
    assert calls["n"] <= 8192 // 256, "FMFI recomputed far too often"


def test_buddy_free_returns_coalesced_order():
    frames = FrameTable(1024)
    buddy = BuddyAllocator(frames)
    start, _ = buddy.alloc(order=9)
    for i in range(512):
        order = buddy.free(start + 511 - i, 0)
        if i < 511:
            # the order-9 block cannot complete until every frame is back
            assert order < 9
        else:
            # the last free completes order 9 and then merges with the
            # other (always-free) order-9 block of the 1024-frame table
            assert order >= 9


def test_reclaim_frees_cache_pages():
    _, buddy, frag = make()
    frag.fragment(keep_fraction=0.2)
    held = frag.cache_pages
    freed = frag.reclaim(100)
    assert freed == 100
    assert frag.cache_pages == held - 100
    assert buddy.free_pages == 8192 - held + 100


def test_reclaim_bounded_by_cache():
    _, buddy, frag = make(1024)
    frag.fragment(keep_fraction=0.01)
    held = frag.cache_pages
    freed = frag.reclaim(10_000)
    assert freed == held
    assert frag.cache_pages == 0
    assert buddy.free_pages == 1024


def test_release_all_restores_memory():
    _, buddy, frag = make()
    frag.fragment(keep_fraction=0.3)
    frag.release_all()
    assert buddy.free_pages == 8192
    assert fmfi(buddy) == 0.0, "coalescing must fully rebuild order-9 blocks"


def test_migrate_page_moves_cache_entry():
    _, buddy, frag = make(1024)
    frag.fragment(keep_fraction=0.1)
    victim = next(iter(frag._cache_pages))
    assert frag.migrate_page(victim, 999_999) is True
    assert victim not in frag._cache_pages
    assert 999_999 in frag._cache_pages
    assert frag.migrate_page(victim, 5) is False
