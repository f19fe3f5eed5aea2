"""Tests for process teardown (exit_process)."""

import pytest

from repro.kernel.kernel import Kernel, KernelConfig
from repro.policies.freebsd import FreeBSDPolicy
from repro.units import MB, PAGES_PER_HUGE
from tests.conftest import small_config
from tests.test_fault import make_proc


def test_exit_releases_all_memory(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    for hvpn in range(vma.start >> 9, vma.end >> 9):
        kernel_thp.fault(proc, hvpn << 9)
    free_before_exit = kernel_thp.buddy.free_pages
    freed = kernel_thp.exit_process(proc)
    assert freed == 4 * PAGES_PER_HUGE
    assert kernel_thp.buddy.free_pages == free_before_exit + freed
    assert proc not in kernel_thp.processes
    assert proc.page_table.base_count == 0
    assert proc.page_table.huge_count == 0
    assert proc.page_table.base_vpns().size == 0
    assert proc.page_table.huge_hvpns().size == 0


def test_exit_with_mixed_mappings(kernel_thp):
    proc, vma = make_proc(kernel_thp, nbytes=8 * MB)
    kernel_thp.fault(proc, vma.start)                      # huge
    kernel_thp.demote_region(proc, vma.start >> 9)
    kernel_thp.madvise_free(proc, vma.start, 10)           # holes
    kernel_thp.dedup_zero_pages(proc, vma.start >> 9)      # shared-zero rest
    shared = proc.page_table.shared_zero_count
    assert shared > 0
    mappings_before = kernel_thp.zero_registry.mappings
    kernel_thp.exit_process(proc)
    assert kernel_thp.zero_registry.mappings == mappings_before - shared
    # every frame is back: only the canonical zero frame stays allocated
    assert kernel_thp.frames.allocated_count() == 1


def test_exit_clears_policy_state():
    kernel = Kernel(small_config(), FreeBSDPolicy)
    proc, vma = make_proc(kernel)
    kernel.fault(proc, vma.start)  # creates a reservation
    assert kernel.policy.reservations
    kernel.exit_process(proc)
    assert not kernel.policy.reservations
    assert kernel.frames.allocated_count() == 1


def test_exit_drops_swap_entries():
    kernel = Kernel(
        KernelConfig(mem_bytes=8 * MB, swap_bytes=32 * MB),
        lambda k: __import__("repro.policies.linux", fromlist=["Linux4KPolicy"]).Linux4KPolicy(k),
    )
    proc, vma = make_proc(kernel, nbytes=16 * MB)
    for vpn in range(vma.start, vma.start + 3000):
        kernel.fault(proc, vpn)
    assert kernel.swap.swapped
    kernel.exit_process(proc)
    assert not kernel.swap.swapped


def test_exit_finishes_workload_run(kernel4k):
    from tests.conftest import spawn_simple

    run = spawn_simple(kernel4k, heap_mb=4, work_s=1000.0)
    kernel4k.run_epochs(2)
    assert not run.finished
    kernel4k.exit_process(run.proc)
    assert run.finished
    kernel4k.run_epochs(2)  # the dead run must not be stepped again


def test_exit_twice_is_safe(kernel4k):
    proc, vma = make_proc(kernel4k)
    kernel4k.fault(proc, vma.start)
    kernel4k.exit_process(proc)
    assert kernel4k.exit_process(proc) == 0


def _teardown_script():
    """Build a process whose mapping order differs from vpn order.

    Returns ``(kernel, proc, huge, base)``: the huge regions and the base
    vpns still mapped, each listed in the order they were mapped.
    """
    from repro.mem.samepage import SamePageMerger
    from repro.policies.linux import LinuxTHPPolicy
    from repro.vm.vma import HugePageHint

    kernel = Kernel(small_config(),
                    lambda k: LinuxTHPPolicy(k, promote_per_sec=100.0))
    proc, heap = make_proc(kernel, nbytes=8 * MB)
    low = kernel.mmap(proc, 4 * MB, "low")
    kernel.madvise_hugepage(proc, "low", HugePageHint.NEVER)
    # A second process takes every other frame, so the frames ``proc``
    # frees cannot coalesce and stay on the lists in the order freed.
    pin, pin_vma = make_proc(kernel, nbytes=4 * MB)
    kernel.madvise_hugepage(pin, "heap", HugePageHint.NEVER)
    pins = iter(range(pin_vma.start, pin_vma.end))
    base = []

    def fault(vpn):
        kernel.fault(proc, vpn)
        pin_vpn = next(pins)
        kernel.fault(pin, pin_vpn)
        kernel.frames.write(pin.page_table.translate(pin_vpn)[0])
        base.append(vpn)

    # a high vpn before a low one
    for vpn in (low.start + 700, low.start + 5, low.start + 6, low.start + 701):
        fault(vpn)
    h0 = heap.start >> 9
    huge = [h0 + 2, h0, h0 + 1]
    for hvpn in huge:
        kernel.fault(proc, hvpn << 9)
    # demotion maps the region's 512 base pages at once
    kernel.demote_region(proc, h0)
    huge.remove(h0)
    base.extend(range(h0 << 9, (h0 + 1) << 9))
    # a hole, then part of it faulted back: those pages map last
    freed = range((h0 << 9) + 100, (h0 << 9) + 150)
    kernel.madvise_free(proc, freed.start, len(freed))
    base = [vpn for vpn in base if vpn not in freed]
    for vpn in range((h0 << 9) + 120, (h0 << 9) + 130):
        fault(vpn)
    # Unique content everywhere but one zero page and one duplicate pair.
    # The pair's canonical frame is freed when its later sharer unmaps,
    # and its buddy is pinned, so that sharer's stamp shows in the lists.
    pair = (low.start + 5, low.start + 701)
    for vpn in base:
        if vpn != low.start + 6:
            frame, _ = proc.page_table.translate(vpn)
            kernel.frames.write(frame, first_nonzero=0,
                                tag=4242 if vpn in pair else None)
    SamePageMerger(kernel, pages_per_sec=1e9).run_epoch()
    assert kernel.cow_registry.merges == 1
    assert kernel.zero_registry.mappings == 1
    return kernel, proc, huge, base


def _free_lists(kernel):
    buddy = kernel.buddy
    return ([list(d.items()) for d in buddy._zero],
            [list(d.items()) for d in buddy._nonzero])


def test_exit_frees_in_mapping_order():
    """Teardown releases frames in mapping order, not vpn order.

    The buddy free lists' dict order decides every later placement, so
    ``exit_process`` must leave them exactly as freeing each huge block,
    then each base frame, one at a time in the order they were mapped.
    """
    kernel, proc, _, _ = _teardown_script()
    twin, twin_proc, huge, base = _teardown_script()
    assert _free_lists(kernel) == _free_lists(twin)
    kernel.exit_process(proc)
    zero = twin.zero_registry
    for hvpn in huge:
        frame, _ = twin_proc.page_table.translate(hvpn << 9)
        twin.buddy.free(frame, 9)
    for vpn in base:
        frame, _ = twin_proc.page_table.translate(vpn)
        if frame == zero.zero_frame:
            zero.unshare()
        elif frame in twin.cow_registry.refcount:
            twin.cow_registry.unshare(frame)
        else:
            twin.buddy.free(frame, 0)
    assert _free_lists(kernel) == _free_lists(twin)
    assert kernel.buddy.free_pages == twin.buddy.free_pages
    assert kernel.frames.allocated_count() == twin.frames.allocated_count()
