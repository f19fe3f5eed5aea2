"""Per-kernel host-time probe for the timed runs.

The probe wraps ``Kernel.__init__`` and ``Kernel.run_epoch`` at class
level for the whole run (timed and traced alike).  It records, for
every kernel built, when construction started, when its first epoch
started and when its last epoch ended, which splits a cell's host time
into set-up (construction, fragmentation, spawning) and the epoch loop
without touching any layer below the kernel.  Its cost is three clock
reads per epoch, against epochs that take milliseconds, plus the speed
meter's calibrations, which are excluded from every interval.

It also wraps the runner's ``execute_cell`` to tag each kernel with the
cell that built it, since a sweep reports its cells only once all of
them have run.  Both cell starts and epoch starts are where the speed
meter (``speed.py``) may calibrate, between units of work.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from simbench.speed import SpeedMeter


@dataclass
class KernelTiming:
    """Host timestamps of one kernel's set-up and epoch loop."""

    kernel: object
    built_at: float
    #: the registry cell being executed when the kernel was built.
    cell_id: str | None = None
    first_epoch_at: float | None = None
    last_epoch_end: float | None = None

    @property
    def setup(self) -> tuple[float, float]:
        """Construction start to first epoch (empty for a kernel never run)."""
        if self.first_epoch_at is None:
            return (self.built_at, self.built_at)
        return (self.built_at, self.first_epoch_at)

    @property
    def loop(self) -> tuple[float, float]:
        """First epoch start to last epoch end (empty before any epoch ended)."""
        if self.first_epoch_at is None or self.last_epoch_end is None:
            return (self.built_at, self.built_at)
        return (self.first_epoch_at, self.last_epoch_end)


class KernelProbe:
    """Collects a :class:`KernelTiming` for every kernel built."""

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self._timings: list[KernelTiming] = []
        self._by_kernel: dict[int, KernelTiming] = {}
        self._originals: tuple | None = None
        self._cell_id: str | None = None

    def install(self) -> None:
        from repro.kernel.kernel import Kernel
        from repro.runner import registry

        init, run_epoch = Kernel.__init__, Kernel.run_epoch
        execute_cell = registry.execute_cell
        self._originals = (init, run_epoch, execute_cell)
        clock = time.perf_counter
        timings, by_kernel = self._timings, self._by_kernel
        probe = self
        maybe_sample = self.meter.maybe_sample

        def probed_init(kernel, *args, **kwargs):
            timing = KernelTiming(kernel, clock(), cell_id=probe._cell_id)
            timings.append(timing)
            by_kernel[id(kernel)] = timing
            init(kernel, *args, **kwargs)

        def probed_run_epoch(kernel):
            timing = by_kernel.get(id(kernel))
            if timing is None:  # built before the probe was installed
                run_epoch(kernel)
                return
            maybe_sample()
            start = clock()
            if timing.first_epoch_at is None:
                timing.first_epoch_at = start
            run_epoch(kernel)
            timing.last_epoch_end = clock()

        def probed_execute_cell(cell):
            probe.meter.sample()
            probe._cell_id = cell.cell_id
            try:
                return execute_cell(cell)
            finally:
                probe._cell_id = None

        probed_init.__wrapped__ = init
        probed_run_epoch.__wrapped__ = run_epoch
        probed_run_epoch.__doc__ = run_epoch.__doc__
        probed_execute_cell.__wrapped__ = execute_cell
        Kernel.__init__ = probed_init
        Kernel.run_epoch = probed_run_epoch
        registry.execute_cell = probed_execute_cell

    def uninstall(self) -> None:
        from repro.kernel.kernel import Kernel
        from repro.runner import registry

        if self._originals is not None:
            Kernel.__init__, Kernel.run_epoch, registry.execute_cell = self._originals
            self._originals = None

    def take(self) -> list[KernelTiming]:
        """Timings of the kernels built since the last call (then forgets them)."""
        taken = list(self._timings)
        self._timings.clear()
        self._by_kernel.clear()
        return taken


def kernel_stats(kernel) -> dict:
    """A kernel's simulated counters as plain JSON-able data."""
    return dataclasses.asdict(kernel.stats)
