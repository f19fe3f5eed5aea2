"""In-memory span recorder for the layer-traced run.

Wrappers are installed at class (or module) level around the public
calls into each simulator layer and removed again when the traced
iteration ends, so the timed runs never see them.  Each call records
one span: name, start, end, the id of the enclosing span and the id of
the cell it ran in.  Spans live in flat ``array`` columns (a fragmented
cell makes over a million of them) and are written out once, at the end
of the run.

A span's *self time* is its duration minus the time its child spans
cover.  The simulator is single-threaded, so children never overlap and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

#: post-call hook: ``post(counters, result, args)`` adds layer counts
#: (failed allocations, pages moved, ...) measured at the same boundary.
PostHook = Callable[[dict, object, tuple], None]


class SpanRecorder:
    """Records nested spans around wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.cell = array("q")
        self.cells: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._cell = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- cells ------------------------------------------------------------ #

    def begin_cell(self, label: str) -> None:
        """Attribute the spans that follow to a new cell."""
        self._cell = len(self.cells)
        self.cells.append(label)

    # -- recording -------------------------------------------------------- #

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, post: PostHook | None = None,
             cell_label: Callable[[tuple], str] | None = None) -> Callable:
        """Return ``fn`` wrapped so every call records one span.

        ``cell_label`` marks a call that starts a new cell; it maps the
        call's arguments to the cell's label.
        """
        nid = self.name_id(name)
        t0, t1, parent, names, cell = self.t0, self.t1, self.parent, self.name, self.cell
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            if cell_label is not None:
                rec.begin_cell(cell_label(args))
            sid = len(t0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            cell.append(rec._cell)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if post is not None:
                post(counters, result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, owner: object, attr: str, name: str,
                post: PostHook | None = None,
                cell_label: Callable[[tuple], str] | None = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, post, cell_label))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------- #

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (ids are row indices)."""
        # Copies: a live buffer view would stop the arrays from growing.
        t0 = np.array(self.t0, dtype=np.float64)
        t1 = np.array(self.t1, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        return {
            "start": t0,
            "duration": t1 - t0,
            "parent": parent,
            "name": np.array(self.name, dtype=np.int64),
            "cell": np.array(self.cell, dtype=np.int64),
            "self": self_times(t1 - t0, parent),
        }

    def totals(self, excluded: tuple[str, ...] = ()) -> dict[str, dict]:
        """name -> {calls, self_s, durations} over every recorded span.

        ``durations`` leave out the time of direct children named in
        ``excluded`` (the benchmark's own work inside a layer's span).
        """
        cols = self.columns()
        durations = cols["duration"].copy()
        for name in excluded:
            if name in self._name_ids:
                child = (cols["name"] == self._name_ids[name]) & (cols["parent"] >= 0)
                durations -= np.bincount(cols["parent"][child],
                                         weights=cols["duration"][child],
                                         minlength=len(durations))
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(cols["self"][mask].sum()),
                "durations": durations[mask],
            }
        return out

    def dump(self, path) -> None:
        """Write every span, the name table and the cell labels (``.npz``)."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), cells=np.array(self.cells),
                 **cols)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    duration = np.asarray(duration, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered
