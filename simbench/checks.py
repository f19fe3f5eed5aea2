"""Correctness checks on cell results.

Simulated statistics are deterministic, so every comparison is exact:
two results agree when their canonical JSON texts are identical (which
also treats NaN as equal to itself, unlike ``==``).  A cell fails when

* its result differs from the committed reference (at the reference
  seed, or at any seed for a workload whose results the seed does not
  change);
* it differs from the same cell's result in the run's first iteration;
* for ``sweep-capture``, its captured result differs from the
  uncaptured ``execute_cell`` result of the same cell.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def roundtrip(obj):
    """``obj`` as it reads back from JSON (tuples become lists, ...)."""
    return json.loads(json.dumps(obj))


def fingerprint(obj) -> str:
    """Canonical JSON text: equal texts mean equal results."""
    return json.dumps(obj, sort_keys=True)


def first_difference(a, b, path: str = "") -> str | None:
    """Dotted path of the first place two JSON values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return sub
            found = first_difference(a[key], b[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}[len {len(a)} != {len(b)}]"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    if fingerprint(a) != fingerprint(b):
        return f"{path} ({a!r} != {b!r})"
    return None


def mismatch(label: str, got, want) -> str | None:
    """A problem message when ``got`` differs from ``want``, else None."""
    if fingerprint(got) == fingerprint(want):
        return None
    return f"differs from {label} at {first_difference(got, want)}"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[str, dict]:
    """cell_id -> reference result (empty when none is committed)."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)["cells"]


def write_reference(workload: str, seed: int, results: dict[str, dict]) -> Path:
    """Commit the given results as the workload's reference."""
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "cells": dict(sorted(results.items()))},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def check_records(records, reference: dict[str, dict] | None,
                  first: dict[str, dict], uncaptured: dict | None = None) -> None:
    """Append a problem to every record whose result fails a check.

    ``reference`` is None when it does not apply (a seeded workload at a
    held-out seed).  ``first`` maps cell_id to the run's first-iteration
    result and is filled from ``records`` on first sight of a cell.
    ``uncaptured`` maps cell_id to the uncaptured record of the cell.
    """
    for record in records:
        if record.result is None:
            continue
        checks = []
        if reference is not None:
            if record.cell_id not in reference:
                record.problems.append("no committed reference for this cell")
            else:
                checks.append(("the committed reference", reference[record.cell_id]))
        if record.cell_id in first:
            checks.append(("the run's first iteration", first[record.cell_id]))
        else:
            first[record.cell_id] = record.result
        if uncaptured is not None:
            base = uncaptured.get(record.cell_id)
            if base is None or base.result is None:
                record.problems.append("uncaptured execute_cell run failed")
            else:
                checks.append(("the uncaptured execute_cell result", base.result))
        for label, want in checks:
            problem = mismatch(label, record.result, want)
            if problem is not None:
                record.problems.append(problem)
