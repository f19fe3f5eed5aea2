"""Tests of the benchmark's own machinery.

Run from the repository root: ``python -m pytest simbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simbench import checks, layers, spans, stats
from simbench.workloads import WORKLOADS, CellRecord

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles and sample counts ---------------------------------------- #

def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.percentile(list(range(101)), 99) == pytest.approx(99.0)


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert stats.highest_percentile(1) is None
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(99) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 90.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9


def test_describe_reports_sample_count_and_only_supported_tail():
    few = stats.describe("wall_s", [1.0, 2.0, 3.0], "s")
    assert "median 2 s" in few and "(n=3)" in few and " p" not in few.split("median")[1]
    many = stats.describe("lat", [float(i) for i in range(1000)], "ms")
    assert "(n=1000)" in many and "p99 " in many and "p99.9" not in many


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- spans and self time -------------------------------------------------- #

def test_self_times_subtract_direct_children_only():
    # span 0 contains 1 and 3; span 1 contains 2.
    duration = np.array([10.0, 6.0, 2.5, 1.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(duration, parent).tolist() == [3.0, 3.5, 2.5, 1.0]


class _TickClock:
    """perf_counter stand-in advancing one unit per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_nests_spans_and_subtracts_children(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", _TickClock())
    recorder = spans.SpanRecorder()

    inner = recorder.wrap("inner", lambda x: x * 2)

    def outer_body(x):
        return inner(x) + inner(x + 1)

    outer = recorder.wrap("outer", outer_body)
    recorder.begin_cell("cell-a")
    assert outer(1) == 6
    cols = recorder.columns()
    # clock reads: outer start 1, inner 2..3, inner 4..5, outer end 6
    assert cols["duration"].tolist() == [5.0, 1.0, 1.0]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert cols["cell"].tolist() == [0, 0, 0]
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 1 and totals["outer"]["self_s"] == 3.0
    assert totals["inner"]["calls"] == 2 and totals["inner"]["self_s"] == 2.0


def test_recorder_closes_span_when_call_raises():
    recorder = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    after = recorder.wrap("after", lambda: None)
    after()
    assert recorder.columns()["parent"].tolist() == [-1, -1]


def test_post_hook_counts_at_the_boundary():
    recorder = spans.SpanRecorder()
    alloc = recorder.wrap("alloc", lambda ok: (1, 0) if ok else None,
                          post=layers._count("fails", lambda r: r is None))
    for ok in (True, False, False):
        alloc(ok)
    assert recorder.counters["fails"] == 2


def test_install_wraps_at_class_level_and_uninstall_restores():
    from repro.kernel.kernel import Kernel
    from repro.mem.buddy import BuddyAllocator

    originals = (Kernel.__dict__["run_epoch"], BuddyAllocator.__dict__["free"])
    recorder = spans.SpanRecorder()
    layers.install(recorder)
    try:
        assert Kernel.__dict__["run_epoch"] is not originals[0]
        assert Kernel.__dict__["run_epoch"].__wrapped__ is originals[0]
    finally:
        recorder.uninstall()
    assert (Kernel.__dict__["run_epoch"], BuddyAllocator.__dict__["free"]) == originals


def test_dump_writes_every_span(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.begin_cell("c")
    f = recorder.wrap("f", lambda: None)
    f()
    f()
    path = tmp_path / "spans.npz"
    recorder.dump(path)
    data = np.load(path)
    assert data["names"].tolist() == ["f"] and data["cells"].tolist() == ["c"]
    assert len(data["duration"]) == 2


# -- reference checks ----------------------------------------------------- #

def _record(result):
    return CellRecord("w/cell:p", copy.deepcopy(result))


RESULT = {"result": {"time_s": 581.0, "classes": {"web": {"p99": 11.5}}},
          "kernels": [{"epochs": 581, "faults": 1024}]}


def test_reference_check_passes_identical_result():
    record = _record(RESULT)
    checks.check_records([record], {"w/cell:p": RESULT}, {})
    assert record.problems == [] and not record.failed


def test_reference_check_fails_on_perturbed_result():
    perturbed = copy.deepcopy(RESULT)
    perturbed["result"]["classes"]["web"]["p99"] = 11.5000001
    record = _record(perturbed)
    checks.check_records([record], {"w/cell:p": RESULT}, {})
    assert record.failed
    assert "result.classes.web.p99" in record.problems[0]


def test_reference_check_flags_missing_reference_and_kernel_count():
    record = _record(RESULT)
    checks.check_records([record], {}, {})
    assert record.problems == ["no committed reference for this cell"]
    fewer = copy.deepcopy(RESULT)
    fewer["kernels"] = []
    record = _record(fewer)
    checks.check_records([record], {"w/cell:p": RESULT}, {})
    assert "kernels[len 0 != 1]" in record.problems[0]


def test_first_iteration_and_uncaptured_checks():
    first: dict = {}
    checks.check_records([_record(RESULT)], None, first)
    assert "w/cell:p" in first
    drifted = copy.deepcopy(RESULT)
    drifted["kernels"][0]["faults"] += 1
    record = _record(drifted)
    checks.check_records([record], None, first)
    assert "first iteration" in record.problems[0]
    record = _record(RESULT)
    checks.check_records([record], None, {},
                         uncaptured={"w/cell:p": _record(drifted)})
    assert "uncaptured" in record.problems[0]


def test_nan_results_compare_equal_to_themselves():
    nan = {"result": {"x": float("nan")}}
    assert checks.mismatch("ref", checks.roundtrip(nan), checks.roundtrip(nan)) is None


def test_committed_references_cover_every_workload():
    for name in WORKLOADS:
        assert checks.load_reference(name), name


# -- the benchmark definition --------------------------------------------- #

def test_benchmark_json_matches_the_code():
    from simbench.run import END_TO_END, WORKLOAD_NAMES

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "fault-storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fault_storm_run_checks_and_reports_every_metric(capsys):
    from simbench import run

    assert run.main(["--workload", "fault-storm", "--seed", "3",
                     "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 9  # one iteration of the nine cells
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_no_observer_calls(capsys):
    from simbench import run

    assert run.main(["--workload", "fault-storm", "--seed", "0",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 18  # untraced + traced
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["kernel.fault_range.calls"]["value"] > 0
    for name in layers.OBSERVER_SPANS:
        if f"{name}.calls" in metrics:
            assert metrics[f"{name}.calls"]["value"] == 0
    assert (ROOT / ".simbench" / "spans-fault-storm.npz").exists()


def test_totals_leave_excluded_children_out_of_durations(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", _TickClock())
    recorder = spans.SpanRecorder()
    calibrate = recorder.wrap("calibration", lambda: None)
    epoch = recorder.wrap("epoch", lambda: calibrate())
    epoch()
    # epoch spans clock reads 1..4, its calibration child 2..3
    totals = recorder.totals(excluded=("calibration",))
    assert totals["epoch"]["durations"].tolist() == [2.0]
    assert recorder.totals()["epoch"]["durations"].tolist() == [3.0]
    assert totals["epoch"]["self_s"] == 2.0


def test_reference_seconds_scale_gaps_and_skip_calibration(monkeypatch):
    from simbench import speed

    monkeypatch.setattr(speed, "REFERENCE_S", 2.0)
    meter = speed.SpeedMeter()
    meter.starts, meter.ends, meter.durations = [10.0, 20.0], [11.0, 21.0], [1.0, 3.0]
    # between the windows: speed from the mean calibration (2.0) -> x1
    assert meter.reference_seconds(11.0, 20.0) == pytest.approx(9.0)
    # calibration windows themselves count as no work
    assert meter.reference_seconds(10.5, 20.5) == pytest.approx(9.0)
    # before the first / after the last window: that window's speed
    assert meter.reference_seconds(5.0, 10.0) == pytest.approx(10.0)
    assert meter.reference_seconds(21.0, 24.0) == pytest.approx(2.0)
    assert meter.reference_seconds(12.0, 12.0) == 0.0
    assert meter.speed() == pytest.approx(2.0 / 3.0)
