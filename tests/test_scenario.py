"""Scenario schema, executor, registration and CLI coverage.

The property test corrupts one field of a known-good document and
checks the loader rejects it with an error naming the corrupted path —
the schema's contract is that nothing fails far from its cause.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.experiments import Scale
from repro.runner import cells_for
from repro.runner.cache import cell_key, source_digest
from repro.runner.registry import unregister
from repro.scenario import (
    ScenarioError,
    experiment_name,
    load_scenario,
    parse_scenario_text,
    register_scenario,
    run_scenario_case,
    scenario_digest,
    validate_scenario,
)

SCALE = Scale.from_denominator(1024)


def valid_doc() -> dict:
    """A compact document exercising every section of the schema."""
    return {
        "scenario": 1,
        "name": "unit",
        "title": "unit scenario",
        "policies": ["linux-2mb"],
        "machine": {"mem_gb": 24, "numa_nodes": 2},
        "cases": [
            {"name": "plain"},
            {"name": "balanced", "machine": {"numa_balance": True}},
        ],
        "phases": [
            {
                "name": "launch",
                "spawn": [{"workload": "alloc-touch-free", "name": "w0"}],
                "hog": {"gb": 0.5, "name": "hog0", "hold_s": 4},
                "run_s": 2,
            },
            {
                "name": "perturb",
                "kill": "w0",
                "restart": "hog0",
                "balloon": {"gb": 0.25},
                "node_pressure": {"node": 0, "gb": 0.1},
                "fragment": {"keep_fraction": 0.5},
                "run_s": 1,
            },
        ],
        "assertions": [
            {"kind": "bloat-ceiling", "max_mb": 1e9},
            {"kind": "fault-p99", "max_us": 1e9},
            {"kind": "fairness-spread", "max_ratio": 1e9, "metric": "faults"},
        ],
        "max_epochs": 60,
    }


def test_valid_doc_validates():
    scenario = validate_scenario(valid_doc())
    assert scenario.name == "unit"
    assert scenario.case_names() == ("plain", "balanced")
    assert len(scenario.phases) == 2
    assert scenario.phases[1].kill == ("w0",)
    assert scenario.digest == scenario_digest(valid_doc())


# Each corruption is (expected error path, mutator).  The expected path
# may be a prefix: some errors anchor on the container, some on the key.
CORRUPTIONS = [
    ("scenario.scenario", lambda d: d.update(scenario=2)),
    ("scenario.name", lambda d: d.update(name="Bad Name!")),
    ("scenario.policies[0]", lambda d: d["policies"].__setitem__(0, "linux-2mbb")),
    ("scenario.machine.mem_gb", lambda d: d["machine"].update(mem_gb="lots")),
    ("scenario.cases[1].name", lambda d: d["cases"][1].update(name="plain")),
    ("scenario.phases[0].spawn[0].workload",
     lambda d: d["phases"][0]["spawn"][0].update(workload="redsi")),
    ("scenario.phases[1].kill", lambda d: d["phases"][1].update(kill="nosuch")),
    ("scenario.phases[1].node_pressure.node",
     lambda d: d["phases"][1]["node_pressure"].update(node=7)),
    ("scenario.phases[0].run_s", lambda d: d["phases"][0].update(run_s=-1)),
    ("scenario.assertions[0]",
     lambda d: d["assertions"][0].pop("max_mb")),
    ("scenario.assertions[1].max_us",
     lambda d: d["assertions"][1].update(max_us="slow")),
    ("scenario.assertions[2].metric",
     lambda d: d["assertions"][2].update(metric="bogus")),
    ("scenario.max_epochs", lambda d: d.update(max_epochs=1)),
    ("scenario.phases[0].sawn",
     lambda d: d["phases"][0].update(sawn=[])),
    ("scenario", lambda d: d.pop("phases")),
    ("scenario.phases[1].balloon",
     lambda d: d["phases"][1].update(balloon={})),
    ("scenario.phases[0].hog.gb",
     lambda d: d["phases"][0]["hog"].update(gb=-2)),
    ("scenario.assertions[0].max_us",
     lambda d: d["assertions"][0].update(max_us=5)),
]


@settings(max_examples=40, deadline=None)
@given(pick=st.sampled_from(range(len(CORRUPTIONS))))
def test_single_field_corruption_names_the_bad_path(pick):
    expected_path, mutate = CORRUPTIONS[pick]
    document = copy.deepcopy(valid_doc())
    mutate(document)
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(document)
    assert exc.value.path.startswith(expected_path), (
        f"corruption at {expected_path} reported at {exc.value.path}: "
        f"{exc.value.message}")


@settings(max_examples=30, deadline=None)
@given(key=st.from_regex(r"[a-z]{3,10}", fullmatch=True))
def test_unknown_top_level_key_is_named(key):
    document = valid_doc()
    if key in document:
        return
    document[key] = 1
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(document)
    assert exc.value.path == f"scenario.{key}"
    assert "unknown key" in exc.value.message


def test_did_you_mean_suggestions():
    document = valid_doc()
    document["phases"][0]["spawn"][0]["workload"] = "alloc-touch-fre"
    with pytest.raises(ScenarioError, match="did you mean 'alloc-touch-free'"):
        validate_scenario(document)
    document = valid_doc()
    document["policies"][0] = "hawkeye"
    with pytest.raises(ScenarioError, match="did you mean"):
        validate_scenario(document)


def test_spawn_before_reference_enforced():
    document = valid_doc()
    # killing in phase 0 a process spawned in phase 1 must fail
    document["phases"][0]["kill"] = "hog0"
    del document["phases"][0]["hog"]
    document["phases"][1]["restart"] = []
    with pytest.raises(ScenarioError, match="not spawned in an earlier phase"):
        validate_scenario(document)


def test_yaml_and_json_parse_to_same_digest(tmp_path):
    document = valid_doc()
    as_json = json.dumps(document)
    parsed_json = parse_scenario_text(as_json)
    import yaml

    parsed_yaml = parse_scenario_text(yaml.safe_dump(document))
    assert scenario_digest(parsed_json) == scenario_digest(parsed_yaml)


def test_digest_ignores_key_order_and_whitespace():
    document = valid_doc()
    reordered = json.loads(json.dumps(document, sort_keys=True, indent=4))
    assert scenario_digest(document) == scenario_digest(reordered)
    changed = valid_doc()
    changed["phases"][0]["run_s"] = 3
    assert scenario_digest(document) != scenario_digest(changed)


# --------------------------------------------------------------------- #
# registration + cache-key round trip                                    #
# --------------------------------------------------------------------- #


@pytest.fixture
def registered():
    scenario = validate_scenario(valid_doc())
    exp = register_scenario(scenario)
    yield scenario, exp
    unregister(exp.name)


def test_register_scenario_grid(registered):
    scenario, exp = registered
    assert exp.name == experiment_name(scenario) == "scn-unit"
    assert exp.key_material == f"scenario:{scenario.digest}"
    cells = cells_for(exp.name, 1024)
    assert len(cells) == 2  # 2 cases x 1 policy
    assert {c.case for c in cells} == {"plain", "balanced"}


def test_cache_key_stable_across_loads_and_sensitive_to_edits(registered):
    scenario, exp = registered
    cell = cells_for(exp.name, 1024)[0]
    digest = source_digest()
    key = cell_key(cell, digest, exp.version, exp.key_material)
    # a second load of identical content produces the same key
    exp2 = register_scenario(validate_scenario(valid_doc()))
    assert cell_key(cell, digest, exp2.version, exp2.key_material) == key
    # a meaningful edit produces a different key
    changed = valid_doc()
    changed["phases"][0]["run_s"] = 3
    exp3 = register_scenario(validate_scenario(changed))
    assert cell_key(cell, digest, exp3.version, exp3.key_material) != key
    unregister(exp.name)


# --------------------------------------------------------------------- #
# executor                                                               #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def unit_result():
    scenario = validate_scenario(valid_doc())
    return scenario, run_scenario_case(scenario, "plain", "linux-2mb", SCALE)


def test_executor_result_shape(unit_result):
    scenario, result = unit_result
    assert result["scenario"] == "unit"
    assert result["case"] == "plain"
    assert result["policy"] == "linux-2mb"
    assert not result["oom"]
    assert result["epochs"] <= scenario.max_epochs
    assert set(result["processes"]) == {"w0", "hog0"}
    assert len(result["assertions"]) == 3
    json.dumps(result)  # must be JSON-able for the cache


def test_executor_kill_and_restart_bookkeeping(unit_result):
    _, result = unit_result
    w0 = result["processes"]["w0"]
    assert not w0["alive"]          # killed in phase 1
    assert w0["restarts"] == 0
    hog = result["processes"]["hog0"]
    assert hog["restarts"] == 1     # restarted in phase 1
    assert hog["workload"] == "memhog"
    assert hog["faults"] > 0        # restarted incarnation refaults


def test_executor_fault_p99_present(unit_result):
    _, result = unit_result
    # the fault-p99 assertion attaches the tracer, so p99 materialises
    assert result["fault_p99_us"] > 0
    kinds = {a["kind"]: a for a in result["assertions"]}
    assert kinds["fault-p99"]["passed"]
    assert kinds["bloat-ceiling"]["passed"]


def test_executor_is_deterministic(unit_result):
    scenario, result = unit_result
    again = run_scenario_case(scenario, "plain", "linux-2mb", SCALE)
    assert again == result


def test_failing_assertion_reported():
    document = valid_doc()
    document["assertions"] = [{"kind": "fault-p99", "max_us": 0}]
    scenario = validate_scenario(document)
    result = run_scenario_case(scenario, "plain", "linux-2mb", SCALE)
    assert not result["assertions_passed"]
    record = result["assertions"][0]
    assert not record["passed"]
    assert record["actual_us"] > 0 and record["limit_us"] == 0


def test_balloon_frames_released():
    document = valid_doc()
    document["phases"].append(
        {"name": "deflate", "balloon": {"release": True}, "run_s": 1})
    scenario = validate_scenario(document)
    result = run_scenario_case(scenario, "plain", "linux-2mb", SCALE)
    assert not result["oom"]


# --------------------------------------------------------------------- #
# CLI                                                                    #
# --------------------------------------------------------------------- #


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def test_cli_validate_reports_path(tmp_path, capsys):
    bad = valid_doc()
    bad["phases"][0]["spawn"][0]["workload"] = "redsi"
    path = _write(tmp_path, "bad.json", bad)
    good = _write(tmp_path, "good.json", valid_doc())
    rc = cli.main(["scenario", "validate", str(good), str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "INVALID" in out
    assert "scenario.phases[0].spawn[0].workload" in out
    assert "ok" in out.splitlines()[0]


def test_cli_list(tmp_path, capsys):
    _write(tmp_path, "one.json", valid_doc())
    (tmp_path / "broken.yaml").write_text("scenario: 1\nname: [')\n")
    rc = cli.main(["scenario", "list", "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "one.json" in out and "unit" in out
    assert "INVALID" in out


def _fast_doc():
    document = valid_doc()
    document["name"] = "fast"
    document["cases"] = [{"name": "only"}]
    document["phases"] = [
        {"spawn": {"workload": "alloc-touch-free", "name": "w"}, "run_s": 1},
    ]
    document["assertions"] = [{"kind": "bloat-ceiling", "max_mb": 1e9}]
    document["max_epochs"] = 40
    return document


def test_cli_scenario_run_and_cache(tmp_path, capsys):
    path = _write(tmp_path, "fast.json", _fast_doc())
    cache = tmp_path / "cache"
    argv = ["sweep", "run", "--scenario", str(path), "--cache-dir",
            str(cache), "--scale", "1024"]
    try:
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 0
        assert "1 ok" in err
        # warm rerun must be a 100% cache hit
        rc = cli.main(argv + ["--require-cached"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "1 cached" in err
    finally:
        unregister("scn-fast")


def test_cli_scenario_run_fails_failed_assertions(tmp_path, capsys):
    document = _fast_doc()
    document["name"] = "fastfail"
    document["assertions"] = [{"kind": "fault-p99", "max_us": 0}]
    path = _write(tmp_path, "fail.json", document)
    try:
        rc = cli.main(["sweep", "run", "--scenario", str(path),
                       "--cache-dir", str(tmp_path / "cache"),
                       "--scale", "1024"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "assertion failed" in err
        # the failure names the measured value and the broken limit
        assert "fault-p99: measured" in err
        assert "> limit 0.0 us" in err
    finally:
        unregister("scn-fastfail")


def test_format_assertion_failure_measured_vs_threshold():
    from repro.scenario.executor import format_assertion_failure

    assert format_assertion_failure(
        {"kind": "bloat-ceiling", "process": None, "actual_mb": 12.5,
         "limit_mb": 8, "passed": False}) \
        == "bloat-ceiling [total]: measured 12.5 MB > limit 8 MB"
    assert format_assertion_failure(
        {"kind": "bloat-ceiling", "process": "redis", "actual_mb": 3.25,
         "limit_mb": 2, "passed": False}) \
        == "bloat-ceiling [redis]: measured 3.25 MB > limit 2 MB"
    assert format_assertion_failure(
        {"kind": "fault-p99", "actual_us": 41.3, "limit_us": 10,
         "passed": False}) \
        == "fault-p99: measured 41.3 us > limit 10 us"
    assert format_assertion_failure(
        {"kind": "fault-p99", "actual_us": None, "limit_us": 10,
         "passed": False}) \
        == "fault-p99: no fault samples recorded (limit 10 us)"
    assert format_assertion_failure(
        {"kind": "fairness-spread", "metric": "rss_mb",
         "actual_ratio": 2.61, "limit_ratio": 1.5, "passed": False}) \
        == "fairness-spread[rss_mb]: measured ratio 2.61 > limit 1.5"
    # unknown kinds degrade to a key=value dump, never crash
    assert format_assertion_failure(
        {"kind": "future-check", "actual": 3, "passed": False}) \
        == "future-check: actual=3"


def test_cli_scenario_run_invalid_file(tmp_path, capsys):
    bad = valid_doc()
    bad.pop("policies")
    path = _write(tmp_path, "bad.json", bad)
    rc = cli.main(["sweep", "run", "--scenario", str(path), "--cache-dir",
                   str(tmp_path / "cache")])
    assert rc == 2
    assert "missing required key" in capsys.readouterr().err


def test_cli_sweep_run_scenario_flag(tmp_path, capsys):
    document = _fast_doc()
    document["name"] = "viasweep"
    path = _write(tmp_path, "via.json", document)
    try:
        rc = cli.main(["sweep", "run", "--scenario", str(path),
                       "--cache-dir", str(tmp_path / "cache"),
                       "--scale", "1024"])
        captured = capsys.readouterr()
        assert rc == 0
        # only the scenario's cells ran, not every registered experiment
        assert "scn-viasweep/only:linux-2mb@1024" in captured.out
        assert "tab1" not in captured.out
    finally:
        unregister("scn-viasweep")


def test_cli_sweep_run_reports_failed_assertions(tmp_path, capsys):
    # a scenario mixed with a stock grid: the shared drive loop reports
    # the scenario's failed assertions, also from a warm cache
    document = _fast_doc()
    document["name"] = "sweepfail"
    document["assertions"] = [{"kind": "fault-p99", "max_us": 0}]
    path = _write(tmp_path, "sweepfail.json", document)
    argv = ["sweep", "run", "--scenario", str(path), "smoke:linux-4kb",
            "scn-sweepfail", "--cache-dir", str(tmp_path / "cache"),
            "--scale", "256"]
    try:
        for warm in (False, True):
            rc = cli.main(argv + (["--require-cached"] if warm else []))
            err = capsys.readouterr().err
            assert rc == 1
            assert ("assertion failed [scn-sweepfail/only:linux-2mb@256] "
                    "fault-p99: measured") in err
            assert "assertion failed [smoke/" not in err
            assert "scenario assertion(s) failed" in err
        assert "--require-cached" not in err  # warm rerun: all cached
    finally:
        unregister("scn-sweepfail")


def test_cli_scenario_run_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["scenario", "run", "examples/scenarios/smoke.yaml"])
    assert exc.value.code == 2
