"""Experiment runner: artifacts, report recomputability, determinism."""

import json
import re
from dataclasses import replace

import pytest

from archscale import (
    ExperimentError,
    ExperimentSpec,
    SimConfig,
    SimulationError,
    load_architecture,
    load_experiment_spec,
    run_experiment,
    run_simulation,
)
from archscale.cli import reference_architecture_path
from archscale.experiment import build_reference_ladder, read_metrics_csv, summarize_metrics_rows
from archscale.workload import Diurnal, Steps, Trace, WorkloadSpec, rate_curve


def short_spec(tmp_path, **overrides) -> ExperimentSpec:
    defaults = dict(
        architecture=str(reference_architecture_path()),
        policies=("global", "local"),
        output=str(tmp_path / "out"),
        duration_s=60,
        seed=5,
        exact_arrivals=True,
        workload=WorkloadSpec(Steps(((0, 50.0),))),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_run_experiment_writes_artifacts(tmp_path):
    result = run_experiment(short_spec(tmp_path))
    out = result.out_dir
    for name in ("metrics_global.csv", "metrics_local.csv", "events_global.csv",
                 "events_local.csv", "capacity_table.txt", "ladder.txt",
                 "report.json", "report.txt"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert set(report["policies"]) == {"global", "local"}
    for policy in ("global", "local"):
        assert report["policies"][policy]["dropped_requests"] == 0


def test_report_recomputable_from_metrics_files(tmp_path):
    result = run_experiment(short_spec(tmp_path))
    for policy, summary in result.report.summaries.items():
        rows = read_metrics_csv(result.out_dir / f"metrics_{policy}.csv")
        again = summarize_metrics_rows(
            rows, policy, 30, result.report.peak_rate_eps, result.report.peak_time_s)
        assert again == summary


def test_report_matches_in_memory_totals(tmp_path):
    # A 50 -> 200 emails/s step with Poisson arrivals: both policies drop,
    # lose emails and reach the target capacity after the step.
    spec = short_spec(tmp_path, duration_s=120, exact_arrivals=False,
                      workload=WorkloadSpec(Steps(((0, 50.0), (20 * 30, 200.0)))))
    result = run_experiment(spec)
    for policy, tl in result.timelines.items():
        summary = result.report.summaries[policy]
        assert tl.lost > 0
        assert (summary.generated, summary.completed, summary.lost_emails,
                summary.dropped_requests, summary.peak_total_instances) == (
            tl.generated, tl.completed, tl.lost, tl.dropped_requests, tl.peak_total_instances)
        assert summary.ticks_to_target > 0
        first = next(r for r in tl.rows if r.capacity_eps >= result.report.peak_rate_eps)
        assert summary.ticks_to_target == 30 * first.t_s


def test_experiment_byte_identical_reruns(tmp_path):
    spec_a = short_spec(tmp_path, output=str(tmp_path / "a"))
    spec_b = short_spec(tmp_path, output=str(tmp_path / "b"))
    ra = run_experiment(spec_a)
    rb = run_experiment(spec_b)
    for name in ("metrics_global.csv", "metrics_local.csv", "report.json", "ladder.txt"):
        assert (ra.out_dir / name).read_bytes() == (rb.out_dir / name).read_bytes()


def test_no_policy_rejected(tmp_path):
    with pytest.raises(ExperimentError, match="at least one policy"):
        short_spec(tmp_path, policies=())


def test_unknown_policy_rejected(tmp_path):
    with pytest.raises(ExperimentError, match="unknown policy"):
        short_spec(tmp_path, policies=("sideways",))


def test_spec_file_round_trip(tmp_path):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({
        "architecture": str(reference_architecture_path()),
        "policies": ["global"],
        "output": str(tmp_path / "out"),
        "scenario": {
            "duration_s": 30,
            "seed": 9,
            "exact_arrivals": True,
            "workload": {"kind": "steps", "points": [[0, 40]]},
            "K": 20, "k": 10,
        },
    }), encoding="utf-8")
    spec = load_experiment_spec(spec_file)
    assert spec.duration_s == 30
    assert spec.seed == 9
    assert spec.policies == ("global",)
    result = run_experiment(spec)
    assert result.timelines["global"].generated == 40 * 30


def test_spec_file_defaults_are_the_spec_defaults(tmp_path):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({"architecture": "arch.json"}), encoding="utf-8")
    assert load_experiment_spec(spec_file) == ExperimentSpec(
        architecture=str((tmp_path / "arch.json").resolve()))


def write_scenario(tmp_path, **scenario):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({"architecture": "arch.json", "scenario": scenario}),
                         encoding="utf-8")
    return spec_file


def test_repeated_policy_rejected(tmp_path):
    # Else compare would run global twice and report no local row.
    with pytest.raises(ExperimentError, match="more than once"):
        short_spec(tmp_path, policies=("global", "global"))
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({"architecture": "a.json", "policies": ["local", "local"]}),
                         encoding="utf-8")
    with pytest.raises(ExperimentError, match="more than once"):
        load_experiment_spec(spec_file)


def test_run_of_no_seconds_rejected(tmp_path):
    # Else the run writes empty metrics files and a report of zeros.
    for duration_s in (0, -5):
        with pytest.raises(ExperimentError, match="duration_s must be at least 1"):
            short_spec(tmp_path, duration_s=duration_s)
        with pytest.raises(ExperimentError, match="duration_s must be at least 1"):
            load_experiment_spec(write_scenario(tmp_path, duration_s=duration_s))
        with pytest.raises(ValueError, match="duration >= 1"):
            SimConfig(duration=duration_s, workload=WorkloadSpec(Steps(((0, 50.0),))))


@pytest.mark.parametrize("key,value,message", [
    ("ticks_per_second", 0, "ticks_per_second must be at least 1"),
    ("queue_capacity", 0, "queue_capacity must be at least 1"),
    ("monitoring_period_s", 0, "monitoring_period_s must be at least 1"),
    ("K", -1, "K and k must be at least 0"),
    ("k", -0.5, "K and k must be at least 0"),
    ("seed", -1, "seed must be at least 0, got -1"),
    ("base_target_mcl", -60, "base_target_mcl must be at least 0, got -60"),
])
def test_spec_ranges_checked(tmp_path, key, value, message):
    # Else the run writes the capacity table and the ladder, then fails on
    # a simulator or scaler parameter whose name the spec file does not use.
    with pytest.raises(ExperimentError, match=message):
        load_experiment_spec(write_scenario(tmp_path, **{key: value}))


@pytest.mark.parametrize("spec,message", [
    ({"architecture": 7}, "'architecture': expected a string, got 7"),
    ({"architecture": "a.json", "output": 7}, "'output': expected a string, got 7"),
    ({"architecture": "a.json", "policies": "global"},
     "'policies': expected a list of strings, got 'global'"),
    ({"architecture": "a.json", "scenario": "abc"}, "'scenario': expected an object, got 'abc'"),
], ids=["architecture", "output", "policies", "scenario"])
def test_spec_values_checked(tmp_path, spec, message):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(ExperimentError, match=re.escape(f"experiment spec {message}")):
        load_experiment_spec(spec_file)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_spec_boolean_must_be_json_true_or_false(tmp_path, value):
    spec_file = write_scenario(tmp_path, exact_arrivals=value)
    with pytest.raises(ExperimentError, match=r"'exact_arrivals': expected true or false, got"):
        load_experiment_spec(spec_file)
    assert load_experiment_spec(write_scenario(tmp_path, exact_arrivals=False)).exact_arrivals is False


@pytest.mark.parametrize("value", ["abc", "60", 60.0, 60.5, True, None])
def test_spec_integer_must_be_json_integer(tmp_path, value):
    spec_file = write_scenario(tmp_path, duration_s=value)
    with pytest.raises(ExperimentError, match=r"'duration_s': expected an integer, got"):
        load_experiment_spec(spec_file)
    assert load_experiment_spec(write_scenario(tmp_path, duration_s=60)).duration_s == 60


@pytest.mark.parametrize("key,value", [("K", "20"), ("k", True), ("base_target_mcl", None),
                                       ("scale_increments", [60, "150"]),
                                       ("scale_increments", 60)])
def test_spec_number_must_be_json_number(tmp_path, key, value):
    spec_file = write_scenario(tmp_path, **{key: value})
    with pytest.raises(ExperimentError,
                       match=rf"'{key}': expected .*number.*, got {re.escape(repr(value))}"):
        load_experiment_spec(spec_file)
    spec = load_experiment_spec(write_scenario(tmp_path, K=20, base_target_mcl=60.5,
                                               scale_increments=[60, 150.5]))
    assert (spec.margin_K, spec.base_target_mcl, spec.scale_increments) == (20.0, 60.5, (60.0, 150.5))


@pytest.mark.parametrize("scenario,key", [
    ({"K": float("nan")}, "K"),
    ({"workload": {"kind": "steps", "points": [[0, 60], [30, float("inf")]]}}, "points"),
    ({"scale_increments": [60, float("-inf")]}, "scale_increments"),
], ids=["K", "steps-rate", "scale_increments"])
def test_spec_number_must_be_finite(tmp_path, scenario, key):
    # json.loads reads NaN and Infinity. Else a NaN K fails later as an
    # invalid Fraction literal, and an infinite rate inside numpy.
    spec_file = write_scenario(tmp_path, **scenario)
    assert re.search(r"NaN|Infinity", spec_file.read_text(encoding="utf-8"))
    with pytest.raises(ExperimentError, match=rf"'{key}': expected a finite number, got"):
        load_experiment_spec(spec_file)


@pytest.mark.parametrize("field,value", [
    ("margin_K", float("nan")),
    ("hysteresis_k", float("inf")),
    ("base_target_mcl", float("-inf")),
    ("scale_increments", (60, float("nan"))),
    ("scale_increments", (60, float("inf"))),
])
def test_spec_built_in_code_must_be_finite(tmp_path, field, value):
    # Else the run fails on an invalid Fraction literal that names no field.
    with pytest.raises(ExperimentError, match=rf"^{field} must be (a )?finite number"):
        short_spec(tmp_path, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("monitoring_period_s", 2.51),
    ("duration_s", 10.5),
    ("ticks_per_second", 30.0),
    ("queue_capacity", 2.5),
])
def test_spec_built_in_code_counts_must_be_integers(tmp_path, field, value):
    # Else a fractional monitoring period never fires the monitor.
    with pytest.raises(ExperimentError, match=rf"^{field} must be an integer, got {value}$"):
        short_spec(tmp_path, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("ticks_per_second", 30.5),
    ("queue_capacity", 2.5),
    ("duration", 30.0),
])
def test_sim_config_counts_must_be_integers(field, value):
    settings = dict(duration=30, workload=WorkloadSpec(Steps(((0, 50.0),))))
    settings[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
        SimConfig(**settings)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_non_integer_seed_is_named(tmp_path, seed):
    # Else numpy refuses it with "SeedSequence expects int or sequence of ints".
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ExperimentError, match=message):
        short_spec(tmp_path, seed=seed)
    with pytest.raises(ValueError, match=message):
        SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 50.0),))), seed=seed)


def test_negative_seed_named_by_the_simulator():
    # Else numpy refuses it with "expected non-negative integer".
    with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
        SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 50.0),))), seed=-3)


@pytest.mark.parametrize("workload,key,value", [
    ({"kind": "steps", "points": [[0, 60]], "jitter": "0.2"}, "jitter", "0.2"),
    ({"kind": "steps", "points": [[0, "60"]]}, "points", [[0, "60"]]),
    ({"kind": "steps", "points": [[1.9, 60]]}, "points", [[1.9, 60]]),
    ({"kind": "steps", "points": [[0, 60, 1]]}, "points", [[0, 60, 1]]),
    ({"kind": "steps", "points": {"0": 60}}, "points", {"0": 60}),
    ({"kind": "diurnal", "peak": "abc"}, "peak", "abc"),
    ({"kind": "diurnal", "base": True}, "base", True),
    ({"kind": "diurnal", "period_s": None}, "period_s", None),
    ({"kind": "trace", "path": 7}, "path", 7),
])
def test_spec_workload_values_checked(tmp_path, workload, key, value):
    spec_file = write_scenario(tmp_path, workload=workload)
    with pytest.raises(ExperimentError,
                       match=rf"workload '{key}': expected .*, got {re.escape(repr(value))}$"):
        load_experiment_spec(spec_file)


def test_spec_workload_values_loaded(tmp_path):
    spec = load_experiment_spec(write_scenario(tmp_path, workload={
        "kind": "steps", "points": [[0, 60], [90, 120.5]], "jitter": 0.2}))
    assert spec.workload == WorkloadSpec(Steps(((0, 60.0), (90, 120.5))), jitter=0.2)
    spec = load_experiment_spec(write_scenario(tmp_path, workload={
        "kind": "diurnal", "base": 20, "peak": 90.5, "period_s": 15}))
    assert spec.workload == WorkloadSpec(Diurnal(20.0, 90.5, 15.0, 0.0))
    with pytest.raises(ExperimentError, match="non-empty 'points'"):
        load_experiment_spec(write_scenario(tmp_path, workload={"kind": "steps", "points": []}))


@pytest.mark.parametrize("workload,unknown", [
    ({"kind": "steps", "points": [[0, 60]], "jiter": 0.5}, "['jiter']"),
    ({"kind": "diurnal", "points": [[0, 60]], "peek": 90}, "['peek', 'points']"),
    ({"kind": "trace", "path": "t.csv", "base": 60}, "['base']"),
])
def test_spec_unknown_workload_keys_rejected(tmp_path, workload, unknown):
    spec_file = write_scenario(tmp_path, workload=workload)
    with pytest.raises(ExperimentError, match=re.escape(f"unknown keys {unknown}")):
        load_experiment_spec(spec_file)


def test_relative_trace_path_resolves_against_spec_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "t.csv").write_text("tick,rate\n0,12\n", encoding="utf-8")
    (sub / "exp.json").write_text(json.dumps({
        "architecture": str(reference_architecture_path()),
        "scenario": {"workload": {"kind": "trace", "path": "t.csv"}},
    }), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    spec = load_experiment_spec("sub/exp.json")
    assert spec.workload.kind == Trace(str(sub.resolve() / "t.csv"))
    assert rate_curve(spec.workload, 3, 30).tolist() == [12.0] * 3


def test_spec_unknown_keys_rejected(tmp_path):
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({
        "architecture": "x.json", "bogus": 1,
    }), encoding="utf-8")
    with pytest.raises(ExperimentError, match="unknown keys"):
        load_experiment_spec(spec_file)


def test_relative_architecture_path_resolved(tmp_path):
    import shutil

    shutil.copy(reference_architecture_path(), tmp_path / "arch.json")
    spec_file = tmp_path / "exp.json"
    spec_file.write_text(json.dumps({
        "architecture": "arch.json",
        "policies": ["global"],
        "scenario": {"duration_s": 2, "workload": {"kind": "steps", "points": [[0, 5]]},
                     "exact_arrivals": True},
    }), encoding="utf-8")
    spec = load_experiment_spec(spec_file)
    run_experiment(replace(spec, output=str(tmp_path / "out")))


# One traffic draw per compare: the policies of one ``run_experiment``
# share a prepared run, and nothing outlives the compare (``draws`` counts
# the draws, see conftest).
def bare_run(spec, policy):
    arch = load_architecture(spec.architecture)
    _, ladder = build_reference_ladder(arch, spec)
    return run_simulation(arch, ladder, spec.sim_config(policy))


def test_a_compare_draws_its_traffic_once(tmp_path, draws):
    result = run_experiment(short_spec(tmp_path, duration_s=20))
    assert draws == {"generate_arrivals": 1, "sample_email_batch": 1}
    assert result.timelines["global"].generated == result.timelines["local"].generated == 1000


def test_each_compare_draws_its_own_traffic(tmp_path, draws):
    run_experiment(short_spec(tmp_path, duration_s=20, output=str(tmp_path / "a")))
    run_experiment(short_spec(tmp_path, duration_s=20, output=str(tmp_path / "b")))
    assert draws == {"generate_arrivals": 2, "sample_email_batch": 2}


def test_bare_runs_draw_their_own_traffic(tmp_path, draws):
    spec = short_spec(tmp_path, duration_s=20)
    bare_run(spec, "global")
    bare_run(spec, "local")
    assert draws == {"generate_arrivals": 2, "sample_email_batch": 2}


def test_a_compare_that_raises_keeps_no_prepared_run(tmp_path, draws):
    # The local run prepares the traffic; the global run then refuses a
    # ladder without scales. The next run, outside the compare, draws anew.
    spec = short_spec(tmp_path, duration_s=20, policies=("local", "global"), scale_increments=())
    with pytest.raises(SimulationError, match="largest scale adds an instance"):
        run_experiment(spec)
    assert draws == {"generate_arrivals": 1, "sample_email_batch": 1}
    bare_run(spec, "local")
    assert draws == {"generate_arrivals": 2, "sample_email_batch": 2}
