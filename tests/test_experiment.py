"""Experiment runner: artifacts, report recomputability, determinism."""

import json
import re

import pytest

from archscale import ExperimentError, ExperimentSpec, load_experiment_spec, run_experiment
from archscale.cli import reference_architecture_path
from archscale.experiment import read_metrics_csv, summarize_metrics_rows
from archscale.workload import Steps, WorkloadSpec


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
        assert tl.lost > 0 and tl.ticks_to_target
        assert (summary.generated, summary.completed, summary.lost_emails,
                summary.dropped_requests, summary.peak_total_instances) == (
            tl.generated, tl.completed, tl.lost, tl.dropped_requests, tl.peak_total_instances)
        assert abs(summary.mean_latency_s - tl.mean_latency_s) <= 1e-6
        assert summary.ticks_to_target == tl.ticks_to_target // 30 * 30


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
    run_experiment(spec, out_dir=tmp_path / "out")
