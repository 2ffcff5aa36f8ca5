"""Golden outputs: the SHA-256 of every metrics and event CSV and of the
`report.json` of four runs.

A refactor of the engine must leave these files byte for byte unchanged.
The first two runs are the compressed diurnal demo and part 1 of the step
surge demo; the third is the step surge with Poisson arrivals, 20 % rate
jitter and a 5-s monitor, at seed 1. The fourth is the step surge of the
second with 40-request queues, so that within one tick the fan-outs of
several completions meet a full queue and are cut part way.
"""

import hashlib

import pytest

from archscale import ExperimentSpec, WorkloadSpec, run_experiment
from archscale.cli import reference_architecture_path
from archscale.workload import Diurnal, Steps

SURGE_STEPS = Steps(((0, 70.0), (120 * 30, 300.0), (420 * 30, 140.0)))

RUNS = {
    "diurnal_720s_seed42": (
        dict(duration_s=720, seed=42, exact_arrivals=True,
             workload=WorkloadSpec(Diurnal(base=60, peak=380, period_s=720))),
        {
            "metrics_global.csv": "cfa6c74864324e77d27136c1f15f76c48b702600d85cbbb74ce222c2e7f7aa37",
            "events_global.csv": "3018ab9cb9c62ed70e4d2bc0ba9d06641b23e7835206b610915b0830665170e1",
            "metrics_local.csv": "59c10f1085838a9154d821c8e054919b24fcd3251b71cff58ae057b17527bf01",
            "events_local.csv": "379f51356e815a3f6d54802eed4f0fedd1ebd7f9754df415fc75e421f1188bbc",
            "report.json": "ea8432d889285cfaf1ba323b7fdf6a85fb3efeaa1d5123d1a001a63f630e53da",
        },
    ),
    "surge_exact_seed7": (
        dict(duration_s=600, seed=7, exact_arrivals=True, workload=WorkloadSpec(SURGE_STEPS)),
        {
            "metrics_global.csv": "d9ca37f9a3d53c8c203d4936491a2c13f9abba49e254a2e6762b8c84b33cdbbb",
            "events_global.csv": "e3876e45110420a24bc8ce0129b51d65b3244498a5dd26b8e31946cf41ebb0d6",
            "metrics_local.csv": "c211460a4aa4e27b76983a677f11e08c3bb5a8d8f05a49bf45132139f477dc8f",
            "events_local.csv": "5f0b3ae04bf33636e5d2eca882f133a28ff893f0ab882ba4264861f878fa7941",
            "report.json": "ee5a38473105f5a45936ee46ce544109ff6499a31c08455b78b1f9fb753f0b99",
        },
    ),
    "surge_poisson_jitter_seed1": (
        dict(duration_s=600, seed=1, exact_arrivals=False, monitoring_period_s=5,
             workload=WorkloadSpec(SURGE_STEPS, jitter=0.2)),
        {
            "metrics_global.csv": "01dc82e66d7aca7a28cb251ebca57c8c53c0cc2242bb458e67278a11de5b829c",
            "events_global.csv": "00e8b2c2bb7a36a927439fd856b27cf1d447ac418099cbf5fea8d9d2e4b4a7a6",
            "metrics_local.csv": "7609ff59f51243c0bf96693f91efa18f78ec5ce9f87ad36b454ff8fbbfd70257",
            "events_local.csv": "ba21a04c49bf7ed27b8bfdd52e3b1850ed40fac7f9ea7ef15a63e7a76fd7dc89",
            "report.json": "3599ee0b7fd0b0b8ed1b30a4a376fe87b8ed2d2bce41f194e8187a211a84c4f9",
        },
    ),
    "surge_exact_queue40_seed7": (
        dict(duration_s=600, seed=7, exact_arrivals=True, queue_capacity=40,
             workload=WorkloadSpec(SURGE_STEPS)),
        {
            "metrics_global.csv": "cd10ec478b5f9a623740c08cebfdb620a59ff2a1715448f29bba3b59c3a0e335",
            "events_global.csv": "e3876e45110420a24bc8ce0129b51d65b3244498a5dd26b8e31946cf41ebb0d6",
            "metrics_local.csv": "ec0af050eb11eecae00dac3bbffa55e10449bd8e2c5e3645753b5c7bb5e7c668",
            "events_local.csv": "7d087b0321aecbb10e6c56af01fb17d66e3ce83571a8cdd5c759b7caa1e752bd",
            "report.json": "9c32847e8b39410549e7851e3c8affd10bd0d1bfeee808ee5a5c1657307a0693",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_digests_unchanged(name, tmp_path):
    scenario, expected = RUNS[name]
    spec = ExperimentSpec(
        architecture=str(reference_architecture_path()), policies=("global", "local"),
        output=str(tmp_path), **{"queue_capacity": 500, **scenario})
    run_experiment(spec)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert digests == expected
