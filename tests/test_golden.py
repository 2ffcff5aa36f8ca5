"""Golden outputs: the SHA-256 of every metrics and event CSV and of the
`report.json` of seven runs, and the conservation of emails in each.

A refactor of the engine must leave these files byte for byte unchanged.
The first two runs are the compressed diurnal demo and part 1 of the step
surge demo; the third is the step surge with Poisson arrivals, 20 % rate
jitter and a 5-s monitor, at seed 1. The fourth is the step surge of the
second with 40-request queues, so that within one tick the fan-outs of
several completions meet a full queue and are cut part way. The fifth runs
a small architecture with the route shapes the reference lacks. The sixth
runs an architecture where an email can end at a fan-out that emits
nothing, with queues so short that emails are dropped at the entry. The
seventh runs an architecture declared out of pipeline order, whose sink,
declared first, drops requests sent to it by services declared after it.
"""

import hashlib
import json

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
            "metrics_global.csv": "4f394a477f9ee15e19f5311ceb5c817332ac93ef6f1b7b1bc055077059d84a0a",
            "events_global.csv": "3018ab9cb9c62ed70e4d2bc0ba9d06641b23e7835206b610915b0830665170e1",
            "metrics_local.csv": "e24ed1cb5f57c21aa05bf75c8e89c605923eb47c2fbfcd9872cd22e4f9b15129",
            "events_local.csv": "379f51356e815a3f6d54802eed4f0fedd1ebd7f9754df415fc75e421f1188bbc",
            "report.json": "06d579ebce653138eef0152d8e2a7de036fa2e5186858e862f52b4b674e963d6",
        },
    ),
    "surge_exact_seed7": (
        dict(duration_s=600, seed=7, exact_arrivals=True, workload=WorkloadSpec(SURGE_STEPS)),
        {
            "metrics_global.csv": "950df031c86d3699eeda9947a244c001b2be900798e50a9a2dc71e89cb8dfe76",
            "events_global.csv": "e3876e45110420a24bc8ce0129b51d65b3244498a5dd26b8e31946cf41ebb0d6",
            "metrics_local.csv": "bf382f2528a571d1a4d6e03fcca5cf65c5439b7d6a7d0eba1961f8ff03f1cbc3",
            "events_local.csv": "e12597f2d01b5fe46e275c463ecc7dd2d5dd09bcda3f0bbafd57df83e06d7b79",
            "report.json": "c7b4e5b605549a81476ee1f843e83e85a4887044fbb80190fb1ca62154e84d95",
        },
    ),
    "surge_poisson_jitter_seed1": (
        dict(duration_s=600, seed=1, exact_arrivals=False, monitoring_period_s=5,
             workload=WorkloadSpec(SURGE_STEPS, jitter=0.2)),
        {
            "metrics_global.csv": "f4fd668ef2d087efffe898abe46ff44866f057242aa081ca8948e7d1198d9fbd",
            "events_global.csv": "00e8b2c2bb7a36a927439fd856b27cf1d447ac418099cbf5fea8d9d2e4b4a7a6",
            "metrics_local.csv": "934f8b276dc10503228c74df64616dd1afdd49cefc016c53004d9fcac1cfb2e6",
            "events_local.csv": "665f2605a313ce614bd0e5463e8b32a090b1e46062a2263fa17f0b6610a9a363",
            "report.json": "19bf61e4bd26983ba342ee059b635ea3de2bf35e8e71a9e601ff7bd2a4005197",
        },
    ),
    "surge_exact_queue40_seed7": (
        dict(duration_s=600, seed=7, exact_arrivals=True, queue_capacity=40,
             workload=WorkloadSpec(SURGE_STEPS)),
        {
            "metrics_global.csv": "4f8dd08d35a79ce6162af7453d2d6d92450ddf50726d724d5db5ac1d77bffade",
            "events_global.csv": "e3876e45110420a24bc8ce0129b51d65b3244498a5dd26b8e31946cf41ebb0d6",
            "metrics_local.csv": "2fa2d73e77ca57fea9d471449c07e42bd013bc5d2f8f6d5acb33454be673ac30",
            "events_local.csv": "7d087b0321aecbb10e6c56af01fb17d66e3ce83571a8cdd5c759b7caa1e752bd",
            "report.json": "b91e949e99a7b87a756a19f6b27c3785ed587f9c51bb2da128ca70e6f3ff079e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_digests_unchanged(name, tmp_path):
    scenario, expected = RUNS[name]
    spec = ExperimentSpec(
        architecture=str(reference_architecture_path()), policies=("global", "local"),
        output=str(tmp_path), **{"queue_capacity": 500, **scenario})
    assert_conserved(run_experiment(spec))
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert digests == expected


def assert_conserved(result):
    for tl in result.timelines.values():
        assert tl.generated == tl.completed + tl.lost + tl.in_flight_end


def _service(name, mcl, mf_rule="unit"):
    return {"name": name, "cost": {"Cores": 2, "Memory": 100},
            "mcl": {"explicit_mcl": mcl}, "mf_rule": mf_rule}


# Mixer receives two part kinds (headers and attachments); Header and Mixer
# each have two edges into Analyser; Scanner's "infected" edge has no
# "clean" complement, so a clean attachment ends there; Text feeds
# Sentiment a block fan-out and a fixed report, and Parser feeds Mixer a
# fixed header and an attachment fan-out.
ROUTE_SHAPES_ARCH = {
    "services": [
        _service("Receiver", 120), _service("Parser", 120), _service("Header", 90),
        _service("Text", 90), _service("Sentiment", 150, {"custom": "n_blocks + 1"}),
        _service("Scanner", 100, "per_attachment"),
        _service("Mixer", 150, {"custom": "1 + n_attachments"}),
        _service("Analyser", 200, {"custom": "3 + 2 * n_attachments"}),
    ],
    "vm_catalog": [{"name": "box", "cores": 4, "memory": 4000, "speed_per_core": 5,
                    "startup_time": 90, "cost": 1.0}],
    "profile": {"n_blocks": 2.5, "n_attachments": 2, "attachment_size": 7, "p_virus": 0.25,
                "block_count_support": [1, 4], "attachment_count_support": [0, 4]},
    "pipeline": [
        {"from": "Receiver", "to": "Parser", "part": "email"},
        {"from": "Parser", "to": "Header", "part": "header"},
        {"from": "Parser", "to": "Text", "part": "text"},
        {"from": "Parser", "to": "Scanner", "part": "attachment"},
        {"from": "Parser", "to": "Mixer", "part": "header"},
        {"from": "Parser", "to": "Mixer", "part": "attachment"},
        {"from": "Header", "to": "Analyser", "part": "report"},
        {"from": "Header", "to": "Analyser", "part": "header"},
        {"from": "Text", "to": "Sentiment", "part": "block"},
        {"from": "Text", "to": "Sentiment", "part": "report"},
        {"from": "Scanner", "to": "Analyser", "part": "report", "when": "infected"},
        {"from": "Mixer", "to": "Analyser", "part": "report"},
        {"from": "Mixer", "to": "Analyser", "part": "attachment", "when": "clean"},
    ],
}

ROUTE_SHAPES_DIGESTS = {
    "metrics_global.csv": "2c3bc522b30c9039ef84e41eefcb614451acb3e80efbb576552380b2386ea059",
    "events_global.csv": "d50f094f0dff10d5f81b635652f74f5a28e88dd06250401e31f70b9ee13f33e7",
    "metrics_local.csv": "7cd703d745bbff286b1369db263acae7638c227eedc65d00e0b468a486dd69fb",
    "events_local.csv": "163d8ba955d56cd2e651ff8eb0a66b3f21115c544a0ee77be676ea31ac490b81",
    "report.json": "bfb0dc0711622eb092bbfa6a12fb4be6dca97ff5176644a68cca43ebc67c059c",
}


def test_route_shapes_digests_unchanged(tmp_path):
    # Poisson arrivals, 50 -> 200 -> 80 emails/s, 40-request queues: both
    # policies drop requests out of batches that are cut part way.
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(ROUTE_SHAPES_ARCH), encoding="utf-8")
    spec = ExperimentSpec(
        architecture=str(arch_path), policies=("global", "local"), output=str(tmp_path / "out"),
        duration_s=90, seed=3, queue_capacity=40, exact_arrivals=False,
        workload=WorkloadSpec(Steps(((0, 50.0), (20 * 30, 200.0), (60 * 30, 80.0)))))
    result = run_experiment(spec)
    assert all(tl.dropped_requests and tl.completed for tl in result.timelines.values())
    assert_conserved(result)
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
               for f in ROUTE_SHAPES_DIGESTS}
    assert digests == ROUTE_SHAPES_DIGESTS


# Splitter's only edge is an attachment fan-out and Text's only edge a block
# fan-out, so an email without attachments ends at Splitter and one without
# blocks at Text; a clean attachment ends at Scanner.
FANOUT_LEAVES_ARCH = {
    "services": [
        _service("Receiver", 100), _service("Splitter", 150), _service("Header", 150),
        _service("Text", 150), _service("Sentiment", 200, {"custom": "n_blocks"}),
        _service("Scanner", 150, "per_attachment"), _service("Sink", 300),
    ],
    "vm_catalog": ROUTE_SHAPES_ARCH["vm_catalog"],
    "profile": {"n_blocks": 1.5, "n_attachments": 1.5, "attachment_size": 7, "p_virus": 0.25,
                "block_count_support": [0, 3], "attachment_count_support": [0, 3]},
    "pipeline": [
        {"from": "Receiver", "to": "Splitter", "part": "email"},
        {"from": "Receiver", "to": "Header", "part": "header"},
        {"from": "Receiver", "to": "Text", "part": "text"},
        {"from": "Splitter", "to": "Scanner", "part": "attachment"},
        {"from": "Text", "to": "Sentiment", "part": "block"},
        {"from": "Header", "to": "Sink", "part": "report"},
        {"from": "Scanner", "to": "Sink", "part": "report", "when": "infected"},
    ],
}

FANOUT_LEAVES_DIGESTS = {
    "metrics_global.csv": "ed2caa1a4a767189153842790520652ef82af364db4c6937c2b2df6ac843713e",
    "events_global.csv": "de5dbad1dc1b5b8f45eba392525b16ef918ff6aeca18d349e43180aadebb0f71",
    "metrics_local.csv": "0eb71fd145d4f61b631b65f44d2b7a26df1b37409a11e7ac1a51d7a858ea70e1",
    "events_local.csv": "52b26d473f09fe324c015bb1c2a869f90a32260244eb0bd4dd33a5e034d2ff4c",
    "report.json": "8d9d3d841007a221ec909e43e3137edee6487262685a871f755d1cf2a26afa97",
}


def _fanout_leaves_spec(tmp_path, policies, out):
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(FANOUT_LEAVES_ARCH), encoding="utf-8")
    return ExperimentSpec(
        architecture=str(arch_path), policies=policies, output=str(tmp_path / out),
        duration_s=90, seed=5, queue_capacity=12, exact_arrivals=False,
        base_target_mcl=60, scale_increments=(60, 300),
        workload=WorkloadSpec(Steps(((0, 60.0), (20 * 30, 220.0), (60 * 30, 90.0)))))


def test_fanout_leaves_digests_unchanged(tmp_path):
    # Poisson arrivals, 60 -> 220 -> 90 emails/s, 12-request queues: the
    # entry queue overflows after the step, so emails are dropped at entry.
    result = run_experiment(_fanout_leaves_spec(tmp_path, ("global", "local"), "out"))
    assert all(tl.lost and tl.completed for tl in result.timelines.values())
    assert_conserved(result)
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
               for f in FANOUT_LEAVES_DIGESTS}
    assert digests == FANOUT_LEAVES_DIGESTS


# Analyser, the sink, is declared first, so every edge into it runs from a
# service declared later. Parser sends Mixer two parts (header and text) over
# single edges, and Mixer sends Analyser two (report and text).
WIRES_ARCH = {
    "services": [
        _service("Analyser", 300, {"custom": "4 + n_attachments"}),
        _service("Receiver", 150), _service("Mixer", 250, {"custom": "2 + n_attachments"}),
        _service("Parser", 150), _service("Header", 120),
        _service("Scanner", 150, "per_attachment"),
    ],
    "vm_catalog": ROUTE_SHAPES_ARCH["vm_catalog"],
    "profile": {"n_blocks": 2.5, "n_attachments": 1.5, "attachment_size": 7, "p_virus": 0.25,
                "block_count_support": [1, 4], "attachment_count_support": [0, 3]},
    "pipeline": [
        {"from": "Receiver", "to": "Parser", "part": "email"},
        {"from": "Parser", "to": "Mixer", "part": "header"},
        {"from": "Parser", "to": "Mixer", "part": "text"},
        {"from": "Parser", "to": "Scanner", "part": "attachment"},
        {"from": "Parser", "to": "Header", "part": "header"},
        {"from": "Scanner", "to": "Mixer", "part": "attachment", "when": "clean"},
        {"from": "Scanner", "to": "Analyser", "part": "report", "when": "infected"},
        {"from": "Mixer", "to": "Analyser", "part": "report"},
        {"from": "Mixer", "to": "Analyser", "part": "text"},
        {"from": "Header", "to": "Analyser", "part": "header"},
    ],
}

WIRES_DIGESTS = {
    "metrics_global.csv": "e59c28567446ef246dbef0be44bfeb869467d96fb6d7329a94e2cf2e3d8b321f",
    "events_global.csv": "d50f094f0dff10d5f81b635652f74f5a28e88dd06250401e31f70b9ee13f33e7",
    "metrics_local.csv": "0eae9d1f5616c964f2921bf4bc8dbf5d390c56f463c97b2d7dac3ee292cf49a8",
    "events_local.csv": "8124070d974a8f5888b8395609dc77abcbe5fa140ae73ee99268bdccceb1facd",
    "report.json": "80596f6a55bcf1381a489ad0f31967c27bfa57923cc8c691ccd3c1135550038d",
}


def test_wires_digests_unchanged(tmp_path):
    # Poisson arrivals, 50 -> 200 -> 80 emails/s, 40-request queues: Analyser
    # drops more requests than any other service, every one of them sent on
    # an edge from a service declared after it.
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(WIRES_ARCH), encoding="utf-8")
    spec = ExperimentSpec(
        architecture=str(arch_path), policies=("global", "local"), output=str(tmp_path / "out"),
        duration_s=90, seed=11, queue_capacity=40, exact_arrivals=False,
        workload=WorkloadSpec(Steps(((0, 50.0), (20 * 30, 200.0), (60 * 30, 80.0)))))
    result = run_experiment(spec)
    assert all(tl.lost and tl.completed for tl in result.timelines.values())
    assert_conserved(result)
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
               for f in WIRES_DIGESTS}
    assert digests == WIRES_DIGESTS


def _surge_queue40_spec(tmp_path, policies, out):
    scenario, _ = RUNS["surge_exact_queue40_seed7"]
    return ExperimentSpec(architecture=str(reference_architecture_path()), policies=policies,
                          output=str(tmp_path / out), **scenario)


@pytest.mark.parametrize("make_spec", [_surge_queue40_spec, _fanout_leaves_spec])
def test_policy_order_leaves_each_policy_unchanged(tmp_path, make_spec):
    # The policies of one compare share its traffic and compiled routes, so
    # a first run that mutated any of them would change the second's files.
    for policies, out in ((("global", "local"), "gl"), (("local", "global"), "lg")):
        assert_conserved(run_experiment(make_spec(tmp_path, policies, out)))
    for name in ("metrics_global.csv", "events_global.csv", "metrics_local.csv",
                 "events_local.csv"):
        assert (tmp_path / "gl" / name).read_bytes() == (tmp_path / "lg" / name).read_bytes()
