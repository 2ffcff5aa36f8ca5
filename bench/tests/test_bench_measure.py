"""Tests of the benchmark's own arithmetic: span self time, the tail
percentile rule, failed-operation accounting, each decision's and each
segment's best pass, calibration scaling and fresh and repeated placement
requests."""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.measure import (  # noqa: E402
    Bests, Calibration, Span, Tally, Tracer, covered_ns, percentile, self_times, tail_percentile)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0, 100, -1),
        Span("child", 10, 40, 0),
        Span("grandchild", 15, 35, 1),
        Span("child", 50, 60, 0),
    ]
    assert self_times(spans) == [100 - 30 - 10, 30 - 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 50, 0),
        Span("b", 30, 70, 0),  # overlaps a on [30, 50)
        Span("c", 40, 45, 0),  # inside both
    ]
    assert self_times(spans)[0] == 100 - 60


def test_self_time_clips_children_to_the_parent():
    spans = [Span("root", 10, 20, -1), Span("late", 15, 30, 0), Span("early", 0, 12, 0)]
    assert self_times(spans)[0] == 10 - 5 - 2


def test_covered_ns_merges_touching_and_disjoint_intervals():
    assert covered_ns(0, 100, [(0, 10), (10, 20), (30, 40)]) == 30
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(50, 50)]) == 0


def test_tracer_records_parents_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    class Box:
        @staticmethod
        def inner(x):
            return x + 1

    tracer.patch(Box, "inner", staticmethod(tracer.wrap("inner", Box.inner)))
    outer = tracer.wrap("outer", lambda x: Box.inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert self_times(tracer.spans) == [3 - 1, 1]
    tracer.restore()
    assert Box.inner(1) == 2 and len(tracer.spans) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 98  # p99 would leave only 9 beyond
    assert tail_percentile(100) == 90
    assert tail_percentile(20) == 50
    assert tail_percentile(11) == 9
    assert tail_percentile(10) is None
    for n in (11, 57, 200, 1001, 5000):
        p = tail_percentile(n)
        assert n - -(-p * n // 100) >= 10
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert percentile([7], 99) == 7


def test_tally_counts_raising_and_failing_operations_once():
    tally = Tally()
    assert tally.run("ok", lambda: [])
    assert not tally.run("bad", lambda: ["first check", "second check"])

    def boom():
        raise ValueError("no placement")

    assert not tally.run("raises", boom)
    tally.record("recorded", [])
    tally.record("recorded bad", ["mismatch"])
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.problems[:2] == ["bad: first check", "bad: second check"]
    assert tally.problems[2].startswith("raises: raised ValueError: no placement (")
    assert tally.problems[3] == "recorded bad: mismatch"


def test_overfull_placement_is_a_failed_check():
    from archscale.document import parse_architecture_data
    from archscale.planner import Placement, plan_placement

    from bench.control import placement_problems

    arch = parse_architecture_data({
        "services": [{"name": "S", "cost": {"Cores": 3, "Memory": 100}}],
        "vm_catalog": [{"name": "small", "cores": 4, "memory": 1000, "speed_per_core": 5,
                        "startup_time": 1, "cost": 1}],
        "profile": {}, "pipeline": [],
    })
    good = plan_placement({"S": 2}, arch, arch.vm_catalog)
    assert placement_problems(good, arch, {"S": 2}) == []
    vm = arch.vm_catalog[0]
    crammed = Placement(acquired_vms=((vm, 0),), assignments=((0, ("S", "S")),),
                        total_cost=Fraction(1))
    assert placement_problems(crammed, arch, {"S": 2})
    assert placement_problems(good, arch, {"S": 3})


def test_reused_placements_count_as_repeated_requests():
    from archscale import planner
    from archscale.document import parse_architecture_data

    from bench.layers import Instrumented

    original = planner.plan_placement

    arch = parse_architecture_data({
        "services": [{"name": "S", "cost": {"Cores": 1, "Memory": 100}}],
        "vm_catalog": [{"name": "small", "cores": 4, "memory": 1000, "speed_per_core": 5,
                        "startup_time": 1, "cost": 1}],
        "profile": {}, "pipeline": [],
    })
    with Instrumented(layers=True) as instr:
        registry = planner.DeploymentRegistry(arch)
        placement = planner.plan_placement({"S": 2}, arch, arch.vm_catalog)
        for _ in range(3):
            registry.apply(planner.synthesize_orchestration(placement, arch, registry))
        planner.plan_placement({"S": 1}, arch, arch.vm_catalog)  # placed, never deployed
    assert instr.placement_requests() == (2, 2)
    metrics = instr.layer_metrics()
    assert metrics["planner.repeated_delta_share"] == 0.5
    assert metrics["planner.deploys_per_place"] == 1.5
    assert planner.plan_placement is original


def test_bests_keep_each_elements_fastest_pass():
    bests = Bests()
    bests.add([10, 40, 5])
    bests.add([12, 30, 9])
    bests.add([1, 1])  # another length: cannot be matched, skipped
    bests.add([8, 35, 7])
    assert bests.passes == 3
    assert list(bests.best) == [8, 30, 5]


def test_calibration_scales_times_up_and_rates_down_by_its_best_sample():
    calibration = Calibration()
    calibration.samples_ns.extend([2 * Calibration.REFERENCE_NS, 4 * Calibration.REFERENCE_NS])
    assert calibration.scale({"wall_s": 3.0, "decisions_per_s": 10.0}) == \
        {"wall_s": 1.5, "decisions_per_s": 20.0}


def test_calibration_samples_at_most_once_per_period():
    calibration = Calibration(period_s=3600)
    assert calibration.tick() > 0
    assert calibration.tick() == 0
    assert len(calibration.samples_ns) == 1
