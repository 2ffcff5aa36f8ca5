"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success; run with ``pytest -s
tests/test_acceptance.py`` to watch them tick by.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from archscale import (
    DeploymentRegistry,
    ExperimentSpec,
    ScalerParams,
    SimConfig,
    WorkloadSpec,
    build_capacity_table,
    plan_placement,
    request_cost,
    run_experiment,
    run_simulation,
    select_global_configuration,
    synthesize_orchestration,
    synthesize_scale_ladder,
    synthesize_undeployment,
    system_mcl,
    validate_orchestration_timing,
)
from archscale.capacity import ceil_frac, is_infinite
from archscale.cli import reference_architecture_path
from archscale.document import parse_architecture_data
from archscale.planner import AcquireVM
from archscale.scaler import delta_vector_is_canonical, diff_reconfiguration
from archscale.simulator import Policy
from archscale.workload import Diurnal, Steps

from conftest import REFERENCE_COUNTS
from test_planner import exhaustive_optimum

TPS = 30


def report(criterion: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) - {detail}")


@pytest.fixture(scope="module")
def reference_experiment(tmp_path_factory, reference_arch):
    """Criterion 7's scenario: diurnal 60..380 over two simulated hours."""
    out = tmp_path_factory.mktemp("acceptance")
    spec = ExperimentSpec(
        architecture=str(reference_architecture_path()),
        policies=(Policy.GLOBAL, Policy.LOCAL),
        output=str(out / "run1"),
        duration_s=7200,
        seed=42,
        exact_arrivals=True,
        workload=WorkloadSpec(Diurnal(base=60, peak=380, period_s=7200)),
    )
    started = time.perf_counter()
    result = run_experiment(spec)
    return spec, result, time.perf_counter() - started


def test_criterion_1_cost_model_pinpoint(reference_arch, reference_table):
    started = time.perf_counter()
    recognizer = reference_arch.service("ImageRecognizer")
    budget, cost = request_cost(reference_table.entry("ImageRecognizer").mcl, TPS)
    assert (budget, cost) == (91, 30)
    # On a VM of speed 5 per core, the recognizer's 6 cores give 5 * 6 units
    # a tick, and a request takes 5 * 6 * cost / budget of them.
    assert 5 * recognizer.cores_required * Fraction(cost, budget) == Fraction(5 * 6 * 30, 91)

    # Saturate a single-service system and count completions over 60 s.
    arch = parse_architecture_data({
        "services": [{"name": "Recognizer", "cost": {"Cores": 6, "Memory": 200},
                      "mcl": {"attachments_per_request": 1, "explicit_mcl": 91},
                      "mf_rule": "unit"}],
        "vm_catalog": [{"name": "big", "cores": 8, "memory": 4000,
                        "speed_per_core": 5, "startup_time": 0, "cost": 1}],
        "profile": {}, "pipeline": [],
    })
    table = build_capacity_table(arch)
    ladder = synthesize_scale_ladder(Fraction(60), [Fraction(60)], table)
    cfg = SimConfig(duration=61 * TPS, workload=WorkloadSpec(Steps(((0, 150.0),))),
                    seed=1, policy=Policy.GLOBAL, exact_arrivals=True,
                    params=ScalerParams(monitoring_period=10 ** 9))
    timeline = run_simulation(arch, ladder, cfg)
    window = [r.completed for r in timeline.rows if 1 <= r.t_s < 61]
    rate = sum(window) / 60
    assert sum(window) == 91 * 60, rate
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    report(1, f"per-request cost 900/91 exact, saturated throughput {rate:.2f}/s", elapsed)


def test_criterion_2_table_reproduction(reference_arch, reference_table, reference_ladder):
    started = time.perf_counter()
    names = [e.name for e in reference_table]
    for name, row in REFERENCE_COUNTS.items():
        idx = names.index(name)
        got = (reference_ladder.base.counts[idx],) + tuple(
            d.counts[idx] for d in reference_ladder.deltas)
        assert got == row, name
    for i in range(1, 5):  # scale i is the prefix D1 + ... + Di
        prefix = (1,) * i + (0,) * (4 - i)
        assert reference_ladder.configuration_for(prefix) == \
            reference_ladder.base + reference_ladder.scale(i)
    config = reference_ladder.base
    assert system_mcl(config, reference_table) >= 60
    for inc, delta in zip((60, 150, 240, 330), reference_ladder.deltas):
        config = config + delta
        assert system_mcl(config, reference_table) >= 60 + inc
    elapsed = time.perf_counter() - started
    assert elapsed < 1
    report(2, "12x5 count matrix and scale composition reproduced exactly", elapsed)


def test_criterion_3_global_invariant_property(reference_ladder, reference_table):
    started = time.perf_counter()
    params = ScalerParams()
    rng = random.Random(2024)
    deployed = (0, 0, 0, 0)
    for step in range(1000):
        inbound = Fraction(rng.randint(0, 900 * 8), 8)
        config, target, mcl = select_global_configuration(
            inbound, params, reference_ladder, reference_table)
        assert delta_vector_is_canonical(target), (inbound, target)
        assert Fraction(mcl) >= inbound + params.K
        diff_reconfiguration(deployed, target)  # well-formed by construction
        deployed = target
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    report(3, "1000 random steps stay in base + n*topscale + scale form", elapsed)


def test_criterion_4_planner_optimality():
    started = time.perf_counter()
    rng = random.Random(777)
    checked = 0
    trials = 0
    while checked < 200:
        trials += 1
        n_types = rng.randint(1, 4)
        catalog_blocks = [
            {"name": f"vm{t}", "cores": rng.randint(2, 12),
             "memory": rng.choice([2000, 6000, 16000]),
             "speed_per_core": 5, "startup_time": 10,
             "cost": round(rng.uniform(0.5, 8.0), 2)}
            for t in range(n_types)
        ]
        n_services = rng.randint(1, 6)
        service_blocks = [
            {"name": f"S{i}", "cost": {"Cores": rng.randint(1, 6),
                                       "Memory": rng.choice([100, 500, 1500])}}
            for i in range(n_services)
        ]
        arch = parse_architecture_data({
            "services": service_blocks, "vm_catalog": catalog_blocks,
            "profile": {}, "pipeline": [],
        })
        delta = {}
        total = 0
        for s in arch.services:
            c = rng.randint(0, min(3, 10 - total))
            total += c
            if c:
                delta[s.name] = c
        if not delta:
            continue
        feasible = all(
            any(vm.cores >= arch.service(n).cores_required and
                vm.memory >= arch.service(n).memory_required for vm in arch.vm_catalog)
            for n in delta
        )
        if not feasible:
            continue
        placement = plan_placement(delta, arch, arch.vm_catalog)
        items = []
        for name, count in delta.items():
            svc = arch.service(name)
            items.extend([(svc.cores_required, svc.memory_required)] * count)
        assert placement.total_cost == exhaustive_optimum(items, arch.vm_catalog)
        loads = {idx: [0, 0] for _, idx in placement.acquired_vms}
        placed = 0
        for idx, svcs in placement.assignments:
            for name in svcs:
                svc = arch.service(name)
                loads[idx][0] += svc.cores_required
                loads[idx][1] += svc.memory_required
                placed += 1
        for vm_type, idx in placement.acquired_vms:
            assert loads[idx][0] <= vm_type.cores
            assert loads[idx][1] <= vm_type.memory
        assert placed == sum(delta.values())
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(4, f"{checked} randomized placements equal the exhaustive optimum", elapsed)


def _reference_orchestration_set(arch, ladder):
    registry = DeploymentRegistry(arch)
    orchestrations = []
    base = {s.name: n for s, n in zip(arch.services, ladder.base.counts)}
    orch = synthesize_orchestration(plan_placement(base, arch, arch.vm_catalog), arch, registry)
    registry.apply(orch)
    orchestrations.append(orch)
    for delta in ladder.deltas:
        counts = {s.name: c for s, c in zip(arch.services, delta.counts) if c > 0}
        orch = synthesize_orchestration(
            plan_placement(counts, arch, arch.vm_catalog), arch, registry)
        registry.apply(orch)
        orchestrations.append(orch)
    return orchestrations


def _randomized_orchestrations(count: int):
    """Orchestrations for fresh randomized placements, criterion-4 style."""
    rng = random.Random(31337)
    made = 0
    while made < count:
        catalog = [
            {"name": f"vm{t}", "cores": rng.randint(2, 12),
             "memory": 16000, "speed_per_core": rng.choice([1, 5]),
             "startup_time": rng.randint(0, 600),
             "cost": round(rng.uniform(0.5, 8.0), 2)}
            for t in range(rng.randint(1, 4))
        ]
        services = [
            {"name": f"S{i}", "cost": {"Cores": rng.randint(1, 6), "Memory": 100}}
            for i in range(rng.randint(1, 6))
        ]
        arch = parse_architecture_data({
            "services": services, "vm_catalog": catalog, "profile": {}, "pipeline": [],
        })
        delta = {s.name: rng.randint(0, 3) for s in arch.services}
        delta = {k: v for k, v in delta.items() if v}
        if not delta or sum(delta.values()) > 10:
            continue
        if not all(any(vm.cores >= arch.service(n).cores_required
                       for vm in arch.vm_catalog) for n in delta):
            continue
        registry = DeploymentRegistry(arch)
        orch = synthesize_orchestration(
            plan_placement(delta, arch, arch.vm_catalog), arch, registry)
        registry.apply(orch)
        made += 1
        yield arch, registry, orch


def test_criterion_5_timed_orchestration_semantics(
        reference_arch, reference_ladder, reference_experiment):
    started = time.perf_counter()
    checked = 0
    for orch in _reference_orchestration_set(reference_arch, reference_ladder):
        assert validate_orchestration_timing(orch, reference_arch) == []
        checked += 1
    for arch, registry, orch in _randomized_orchestrations(40):
        assert validate_orchestration_timing(orch, arch) == []
        for vm in registry.vms.values():
            assert vm.speed == vm.vm_type.speed_per_core * vm.used_cores
        checked += 1
    # Replay every orchestration each policy applied during criterion 7 and
    # verify the per-VM speed invariant after each one.
    _, result, _ = reference_experiment
    for timeline in result.timelines.values():
        registry = DeploymentRegistry(reference_arch)
        for orch in timeline.orchestrations:
            acquires = [a for a in orch.actions if isinstance(a, AcquireVM)]
            if acquires:
                assert validate_orchestration_timing(orch, reference_arch) == []
                expected = max(reference_arch.vm_type(a.vm_type).startup_time
                               for a in acquires)
                assert orch.startup_ticks == expected
            registry.apply(orch)
            for vm in registry.vms.values():
                assert vm.speed == vm.vm_type.speed_per_core * vm.used_cores
            checked += 1
    elapsed = time.perf_counter() - started
    report(5, f"{checked} orchestrations honor startup-max and speed rules", elapsed)


def test_criterion_6_undeploy_inverse(reference_arch, reference_ladder):
    started = time.perf_counter()
    registry = DeploymentRegistry(reference_arch)
    base = {s.name: n for s, n in zip(reference_arch.services, reference_ladder.base.counts)}
    registry.apply(synthesize_orchestration(
        plan_placement(base, reference_arch, reference_arch.vm_catalog),
        reference_arch, registry))
    for i, delta in enumerate(reference_ladder.deltas, start=1):
        before = registry.state_hash()
        counts = {s.name: c for s, c in zip(reference_arch.services, delta.counts) if c > 0}
        orch = synthesize_orchestration(
            plan_placement(counts, reference_arch, reference_arch.vm_catalog),
            reference_arch, registry)
        registry.apply(orch)
        assert registry.state_hash() != before
        registry.apply(synthesize_undeployment(orch))
        assert registry.state_hash() == before, f"delta {i}"
    elapsed = time.perf_counter() - started
    report(6, "deploy+undeploy of all four deltas restores the state hash", elapsed)


def test_criterion_7_global_vs_local_directional(reference_experiment):
    spec, result, sim_elapsed = reference_experiment
    g = result.report.summaries[Policy.GLOBAL]
    l = result.report.summaries[Policy.LOCAL]
    assert g.dropped_requests <= 0.9 * l.dropped_requests, (
        g.dropped_requests, l.dropped_requests)
    assert g.ticks_to_target is not None
    local_ticks = l.ticks_to_target if l.ticks_to_target is not None else float("inf")
    assert g.ticks_to_target < local_ticks
    assert g.peak_hour_mean_latency_s is not None and l.peak_hour_mean_latency_s is not None
    assert g.peak_hour_mean_latency_s <= l.peak_hour_mean_latency_s
    assert l.peak_total_instances <= g.peak_total_instances
    assert sim_elapsed < 300, f"criterion 7 runtime {sim_elapsed:.0f}s"
    report(7, (f"drops {g.dropped_requests}<={l.dropped_requests}, "
               f"target {g.ticks_to_target}<{l.ticks_to_target}, "
               f"peak-hour latency {g.peak_hour_mean_latency_s:.4f}<="
               f"{l.peak_hour_mean_latency_s:.4f}, "
               f"peak instances {l.peak_total_instances}<={g.peak_total_instances}"),
           sim_elapsed)


def _minimum_path_seconds(arch, table) -> float:
    """Longest pipeline path, each hop at its fastest possible service time."""
    hop_ticks = {}
    for entry in table:
        hop_ticks[entry.name] = 1 if is_infinite(entry.mcl) else \
            max(1, ceil_frac(Fraction(TPS) / Fraction(entry.mcl)))
    entry_name = arch.entry_service()
    best = {entry_name: hop_ticks[entry_name]}
    order = list(best)
    for name in order:  # pipeline is a DAG; breadth-first relaxation
        for edge in arch.pipeline:
            if edge.src != name:
                continue
            cand = best[name] + hop_ticks[edge.dst]
            if cand > best.get(edge.dst, 0):
                best[edge.dst] = cand
                order.append(edge.dst)
    return max(best.values()) / TPS


def test_criterion_8_steady_state_sanity(reference_arch, reference_table, tmp_path):
    started = time.perf_counter()
    spec = ExperimentSpec(architecture=str(reference_architecture_path()),
                          policies=(Policy.GLOBAL,), output=str(tmp_path), duration_s=600,
                          ticks_per_second=TPS, seed=12, exact_arrivals=True,
                          workload=WorkloadSpec(Steps(((0, 50.0),))))
    result = run_experiment(spec)
    timeline, summary = result.timelines[Policy.GLOBAL], result.report.summaries[Policy.GLOBAL]
    assert summary.dropped_requests == 0
    assert summary.lost_emails == 0
    assert len(timeline.events) == 0
    floor = _minimum_path_seconds(reference_arch, reference_table)
    assert summary.mean_latency_s is not None
    assert summary.mean_latency_s <= 2 * floor, (summary.mean_latency_s, floor)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(8, (f"zero drops, zero scaling events, mean latency "
               f"{summary.mean_latency_s:.4f}s <= 2x {floor:.4f}s"), elapsed)


def test_criterion_9_determinism(reference_experiment, tmp_path):
    spec, result, _ = reference_experiment
    started = time.perf_counter()
    from dataclasses import replace

    second = run_experiment(replace(spec, output=str(tmp_path / "run2")))
    for policy in (Policy.GLOBAL, Policy.LOCAL):
        first_bytes = (result.out_dir / f"metrics_{policy}.csv").read_bytes()
        second_bytes = (second.out_dir / f"metrics_{policy}.csv").read_bytes()
        assert first_bytes == second_bytes, policy
        assert (result.out_dir / f"events_{policy}.csv").read_bytes() == \
            (second.out_dir / f"events_{policy}.csv").read_bytes()
    elapsed = time.perf_counter() - started
    report(9, "two runs of the reference scenario are byte-identical", elapsed)


# SHA-256 of the reference run's files: the bytes of the paper's scenario.
REFERENCE_DIGESTS = {
    "metrics_global.csv": "dd87fbcc0e6416f60dc2efbdd27c33821cd807463c8c78e8e0e560893f0469fd",
    "events_global.csv": "34f383f3887cffd6ed24cdc425c20cdc543f95712c1a70082a8b494fc528c906",
    "metrics_local.csv": "77e58a3513173cf3230072af992eee66673cf55dae4484d3e10c53c58da29b42",
    "events_local.csv": "aae4e190550dd1fcdf2b15780ba0d9e85ffd5e219c21bc5d2cd3857532a395de",
    "report.json": "24411842515872d0986d63baf688716a56c79b67777bba3fa4dd0dc5695579d3",
}


def test_reference_run_digests_unchanged(reference_experiment):
    # Criterion 9 compares two runs with each other; this pins their bytes.
    _, result, _ = reference_experiment
    assert {f: hashlib.sha256((result.out_dir / f).read_bytes()).hexdigest()
            for f in REFERENCE_DIGESTS} == REFERENCE_DIGESTS
