"""Engine semantics: queues, budgets, gating, conservation, determinism."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from archscale import (
    ScalerParams,
    SimConfig,
    SimulationError,
    Steps,
    WorkloadSpec,
    build_capacity_table,
    run_simulation,
    synthesize_scale_ladder,
)
from archscale.document import parse_architecture_data
from archscale.simulator import (
    Balancer,
    InstanceRuntime,
    Policy,
    process_tick,
)
from archscale.workload import Diurnal


# -- balancer ------------------------------------------------------------------

def test_dispatch_enqueues_until_capacity():
    bal = Balancer(capacity=10)
    for i in range(9):
        assert bal.dispatch((i,)) == 1
    # One slot left: a fan-out of three keeps its first request only.
    assert bal.dispatch((97, 98, 99)) == 1
    assert bal.dispatch((100,)) == 0
    assert bal.pending == list(range(9)) + [97]
    bal.promote()
    assert bal.dispatch((101,)) == 0


def test_dispatch_empty_queue_enqueues_front():
    bal = Balancer(capacity=10)
    assert bal.dispatch((5,)) == 1
    assert list(bal.ready) == []
    bal.promote()
    assert bal.ready[0] == 5


@given(capacity=st.integers(1, 20), n_ready=st.integers(0, 25), n_pending=st.integers(0, 25),
       batches=st.lists(st.lists(st.integers(0, 999), max_size=6).map(tuple), max_size=10))
def test_one_dispatch_of_a_concatenation_equals_one_per_request_tuple(
        capacity, n_ready, n_pending, batches):
    # The engine admits a service's emissions to each destination in one call.
    def prefilled():
        bal = Balancer(capacity=capacity)
        bal.ready.extend(range(-n_ready, 0))
        bal.pending.extend(range(-n_ready - n_pending, -n_ready))
        return bal

    whole, each = prefilled(), prefilled()
    accepted = whole.dispatch([r for reqs in batches for r in reqs])
    assert accepted == sum(each.dispatch(reqs) for reqs in batches)
    assert whole.pending == each.pending
    assert whole.offered == each.offered


def test_promotion_preserves_fifo():
    bal = Balancer(capacity=10)
    bal.pending.extend(range(4))
    bal.promote()
    assert list(bal.ready) == [0, 1, 2, 3]
    assert bal.pending == []


def test_bounded_queues_drop_under_overload(reference_arch, reference_ladder):
    # 500 emails/s against the base deployment, no scaling: every queue fills.
    for queue_capacity in (1, 40):
        cfg = SimConfig(duration=20 * 30, workload=WorkloadSpec(Steps(((0, 500.0),))),
                        seed=11, policy=Policy.GLOBAL, exact_arrivals=True,
                        queue_capacity=queue_capacity,
                        params=ScalerParams(monitoring_period=10 ** 9))
        tl = run_simulation(reference_arch, reference_ladder, cfg)
        assert tl.dropped_requests > 0
        assert tl.generated == tl.completed + tl.lost + tl.in_flight_end
        # An email in flight holds a queue slot or an instance's current request.
        instances = tl.rows[-1].total_instances
        assert tl.in_flight_end <= queue_capacity * len(reference_arch.services) + instances


# -- the processing kernel ----------------------------------------------------------

def test_two_instances_split_four_requests():
    ready = deque([1, 2, 3, 4])
    a = InstanceRuntime("a", 0, 0, budget=10.0, unit_cost=5.0)
    b = InstanceRuntime("b", 0, 0, budget=10.0, unit_cost=5.0)
    assert process_tick([a], ready, 0) == [1, 2]
    assert process_tick([b], ready, 0) == [3, 4]


def test_shared_queue_completions_come_back_in_list_order():
    ready = deque(range(6))
    a = InstanceRuntime("a", 0, 0, budget=10.0, unit_cost=5.0)
    b = InstanceRuntime("b", 0, 0, budget=10.0, unit_cost=4.0)
    # a takes 0 and 1, b takes 2 and 3 and starts 4 with 2 of its 10 left.
    assert process_tick([a, b], ready, 0) == [0, 1, 2, 3]
    assert list(ready) == [5]
    assert b.cur_req == 4 and b.cur_cost == 2.0
    assert process_tick([b, a], ready, 1) == [4, 5]


def test_instance_not_started_is_skipped():
    ready = deque([1, 2, 3])
    warm = InstanceRuntime("w", 0, 60, budget=10.0, unit_cost=5.0)
    live = InstanceRuntime("l", 0, 0, budget=10.0, unit_cost=5.0)
    assert process_tick([warm, live], ready, 59) == [1, 2]
    assert warm.cur_req == -1
    assert process_tick([warm, live], ready, 60) == [3]


# -- per-tick budget accounting ---------------------------------------------------

def test_request_spanning_ticks_completes_on_third():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=25.0)
    ready = deque([7])
    assert process_tick([inst], ready, 0) == []
    assert process_tick([inst], ready, 1) == []
    assert process_tick([inst], ready, 2) == [7]


def test_budget_not_banked_when_idle():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=15.0)
    assert process_tick([inst], deque(), 0) == []
    ready = deque([3])
    # Fresh tick: only 10 of 15 spent despite the idle tick before.
    assert process_tick([inst], ready, 1) == []
    assert process_tick([inst], ready, 2) == [3]


def test_image_recognizer_cost_rate():
    # budget 30/tick, cost 900/91: three requests most ticks, ~91/s sustained
    cost = float(Fraction(5 * 6 * 30, 91))
    inst = InstanceRuntime("i", 0, 0, budget=30.0, unit_cost=cost)
    ready = deque(range(10000))
    done = 0
    for tick in range(30 * 60):
        done += len(process_tick([inst], ready, tick))
    assert abs(done - 91 * 60) <= 1


def test_zero_cost_drains_entire_queue():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=0.0)
    ready = deque(range(500))
    assert len(process_tick([inst], ready, 0)) == 500


def test_draining_instance_finishes_current_only():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=8.0)
    ready = deque([1, 2])
    inst.cur_req = 0
    inst.cur_cost = 4.0
    inst.draining = True
    assert process_tick([inst], ready, 0) == [0]
    assert list(ready) == [1, 2]
    assert process_tick([inst], ready, 1) == []


def test_carried_request_costing_the_whole_budget_pops_nothing():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=8.0)
    inst.cur_req = 0
    inst.cur_cost = 10.0
    ready = deque([1, 2])
    assert process_tick([inst], ready, 0) == [0]
    assert list(ready) == [1, 2]
    assert inst.cur_req == -1


def test_draining_instance_carries_remainder_over_budget():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=8.0)
    inst.cur_req = 0
    inst.cur_cost = 25.0
    inst.draining = True
    ready = deque([1])
    assert process_tick([inst], ready, 0) == []
    assert (inst.cur_req, inst.cur_cost) == (0, 15.0)
    assert process_tick([inst], ready, 1) == []
    assert (inst.cur_req, inst.cur_cost) == (0, 5.0)
    assert process_tick([inst], ready, 2) == [0]
    assert list(ready) == [1]


def test_fresh_request_spending_budget_to_zero_starts_no_other():
    inst = InstanceRuntime("i", 0, 0, budget=10.0, unit_cost=5.0)
    ready = deque([1, 2, 3])
    assert process_tick([inst], ready, 0) == [1, 2]
    assert list(ready) == [3]
    assert (inst.cur_req, inst.cur_cost) == (-1, 0.0)


# -- whole-engine behavior ---------------------------------------------------------

def tiny_arch(mcl_rate=150, queue_relevant=True):
    # Two-stage pipeline: Gate (finite) forwards whole email to Sink (finite).
    return parse_architecture_data({
        "services": [
            {"name": "Gate", "cost": {"Cores": 2, "Memory": 100},
             "mcl": {"attachments_per_request": 2, "penalty_factor": 0,
                     "data_rate_by_cores": {"2": mcl_rate * 14}},
             "mf_rule": "unit"},
            {"name": "Sink", "cost": {"Cores": 2, "Memory": 100},
             "mcl": {"attachments_per_request": 0, "penalty_factor": 0.005,
                     "data_rate_by_cores": {}},
             "mf_rule": "unit"},
        ],
        "vm_catalog": [
            {"name": "box", "cores": 4, "memory": 4000, "speed_per_core": 5,
             "startup_time": 60, "cost": 1.0},
        ],
        "profile": {"n_blocks": 2.5, "n_attachments": 2, "attachment_size": 7,
                    "p_virus": 0.25, "block_count_support": [1, 4],
                    "attachment_count_support": [0, 4]},
        "pipeline": [{"from": "Gate", "to": "Sink", "part": "email"}],
    })


def ladder_for(arch, base=60, increments=(60,)):
    table = build_capacity_table(arch)
    return table, synthesize_scale_ladder(
        Fraction(base), [Fraction(i) for i in increments], table)


def test_zero_rate_run_stays_at_base(reference_arch, reference_ladder):
    cfg = SimConfig(duration=30 * 30, workload=WorkloadSpec(Steps(((0, 0.0),))),
                    seed=1, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.generated == 0
    assert tl.completed == 0
    assert tl.dropped_requests == 0
    assert all(r.service_counts == tl.rows[0].service_counts for r in tl.rows)
    assert tl.rows[-1].deployed_deltas == "0|0|0|0"


def test_steady_state_below_capacity(reference_arch, reference_ladder):
    cfg = SimConfig(duration=120 * 30, workload=WorkloadSpec(Steps(((0, 50.0),))),
                    seed=3, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.dropped_requests == 0
    assert tl.lost == 0
    assert len(tl.events) == 0
    assert tl.generated == 50 * 120
    assert tl.generated == tl.completed + tl.in_flight_end


def test_conservation_under_overload(reference_arch, reference_ladder):
    # 500 emails/s against the base deployment: heavy loss, strict accounting.
    cfg = SimConfig(duration=30 * 30, workload=WorkloadSpec(Steps(((0, 500.0),))),
                    seed=11, policy=Policy.GLOBAL, exact_arrivals=True,
                    params=ScalerParams(monitoring_period=10 ** 9))
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.dropped_requests > 0
    assert tl.lost > 0
    assert tl.generated == tl.completed + tl.lost + tl.in_flight_end


def test_determinism_bit_identical(reference_arch, reference_ladder):
    cfg = SimConfig(duration=60 * 30, workload=WorkloadSpec(Diurnal(40, 200, 60)),
                    seed=21, policy=Policy.LOCAL)
    a = run_simulation(reference_arch, reference_ladder, cfg)
    b = run_simulation(reference_arch, reference_ladder, cfg)
    assert a.to_csv() == b.to_csv()
    assert a.events_to_csv() == b.events_to_csv()


def test_different_seed_differs(reference_arch, reference_ladder):
    base = SimConfig(duration=60 * 30, workload=WorkloadSpec(Diurnal(40, 200, 60)),
                     seed=21, policy=Policy.GLOBAL)
    other = SimConfig(duration=60 * 30, workload=WorkloadSpec(Diurnal(40, 200, 60)),
                      seed=22, policy=Policy.GLOBAL)
    a = run_simulation(reference_arch, reference_ladder, base)
    b = run_simulation(reference_arch, reference_ladder, other)
    assert a.to_csv() != b.to_csv()


def test_startup_gating():
    arch = tiny_arch()
    table, ladder = ladder_for(arch, base=60, increments=(120,))
    # Demand jumps above base capacity; new capacity needs 60 ticks of startup.
    cfg = SimConfig(duration=40 * 30, workload=WorkloadSpec(Steps(((0, 55.0), (300, 170.0)))),
                    seed=5, policy=Policy.LOCAL, exact_arrivals=True,
                    params=ScalerParams(K=Fraction(20), k=Fraction(10), monitoring_period=300))
    tl = run_simulation(arch, ladder, cfg)
    deploys = [e for e in tl.events if e.action == "deploy"]
    assert deploys, "expected a scale-up"
    first = min(e.tick for e in deploys)
    ready_tick = first + 60
    # Sustained throughput cannot exceed the old capacity before startup ends.
    pre = [r for r in tl.rows if first // 30 + 1 <= r.t_s < ready_tick // 30]
    for row in pre:
        assert row.completed <= 150 + 2  # one Gate instance at 150/s plus carry slack
    # Capacity only reaches the 170/s peak once the warmed instance comes online.
    assert tl.ticks_to_target == ready_tick


def test_throughput_ceiling_at_saturation():
    arch = tiny_arch()
    table, ladder = ladder_for(arch)
    cfg = SimConfig(duration=90 * 30, workload=WorkloadSpec(Steps(((0, 400.0),))),
                    seed=9, policy=Policy.GLOBAL, exact_arrivals=True,
                    params=ScalerParams(monitoring_period=10 ** 9))
    tl = run_simulation(arch, ladder, cfg)
    gate_count = ladder.base.counts[0]
    gate_mcl = float(table.entries[0].mcl)  # 150 req/s per Gate instance
    for row in tl.rows[1:]:
        assert row.completed <= gate_count * gate_mcl + gate_count


def test_ladder_mismatch_rejected(reference_arch):
    arch = tiny_arch()
    _, ladder = ladder_for(arch)
    cfg = SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 1.0),))), seed=1)
    with pytest.raises(SimulationError, match="ladder"):
        run_simulation(reference_arch, ladder, cfg)


def test_invalid_architecture_rejected(reference_ladder):
    doc = parse_architecture_data({
        "services": [{"name": "A", "cost": {"Cores": 0, "Memory": 0}}],
        "vm_catalog": [], "profile": {}, "pipeline": [],
    })
    cfg = SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 1.0),))), seed=1)
    with pytest.raises(SimulationError, match="validation"):
        run_simulation(doc, reference_ladder, cfg)


def test_latency_floor_one_tick_per_hop(reference_arch, reference_ladder):
    cfg = SimConfig(duration=60 * 30, workload=WorkloadSpec(Steps(((0, 5.0),))),
                    seed=2, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    # Shortest full path is four hops (receiver, parser, analyser, aggregator);
    # no email may finish faster.
    assert tl.completed > 0
    for row in tl.rows:
        assert row.latency_ticks >= 4 * row.completed


def test_global_scaling_reaches_plateau(reference_arch, reference_ladder):
    cfg = SimConfig(duration=240 * 30, workload=WorkloadSpec(Steps(((0, 360.0),))),
                    seed=13, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.rows[-1].deployed_deltas == "1|1|1|1"
    assert tl.ticks_to_target is not None


def test_local_scaling_scales_each_service(reference_arch, reference_ladder):
    cfg = SimConfig(duration=240 * 30, workload=WorkloadSpec(Steps(((0, 200.0),))),
                    seed=13, policy=Policy.LOCAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    final = dict(zip(tl.service_names, tl.rows[-1].service_counts))
    # Infinite-capacity analysers never scale.
    assert final["HeaderAnalyser"] == 1
    assert final["LinkAnalyser"] == 1
    assert final["TextAnalyser"] == 1
    assert final["ImageRecognizer"] >= 4  # demand 200 * 1.5 / 91
    assert final["MessageAnalyser"] >= 4


def test_scale_down_returns_to_base(reference_arch, reference_ladder):
    cfg = SimConfig(duration=420 * 30,
                    workload=WorkloadSpec(Steps(((0, 250.0), (120 * 30, 20.0)))),
                    seed=17, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.rows[60].deployed_deltas != "0|0|0|0"
    assert tl.rows[-1].deployed_deltas == "0|0|0|0"
    assert tl.rows[-1].service_counts == tuple(reference_ladder.base.counts)
    undeploys = [e for e in tl.events if e.action == "undeploy"]
    assert undeploys
