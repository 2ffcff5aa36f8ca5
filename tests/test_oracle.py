"""A whole-run oracle: the engine one request at a time, on generated small
architectures and specs, against ``run_simulation``.

The oracle is a plain tick-major engine. A request is an (email, part,
virus flag) tuple and a queue is a deque of them; each completion is expanded
by the pipeline's part semantics (``part_emissions``) and each emitted
request admitted on its own; each email's live requests are counted in a
dict. It has no wires, no shape tables and no batching. It shares with the
engine only the document model, the traffic from ``workload.draw_traffic``,
the scaler and planner calls the monitors make (with its own copy of the two
monitors' rules) and the timeline's CSV format.
"""

from collections import deque
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from archscale import SimConfig, WorkloadSpec, build_capacity_table, run_simulation
from archscale.capacity import (
    Configuration,
    is_infinite,
    synthesize_scale_ladder,
    system_mcl,
)
from archscale.document import parse_architecture_data
from archscale.planner import (
    CreateInstance,
    DeploymentRegistry,
    plan_placement,
    synthesize_orchestration,
    synthesize_removal,
    synthesize_undeployment,
)
from archscale.scaler import (
    Policy,
    ScalerParams,
    Trigger,
    local_target_instances,
    scaling_trigger,
    select_global_configuration,
)
from archscale.simulator import IntervalRow, MetricsTimeline, ScalingEvent
from archscale.workload import Steps, draw_traffic

from test_scaler import within
from test_simulator import part_emissions


class Inst:
    def __init__(self, iid, ready_at):
        self.iid, self.ready_at, self.draining, self.cur, self.left = iid, ready_at, False, None, 0


def oracle_run(arch, ladder, config):
    """``run_simulation``'s timeline, one request at a time."""
    table = build_capacity_table(arch)
    tps, period, params = config.ticks_per_second, config.params.monitoring_period, config.params
    names = [s.name for s in arch.services]
    index = {name: i for i, name in enumerate(names)}
    entry = arch.entry_service()
    mcl = {e.name: e.mcl for e in table.entries}
    # Per tick an instance spends mcl.numerator units, a request costs
    # tps * mcl.denominator: mcl requests a second.
    costs = {n: (1, 0) if is_infinite(m) else (Fraction(m).numerator,
                                                tps * Fraction(m).denominator)
             for n, m in mcl.items()}
    arrivals, shapes, shape_of = draw_traffic(config, arch.profile)
    registry = DeploymentRegistry(arch)
    timeline = MetricsTimeline(ticks_per_second=tps, service_names=tuple(names))
    insts = {n: [] for n in names}
    queues = {n: deque() for n in names}
    ready = dict.fromkeys(names, 0)
    offered = dict.fromkeys(names, 0)
    live, born, lost = {}, {}, set()
    iv = dict.fromkeys(("gen", "done", "lost", "drop", "lat"), 0)
    vm_cost = Fraction(0)

    def deploy(counts, now):
        nonlocal vm_cost
        placement = plan_placement({n: c for n, c in zip(names, counts) if c}, arch,
                                   arch.vm_catalog)
        orch = synthesize_orchestration(placement, arch, registry)
        registry.apply(orch)
        timeline.orchestrations.append(orch)
        vm_cost += placement.total_cost
        made = []
        for act in orch.actions:
            if isinstance(act, CreateInstance):
                made.append(Inst(act.instance_id, 0 if now is None else now + orch.startup_ticks))
                insts[act.service].append(made[-1])
        return orch, made

    def retire(removal, victims):
        registry.apply(removal)
        timeline.orchestrations.append(removal)
        for inst in victims:
            inst.draining = True

    deploy(ladder.base.counts, None)
    # The global units, oldest first: unit k is delta k mod n.
    units = []
    n_deltas = len(ladder.deltas)

    def deltas_vector():
        return tuple(sum(1 for k in range(len(units)) if k % n_deltas == i)
                     for i in range(n_deltas))

    def event(now, policy, scope, trig, action, detail):
        timeline.events.append(ScalingEvent(now, policy, scope, trig.value, action, detail))

    def global_monitor(now):
        inbound = Fraction(offered[entry] * tps, period)
        offered[entry] = 0
        deployed = deltas_vector()
        trig = scaling_trigger(inbound, system_mcl(ladder.configuration_for(deployed), table),
                               params)
        if trig is Trigger.NONE:
            return
        _, target, _ = select_global_configuration(inbound, params, ladder, table)
        height = sum(target)
        while len(units) < height:
            units.append(deploy(ladder.deltas[len(units) % n_deltas].counts, now))
        while len(units) > height and all(i.ready_at <= now for i in units[-1][1]):
            orch, made = units.pop()
            retire(synthesize_undeployment(orch), made)
        after = deltas_vector()
        if after != deployed:
            event(now, Policy.GLOBAL, "system", trig,
                  "deploy" if trig is Trigger.UP else "undeploy",
                  "|".join(map(str, deployed)) + "->" + "|".join(map(str, after)))
        if len(units) > height:
            event(now, Policy.GLOBAL, "system", trig, "defer",
                  f"{len(units) - height} undeploys while warming")

    def local_monitor(now):
        for i, name in enumerate(names):
            if is_infinite(mcl[name]):
                continue
            inbound = Fraction(offered[name] * tps, period)
            offered[name] = 0
            old = sum(1 for x in insts[name] if not x.draining)
            trig = scaling_trigger(inbound, mcl[name] * old, params)
            if trig is Trigger.NONE:
                continue
            target = local_target_instances(inbound, params, mcl[name], ladder.base.counts[i], old)
            if target > old:
                deploy(tuple(target - old if j == i else 0 for j in range(len(names))), now)
            elif target < old:
                if any(x.ready_at > now for x in insts[name]):
                    event(now, Policy.LOCAL, name, trig, "defer", f"hold {old} while warming")
                    continue
                victims = [x for x in reversed(insts[name]) if not x.draining][:old - target]
                retire(synthesize_removal([v.iid for v in victims], arch, registry), victims)
            else:
                continue
            event(now, Policy.LOCAL, name, trig, "deploy" if target > old else "undeploy",
                  f"{old}->{target}")

    def admit(name, req, takeable):
        offered[name] += 1
        if len(queues[name]) < config.queue_capacity:
            queues[name].append(req)
            live[req[0]] = live.get(req[0], 0) + 1
            ready[name] += takeable
            return
        iv["drop"] += 1
        if req[0] not in lost:
            lost.add(req[0])
            iv["lost"] += 1

    def process(name, tick):
        budget, cost = costs[name]
        queue = queues[name]
        n, done = ready[name], []
        for inst in insts[name]:
            if tick < inst.ready_at:
                continue
            credit = budget
            if inst.cur is not None:
                if inst.left > credit:
                    inst.left -= credit
                    continue
                credit -= inst.left
                done.append(inst.cur)
                inst.cur, inst.left = None, 0
                if not credit:
                    continue
            while n and not inst.draining:
                req = queue.popleft()
                n -= 1
                if cost > credit:
                    inst.cur, inst.left = req, cost - credit
                    break
                credit -= cost
                done.append(req)
                if not credit:
                    break
        ready[name] = len(queue)
        for eid, part, flag in done:
            live[eid] -= 1
            for dst, p, f in part_emissions(arch, name, part, flag, *shapes[shape_of[eid]]):
                admit(dst, (eid, p, f), index[dst] < index[name])
            if not live[eid] and eid not in lost:
                iv["done"] += 1
                iv["lat"] += tick - born[eid]

    next_email, start = 0, 0
    for tick in range(config.duration):
        for _ in range(arrivals[tick]):
            born[next_email] = tick
            admit(entry, (next_email, "email", 0), False)
            next_email += 1
        iv["gen"] += arrivals[tick]
        for name in names:
            process(name, tick)
        if (tick + 1) % period == 0:
            (global_monitor if config.policy == Policy.GLOBAL else local_monitor)(tick)
        if (tick + 1) % tps == 0 or tick == config.duration - 1:
            for name in names:
                insts[name][:] = [x for x in insts[name] if not x.draining or x.cur is not None]
            cap = system_mcl(Configuration(tuple(
                sum(1 for x in insts[n] if x.ready_at <= tick and not x.draining) for n in names)),
                table)
            counts = tuple(sum(1 for x in insts[n] if not x.draining) for n in names)
            timeline.rows.append(IntervalRow(
                t_s=start // tps, inbound_eps=iv["gen"] / ((tick + 1 - start) / tps),
                generated=iv["gen"], completed=iv["done"], lost_emails=iv["lost"],
                dropped_requests=iv["drop"], latency_ticks=iv["lat"],
                capacity_eps=1e9 if is_infinite(cap) else float(cap),
                total_instances=sum(counts), vm_cost_total=float(vm_cost),
                deployed_deltas="|".join(map(str, deltas_vector()))
                if config.policy == Policy.GLOBAL else "",
                service_counts=counts))
            iv = dict.fromkeys(iv, 0)
            start = tick + 1
    timeline.in_flight_end = sum(1 for eid, n in live.items() if n and eid not in lost)
    return timeline


# -- generated cases -------------------------------------------------------------

# What an edge of each part emits from a request of the given arriving part,
# besides a report (from any part) and the part itself (passed through).
DERIVED = {"email": ("header", "links", "text", "attachment"), "text": ("block",)}


@st.composite
def architectures(draw):
    """A small valid pipeline: services declared in any order (sinks first,
    too), a DAG over them from one entry, finite and infinite MCLs, one VM
    type whose startup may be 0."""
    n = draw(st.integers(2, 5))
    topo = draw(st.permutations(range(n)))  # topo[0] is the entry
    arriving = {topo[0]: {"email"}}
    edges = []
    for k in range(1, n):
        dst = topo[k]
        arriving[dst] = set()
        for _ in range(draw(st.integers(1, 2))):
            src = topo[draw(st.integers(0, k - 1))]
            parts = sorted(arriving[src])
            options = ["report", *parts, *(q for p in parts for q in DERIVED.get(p, ()))]
            part = draw(st.sampled_from(options))
            when = draw(st.sampled_from([None, None, "clean", "infected"]))
            edge = {"from": f"S{src}", "to": f"S{dst}", "part": part,
                    **({"when": when} if when else {})}
            if edge not in edges:
                edges.append(edge)
                arriving[dst].add(part)
    services = []
    for i in range(n):
        if draw(st.integers(0, 3)) == 0:  # a relay of infinite MCL
            mcl = {"attachments_per_request": 0, "penalty_factor": 0, "data_rate_by_cores": {}}
        else:
            mcl = {"explicit_mcl": draw(st.sampled_from(["15", "40", "90", "200/7", "45/2"]))}
        services.append({"name": f"S{i}", "mcl": mcl, "mf_rule": "unit",
                         "cost": {"Cores": draw(st.integers(1, 2)), "Memory": 100}})
    b_lo, b_hi = sorted(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    a_lo, a_hi = sorted(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    return parse_architecture_data({
        "services": services,
        "vm_catalog": [{"name": "box", "cores": 4, "memory": 4000, "speed_per_core": 5,
                        "startup_time": draw(st.sampled_from([0, 0, 7, 45])), "cost": 1}],
        "profile": {"n_blocks": str(Fraction(b_lo + b_hi, 2)),
                    "n_attachments": str(Fraction(a_lo + a_hi, 2)), "attachment_size": 7,
                    "p_virus": draw(st.sampled_from(["0", "1/4", "1/2", "1"])),
                    "block_count_support": [b_lo, b_hi], "attachment_count_support": [a_lo, a_hi]},
        "pipeline": edges,
    })


@st.composite
def configs(draw):
    """Short runs whose monitor period may not divide the tick rate or may
    outlast the run, with steps that scale up and back down, and queues of
    1 to 3 requests as well as roomy ones."""
    tps = draw(st.sampled_from([1, 3, 10, 30]))
    duration = tps * draw(st.integers(2, 24)) + draw(st.integers(0, tps - 1))
    period = draw(st.sampled_from([tps, 2 * tps, 3 * tps + 1, 7, duration + 5])
                  | st.integers(1, duration))
    starts = sorted(set(draw(st.lists(st.integers(1, duration - 1), max_size=2))))
    rates = draw(st.lists(st.sampled_from([0.0, 5.0, 30.0, 80.0, 150.0]),
                          min_size=len(starts) + 1, max_size=len(starts) + 1))
    return SimConfig(
        duration=duration, workload=WorkloadSpec(Steps(tuple(zip([0, *starts], rates))),
                                                 jitter=draw(st.sampled_from([0.0, 0.3]))),
        seed=draw(st.integers(0, 50)), ticks_per_second=tps,
        queue_capacity=draw(st.sampled_from([1, 2, 3, 20, 500])),
        policy=draw(st.sampled_from([Policy.GLOBAL, Policy.LOCAL])),
        params=ScalerParams(K=Fraction(draw(st.sampled_from([0, 5, 20]))),
                            k=Fraction(draw(st.sampled_from([0, 5]))), monitoring_period=period),
        exact_arrivals=draw(st.booleans()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arch=architectures(), config=configs(), base=st.sampled_from([10, 30]),
       increments=st.sampled_from([(100,), (20, 100), (40, 100)]))
# A fall while the newest unit warms: at tick 7 D1 is online and D2, deployed
# a tick later, is not. Both undeploys wait until D2 is online, so the vector
# never reads 0|1.
@example(
    arch=parse_architecture_data({
        "services": [
            {"name": "S0", "mf_rule": "unit", "cost": {"Cores": 1, "Memory": 100},
             "mcl": {"attachments_per_request": 0, "penalty_factor": 0,
                     "data_rate_by_cores": {}}},
            {"name": "S1", "mf_rule": "unit", "cost": {"Cores": 1, "Memory": 100},
             "mcl": {"explicit_mcl": "15"}}],
        "vm_catalog": [{"name": "box", "cores": 4, "memory": 4000, "speed_per_core": 5,
                        "startup_time": 7, "cost": 1}],
        "profile": {"n_blocks": "0", "n_attachments": "0", "attachment_size": 7,
                    "p_virus": "0", "block_count_support": [0, 0],
                    "attachment_count_support": [0, 0]},
        "pipeline": [{"from": "S0", "to": "S1", "part": "report"}]}),
    config=SimConfig(duration=9, workload=WorkloadSpec(Steps(((0, 30.0), (2, 0.0)))), seed=3,
                     ticks_per_second=3, queue_capacity=1, policy=Policy.GLOBAL,
                     params=ScalerParams(K=Fraction(0), k=Fraction(0), monitoring_period=1)),
    base=10, increments=(20, 100))
def test_engine_matches_the_one_request_oracle(arch, config, base, increments):
    table = build_capacity_table(arch)
    ladder = synthesize_scale_ladder(Fraction(base), [Fraction(i) for i in increments], table)
    # Each run is short: one that hangs fails the suite instead of stalling it.
    try:
        timeline = within(30, run_simulation, arch, ladder, config)
    except Exception as exc:  # a refusal must be one of the package's named errors
        assert type(exc).__module__.startswith("archscale."), repr(exc)
        return
    expected = within(30, oracle_run, arch, ladder, config)
    assert timeline.to_csv() == expected.to_csv()
    assert timeline.events_to_csv() == expected.events_to_csv()
    assert timeline.in_flight_end == expected.in_flight_end
    assert timeline.generated == timeline.completed + timeline.lost + timeline.in_flight_end
