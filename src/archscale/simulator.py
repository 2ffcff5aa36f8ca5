"""Deterministic discrete-time execution of the email pipeline.

Each tick: the generator emits emails, balancers accept or drop requests
against bounded queues, ready instances spend their per-tick compute budget
on queued requests (completions forward downstream in the same tick but
become processable the next one), monitors fire on their period, and
warming orchestrations come online when their startup elapses.

Requests are bit-packed ints: email id, then part kind and virus flag in
the low nibble. The kernel is ``process_tick``, called once per service per
tick: per started instance it counts the fresh requests the budget
completes, with the same float subtractions as taking one request at a
time, and takes them as one slice of the queue. The routes are compiled
into templates indexed by the low nibble, so the requests a service's
completions emit to a destination are one comprehension over them, in
completion order, then spec order; only block and attachment fan-outs, and
the destinations they share, are walked per completion. Each destination's
batch is then admitted with a single ``Balancer.dispatch``: the
destination's queue does not change during the walk, so the batch keeps
exactly the requests that one call per completion would have kept.
Per-email state is three flat arrays indexed by email id (outstanding
requests, arrival tick, lost flag); an email settles when its outstanding
count reaches zero, and a service whose completions cannot change a count
(a relay) skips the per-email walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .capacity import (
    Configuration,
    ScaleLadder,
    build_capacity_table,
    is_infinite,
    request_cost,
    system_mcl,
)
from .model import PART_KINDS, SystemArchitecture, validate_architecture
from .planner import (
    DeploymentRegistry,
    Placement,
    TimedOrchestration,
    plan_placement,
    synthesize_orchestration,
    synthesize_removal,
    synthesize_undeployment,
)
from .scaler import (
    ScalerParams,
    Trigger,
    diff_reconfiguration,
    local_target_instances,
    scaling_trigger,
    select_global_configuration,
)
from .workload import WorkloadSpec, generate_arrivals, rate_curve, sample_email_batch


class SimulationError(RuntimeError):
    """The simulation cannot start or the inputs are inconsistent."""


# Part kind codes (indices into PART_KINDS).
P_EMAIL, P_HEADER, P_LINKS, P_TEXT, P_BLOCK, P_ATTACHMENT, P_REPORT = range(7)

# Emission modes for compiled routes. A fixed emission is the completed
# request masked and or-ed with the emitted part, so its mode is the mask:
# _M_ONE clears the part and the virus flag, _M_PASS the part only. The
# fan-outs emit a number of requests read from the email's sample.
_M_ONE = -16
_M_PASS = -15
_M_BLOCKS = 2
_M_ATT_FANOUT = 3
# Edge conditions, as the virus flag for which the edge does not fire.
_SKIP_NEVER = 2
_SKIP_INFECTED = 1  # a "clean" edge
_SKIP_CLEAN = 0  # an "infected" edge
# How a service's completions change their emails' outstanding counts: not
# at all, by -1 each, by a per-nibble delta, or by the delta plus fan-outs.
_K_RELAY, _K_SINK, _K_DELTA, _K_FANOUT = range(4)


class Policy:
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class SimConfig:
    duration: int  # ticks
    workload: WorkloadSpec
    seed: int = 0
    ticks_per_second: int = 30
    queue_capacity: int = 500
    policy: str = Policy.GLOBAL
    params: ScalerParams = field(default_factory=ScalerParams)
    exact_arrivals: bool = False

    def __post_init__(self):
        if self.ticks_per_second < 1 or self.queue_capacity < 1:
            raise ValueError("ticks_per_second >= 1 and queue_capacity >= 1 required")
        if self.policy not in (Policy.GLOBAL, Policy.LOCAL):
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass(slots=True)
class Balancer:
    """Bounded FIFO in front of a service's instances.

    Requests enqueued during a tick become available the next tick; the
    capacity check covers both segments. ``offered`` counts every request
    dispatched to it, accepted or dropped, until the monitor resets it.
    """

    capacity: int
    ready: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    offered: int = 0

    def dispatch(self, reqs) -> int:
        """Enqueue as many of ``reqs``, in order, as there is room for;
        returns how many were accepted. The rest are dropped."""
        n = len(reqs)
        self.offered += n
        pending = self.pending
        room = self.capacity - len(self.ready) - len(pending)
        if room >= n:
            pending.extend(reqs)
            return n
        if room <= 0:
            return 0
        pending.extend(reqs[:room])
        return room

    def promote(self) -> None:
        if self.pending:
            self.ready.extend(self.pending)
            self.pending.clear()


class InstanceRuntime:
    """One deployed instance: current work item plus per-tick budget."""

    __slots__ = ("iid", "service_idx", "ready_at", "draining",
                 "cur_req", "cur_cost", "budget", "unit_cost")

    def __init__(self, iid: str, service_idx: int, ready_at: int, budget: float, unit_cost: float):
        self.iid = iid
        self.service_idx = service_idx
        self.ready_at = ready_at
        self.draining = False
        self.cur_req = -1
        self.cur_cost = 0.0
        self.budget = budget
        self.unit_cost = unit_cost


def process_tick(insts: list[InstanceRuntime], ready: list, tick: int) -> list[int]:
    """Spend this tick's budget of every instance started by ``tick``, in list
    order, on the shared ``ready`` queue; returns the completed requests in
    completion order and deletes the requests taken from the queue's front.

    Idle budget is not banked: when the queue runs dry the leftover is lost.
    A request whose cost exceeds one budget carries its remainder over. A
    draining instance finishes its current request and takes no new one.
    """
    completed: list[int] = []
    head = 0  # requests taken so far
    n = len(ready)
    for inst in insts:
        if tick < inst.ready_at:
            continue
        budget = inst.budget
        if inst.cur_req >= 0:
            cost = inst.cur_cost
            if cost > budget:
                inst.cur_cost = cost - budget
                continue
            budget -= cost
            completed.append(inst.cur_req)
            inst.cur_req = -1
            inst.cur_cost = 0.0
            if budget <= 0.0:
                continue
        if inst.draining or head == n:
            continue
        # Count the fresh requests the budget completes, with the float
        # subtractions of one request at a time, and take them as a slice.
        unit = inst.unit_cost
        start = head
        while head < n and unit <= budget:
            budget -= unit
            head += 1
            if budget <= 0.0:
                completed += ready[start:head]
                break
        else:
            completed += ready[start:head]
            if head < n:  # the next request costs more than is left: start it
                inst.cur_req = ready[head]
                inst.cur_cost = unit - budget
                head += 1
    if head:
        del ready[:head]
    return completed


@dataclass
class ScalingEvent:
    tick: int
    policy: str
    scope: str  # "system" or a service name
    trigger: str  # "up" | "down"
    action: str  # "deploy" | "undeploy" | "defer"
    detail: str


@dataclass
class IntervalRow:
    """One second of the run (the last row may be shorter)."""

    t_s: int  # interval start, seconds
    inbound_eps: float
    generated: int
    completed: int
    lost_emails: int
    dropped_requests: int
    latency_ticks: int  # summed end-to-end latency of the completed emails
    capacity_eps: float
    total_instances: int
    vm_cost_total: float
    deployed_deltas: str
    service_counts: tuple[int, ...]


def _latency_s(latency_ticks: int, completed: int, tps: int) -> Optional[float]:
    """Mean latency in seconds of ``completed`` emails whose latencies sum
    to ``latency_ticks``; None when none completed."""
    return latency_ticks / completed / tps if completed else None


@dataclass
class MetricsTimeline:
    """Per-second metrics rows, events and orchestrations of one run.

    The rows are the one record of the email metrics: the run totals are
    sums over them.
    """

    ticks_per_second: int
    service_names: tuple[str, ...]
    rows: list[IntervalRow] = field(default_factory=list)
    events: list[ScalingEvent] = field(default_factory=list)
    orchestrations: list[TimedOrchestration] = field(default_factory=list)
    in_flight_end: int = 0
    ticks_to_target: Optional[int] = None
    total_vm_cost: Fraction = Fraction(0)

    @property
    def generated(self) -> int:
        return sum(r.generated for r in self.rows)

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.rows)

    @property
    def lost(self) -> int:
        return sum(r.lost_emails for r in self.rows)

    @property
    def dropped_requests(self) -> int:
        return sum(r.dropped_requests for r in self.rows)

    @property
    def peak_total_instances(self) -> int:
        return max((r.total_instances for r in self.rows), default=0)

    @property
    def mean_latency_s(self) -> Optional[float]:
        return _latency_s(sum(r.latency_ticks for r in self.rows), self.completed,
                          self.ticks_per_second)

    def to_csv(self) -> str:
        head = ["t_s", "inbound_eps", "generated", "completed", "lost_emails",
                "dropped_requests", "mean_latency_s", "capacity_eps",
                "total_instances", "vm_cost_total", "deployed_deltas"]
        head += [f"n_{name}" for name in self.service_names]
        lines = [",".join(head)]
        for r in self.rows:
            lat = _latency_s(r.latency_ticks, r.completed, self.ticks_per_second)
            cells = [
                str(r.t_s),
                f"{r.inbound_eps:.6f}",
                str(r.generated),
                str(r.completed),
                str(r.lost_emails),
                str(r.dropped_requests),
                "" if lat is None else f"{lat:.6f}",
                f"{r.capacity_eps:.6f}",
                str(r.total_instances),
                f"{r.vm_cost_total:.6f}",
                r.deployed_deltas,
            ]
            cells += [str(c) for c in r.service_counts]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def events_to_csv(self) -> str:
        lines = ["tick,t_s,policy,scope,trigger,action,detail"]
        for e in self.events:
            t_s = e.tick / self.ticks_per_second
            lines.append(f"{e.tick},{t_s:.3f},{e.policy},{e.scope},{e.trigger},{e.action},{e.detail}")
        return "\n".join(lines) + "\n"


class _ServiceState:
    __slots__ = ("idx", "name", "cores", "balancer", "insts", "draining_count",
                 "mcl", "base_n", "committed", "active_order")

    def __init__(self, idx: int, name: str, cores: int, capacity: int):
        self.idx = idx
        self.name = name
        self.cores = cores
        self.balancer = Balancer(capacity)
        self.insts: list[InstanceRuntime] = []
        self.draining_count = 0
        self.mcl = None  # Rational, set at build
        self.base_n = 0
        self.committed = 0
        self.active_order: list[InstanceRuntime] = []


@dataclass(frozen=True)
class _Unit:
    """One enacted deployment: when it comes online, its orchestration and
    the instances it created."""

    ready_tick: int
    orch: TimedOrchestration
    insts: list[InstanceRuntime]


def _delta_dict(names: tuple[str, ...], counts: tuple[int, ...]) -> dict[str, int]:
    return {name: c for name, c in zip(names, counts) if c > 0}


def _emitter(templates: tuple[tuple[tuple[int, int], ...], ...], arriving: list[int]):
    """The function from a service's completions to what they emit to one
    destination, in completion order, then spec order: per completion, one
    ``req & mask | bits`` for each ``(mask, bits)`` of ``templates`` at its
    nibble. When every nibble in ``arriving`` has the same single template,
    the lookup is skipped; when that template passes the request on
    unchanged, the completions are the emissions."""
    used = {templates[nib] for nib in arriving}
    if len(used) == 1 and len(next(iter(used))) == 1:
        ((mask, bits),) = used.pop()
        if mask == _M_PASS and all(nib & 14 == bits for nib in arriving):
            return lambda done: done
        return lambda done: [r & mask | bits for r in done]
    return lambda done: [r & m | b for r in done for m, b in templates[r & 15]]


def _compile_routes(arch: SystemArchitecture) -> tuple[list[tuple], int]:
    """Per service, its routes as templates indexed by a request's low nibble
    ``(part << 1) | flag``: ``(kind, fixed, fanout, deltas, dsts)``, and the
    entry service's index.

    ``fixed`` pairs each destination that only fixed edges of the service
    feed with its emitter (see ``_emitter``). ``fanout`` holds,
    per nibble and in spec order, the ``(dst, mode, bits)`` of each edge into
    a destination that a fan-out of the service feeds, so that destination
    still gets its requests in completion order, then spec order. ``deltas``
    is, per nibble, the fixed emissions less the completed request; ``dsts``
    lists every destination; ``kind`` is one of the ``_K_*`` codes.
    """
    index = {s.name: i for i, s in enumerate(arch.services)}
    entry = arch.entry_service()
    if entry is None and arch.services:
        raise SimulationError("pipeline has no unique entry service")
    inbound: dict[str, set[int]] = {s.name: set() for s in arch.services}
    if entry is not None:
        inbound[entry].add(P_EMAIL)
    for e in arch.pipeline:
        inbound[e.dst].add(PART_KINDS.index(e.part))

    # Per (service, inbound part): (skip, dst, part << 1, mode) in spec order.
    specs: list[list[list[tuple]]] = [[[] for _ in PART_KINDS] for _ in arch.services]
    for e in arch.pipeline:
        q = PART_KINDS.index(e.part)
        skip = (_SKIP_INFECTED if e.when == "clean" else _SKIP_CLEAN if e.when == "infected"
                else _SKIP_NEVER)
        fired = False
        for p in sorted(inbound[e.src]):
            if q == P_REPORT:
                mode = _M_ONE
            elif q == p:
                mode = _M_PASS
            elif p == P_EMAIL and q in (P_HEADER, P_LINKS, P_TEXT):
                mode = _M_ONE
            elif p == P_EMAIL and q == P_ATTACHMENT:
                mode = _M_ATT_FANOUT
            elif p == P_TEXT and q == P_BLOCK:
                mode = _M_BLOCKS
            else:
                continue
            specs[index[e.src]][p].append((skip, index[e.dst], q << 1, mode))
            fired = True
        if not fired:
            raise SimulationError(
                f"pipeline edge {e.src} -> {e.dst} ({e.part}) matches no part "
                f"arriving at {e.src}")

    routes = []
    for svc, by_part in zip(arch.services, specs):
        edges = [spec for part_specs in by_part for spec in part_specs]
        dsts = sorted({dst for _, dst, _, _ in edges})
        fanned = {dst for _, dst, _, mode in edges if mode >= 0}
        # Per nibble, the (dst, mode, bits) of the edges that fire, in spec order.
        fires = [[(dst, mode, bits) for skip, dst, bits, mode in by_part[nib >> 1]
                  if skip != nib & 1] for nib in range(2 * len(PART_KINDS))]
        arriving = [p << 1 | flag for p in inbound[svc.name] for flag in (0, 1)]
        fixed = [(d, _emitter(tuple(tuple((mode, bits) for dst, mode, bits in f if dst == d)
                                    for f in fires), arriving))
                 for d in dsts if d not in fanned]
        fanout = tuple(tuple(spec for spec in f if spec[0] in fanned) for f in fires)
        deltas = [0] * len(fires)
        for nib in arriving:
            deltas[nib] = sum(mode < 0 for _, mode, _ in fires[nib]) - 1
        kind = (_K_FANOUT if fanned else _K_SINK if not dsts else _K_DELTA if any(deltas)
                else _K_RELAY)
        routes.append((kind, fixed, fanout, tuple(deltas), dsts))
    return routes, (index[entry] if entry is not None else -1)


def run_simulation(arch: SystemArchitecture, ladder: ScaleLadder, config: SimConfig) -> MetricsTimeline:
    """Execute the pipeline under the configured workload and policy."""
    report = validate_architecture(arch)
    if not report.ok:
        raise SimulationError(
            "architecture fails validation: " + "; ".join(str(v) for v in report))
    if len(ladder.base.counts) != len(arch.services):
        raise SimulationError("scale ladder does not match the architecture")

    table = build_capacity_table(arch)
    tps = config.ticks_per_second
    duration = config.duration
    period = config.params.monitoring_period
    names = tuple(s.name for s in arch.services)

    routes, entry_idx = _compile_routes(arch)
    if entry_idx < 0:
        raise SimulationError("cannot simulate an architecture without services")

    # Traffic, pre-generated for determinism and speed.
    ss = np.random.SeedSequence(config.seed)
    arr_seed, email_seed = ss.spawn(2)
    arrivals = generate_arrivals(config.workload, arr_seed, duration, tps, config.exact_arrivals)
    rates = rate_curve(config.workload, duration, tps)
    peak_rate = Fraction(str(float(np.max(rates)))) if duration else Fraction(0)
    total_emails = int(arrivals.sum())
    email_rng = np.random.Generator(np.random.PCG64(email_seed))
    batch = sample_email_batch(arch.profile, email_rng, total_emails)
    arrivals_l = arrivals.tolist()
    blocks_l = batch.blocks.tolist()
    atts_l = batch.attachments.tolist()
    masks_l = batch.virus_masks.tolist()

    # Deployment state.
    registry = DeploymentRegistry(arch)
    svc_states = [
        _ServiceState(i, s.name, s.cores_required, config.queue_capacity)
        for i, s in enumerate(arch.services)
    ]
    for st, entry, base_n in zip(svc_states, table.entries, ladder.base.counts):
        st.mcl = entry.mcl
        st.base_n = base_n

    timeline = MetricsTimeline(ticks_per_second=tps, service_names=names)

    unit_costs: dict[tuple[str, Fraction], float] = {}

    # Ready-capacity tracking (for time-to-target and the capacity column).
    ready_counts = [0] * len(svc_states)
    ready_events: dict[int, list[int]] = {}  # tick -> service index per instance
    capacity_now = Fraction(0)
    tick = 0
    ticks_to_target: Optional[int] = None

    def recompute_capacity() -> None:
        nonlocal capacity_now, ticks_to_target
        cap = system_mcl(Configuration(tuple(ready_counts)), table)
        capacity_now = Fraction(10 ** 9) if is_infinite(cap) else Fraction(cap)
        if ticks_to_target is None and capacity_now >= peak_rate:
            ticks_to_target = tick

    def schedule_ready(insts: list[InstanceRuntime], at: int) -> None:
        if at <= tick:  # zero startup: the event queue for this tick already ran
            for inst in insts:
                ready_counts[inst.service_idx] += 1
            recompute_capacity()
        else:
            ready_events.setdefault(at, []).extend(inst.service_idx for inst in insts)

    def launch(placement: Placement, orch: TimedOrchestration, ready_at: int) -> list[InstanceRuntime]:
        """Record an applied deployment and start its instances at ``ready_at``."""
        timeline.orchestrations.append(orch)
        timeline.total_vm_cost += placement.total_cost
        insts = []
        for iid in orch.created_instance_ids():
            rec = registry.instances[iid]
            st = svc_states[arch.service_index(rec.service)]
            spc = registry.vms[rec.vm_id].vm_type.speed_per_core
            key = (rec.service, spc)
            if key not in unit_costs:
                unit_costs[key] = float(request_cost(arch.service(rec.service), spc, tps, st.mcl))
            inst = InstanceRuntime(iid, st.idx, ready_at, budget=float(spc * st.cores),
                                   unit_cost=unit_costs[key])
            st.insts.append(inst)
            st.active_order.append(inst)
            st.committed += 1
            insts.append(inst)
        schedule_ready(insts, ready_at)
        return insts

    # Base deployment: must be placeable, live from tick 0.
    try:
        base_placement = plan_placement(_delta_dict(names, ladder.base.counts), arch, arch.vm_catalog)
        base_orch = synthesize_orchestration(base_placement, arch, registry)
        registry.apply(base_orch)
    except Exception as exc:
        raise SimulationError(f"infeasible initial base deployment: {exc}") from exc
    launch(base_placement, base_orch, 0)

    placements: dict[tuple[int, ...], Placement] = {}  # delta counts -> placement

    def deploy(counts: tuple[int, ...], now: int) -> _Unit:
        """Place (once per distinct delta), synthesize and apply a delta."""
        placement = placements.get(counts)
        if placement is None:
            placement = placements[counts] = plan_placement(
                _delta_dict(names, counts), arch, arch.vm_catalog)
        orch = synthesize_orchestration(placement, arch, registry)
        registry.apply(orch)
        ready_at = now + orch.startup_ticks
        return _Unit(ready_at, orch, launch(placement, orch, ready_at))

    def retire(removal: TimedOrchestration, victims: list[InstanceRuntime], now: int) -> None:
        """Apply ``removal`` and drain ``victims``: each finishes its current
        request, then leaves the engine."""
        registry.apply(removal)
        timeline.orchestrations.append(removal)
        for inst in victims:
            st = svc_states[inst.service_idx]
            inst.draining = True
            st.draining_count += 1
            st.committed -= 1
            st.active_order.remove(inst)
            if now >= inst.ready_at:
                ready_counts[st.idx] -= 1
        recompute_capacity()

    def warming(units: list[_Unit], now: int) -> bool:
        return any(u.ready_tick > now for u in units)

    # Policy state.
    window_s = Fraction(period, tps)
    deployed_deltas = [0] * ladder.num_scales
    committed_mcl = system_mcl(ladder.base, table)
    delta_units: list[list[_Unit]] = [[] for _ in range(ladder.num_scales)]  # stacks per index
    local_units: list[list[_Unit]] = [[] for _ in svc_states]
    window_generated = 0
    finite_services = [st for st in svc_states if not is_infinite(st.mcl)]

    def fmt_deltas(vec) -> str:
        return "|".join(str(v) for v in vec)

    def global_monitor(now: int) -> None:
        nonlocal committed_mcl, window_generated
        inbound = Fraction(window_generated) / window_s
        window_generated = 0
        trig = scaling_trigger(inbound, committed_mcl, config.params)
        if trig is Trigger.NONE:
            return
        _, target, _ = select_global_configuration(inbound, config.params, ladder, table)
        plan = diff_reconfiguration(tuple(deployed_deltas), target)
        if not len(plan):
            return
        old = fmt_deltas(deployed_deltas)
        enacted = 0
        deferred = 0
        for step in plan:
            units = delta_units[step.delta_index]
            if step.deploy:
                units.append(deploy(ladder.deltas[step.delta_index].counts, now))
                deployed_deltas[step.delta_index] += 1
            elif warming(units, now):
                deferred += 1
                continue
            else:
                unit = units.pop()
                retire(synthesize_undeployment(unit.orch), unit.insts, now)
                deployed_deltas[step.delta_index] -= 1
            enacted += 1
        committed_mcl = system_mcl(ladder.configuration_for(tuple(deployed_deltas)), table)
        if enacted:
            timeline.events.append(ScalingEvent(
                now, Policy.GLOBAL, "system", trig.value, "deploy" if trig is Trigger.UP else "undeploy",
                f"{old}->{fmt_deltas(deployed_deltas)}"))
        if deferred:
            timeline.events.append(ScalingEvent(
                now, Policy.GLOBAL, "system", trig.value, "defer",
                f"{deferred} undeploys while warming"))

    def local_monitor(now: int) -> None:
        for st in finite_services:
            inbound = Fraction(st.balancer.offered) / window_s
            st.balancer.offered = 0
            total = Fraction(st.mcl) * st.committed
            trig = scaling_trigger(inbound, total, config.params)
            if trig is Trigger.NONE:
                continue
            target = local_target_instances(inbound, config.params, st.mcl, st.base_n, st.committed)
            old = st.committed
            if target > old:
                counts = [0] * len(svc_states)
                counts[st.idx] = target - old
                local_units[st.idx].append(deploy(tuple(counts), now))
                action = "deploy"
            elif target < old:
                if warming(local_units[st.idx], now):
                    timeline.events.append(ScalingEvent(
                        now, Policy.LOCAL, st.name, trig.value, "defer",
                        f"hold {old} while warming"))
                    continue
                victims = st.active_order[::-1][:old - target]  # newest first
                retire(synthesize_removal([v.iid for v in victims], arch, registry), victims, now)
                action = "undeploy"
            else:
                continue
            timeline.events.append(ScalingEvent(
                now, Policy.LOCAL, st.name, trig.value, action, f"{old}->{st.committed}"))

    # Email bookkeeping, by email id: requests in flight, arrival tick, lost.
    outstanding = [0] * total_emails
    born = [0] * total_emails
    lost = bytearray(total_emails)
    next_email = 0

    # Interval accumulators.
    iv_generated = 0
    iv_completed = 0
    iv_lost = 0
    iv_dropped = 0
    iv_latency_ticks = 0
    interval_start_tick = 0

    entry_state = svc_states[entry_idx]
    is_global = config.policy == Policy.GLOBAL
    # One emission batch per destination service; the routes append to it
    # directly, and each service's outlets are the (batch, dispatch) pairs
    # of the destinations its routes reach.
    batches: list[list[int]] = [[] for _ in svc_states]
    routes = [(kind, [(batches[d], emit) for d, emit in fixed],
               tuple(tuple((batches[d], mode, bits) for d, mode, bits in f) for f in fanout),
               deltas, [(batches[d], svc_states[d].balancer.dispatch) for d in dsts])
              for kind, fixed, fanout, deltas, dsts in routes]

    for tick in range(duration):
        # Ready events from finished startups.
        due = ready_events.pop(tick, None)
        if due:
            for svc_idx in due:
                ready_counts[svc_idx] += 1
            recompute_capacity()

        # 1. Workload arrivals.
        n_arr = arrivals_l[tick]
        if n_arr:
            first = next_email
            next_email += n_arr
            # Part EMAIL, flag 0; an email whose request is dropped is lost.
            accepted = entry_state.balancer.dispatch(
                [eid << 4 for eid in range(first, next_email)])
            outstanding[first:first + accepted] = [1] * accepted
            born[first:first + accepted] = [tick] * accepted
            n_drop = n_arr - accepted
            if n_drop:
                iv_dropped += n_drop
                iv_lost += n_drop
            iv_generated += n_arr
            window_generated += n_arr

        # 2. Processing, in declaration order. The emissions of a service's
        # completions go to their destinations' batches, and an email
        # settles when nothing of it is left in flight. Each batch is then
        # admitted in one call, before the next service pops its queue and
        # so changes its room, and the emails of the dropped tail are lost.
        for st in svc_states:
            insts = st.insts
            if not insts:
                continue
            done = process_tick(insts, st.balancer.ready, tick)
            if not done:
                continue
            kind, fixed, fanout, deltas, outlets = routes[st.idx]
            for out, emit in fixed:
                out += emit(done)
            if kind == _K_SINK:
                for r in done:
                    eid = r >> 4
                    left = outstanding[eid] - 1
                    outstanding[eid] = left
                    if not left and not lost[eid]:
                        iv_latency_ticks += tick - born[eid]
                        iv_completed += 1
            elif kind == _K_DELTA:
                for r in done:
                    delta = deltas[r & 15]
                    if delta:
                        eid = r >> 4
                        left = outstanding[eid] + delta
                        outstanding[eid] = left
                        if not left and not lost[eid]:
                            iv_latency_ticks += tick - born[eid]
                            iv_completed += 1
            elif kind == _K_FANOUT:
                for r in done:
                    eid = r >> 4
                    nib = r & 15
                    left = outstanding[eid] + deltas[nib]
                    for out, mode, bits in fanout[nib]:
                        if mode < 0:
                            out.append(r & mode | bits)
                        elif mode == _M_BLOCKS:
                            n = blocks_l[eid]
                            out += (r & -16 | bits,) * n
                            left += n
                        else:  # _M_ATT_FANOUT
                            mask = masks_l[eid]
                            base_req = r & -16 | bits
                            n = atts_l[eid]
                            out += [base_req | ((mask >> j) & 1) for j in range(n)]
                            left += n
                    outstanding[eid] = left
                    if not left and not lost[eid]:
                        iv_latency_ticks += tick - born[eid]
                        iv_completed += 1
            for out, dispatch in outlets:
                if out:
                    accepted = dispatch(out)
                    if accepted < len(out):
                        iv_dropped += len(out) - accepted
                        # A lost email's outstanding count is never read
                        # again (it cannot settle and is not in flight at
                        # the end), so a dropped request leaves it as is.
                        for r in out[accepted:]:
                            eid = r >> 4
                            if not lost[eid]:
                                lost[eid] = 1
                                iv_lost += 1
                    out.clear()

        # 3. Monitors.
        if (tick + 1) % period == 0:
            if is_global:
                global_monitor(tick)
            else:
                local_monitor(tick)

        # 4. Retire drained instances.
        for st in svc_states:
            if st.draining_count:
                keep = []
                for inst in st.insts:
                    if inst.draining and inst.cur_req < 0:
                        st.draining_count -= 1
                    else:
                        keep.append(inst)
                st.insts = keep

        # 5. Promote queues.
        for st in svc_states:
            st.balancer.promote()

        # 6. Interval rollup.
        if (tick + 1) % tps == 0 or tick + 1 == duration:
            start_s = interval_start_tick // tps
            span_s = (tick + 1 - interval_start_tick) / tps
            interval_start_tick = tick + 1
            counts = tuple(st.committed for st in svc_states)
            timeline.rows.append(IntervalRow(
                t_s=start_s,
                inbound_eps=iv_generated / span_s,
                generated=iv_generated,
                completed=iv_completed,
                lost_emails=iv_lost,
                dropped_requests=iv_dropped,
                latency_ticks=iv_latency_ticks,
                capacity_eps=float(capacity_now),
                total_instances=sum(counts),
                vm_cost_total=float(timeline.total_vm_cost),
                deployed_deltas=fmt_deltas(deployed_deltas) if is_global else "",
                service_counts=counts,
            ))
            iv_generated = iv_completed = iv_lost = iv_dropped = iv_latency_ticks = 0

    timeline.in_flight_end = sum(1 for n, gone in zip(outstanding, lost) if n and not gone)
    timeline.ticks_to_target = ticks_to_target
    return timeline

