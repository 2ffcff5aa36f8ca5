"""Closed-loop control-plane decisions, one at a time, with output checks.

A decision answers one monitoring window for one scope:

- global: ``scaling_trigger`` -> ``select_global_configuration`` ->
  ``diff_reconfiguration`` -> per delta ``plan_placement`` (once per delta
  index) / ``synthesize_orchestration`` / ``DeploymentRegistry.apply``, or
  ``synthesize_undeployment`` / ``apply``;
- local: one finite service's ``scaling_trigger`` ->
  ``local_target_instances`` -> a single-service placement (once per
  service and count) and its orchestration, or a removal;
- placement: one ``plan_placement`` on a randomized catalog.

The global and local deciders follow the simulator's global and local
monitors; the docstrings of ``global_decider`` and ``local_decider`` name
where they differ. Program calls go through module attributes, so a traced
run sees them. A decision's latency is the host time of its calls into
``scaler`` and ``planner``, as the simulation workloads time the monitors'
decisions; capacity bookkeeping and the checks between calls are not timed.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from archscale import capacity, planner, scaler
from archscale.document import parse_architecture_data
from archscale.scaler import Trigger

from .measure import Calibration, Tally

WINDOW_S = 10
TICKS_PER_S = 30  # the simulator's default; a deploy warms up for its startup ticks


class Clock:
    """Sums the host time of the program calls made through it."""

    def __init__(self):
        self.ns = 0

    def __call__(self, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.ns += time.perf_counter_ns() - start


@dataclass
class Context:
    arch: object
    table: object
    ladder: object
    params: scaler.ScalerParams
    deltas: list[dict] = field(init=False)
    base: dict = field(init=False)
    finite: list[tuple] = field(init=False)  # (name, mcl, mf, base count)

    def __post_init__(self):
        names = [s.name for s in self.arch.services]
        counts = lambda conf: {n: c for n, c in zip(names, conf.counts) if c > 0}  # noqa: E731
        self.deltas = [counts(d) for d in self.ladder.deltas]
        self.base = counts(self.ladder.base)
        self.finite = [(e.name, e.mcl, e.mf, n)
                       for e, n in zip(self.table.entries, self.ladder.base.counts)
                       if not capacity.is_infinite(e.mcl)]


@dataclass
class DecisionLog:
    """Latencies and outcomes of the decisions made so far."""

    latencies_ns: array = field(default_factory=lambda: array("q"))
    scopes: list[str] = field(default_factory=list)  # each decision's: global / local / placement
    window_emails: int = 0  # emails the decided windows stand for, summed over policies
    enacted: int = 0  # decisions that deployed or removed something
    vms_acquired: int = 0
    undeploys: int = 0  # global undeploys, each checked to remove exactly its own deploy
    hash_checked: int = 0  # of those, the ones also checked against the state hash
    outcomes: object = field(default_factory=hashlib.sha256)  # digest of every outcome
    calibration: Calibration | None = None  # sampled between decisions, untimed

    def add(self, scope: str, clock: Clock, outcome: str) -> None:
        self.latencies_ns.append(clock.ns)
        self.scopes.append(scope)
        self.outcomes.update(outcome.encode())
        if self.calibration is not None:
            self.calibration.tick()

    def scope_seconds(self, latencies_ns) -> Counter:
        """Seconds per scope, summed over per-decision latencies in the
        order this log's decisions were made."""
        out = Counter()
        for scope, ns in zip(self.scopes, latencies_ns, strict=True):
            out[scope] += int(ns) / 1e9
        return out


def placement_problems(placement, arch, delta: dict) -> list[str]:
    """Every requested instance placed once, and every VM holds its load."""
    problems = []
    placed = Counter()
    types = {idx: vm_type for vm_type, idx in placement.acquired_vms}
    for idx, names in placement.assignments:
        cores = sum(arch.service(n).cores_required for n in names)
        memory = sum(arch.service(n).memory_required for n in names)
        vm_type = types[idx]
        if cores > vm_type.cores or memory > vm_type.memory:
            problems.append(f"vm {idx} ({vm_type.name}) holds {cores} cores / {memory} MB")
        placed.update(names)
    if placed != Counter({n: c for n, c in delta.items() if c > 0}):
        problems.append(f"placed {dict(placed)} for delta {delta}")
    return problems


class Placements:
    """Placements planned once per key and then reused, as the simulator
    caches them within a run."""

    def __init__(self, arch):
        self.arch = arch
        self.cache: dict = {}

    def get(self, key, delta: dict, clock: Clock, problems: list[str]):
        if key not in self.cache:
            placement = clock(planner.plan_placement, delta, self.arch, self.arch.vm_catalog)
            problems += placement_problems(placement, self.arch, delta)
            self.cache[key] = placement
        return self.cache[key]


def _deploy(ctx: Context, registry, placement, clock: Clock, log: DecisionLog,
            problems: list[str]):
    orch = clock(planner.synthesize_orchestration, placement, ctx.arch, registry)
    clock(registry.apply, orch)
    log.vms_acquired += len(orch.acquired_vm_ids())
    problems += planner.validate_orchestration_timing(orch, ctx.arch)
    return orch


def _base_registry(ctx: Context):
    registry = planner.DeploymentRegistry(ctx.arch)
    placement = planner.plan_placement(ctx.base, ctx.arch, ctx.arch.vm_catalog)
    orch = planner.synthesize_orchestration(placement, ctx.arch, registry)
    registry.apply(orch)
    return registry, orch


@dataclass(eq=False)
class Unit:
    """One enacted global delta: its orchestration, the tick its instances
    are ready, and the state hash just before its deploy while no change
    made before the deploy has been undone since."""

    orch: object
    ready_at: int
    before: str | None


def _undo_problems(registry, unit: Unit, live: list[Unit], held: tuple,
                   log: DecisionLog) -> list[str]:
    """An undeploy removes exactly its unit's instances and VMs. If it
    undoes the newest unit still in place, and ``before`` still applies,
    it must restore the state hash from just before that unit's deploy."""
    instances, vms = held
    problems = []
    if set(registry.instances) != instances - set(unit.orch.created_instance_ids()) or \
            set(registry.vms) != vms - set(unit.orch.acquired_vm_ids()):
        problems.append("undeploy did not remove exactly its own instances and VMs")
    index = live.index(unit)
    log.undeploys += 1
    if unit.before is not None and index == len(live) - 1:
        log.hash_checked += 1
        if registry.state_hash() != unit.before:
            problems.append("undeploy left a different state than before its deploy")
    for later in live[index + 1:]:
        later.before = None  # the state before them held this unit
    del live[index]
    return problems


def global_decider(ctx: Context, log: DecisionLog):
    """Returns the global policy's decision for the window ending at tick ``now``.

    As the simulator's global monitor: a placement is planned once per delta
    index and reused, and an undeploy of an index with a deploy still
    warming up is deferred. Unlike the monitor, a decision runs its undeploy
    steps last index first. That leaves the same deployed deltas, but
    undoes the newest deploy first, so most undeploys can be checked
    against the state hash before their deploy.
    """
    registry, _ = _base_registry(ctx)
    num = ctx.ladder.num_scales
    deployed = [0] * num
    units: list[list[Unit]] = [[] for _ in range(num)]  # per delta index, oldest first
    live: list[Unit] = []  # every unit still in place, oldest first
    placements = Placements(ctx.arch)
    committed = capacity.system_mcl(ctx.ladder.base, ctx.table)

    def decide(emails: int, now: int) -> list[str]:
        nonlocal committed
        clock = Clock()
        problems: list[str] = []
        inbound = Fraction(emails, WINDOW_S)
        trig = clock(scaler.scaling_trigger, inbound, committed, ctx.params)
        if trig is not Trigger.NONE:
            _, target, _ = clock(scaler.select_global_configuration,
                                 inbound, ctx.params, ctx.ladder, ctx.table)
            plan = clock(scaler.diff_reconfiguration, tuple(deployed), target)
            if not scaler.delta_vector_is_canonical(target):
                return [f"non-canonical target {target}"]
            expected = Counter({(i, want > have): abs(want - have)
                                for i, (have, want) in enumerate(zip(deployed, target))})
            if Counter((s.delta_index, s.deploy) for s in plan) != +expected:
                return [f"plan {plan} does not move {deployed} to {target}"]
            enacted = False
            steps = list(plan)
            for step in [s for s in steps if s.deploy] + [s for s in steps[::-1] if not s.deploy]:
                i = step.delta_index
                if step.deploy:
                    before = registry.state_hash()
                    placement = placements.get(i, ctx.deltas[i], clock, problems)
                    orch = _deploy(ctx, registry, placement, clock, log, problems)
                    units[i].append(Unit(orch, now + orch.startup_ticks, before))
                    live.append(units[i][-1])
                    deployed[i] += 1
                elif any(u.ready_at > now for u in units[i]):
                    continue
                else:
                    unit = units[i].pop()
                    held = (set(registry.instances), set(registry.vms))
                    undo = clock(planner.synthesize_undeployment, unit.orch)
                    clock(registry.apply, undo)
                    problems += _undo_problems(registry, unit, live, held, log)
                    deployed[i] -= 1
                enacted = True
            log.enacted += enacted
            if plan:
                committed = capacity.system_mcl(ctx.ladder.configuration_for(tuple(deployed)),
                                                ctx.table)
        log.add("global", clock, f"g{trig.value}{deployed};")
        return problems

    return decide


def local_decider(ctx: Context, log: DecisionLog):
    """Returns the local policy's decision for one finite service, its
    inbound rate and the window ending at tick ``now``.

    As the simulator's local monitor: a placement is planned once per
    service and instance count and reused, a scale-down while a deploy of
    the service is still warming up is deferred, and a removal takes the
    service's newest instances, newest first.
    """
    registry, base_orch = _base_registry(ctx)
    committed = {name: n for name, _, _, n in ctx.finite}
    active: dict[str, list[str]] = {name: [] for name in committed}  # oldest first
    ready_at: dict[str, list[int]] = {name: [] for name in committed}
    placements = Placements(ctx.arch)
    for iid in base_orch.created_instance_ids():
        service = registry.instances[iid].service
        if service in active:
            active[service].append(iid)

    def decide(name, mcl, base_n, inbound, now: int) -> list[str]:
        clock = Clock()
        problems: list[str] = []
        have = committed[name]
        trig = clock(scaler.scaling_trigger, inbound, Fraction(mcl) * have, ctx.params)
        target = have
        if trig is not Trigger.NONE:
            target = clock(scaler.local_target_instances, inbound, ctx.params, mcl, base_n, have)
            if target > have:
                add = target - have
                placement = placements.get((name, add), {name: add}, clock, problems)
                orch = _deploy(ctx, registry, placement, clock, log, problems)
                active[name].extend(orch.created_instance_ids())
                ready_at[name].append(now + orch.startup_ticks)
            elif target < have and any(t > now for t in ready_at[name]):
                target = have
            elif target < have:
                victims = active[name][target - have:][::-1]
                del active[name][target - have:]
                removal = clock(planner.synthesize_removal, victims, ctx.arch, registry)
                clock(registry.apply, removal)
                if any(v in registry.instances for v in victims):
                    problems.append(f"removal left instances of {name} in place")
            if target != have:
                log.enacted += 1
                held = registry.counts()[name]
                if held != target:
                    problems.append(f"{name}: registry holds {held}, decided {target}")
            committed[name] = target
        log.add("local", clock, f"l{name}{target};")
        return problems

    return decide


def run_windows(ctx: Context, windows: list[int], log: DecisionLog, tally: Tally) -> None:
    """Both policies decide every window in turn, as their monitors would:
    the global decision, then one local decision per finite service."""
    decide_global = global_decider(ctx, log)
    decide_local = local_decider(ctx, log)
    for w, emails in enumerate(windows):
        now = (w + 1) * WINDOW_S * TICKS_PER_S - 1  # the tick the simulator's monitor runs at
        log.window_emails += 2 * emails
        tally.run(f"global window {w}", lambda: decide_global(emails, now))
        inbound = Fraction(emails, WINDOW_S)
        for name, mcl, mf, base_n in ctx.finite:
            tally.run(f"local window {w} {name}",
                      lambda: decide_local(name, mcl, base_n, inbound * mf, now))


def run_placements(instances: list[tuple[object, dict]], log: DecisionLog, tally: Tally) -> None:
    for k, (arch, delta) in enumerate(instances):
        def decide() -> list[str]:
            clock = Clock()
            placement = clock(planner.plan_placement, delta, arch, arch.vm_catalog)
            log.add("placement", clock, f"p{placement.total_cost};")
            return placement_problems(placement, arch, delta)
        tally.run(f"placement {k}", decide)


def rate_walk(rng: random.Random, windows: int, mean: float, sd: float,
              reversion: float, low: float, high: float) -> list[int]:
    """Emails per monitoring window along a mean-reverting Gaussian rate walk.

    Each window keeps ``reversion`` of the last one's distance from the mean
    and adds noise sized so that the stationary spread is ``sd``; the rate
    reflects off ``low`` and ``high``. Being stationary, a long walk costs
    about the same to decide on every seed.
    """
    step = sd * (1 - reversion * reversion) ** 0.5
    rate = mean
    out = []
    for _ in range(windows):
        rate = mean + reversion * (rate - mean) + rng.gauss(0.0, step)
        if rate < low:
            rate = 2 * low - rate
        if rate > high:
            rate = 2 * high - rate
        out.append(round(rate * WINDOW_S))
    return out


def random_placements(rng: random.Random, count: int) -> list[tuple[object, dict]]:
    """Criterion-4-style instances: up to 4 VM types, up to 6 services and
    up to 10 instances, every requested service placeable."""
    out = []
    while len(out) < count:
        catalog = [{"name": f"vm{t}", "cores": rng.randint(2, 12),
                    "memory": rng.choice([2000, 6000, 16000]),
                    "speed_per_core": 5, "startup_time": 10,
                    "cost": round(rng.uniform(0.5, 8.0), 2)}
                   for t in range(rng.randint(1, 4))]
        services = [{"name": f"S{i}", "cost": {"Cores": rng.randint(1, 6),
                                               "Memory": rng.choice([100, 500, 1500])}}
                    for i in range(rng.randint(1, 6))]
        arch = parse_architecture_data({"services": services, "vm_catalog": catalog,
                                        "profile": {}, "pipeline": []})
        delta = {}
        total = 0
        for s in arch.services:
            c = rng.randint(0, min(3, 10 - total))
            total += c
            if c:
                delta[s.name] = c
        placeable = all(any(vm.cores >= arch.service(n).cores_required
                            and vm.memory >= arch.service(n).memory_required
                            for vm in arch.vm_catalog) for n in delta)
        if delta and placeable:
            out.append((arch, delta))
    return out
