"""Optimal VM placement and timed deployment orchestrations.

``plan_placement`` solves the packing problem exactly: pick a multiset of
VM types of minimum total acquisition cost (ties: fewer VMs, then the
lexicographically smallest type-name sequence) such that the requested
instances fit core- and memory-wise.  Instances pack only into newly
acquired VMs, so undeploying an increment releases exactly its own VMs.
The search orders and prunes integer costs: each call scales the catalog's
costs by the lcm D of their denominators, and the placement's total cost is
the winning sum over D.

``synthesize_orchestration`` turns a placement into an ordered action
program: acquire VMs, set the overall startup to the slowest acquired VM,
create instances in strong-dependency order, establish weak bindings, and
finally decrement each VM's speed so unused cores contribute nothing.
The creation order (``SystemArchitecture.strong_order``) and the by-name
lookups are derived once per architecture.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .capacity import ratio
from .model import SystemArchitecture, VMType, strong_cycle


class PlacementError(ValueError):
    """The requested instances cannot be placed on any VM combination."""


class SynthesisError(ValueError):
    """No valid orchestration exists for the placement."""


class OrchestrationError(ValueError):
    """An action sequence is inconsistent with the registry state."""


# ---------------------------------------------------------------------------
# Placement


@dataclass(frozen=True)
class Placement:
    """A costed assignment of requested instances onto fresh VMs."""

    acquired_vms: tuple[tuple[VMType, int], ...]  # (type, local vm index)
    assignments: tuple[tuple[int, tuple[str, ...]], ...]  # local vm index -> service names
    total_cost: Fraction

    def services_on(self, vm_index: int) -> tuple[str, ...]:
        for idx, services in self.assignments:
            if idx == vm_index:
                return services
        return ()


def _ffd_upper_bound(items: list[tuple[int, int]], catalog: list[VMType], costs: list[int]) -> int:
    """Cost, in the units of ``costs``, of a greedy first-fit-decreasing
    packing (feasibility is known)."""
    bins: list[list[int]] = []  # [remaining cores, remaining memory, type index]
    cost = 0
    by_cost = sorted(range(len(catalog)), key=lambda i: (costs[i], catalog[i].name))
    for cores, mem in items:
        for b in bins:
            if b[0] >= cores and b[1] >= mem:
                b[0] -= cores
                b[1] -= mem
                break
        else:
            for ti in by_cost:
                vm = catalog[ti]
                if vm.cores >= cores and vm.memory >= mem:
                    bins.append([vm.cores - cores, vm.memory - mem, ti])
                    cost += costs[ti]
                    break
    return cost


def _pack_exact(items: list[tuple[int, int]], bins: list[tuple[int, int]]) -> list[int] | None:
    """Assign every item to a bin within capacity, or None.

    Deterministic backtracking over items sorted large-first, with
    memoization on the multiset of remaining bin capacities.
    """
    order = sorted(range(len(items)), key=lambda i: (-items[i][0], -items[i][1], i))
    remaining = [[c, m] for c, m in bins]
    assignment = [-1] * len(items)
    failed: set[tuple] = set()

    def key(depth: int) -> tuple:
        return (depth, tuple(sorted((c, m) for c, m in remaining)))

    def go(depth: int) -> bool:
        if depth == len(order):
            return True
        state = key(depth)
        if state in failed:
            return False
        item = order[depth]
        cores, mem = items[item]
        tried: set[tuple[int, int]] = set()
        for b, (rc, rm) in enumerate(remaining):
            if rc < cores or rm < mem or (rc, rm) in tried:
                continue
            tried.add((rc, rm))
            remaining[b][0] -= cores
            remaining[b][1] -= mem
            assignment[item] = b
            if go(depth + 1):
                return True
            remaining[b][0] += cores
            remaining[b][1] += mem
            assignment[item] = -1
        failed.add(state)
        return False

    return assignment if go(0) else None


def plan_placement(
    delta: Mapping[str, int],
    arch: SystemArchitecture,
    catalog: Sequence[VMType],
) -> Placement:
    """Find the cheapest set of fresh VMs hosting ``delta`` instances.

    Exact search: VM-type multisets are explored in (cost, count,
    lexicographic names) order, seeded with a first-fit-decreasing upper
    bound, and the first multiset that admits an exact packing wins.
    """
    for name, count in delta.items():
        try:
            arch.service_index(name)
        except KeyError:
            raise PlacementError(f"unknown service {name!r} in delta") from None
        if count < 0:
            raise PlacementError(f"negative instance count for {name!r}")
    ordered = [(s.name, delta[s.name]) for s in arch.services if delta.get(s.name, 0) > 0]
    if not ordered:
        raise PlacementError("delta requests no instances")
    if not catalog:
        raise PlacementError("empty VM catalog")

    items: list[tuple[int, int]] = []
    item_services: list[str] = []
    for name, count in ordered:
        svc = arch.service(name)
        for _ in range(count):
            items.append((svc.cores_required, svc.memory_required))
            item_services.append(name)

    for (cores, mem), name in zip(items, item_services):
        if not any(vm.cores >= cores and vm.memory >= mem for vm in catalog):
            raise PlacementError(
                f"service {name!r} needs {cores} cores / {mem} MB "
                "but no VM type provides that much")

    n_items = len(items)
    need_cores = sum(c for c, _ in items)
    need_mem = sum(m for _, m in items)
    types = list(catalog)
    # Costs in units of 1/D, D the lcm of the catalog's cost denominators:
    # integers that order, sum and compare as the costs do.
    pairs = [ratio(vm.cost) for vm in types]
    unit = math.lcm(*(d for _, d in pairs))
    costs = [n * (unit // d) for n, d in pairs]
    ub = _ffd_upper_bound(items, types, costs)
    # The least cost per core, p / q, prunes a multiset whose cost plus
    # p / q per missing core exceeds the upper bound; times q, in integers.
    least = min(Fraction(c, vm.cores) for c, vm in zip(costs, types))
    p, q = least.numerator, least.denominator
    ub_q = ub * q

    # Best-first search over VM-type multisets, canonicalized by only adding
    # types with index >= the largest index already present, so each
    # multiset has one parent and is pushed at most once. It returns by
    # the time it pops the multiset of the first-fit-decreasing packing,
    # which the search reaches: that multiset holds at most one VM per
    # instance, and no prefix of it, in canonical order, is pruned, as the
    # rest of it costs at least p / q per core and covers the missing cores.
    # Being a packing, it passes the exact check. So the heap never empties.
    heap: list[tuple[int, int, tuple[str, ...], tuple[int, ...], int]] = [
        (0, 0, (), tuple(0 for _ in types), 0)
    ]
    while True:
        cost, nvms, names, counts, min_type = heapq.heappop(heap)
        total_cores = sum(k * vm.cores for k, vm in zip(counts, types))
        total_mem = sum(k * vm.memory for k, vm in zip(counts, types))
        if nvms and total_cores >= need_cores and total_mem >= need_mem:
            bins: list[tuple[int, int]] = []
            bin_types: list[int] = []
            for ti, k in enumerate(counts):
                for _ in range(k):
                    bins.append((types[ti].cores, types[ti].memory))
                    bin_types.append(ti)
            assignment = _pack_exact(items, bins)
            if assignment is not None:
                acquired = tuple((types[ti], vi) for vi, ti in enumerate(bin_types))
                per_vm: list[list[str]] = [[] for _ in bins]
                for item_idx, b in enumerate(assignment):
                    per_vm[b].append(item_services[item_idx])
                # A VM's services in the order of their first declaration.
                assigns = tuple((vi, tuple(sorted(names_, key=arch.service_index)))
                                for vi, names_ in enumerate(per_vm))
                return Placement(acquired_vms=acquired, assignments=assigns,
                                 total_cost=Fraction(cost, unit))
        if nvms >= n_items:
            continue
        deficit = max(0, need_cores - total_cores)
        for ti in range(min_type, len(types)):
            child = list(counts)
            child[ti] += 1
            child_cost = cost + costs[ti]
            remaining = max(0, deficit - types[ti].cores)
            if child_cost * q + remaining * p > ub_q:
                continue
            heapq.heappush(heap, (
                child_cost, nvms + 1, tuple(sorted(names + (types[ti].name,))), tuple(child), ti))


# ---------------------------------------------------------------------------
# Orchestration actions


@dataclass(frozen=True)
class AcquireVM:
    vm_id: str
    vm_type: str


@dataclass(frozen=True)
class SetOverallStartup:
    ticks: int


@dataclass(frozen=True)
class CreateInstance:
    instance_id: str
    service: str
    vm_id: str
    strong_bindings: tuple[tuple[str, str], ...] = ()  # (port service, provider id)


@dataclass(frozen=True)
class BindWeak:
    consumer_id: str
    provider_id: str
    port: str


@dataclass(frozen=True)
class DecrementSpeed:
    vm_id: str
    amount: Fraction


@dataclass(frozen=True)
class UnbindWeak:
    consumer_id: str
    provider_id: str
    port: str


@dataclass(frozen=True)
class DestroyInstance:
    instance_id: str


@dataclass(frozen=True)
class ReleaseVM:
    vm_id: str


Action = Union[AcquireVM, SetOverallStartup, CreateInstance, BindWeak,
               DecrementSpeed, UnbindWeak, DestroyInstance, ReleaseVM]


@dataclass(frozen=True)
class TimedOrchestration:
    actions: tuple[Action, ...]

    @property
    def startup_ticks(self) -> int:
        for act in self.actions:
            if isinstance(act, SetOverallStartup):
                return act.ticks
        return 0

    def created_instance_ids(self) -> tuple[str, ...]:
        return tuple(a.instance_id for a in self.actions if isinstance(a, CreateInstance))

    def acquired_vm_ids(self) -> tuple[str, ...]:
        return tuple(a.vm_id for a in self.actions if isinstance(a, AcquireVM))


def orchestration_to_script(orch: TimedOrchestration) -> str:
    """Line-oriented rendering, one action per line."""
    lines = []
    for act in orch.actions:
        if isinstance(act, AcquireVM):
            lines.append(f"acquire {act.vm_id} {act.vm_type}")
        elif isinstance(act, SetOverallStartup):
            lines.append(f"set-startup {act.ticks}")
        elif isinstance(act, CreateInstance):
            binds = ", ".join(f"{port}={pid}" for port, pid in act.strong_bindings)
            lines.append(f"create {act.instance_id} {act.service} on {act.vm_id} strong [{binds}]")
        elif isinstance(act, BindWeak):
            lines.append(f"bind-weak {act.consumer_id} -> {act.provider_id} : {act.port}")
        elif isinstance(act, DecrementSpeed):
            lines.append(f"decrement-speed {act.vm_id} {act.amount}")
        elif isinstance(act, UnbindWeak):
            lines.append(f"unbind-weak {act.consumer_id} -> {act.provider_id} : {act.port}")
        elif isinstance(act, DestroyInstance):
            lines.append(f"destroy {act.instance_id}")
        elif isinstance(act, ReleaseVM):
            lines.append(f"release {act.vm_id}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deployment registry


@dataclass
class VMState:
    vm_id: str
    vm_type: VMType
    speed: Fraction  # current effective resource units per tick
    used_cores: int = 0
    used_memory: int = 0
    instances: list[str] = field(default_factory=list)

    @property
    def static_speed(self) -> Fraction:
        return self.vm_type.speed_per_core * self.vm_type.cores


def effective_speed(vm: VMState) -> Fraction:
    """Speed once unused cores are discounted: only used cores contribute."""
    spc = vm.vm_type.speed_per_core
    return vm.static_speed - spc * (vm.vm_type.cores - vm.used_cores)


@dataclass
class InstanceState:
    instance_id: str
    service: str
    vm_id: str
    strong_bindings: tuple[tuple[str, str], ...] = ()
    weak_bindings: list[tuple[str, str]] = field(default_factory=list)


class DeploymentRegistry:
    """Live instances and acquired VMs; mutated only by applying orchestrations.

    Id counters are allocator state and are deliberately excluded from
    equality and hashing: deploying and then undeploying an increment
    restores identical content even though fresh ids moved on.
    """

    def __init__(self, arch: SystemArchitecture):
        self.arch = arch
        self.vms: dict[str, VMState] = {}
        self.instances: dict[str, InstanceState] = {}
        self.consumer_counts: dict[str, int] = {}
        self._next_vm = 0
        self._next_instance: dict[str, int] = {}

    # -- id allocation (peek: synthesis reads, apply advances) --

    def peek_vm_ids(self, count: int) -> list[str]:
        return [f"vm-{self._next_vm + i}" for i in range(count)]

    def peek_instance_ids(self, service: str, count: int) -> list[str]:
        start = self._next_instance.get(service, 0)
        return [f"{service}-{start + i}" for i in range(count)]

    def counts(self) -> dict[str, int]:
        out = {s.name: 0 for s in self.arch.services}
        for inst in self.instances.values():
            out[inst.service] += 1
        return out

    # -- applying actions --

    def apply(self, orch: TimedOrchestration) -> None:
        for act in orch.actions:
            self._apply_action(act)

    def _apply_action(self, act: Action) -> None:
        if isinstance(act, AcquireVM):
            if act.vm_id in self.vms:
                raise OrchestrationError(f"VM id {act.vm_id} already acquired")
            vm_type = self.arch.vm_type(act.vm_type)
            self.vms[act.vm_id] = VMState(act.vm_id, vm_type, speed=Fraction(vm_type.speed_per_core * vm_type.cores))
            tail = act.vm_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                self._next_vm = max(self._next_vm, int(tail) + 1)
        elif isinstance(act, SetOverallStartup):
            if act.ticks < 0:
                raise OrchestrationError("startup duration must be >= 0")
        elif isinstance(act, CreateInstance):
            if act.instance_id in self.instances:
                raise OrchestrationError(f"instance id {act.instance_id} already exists")
            vm = self.vms.get(act.vm_id)
            if vm is None:
                raise OrchestrationError(f"create {act.instance_id}: undefined VM {act.vm_id}")
            svc = self.arch.service(act.service)
            if vm.used_cores + svc.cores_required > vm.vm_type.cores:
                raise OrchestrationError(f"create {act.instance_id}: VM {act.vm_id} out of cores")
            if vm.used_memory + svc.memory_required > vm.vm_type.memory:
                raise OrchestrationError(f"create {act.instance_id}: VM {act.vm_id} out of memory")
            required = set(svc.strong_requires)
            bound = [port for port, _ in act.strong_bindings]
            if sorted(bound) != sorted(required):
                raise OrchestrationError(
                    f"create {act.instance_id}: strong bindings {bound} do not match "
                    f"requirements {sorted(required)}")
            for port, provider_id in act.strong_bindings:
                self._consume(provider_id, port, act.instance_id)
            vm.used_cores += svc.cores_required
            vm.used_memory += svc.memory_required
            vm.instances.append(act.instance_id)
            self.instances[act.instance_id] = InstanceState(
                act.instance_id, act.service, act.vm_id, tuple(act.strong_bindings))
            base = act.instance_id.rsplit("-", 1)
            if len(base) == 2 and base[0] == act.service and base[1].isdigit():
                nxt = self._next_instance.get(act.service, 0)
                self._next_instance[act.service] = max(nxt, int(base[1]) + 1)
        elif isinstance(act, BindWeak):
            consumer = self.instances.get(act.consumer_id)
            if consumer is None:
                raise OrchestrationError(f"bind-weak: undefined consumer {act.consumer_id}")
            self._consume(act.provider_id, act.port, act.consumer_id)
            consumer.weak_bindings.append((act.port, act.provider_id))
        elif isinstance(act, DecrementSpeed):
            vm = self.vms.get(act.vm_id)
            if vm is None:
                raise OrchestrationError(f"decrement-speed: undefined VM {act.vm_id}")
            if act.amount < 0 or vm.speed - act.amount < 0:
                raise OrchestrationError(f"decrement-speed: invalid amount {act.amount} on {act.vm_id}")
            vm.speed -= act.amount
        elif isinstance(act, UnbindWeak):
            consumer = self.instances.get(act.consumer_id)
            if consumer is None:
                raise OrchestrationError(f"unbind-weak: undefined consumer {act.consumer_id}")
            try:
                consumer.weak_bindings.remove((act.port, act.provider_id))
            except ValueError as exc:
                raise OrchestrationError(
                    f"unbind-weak: no binding {act.consumer_id} -> {act.provider_id}") from exc
            if act.provider_id in self.consumer_counts:
                self.consumer_counts[act.provider_id] -= 1
        elif isinstance(act, DestroyInstance):
            inst = self.instances.pop(act.instance_id, None)
            if inst is None:
                raise OrchestrationError(f"destroy: undefined instance {act.instance_id}")
            if inst.weak_bindings:
                raise OrchestrationError(f"destroy {act.instance_id}: weak bindings still present")
            for _, provider_id in inst.strong_bindings:
                if provider_id in self.consumer_counts:
                    self.consumer_counts[provider_id] -= 1
            self.consumer_counts.pop(act.instance_id, None)
            vm = self.vms.get(inst.vm_id)
            if vm is not None:
                svc = self.arch.service(inst.service)
                vm.used_cores -= svc.cores_required
                vm.used_memory -= svc.memory_required
                vm.instances.remove(act.instance_id)
        elif isinstance(act, ReleaseVM):
            vm = self.vms.get(act.vm_id)
            if vm is None:
                raise OrchestrationError(f"release: undefined VM {act.vm_id}")
            if vm.instances:
                raise OrchestrationError(f"release {act.vm_id}: instances still deployed")
            del self.vms[act.vm_id]
        else:
            raise OrchestrationError(f"unknown action {act!r}")

    def _consume(self, provider_id: str, port: str, consumer_id: str) -> None:
        provider = self.instances.get(provider_id)
        if provider is None:
            raise OrchestrationError(
                f"{consumer_id}: binding references undefined provider {provider_id}")
        if provider.service != port:
            raise OrchestrationError(
                f"{consumer_id}: provider {provider_id} provides {provider.service}, not {port}")
        cap = self.arch.service(port).provide_capacity
        used = self.consumer_counts.get(provider_id, 0)
        if cap != -1 and used >= cap:
            raise OrchestrationError(
                f"{consumer_id}: provider {provider_id} capacity {cap} exhausted")
        self.consumer_counts[provider_id] = used + 1

    # -- content hashing --

    def content(self) -> dict:
        return {
            "vms": sorted(
                (vm.vm_id, vm.vm_type.name, str(vm.speed), vm.used_cores, vm.used_memory)
                for vm in self.vms.values()),
            "instances": sorted(
                (i.instance_id, i.service, i.vm_id,
                 sorted(i.strong_bindings), sorted(i.weak_bindings))
                for i in self.instances.values()),
        }

    def state_hash(self) -> str:
        blob = json.dumps(self.content(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Orchestration synthesis


def _pick_provider(
    port: str,
    candidates: list[tuple[str, int]],
    capacity: int,
    consumer: str,
) -> str:
    """Least-consumed provider first, creation order as tie-break."""
    eligible = [
        (count, order, pid)
        for order, (pid, count) in enumerate(candidates)
        if capacity == -1 or count < capacity
    ]
    if not eligible:
        raise SynthesisError(
            f"instance {consumer}: no provider available for required port {port!r}")
    eligible.sort(key=lambda t: (t[0], t[1]))
    return eligible[0][2]


def synthesize_orchestration(
    placement: Placement,
    arch: SystemArchitecture,
    registry: DeploymentRegistry,
) -> TimedOrchestration:
    """Ordered deployment program for ``placement`` against ``registry``."""
    actions: list[Action] = []
    vm_ids = registry.peek_vm_ids(len(placement.acquired_vms))
    vm_id_by_index: dict[int, str] = {}
    max_startup = 0
    for (vm_type, local_idx), vm_id in zip(placement.acquired_vms, vm_ids):
        actions.append(AcquireVM(vm_id, vm_type.name))
        vm_id_by_index[local_idx] = vm_id
        max_startup = max(max_startup, vm_type.startup_time)
    actions.append(SetOverallStartup(max_startup))

    # Instances to create, grouped by service in provider-first order.
    new_by_service: dict[str, list[str]] = {}
    for local_idx, services in placement.assignments:
        for svc_name in services:
            new_by_service.setdefault(svc_name, []).append(vm_id_by_index[local_idx])

    fresh_ids: dict[str, list[str]] = {
        svc: registry.peek_instance_ids(svc, len(vms)) for svc, vms in new_by_service.items()
    }

    # Provider bookkeeping for this synthesis: existing consumers plus
    # bindings added by earlier actions of the same orchestration.
    consumers: dict[str, int] = dict(registry.consumer_counts)
    created: dict[str, list[str]] = {}  # service -> new instance ids created so far
    existing: dict[str, list[str]] = {}  # port -> live provider ids, registry order

    def bind(port: str, consumer: str) -> str:
        """``consumer``'s provider for ``port``, counted as one more consumer."""
        if port not in existing:
            existing[port] = [inst.instance_id for inst in registry.instances.values()
                              if inst.service == port]
        candidates = [(pid, consumers.get(pid, 0)) for pid in existing[port] + created.get(port, [])]
        provider = _pick_provider(port, candidates, arch.service(port).provide_capacity, consumer)
        consumers[provider] = consumers.get(provider, 0) + 1
        return provider

    order = arch.strong_order
    # The document parser refuses a strong cycle or an unknown requirement,
    # and validate_architecture reports either, but an architecture built in
    # code reaches this unvalidated. The order leaves out a cycle and every
    # service behind it; only the cycle is named.
    if len(order) < len(arch.services):
        cycle = strong_cycle(arch.services)
        if cycle is not None:
            raise SynthesisError(f"strong dependencies are cyclic among {cycle}")
        names = {s.name for s in arch.services}
        unknown = sorted({dep for s in arch.services for dep in s.strong_requires} - names)
        raise SynthesisError(f"unknown strongly required services {unknown}")
    create_actions: list[CreateInstance] = []
    for svc_name in order:
        if svc_name not in new_by_service:
            continue
        ports = arch.service(svc_name).strong_requires
        for inst_id, vm_id in zip(fresh_ids[svc_name], new_by_service[svc_name]):
            bindings = tuple((port, bind(port, inst_id)) for port in ports)
            create_actions.append(CreateInstance(inst_id, svc_name, vm_id, bindings))
            created.setdefault(svc_name, []).append(inst_id)
    actions.extend(create_actions)

    weak_actions: list[BindWeak] = []
    for act in create_actions:
        for port in arch.service(act.service).weak_requires:
            weak_actions.append(BindWeak(act.instance_id, bind(port, act.instance_id), port))
    actions.extend(weak_actions)

    # Dynamic speed: discount cores no instance uses.
    used_by_vm: dict[str, int] = {vm_id: 0 for vm_id in vm_ids}
    for act in create_actions:
        used_by_vm[act.vm_id] += arch.service(act.service).cores_required
    for (vm_type, local_idx), vm_id in zip(placement.acquired_vms, vm_ids):
        unused = vm_type.cores - used_by_vm[vm_id]
        if unused > 0:
            actions.append(DecrementSpeed(vm_id, Fraction(vm_type.speed_per_core * unused)))

    return TimedOrchestration(tuple(actions))


def synthesize_undeployment(orch: TimedOrchestration) -> TimedOrchestration:
    """Inverse actions in reverse order; released VMs need no speed restore."""
    inverses: list[Action] = []
    for act in reversed(orch.actions):
        if isinstance(act, BindWeak):
            inverses.append(UnbindWeak(act.consumer_id, act.provider_id, act.port))
        elif isinstance(act, CreateInstance):
            inverses.append(DestroyInstance(act.instance_id))
        elif isinstance(act, AcquireVM):
            inverses.append(ReleaseVM(act.vm_id))
    return TimedOrchestration(tuple(inverses))


def synthesize_removal(
    instance_ids: Sequence[str],
    arch: SystemArchitecture,
    registry: DeploymentRegistry,
) -> TimedOrchestration:
    """Tear down a chosen set of instances (for per-service scale-downs).

    Unbinds their weak ports, destroys them, releases VMs left empty, and
    decrements speed on surviving VMs so unused cores stop contributing.
    """
    chosen = []
    for inst_id in instance_ids:
        inst = registry.instances.get(inst_id)
        if inst is None:
            raise SynthesisError(f"removal: unknown instance {inst_id}")
        chosen.append(inst)
    actions: list[Action] = []
    for inst in chosen:
        for port, provider in reversed(inst.weak_bindings):
            actions.append(UnbindWeak(inst.instance_id, provider, port))
    for inst in reversed(chosen):
        actions.append(DestroyInstance(inst.instance_id))
    freed_by_vm: dict[str, int] = {}
    doomed = {inst.instance_id for inst in chosen}
    for inst in chosen:
        cores = arch.service(inst.service).cores_required
        freed_by_vm[inst.vm_id] = freed_by_vm.get(inst.vm_id, 0) + cores
    for vm_id in sorted(freed_by_vm):
        vm = registry.vms[vm_id]
        survivors = [i for i in vm.instances if i not in doomed]
        if survivors:
            spc = vm.vm_type.speed_per_core
            actions.append(DecrementSpeed(vm_id, Fraction(spc * freed_by_vm[vm_id])))
        else:
            actions.append(ReleaseVM(vm_id))
    return TimedOrchestration(tuple(actions))


def validate_orchestration_timing(
    orch: TimedOrchestration, arch: SystemArchitecture
) -> list[str]:
    """Structural timing checks; returns a list of problems (empty = ok).

    After a deployment: exactly one startup action placed after all
    acquisitions, equal to the slowest acquired VM's startup time, and per
    VM a final speed of speed_per_core * used_cores.
    """
    problems: list[str] = []
    acquires = [a for a in orch.actions if isinstance(a, AcquireVM)]
    startups = [a for a in orch.actions if isinstance(a, SetOverallStartup)]
    if acquires:
        if len(startups) != 1:
            problems.append(f"expected exactly one startup action, found {len(startups)}")
        else:
            last_acquire = max(i for i, a in enumerate(orch.actions) if isinstance(a, AcquireVM))
            startup_idx = next(i for i, a in enumerate(orch.actions) if isinstance(a, SetOverallStartup))
            if startup_idx < last_acquire:
                problems.append("startup action precedes an acquisition")
            expected = max(arch.vm_type(a.vm_type).startup_time for a in acquires)
            if startups[0].ticks != expected:
                problems.append(
                    f"startup {startups[0].ticks} != max acquired startup {expected}")
        used: dict[str, int] = {a.vm_id: 0 for a in acquires}
        types = {a.vm_id: arch.vm_type(a.vm_type) for a in acquires}
        for act in orch.actions:
            if isinstance(act, CreateInstance) and act.vm_id in used:
                used[act.vm_id] += arch.service(act.service).cores_required
        decrements = {a.vm_id: a.amount for a in orch.actions if isinstance(a, DecrementSpeed)}
        for vm_id, vm_type in types.items():
            expected_dec = vm_type.speed_per_core * (vm_type.cores - used[vm_id])
            actual = decrements.get(vm_id, Fraction(0))
            if actual != expected_dec:
                problems.append(
                    f"{vm_id}: speed decrement {actual} != speed_per_core*(unused cores) {expected_dec}")
    elif startups:
        problems.append("startup action present without acquisitions")
    return problems
