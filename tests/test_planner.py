"""Placement optimality, orchestration structure, registry semantics."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archscale import (
    DeploymentRegistry,
    PlacementError,
    SynthesisError,
    plan_placement,
    synthesize_orchestration,
    synthesize_removal,
    synthesize_undeployment,
    validate_orchestration_timing,
)
from archscale.document import parse_architecture_data
from archscale.model import EmailProfile, ServiceType, SystemArchitecture, VMType
from archscale.planner import (
    AcquireVM,
    Placement,
    BindWeak,
    CreateInstance,
    DecrementSpeed,
    DestroyInstance,
    OrchestrationError,
    ReleaseVM,
    SetOverallStartup,
    TimedOrchestration,
    UnbindWeak,
    orchestration_to_script,
)


def make_arch(services, vms):
    return parse_architecture_data({
        "services": services, "vm_catalog": vms, "profile": {}, "pipeline": [],
    })


def service_block(name, cores=2, memory=200, sig=(), weak=(), provide=-1):
    return {"name": name, "provide": provide, "cost": {"Cores": cores, "Memory": memory},
            "sig": list(sig), "weak_requires": list(weak)}


def vm_block(name, cores, cost, memory=100000, startup=30, spc=5):
    return {"name": name, "cores": cores, "memory": memory,
            "speed_per_core": spc, "startup_time": startup, "cost": cost}


# -- placement ----------------------------------------------------------------

def least_packable_multiset(items, catalog):
    """Oracle: enumerate every VM-type multiset up to one VM per item and
    check packability by brute-force backtracking; return the least
    packable one by (cost, VM count, sorted type names) as its cost and
    its sorted type names."""
    ordered = sorted(items, reverse=True)
    need_cores = sum(c for c, _ in ordered)
    need_mem = sum(m for _, m in ordered)

    def packable(bins):
        remaining = [list(b) for b in bins]

        def place(i):
            if i == len(ordered):
                return True
            tried = set()
            for b in remaining:
                if b[0] >= ordered[i][0] and b[1] >= ordered[i][1] and tuple(b) not in tried:
                    tried.add(tuple(b))
                    b[0] -= ordered[i][0]
                    b[1] -= ordered[i][1]
                    if place(i + 1):
                        return True
                    b[0] += ordered[i][0]
                    b[1] += ordered[i][1]
            return False

        return place(0)

    best = None
    n = len(ordered)
    counts_ranges = [range(n + 1)] * len(catalog)
    for counts in itertools.product(*counts_ranges):
        if not 0 < sum(counts) <= n:
            continue
        cost = sum(c * vm.cost for c, vm in zip(counts, catalog))
        names = tuple(sorted(vm.name for c, vm in zip(counts, catalog) for _ in range(c)))
        key = (cost, len(names), names)
        if best is not None and key >= best:
            continue
        total_cores = sum(c * vm.cores for c, vm in zip(counts, catalog))
        total_mem = sum(c * vm.memory for c, vm in zip(counts, catalog))
        if total_cores < need_cores or total_mem < need_mem:
            continue
        bins = []
        for c, vm in zip(counts, catalog):
            bins.extend([(vm.cores, vm.memory)] * c)
        if packable(bins):
            best = key
    return None if best is None else (best[0], best[2])


def exhaustive_optimum(items, catalog):
    """The oracle's least cost."""
    return least_packable_multiset(items, catalog)[0]


# Costs with unlike denominators, and a float as an in-memory document gives it.
ODD_COSTS = ("1/3", "7/2", 0.1, "2/7", "5/3", 3)


def odd_cost_placements(rng, count):
    """Criterion-4-style instances whose catalogs mix odd-denominator costs
    with two-decimal ones: up to 4 VM types, 6 services and 10 instances."""
    out = []
    while len(out) < count:
        catalog = [vm_block(f"vm{t}", cores=rng.randint(2, 12),
                            cost=rng.choice(ODD_COSTS + (round(rng.uniform(0.5, 8.0), 2),)),
                            memory=rng.choice([2000, 6000, 16000]))
                   for t in range(rng.randint(1, 4))]
        services = [service_block(f"S{i}", cores=rng.randint(1, 6),
                                  memory=rng.choice([100, 500, 1500]))
                    for i in range(rng.randint(1, 6))]
        arch = make_arch(services, catalog)
        delta = {}
        total = 0
        for s in arch.services:
            c = rng.randint(0, min(3, 10 - total))
            total += c
            if c:
                delta[s.name] = c
        if delta and all(any(vm.cores >= arch.service(n).cores_required and
                             vm.memory >= arch.service(n).memory_required
                             for vm in arch.vm_catalog) for n in delta):
            out.append((arch, delta))
    return out


def placements_digest(cases):
    """SHA-256 of each case's placement: VM types, assignments and cost."""
    lines = []
    for arch, delta in cases:
        p = plan_placement(delta, arch, arch.vm_catalog)
        lines.append(repr(([(t.name, i) for t, i in p.acquired_vms], p.assignments, p.total_cost)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def placed_multiset(placement):
    """A placement's cost and sorted VM type names, as the oracle gives them."""
    return placement.total_cost, tuple(sorted(t.name for t, _ in placement.acquired_vms))


# SHA-256 of the 200 placements above, seed 4, recorded before placement
# searched in integer cost units: a change to how it computes costs must
# place every instance exactly as before.
ODD_COST_PLACEMENTS_DIGEST = "4c9b83816fa892e78fd442aedd8932573c70eb432a8ea75947617f8134ec3a2f"


def test_odd_cost_placements_digest_unchanged():
    assert placements_digest(odd_cost_placements(random.Random(4), 200)) == ODD_COST_PLACEMENTS_DIGEST


# VM type names whose name order is not the order a catalog declares them in.
SHUFFLED_NAMES = ("m5", "c2", "x1", "a9", "b3", "c10")


def shuffled_name_cases(rng, count):
    """Instances whose catalogs declare up to 4 VM types out of name order,
    about half of them a copy of an earlier type's cost and size under
    another name, so the search's tie-break by type names decides: up to
    4 services and 8 instances."""
    out = []
    while len(out) < count:
        catalog = []
        for name in rng.sample(SHUFFLED_NAMES, rng.randint(2, 4)):
            if catalog and rng.random() < 0.5:
                catalog.append(dict(rng.choice(catalog), name=name))
            else:
                catalog.append(vm_block(name, cores=rng.choice([2, 4, 8]),
                                        cost=rng.choice([1, 2, 3, "7/2"]),
                                        memory=rng.choice([4000, 16000])))
        services = [service_block(f"S{i}", cores=rng.randint(1, 4),
                                  memory=rng.choice([500, 1500, 3000]))
                    for i in range(rng.randint(1, 4))]
        arch = make_arch(services, catalog)
        delta = {}
        for s in arch.services:
            c = rng.randint(0, min(3, 8 - sum(delta.values())))
            if c:
                delta[s.name] = c
        if delta and all(any(vm.cores >= arch.service(n).cores_required and
                             vm.memory >= arch.service(n).memory_required
                             for vm in arch.vm_catalog) for n in delta):
            out.append((arch, delta))
    return out


# SHA-256 of the 200 placements above, seed 25, recorded while the search
# kept each multiset as its sorted type names: the tie-break among types of
# equal cost and size must keep placing every instance exactly as then.
SHUFFLED_NAME_PLACEMENTS_DIGEST = "b6bc619abb4140acbecd950a485eb99c21a0ba26582510bf3d5ee9be8dc098d9"


def test_shuffled_name_placements_digest_unchanged():
    assert placements_digest(shuffled_name_cases(random.Random(25), 200)) == SHUFFLED_NAME_PLACEMENTS_DIGEST


@st.composite
def shuffled_name_case(draw):
    """A catalog of 1-4 VM types out of name order, some repeating an
    earlier type's cost and size, and a delta of 1-6 instances that fit."""
    catalog = []
    for name in draw(st.permutations(SHUFFLED_NAMES))[:draw(st.integers(1, 4))]:
        if catalog and draw(st.booleans()):
            catalog.append(dict(draw(st.sampled_from(catalog)), name=name))
        else:
            catalog.append(vm_block(name, cores=draw(st.sampled_from([2, 4, 8])),
                                    cost=draw(st.sampled_from([1, 2, 3, "7/2"])),
                                    memory=draw(st.sampled_from([4000, 16000]))))
    largest = max(vm["cores"] for vm in catalog)
    services = [service_block(f"S{i}", cores=draw(st.integers(1, largest)),
                              memory=draw(st.sampled_from([500, 1500, 3000])))
                for i in range(draw(st.integers(1, 3)))]
    delta = {s["name"]: draw(st.integers(0, 2)) for s in services}
    assume(any(delta.values()))
    return make_arch(services, catalog), delta


@given(case=shuffled_name_case())
def test_placement_tie_break_is_the_least_multiset_by_cost_count_names(case):
    arch, delta = case
    items = [(arch.service(name).cores_required, arch.service(name).memory_required)
             for name, count in delta.items() for _ in range(count)]
    placement = plan_placement(delta, arch, arch.vm_catalog)
    assert placed_multiset(placement) == least_packable_multiset(items, arch.vm_catalog)


def test_two_instances_prefer_one_xlarge():
    arch = make_arch(
        [service_block("A", cores=2)],
        [vm_block("large", 2, 1.0), vm_block("xlarge", 4, 1.9)],
    )
    placement = plan_placement({"A": 2}, arch, arch.vm_catalog)
    assert placement.total_cost == Fraction("1.9")
    assert [t.name for t, _ in placement.acquired_vms] == ["xlarge"]


def test_empty_delta_rejected():
    arch = make_arch([service_block("A")], [vm_block("large", 2, 1.0)])
    with pytest.raises(PlacementError, match="no instances"):
        plan_placement({}, arch, arch.vm_catalog)
    with pytest.raises(PlacementError, match="no instances"):
        plan_placement({"A": 0}, arch, arch.vm_catalog)


def test_oversized_service_infeasible():
    arch = make_arch([service_block("A", cores=6)], [vm_block("large", 2, 1.0)])
    with pytest.raises(PlacementError, match="no VM type"):
        plan_placement({"A": 1}, arch, arch.vm_catalog)


def test_memory_constraint_honored():
    arch = make_arch(
        [service_block("A", cores=1, memory=3000)],
        [vm_block("small", 4, 1.0, memory=4000), vm_block("big", 4, 1.5, memory=16000)],
    )
    placement = plan_placement({"A": 4}, arch, arch.vm_catalog)
    for _, services in placement.assignments:
        assert len(services) <= 1 or sum(3000 for _ in services) <= 16000
    total_mem = {idx: 3000 * len(svcs) for idx, svcs in placement.assignments}
    for vm_type, idx in placement.acquired_vms:
        assert total_mem.get(idx, 0) <= vm_type.memory


def test_determinism():
    arch = make_arch(
        [service_block("A", cores=2), service_block("B", cores=3)],
        [vm_block("large", 2, 1.0), vm_block("xlarge", 4, 1.9), vm_block("huge", 8, 3.7)],
    )
    first = plan_placement({"A": 3, "B": 2}, arch, arch.vm_catalog)
    first_orch = synthesize_orchestration(first, arch, DeploymentRegistry(arch))
    for _ in range(3):
        again = plan_placement({"A": 3, "B": 2}, arch, arch.vm_catalog)
        assert again == first
        assert synthesize_orchestration(again, arch, DeploymentRegistry(arch)) == first_orch


def test_placement_optimal_on_randomized_instances():
    rng = random.Random(20240917)
    for trial in range(40):
        n_types = rng.randint(1, 4)
        catalog = [
            vm_block(f"vm{t}", cores=rng.randint(2, 12), cost=round(rng.uniform(0.5, 8.0), 2),
                     memory=rng.choice([2000, 6000, 16000]))
            for t in range(n_types)
        ]
        n_services = rng.randint(1, 6)
        services = [
            service_block(f"S{i}", cores=rng.randint(1, 6), memory=rng.choice([100, 500, 1500]))
            for i in range(n_services)
        ]
        arch = make_arch(services, catalog)
        total = 0
        delta = {}
        for s in services:
            if total >= 10:
                break
            c = rng.randint(0, min(3, 10 - total))
            if c:
                delta[s["name"]] = c
                total += c
        if not delta:
            continue
        feasible = all(
            any(vm.cores >= arch.service(name).cores_required and
                vm.memory >= arch.service(name).memory_required
                for vm in arch.vm_catalog)
            for name in delta
        )
        items = []
        for name, count in delta.items():
            svc = arch.service(name)
            items.extend([(svc.cores_required, svc.memory_required)] * count)
        if not feasible:
            with pytest.raises(PlacementError):
                plan_placement(delta, arch, arch.vm_catalog)
            continue
        placement = plan_placement(delta, arch, arch.vm_catalog)
        oracle = least_packable_multiset(items, arch.vm_catalog)
        assert placed_multiset(placement) == oracle, f"trial {trial}"
        # capacity invariants per VM
        loads = {idx: [0, 0] for _, idx in placement.acquired_vms}
        for idx, svcs in placement.assignments:
            for name in svcs:
                svc = arch.service(name)
                loads[idx][0] += svc.cores_required
                loads[idx][1] += svc.memory_required
        for vm_type, idx in placement.acquired_vms:
            assert loads[idx][0] <= vm_type.cores
            assert loads[idx][1] <= vm_type.memory
        placed = sum(len(svcs) for _, svcs in placement.assignments)
        assert placed == sum(delta.values())


# -- orchestration synthesis -----------------------------------------------------

@pytest.fixture
def chain_arch():
    return make_arch(
        [
            service_block("Front", cores=2, sig=["Mid"]),
            service_block("Mid", cores=2, sig=["Back"], weak=["Side"]),
            service_block("Back", cores=2),
            service_block("Side", cores=2),
        ],
        [
            vm_block("small", 4, 1.0, startup=3),
            vm_block("medium", 8, 1.8, startup=5),
            vm_block("tiny", 2, 0.6, startup=2),
        ],
    )


def bootstrap(arch, counts):
    registry = DeploymentRegistry(arch)
    placement = plan_placement(counts, arch, arch.vm_catalog)
    orch = synthesize_orchestration(placement, arch, registry)
    registry.apply(orch)
    return registry, orch


def test_startup_is_max_of_acquired(chain_arch):
    registry, _ = bootstrap(chain_arch, {"Front": 1, "Mid": 1, "Back": 1, "Side": 1})
    # force one VM of each type by requesting hand-picked increments
    placement = plan_placement({"Front": 4, "Mid": 1}, chain_arch, chain_arch.vm_catalog)
    orch = synthesize_orchestration(placement, chain_arch, registry)
    types = {a.vm_type for a in orch.actions if isinstance(a, AcquireVM)}
    expected = max(chain_arch.vm_type(t).startup_time for t in types)
    assert orch.startup_ticks == expected
    assert validate_orchestration_timing(orch, chain_arch) == []


def test_action_ordering(chain_arch):
    registry, orch = bootstrap(chain_arch, {"Front": 1, "Mid": 1, "Back": 1, "Side": 1})
    kinds = [type(a) for a in orch.actions]
    first_create = kinds.index(CreateInstance)
    assert all(k is AcquireVM for k in kinds[:first_create - 1])
    assert kinds[first_create - 1] is SetOverallStartup
    creates = [a for a in orch.actions if isinstance(a, CreateInstance)]
    seen = set()
    for act in creates:
        for _, provider in act.strong_bindings:
            assert provider in seen or provider in registry.instances
        seen.add(act.instance_id)
    order = [a.service for a in creates]
    assert order.index("Back") < order.index("Mid") < order.index("Front")
    binds = [i for i, k in enumerate(kinds) if k is BindWeak]
    decs = [i for i, k in enumerate(kinds) if k is DecrementSpeed]
    last_create = max(i for i, k in enumerate(kinds) if k is CreateInstance)
    assert all(i > last_create for i in binds)
    assert all(i > max(binds, default=last_create) for i in decs)


def test_decrement_speed_formula():
    # 8-core VM at 5 per core hosting 6 used cores: decrement 10, leaving 30.
    arch = make_arch([service_block("A", cores=6)], [vm_block("octo", 8, 2.0)])
    registry, orch = bootstrap(arch, {"A": 1})
    decrements = [a for a in orch.actions if isinstance(a, DecrementSpeed)]
    assert len(decrements) == 1
    assert decrements[0].amount == 10
    vm = registry.vms[orch.acquired_vm_ids()[0]]
    assert vm.speed == 30
    assert validate_orchestration_timing(orch, arch) == []


def test_unsatisfiable_strong_requirement_names_instance(chain_arch):
    registry = DeploymentRegistry(chain_arch)
    placement = plan_placement({"Front": 1}, chain_arch, chain_arch.vm_catalog)
    with pytest.raises(SynthesisError, match="Front-0.*Mid"):
        synthesize_orchestration(placement, chain_arch, registry)


def test_provide_capacity_exhaustion():
    arch = make_arch(
        [service_block("User", sig=["Db"]), service_block("Db", provide=1)],
        [vm_block("small", 4, 1.0)],
    )
    registry, _ = bootstrap(arch, {"User": 1, "Db": 1})
    placement = plan_placement({"User": 1}, arch, arch.vm_catalog)
    with pytest.raises(SynthesisError, match="User-1"):
        synthesize_orchestration(placement, arch, registry)


def test_weak_bindings_balance_consumers():
    arch = make_arch(
        [service_block("Hub", provide=2), service_block("Leaf", weak=["Hub"])],
        [vm_block("small", 8, 1.0)],
    )
    registry, _ = bootstrap(arch, {"Hub": 2, "Leaf": 2})
    per_hub = {}
    for inst in registry.instances.values():
        for _, provider in inst.weak_bindings:
            per_hub[provider] = per_hub.get(provider, 0) + 1
    assert sorted(per_hub.values()) == [1, 1]


# -- undeployment ------------------------------------------------------------------

def test_undeploy_is_exact_inverse(chain_arch):
    registry, _ = bootstrap(chain_arch, {"Front": 1, "Mid": 1, "Back": 1, "Side": 1})
    h0 = registry.state_hash()
    placement = plan_placement({"Front": 1, "Mid": 2, "Side": 1}, chain_arch, chain_arch.vm_catalog)
    orch = synthesize_orchestration(placement, chain_arch, registry)
    registry.apply(orch)
    assert registry.state_hash() != h0
    undeploy = synthesize_undeployment(orch)
    kinds = [type(a) for a in undeploy.actions]
    assert kinds == sorted(kinds, key=[UnbindWeak, DestroyInstance, ReleaseVM].index)
    assert not any(isinstance(a, SetOverallStartup) for a in undeploy.actions)
    registry.apply(undeploy)
    assert registry.state_hash() == h0


def test_undeploy_reference_deltas(reference_arch, reference_ladder):
    registry = DeploymentRegistry(reference_arch)
    base = {s.name: n for s, n in zip(reference_arch.services, reference_ladder.base.counts)}
    registry.apply(synthesize_orchestration(
        plan_placement(base, reference_arch, reference_arch.vm_catalog), reference_arch, registry))
    for delta in reference_ladder.deltas:
        before = registry.state_hash()
        counts = {s.name: c for s, c in zip(reference_arch.services, delta.counts) if c > 0}
        orch = synthesize_orchestration(
            plan_placement(counts, reference_arch, reference_arch.vm_catalog),
            reference_arch, registry)
        registry.apply(orch)
        registry.apply(synthesize_undeployment(orch))
        assert registry.state_hash() == before


def applied_synthesis_actions(arch, ladder, rng):
    """Actions of a sequence of syntheses, each applied before the next: the
    base, the reference deltas stacked 1 to 4 deep, then 50 single-service
    deltas of 1 to 3 instances, so providers pile up across services."""
    registry = DeploymentRegistry(arch)
    lines = []

    def deploy(counts):
        orch = synthesize_orchestration(
            plan_placement(counts, arch, arch.vm_catalog), arch, registry)
        registry.apply(orch)
        lines.append(repr(orch.actions))

    deploy({s.name: n for s, n in zip(arch.services, ladder.base.counts)})
    for depth in range(1, 5):
        for delta in ladder.deltas[:depth]:
            deploy({s.name: c for s, c in zip(arch.services, delta.counts) if c > 0})
    for _ in range(50):
        deploy({rng.choice(arch.services).name: rng.randint(1, 3)})
    return lines


# SHA-256 of the actions above, seed 10, recorded before synthesis grouped
# the registry's instances by service: providers must be picked as before.
APPLIED_SYNTHESES_DIGEST = "5f9654d7f7d4c2239f2c3a743fefc8c452c4d2a51a228ead78b31fad6df4b04d"


def test_applied_syntheses_digest_unchanged(reference_arch, reference_ladder):
    lines = applied_synthesis_actions(reference_arch, reference_ladder, random.Random(10))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == APPLIED_SYNTHESES_DIGEST


def test_replay_never_references_undefined_ids(chain_arch):
    registry, orch = bootstrap(chain_arch, {"Front": 1, "Mid": 1, "Back": 1, "Side": 2})
    fresh = DeploymentRegistry(chain_arch)
    fresh.apply(orch)  # would raise OrchestrationError on dangling references
    assert fresh.state_hash() == registry.state_hash()


def test_removal_decrements_surviving_vm_speed():
    arch = make_arch(
        [service_block("A", cores=2)],
        [vm_block("big", 8, 2.0)],
    )
    registry, orch = bootstrap(arch, {"A": 4})
    vm_id = orch.acquired_vm_ids()[0]
    removal = synthesize_removal(["A-3", "A-2"], arch, registry)
    registry.apply(removal)
    vm = registry.vms[vm_id]
    assert vm.used_cores == 4
    assert vm.speed == vm.vm_type.speed_per_core * 4
    removal = synthesize_removal(["A-1", "A-0"], arch, registry)
    registry.apply(removal)
    assert vm_id not in registry.vms


@pytest.mark.parametrize("provide, removed, moves, counts", [
    # C-0 moves from P-0 to P-1, which has room for a second consumer.
    (2, ["P-0"], [UnbindWeak("C-0", "P-0", "P"), BindWeak("C-0", "P-1", "P")], {"P-1": 2}),
    # P-1 has room for C-1 only: C-0 is left unbound.
    (1, ["P-0"], [UnbindWeak("C-0", "P-0", "P")], {"P-1": 1}),
    # Removing C-1 as well makes room on P-1 before C-0 moves.
    (1, ["C-1", "P-0"],
     [UnbindWeak("C-1", "P-1", "P"), UnbindWeak("C-0", "P-0", "P"), BindWeak("C-0", "P-1", "P")],
     {"P-1": 1}),
], ids=["room", "no-room", "room-made"])
def test_removal_moves_weak_consumers_off_removed_providers(provide, removed, moves, counts):
    arch = make_arch(
        [service_block("P", provide=provide), service_block("C", weak=["P"])],
        [vm_block("big", 8, 2.0)],
    )
    registry, orch = bootstrap(arch, {"P": 2, "C": 2})
    assert [a for a in orch.actions if isinstance(a, BindWeak)] == [
        BindWeak("C-0", "P-0", "P"), BindWeak("C-1", "P-1", "P")]
    vm_id = orch.acquired_vm_ids()[0]
    removal = synthesize_removal(removed, arch, registry)
    assert removal.actions == (*moves, *map(DestroyInstance, reversed(removed)),
                               DecrementSpeed(vm_id, Fraction(10 * len(removed))))
    registry.apply(removal)
    assert registry.consumer_counts == counts
    assert all(provider in registry.instances
               for inst in registry.instances.values() for _, provider in inst.weak_bindings)


def test_script_round_trip_stability(chain_arch):
    _, orch = bootstrap(chain_arch, {"Front": 1, "Mid": 1, "Back": 1, "Side": 1})
    script = orchestration_to_script(orch)
    assert script.splitlines()[0].startswith("acquire")
    assert "set-startup" in script
    assert orchestration_to_script(orch) == script


# -- refusals -------------------------------------------------------------------

@pytest.fixture
def web_arch():
    """Web strongly requires Db (one consumer per provider) and weakly
    Cache; Big fits a VM's cores but not what is left of its memory."""
    return make_arch(
        [service_block("Web", sig=["Db"], weak=["Cache"]), service_block("Db", provide=1),
         service_block("Cache"), service_block("Big", memory=400)],
        [vm_block("small", 4, 1.0, memory=500)],
    )


@pytest.mark.parametrize("action,message", [
    (AcquireVM("vm-0", "small"), "VM id vm-0 already acquired"),
    (SetOverallStartup(-1), "startup duration must be >= 0"),
    (CreateInstance("Db-0", "Db", "vm-1"), "instance id Db-0 already exists"),
    (CreateInstance("Db-1", "Db", "vm-9"), "create Db-1: undefined VM vm-9"),
    (CreateInstance("Cache-1", "Cache", "vm-0"), "create Cache-1: VM vm-0 out of cores"),
    (CreateInstance("Big-0", "Big", "vm-1"), "create Big-0: VM vm-1 out of memory"),
    (CreateInstance("Web-1", "Web", "vm-1"),
     r"create Web-1: strong bindings \[\] do not match requirements \['Db'\]"),
    (CreateInstance("Web-1", "Web", "vm-1", (("Db", "Db-9"),)),
     "Web-1: binding references undefined provider Db-9"),
    (CreateInstance("Web-1", "Web", "vm-1", (("Db", "Db-0"),)),
     "Web-1: provider Db-0 capacity 1 exhausted"),
    (BindWeak("Web-9", "Cache-0", "Cache"), "bind-weak: undefined consumer Web-9"),
    (BindWeak("Web-0", "Db-0", "Cache"), "Web-0: provider Db-0 provides Db, not Cache"),
    (DecrementSpeed("vm-9", Fraction(1)), "decrement-speed: undefined VM vm-9"),
    (DecrementSpeed("vm-1", Fraction(-1)), "decrement-speed: invalid amount -1 on vm-1"),
    (DecrementSpeed("vm-1", Fraction(11)), "decrement-speed: invalid amount 11 on vm-1"),
    (UnbindWeak("Web-9", "Cache-0", "Cache"), "unbind-weak: undefined consumer Web-9"),
    (UnbindWeak("Web-0", "Db-0", "Db"), "unbind-weak: no binding Web-0 -> Db-0"),
    (DestroyInstance("Web-9"), "destroy: undefined instance Web-9"),
    (DestroyInstance("Web-0"), "destroy Web-0: weak bindings still present"),
    (ReleaseVM("vm-9"), "release: undefined VM vm-9"),
    (ReleaseVM("vm-0"), "release vm-0: instances still deployed"),
    ("acquire vm-2 small", "unknown action 'acquire vm-2 small'"),
])
def test_registry_refuses_inconsistent_actions(web_arch, action, message):
    # vm-0 holds Db-0 and Web-0 (full); vm-1 holds Cache-0, bound weakly to Web-0.
    registry, _ = bootstrap(web_arch, {"Web": 1, "Db": 1, "Cache": 1})
    with pytest.raises(OrchestrationError, match=f"^{message}$"):
        registry.apply(TimedOrchestration((action,)))


@pytest.mark.parametrize("actions,problem", [
    ((AcquireVM("vm-0", "small"), DecrementSpeed("vm-0", Fraction(20))),
     "expected exactly one startup action, found 0"),
    ((SetOverallStartup(30), AcquireVM("vm-0", "small"), DecrementSpeed("vm-0", Fraction(20))),
     "startup action precedes an acquisition"),
    ((AcquireVM("vm-0", "small"), SetOverallStartup(3), DecrementSpeed("vm-0", Fraction(20))),
     "startup 3 != max acquired startup 30"),
    ((AcquireVM("vm-0", "small"), SetOverallStartup(30)),
     "vm-0: speed decrement 0 != speed_per_core*(unused cores) 20"),
    ((SetOverallStartup(0),), "startup action present without acquisitions"),
])
def test_timing_check_names_each_problem(web_arch, actions, problem):
    assert validate_orchestration_timing(TimedOrchestration(actions), web_arch) == [problem]


@pytest.mark.parametrize("delta,catalog,message", [
    ({"Web": 1, "Nope": 1}, None, "unknown service 'Nope' in delta"),
    ({"Web": 1, "Db": -1}, None, "negative instance count for 'Db'"),
    ({"Web": 1}, (), "empty VM catalog"),
    # The tie-break is by type name, so a repeated name leaves it undefined.
    ({"Web": 1}, (VMType("small", 4, 500, Fraction(5), 30, Fraction(1)),
                  VMType("small", 8, 500, Fraction(5), 30, Fraction(1))),
     "duplicate VM type name 'small' in catalog"),
])
def test_placement_refusals(web_arch, delta, catalog, message):
    with pytest.raises(PlacementError, match=f"^{message}$"):
        plan_placement(delta, web_arch, web_arch.vm_catalog if catalog is None else catalog)


def test_removal_of_an_unknown_instance_refused(web_arch):
    registry, _ = bootstrap(web_arch, {"Web": 1, "Db": 1, "Cache": 1})
    with pytest.raises(SynthesisError, match="^removal: unknown instance Web-9$"):
        synthesize_removal(["Web-0", "Web-9"], web_arch, registry)


# -- architecture lookups -----------------------------------------------------

def reference_creation_order(arch):
    """Sweeps in declaration order, each taking every service whose strong
    providers are taken so far; None if a sweep takes nothing."""
    deps = {s.name: set(s.strong_requires) for s in arch.services}
    done = []
    pending = [s.name for s in arch.services]
    while pending:
        progressed = False
        for name in list(pending):
            if deps[name] <= set(done):
                done.append(name)
                pending.remove(name)
                progressed = True
        if not progressed:
            return None
    return done


@settings(max_examples=200, derandomize=True)
@given(data=st.data())
def test_strong_order_matches_reference(data):
    n = data.draw(st.integers(1, 8))
    # Service i may require any service numbered below it; declared in any order.
    deps = [sorted(data.draw(st.sets(st.integers(0, i - 1), max_size=3))) if i else []
            for i in range(n)]
    declared = data.draw(st.permutations(range(n)))
    arch = SystemArchitecture(
        tuple(ServiceType(f"S{i}", 1, 0, strong_requires=tuple(f"S{j}" for j in deps[i]))
              for i in declared), (), EmailProfile())
    assert arch.strong_order == tuple(reference_creation_order(arch))


def test_synthesis_refuses_cyclic_strong_requirements():
    arch = SystemArchitecture((ServiceType("A", 1, 0, strong_requires=("B",)),
                               ServiceType("C", 1, 0),
                               ServiceType("B", 1, 0, strong_requires=("A",))),
                              (), EmailProfile())
    assert reference_creation_order(arch) is None
    assert arch.strong_order == ("C",)
    empty = Placement(acquired_vms=(), assignments=(), total_cost=Fraction(0))
    with pytest.raises(SynthesisError, match=r"cyclic among \['A', 'B'\]"):
        synthesize_orchestration(empty, arch, DeploymentRegistry(arch))


def test_synthesis_names_the_strong_cycle_not_the_services_behind_it():
    # D requires C, which sits on the cycle C -> E -> C; A requires nothing.
    arch = SystemArchitecture((ServiceType("D", 1, 0, strong_requires=("C",)),
                               ServiceType("A", 1, 0),
                               ServiceType("C", 1, 0, strong_requires=("E",)),
                               ServiceType("E", 1, 0, strong_requires=("C",))),
                              (), EmailProfile())
    assert arch.strong_order == ("A",)
    empty = Placement(acquired_vms=(), assignments=(), total_cost=Fraction(0))
    with pytest.raises(SynthesisError, match=r"cyclic among \['C', 'E'\]$"):
        synthesize_orchestration(empty, arch, DeploymentRegistry(arch))
    # Without a cycle, a service left out requires one that does not exist.
    arch = SystemArchitecture((ServiceType("D", 1, 0, strong_requires=("C",)),
                               ServiceType("A", 1, 0, strong_requires=("Nowhere",))),
                              (), EmailProfile())
    with pytest.raises(SynthesisError,
                       match=r"unknown strongly required services \['C', 'Nowhere'\]"):
        synthesize_orchestration(empty, arch, DeploymentRegistry(arch))


def test_architecture_lookups_stay_out_of_equality(reference_arch):
    twin = dataclasses.replace(reference_arch)
    assert reference_arch.service("VirusScanner").name == "VirusScanner"
    assert reference_arch.vm_type(reference_arch.vm_catalog[-1].name) is reference_arch.vm_catalog[-1]
    assert reference_arch.strong_order is reference_arch.strong_order
    assert twin == reference_arch and hash(twin) == hash(reference_arch)
    assert [reference_arch.service_index(s.name) for s in reference_arch.services] == \
        list(range(len(reference_arch.services)))
    with pytest.raises(KeyError):
        reference_arch.service("Nowhere")
    with pytest.raises(KeyError):
        reference_arch.vm_type("Nowhere")
