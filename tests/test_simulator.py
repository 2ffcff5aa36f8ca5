"""Engine semantics: queues, budgets, gating, conservation, determinism."""

import copy
import dataclasses
import re
from collections import deque
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archscale import (
    ExperimentSpec,
    ScalerParams,
    SimConfig,
    SimulationError,
    Steps,
    WorkloadSpec,
    build_capacity_table,
    load_architecture,
    run_experiment,
    run_simulation,
    synthesize_scale_ladder,
)
from archscale.cli import reference_architecture_path
from archscale.document import parse_architecture_data
from archscale.model import PipelineEdge
from archscale.planner import DeploymentRegistry
from archscale.scaler import delta_vector_is_canonical
from archscale.simulator import (
    P_EMAIL,
    InstanceRuntime,
    Policy,
    _compile_routes,
    _emitted,
    _emitter,
    _leaves,
    FORWARD,
    _service_routes,
    compare_scope,
    process_window,
)
from archscale.workload import Diurnal
from test_golden import FANOUT_LEAVES_ARCH, ROUTE_SHAPES_ARCH, SURGE_STEPS, WIRES_ARCH


# -- admission ------------------------------------------------------------------

def one_tick(insts, queue, tick, budget, cost, before=()):
    """The completions of one tick in which all of ``queue`` is takeable
    and only the batches ``before`` arrive, each ahead of the service's
    turn and all of them kept: a one-tick window."""
    out, drops = [], []
    offered = process_window(insts, queue, tick, tick + 1, budget, cost, 10 ** 9,
                             [[batch] for batch in before], [], out, drops)
    assert (offered, drops) == (sum(map(len, before)), [])
    return out[0]


def test_dispatch_enqueues_until_capacity():
    # Nine single requests take nine of ten slots, and a fan-out of three
    # keeps its first request only. What comes later drops whole, before
    # the service's turn or after it. Nothing admitted in the tick is taken.
    inst = InstanceRuntime("i", 0)
    before = [[[i]] for i in range(9)] + [[[97, 98, 99]], [[100]]]
    after = [[[101]], [[101]]]
    queue, out, drops = [], [], []
    assert process_window([inst], queue, 0, 1, 10, 5, 10, before, after, out, drops) == 15
    assert queue == list(range(9)) + [97]
    assert drops == [[98, 99], [100], [101], [101]]
    assert out == [[]]


def test_dispatch_empty_queue_enqueues_front():
    inst = InstanceRuntime("i", 0)
    queue, out, drops = [], [], []
    # Not takeable before the service's turn ends, then first in line.
    assert process_window([inst], queue, 0, 1, 10, 5, 10, [[[5]]], [], out, drops) == 1
    assert (queue, out) == ([5], [[]])
    assert process_window([inst], queue, 1, 2, 10, 5, 10, [], [], out, drops) == 0
    assert (out, drops) == ([[], [5]], [])


def test_dispatch_ready_counts_what_it_admits_as_ready():
    # What a service emits to one declared before it arrives after that
    # destination's turn: it is takeable on the destination's next turn.
    queue, drops = [1], []
    after = [[[2, 3, 4, 5]], [[6]]]
    assert process_window([], queue, 0, 1, 10, 5, 4, [], after, [], drops) == 5
    assert (queue, drops) == ([1, 2, 3, 4], [[5], [6]])
    assert one_tick([InstanceRuntime("i", 0)], queue, 1, 20, 5) == [1, 2, 3, 4]


@given(capacity=st.integers(1, 20), n_ready=st.integers(0, 25), n_pending=st.integers(0, 25),
       batches=st.lists(st.lists(st.integers(0, 999), max_size=6), max_size=10))
def test_one_dispatch_of_a_concatenation_equals_one_per_request_tuple(
        capacity, n_ready, n_pending, batches):
    # The engine admits a source's emissions to a destination in one batch
    # a tick: what one batch of them keeps, a batch per completion keeps.
    # The pending requests are a batch admitted earlier in the same tick.
    def admit(batches, late):
        queue, drops = list(range(-n_ready, 0)), []
        pending = [list(range(-n_ready - n_pending, -n_ready))]
        sources = [[reqs] for reqs in batches]
        offered = process_window([], queue, 0, 1, 1, 1, capacity,
                                 [pending] + ([] if late else sources), sources if late else [],
                                 [], drops)
        return offered, queue, [r for tail in drops for r in tail]

    for late in (False, True):
        assert admit([[r for reqs in batches for r in reqs]], late) == admit(batches, late)


def test_promotion_preserves_fifo():
    # Requests admitted during a tick queue behind the ready ones and are
    # taken after them, in admission order, once the service's turn has
    # made them ready.
    queue, out, drops = [0, 1], [], []
    inst = InstanceRuntime("i", 0)
    assert process_window([inst], queue, 0, 1, 10, 4, 10, [[[2, 3]]], [], out, drops) == 2
    assert (out, drops) == ([[0, 1]], [])
    assert (inst.cur_req, inst.left) == (-1, 0)
    assert queue == [2, 3]
    assert one_tick([inst], queue, 1, 10, 4) == [2, 3]


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
    ready = [1, 2, 3, 4]
    a = InstanceRuntime("a", 0)
    b = InstanceRuntime("b", 0)
    assert one_tick([a], ready, 0, 10, 5) == [1, 2]
    assert one_tick([b], ready, 0, 10, 5) == [3, 4]


def test_shared_queue_completions_come_back_in_list_order():
    ready = list(range(7))
    a = InstanceRuntime("a", 0)
    b = InstanceRuntime("b", 0)
    # a takes 0 and 1 and starts 2 with 2 of its 10 left; b does the same
    # with 3, 4 and 5.
    assert one_tick([a, b], ready, 0, 10, 4) == [0, 1, 3, 4]
    assert list(ready) == [6]
    assert (a.cur_req, a.left) == (2, 2) and (b.cur_req, b.left) == (5, 2)
    assert one_tick([b, a], ready, 1, 10, 4) == [5, 6, 2]


def test_instance_not_started_is_skipped():
    ready = [1, 2, 3]
    warm = InstanceRuntime("w", 60)
    live = InstanceRuntime("l", 0)
    assert one_tick([warm, live], ready, 59, 10, 5) == [1, 2]
    assert warm.cur_req == -1
    assert one_tick([warm, live], ready, 60, 10, 5) == [3]


# -- per-tick budget accounting ---------------------------------------------------

def test_request_spanning_ticks_completes_on_third():
    inst = InstanceRuntime("i", 0)
    ready = [7]
    assert one_tick([inst], ready, 0, 10, 25) == []
    assert one_tick([inst], ready, 1, 10, 25) == []
    assert one_tick([inst], ready, 2, 10, 25) == [7]


def test_budget_not_banked_when_idle():
    inst = InstanceRuntime("i", 0)
    assert one_tick([inst], [], 0, 10, 15) == []
    ready = [3]
    # Fresh tick: only 10 of 15 spent despite the idle tick before.
    assert one_tick([inst], ready, 1, 10, 15) == []
    assert one_tick([inst], ready, 2, 10, 15) == [3]


def test_image_recognizer_cost_rate():
    # MCL 91/s at 30 ticks/s: budget 91 per tick, 30 per request.
    mcl = Fraction(91)
    inst = InstanceRuntime("i", 0)
    ready = list(range(10000))
    done = 0
    for tick in range(30 * 60):
        done += len(one_tick([inst], ready, tick, mcl.numerator, 30 * mcl.denominator))
    assert done == 91 * 60


@given(mcl=st.fractions(min_value=Fraction(1, 50), max_value=500, max_denominator=60),
       tps=st.integers(1, 60), ticks=st.integers(1, 300))
def test_saturated_instance_completes_floor_of_budget_over_cost(mcl, tps, ticks):
    budget, cost = mcl.numerator, tps * mcl.denominator
    inst = InstanceRuntime("i", 0)
    ready = list(range(ticks * budget // cost + 2))
    done = 0
    for tick in range(ticks):
        done += len(one_tick([inst], ready, tick, budget, cost))
        assert done == (tick + 1) * budget // cost


def test_zero_cost_drains_entire_queue():
    inst = InstanceRuntime("i", 0)
    ready = list(range(500))
    assert len(one_tick([inst], ready, 0, 1, 0)) == 500


def test_draining_instance_finishes_current_only():
    inst = InstanceRuntime("i", 0)
    ready = [1, 2]
    inst.cur_req = 0
    inst.left = 4
    inst.draining = True
    assert one_tick([inst], ready, 0, 10, 8) == [0]
    assert list(ready) == [1, 2]
    assert one_tick([inst], ready, 1, 10, 8) == []


def test_carried_request_costing_the_whole_budget_pops_nothing():
    inst = InstanceRuntime("i", 0)
    inst.cur_req = 0
    inst.left = 10
    ready = [1, 2]
    assert one_tick([inst], ready, 0, 10, 8) == [0]
    assert list(ready) == [1, 2]
    assert inst.cur_req == -1


def test_draining_instance_carries_remainder_over_budget():
    inst = InstanceRuntime("i", 0)
    inst.cur_req = 0
    inst.left = 25
    inst.draining = True
    ready = [1]
    assert one_tick([inst], ready, 0, 10, 8) == []
    assert (inst.cur_req, inst.left) == (0, 15)
    assert one_tick([inst], ready, 1, 10, 8) == []
    assert (inst.cur_req, inst.left) == (0, 5)
    assert one_tick([inst], ready, 2, 10, 8) == [0]
    assert list(ready) == [1]


def test_fresh_request_spending_budget_to_zero_starts_no_other():
    inst = InstanceRuntime("i", 0)
    ready = [1, 2, 3]
    assert one_tick([inst], ready, 0, 10, 5) == [1, 2]
    assert list(ready) == [3]
    assert (inst.cur_req, inst.left) == (-1, 0)


def reference_tick(insts, ready: deque, tick, budget, cost):
    """The kernel one request at a time: pop, then spend or carry."""
    completed = []
    for inst in insts:
        if tick < inst.ready_at:
            continue
        credit = budget
        if inst.cur_req >= 0:
            if inst.left > credit:
                inst.left -= credit
                continue
            credit -= inst.left
            completed.append(inst.cur_req)
            inst.cur_req, inst.left = -1, 0
            if credit == 0:
                continue
        if inst.draining:
            continue
        while ready:
            req = ready.popleft()
            if cost > credit:
                inst.cur_req, inst.left = req, cost - credit
                break
            credit -= cost
            completed.append(req)
            if credit == 0:
                break
    return completed


BUDGETS = st.sampled_from([10, 30, 91, 1, 7]) | st.integers(1, 200)
COSTS = st.sampled_from([0, 5, 30, 25, 4, 91, 3]) | st.integers(0, 300)


@st.composite
def instances(draw, budget):
    inst = InstanceRuntime("i", draw(st.integers(0, 2)))
    inst.draining = draw(st.booleans())
    if draw(st.booleans()):
        inst.cur_req = 1000
        # A carried cost above, at or below the budget.
        inst.left = draw(st.sampled_from([budget, 2 * budget, budget // 3 + 1])
                         | st.integers(1, 3 * budget))
    return inst


def clones(insts):
    copies = []
    for inst in insts:
        copy = InstanceRuntime(inst.iid, inst.ready_at)
        copy.draining, copy.cur_req, copy.left = inst.draining, inst.cur_req, inst.left
        copies.append(copy)
    return copies


def carrying(ready_at=0, draining=False, left=0):
    """An instance starting at ``ready_at`` that, if ``left``, carries
    request 1000 with ``left`` of its cost owed."""
    inst = InstanceRuntime("i", ready_at)
    inst.draining = draining
    if left:
        inst.cur_req, inst.left = 1000, left
    return inst


class Scripted:
    """Stands in for ``st.data()`` in an ``@example``: its draws return
    fresh copies of ``values``, in order."""

    def __init__(self, *values):
        self.values = values
        self.drawn = 0

    def draw(self, strategy):
        value = copy.deepcopy(self.values[self.drawn % len(self.values)])
        self.drawn += 1
        return value


def carry_exact(insts):
    """An instance owes cost exactly when it carries a request."""
    return all((inst.cur_req == -1) == (inst.left == 0) for inst in insts)


# Every branch of the kernel on every run. A service that never carries a
# request: one draining instance and one starting inside the run.
@example(data=Scripted([carrying(draining=True), carrying(), carrying(ready_at=1)],
                       [2000, 2001]), budget=300, cost=30, n_ready=60, ticks=3)
# Cost 0, with carried requests: one finished with budget to spare, one
# that costs the whole budget, one over the budget.
@example(data=Scripted([carrying(left=4), carrying(left=10), carrying(left=25), carrying()],
                       [2000]), budget=10, cost=0, n_ready=5, ticks=3)
# Carried costs above the cost but at most the budget.
@example(data=Scripted([carrying(left=50), carrying(left=91), carrying(draining=True, left=40),
                        carrying()], []), budget=91, cost=30, n_ready=20, ticks=3)
# Carried costs above the budget.
@example(data=Scripted([carrying(left=200), carrying(draining=True, left=100), carrying()],
                       [2000]), budget=91, cost=30, n_ready=12, ticks=3)
@given(data=st.data(), budget=BUDGETS, cost=COSTS, n_ready=st.integers(0, 60),
       ticks=st.integers(1, 3))
def test_kernel_matches_one_request_at_a_time(data, budget, cost, n_ready, ticks):
    insts = data.draw(st.lists(instances(budget), max_size=6))
    copies = clones(insts)
    # Behind the ready requests, a batch admitted in tick 0 ahead of the
    # service's turn, which the kernel must leave where it is until tick 1.
    tail = data.draw(st.lists(st.integers(2000, 2999), max_size=8))
    queue, expected_ready = list(range(n_ready)), deque(range(n_ready))
    for tick in range(ticks):
        assert (one_tick(insts, queue, tick, budget, cost, [] if tick else [tail])
                == reference_tick(copies, expected_ready, tick, budget, cost))
        if not tick:
            expected_ready.extend(tail)
        assert queue == list(expected_ready)
        assert [(i.cur_req, i.left) for i in insts] == [(c.cur_req, c.left) for c in copies]
        assert carry_exact(insts)


def reference_window(insts, ready, ticks, budget, cost, capacity, before, after):
    """A window one request at a time: per tick, each batch before the turn
    admitted request by request while the queue has room, the tick's
    ``reference_tick``, then each batch after the turn. Returns the
    completions per tick, the dropped tails, the queue at the end and the
    requests offered."""
    ready = deque(ready)
    out, tails, offered = [], [], 0
    for tick in range(ticks):
        admitted = []

        def admit(batches):
            nonlocal offered
            for batch in batches:
                offered += len(batch)
                tail = []
                for r in batch:
                    (admitted if len(ready) + len(admitted) < capacity else tail).append(r)
                if tail:
                    tails.append(tail)

        admit(b[tick] for b in before)
        out.append(reference_tick(insts, ready, tick, budget, cost))
        admit(b[tick] for b in after)
        ready.extend(admitted)
    return out, tails, list(ready), offered


# The kernel's branches inside one window, as above; each draws the
# instances, the batches before and after the turn and the queue's length.
# A one-slice service that keeps up is a delay line: each tick completes
# what the tick before admitted. It holds here with two sources before the
# turn and one after it, and with one source, over windows of several ticks,
# also while an instance starts inside the window.
@example(data=Scripted([carrying(), carrying(draining=True), carrying()],
                       [[[11, 12], [13], [], [14, 15]], [[21], [], [22], []]],
                       [[[31], [], [32, 33], [34]]], 3), budget=300, cost=30, capacity=10, ticks=4)
@example(data=Scripted([carrying(), carrying(ready_at=2)], [[[11, 12], [13, 14, 15], [16]]], [],
                       5), budget=10, cost=2, capacity=10, ticks=3)
# Each of its conditions failing alone, in a window that the delay line
# would get wrong: more ready requests than the started instances take, a
# tick's batches more than they take, more ready and admitted requests than
# the queue holds, and two ticks' batches that it cannot hold.
@example(data=Scripted([carrying()], [[[11], [12, 13]]], [[[14], []]], 3),
         budget=10, cost=5, capacity=8, ticks=2)
@example(data=Scripted([carrying()], [[[11, 12], [13]]], [[[14], []]], 1),
         budget=10, cost=5, capacity=8, ticks=2)
@example(data=Scripted([carrying()], [[[11, 12, 13], [14]]], [[[], [15]]], 4),
         budget=7, cost=0, capacity=6, ticks=2)
@example(data=Scripted([carrying()], [[[11, 12], [13, 14, 15, 16]]], [[[17, 18], []]], 1),
         budget=300, cost=30, capacity=7, ticks=2)
# A one-slice service whose second instance starts inside the window: the
# first alone takes fewer than are ready, so the delay line does not hold.
@example(data=Scripted([carrying(), carrying(ready_at=1)], [[[11], [12]]], [], 4),
         budget=10, cost=5, capacity=10, ticks=2)
# A one-slice service with no inlets.
@example(data=Scripted([carrying(), carrying(ready_at=1)], [], [], 9),
         budget=300, cost=30, capacity=9, ticks=3)
@example(data=Scripted([carrying(draining=True), carrying(ready_at=2)],
                       [[[1, 2, 3], [4], [], [5, 6, 7, 8, 9]]], [[[10], [11, 12], [], [13]]],
                       12), budget=300, cost=30, capacity=12, ticks=4)
@example(data=Scripted([carrying(left=3), carrying(ready_at=1, left=5), carrying()],
                       [[[1, 2], [3], [4, 5, 6, 7]]], [[[8], [], [9, 10]]], 4),
         budget=5, cost=0, capacity=6, ticks=3)
@example(data=Scripted([carrying(left=60), carrying(ready_at=1), carrying(draining=True, left=31)],
                       [[[1, 2, 3], [4, 5], [6]]], [[[7], [], [8, 9]]], 10),
         budget=91, cost=30, capacity=12, ticks=3)
@example(data=Scripted([carrying(left=25), carrying(ready_at=2, left=12), carrying()],
                       [[[1], [2, 3], [4], [5]]], [], 3), budget=10, cost=8, capacity=5, ticks=4)
@given(data=st.data(), budget=BUDGETS, cost=COSTS, capacity=st.integers(1, 12),
       ticks=st.integers(1, 5))
def test_a_window_equals_its_ticks_one_window_each(data, budget, cost, capacity, ticks):
    # Instances that start inside the window, a queue that fills and drops,
    # batches before and after the service's turn.
    insts = data.draw(st.lists(instances(budget), max_size=4))
    copies = clones(insts)
    per_tick = st.lists(st.lists(st.integers(0, 999), max_size=5), min_size=ticks,
                        max_size=ticks)
    before = data.draw(st.lists(per_tick, max_size=3))
    after = data.draw(st.lists(per_tick, max_size=3))
    n_ready = data.draw(st.integers(0, capacity))
    batches = copy.deepcopy((before, after))
    one_by_one = clones(insts)
    queue, out, drops = list(range(n_ready)), [], []
    offered = process_window(insts, queue, 0, ticks, budget, cost, capacity, before, after, out,
                             drops)
    # The completions may be the batches themselves, which no one mutates.
    assert (before, after) == batches
    ref_out, ref_drops, ref_queue, ref_offered = reference_window(
        one_by_one, range(n_ready), ticks, budget, cost, capacity, before, after)
    assert (out, drops, queue, offered) == (ref_out, ref_drops, ref_queue, ref_offered)
    each_queue, each_out, each_drops, each_offered = list(range(n_ready)), [], [], 0
    for tick in range(ticks):
        each_offered += process_window(copies, each_queue, tick, tick + 1, budget, cost, capacity,
                                       [[b[tick]] for b in before], [[b[tick]] for b in after],
                                       each_out, each_drops)
        assert carry_exact(copies)
    assert (queue, out, drops, offered) == (each_queue, each_out, each_drops, each_offered)
    assert [(i.cur_req, i.left) for i in insts] == [(c.cur_req, c.left) for c in copies]
    assert [(i.cur_req, i.left) for i in insts] == [(c.cur_req, c.left) for c in one_by_one]
    assert carry_exact(insts)


# -- leaf counts ----------------------------------------------------------------

def part_emissions(arch, svc, part, flag, blocks, attachments, mask):
    """The (service, part, virus flag) of each request that one request of
    ``part`` and ``flag`` emits on completing at ``svc``, edge by edge in
    spec order, for an email of the given shape."""
    emitted = []
    for e in arch.pipeline:
        if e.src != svc or (e.when == "clean" and flag) or (e.when == "infected" and not flag):
            continue
        if e.part == "report" or (part == "email" and e.part in ("header", "links", "text")):
            emitted.append((e.dst, e.part, 0))
        elif e.part == part:
            emitted.append((e.dst, part, flag))
        elif part == "email" and e.part == "attachment":
            emitted += [(e.dst, "attachment", mask >> j & 1) for j in range(attachments)]
        elif part == "text" and e.part == "block":
            emitted += [(e.dst, "block", 0)] * blocks
    return emitted


def expanded_leaves(arch, blocks, attachments, mask):
    """Completions that emit nothing when one email's requests are expanded
    one at a time along the pipeline's edges."""
    leaves = 0
    queue = [(arch.entry_service(), "email", 0)]
    while queue:
        emitted = part_emissions(arch, *queue.pop(), blocks, attachments, mask)
        leaves += not emitted
        queue += emitted
    return leaves


@st.composite
def email_batches(draw, profile):
    (b_lo, b_hi), (a_lo, a_hi) = profile.block_count_support, profile.attachment_count_support
    rows = draw(st.lists(st.tuples(st.integers(b_lo, b_hi), st.integers(a_lo, a_hi),
                                   st.integers(0, 2 ** a_hi - 1)), min_size=1, max_size=20))
    return [(b, a, m & (1 << a) - 1) for b, a, m in rows]


ARCHS = {"reference": None, "route_shapes": ROUTE_SHAPES_ARCH,
         "fanout_leaves": FANOUT_LEAVES_ARCH}


@pytest.mark.parametrize("name", sorted(ARCHS))
def test_leaf_count_matches_per_request_expansion(name, reference_arch):
    arch = reference_arch if ARCHS[name] is None else parse_architecture_data(ARCHS[name])
    routes, entry = _compile_routes(arch)

    @given(emails=email_batches(arch.profile))
    def check(emails):
        for email in emails:
            assert _leaves(routes, entry, P_EMAIL << 1, email, {}) == expanded_leaves(arch, *email)

    check()


WIRE_ARCHS = {**ARCHS, "wires": WIRES_ARCH}


@pytest.mark.parametrize("name", sorted(WIRE_ARCHS))
def test_wire_routes_keep_part_semantics(name, reference_arch):
    # Walk one email's requests along the compiled wire routes and along the
    # pipeline's part semantics side by side: at every completion both emit
    # to the same services in the same order, and each (service, wire) only
    # ever carries one (part, flag).
    arch = reference_arch if WIRE_ARCHS[name] is None else parse_architecture_data(WIRE_ARCHS[name])
    routes, entry = _compile_routes(arch)
    names = [s.name for s in arch.services]
    meanings = {}  # (service, wire) -> {(part, flag)}

    def walk(shape):
        queue = [(entry, P_EMAIL << 1, "email", 0)]
        while queue:
            svc, wire, part, flag = queue.pop()
            meanings.setdefault((svc, wire), set()).add((part, flag))
            wired = [(dst, o) for dst, mode, bits in routes[svc][0][wire]
                     for o in _emitted(mode, bits, shape)]
            parts = part_emissions(arch, names[svc], part, flag, *shape)
            assert [names[dst] for dst, _ in wired] == [dst for dst, _, _ in parts]
            queue += [(dst, o, p, f) for (dst, o), (_, p, f) in zip(wired, parts)]

    # An email with the most blocks and attachments, one infected and the
    # rest clean, reaches every wire that can reach a service.
    (_, blocks), (_, attachments) = (arch.profile.block_count_support,
                                     arch.profile.attachment_count_support)
    walk((blocks, attachments, 1))
    assert all(sorted(w for s, w in meanings if s == svc) == arriving
               for svc, (_, arriving) in enumerate(routes))

    @given(emails=email_batches(arch.profile))
    def check(emails):
        for email in emails:
            walk(email)

    check()
    assert all(len(parts) == 1 for parts in meanings.values())


def test_single_part_edges_forward_completions_unchanged(reference_arch):
    routes, _ = _compile_routes(reference_arch)
    index = {s.name: i for i, s in enumerate(reference_arch.services)}
    shapes, shape_of = [(1, 2, 1), (3, 0, 0)], [0, 1]
    forwards = {"MessageParser": {"HeaderAnalyser", "LinkAnalyser", "TextAnalyser"},
                "HeaderAnalyser": {"MessageAnalyser"}, "LinkAnalyser": {"MessageAnalyser"},
                "TextAnalyser": {"MessageAnalyser"}}
    for src, dsts in forwards.items():
        fires, arriving = routes[index[src]]
        assert arriving == [0]  # each service's one arriving wire is 0
        emitters = dict(_service_routes(fires, arriving, shapes, shape_of)[0])
        assert all(emitters[index[dst]] is FORWARD for dst in dsts)


def emitter_form(emit):
    """The form of a compiled emitter, told by the names its closure reads:
    ``forward``, ``filter``, ``offset`` (one per-shape table of offsets,
    for one arriving wire) or ``general`` (per nibble and per shape)."""
    if emit is FORWARD:
        return "forward"
    return {("fixed",): "filter", ("offsets", "shape_of"): "offset",
            ("shape_of", "tables"): "general"}[tuple(sorted(emit.__code__.co_freevars))]


def profile_shapes(profile):
    """Every shape (blocks, attachments, virus mask) the profile can draw."""
    (b_lo, b_hi), (a_lo, a_hi) = profile.block_count_support, profile.attachment_count_support
    return [(b, a, m) for b in range(b_lo, b_hi + 1) for a in range(a_lo, a_hi + 1)
            for m in range(2 ** a)]


def built_forms(arch):
    """The forms of the emitters and of the leaf filters that the services
    of ``arch`` build when every shape the profile allows is drawn."""
    routes, _ = _compile_routes(arch)
    shapes = profile_shapes(arch.profile)
    emitters, leaves = [], []
    for fires, arriving in routes:
        emits, leaf = _service_routes(fires, arriving, shapes, list(range(len(shapes))))
        emitters += [emitter_form(emit) for _, emit in emits]
        leaves += [] if leaf is None else [emitter_form(leaf)]
    return sorted(emitters), sorted(leaves)


def test_reference_emitter_forms(reference_arch):
    emitters, leaves = built_forms(reference_arch)
    assert emitters == ["filter"] * 2 + ["forward"] * 11 + ["offset"] * 2
    assert leaves == ["forward"] * 3
    # The wire test architectures build the general form too, and
    # fanout_leaves a leaf filter of offsets.
    assert all("general" in built_forms(parse_architecture_data(WIRE_ARCHS[name]))[0]
               for name in ("route_shapes", "wires"))
    assert "offset" in built_forms(parse_architecture_data(FANOUT_LEAVES_ARCH))[1]


def test_an_offset_emitter_on_a_wire_other_than_0():
    # Every built architecture's offset emitters read wire 0. On wire 3, a
    # request of email e is e << 4 | 3 and emits e << 4 | o for each o of
    # its shape's table, across a window of three ticks.
    tables = ((),) * 3 + (((5,), (5, 6), ()),) + ((),) * 12
    emit = _emitter(tables, [3], [0, 1, 2])
    assert emitter_form(emit) == "offset"
    assert emit([[3, 19, 35], [], [19]]) == [[5, 21, 22], [], [21, 22]]


@pytest.mark.parametrize("name", sorted(WIRE_ARCHS))
def test_emitters_match_the_per_completion_expansion(name, reference_arch):
    # Whatever form an emitter or a leaf filter takes, it maps a window's
    # completions tick by tick: it returns, per tick and per completion in
    # completion order, one ``req & -16 | o`` for each nibble ``o`` that the
    # edges to its destination emit, in spec order; a leaf filter, the
    # completions that emit nothing. A window of several ticks maps to what
    # a one-tick window of each of them maps to.
    arch = reference_arch if WIRE_ARCHS[name] is None else parse_architecture_data(WIRE_ARCHS[name])
    routes, _ = _compile_routes(arch)

    @given(data=st.data(), emails=email_batches(arch.profile))
    def check(data, emails):
        shapes = sorted(set(emails))
        shape_of = [shapes.index(email) for email in emails]
        for fires, arriving in routes:
            if not arriving:
                continue
            done = st.lists(st.builds(lambda eid, wire: eid << 4 | wire,
                                      st.integers(0, len(emails) - 1), st.sampled_from(arriving)))
            window = data.draw(st.lists(done, min_size=1, max_size=4))

            def emitted(r, d=None):
                shape = shapes[shape_of[r >> 4]]
                return [o for dst, mode, bits in fires[r & 15] if d in (None, dst)
                        for o in _emitted(mode, bits, shape)]

            def mapped(emit, window):
                return window if emit is FORWARD else emit(window)

            emitters, leaf = _service_routes(fires, arriving, shapes, shape_of)
            for d, emit in emitters:
                expected = [[r & -16 | o for r in done for o in emitted(r, d)] for done in window]
                assert mapped(emit, window) == expected
                assert [mapped(emit, [done])[0] for done in window] == expected
            leaves = [[r for r in done if not emitted(r)] for done in window]
            if leaf is None:
                assert leaves == [[]] * len(window)
            else:
                assert mapped(leaf, window) == leaves
                assert [mapped(leaf, [done])[0] for done in window] == leaves

    check()


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


def test_rollup_closes_a_short_last_interval(reference_arch, reference_ladder):
    # 45 ticks at 30 per second: one full row, then a row of half a second.
    cfg = SimConfig(duration=45, workload=WorkloadSpec(Steps(((0, 40.0),))),
                    seed=1, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert [(r.t_s, r.generated, r.inbound_eps) for r in tl.rows] == [(0, 40, 40.0), (1, 20, 40.0)]


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
    # Capacity reaches the 170/s peak on the tick the warmed instance comes
    # online: a run cut just before that tick never holds it, and the last
    # row of a run cut just after it does.
    before = run_simulation(arch, ladder, dataclasses.replace(cfg, duration=ready_tick))
    assert all(row.capacity_eps < 170 for row in before.rows)
    after = run_simulation(arch, ladder, dataclasses.replace(cfg, duration=ready_tick + 1))
    assert after.rows[-1].capacity_eps >= 170


def test_throughput_ceiling_at_saturation():
    arch = tiny_arch()
    # The global policy needs a largest scale that grows Gate and Sink.
    table, ladder = ladder_for(arch, increments=(150,))
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


def test_global_refusal_names_the_covering_rule():
    # Base target 40 and increments (40, 80) give Receiver no instance in
    # either delta, while Receiver has a finite MCL and MF 1.
    arch = parse_architecture_data(ROUTE_SHAPES_ARCH)
    _, ladder = ladder_for(arch, base=40, increments=(40, 80))
    cfg = SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 1.0),))), seed=1,
                    exact_arrivals=True)
    with pytest.raises(SimulationError) as err:
        run_simulation(arch, ladder, cfg)
    assert str(err.value) == (
        "the global policy needs a ladder whose largest scale adds an instance to "
        "every service with a finite MCL and an MF above 0")
    local = run_simulation(arch, ladder, dataclasses.replace(cfg, policy=Policy.LOCAL))
    assert local.generated == 1


def test_global_refuses_a_ladder_without_scales(tmp_path):
    # A ladder with no scales has no largest scale to stack: the named
    # refusal, not an IndexError from looking that scale up.
    spec = ExperimentSpec(architecture=str(reference_architecture_path()),
                          policies=(Policy.GLOBAL,), output=str(tmp_path / "g"),
                          duration_s=2, seed=1, exact_arrivals=True,
                          workload=WorkloadSpec(Steps(((0, 10.0),))), scale_increments=())
    with pytest.raises(SimulationError, match="largest scale adds an instance to every service"):
        run_experiment(spec)
    local = run_experiment(dataclasses.replace(
        spec, policies=(Policy.LOCAL,), output=str(tmp_path / "l"))).timelines[Policy.LOCAL]
    assert local.generated == 20 and local.dropped_requests == 0


def test_global_refuses_a_delta_without_instances(reference_arch):
    # Increments (1, 2, 330) pass the covering rule, but D2 adds no instance:
    # a run that stacks it would fail at its first scale-up on placement.
    table = build_capacity_table(reference_arch)
    ladder = synthesize_scale_ladder(Fraction(60), [Fraction(x) for x in (1, 2, 330)], table)
    assert not any(ladder.deltas[1].counts)
    assert ladder.last_scale_covers_finite_services(table)
    cfg = SimConfig(duration=20 * 30, workload=WorkloadSpec(Steps(((0, 100.0),))), seed=1,
                    exact_arrivals=True)
    with pytest.raises(SimulationError, match="cannot deploy D2: it adds no instance"):
        run_simulation(reference_arch, ladder, cfg)
    local = run_simulation(reference_arch, ladder, dataclasses.replace(cfg, policy=Policy.LOCAL))
    assert any(e.action == "deploy" for e in local.events)
    assert local.generated == local.completed + local.lost + local.in_flight_end


def test_global_defers_an_undeploy_until_its_delta_is_online():
    # D1 = (1, 1) is deployed at tick 29 and comes online 60 ticks later,
    # at tick 89. The demand falls to 0 at tick 30, so the monitor at tick
    # 59 must hold the warming delta, and the one at tick 89 undeploys it.
    arch = tiny_arch()
    _, ladder = ladder_for(arch, base=60, increments=(200,))
    assert [d.counts for d in ladder.deltas] == [(1, 1)]
    cfg = SimConfig(duration=150, workload=WorkloadSpec(Steps(((0, 200.0), (30, 0.0)))),
                    seed=1, policy=Policy.GLOBAL, exact_arrivals=True,
                    params=ScalerParams(monitoring_period=30))
    tl = run_simulation(arch, ladder, cfg)
    assert [(e.tick, e.action, e.detail) for e in tl.events] == [
        (29, "deploy", "0->1"),
        (59, "defer", "1 undeploys while warming"),
        (89, "undeploy", "1->0"),
    ]


def test_invalid_architecture_rejected(reference_ladder):
    doc = parse_architecture_data({
        "services": [{"name": "A", "cost": {"Cores": 0, "Memory": 0}}],
        "vm_catalog": [], "profile": {}, "pipeline": [],
    })
    cfg = SimConfig(duration=30, workload=WorkloadSpec(Steps(((0, 1.0),))), seed=1)
    with pytest.raises(SimulationError, match="validation"):
        run_simulation(doc, reference_ladder, cfg)


def test_cyclic_pipeline_rejected(reference_arch, reference_ladder):
    # Clean attachments sent back to VirusScanner would circle until dropped.
    arch = dataclasses.replace(reference_arch, pipeline=reference_arch.pipeline + (
        PipelineEdge("AttachmentManager", "VirusScanner", "attachment"),))
    cfg = SimConfig(duration=30 * 30, workload=WorkloadSpec(Steps(((0, 50.0),))), seed=1)
    with pytest.raises(SimulationError, match=r"AttachmentManager -> VirusScanner\]\.to: closes"):
        run_simulation(arch, reference_ladder, cfg)


def link_as_header(name):
    return "HeaderAnalyser" if name == "LinkAnalyser" else name


def renamed_service(arch):
    return dataclasses.replace(arch, services=tuple(
        dataclasses.replace(s, name=link_as_header(s.name)) for s in arch.services))


def renamed_service_and_edges(arch):
    return dataclasses.replace(renamed_service(arch), pipeline=tuple(
        dataclasses.replace(e, src=link_as_header(e.src), dst=link_as_header(e.dst))
        for e in arch.pipeline))


def unknown_weak_requirement(arch):
    nsfw = arch.service_index("NSFWDetector")
    services = list(arch.services)
    services[nsfw] = dataclasses.replace(services[nsfw], weak_requires=("Archive",))
    return dataclasses.replace(arch, services=tuple(services))


def second_root(arch):
    extra = dataclasses.replace(arch.services[0], name="Extra")
    return dataclasses.replace(arch, services=arch.services + (extra,), pipeline=arch.pipeline
                               + (PipelineEdge("Extra", arch.pipeline[0].dst, "email"),))


def unmatched_edge(arch):
    return dataclasses.replace(arch, pipeline=arch.pipeline + (
        PipelineEdge("HeaderAnalyser", "SentimentAnalyser", "block"),))


def strong_cycle(arch):
    # ImageRecognizer strongly requires AttachmentManager, which needs
    # ImageAnalyser, which needs ImageRecognizer.
    return dataclasses.replace(arch, services=tuple(
        dataclasses.replace(s, strong_requires=("AttachmentManager",))
        if s.name == "ImageRecognizer" else s for s in arch.services))


def oversized_entry(arch):
    big = dataclasses.replace(arch.services[0], memory_required=max(
        vm.memory for vm in arch.vm_catalog) + 1)
    return dataclasses.replace(arch, services=(big,) + arch.services[1:])


@pytest.mark.parametrize("change,policy,error,message", [
    (lambda arch: arch, "x", ValueError, "unknown policy 'x'"),
    (second_root, Policy.LOCAL, SimulationError, "pipeline has no unique entry service"),
    (unmatched_edge, Policy.LOCAL, SimulationError,
     r"pipeline edge HeaderAnalyser -> SentimentAnalyser \(block\) "
     "matches no part arriving at HeaderAnalyser"),
    (lambda arch: dataclasses.replace(arch, services=(), pipeline=()), Policy.LOCAL,
     SimulationError, "cannot simulate an architecture without services"),
    (oversized_entry, Policy.LOCAL, SimulationError,
     "infeasible initial base deployment: service 'MessageReceiver' needs 2 cores / 64001 MB"),
    # LinkAnalyser renamed to HeaderAnalyser: two services share a name, and
    # MessageParser strongly requires a service that no longer exists.
    (renamed_service, Policy.LOCAL, SimulationError, re.escape(
        "architecture fails validation: "
        "service MessageParser.strong_requires: unknown service 'LinkAnalyser'; "
        "service HeaderAnalyser.name: duplicate service name; "
        "pipeline[MessageParser -> LinkAnalyser].to: unknown service 'LinkAnalyser'; "
        "pipeline[LinkAnalyser -> MessageAnalyser].from: unknown service 'LinkAnalyser'")
     + "$"),
    (renamed_service_and_edges, Policy.LOCAL, SimulationError, re.escape(
        "architecture fails validation: "
        "service MessageParser.strong_requires: unknown service 'LinkAnalyser'; "
        "service HeaderAnalyser.name: duplicate service name") + "$"),
    (unknown_weak_requirement, Policy.LOCAL, SimulationError,
     "architecture fails validation: "
     "service NSFWDetector.weak_requires: unknown service 'Archive'$"),
    (lambda arch: dataclasses.replace(arch, vm_catalog=arch.vm_catalog + arch.vm_catalog[:1]),
     Policy.LOCAL, SimulationError,
     "architecture fails validation: vm large.name: duplicate VM type name$"),
    (strong_cycle, Policy.GLOBAL, SimulationError, re.escape(
        "architecture fails validation: service ImageRecognizer.strong_requires: "
        "closes the strong-dependency cycle "
        "AttachmentManager -> ImageAnalyser -> ImageRecognizer -> AttachmentManager: "
        "no service on it can be deployed first") + "$"),
], ids=["unknown_policy", "second_root", "unmatched_edge", "no_services", "oversized_entry",
        "renamed_service", "renamed_service_and_edges", "unknown_weak_requirement",
        "duplicate_vm_type", "strong_cycle"])
def test_bad_runs_refused_by_name(change, policy, error, message, reference_arch):
    # The bundled architecture changed in one way, with a ladder synthesized
    # for the changed services.
    arch = change(reference_arch)
    _, ladder = ladder_for(arch, increments=(60, 150, 240, 330))
    with pytest.raises(error, match=message):
        run_simulation(arch, ladder, SimConfig(
            duration=30, workload=WorkloadSpec(Steps(((0, 1.0),))), seed=1, policy=policy))


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
    assert any(row.capacity_eps >= 360 for row in tl.rows)


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


@contextmanager
def dangling_bindings():
    """(consumer, provider) of each binding to an instance no longer in the
    registry, checked after every applied orchestration in the block."""
    found = []
    apply = DeploymentRegistry.apply

    def checked(registry, orch):
        apply(registry, orch)
        found.extend((inst.instance_id, provider)
                     for inst in registry.instances.values()
                     for _, provider in (*inst.strong_bindings, *inst.weak_bindings)
                     if provider not in registry.instances)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeploymentRegistry, "apply", checked)
        yield found


@pytest.fixture
def dangling():
    """The dangling bindings found during the test (``dangling_bindings``)."""
    with dangling_bindings() as found:
        yield found


def test_scale_down_returns_to_base(reference_arch, reference_ladder, dangling):
    # The fall to 20 emails/s undoes every deployed delta in one decision,
    # and the units deployed later are bound to instances of earlier ones.
    cfg = SimConfig(duration=420 * 30,
                    workload=WorkloadSpec(Steps(((0, 250.0), (120 * 30, 20.0)))),
                    seed=17, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert tl.rows[60].deployed_deltas != "0|0|0|0"
    assert tl.rows[-1].deployed_deltas == "0|0|0|0"
    assert tl.rows[-1].service_counts == tuple(reference_ladder.base.counts)
    undeploys = [e for e in tl.events if e.action == "undeploy"]
    assert [e.detail for e in undeploys] == ["1|1|1|0->0|0|0|0"]
    assert dangling == []


def test_a_rise_across_a_stack_level_undoes_newest_first(reference_arch, reference_ladder,
                                                       dangling):
    # 150 -> 450 -> 330 emails/s: the rise from 1|1|0|0 stacks D3, D4 and
    # then a second D1 and D2, and the fall undoes those two, newest first,
    # so no unit bound to their instances outlives them.
    cfg = SimConfig(duration=240 * 30,
                    workload=WorkloadSpec(Steps(((0, 150.0), (1200, 450.0), (3600, 330.0)))),
                    seed=1, policy=Policy.GLOBAL, exact_arrivals=True)
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert [e.detail for e in tl.events if e.action != "defer"] == [
        "0|0|0|0->1|1|0|0", "1|1|0|0->2|2|1|1", "2|2|1|1->1|1|1|1"]
    assert dangling == []


def assert_deltas_canonical(tl):
    for row in tl.rows:
        assert delta_vector_is_canonical(tuple(map(int, row.deployed_deltas.split("|")))), row


def test_global_deltas_stay_canonical_under_a_jittered_surge(reference_arch, reference_ladder):
    # At seed 3 the fall from 300 emails/s comes while the newest unit
    # warms: the undeploys wait as a whole, never only the older ones.
    cfg = SimConfig(duration=600 * 30, workload=WorkloadSpec(SURGE_STEPS, jitter=0.2), seed=3,
                    policy=Policy.GLOBAL, params=ScalerParams(monitoring_period=5 * 30))
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert any(e.action == "defer" for e in tl.events)
    assert_deltas_canonical(tl)


@st.composite
def required_architectures(draw):
    """A chain of 2 to 4 services of finite MCL, the entry's 15, each
    strongly or weakly requiring some of those after it, packed on one VM
    type: a delta's consumers may bind to providers of older units."""
    n = draw(st.integers(2, 4))
    services = []
    for i in range(n):
        later = [f"S{j}" for j in range(i + 1, n)]
        required = draw(st.lists(st.sampled_from(later), unique=True)) if later else []
        strong = draw(st.integers(0, len(required)))
        mcl = draw(st.sampled_from(["15", "40", "90"])) if i else "15"
        services.append({"name": f"S{i}", "sig": required[:strong],
                         "weak_requires": required[strong:], "mf_rule": "unit",
                         "mcl": {"explicit_mcl": mcl},
                         "cost": {"Cores": draw(st.integers(1, 2)), "Memory": 100}})
    return parse_architecture_data({
        "services": services,
        "vm_catalog": [{"name": "box", "cores": 4, "memory": 4000, "speed_per_core": 5,
                        "startup_time": draw(st.sampled_from([0, 2, 5])), "cost": 1}],
        "profile": {},
        "pipeline": [{"from": f"S{i}", "to": f"S{i + 1}", "part": "email"}
                     for i in range(n - 1)],
    })


# Step runs on a required architecture: rates rise and fall across stack
# levels, one step every 4 s of a 1-tick-per-second run, a monitor every 1
# to 3 s.
step_runs = given(arch=required_architectures(),
                  increments=st.sampled_from([(15, 90), (15, 45, 90), (30, 60, 120)]),
                  rates=st.lists(st.sampled_from([5.0, 40.0, 90.0, 160.0, 250.0]),
                                 min_size=2, max_size=5),
                  period=st.integers(1, 3))


def run_leaving_no_dangling_binding(arch, increments, rates, period, policy):
    """The step run under ``policy``, asserting that no binding names a
    destroyed instance after any apply. Every level of the ladder is a
    multiple of 15 emails/s, so each delta adds an entry instance."""
    _, ladder = ladder_for(arch, base=15, increments=increments)
    cfg = SimConfig(duration=4 * len(rates) + 4, ticks_per_second=1, exact_arrivals=True,
                    workload=WorkloadSpec(Steps(tuple((4 * i, r) for i, r in enumerate(rates)))),
                    policy=policy,
                    params=ScalerParams(K=Fraction(5), k=Fraction(5), monitoring_period=period))
    with dangling_bindings() as found:
        tl = run_simulation(arch, ladder, cfg)
    assert found == []
    return tl


@settings(deadline=None, derandomize=True)
@step_runs
def test_global_units_leave_no_dangling_binding(arch, increments, rates, period):
    assert_deltas_canonical(
        run_leaving_no_dangling_binding(arch, increments, rates, period, Policy.GLOBAL))


@settings(deadline=None, derandomize=True)
@step_runs
def test_local_scale_downs_leave_no_dangling_binding(arch, increments, rates, period):
    # A scale-down keeps the instances a live instance strongly requires.
    run_leaving_no_dangling_binding(arch, increments, rates, period, Policy.LOCAL)


def test_local_removals_leave_no_binding_to_a_removed_instance(reference_arch,
                                                               reference_ladder, dangling):
    # The Poisson surge with rate jitter at seed 1 scales MessageAnalyser
    # down while NSFWDetector and VirusScanner instances are bound to it.
    cfg = SimConfig(duration=600 * 30, workload=WorkloadSpec(SURGE_STEPS, jitter=0.2), seed=1,
                    policy=Policy.LOCAL, params=ScalerParams(monitoring_period=5 * 30))
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert any(e.action == "undeploy" and e.scope == "MessageAnalyser" for e in tl.events)
    assert dangling == []


def test_local_scale_down_holds_a_strongly_required_instance(reference_arch, reference_ladder,
                                                            dangling):
    # At seed 20, AttachmentManager's scale-down 2 -> 1 at tick 12749 finds
    # both its instances strongly required, AttachmentManager-1 by
    # VirusScanner-11, so it holds one. At tick 12899 VirusScanner's own
    # scale-down removes VirusScanner-11 first, and AttachmentManager-1 goes.
    cfg = SimConfig(duration=600 * 30, workload=WorkloadSpec(SURGE_STEPS, jitter=0.2), seed=20,
                    policy=Policy.LOCAL, params=ScalerParams(monitoring_period=5 * 30))
    tl = run_simulation(reference_arch, reference_ladder, cfg)
    assert [(e.tick, e.action, e.detail) for e in tl.events
            if e.scope == "AttachmentManager"] == [
        (4949, "deploy", "1->2"),
        (12749, "defer", "hold 1 strongly required"),
        (12899, "undeploy", "2->1"),
    ]
    assert dangling == []


def test_services_without_requests_do_not_block_either_policy(all_virus_arch):
    # With every attachment infected, four services get MF 0 and no instance
    # in any delta; both policies still run and account for every email.
    table = build_capacity_table(all_virus_arch)
    ladder = synthesize_scale_ladder(Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], table)
    for policy in (Policy.GLOBAL, Policy.LOCAL):
        cfg = SimConfig(duration=60 * 30, workload=WorkloadSpec(Steps(((0, 100.0),))), seed=4,
                        policy=policy, exact_arrivals=True,
                        params=ScalerParams(monitoring_period=10 * 30))
        tl = run_simulation(all_virus_arch, ladder, cfg)
        assert tl.generated == 6000
        assert tl.completed > 0
        assert tl.generated == tl.completed + tl.lost + tl.in_flight_end


def test_a_scope_shares_only_the_same_architecture_and_traffic(reference_arch,
                                                               reference_ladder, draws):
    config = SimConfig(duration=20 * 30, workload=WorkloadSpec(Steps(((0, 50.0),))), seed=5,
                       exact_arrivals=True)
    with compare_scope():
        first = run_simulation(reference_arch, reference_ladder, config)
        # Another policy and queue: the same traffic, drawn once.
        run_simulation(reference_arch, reference_ladder,
                       dataclasses.replace(config, policy=Policy.LOCAL, queue_capacity=40))
        assert draws == {"generate_arrivals": 1, "sample_email_batch": 1}
        # An equal architecture that is another object, then another seed.
        again = run_simulation(load_architecture(reference_architecture_path()),
                               reference_ladder, config)
        run_simulation(reference_arch, reference_ladder, dataclasses.replace(config, seed=6))
        assert draws == {"generate_arrivals": 3, "sample_email_batch": 3}
    assert again.to_csv() == first.to_csv()
    run_simulation(reference_arch, reference_ladder, config)
    assert draws == {"generate_arrivals": 4, "sample_email_batch": 4}
