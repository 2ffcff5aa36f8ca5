"""Deterministic discrete-time execution of the email pipeline.

The traffic is drawn before the first tick by ``workload.draw_traffic``:
per-tick arrival counts, the run's distinct email shapes and each email's
index into them. This module neither splits the seed nor imports NumPy.
The draw, each email's leaf count and arrival tick and the compiled routes
depend only on the architecture and the traffic fields of the config, so
they make one prepared run. Within one ``compare_scope`` (one
``run_experiment``), the policies' runs of one architecture object and
equal traffic fields share it: one draw and one compiled pipeline per
compare. No run mutates it.

The run goes window by window. A window ends at the next tick at which the
monitor fires or the interval rolls up, so it is at most a second long,
and only those ticks change a service's instances. Within a window each
service runs all the window's ticks in one call of the kernel,
``process_window``, the services taken in pipeline (topological) order.
That is exact: a service's tick reads only its own instances, its queue and
the batches admitted to it in that tick, and what its sources emit does not
depend on it. In each tick of a service, the batches of the sources
declared before it are admitted (at the entry, the arrivals), its started
instances spend their per-tick compute budget on the queued requests, and
the batches of the sources declared after it are admitted; all it then
holds is processable the next tick. So completions forward downstream in
the same tick and become processable the next one. After a window, the
emails of its dropped requests are marked lost at once and the emails that
settle are counted tick by tick, then the monitor fires and the interval
rolls up; warming orchestrations come online when their startup elapses.

Requests are bit-packed ints: email id, then a wire nibble, which stands,
at the service the request reaches, for one part kind and virus flag. The
kernel works in exact integer resource units: a service's instances each
get a budget of MCL.numerator per tick and a request costs
tps * MCL.denominator, so an instance sustains exactly MCL requests per
second. Per started instance it finishes or carries its current request,
takes the fresh requests it completes as one slice of the queue, and starts
the next one with what is left. The kernel lists the started instances once
per window, and again only at a tick at which one starts. What an instance
does after finishing a carried request of at most its budget is one entry of
a step table kept per (budget, cost): the fresh requests it completes and
the cost owed on the one it starts. A service whose cost is 0 or divides its
budget carries no request once none is carried at a window's start (none is
at the run's): its tick completes one slice of the queue, as many requests
per started, non-draining instance as the budget pays for (every takeable
one at cost 0). When such a service keeps up with its inlets, so that each
tick completes what the tick before admitted and nothing drops, it is a
one-tick delay line, and its window is computed at once.

The routes are compiled in pipeline order, and an edge keeps a request's
wire whenever its destination gives that wire no other meaning, so most
single-part edges forward a service's completions as they are. The routes
are tables indexed by the wire and the shape of the email (its blocks,
attachments and virus mask), so the requests a service's completions emit
to a destination are the completions, a filter of them or one
comprehension over them, in completion order, then spec order. A service
has one emitter per destination, called once per window on the
completions of each of its ticks; an edge that forwards them as they are
has none (``FORWARD``), and its destination reads the completions
themselves. A leaf filter, likewise, is called once per window. A tick's
batch from one source is admitted as a whole: it keeps its longest prefix
that fits, exactly what one admission per completion would keep.

A service's queue is one FIFO list, all of it takeable at a window's
start: what a tick admits is takeable the next tick. One record per service
holds the queue with the service's instances, its budget and cost and its
inlets (see ``_ServiceState``). A retired instance finishes its current
request, takes no other, and leaves at the next interval rollup.

An email's count is set before the first tick to its leaf count: the
completions of its requests that emit nothing, known per shape before the
run. Only such completions touch per-email state (every completion of a
sink; elsewhere one whose edges do not fire or whose fan-out is empty), and
an email settles when its count reaches zero, on the tick its last request
completes; it is lost at its first dropped request. The per-email state is
two flat lists indexed by email id (leaves left, arrival tick) and the set
of lost email ids.
"""

from __future__ import annotations

import operator
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from graphlib import TopologicalSorter
from itertools import chain, repeat
from typing import Callable, Iterator, Optional

from .capacity import (
    Configuration,
    ScaleLadder,
    build_capacity_table,
    is_infinite,
    request_cost,
    system_mcl,
)
from .model import PART_KINDS, Rational, SystemArchitecture, validate_architecture
from .planner import (
    CreateInstance,
    DeploymentRegistry,
    Placement,
    TimedOrchestration,
    plan_placement,
    synthesize_orchestration,
    synthesize_removal,
    synthesize_undeployment,
)
from .scaler import (
    Policy,
    ScalerParams,
    Trigger,
    diff_reconfiguration,
    local_target_instances,
    scaling_trigger,
    select_global_configuration,
)
from .workload import Shape, WorkloadSpec, draw_traffic


class SimulationError(RuntimeError):
    """The simulation cannot start or the inputs are inconsistent."""


# Part kind codes (indices into PART_KINDS).
P_EMAIL, P_HEADER, P_LINKS, P_TEXT, P_BLOCK, P_ATTACHMENT, P_REPORT = range(7)

# Emission modes of a compiled edge: _M_ONE emits one request on the edge's
# wire (see _compile_routes), and the fan-outs emit as many requests as the
# email's shape has blocks or attachments.
_M_ONE = -16
_M_BLOCKS = 2
_M_ATT_FANOUT = 3
# Edge conditions, as the virus flag for which the edge does not fire.
_SKIP_NEVER = 2
_SKIP_INFECTED = 1  # a "clean" edge
_SKIP_CLEAN = 0  # an "infected" edge


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
        for name in ("duration", "ticks_per_second", "queue_capacity", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.duration < 1 or self.ticks_per_second < 1 or self.queue_capacity < 1:
            raise ValueError("duration >= 1, ticks_per_second >= 1 and queue_capacity >= 1 "
                             "required")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.policy not in (Policy.GLOBAL, Policy.LOCAL):
            raise ValueError(f"unknown policy {self.policy!r}")


class InstanceRuntime:
    """One deployed instance and its current work item: ``left`` is the cost
    still owed on ``cur_req``; it is 0 exactly when ``cur_req`` is -1."""

    __slots__ = ("iid", "ready_at", "draining", "cur_req", "left")

    def __init__(self, iid: str, ready_at: int):
        self.iid = iid
        self.ready_at = ready_at
        self.draining = False
        self.cur_req = -1
        self.left = 0


# The fresh requests a cost of 0 lets an instance complete: every takeable
# one, as no queue holds this many.
_ALL = sys.maxsize


def _step(budget: int, cost: int, left: int) -> tuple[int, int]:
    """``(k, next_left)`` of an instance that spends ``budget`` on a tick
    after finishing a carried request that still owed ``left`` (0: none
    carried, at most ``budget``): it completes ``k`` fresh requests as one
    slice and then starts one owing ``next_left`` (0: it starts none)."""
    credit = budget - left
    if not cost:
        return (_ALL if credit else 0), 0
    k, rem = divmod(credit, cost)
    return k, cost - rem if rem else 0


# Per (budget, cost), the step table of the carried costs that runs have
# reached: ``left -> _step(budget, cost, left)``, each entry made on first
# use. A pure cache: every run reads the same steps from it.
_carried_steps: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}


def process_window(insts: list[InstanceRuntime], queue: list, start: int, stop: int, budget: int,
                   cost: int, capacity: int, before: list, after: list, out: list,
                   drops: list) -> int:
    """Run one service from tick ``start`` up to ``stop``, all of whose
    ``queue`` is takeable at ``start``; returns the requests offered.

    ``before`` and ``after`` hold, per source, the batches it offers at each
    tick offset, ``before`` those admitted ahead of the service's turn and
    ``after`` those admitted after it. Each tick:

    1. each ``before`` batch admits its longest prefix that fits in
       ``capacity``, in order, and its dropped tail is appended to
       ``drops``;
    2. every instance started by the tick spends its ``budget``, in list
       order, on the takeable requests at the queue's front, each costing
       ``cost``: it finishes or carries its current request, completes the
       fresh ones it can afford as one slice, and starts the next with what
       is left. Idle budget is not banked, a draining instance finishes its
       current request and takes no new one, and a cost of 0 takes every
       takeable request;
    3. each ``after`` batch is admitted as in 1. All that the queue then
       holds is takeable the next tick;
    4. the tick's completions, in completion order, are appended to
       ``out``.

    The started instances are listed once per window, and again at each
    tick at which one starts. A carried cost of at most ``budget`` is
    looked up in the step table of (``budget``, ``cost``); a larger one is
    paid down by ``budget``. When the cost is 0 or divides the budget and
    no instance carries a request at ``start``, none ever does, and each
    instance that takes requests completes the same number of them, so the
    tick's completions are one slice of the queue: ``budget // cost``
    requests per started, non-draining instance (every takeable one at cost
    0), at most the takeable ones.

    Such a service with an inlet may be a delay line. Let ``take`` be what
    the instances started at ``start`` take in a tick, a lower bound as
    instances only start inside a window, ``ready`` the queue's length at
    ``start`` and ``peak`` the most requests offered in one tick. When
    ``ready`` and ``peak`` are at most ``take``, and ``ready + peak`` and
    ``2 * peak`` at most ``capacity``, nothing drops and each tick completes
    all that the queue held at its start: tick 0 the queue, each later tick
    the batches of the tick before, ``before`` then ``after``, in source
    order; the queue ends as the last tick's batches. The window is then
    computed at once, and with one inlet ``out`` holds that inlet's own
    batch lists. That is sound because no consumer mutates a batch: the
    kernel, the emitters and the settle loop only read them.
    """
    ready = len(queue)
    fresh_k, fresh_left = _step(budget, cost, 0)
    one_slice = not fresh_left and not any(inst.left for inst in insts)
    if one_slice and (before or after):
        inlets = before + after
        totals = list(map(sum, zip(*[map(len, batches) for batches in inlets])))
        peak = max(totals)
        # Instances only start inside a window, so this is the least any
        # tick takes.
        take = fresh_k * sum(1 for inst in insts if inst.ready_at <= start and not inst.draining)
        if ready <= take and peak <= take and ready + peak <= capacity and 2 * peak <= capacity:
            # A delay line: nothing drops, and each tick completes all that
            # the tick before admitted.
            if len(inlets) == 1:
                (joined,) = inlets
            else:
                joined = list(map(list, map(chain.from_iterable, zip(*inlets))))
            out.append(queue[:])
            out += joined[:-1]
            queue[:] = joined[-1]
            return sum(totals)
    offered = 0
    steps = _carried_steps.get((budget, cost))
    if steps is None:
        steps = _carried_steps[budget, cost] = {}
    wake = start  # the next tick at which an instance starts
    for i, tick in enumerate(range(start, stop)):
        if tick == wake:
            online = [inst for inst in insts if inst.ready_at <= tick]
            wake = min((inst.ready_at for inst in insts if inst.ready_at > tick), default=stop)
            take = fresh_k * sum(1 for inst in online if not inst.draining)
        # 1. (Steps 1 and 3 are written out twice: one loop over both
        # sides costs the run several per cent.)
        for batches in before:
            reqs = batches[i]
            if reqs:
                n = len(reqs)
                offered += n
                room = capacity - len(queue)
                if room >= n:
                    queue += reqs
                    continue
                if room > 0:
                    queue += reqs[:room]
                    reqs = reqs[room:]
                drops.append(reqs)
        # 2.
        if one_slice:
            n = take if take < ready else ready
            completed = queue[:n]
            del queue[:n]
        else:
            completed = []
            head = 0  # requests taken so far
            for inst in online:
                left = inst.left
                if left:
                    if left > budget:
                        inst.left = left - budget
                        continue
                    completed.append(inst.cur_req)
                    inst.cur_req = -1
                    inst.left = 0
                    if inst.draining or head == ready:
                        continue
                    step = steps.get(left)
                    if step is None:
                        step = steps[left] = _step(budget, cost, left)
                    k, left = step
                elif inst.draining or head == ready:
                    continue
                else:
                    k, left = fresh_k, fresh_left
                first = head
                head += k
                if head >= ready:
                    head = ready
                    completed += queue[first:ready]
                    continue
                completed += queue[first:head]
                if left:
                    inst.cur_req = queue[head]
                    inst.left = left
                    head += 1
            if head:
                del queue[:head]
        # 3.
        for batches in after:
            reqs = batches[i]
            if reqs:
                n = len(reqs)
                offered += n
                room = capacity - len(queue)
                if room >= n:
                    queue += reqs
                    continue
                if room > 0:
                    queue += reqs[:room]
                    reqs = reqs[room:]
                drops.append(reqs)
        ready = len(queue)
        # 4.
        out.append(completed)
    return offered


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


@dataclass
class MetricsTimeline:
    """Per-second metrics rows, events and orchestrations of one run.

    The rows are the one record of the email metrics: the run totals are
    sums over them. A run's summary (mean latency, VM cost and the rest)
    is ``experiment.summarize_metrics_rows`` over the written CSV.
    """

    ticks_per_second: int
    service_names: tuple[str, ...]
    rows: list[IntervalRow] = field(default_factory=list)
    events: list[ScalingEvent] = field(default_factory=list)
    orchestrations: list[TimedOrchestration] = field(default_factory=list)
    in_flight_end: int = 0

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

    def to_csv(self) -> str:
        head = ["t_s", "inbound_eps", "generated", "completed", "lost_emails",
                "dropped_requests", "mean_latency_s", "capacity_eps",
                "total_instances", "vm_cost_total", "deployed_deltas"]
        head += [f"n_{name}" for name in self.service_names]
        lines = [",".join(head)]
        for r in self.rows:
            cells = [
                str(r.t_s),
                f"{r.inbound_eps:.6f}",
                str(r.generated),
                str(r.completed),
                str(r.lost_emails),
                str(r.dropped_requests),
                f"{r.latency_ticks / r.completed / self.ticks_per_second:.6f}"
                if r.completed else "",
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


@dataclass(slots=True)
class _ServiceState:
    """One service's run state: its instances and its bounded FIFO queue,
    all of which is takeable at a window's start (a request admitted during
    a tick becomes takeable the next tick, see ``process_window``).
    ``offered`` counts every request offered to the queue, accepted or
    dropped, until the monitor resets it. Every instance has the
    budget/cost ratio MCL/tps, whatever its VM's speed, so one exact
    integer pair serves them all; ``early`` and ``late`` are the service's
    inlets (see ``_PreparedRun``)."""

    idx: int
    name: str
    mcl: Rational
    base_n: int
    budget: int
    cost: int
    early: tuple
    late: tuple
    insts: list[InstanceRuntime] = field(default_factory=list)
    queue: list = field(default_factory=list)
    offered: int = 0

    @property
    def committed(self) -> int:
        """The instances deployed and not draining, warming ones included."""
        return sum(1 for i in self.insts if not i.draining)


# The emitter of an edge along which every completion emits itself: the
# completions are the emissions, and no function need be called.
FORWARD = object()


def _emitter(tables: tuple, arriving: list[int], shape_of: list[int]):
    """The function from a service's completions in each tick of a window to
    what they emit to one destination in each tick, in completion order,
    then spec order: per completion, one ``req & -16 | o`` for each low
    nibble ``o`` of ``tables[nib][shape]``, at the request's nibble and its
    email's shape. It takes one of four forms. When every shape emits alike
    and each completion emits itself, the completions are the emissions
    (``FORWARD``); when each emits itself or nothing, a filter of them. When
    the shapes differ and one wire ``w`` arrives, each completion ``r`` is
    at ``w``, so it emits ``r + o - w`` for each ``o``: one per-shape table
    of these offsets is looked up. In any other case, the nibble and the
    shape are."""
    if not any(len(set(tables[nib])) > 1 for nib in arriving):
        # Every shape emits alike.
        fixed = tuple(t[0] if t else () for t in tables)
        if all(fixed[nib] == (nib,) for nib in arriving):
            return FORWARD
        if all(fixed[nib] in ((nib,), ()) for nib in arriving):
            return lambda window: [[r for r in done if fixed[r & 15]] for done in window]
    elif len(arriving) == 1:
        (w,) = arriving
        offsets = tuple(tuple(o - w for o in emits) for emits in tables[w])
        return lambda window: [[r + d for r in done for d in offsets[shape_of[r >> 4]]]
                               for done in window]
    return lambda window: [[r & -16 | o for r in done for o in tables[r & 15][shape_of[r >> 4]]]
                           for done in window]


def _emitted(mode: int, bits: int, shape: Shape) -> tuple[int, ...]:
    """The low nibbles that one completion emits along one compiled edge,
    for an email of ``shape`` = (blocks, attachments, virus mask). They do
    not depend on the completion's nibble: an edge emits on its own wires."""
    if mode < 0:
        return (bits,)
    blocks, attachments, mask = shape
    if mode == _M_BLOCKS:
        return (bits,) * blocks
    return tuple(bits | (mask >> j) & 1 for j in range(attachments))


def _leaves(routes: list[tuple], svc: int, nib: int, shape: Shape, memo: dict[int, int]) -> int:
    """The completions that emit nothing (leaves) in the expansion of one
    request at ``nib`` to service ``svc``, for an email of ``shape``;
    ``memo`` caches them per (service, nibble) for that shape."""
    key = svc << 4 | nib
    n = memo.get(key)
    if n is None:
        out = [(dst, o) for dst, mode, bits in routes[svc][0][nib]
               for o in _emitted(mode, bits, shape)]
        n = memo[key] = sum(_leaves(routes, dst, o, shape, memo) for dst, o in out) if out else 1
    return n


def _service_routes(fires: tuple, arriving: list[int], shapes: list[Shape],
                    shape_of: list[int]) -> tuple[list[tuple], Optional[Callable]]:
    """``(emitters, leaf)`` of one service: each destination paired with the
    function from the service's completions to what they emit to it, and
    the function from completions to those that emit nothing (leaves), or
    None when no completion can be one. Either function is ``FORWARD``
    when it would return the completions (see ``_emitter``)."""
    nibs = range(len(fires))
    emitters = []
    for d in sorted({dst for f in fires for dst, _, _ in f}):
        tables = tuple(tuple(tuple(o for dst, mode, bits in fires[nib] if dst == d
                                   for o in _emitted(mode, bits, shape))
                             for shape in shapes) if nib in arriving else ()
                       for nib in nibs)
        emitters.append((d, _emitter(tables, arriving, shape_of)))
    # A leaf emits itself to the settle loop, and other completions nothing.
    leaf_tables = tuple(tuple(() if any(_emitted(mode, bits, shape)
                                         for _, mode, bits in fires[nib])
                              else (nib,) for shape in shapes) if nib in arriving else ()
                        for nib in nibs)
    if not any(o for table in leaf_tables for o in table):
        return emitters, None
    return emitters, _emitter(leaf_tables, arriving, shape_of)


def _claim(wires: dict[int, int], w: int, meaning: tuple[int, ...]) -> int:
    """The wire on which an edge delivers ``meaning`` from a request on wire
    ``w`` to a service whose wires so far map to ``wires`` (wire -> original
    nibble), which it extends: ``w`` if the service gives that wire no other
    meaning, else the original nibble if it is free, else the lowest free
    wire. An attachment fan-out's meaning is its clean and infected nibbles,
    on an even wire and the next one."""
    step = len(meaning)
    for b in (w, meaning[0], *range(0, 16, step)):
        if not b % step and all(wires.get(b + i, m) == m for i, m in enumerate(meaning)):
            for i, m in enumerate(meaning):
                wires[b + i] = m
            return b
    raise SimulationError("a service needs more than 16 wire nibbles")


def _pipeline_order(arch: SystemArchitecture) -> list[int]:
    """The services' indices in topological order: each after the sources
    of its inbound edges."""
    index = {s.name: i for i, s in enumerate(arch.services)}
    preds: dict[int, set[int]] = {i: set() for i in range(len(arch.services))}
    for e in arch.pipeline:
        preds[index[e.dst]].add(index[e.src])
    return list(TopologicalSorter(preds).static_order())


def _compile_routes(arch: SystemArchitecture) -> tuple[list[tuple], int]:
    """Per service, its routes indexed by a request's wire nibble: ``(fires,
    arriving)``, and the entry service's index.

    A wire stands, at the service it reaches, for one original nibble
    ``(part << 1) | flag``; the entry reads wire 0 as an email. The wires are
    claimed in topological order (see ``_claim``), so a request keeps its
    wire along an edge whenever it can. ``fires`` holds, per wire and in
    spec order, the ``(dst, mode, bits)`` of each edge that fires for a
    request on it, ``bits`` being the wire it emits on (the even one of a
    pair for an attachment fan-out); ``arriving`` lists the wires that can
    reach the service.
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
    # The meaning of one request emitted along an edge is the completed
    # request's original nibble masked and or-ed with the emitted part, so a
    # one-request mode is that mask: _M_ONE clears the part and the virus
    # flag, pass_through the part only. The compiled routes carry no masks.
    pass_through = -15
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
                mode = pass_through
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

    wires: list[dict[int, int]] = [{} for _ in arch.services]  # wire -> original nibble
    if entry is not None:
        wires[index[entry]][0] = P_EMAIL << 1
    routes: list[tuple] = [()] * len(arch.services)
    for svc in _pipeline_order(arch):
        fires = [()] * 16
        for w, nib in sorted(wires[svc].items()):
            out = []
            for skip, dst, bits, mode in specs[svc][nib >> 1]:
                if skip == nib & 1:
                    continue
                meaning = ((nib & mode | bits,) if mode < 0 else
                           (bits, bits | 1) if mode == _M_ATT_FANOUT else (bits,))
                out.append((dst, _M_ONE if mode < 0 else mode, _claim(wires[dst], w, meaning)))
            fires[w] = tuple(out)
        routes[svc] = (tuple(fires), sorted(wires[svc]))
    return routes, (index[entry] if entry is not None else -1)


@dataclass(frozen=True)
class _PreparedRun:
    """What a run draws and compiles before its first tick, whatever its
    policy; runs that share it only read it.

    ``inlets`` holds per service the ``(source, emitter)`` pairs of the
    sources declared before it and of those declared after it, in
    declaration order; ``leaf_services`` pairs each service some of whose
    completions can be leaves with the filter that picks them out.
    """

    arrivals: list[int]  # per tick
    shape_of: list[int]  # per email: its index into the shapes
    leaves: list[int]  # per shape: the leaves of one email
    born: list[int]  # per email: its arrival tick
    entry: int
    order: list[int]  # the services' indices in pipeline order
    inlets: tuple[tuple[tuple, tuple], ...]
    leaf_services: tuple[tuple[int, Callable], ...]


def _prepare(arch: SystemArchitecture, config: SimConfig) -> _PreparedRun:
    """Draw ``config``'s traffic and compile ``arch``'s pipeline for it."""
    routes, entry = _compile_routes(arch)
    if entry < 0:
        raise SimulationError("cannot simulate an architecture without services")
    arrivals, shapes, shape_of = draw_traffic(config, arch.profile)
    inlets: list[tuple[list, list]] = [([], []) for _ in routes]
    leaf_services = []
    for src, (fires, arriving) in enumerate(routes):
        emitters, leaf = _service_routes(fires, arriving, shapes, shape_of)
        for d, emit in emitters:
            inlets[d][src > d].append((src, emit))
        if leaf is not None:
            leaf_services.append((src, leaf))
    return _PreparedRun(
        arrivals=arrivals,
        shape_of=shape_of,
        # An email settles when its last leaf completes.
        leaves=[_leaves(routes, entry, P_EMAIL << 1, shape, {}) for shape in shapes],
        born=list(chain.from_iterable(map(repeat, range(config.duration), arrivals))),
        entry=entry,
        order=_pipeline_order(arch),
        inlets=tuple((tuple(early), tuple(late)) for early, late in inlets),
        leaf_services=tuple(leaf_services),
    )


# The prepared runs of the open compare scope, each with the architecture
# and the traffic fields it was made for; None outside any scope.
_scope: ContextVar[Optional[list[tuple[SystemArchitecture, tuple, _PreparedRun]]]] = \
    ContextVar("archscale_compare_scope", default=None)


@contextmanager
def compare_scope() -> Iterator[None]:
    """Within the block, a run reuses the prepared run made by an earlier
    run of the same architecture object (``is``, never ``==``) with equal
    traffic fields (seed, workload, duration, tick rate, exact arrivals),
    so the policies of one compare draw their traffic once. The block
    forgets them all as it exits, raising or not; outside any block, every
    run prepares its own."""
    token = _scope.set([])
    try:
        yield
    finally:
        _scope.reset(token)


def _prepared(arch: SystemArchitecture, config: SimConfig) -> _PreparedRun:
    """The open scope's prepared run for ``arch`` and ``config``'s traffic,
    made (and kept in the scope) if it has none."""
    made = _scope.get()
    if made is None:
        return _prepare(arch, config)
    key = (config.seed, config.workload, config.duration, config.ticks_per_second,
           config.exact_arrivals)
    for made_for, made_key, prepared in made:
        if made_for is arch and made_key == key:
            return prepared
    prepared = _prepare(arch, config)
    made.append((arch, key, prepared))
    return prepared


def run_simulation(arch: SystemArchitecture, ladder: ScaleLadder, config: SimConfig) -> MetricsTimeline:
    """Execute the pipeline under the configured workload and policy."""
    report = validate_architecture(arch)
    if not report.ok:
        raise SimulationError(
            "architecture fails validation: " + "; ".join(str(v) for v in report))
    if len(ladder.base.counts) != len(arch.services):
        raise SimulationError("scale ladder does not match the architecture")

    table = build_capacity_table(arch)
    if config.policy == Policy.GLOBAL:
        if not ladder.last_scale_covers_finite_services(table):
            raise SimulationError(
                "the global policy needs a ladder whose largest scale adds an instance to "
                "every service with a finite MCL and an MF above 0")
        for i, delta in enumerate(ladder.deltas, 1):
            if not any(delta.counts):
                raise SimulationError(f"the global policy cannot deploy D{i}: it adds no instance")
    tps = config.ticks_per_second
    duration = config.duration
    period = config.params.monitoring_period
    names = tuple(s.name for s in arch.services)

    # Traffic and routes, prepared before the first tick for determinism
    # and speed.
    prepared = _prepared(arch, config)
    arrivals, born, entry_idx = prepared.arrivals, prepared.born, prepared.entry

    # Deployment and queue state, one record per service.
    registry = DeploymentRegistry(arch)
    svc_states = [_ServiceState(i, s.name, entry.mcl, base_n, *request_cost(entry.mcl, tps),
                                *prepared.inlets[i])
                  for i, (s, entry, base_n)
                  in enumerate(zip(arch.services, table.entries, ladder.base.counts))]

    timeline = MetricsTimeline(ticks_per_second=tps, service_names=names)

    placements: dict[tuple[int, ...], Placement] = {}  # instance counts -> placement
    vm_cost = Fraction(0)  # summed cost of every placement deployed so far

    def deploy(counts: tuple[int, ...],
               now: Optional[int]) -> tuple[TimedOrchestration, list[InstanceRuntime]]:
        """Place (once per distinct ``counts``), synthesize, apply and record
        a deployment of ``counts`` instances per service; returns the
        orchestration and the instances it created, which come online when
        its startup has elapsed from ``now``, or at tick 0 for the base
        (``now`` None)."""
        nonlocal vm_cost
        placement = placements.get(counts)
        if placement is None:
            placement = placements[counts] = plan_placement(
                {name: c for name, c in zip(names, counts) if c}, arch, arch.vm_catalog)
        orch = synthesize_orchestration(placement, arch, registry)
        registry.apply(orch)
        timeline.orchestrations.append(orch)
        vm_cost += placement.total_cost
        ready_at = 0 if now is None else now + orch.startup_ticks
        insts = []
        for act in orch.actions:
            if isinstance(act, CreateInstance):
                inst = InstanceRuntime(act.instance_id, ready_at)
                svc_states[arch.service_index(act.service)].insts.append(inst)
                insts.append(inst)
        return orch, insts

    try:
        deploy(ladder.base.counts, None)
    except Exception as exc:
        raise SimulationError(f"infeasible initial base deployment: {exc}") from exc

    def retire(removal: TimedOrchestration, victims: list[InstanceRuntime]) -> None:
        """Apply ``removal`` and drain ``victims``: each finishes its current
        request, then leaves the engine at the next interval rollup."""
        registry.apply(removal)
        timeline.orchestrations.append(removal)
        for inst in victims:
            inst.draining = True

    # Policy state. A monitor measures the n requests offered to a queue
    # over a window of ``period`` ticks as the rate n * tps / period per
    # second; only arrivals reach the entry's. A global unit is one deployed
    # delta, its orchestration and instances, stacked per delta index.
    delta_units: list[list[tuple[TimedOrchestration, list[InstanceRuntime]]]] = [
        [] for _ in range(ladder.num_scales)]
    finite_services = [st for st in svc_states if not is_infinite(st.mcl)]

    def deployed_deltas() -> tuple[int, ...]:
        return tuple(len(units) for units in delta_units)

    def fmt_deltas(vec) -> str:
        return "|".join(str(v) for v in vec)

    # Neither policy removes capacity that is still warming: an undeploy of
    # a delta index waits while a unit of that index has an instance not
    # yet online, and a local scale-down while the service has one (only
    # its own deploys add such instances, and a removal never drains one).
    def global_monitor(now: int) -> None:
        entry = svc_states[entry_idx]
        inbound = Fraction(entry.offered * tps, period)
        entry.offered = 0
        deployed = deployed_deltas()
        committed = system_mcl(ladder.configuration_for(deployed), table)
        trig = scaling_trigger(inbound, committed, config.params)
        if trig is Trigger.NONE:
            return
        _, target, _ = select_global_configuration(inbound, config.params, ladder, table)
        deferred = 0
        for step in diff_reconfiguration(deployed, target):
            units = delta_units[step.delta_index]
            if step.deploy:
                units.append(deploy(ladder.deltas[step.delta_index].counts, now))
            elif any(i.ready_at > now for _, insts in units for i in insts):
                deferred += 1
            else:
                orch, insts = units.pop()
                retire(synthesize_undeployment(orch), insts)
        # The steps on one index share a sign, so the vector moves iff a
        # step was enacted.
        after = deployed_deltas()
        if after != deployed:
            timeline.events.append(ScalingEvent(
                now, Policy.GLOBAL, "system", trig.value, "deploy" if trig is Trigger.UP else "undeploy",
                f"{fmt_deltas(deployed)}->{fmt_deltas(after)}"))
        if deferred:
            timeline.events.append(ScalingEvent(
                now, Policy.GLOBAL, "system", trig.value, "defer",
                f"{deferred} undeploys while warming"))

    def local_monitor(now: int) -> None:
        for st in finite_services:
            inbound = Fraction(st.offered * tps, period)
            st.offered = 0
            old = st.committed
            trig = scaling_trigger(inbound, st.mcl * old, config.params)
            if trig is Trigger.NONE:
                continue
            target = local_target_instances(inbound, config.params, st.mcl, st.base_n, old)
            if target > old:
                counts = [0] * len(svc_states)
                counts[st.idx] = target - old
                deploy(tuple(counts), now)
                action = "deploy"
            elif target < old:
                if any(i.ready_at > now for i in st.insts):
                    timeline.events.append(ScalingEvent(
                        now, Policy.LOCAL, st.name, trig.value, "defer",
                        f"hold {old} while warming"))
                    continue
                # The newest committed instances first.
                victims = [i for i in reversed(st.insts) if not i.draining][:old - target]
                retire(synthesize_removal([v.iid for v in victims], arch, registry), victims)
                action = "undeploy"
            else:
                continue
            timeline.events.append(ScalingEvent(
                now, Policy.LOCAL, st.name, trig.value, action, f"{old}->{target}"))

    # Email bookkeeping, by email id: leaves yet to complete (this run's
    # own list) and arrival tick (``born``), both known before the first
    # tick; and the ids of the emails lost.
    outstanding = list(map(prepared.leaves.__getitem__, prepared.shape_of))
    lost: set[int] = set()
    next_email = 0

    # Interval accumulators.
    iv_generated = 0
    iv_completed = 0
    iv_lost = 0
    iv_dropped = 0
    iv_latency_ticks = 0
    interval_start_tick = 0
    capacities: dict[tuple[int, ...], float] = {}  # online counts -> capacity_eps
    # The next ticks at whose end the monitor fires and the interval closes.
    monitor_tick = period - 1
    rollup_tick = min(tps, duration) - 1

    is_global = config.policy == Policy.GLOBAL
    capacity = config.queue_capacity
    leaf_services = prepared.leaf_services
    in_order = [svc_states[i] for i in prepared.order]

    # Window by window, each up to the next monitor or rollup tick, as only
    # those change the instances; within a window, service by service in
    # pipeline order (see the module docstring).
    start = 0
    while start < duration:
        stop = min(monitor_tick, rollup_tick) + 1
        # Per tick, the arrivals' requests: part EMAIL, flag 0. An email
        # whose request is dropped is lost.
        first = next_email
        entry_batches = []
        for n_arr in arrivals[start:stop]:
            entry_batches.append(list(range(next_email << 4, (next_email + n_arr) << 4, 16)))
            next_email += n_arr
        iv_generated += next_email - first
        outs: list = [None] * len(svc_states)
        drops: list[list] = []
        for st in in_order:
            # A source's batches are its completions when it forwards them
            # unchanged, else what its emitter makes of the window's.
            before, after = ([outs[src] if emit is FORWARD else emit(outs[src])
                              for src, emit in sources] for sources in (st.early, st.late))
            if st.idx == entry_idx:
                before.insert(0, entry_batches)
            outs[st.idx] = out = []
            st.offered += process_window(st.insts, st.queue, start, stop, st.budget, st.cost,
                                         capacity, before, after, out, drops)

        # The emails of a dropped tail are lost at their first drop; the
        # window lies inside one interval, so its tails count at once. Then,
        # tick by tick, an email settles at the tick its last leaf
        # completes; a lost email never does, as its dropped request's
        # leaves never complete.
        for tail in drops:
            iv_dropped += len(tail)
            gone = {r >> 4 for r in tail} - lost
            iv_lost += len(gone)
            lost |= gone
        leaf_windows = [outs[idx] if leaf is FORWARD else leaf(outs[idx])
                        for idx, leaf in leaf_services]
        for i, tick in enumerate(range(start, stop)):
            for window in leaf_windows:
                done = window[i]
                if done:
                    for r in done:
                        eid = r >> 4
                        left = outstanding[eid] - 1
                        outstanding[eid] = left
                        if not left:
                            iv_latency_ticks += tick - born[eid]
                            iv_completed += 1
        tick = stop - 1
        start = stop

        # Monitors.
        if tick == monitor_tick:
            monitor_tick += period
            if is_global:
                global_monitor(tick)
            else:
                local_monitor(tick)

        # Interval rollup. A drained instance (draining, with no current
        # request) takes nothing in ``process_window``, so it leaves here.
        if tick == rollup_tick:
            rollup_tick = min(tick + tps, duration - 1)
            for st in svc_states:
                st.insts[:] = [i for i in st.insts if not i.draining or i.cur_req >= 0]
            start_s = interval_start_tick // tps
            span_s = (tick + 1 - interval_start_tick) / tps
            interval_start_tick = tick + 1
            # Per service, its committed instances and those of them online
            # (started), and the capacity of the online ones, once per
            # distinct online count.
            committed, online = [], []
            for st in svc_states:
                n = up = 0
                for i in st.insts:
                    if not i.draining:
                        n += 1
                        if i.ready_at <= tick:
                            up += 1
                committed.append(n)
                online.append(up)
            counts, online = tuple(committed), tuple(online)
            cap_eps = capacities.get(online)
            if cap_eps is None:
                cap = system_mcl(Configuration(online), table)
                cap_eps = capacities[online] = 1e9 if is_infinite(cap) else float(cap)
            timeline.rows.append(IntervalRow(
                t_s=start_s,
                inbound_eps=iv_generated / span_s,
                generated=iv_generated,
                completed=iv_completed,
                lost_emails=iv_lost,
                dropped_requests=iv_dropped,
                latency_ticks=iv_latency_ticks,
                capacity_eps=cap_eps,
                total_instances=sum(counts),
                vm_cost_total=float(vm_cost),
                deployed_deltas=fmt_deltas(deployed_deltas()) if is_global else "",
                service_counts=counts,
            ))
            iv_generated = iv_completed = iv_lost = iv_dropped = iv_latency_ticks = 0

    # A lost email keeps a leaf outstanding for good: its dropped request's
    # leaves never complete.
    timeline.in_flight_end = len(outstanding) - outstanding.count(0) - len(lost)
    return timeline

