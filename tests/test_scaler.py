"""Scaling triggers, global configuration selection, reconfiguration diffs."""

import hashlib
import json
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archscale import (
    INFINITE,
    CapacityError,
    CapacityTable,
    Configuration,
    ExperimentSpec,
    ScaleLadder,
    ScalerParams,
    ScalingError,
    SimulationError,
    Steps,
    Trigger,
    WorkloadSpec,
    build_capacity_table,
    delta_vector_is_canonical,
    diff_reconfiguration,
    local_target_instances,
    scaling_trigger,
    run_experiment,
    select_global_configuration,
    synthesize_scale_ladder,
    system_mcl,
)
from archscale.capacity import ServiceCapacity, ceil_frac
from archscale.document import parse_architecture_data
from test_capacity import capacity_tables, reference_system_mcl
from test_golden import ROUTE_SHAPES_ARCH

PARAMS = ScalerParams(K=Fraction(20), k=Fraction(10), monitoring_period=300)


def test_trigger_up():
    assert scaling_trigger(Fraction(100), Fraction(60), PARAMS) is Trigger.UP


def test_trigger_hysteresis_band():
    assert scaling_trigger(Fraction(100), Fraction(125), PARAMS) is Trigger.NONE


def test_trigger_down():
    assert scaling_trigger(Fraction(10), Fraction(210), PARAMS) is Trigger.DOWN


@settings(max_examples=200, derandomize=True)
@given(inbound=st.integers(0, 1000), total=st.integers(0, 1000))
def test_trigger_directions_exclusive(inbound, total):
    trig = scaling_trigger(Fraction(inbound), Fraction(total), PARAMS)
    gap = inbound + 20 - total
    if gap > 10:
        assert trig is Trigger.UP
    elif -gap > 10:
        assert trig is Trigger.DOWN
    else:
        assert trig is Trigger.NONE


def reference_trigger(inbound, total, params):
    """The trigger as a gap: inbound + K - total against the band k."""
    demand = Fraction(inbound) + params.K
    if total == INFINITE:
        return Trigger.NONE
    gap = demand - Fraction(total)
    if gap > params.k:
        return Trigger.UP
    if -gap > params.k:
        return Trigger.DOWN
    return Trigger.NONE


# Rates as the monitors and callers pass them: Fractions, ints and floats.
RATES = st.one_of(st.fractions(0, 2000, max_denominator=30), st.integers(0, 2000),
                  st.floats(0, 2000, allow_nan=False, allow_infinity=False))
MARGINS = st.one_of(st.fractions(0, 40, max_denominator=12), st.integers(0, 40))


@settings(max_examples=500, derandomize=True)
@given(inbound=RATES, total=st.one_of(RATES, st.just(INFINITE)), K=MARGINS, k=MARGINS)
# A float is taken at its exact binary value: 0.1 lies just above 1/10.
@example(inbound=0.1, total=Fraction(1, 10), K=0, k=0)
@example(inbound=Fraction(1, 10), total=0.1, K=0, k=0)
@example(inbound=0.1, total=Fraction(1, 10) + 40, K=40, k=0)
# inbound - total exactly k - K, and exactly -(k + K): neither fires.
@example(inbound=Fraction(589, 6), total=100, K=Fraction(7, 3), k=Fraction(1, 2))
@example(inbound=Fraction(583, 6), total=100, K=Fraction(7, 3), k=Fraction(1, 2))
@example(inbound=Fraction(589, 6) + Fraction(1, 2 ** 70), total=100, K=Fraction(7, 3),
         k=Fraction(1, 2))
@example(inbound=Fraction(583, 6) - Fraction(1, 2 ** 70), total=100, K=Fraction(7, 3),
         k=Fraction(1, 2))
@example(inbound=90, total=Fraction(100), K=20, k=10)
@example(inbound=70.0, total=100, K=20, k=10)
# Numerators above 2**64.
@example(inbound=Fraction(2 ** 70 + 1, 3), total=Fraction(2 ** 70, 3), K=Fraction(1, 3), k=0)
@example(inbound=Fraction(2 ** 66, 7), total=Fraction(2 ** 66 + 2 ** 40, 7), K=Fraction(2 ** 65, 7),
         k=Fraction(2 ** 65 - 2 ** 40, 7))
# A negative rate raises, even against an infinite capacity.
@example(inbound=Fraction(-1, 3), total=INFINITE, K=0, k=0)
@example(inbound=-1, total=INFINITE, K=20, k=10)
@example(inbound=float("-inf"), total=INFINITE, K=20, k=10)
@example(inbound=-0.5, total=Fraction(10), K=20, k=10)
def test_trigger_matches_reference(inbound, total, K, k):
    params = ScalerParams(K=K, k=k)
    if inbound < 0:
        with pytest.raises(ValueError, match="inbound rate must be >= 0"):
            scaling_trigger(inbound, total, params)
        return
    assert scaling_trigger(inbound, total, params) is reference_trigger(inbound, total, params)


def test_trigger_takes_floats_exactly():
    assert scaling_trigger(0.1, Fraction(1, 10), ScalerParams(K=0, k=0)) is Trigger.UP
    assert scaling_trigger(Fraction(1, 10), 0.1, ScalerParams(K=0, k=0)) is Trigger.DOWN


def test_params_invariants():
    with pytest.raises(ValueError):
        ScalerParams(K=Fraction(-1))
    with pytest.raises(ValueError):
        ScalerParams(monitoring_period=0)


@pytest.mark.parametrize("field,value,message", [
    ("K", float("nan"), "K must be a finite number"),
    ("K", float("inf"), "K must be a finite number"),
    ("k", float("inf"), "k must be a finite number"),
    ("k", float("-inf"), "k must be a finite number"),
    ("monitoring_period", 299.5, "monitoring_period must be an integer"),
    ("monitoring_period", 300.0, "monitoring_period must be an integer"),
])
def test_params_named_when_not_finite_or_not_integer(field, value, message):
    # Else a NaN or infinite margin fails at the first decision naming no
    # field, and a period of 299.5 ticks never fires the monitor.
    with pytest.raises(ValueError, match=rf"^{message}, got"):
        ScalerParams(**{field: value})


def test_params_accept_integer_types():
    params = ScalerParams(K=5, k=0.25, monitoring_period=np.int64(300))
    assert params.monitoring_period == 300
    assert scaling_trigger(Fraction(300), Fraction(300), params) is Trigger.UP
    with pytest.raises(ValueError, match=">= 1"):
        ScalerParams(monitoring_period=np.int64(0))


def test_select_base_when_demand_low(reference_ladder, reference_table):
    config, deltas, mcl = select_global_configuration(
        Fraction(30), PARAMS, reference_ladder, reference_table)
    assert deltas == (0, 0, 0, 0)
    assert config.counts == reference_ladder.base.counts
    assert mcl >= 50


def test_select_scale2_at_demand_200(reference_ladder, reference_table):
    config, deltas, mcl = select_global_configuration(
        Fraction(180), PARAMS, reference_ladder, reference_table)
    assert deltas == (1, 1, 0, 0)
    assert mcl >= 200
    expected = reference_ladder.base + reference_ladder.scale(2)
    assert config.counts == expected.counts


def test_select_stacks_largest_scale(reference_ladder, reference_table):
    config, deltas, mcl = select_global_configuration(
        Fraction(780), PARAMS, reference_ladder, reference_table)
    assert delta_vector_is_canonical(deltas)
    assert deltas[3] >= 1  # at least one full largest-scale stack beyond the first
    assert mcl >= 800
    assert deltas == (3, 3, 2, 2)  # two full stacks plus scale 2


@settings(max_examples=400, derandomize=True)
@given(inbound=st.integers(0, 5000))
def test_select_invariant_and_sufficiency(inbound, reference_ladder, reference_table):
    config, deltas, mcl = select_global_configuration(
        Fraction(inbound), PARAMS, reference_ladder, reference_table)
    assert delta_vector_is_canonical(deltas)
    assert Fraction(mcl) >= inbound + 20
    assert system_mcl(config, reference_table) == mcl
    again = select_global_configuration(Fraction(inbound), PARAMS, reference_ladder, reference_table)
    assert again[1] == deltas


def within(seconds, fn, *args, **kwargs):
    """Call ``fn``, failing instead of hanging if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# On the 8-service architecture, base target 40 and increments (40, 80)
# give Receiver (120 requests/s per instance) no instance in either delta,
# so no stack of the largest scale carries more than 120 emails/s.
def test_select_raises_when_largest_scale_adds_no_capacity():
    table = build_capacity_table(parse_architecture_data(ROUTE_SHAPES_ARCH))
    ladder = synthesize_scale_ladder(Fraction(40), [Fraction(40), Fraction(80)], table)
    assert not ladder.last_scale_covers_finite_services(table)
    assert select_global_configuration(Fraction(90), PARAMS, ladder, table)[1] == (1, 1)
    with pytest.raises(ScalingError, match="largest scale adds no capacity"):
        within(10, select_global_configuration, Fraction(160), PARAMS, ladder, table)


def reference_select(inbound, params, ladder, table):
    """The per-candidate walk: every candidate's system MCL as Fractions."""
    demand = Fraction(inbound) + params.K
    num = ladder.num_scales
    scales = []
    acc = Configuration(tuple(0 for _ in ladder.base.counts))
    for d in ladder.deltas:
        acc = acc + d
        scales.append(acc)
    deltas = [0] * num
    config = ladder.base
    mcl = reference_system_mcl(config.counts, table)
    found = mcl == INFINITE or mcl >= demand
    while not found:
        below = mcl
        i = -1
        while i < num - 1 and not found:
            i += 1
            candidate = config + scales[i]
            mcl = reference_system_mcl(candidate.counts, table)
            found = mcl == INFINITE or mcl >= demand
        if not found and mcl <= below:
            raise ScalingError(f"system MCL {mcl}, below the demand {demand}")
        config = candidate
        for j in range(i + 1):
            deltas[j] += 1
    return config, tuple(deltas), mcl


def assert_selects_as_reference(inbound, params, ladder, table):
    try:
        expected = reference_select(inbound, params, ladder, table)
    except ScalingError as exc:
        with pytest.raises(ScalingError) as raised:
            within(10, select_global_configuration, inbound, params, ladder, table)
        assert str(exc) in str(raised.value)
        return
    got = within(10, select_global_configuration, inbound, params, ladder, table)
    assert got == expected
    assert type(got[0]) is Configuration
    assert type(got[2]) is type(expected[2])


@settings(max_examples=300, derandomize=True)
@given(inbound=st.one_of(RATES, st.fractions(0, 5000, max_denominator=7)))
# Numerators above 2**64.
@example(inbound=Fraction(2 ** 70 + 1, 2 ** 62))
@example(inbound=Fraction(3 ** 45, 3 ** 44 - 1))
def test_select_matches_reference_on_reference_ladder(inbound, reference_ladder, reference_table):
    assert_selects_as_reference(inbound, PARAMS, reference_ladder, reference_table)


def test_select_matches_reference_at_capacity_boundaries(reference_ladder, reference_table):
    # Demand exactly at the system MCL of each configuration the walk can
    # reach: the walk must stop there, not one scale later.
    num = reference_ladder.num_scales
    for stacks in range(4):
        for prefix in range(num):
            vector = tuple(stacks + (j < prefix) for j in range(num))
            config = reference_ladder.configuration_for(vector)
            cap = reference_system_mcl(config.counts, reference_table)
            inbound = cap - PARAMS.K
            if inbound >= 0:
                assert_selects_as_reference(inbound, PARAMS, reference_ladder, reference_table)
                assert select_global_configuration(
                    inbound, PARAMS, reference_ladder, reference_table)[0] == config


@st.composite
def random_ladders(draw):
    """A table and a ladder of arbitrary deltas; the largest scale may add
    nothing to a service that bounds the system MCL."""
    table = draw(capacity_tables(max_size=5))
    size = len(table.entries)
    counts = st.lists(st.integers(0, 3), min_size=size, max_size=size)
    deltas = tuple(Configuration(tuple(c)) for c in draw(st.lists(counts, min_size=0, max_size=4)))
    ladder = ScaleLadder(Configuration(tuple(draw(counts))), Fraction(0), deltas,
                         tuple(Fraction(i + 1) for i in range(len(deltas))))
    return table, ladder


@settings(max_examples=300, derandomize=True)
@given(data=st.data(), drawn=random_ladders(), K=MARGINS)
def test_select_matches_reference_on_random_ladders(data, drawn, K):
    table, ladder = drawn
    params = ScalerParams(K=K)
    inbound = data.draw(st.one_of(RATES.filter(lambda r: r <= 600), st.sampled_from(["boundary"])))
    if inbound == "boundary":
        # The system MCL of a configuration the walk can reach, as the demand.
        stacks = data.draw(st.integers(0, 3))
        vector = tuple(stacks + (j < data.draw(st.integers(0, ladder.num_scales)))
                       for j in range(ladder.num_scales))
        cap = reference_system_mcl(ladder.configuration_for(vector).counts, table)
        inbound = 0 if cap == INFINITE else max(cap - params.K, 0)
    assert_selects_as_reference(inbound, params, ladder, table)


def previous_in_walk_order(deltas):
    """The canonical delta vector the walk tries just before ``deltas``:
    its last scale one smaller, or one stack fewer plus every scale but
    the largest."""
    top = max(deltas)
    prev = list(deltas)
    prev[deltas.count(top) - 1] -= 1
    return tuple(prev)


def test_select_far_past_the_first_cycle_is_immediate(reference_ladder, reference_table):
    # One round per stack of the largest scale would take hours here.
    for inbound in (Fraction(10 ** 12), 10 ** 12 + 0.5, Fraction(10 ** 15 + 1, 3)):
        config, deltas, mcl = within(10, select_global_configuration,
                                     inbound, PARAMS, reference_ladder, reference_table)
        demand = Fraction(inbound) + PARAMS.K
        assert delta_vector_is_canonical(deltas)
        assert config == reference_ladder.configuration_for(deltas)
        assert mcl == system_mcl(config, reference_table) >= demand
        before = reference_ladder.configuration_for(previous_in_walk_order(deltas))
        assert system_mcl(before, reference_table) < demand


def test_select_follows_each_table_a_ladder_is_used_with(reference_table, all_virus_arch):
    # The levels are kept for one table object at a time: switching tables
    # back and forth must answer for the table given.
    virus_table = build_capacity_table(all_virus_arch)
    assert virus_table.weights != reference_table.weights
    ladder = synthesize_scale_ladder(
        Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], reference_table)
    for inbound in (Fraction(30), Fraction(150), Fraction(300), Fraction(800), 2000, 12345.5):
        for table in (reference_table, virus_table, reference_table, virus_table):
            assert_selects_as_reference(inbound, PARAMS, ladder, table)


def test_select_refuses_a_ladder_along_which_capacity_can_fall():
    # Synthesis never builds these. In each, a configuration later in the
    # selection's order can carry less than an earlier one, so no closed
    # form finds the first that covers the demand.
    one = CapacityTable((ServiceCapacity("a", Fraction(1), Fraction(0), Fraction(100)),))
    removes = ScaleLadder(Configuration((1,)), Fraction(0), (Configuration((3,)), Configuration((-2,))),
                          (Fraction(1), Fraction(2)))
    two = CapacityTable(one.entries + (ServiceCapacity("b", Fraction(-1), Fraction(0), Fraction(100)),))
    grows_negative = ScaleLadder(Configuration((1, 1)), Fraction(0), (Configuration((1, 1)),),
                                 (Fraction(1),))
    for ladder, table, message in ((removes, one, "removes instances"),
                                   (grows_negative, two, "negative MCL/MF")):
        with pytest.raises(CapacityError, match=message):
            select_global_configuration(Fraction(400), PARAMS, ladder, table)


def test_select_raises_as_reference_when_largest_scale_misses_a_bounding_service():
    table = build_capacity_table(parse_architecture_data(ROUTE_SHAPES_ARCH))
    ladder = synthesize_scale_ladder(Fraction(40), [Fraction(40), Fraction(80)], table)
    for inbound in (Fraction(90), Fraction(160), 160, 159.5, Fraction(2000)):
        assert_selects_as_reference(inbound, PARAMS, ladder, table)
    with pytest.raises(ScalingError):
        reference_select(Fraction(160), PARAMS, ladder, table)


def test_global_run_refuses_ladder_whose_largest_scale_misses_a_service(tmp_path):
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(ROUTE_SHAPES_ARCH), encoding="utf-8")
    spec = ExperimentSpec(
        architecture=str(arch_path), policies=("global",), output=str(tmp_path / "out"),
        duration_s=60, seed=3, exact_arrivals=True, base_target_mcl=40,
        scale_increments=(40, 80), workload=WorkloadSpec(Steps(((0, 50.0), (300, 160.0)))))
    with pytest.raises(SimulationError, match="largest scale adds an instance"):
        within(30, run_experiment, spec)


def test_canonical_predicate():
    assert delta_vector_is_canonical((0, 0, 0, 0))
    assert delta_vector_is_canonical((1, 1, 0, 0))
    assert delta_vector_is_canonical((3, 3, 2, 2))
    assert delta_vector_is_canonical((2, 2, 2, 2))
    assert not delta_vector_is_canonical((0, 1, 0, 0))
    assert not delta_vector_is_canonical((3, 1, 1, 1))
    assert not delta_vector_is_canonical((1, -1, 0, 0))


def test_diff_single_deploy():
    plan = diff_reconfiguration((1, 1, 0, 0), (1, 1, 1, 0))
    assert [(s.delta_index, s.deploy) for s in plan] == [(2, True)]


def test_diff_multi_undeploy():
    plan = diff_reconfiguration((1, 1, 1, 1), (1, 0, 0, 0))
    assert [(s.delta_index, s.deploy) for s in plan] == [(1, False), (2, False), (3, False)]


def test_diff_equal_is_empty():
    assert len(diff_reconfiguration((2, 1, 1, 1), (2, 1, 1, 1))) == 0


def test_diff_length_mismatch():
    with pytest.raises(ValueError):
        diff_reconfiguration((1, 0), (1, 0, 0))


@settings(max_examples=200, derandomize=True)
@given(
    deployed=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    target=st.lists(st.integers(0, 4), min_size=4, max_size=4),
)
def test_diff_reaches_target(deployed, target):
    plan = diff_reconfiguration(tuple(deployed), tuple(target))
    state = list(deployed)
    last_index = -1
    for step in plan:
        assert step.delta_index >= last_index
        last_index = step.delta_index
        state[step.delta_index] += 1 if step.deploy else -1
    assert state == target


def test_local_target_formula():
    assert local_target_instances(Fraction(100), ScalerParams(K=Fraction(10)), Fraction(37), 1, 2) == 3


def test_local_target_base_floor():
    assert local_target_instances(Fraction(0), PARAMS, Fraction(100), 1, 3) == 1


def test_local_target_scale_down_clamp():
    params = ScalerParams(K=Fraction(10))
    assert local_target_instances(Fraction(90), params, Fraction(100), 1, 3) == 1


def test_local_target_rejects_infinite():
    from archscale import INFINITE
    with pytest.raises(ValueError):
        local_target_instances(Fraction(10), PARAMS, INFINITE, 1, 1)


@settings(max_examples=200, derandomize=True)
@given(inbound=st.integers(0, 3000), base_n=st.integers(1, 4))
def test_local_never_below_base(inbound, base_n):
    target = local_target_instances(Fraction(inbound), PARAMS, Fraction(91), base_n, base_n + 2)
    assert target >= base_n
    assert target >= 1


def reference_local_target(inbound, params, mcl, base_n):
    return max(base_n, ceil_frac((Fraction(inbound) + params.K) / Fraction(mcl)))


@settings(max_examples=400, derandomize=True)
@given(inbound=RATES, K=MARGINS, base_n=st.integers(0, 4),
       mcl=st.one_of(st.fractions(Fraction(1, 4), 400, max_denominator=30), st.integers(1, 400),
                     st.floats(0.25, 400, allow_nan=False)))
@example(inbound=0.1, K=0, base_n=0, mcl=Fraction(1, 10))
@example(inbound=Fraction(1, 10), K=0, base_n=0, mcl=0.1)
# Quotients that are exactly an integer.
@example(inbound=Fraction(101), K=Fraction(10), base_n=0, mcl=Fraction(37))
@example(inbound=Fraction(16, 3), K=Fraction(2, 3), base_n=0, mcl=Fraction(3, 2))
@example(inbound=0.5, K=0, base_n=0, mcl=0.25)
@example(inbound=Fraction(16, 3) - Fraction(1, 2 ** 70), K=Fraction(2, 3), base_n=0,
         mcl=Fraction(3, 2))
# Numerators above 2**64.
@example(inbound=Fraction(2 ** 70, 7), K=Fraction(2 ** 65, 3), base_n=1,
         mcl=Fraction(2 ** 66 + 1, 3))
@example(inbound=Fraction(3 * 2 ** 66 - 5), K=5, base_n=0, mcl=Fraction(2 ** 66))
def test_local_target_matches_reference(inbound, K, base_n, mcl):
    params = ScalerParams(K=K)
    assert local_target_instances(inbound, params, mcl, base_n, base_n) == \
        reference_local_target(inbound, params, mcl, base_n)


def test_local_target_takes_floats_exactly():
    params = ScalerParams(K=0)
    assert local_target_instances(0.1, params, Fraction(1, 10), 0, 0) == 2
    assert local_target_instances(Fraction(1, 10), params, 0.1, 0, 0) == 1


# -- pinned decisions ----------------------------------------------------------
#
# SHA-256 digests of what the three decision functions return over a seeded
# grid of Fraction, int and float rates on the reference ladder, band and
# ceiling edges included, and of the exception class for bad inputs. A change
# to how they compute must leave every digest as it is.

GRID_PARAMS = (ScalerParams(K=Fraction(20), k=Fraction(10)),
               ScalerParams(K=Fraction(7, 3), k=Fraction(1, 2)),
               ScalerParams(K=0, k=0),
               ScalerParams(K=5, k=0.25))
TINY = Fraction(1, 10 ** 9)
BAD_RATES = (Fraction(-1, 3), -1, -0.5, float("-inf"), float("inf"), float("nan"))


def grid_rates(rng, count, high=2000):
    out = []
    for _ in range(count):
        kind = rng.randrange(3)
        out.append(Fraction(rng.randint(0, 30 * high), rng.randint(1, 30)) if kind == 0 else
                   rng.randint(0, high) if kind == 1 else rng.uniform(0, high))
    return out


def edges(point):
    """``point`` and its neighbours: exactly, a hair either side, as a float."""
    return [point, point - TINY, point + TINY, float(point)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reachable_capacities(ladder, table):
    """The system MCL of each configuration the global walk can reach."""
    num = ladder.num_scales
    return [system_mcl(ladder.configuration_for(tuple(stacks + (j < prefix) for j in range(num))),
                       table)
            for stacks in range(4) for prefix in range(num)]


def trigger_grid(ladder, table):
    rng = random.Random(91)
    totals = reachable_capacities(ladder, table) + grid_rates(rng, 12) + [0, INFINITE]
    lines = []
    for p, params in enumerate(GRID_PARAMS):
        k, K = Fraction(params.k), Fraction(params.K)
        for total in totals:
            inbounds = grid_rates(rng, 8) + list(BAD_RATES)
            if total != INFINITE:
                for edge in (Fraction(total) + k - K, Fraction(total) - k - K):
                    if edge >= TINY:
                        inbounds += edges(edge)
            for inbound in inbounds:
                got = outcome(scaling_trigger, inbound, total, params)
                lines.append(f"{p} {inbound!r} {total!r} {getattr(got, 'value', got)}")
    return lines


def local_target_grid(table):
    rng = random.Random(92)
    mcls = ([e.mcl for e in table.entries if e.mcl != INFINITE] + grid_rates(rng, 10, 400)
            + [Fraction(1, 3), Fraction(91), 0.1])
    bad_mcls = (0, -3, Fraction(-1, 2), INFINITE, float("-inf"), float("nan"))
    lines = []
    for p, params in enumerate(GRID_PARAMS):
        for mcl in [m for m in mcls if m != 0] + list(bad_mcls):
            inbounds = grid_rates(rng, 6)
            if mcl in bad_mcls:
                inbounds = inbounds[:1]
            else:
                # Demands whose quotient by the MCL is exactly an integer.
                inbounds += [e for n in (1, 2, 7) for e in edges(n * Fraction(mcl) - params.K)
                             if e >= 0]
                inbounds += [float("inf"), float("nan")]
            for inbound in inbounds:
                for base_n in (0, 1, 3):
                    got = outcome(local_target_instances, inbound, params, mcl, base_n, base_n)
                    lines.append(f"{p} {inbound!r} {mcl!r} {base_n} {got}")
        lines.append(f"{p} {outcome(local_target_instances, 5, params, 10, 1, -1)}")
    return lines


def select_grid(ladder, table):
    rng = random.Random(93)
    lines = []
    for p, params in enumerate(GRID_PARAMS):
        inbounds = grid_rates(rng, 60, 5000) + [Fraction(-5), float("inf"), float("nan")]
        for cap in reachable_capacities(ladder, table):
            if cap - Fraction(params.K) >= TINY:
                inbounds += edges(cap - Fraction(params.K))
        for inbound in inbounds:
            got = outcome(select_global_configuration, inbound, params, ladder, table)
            if isinstance(got, tuple):
                config, deltas, mcl = got
                got = f"{config.counts} {deltas} {mcl!r}"
            lines.append(f"{p} {inbound!r} {got}")
    return lines


DECISION_DIGESTS = {
    "trigger": "2fbc6ced44e75e934967009fbebe31d8eb029a0d940ee5476fdfe5aba37b88dd",
    "local_target": "bbb3b46b79d3f1e53e85a924c89778113eb1acd93adb413b14040b474f006bd6",
    "select": "031408a1f74874336751b4304c673e6796c7fdb65729536ef423f1649eee0388",
}


def test_decision_digests_unchanged(reference_ladder, reference_table):
    digests = {"trigger": digest(trigger_grid(reference_ladder, reference_table)),
               "local_target": digest(local_target_grid(reference_table)),
               "select": digest(select_grid(reference_ladder, reference_table))}
    assert digests == DECISION_DIGESTS


def test_trigger_and_local_target_build_no_fraction(monkeypatch, reference_table):
    # Once a ScalerParams has been used, a decision on Fraction and int
    # inputs computes on integer pairs alone: counted, not timed.
    params = ScalerParams(K=Fraction(7, 3), k=Fraction(1, 2))
    scaling_trigger(Fraction(1), Fraction(1), params)
    local_target_instances(Fraction(1), params, Fraction(1), 0, 0)
    mcls = [e.mcl for e in reference_table.entries if e.mcl != INFINITE]
    inbounds = [Fraction(3 * i + 1, 7) if i % 2 else 40 * i for i in range(50)]
    calls = [(inbound, inbound + params.K if i % 5 == 0 else mcls[i % len(mcls)] * (1 + i % 4),
              mcls[i % len(mcls)] if i % 3 else 25 + i)
             for i, inbound in enumerate(inbounds)]
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    triggers = [scaling_trigger(inbound, total, params) for inbound, total, _ in calls]
    targets = [local_target_instances(inbound, params, mcl, 1, 1) for inbound, _, mcl in calls]
    monkeypatch.undo()
    assert built == []
    assert Fraction(2, 4) == Fraction(1, 2)  # the constructor is back
    assert set(triggers) == {Trigger.UP, Trigger.DOWN, Trigger.NONE}
    assert max(targets) > 1


def test_first_cycle_select_builds_no_fraction_or_configuration(monkeypatch, reference_table):
    # Once a ladder has answered for a table, a demand its first cycle
    # covers returns a precomputed result: counted, not timed.
    ladder = synthesize_scale_ladder(
        Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], reference_table)
    params = ScalerParams(K=Fraction(7, 3), k=Fraction(1, 2))
    select_global_configuration(Fraction(1), params, ladder, reference_table)
    inbounds = [Fraction(3 * i + 1, 7) if i % 2 else 7 * i for i in range(56)]
    built = []
    original_new = Fraction.__new__
    original_init = Configuration.__init__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original_new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(Configuration, "__init__", counting_init)
    picked = [select_global_configuration(inbound, params, ladder, reference_table)[1]
              for inbound in inbounds]
    monkeypatch.undo()
    assert built == []
    assert Fraction(2, 4) == Fraction(1, 2)  # the constructor is back
    assert len(set(picked)) == ladder.num_scales + 1  # every first-cycle level
