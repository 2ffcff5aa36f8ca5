"""Capacity math: multiplicities, throughput limits, counts, ladder."""

import ast
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archscale import (
    INFINITE,
    CapacityError,
    Configuration,
    base_configuration,
    build_capacity_table,
    instances_for_target,
    multiplicative_factor,
    request_cost,
    request_size,
    service_mcl,
    synthesize_scale_ladder,
    system_mcl,
)
from archscale.capacity import (
    CapacityTable,
    ServiceCapacity,
    canonical_vector,
    ceil_frac,
    format_rational,
    is_infinite,
)
from archscale.document import parse_architecture_data
from archscale.model import INFINITE, EmailProfile, MCLParams, MFKind, MFRule, ServiceType
from archscale.scaler import delta_vector_is_canonical

from conftest import REFERENCE_COUNTS, SCALE_TARGETS

PROFILE = EmailProfile()


def svc(name="X", rule=MFKind.UNIT, expr=None, **mcl_kwargs) -> ServiceType:
    return ServiceType(
        name=name, cores_required=2, memory_required=200,
        mcl_params=MCLParams(**{k: Fraction(str(v)) if not isinstance(v, dict) else
                                {c: Fraction(str(r)) for c, r in v.items()}
                                for k, v in mcl_kwargs.items()}),
        mf_rule=MFRule(rule, expr),
    )


# -- multiplicative factors ------------------------------------------------

def test_mf_unit_is_one():
    assert multiplicative_factor(svc(rule=MFKind.UNIT), PROFILE) == 1


def test_mf_per_clean_attachment():
    assert multiplicative_factor(svc(rule=MFKind.PER_CLEAN_ATTACHMENT), PROFILE) == Fraction(3, 2)


def test_mf_email_parts_sum():
    assert multiplicative_factor(svc(rule=MFKind.EMAIL_PARTS_SUM), PROFILE) == 5


def test_mf_per_block_and_attachment():
    assert multiplicative_factor(svc(rule=MFKind.PER_BLOCK), PROFILE) == Fraction(5, 2)
    assert multiplicative_factor(svc(rule=MFKind.PER_ATTACHMENT), PROFILE) == 2


def test_mf_custom_expression():
    s = svc(rule=MFKind.CUSTOM, expr="n_attachments * (1 - p_virus) + 1")
    assert multiplicative_factor(s, PROFILE) == Fraction(5, 2)


def test_mf_custom_undefined_field_errors():
    s = svc(rule=MFKind.CUSTOM, expr="n_typos + 1")
    with pytest.raises(CapacityError, match="n_typos"):
        multiplicative_factor(s, PROFILE)


@pytest.mark.parametrize("expr, message", [
    # ast.dump's text differs across Python versions, so it is built here.
    ("n_blocks ** 2", "unsupported construct in custom MF expression: "
     + ast.dump(ast.parse("n_blocks ** 2", mode="eval").body)),
    ("n_blocks +", "invalid custom MF expression: 'n_blocks +'"),
], ids=["power", "syntax"])
def test_mf_custom_expression_outside_the_grammar_errors(expr, message):
    with pytest.raises(CapacityError) as err:
        multiplicative_factor(svc(rule=MFKind.CUSTOM, expr=expr), PROFILE)
    assert str(err.value) == message


def test_mf_matches_sampled_request_rates(reference_arch, reference_table):
    # Oracle: expected requests per service per email, measured over a large
    # email sample routed by hand along the reference pipeline.
    import numpy as np

    from archscale.workload import sample_email_batch

    rng = np.random.Generator(np.random.PCG64(123))
    shapes, shape_of = sample_email_batch(reference_arch.profile, rng, 200_000)
    n = len(shape_of)
    blocks, atts, masks = np.array([shapes[i] for i in shape_of], dtype=np.int64).T
    clean = np.zeros(n)
    for j in range(int(reference_arch.profile.attachment_count_support[1])):
        clean += ((masks >> j) & 1 == 0) & (atts > j)
    observed = {
        "MessageReceiver": n, "MessageParser": n, "HeaderAnalyser": n,
        "LinkAnalyser": n, "TextAnalyser": n,
        "SentimentAnalyser": blocks.sum(),
        "VirusScanner": atts.sum(),
        "AttachmentManager": clean.sum(),
        "ImageAnalyser": clean.sum(),
        "ImageRecognizer": clean.sum(),
        "NSFWDetector": clean.sum(),
        "MessageAnalyser": 3 * n + atts.sum(),
    }
    for entry in reference_table:
        assert observed[entry.name] / n == pytest.approx(float(entry.mf), abs=0.02)


# -- request sizes -----------------------------------------------------------

def test_request_size_whole_email(reference_arch):
    s = reference_arch.service("MessageReceiver")
    assert request_size(s, reference_arch) == 14


def test_request_size_negligible(reference_arch):
    assert request_size(reference_arch.service("TextAnalyser"), reference_arch) == 0


def test_request_size_mixed_parts_aggregator(reference_arch):
    s = reference_arch.service("MessageAnalyser")
    assert request_size(s, reference_arch) == Fraction(21, 10)  # 2 * 0.75 * 7 / 5


def test_request_size_per_attachment(reference_arch):
    assert request_size(reference_arch.service("VirusScanner"), reference_arch) == 7


# -- per-instance throughput limits ------------------------------------------

def test_mcl_explicit_override(reference_arch):
    assert service_mcl(reference_arch.service("ImageRecognizer"), reference_arch) == 91


def test_mcl_infinite_when_payload_and_penalty_zero(reference_arch):
    assert is_infinite(service_mcl(reference_arch.service("LinkAnalyser"), reference_arch))


def test_mcl_formula():
    # 7 MB at 1400 MB/s plus a 5 ms penalty: 1 / (0.005 + 0.005)
    doc = {
        "services": [{"name": "S", "cost": {"Cores": 2, "Memory": 0},
                      "mcl": {"attachments_per_request": 1, "penalty_factor": 0.005,
                              "data_rate_by_cores": {"2": 1400}}}],
        "vm_catalog": [], "profile": {"n_attachments": 2, "attachment_size": 7,
                                      "attachment_count_support": [0, 4]},
        "pipeline": [],
    }
    arch = parse_architecture_data(doc)
    assert service_mcl(arch.service("S"), arch) == 100


def test_mcl_missing_rate_errors():
    doc = {
        "services": [{"name": "S", "cost": {"Cores": 4, "Memory": 0},
                      "mcl": {"attachments_per_request": 1,
                              "data_rate_by_cores": {"2": 1400}}}],
        "vm_catalog": [], "profile": {}, "pipeline": [],
    }
    arch = parse_architecture_data(doc)
    with pytest.raises(CapacityError, match="no data rate"):
        service_mcl(arch.service("S"), arch)


def test_penalty_only_mcl():
    doc = {
        "services": [{"name": "S", "cost": {"Cores": 2, "Memory": 0},
                      "mcl": {"penalty_factor": 0.01}}],
        "vm_catalog": [], "profile": {}, "pipeline": [],
    }
    arch = parse_architecture_data(doc)
    assert service_mcl(arch.service("S"), arch) == 100


# -- instance counts ---------------------------------------------------------

def test_instances_for_target_examples():
    assert instances_for_target(Fraction(60), Fraction(3, 2), Fraction(91)) == 1
    assert instances_for_target(Fraction(0), Fraction(1), Fraction(10)) == 1
    assert instances_for_target(Fraction(210), Fraction(3, 2), Fraction(91)) == 4
    assert instances_for_target(Fraction(100), Fraction(1), INFINITE) == 1


@settings(max_examples=300, derandomize=True)
@given(
    sys_mcl=st.integers(0, 2000),
    mf=st.fractions(Fraction(1, 10), Fraction(10)),
    mcl=st.fractions(Fraction(1), Fraction(500)),
    bump=st.integers(0, 100),
)
def test_instances_for_target_monotone(sys_mcl, mf, mcl, bump):
    base = instances_for_target(Fraction(sys_mcl), mf, mcl)
    assert instances_for_target(Fraction(sys_mcl + bump), mf, mcl) >= base
    assert instances_for_target(Fraction(sys_mcl), mf + Fraction(bump, 7), mcl) >= base
    assert instances_for_target(Fraction(sys_mcl), mf, mcl + Fraction(bump, 7)) <= base


# -- system capacity ---------------------------------------------------------

def test_system_mcl_reference_base(reference_table, reference_ladder):
    assert system_mcl(reference_ladder.base, reference_table) >= 60


def test_system_mcl_zero_count_is_zero(reference_table, reference_ladder):
    counts = list(reference_ladder.base.counts)
    idx = [e.name for e in reference_table].index("VirusScanner")
    counts[idx] = 0
    assert system_mcl(Configuration(tuple(counts)), reference_table) == 0


def test_system_mcl_single_service():
    table = CapacityTable((ServiceCapacity("s", Fraction(3, 2), Fraction(0), Fraction(91)),))
    assert system_mcl(Configuration((3,)), table) == 182


def test_system_mcl_all_infinite_is_infinite():
    table = CapacityTable((ServiceCapacity("s", Fraction(1), Fraction(0), INFINITE),))
    assert is_infinite(system_mcl(Configuration((1,)), table))


def reference_system_mcl(counts, table):
    """The bottleneck ``min(count * mcl / mf)`` over the finite services
    that receive requests, one Fraction per service."""
    ratios = [count * Fraction(e.mcl) / e.mf
              for count, e in zip(counts, table.entries) if e.mcl != INFINITE and e.mf != 0]
    return min(ratios, default=INFINITE)


@st.composite
def capacity_tables(draw, max_size=6):
    """Tables of finite and infinite services with rational MF and MCL,
    some of them receiving no requests (MF 0)."""
    size = draw(st.integers(1, max_size))
    return CapacityTable(tuple(
        ServiceCapacity(
            f"s{i}",
            draw(st.one_of(st.just(Fraction(0)),
                           st.fractions(Fraction(1, 4), Fraction(8), max_denominator=12))),
            Fraction(0),
            draw(st.one_of(st.just(INFINITE),
                           st.fractions(Fraction(10), Fraction(300), max_denominator=30))))
        for i in range(size)))


@settings(max_examples=300, derandomize=True)
@given(data=st.data(), table=capacity_tables())
def test_system_mcl_matches_reference(data, table):
    counts = data.draw(st.lists(st.integers(0, 40), min_size=len(table.entries),
                                max_size=len(table.entries)))
    got = system_mcl(Configuration(tuple(counts)), table)
    assert got == reference_system_mcl(counts, table)
    assert type(got) is (float if is_infinite(got) else Fraction)


def test_is_infinite():
    assert is_infinite(math.inf)
    assert is_infinite(float("inf"))
    assert is_infinite(INFINITE)
    for finite in (Fraction(10 ** 9), Fraction(1, 3), 0, 1, 10 ** 30, 0.0, 0.1, 1e300):
        assert not is_infinite(finite), finite


# -- base configuration -------------------------------------------------------

def test_base_configuration_matches_reference(reference_table):
    base = base_configuration(Fraction(60), reference_table)
    for name, row in REFERENCE_COUNTS.items():
        idx = [e.name for e in reference_table].index(name)
        assert base.counts[idx] == row[0], name


def test_base_configuration_target_390_equals_base_plus_all_deltas(reference_table, reference_ladder):
    full = base_configuration(Fraction(390), reference_table)
    stacked = reference_ladder.base
    for d in reference_ladder.deltas:
        stacked = stacked + d
    assert full.counts == stacked.counts


def test_base_configuration_infinite_only():
    table = CapacityTable((ServiceCapacity("s", Fraction(1), Fraction(0), INFINITE),))
    assert base_configuration(Fraction(60), table).counts == (1,)


@settings(max_examples=120, derandomize=True)
@given(target=st.integers(1, 1500))
def test_base_configuration_is_minimal(target, reference_table):
    # Decrementing any finite-capacity component either drops below one
    # instance or breaks the target.
    config = base_configuration(Fraction(target), reference_table)
    assert system_mcl(config, reference_table) >= target
    for i, entry in enumerate(reference_table):
        if is_infinite(entry.mcl):
            continue
        fewer = list(config.counts)
        fewer[i] -= 1
        if fewer[i] >= 1:
            assert system_mcl(Configuration(tuple(fewer)), reference_table) < target


# -- scale ladder --------------------------------------------------------------

def fitted_interval(name: str):
    """Interval of per-instance limits consistent with the frozen count table.

    Independent oracle: invert the ceiling formula for every level and
    intersect.  ceil(T * mf / m) == n  <=>  m in [T*mf/n, T*mf/(n-1)).
    """
    row = REFERENCE_COUNTS[name]
    cums = [row[0]]
    for d in row[1:]:
        cums.append(cums[-1] + d)
    mf = {"MessageReceiver": 1, "MessageParser": 1, "SentimentAnalyser": Fraction(5, 2),
          "VirusScanner": 2, "AttachmentManager": Fraction(3, 2), "ImageAnalyser": Fraction(3, 2),
          "NSFWDetector": Fraction(3, 2), "ImageRecognizer": Fraction(3, 2),
          "MessageAnalyser": 5}[name]
    lo, hi = Fraction(0), None
    for target, n in zip(SCALE_TARGETS, cums):
        lo = max(lo, Fraction(target) * mf / n)
        if n > 1:
            bound = Fraction(target) * mf / (n - 1)
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


def test_reference_mcl_vector_lies_in_fitted_intervals(reference_table):
    for entry in reference_table:
        if is_infinite(entry.mcl):
            assert REFERENCE_COUNTS[entry.name] == (1, 0, 0, 0, 0)
            continue
        lo, hi = fitted_interval(entry.name)
        assert lo <= entry.mcl, entry.name
        assert hi is None or entry.mcl < hi, entry.name
    ir = reference_table.entry("ImageRecognizer")
    assert ir.mcl == 91


def test_ladder_reproduces_reference_counts(reference_table, reference_ladder):
    names = [e.name for e in reference_table]
    for name, row in REFERENCE_COUNTS.items():
        idx = names.index(name)
        got = (reference_ladder.base.counts[idx],) + tuple(
            d.counts[idx] for d in reference_ladder.deltas)
        assert got == row, name


def test_ladder_image_recognizer_cumulative_needs(reference_table):
    # ceil((60 + x) * 1.5 / 91) for x in (60, 150, 240, 330) -> 2, 4, 5, 7
    needs = [ceil_frac(Fraction(60 + x) * Fraction(3, 2) / 91) for x in (60, 150, 240, 330)]
    assert needs == [2, 4, 5, 7]


def test_ladder_soundness(reference_table, reference_ladder):
    config = reference_ladder.base
    for inc, delta in zip(reference_ladder.scale_mcl_increments, reference_ladder.deltas):
        config = config + delta
        assert system_mcl(config, reference_table) >= 60 + inc


def test_ladder_prefix_identity(reference_ladder, reference_table):
    for i in range(1, reference_ladder.num_scales + 1):
        cum = base_configuration(60 + reference_ladder.scale_mcl_increments[i - 1], reference_table)
        assert (reference_ladder.base + reference_ladder.scale(i)).counts == cum.counts


def test_ladder_infinite_service_never_scales():
    table = CapacityTable((
        ServiceCapacity("inf", Fraction(1), Fraction(0), INFINITE),
        ServiceCapacity("fin", Fraction(1), Fraction(0), Fraction(100)),
    ))
    ladder = synthesize_scale_ladder(Fraction(60), [Fraction(60)], table)
    assert ladder.deltas[0].counts == (0, 1)


def test_ladder_rejects_non_monotone_increments(reference_table):
    with pytest.raises(CapacityError, match="increasing"):
        synthesize_scale_ladder(Fraction(60), [Fraction(100), Fraction(100)], reference_table)


@pytest.mark.parametrize("base", [Fraction(-60), -1, -0.5, math.nan, math.inf, -math.inf])
def test_ladder_rejects_negative_or_non_finite_base(base, reference_table):
    # Else a negative base builds a ladder whose D1 adds no instance, and a
    # NaN fails on an invalid Fraction that names no argument.
    with pytest.raises(CapacityError, match=r"^base target must be a finite number at least 0"):
        synthesize_scale_ladder(base, [Fraction(60)], reference_table)


@pytest.mark.parametrize("increments", [[Fraction(60), math.nan], [math.inf]])
def test_ladder_rejects_non_finite_increments(increments, reference_table):
    with pytest.raises(CapacityError, match=r"^scale increments must be finite numbers"):
        synthesize_scale_ladder(Fraction(60), increments, reference_table)


@pytest.mark.parametrize("mcl", [Fraction(0), Fraction(-5)])
def test_instances_for_a_non_positive_mcl_rejected(mcl):
    with pytest.raises(CapacityError) as err:
        instances_for_target(Fraction(60), Fraction(1), mcl)
    assert str(err.value) == "mcl must be positive or infinite"


def test_system_mcl_of_a_configuration_of_another_length_rejected(reference_table):
    with pytest.raises(CapacityError) as err:
        system_mcl(Configuration((1, 1)), reference_table)
    assert str(err.value) == "configuration length does not match capacity table"


@pytest.mark.parametrize("i", [0, 5])
def test_ladder_scale_index_out_of_range_rejected(i, reference_ladder):
    with pytest.raises(IndexError) as err:
        reference_ladder.scale(i)
    assert str(err.value) == f"scale index {i} out of range 1..4"


def test_ladder_accepts_base_zero(reference_table):
    ladder = synthesize_scale_ladder(0, [Fraction(60)], reference_table)
    assert ladder.base_mcl == 0
    assert ladder.base.counts == (1,) * len(reference_table.entries)


def test_last_scale_covers_all_finite_services(reference_ladder, reference_table):
    assert reference_ladder.last_scale_covers_finite_services(reference_table)


@settings(max_examples=60, derandomize=True)
@given(
    base=st.integers(10, 200),
    steps=st.lists(st.integers(10, 120), min_size=1, max_size=5),
)
def test_ladder_soundness_random(base, steps, reference_table):
    increments = []
    acc = 0
    for s in steps:
        acc += s
        increments.append(Fraction(acc))
    ladder = synthesize_scale_ladder(Fraction(base), increments, reference_table)
    config = ladder.base
    for inc, delta in zip(ladder.scale_mcl_increments, ladder.deltas):
        config = config + delta
        assert system_mcl(config, reference_table) >= base + inc
        assert all(c >= 0 for c in delta.counts)


@settings(max_examples=100, derandomize=True)
@given(
    base=st.integers(10, 200),
    steps=st.lists(st.integers(10, 120), min_size=1, max_size=5),
    data=st.data(),
)
def test_configuration_for_equals_repeated_addition(base, steps, data, reference_table):
    increments = [Fraction(sum(steps[:i + 1])) for i in range(len(steps))]
    ladder = synthesize_scale_ladder(Fraction(base), increments, reference_table)
    vector = tuple(data.draw(st.lists(st.integers(0, 6), min_size=ladder.num_scales,
                                      max_size=ladder.num_scales)))
    expected = ladder.base
    for count, delta in zip(vector, ladder.deltas):
        for _ in range(count):
            expected = expected + delta
    assert ladder.configuration_for(vector) == expected


# -- per-request cost ----------------------------------------------------------

def test_request_cost_exact(reference_arch):
    s = reference_arch.service("ImageRecognizer")
    budget, cost = request_cost(Fraction(91), 30)
    assert (budget, cost) == (91, 30)
    # 6 cores at speed 5 spend 5 * 6 units a tick; a request takes 30/91 of them.
    assert 5 * s.cores_required * Fraction(cost, budget) == Fraction(5 * 6 * 30, 91)
    # MCL 182/3: budget 182 a tick, a request costs 30 * 3.
    assert request_cost(Fraction(182, 3), 30) == (182, 90)


def test_request_cost_infinite_is_zero(reference_table):
    mcl = reference_table.entry("HeaderAnalyser").mcl
    assert is_infinite(mcl)
    assert request_cost(mcl, 30) == (1, 0)


def test_service_without_requests_bounds_nothing(all_virus_arch):
    table = build_capacity_table(all_virus_arch)
    idle = {e.name for e in table if e.mf == 0}
    assert idle == {"AttachmentManager", "ImageAnalyser", "NSFWDetector", "ImageRecognizer"}
    ladder = synthesize_scale_ladder(Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], table)
    others = [count * Fraction(e.mcl) / e.mf for count, e in zip(ladder.base.counts, table)
              if e.name not in idle and not is_infinite(e.mcl)]
    assert system_mcl(ladder.base, table) == min(others)
    assert all(ladder.scale(ladder.num_scales).counts[[e.name for e in table].index(n)] == 0
               for n in idle)
    assert ladder.last_scale_covers_finite_services(table)


@pytest.mark.parametrize("value,text", [
    (INFINITE, "inf"),
    (Fraction(7), "7"),
    (Fraction(-5, 2), "-2.5"),
    (Fraction(1, 3), "1/3"),
    (Fraction(1, 2 ** 60), "1/1152921504606846976"),
    (Fraction("0.123456789123456789"), "123456789123456789/1000000000000000000"),
    (Fraction(10 ** 400), str(10 ** 400)),
    (Fraction(10 ** 400 + 1, 2), f"{10 ** 400 + 1}/2"),
    (Fraction(10 ** 400, 3), f"{10 ** 400}/3"),
    (Fraction(1, 10 ** 400), f"1/{10 ** 400}"),
])
def test_format_rational_writes_text_that_reads_back(value, text):
    assert format_rational(value) == text
    if value != INFINITE:
        assert Fraction(text) == value


@given(height=st.integers(0, 10 ** 6), scales=st.integers(0, 8))
def test_canonical_vector_stacks_height_deltas(height, scales):
    vector = canonical_vector(height, scales)
    assert delta_vector_is_canonical(vector)
    assert len(vector) == scales
    assert sum(vector) == (height if scales else 0)
