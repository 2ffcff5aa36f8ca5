"""Architecture document parsing, validation and round-tripping."""

import dataclasses
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from archscale import (
    CycleError,
    ParseError,
    parse_architecture,
    serialize_architecture,
    validate_architecture,
)
from archscale.document import architecture_to_data, parse_architecture_data
from archscale.model import PipelineEdge


def minimal_doc(**overrides):
    doc = {
        "services": [
            {"name": "A", "provide": -1, "cost": {"Cores": 2, "Memory": 200},
             "sig": [], "weak_requires": [],
             "mcl": {"attachments_per_request": 1, "penalty_factor": 0,
                     "data_rate_by_cores": {"2": 700}},
             "mf_rule": "unit"},
            {"name": "B", "provide": -1, "cost": {"Cores": 2, "Memory": 200},
             "sig": ["A"], "weak_requires": [],
             "mcl": {"attachments_per_request": 0, "penalty_factor": 0.01,
                     "data_rate_by_cores": {}},
             "mf_rule": "per_block"},
        ],
        "vm_catalog": [
            {"name": "small", "cores": 4, "memory": 4000, "speed_per_core": 5,
             "startup_time": 30, "cost": 1.0},
        ],
        "profile": {"n_blocks": 2.5, "n_attachments": 2, "attachment_size": 7,
                    "p_virus": 0.25, "block_count_support": [1, 4],
                    "attachment_count_support": [0, 4]},
        "pipeline": [{"from": "B", "to": "A", "part": "report"}],
    }
    doc.update(overrides)
    return doc


def test_reference_architecture_parses(reference_arch):
    assert len(reference_arch.services) == 12
    assert len(reference_arch.vm_catalog) == 4
    receiver = reference_arch.service("MessageReceiver")
    assert receiver.cores_required == 2
    assert receiver.memory_required == 200
    assert reference_arch.entry_service() == "MessageReceiver"


def test_empty_services_list_is_valid():
    arch = parse_architecture_data({"services": [], "vm_catalog": [], "profile": {}, "pipeline": []})
    assert arch.services == ()
    assert validate_architecture(arch).ok


def test_fractions_parse_exactly():
    arch = parse_architecture_data(minimal_doc())
    assert arch.profile.n_blocks == Fraction(5, 2)
    assert arch.profile.p_virus == Fraction(1, 4)
    b = arch.service("B")
    assert b.mcl_params.penalty_factor == Fraction(1, 100)


def test_strong_cycle_rejected():
    doc = minimal_doc()
    doc["services"][0]["sig"] = ["B"]  # A -> B -> A
    with pytest.raises(CycleError) as err:
        parse_architecture_data(doc)
    assert set(err.value.cycle) == {"A", "B"}


@pytest.mark.parametrize("n_services", [3, 5, 8])
def test_cycle_detection_matches_networkx(n_services):
    # Oracle: build random-ish dependency graphs and compare against networkx.
    import itertools

    names = [f"S{i}" for i in range(n_services)]
    for bits in range(2 ** min(n_services, 6)):
        edges = []
        pairs = list(itertools.permutations(range(n_services), 2))[: 6]
        for j, (a, b) in enumerate(pairs):
            if bits >> j & 1:
                edges.append((names[a], names[b]))
        doc = {
            "services": [
                {"name": n, "sig": [b for a, b in edges if a == n],
                 "cost": {"Cores": 1, "Memory": 0}} for n in names
            ],
            "vm_catalog": [], "profile": {}, "pipeline": [],
        }
        g = nx.DiGraph(edges)
        g.add_nodes_from(names)
        has_cycle = not nx.is_directed_acyclic_graph(g)
        if has_cycle:
            with pytest.raises(CycleError):
                parse_architecture_data(doc)
        else:
            parse_architecture_data(doc)


def test_duplicate_service_names_rejected():
    doc = minimal_doc()
    doc["services"].append(dict(doc["services"][0]))
    with pytest.raises(ParseError, match="duplicate"):
        parse_architecture_data(doc)


def test_unknown_requirement_names_field():
    doc = minimal_doc()
    doc["services"][1]["sig"] = ["Nope"]
    with pytest.raises(ParseError, match=r"services\[B\].sig"):
        parse_architecture_data(doc)


def test_unknown_keys_rejected():
    doc = minimal_doc()
    doc["services"][0]["surprise"] = 1
    with pytest.raises(ParseError, match="unknown keys"):
        parse_architecture_data(doc)
    doc = minimal_doc(extra_top_level=True)
    with pytest.raises(ParseError, match="unknown keys"):
        parse_architecture_data(doc)


def test_unknown_part_kind_rejected():
    doc = minimal_doc()
    doc["pipeline"][0]["part"] = "payload"
    with pytest.raises(ParseError, match="part"):
        parse_architecture_data(doc)


def set_path(doc, path, value):
    """``doc`` with the item at ``path`` (keys and indices) set to ``value``."""
    *parents, last = path
    block = doc
    for key in parents:
        block = block[key]
    block[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    (("services", 0, "cost", "Cores"), True,
     "services[A].cost.Cores: expected a number, got a boolean"),
    (("profile", "n_blocks"), "5/0", "profile.n_blocks: not a rational number: '5/0'"),
    (("profile", "p_virus"), "a quarter", "profile.p_virus: not a rational number: 'a quarter'"),
    (("vm_catalog", 0, "cores"), [4], "vm_catalog[small].cores: expected a number, got list"),
    (("vm_catalog", 0, "cores"), Fraction(9, 2),
     "vm_catalog[small].cores: expected an integer, got 9/2"),
    (("services", 0, "name"), 5, "services[5].name: expected a string"),
    (("services", 0, "cost"), [2, 200], "services[A].cost: expected an object"),
    (("services", 0, "mf_rule"), "per_email",
     "services[A].mf_rule: unknown mf_rule 'per_email' (expected one of ['email_parts_sum', "
     "'per_attachment', 'per_block', 'per_clean_attachment', 'unit'] or a custom object)"),
    (("services", 0, "mf_rule"), {},
     "services[A].mf_rule: custom rule needs a 'custom' expression"),
    (("services", 0, "mcl", "data_rate_by_cores"), [700],
     "services[A].mcl.data_rate_by_cores: expected an object"),
    (("services", 1, "sig"), "A", "services[B].sig: expected a list of service names"),
    (("services", 1, "weak_requires"), None,
     "services[B].weak_requires: expected a list of service names"),
    (("profile", "block_count_support"), [1, 2, 4],
     "profile.block_count_support: expected [lo, hi]"),
    (("pipeline", 0, "when"), "always", "pipeline[B -> A].when: expected 'clean' or 'infected'"),
    (("services",), {"A": {}}, "services: expected a list"),
    (("vm_catalog",), {"small": {}}, "vm_catalog: expected a list"),
    (("vm_catalog",), [{"name": "small"}, {"name": "small", "cores": 8}],
     "duplicate VM type names in vm_catalog"),
    (("pipeline",), {"from": "B"}, "pipeline: expected a list"),
    (("pipeline", 0, "to"), "C", "pipeline[B -> C].to: unknown service 'C'"),
    (("pipeline", 0, "from"), "C", "pipeline[C -> A].from: unknown service 'C'"),
    (("services", 0), 5, "services[0]: expected an object"),
    (("vm_catalog", 0), "x", "vm_catalog[0]: expected an object"),
    (("pipeline", 0), [1], "pipeline[0]: expected an object"),
    (("services", 1), {"sig": []}, "services[1].name: expected a string"),
    (("profile", "p_virus"), float("nan"), "profile.p_virus: not a finite number: nan"),
    (("vm_catalog", 0, "cost"), float("inf"), "vm_catalog[small].cost: not a finite number: inf"),
], ids=["boolean", "zero-denominator", "not-rational", "list-number", "fraction-integer",
        "name", "cost", "mf-name", "mf-object", "data-rates", "sig", "weak", "support", "when",
        "services", "vm-catalog", "vm-names", "pipeline", "edge-to", "edge-from",
        "service-entry", "vm-entry", "edge-entry", "nameless", "nan", "infinity"])
def test_malformed_document_refused_by_name(path, value, message):
    with pytest.raises(ParseError) as err:
        parse_architecture_data(set_path(minimal_doc(), path, value))
    assert str(err.value) == message


def test_round_trip_identity(reference_arch):
    text = serialize_architecture(reference_arch)
    again = parse_architecture(text)
    assert again == reference_arch
    assert serialize_architecture(again) == text


def test_round_trip_non_decimal_rational():
    doc = minimal_doc()
    doc["services"][0]["mcl"]["penalty_factor"] = "1/3"
    arch = parse_architecture_data(doc)
    assert arch.service("A").mcl_params.penalty_factor == Fraction(1, 3)
    again = parse_architecture(serialize_architecture(arch))
    assert again == arch


def with_every_number(value):
    """The minimal document's architecture with ``value`` in each rational
    field the serializer writes."""
    doc = minimal_doc()
    a, b = doc["services"]
    a["mcl"]["penalty_factor"] = a["mcl"]["data_rate_by_cores"]["2"] = value
    b["mcl"]["explicit_mcl"] = b["mcl"]["attachments_per_request"] = value
    doc["vm_catalog"][0].update(speed_per_core=value, cost=value)
    doc["profile"].update(n_blocks=value, n_attachments=value, attachment_size=value,
                          p_virus=value)
    return parse_architecture_data(doc)


# Any fraction, and the kinds whose float's text is often not themselves:
# long decimal expansions and large powers of two in the denominator.
rationals = st.one_of(
    st.builds(lambda n, k: Fraction(n, 10 ** k), st.integers(-10 ** 40, 10 ** 40),
              st.integers(0, 40)),
    st.builds(lambda n, k: Fraction(n, 2 ** k), st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 200)),
    st.fractions())


@example(Fraction(1, 2 ** 60))
@example(Fraction("0.123456789123456789"))
# Beyond the float range, above and below.
@example(Fraction(10 ** 400 + 1, 2))
@example(Fraction(-10 ** 400, 3))
@example(Fraction(1, 10 ** 400))
@given(value=rationals)
def test_round_trip_is_exact_for_every_rational(value):
    arch = with_every_number(value)
    assert parse_architecture(serialize_architecture(arch)) == arch


def test_validation_reference_is_clean(reference_arch):
    assert validate_architecture(reference_arch).ok


def test_validation_flags_zero_cores():
    doc = minimal_doc()
    doc["services"][0]["cost"]["Cores"] = 0
    report = validate_architecture(parse_architecture_data(doc))
    assert len(report) == 1
    v = report.violations[0]
    assert v.field == "cores_required"
    assert v.owner == "service A"


def test_validation_flags_out_of_range_virus_probability():
    doc = minimal_doc()
    doc["profile"]["p_virus"] = 1.3
    report = validate_architecture(parse_architecture_data(doc))
    assert len(report) == 1
    assert report.violations[0].field == "p_virus"


def test_validation_flags_support_mean_mismatch():
    doc = minimal_doc()
    doc["profile"]["block_count_support"] = [1, 3]  # mean 2 != 2.5
    report = validate_architecture(parse_architecture_data(doc))
    assert [v.field for v in report] == ["block_count_support"]


def test_validation_flags_duplicate_strong_requirement():
    doc = minimal_doc()
    doc["services"][1]["sig"] = ["A", "A"]
    report = validate_architecture(parse_architecture_data(doc))
    assert [v.field for v in report] == ["strong_requires"]


def test_validation_flags_cyclic_pipeline(reference_arch):
    # AttachmentManager hands clean attachments back to VirusScanner.
    arch = dataclasses.replace(reference_arch, pipeline=reference_arch.pipeline + (
        PipelineEdge("AttachmentManager", "VirusScanner", "attachment"),))
    report = validate_architecture(arch)
    assert [(v.owner, v.field) for v in report] == [
        ("pipeline[AttachmentManager -> VirusScanner]", "to")]
    assert "cycle VirusScanner -> AttachmentManager -> VirusScanner" in report.violations[0].message


@given(st.lists(st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE")), max_size=10))
def test_validation_names_an_edge_on_a_cycle_iff_the_pipeline_has_one(pairs):
    edges = tuple(PipelineEdge(a, b, "email") for a, b in pairs)
    doc = minimal_doc(pipeline=[])
    doc["services"] += [dict(doc["services"][0], name=name) for name in "CDE"]
    arch = parse_architecture_data(doc)
    report = validate_architecture(dataclasses.replace(arch, pipeline=edges))
    graph = nx.MultiDiGraph(list(pairs))
    flagged = [v for v in report if v.owner.startswith("pipeline")]
    assert len(flagged) == (0 if nx.is_directed_acyclic_graph(graph) else 1)
    for v in flagged:
        src, dst = v.owner[len("pipeline["):-1].split(" -> ")
        assert graph.has_edge(src, dst) and nx.has_path(graph, dst, src)


@given(st.lists(st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE")), max_size=10))
def test_validation_names_a_strong_cycle_iff_the_parser_refuses_it(pairs):
    # The same strong requirements in a document and in an architecture
    # built in code, which no parser checks.
    doc = minimal_doc()
    doc["services"] += [dict(doc["services"][0], name=name) for name in "CDE"]
    for svc in doc["services"]:
        svc["sig"] = sorted({b for a, b in pairs if a == svc["name"]})
    try:
        parse_architecture_data(doc)
        refused = False
    except CycleError:
        refused = True
    arch = parse_architecture_data(dict(doc, services=[dict(svc, sig=[]) for svc in doc["services"]]))
    arch = dataclasses.replace(arch, services=tuple(
        dataclasses.replace(svc, strong_requires=tuple(sorted({b for a, b in pairs if a == svc.name})))
        for svc in arch.services))
    flagged = [v for v in validate_architecture(arch) if "strong-dependency cycle" in v.message]
    graph = nx.DiGraph(list(pairs))
    has_cycle = not nx.is_directed_acyclic_graph(graph)
    assert refused == has_cycle
    assert len(flagged) == has_cycle
    for v in flagged:
        # The named service's requirement of the cycle's first service
        # closes it.
        assert v.field == "strong_requires"
        owner = v.owner[len("service "):]
        first = v.message.split("cycle ")[1].split(" -> ")[0]
        assert graph.has_edge(owner, first) and nx.has_path(graph, first, owner)


def test_every_violation_names_one_field_and_invariant():
    doc = minimal_doc()
    doc["services"][0]["cost"]["Cores"] = 0
    doc["services"][0]["cost"]["Memory"] = -1
    doc["services"][0]["provide"] = -2
    doc["services"][0]["mcl"] = {"attachments_per_request": -1, "penalty_factor": -1,
                                 "data_rate_by_cores": {"2": 0}, "explicit_mcl": 0}
    doc["profile"].update(p_virus=2, attachment_size=0, attachment_count_support=[3, 1])
    doc["vm_catalog"][0].update(cost=0, cores=0, speed_per_core=0, startup_time=-1)
    report = validate_architecture(parse_architecture_data(doc))
    assert [(v.owner, v.field) for v in report] == [
        ("service A", "cores_required"),
        ("service A", "memory_required"),
        ("service A", "provide_capacity"),
        ("service A", "mcl_params.penalty_factor"),
        ("service A", "mcl_params.attachments_per_request"),
        ("service A", "mcl_params.data_rate_by_cores[2]"),
        ("service A", "mcl_params.explicit_mcl"),
        ("vm small", "cores"),
        ("vm small", "speed_per_core"),
        ("vm small", "startup_time"),
        ("vm small", "cost"),
        ("profile", "p_virus"),
        ("profile", "attachment_size"),
        ("profile", "attachment_count_support"),
    ]
    for v in report:
        assert v.owner and v.field and v.message


def test_serializer_inverse_of_parser_on_data(reference_arch):
    data = architecture_to_data(reference_arch)
    assert parse_architecture_data(data) == reference_arch
