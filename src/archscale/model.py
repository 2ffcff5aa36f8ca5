"""Domain model for a microservice email-processing architecture.

The model captures everything the capacity math, the placement planner and
the simulator need to know about a system: service types with strong/weak
dependencies and resource demands, the VM catalog, the statistical email
profile, and the message pipeline topology.

All numeric fields that feed capacity formulas are ``fractions.Fraction``
so that ceiling arithmetic never misfires at integer boundaries.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

#: Sentinel for an unbounded per-instance throughput limit.
INFINITE: float = math.inf

Rational = Union[Fraction, float]

#: Message part kinds a request can carry through the pipeline.
PART_KINDS = ("email", "header", "links", "text", "block", "attachment", "report")


class MFKind(Enum):
    """How a service's mean requests-per-email factor is derived."""

    UNIT = "unit"
    PER_BLOCK = "per_block"
    PER_ATTACHMENT = "per_attachment"
    PER_CLEAN_ATTACHMENT = "per_clean_attachment"
    EMAIL_PARTS_SUM = "email_parts_sum"
    CUSTOM = "custom"


@dataclass(frozen=True)
class MFRule:
    kind: MFKind
    expression: str | None = None  # only for CUSTOM


@dataclass(frozen=True)
class MCLParams:
    """Inputs to the per-instance throughput-limit formula.

    ``attachments_per_request`` scales the mean request payload: 0 for
    negligible-payload services, 1 for services handling one attachment per
    request, and the profile's mean attachment count for services that
    receive whole emails.  ``data_rate_by_cores`` maps a core count to the
    MB/s the service moves when granted that many cores.  ``explicit_mcl``,
    when set, overrides the formula entirely.
    """

    attachments_per_request: Fraction = Fraction(0)
    penalty_factor: Fraction = Fraction(0)
    data_rate_by_cores: dict[int, Fraction] = field(default_factory=dict)
    explicit_mcl: Fraction | None = None

    def __hash__(self) -> int:
        return hash((
            self.attachments_per_request,
            self.penalty_factor,
            tuple(sorted(self.data_rate_by_cores.items())),
            self.explicit_mcl,
        ))


@dataclass(frozen=True)
class ServiceType:
    name: str
    cores_required: int
    memory_required: int  # MB
    strong_requires: tuple[str, ...] = ()
    weak_requires: tuple[str, ...] = ()
    provide_capacity: int = -1  # -1 = unbounded consumers
    mcl_params: MCLParams = field(default_factory=MCLParams)
    mf_rule: MFRule = field(default=MFRule(MFKind.UNIT))


@dataclass(frozen=True)
class EmailProfile:
    """Statistical structure of inbound emails.

    The sampling supports are inclusive integer ranges whose means must
    equal the declared ``n_blocks`` / ``n_attachments`` so that simulated
    traffic matches the capacity math.
    """

    n_blocks: Fraction = Fraction(5, 2)
    n_attachments: Fraction = Fraction(2)
    attachment_size: Fraction = Fraction(7)  # MB
    p_virus: Fraction = Fraction(1, 4)
    block_count_support: tuple[int, int] = (1, 4)
    attachment_count_support: tuple[int, int] = (0, 4)


@dataclass(frozen=True)
class VMType:
    name: str
    cores: int
    memory: int  # MB
    speed_per_core: Fraction  # resource units per tick per core
    startup_time: int  # ticks
    cost: Fraction  # abstract monetary units per acquisition


@dataclass(frozen=True)
class PipelineEdge:
    """One hop of the message flow: ``src`` forwards ``part`` to ``dst``.

    ``when`` restricts attachment-carrying completions: "clean" edges fire
    only for virus-free attachments, "infected" only for flagged ones.
    """

    src: str
    dst: str
    part: str
    when: str | None = None  # None | "clean" | "infected"


@dataclass(frozen=True)
class SystemArchitecture:
    services: tuple[ServiceType, ...]
    vm_catalog: tuple[VMType, ...]
    profile: EmailProfile
    pipeline: tuple[PipelineEdge, ...] = ()

    # The cached properties below are derived once per architecture; being
    # no fields, they take no part in == and hash.

    @cached_property
    def _service_indices(self) -> dict[str, int]:
        """Each service name's first position in ``services``."""
        out: dict[str, int] = {}
        for i, svc in enumerate(self.services):
            out.setdefault(svc.name, i)
        return out

    @cached_property
    def _vm_types(self) -> dict[str, VMType]:
        out: dict[str, VMType] = {}
        for vm in self.vm_catalog:
            out.setdefault(vm.name, vm)
        return out

    @cached_property
    def strong_order(self) -> tuple[str, ...]:
        """Service names, each after the providers of its strong
        requirements: sweeps in declaration order, each taking every service
        whose providers are taken. Services on or behind a strong cycle
        (see ``strong_cycle``) are left out. Instances are created in this
        order, so it is not graphlib's, which on the reference puts
        ImageRecognizer before NSFWDetector."""
        deps = {s.name: set(s.strong_requires) for s in self.services}
        order: list[str] = []
        taken: set[str] = set()
        pending = [s.name for s in self.services]
        while pending:
            left = []
            for name in pending:
                if deps[name] <= taken:
                    order.append(name)
                    taken.add(name)
                else:
                    left.append(name)
            if len(left) == len(pending):
                break
            pending = left
        return tuple(order)

    @cached_property
    def pipeline_order(self) -> tuple[int, ...]:
        """The services' indices in topological order: each after the
        sources of its inbound edges. Raises ``graphlib.CycleError`` on a
        cyclic pipeline, which ``validate_architecture`` reports."""
        index = self._service_indices
        preds: dict[int, set[int]] = {i: set() for i in range(len(self.services))}
        for e in self.pipeline:
            preds[index[e.dst]].add(index[e.src])
        return tuple(graphlib.TopologicalSorter(preds).static_order())

    def service(self, name: str) -> ServiceType:
        return self.services[self._service_indices[name]]

    def service_index(self, name: str) -> int:
        return self._service_indices[name]

    def vm_type(self, name: str) -> VMType:
        return self._vm_types[name]

    def entry_service(self) -> str | None:
        """The service that receives raw inbound emails.

        Defined as the unique service with no incoming pipeline edge that
        appears as a source, or simply the unique pipeline root.
        """
        if not self.services:
            return None
        targets = {e.dst for e in self.pipeline}
        roots = [s.name for s in self.services
                 if s.name not in targets and any(e.src == s.name for e in self.pipeline)]
        if len(roots) == 1:
            return roots[0]
        if not self.pipeline:
            return self.services[0].name if len(self.services) == 1 else None
        return None


@dataclass(frozen=True)
class Violation:
    """One invariant violation: names exactly one owner/field pair."""

    owner: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.field}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def add(self, owner: str, fieldname: str, message: str) -> None:
        self.violations.append(Violation(owner, fieldname, message))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


def validate_architecture(arch: SystemArchitecture) -> ValidationReport:
    """Check every type invariant; violations are data, not failures."""
    report = ValidationReport()
    declared = {s.name for s in arch.services}
    for i, svc in enumerate(arch.services):
        owner = f"service {svc.name}"
        if arch.service_index(svc.name) != i:
            report.add(owner, "name", "duplicate service name")
        if svc.cores_required < 1:
            report.add(owner, "cores_required", "must be >= 1")
        if svc.memory_required < 0:
            report.add(owner, "memory_required", "must be >= 0")
        if svc.provide_capacity < -1:
            report.add(owner, "provide_capacity", "must be -1 or >= 0")
        seen: set[str] = set()
        for dep in svc.strong_requires:
            if dep in seen:
                report.add(owner, "strong_requires", f"duplicate requirement {dep!r}")
            seen.add(dep)
        for fieldname, deps in (("strong_requires", svc.strong_requires),
                                ("weak_requires", svc.weak_requires)):
            for dep in deps:
                if dep not in declared:
                    report.add(owner, fieldname, f"unknown service {dep!r}")
        p = svc.mcl_params
        if p.penalty_factor < 0:
            report.add(owner, "mcl_params.penalty_factor", "must be >= 0")
        if p.attachments_per_request < 0:
            report.add(owner, "mcl_params.attachments_per_request", "must be >= 0")
        for cores, rate in p.data_rate_by_cores.items():
            if rate <= 0:
                report.add(owner, f"mcl_params.data_rate_by_cores[{cores}]", "rate must be > 0")
        if p.explicit_mcl is not None and p.explicit_mcl <= 0:
            report.add(owner, "mcl_params.explicit_mcl", "must be > 0 when present")

    cycle = strong_cycle(arch.services)
    if cycle:
        path = " -> ".join(cycle + cycle[:1])
        report.add(f"service {cycle[-1]}", "strong_requires",
                   f"closes the strong-dependency cycle {path}: "
                   "no service on it can be deployed first")

    vm_names: set[str] = set()
    for vm in arch.vm_catalog:
        owner = f"vm {vm.name}"
        if vm.name in vm_names:
            report.add(owner, "name", "duplicate VM type name")
        vm_names.add(vm.name)
        if vm.cores < 1:
            report.add(owner, "cores", "must be >= 1")
        if vm.speed_per_core <= 0:
            report.add(owner, "speed_per_core", "must be > 0")
        if vm.startup_time < 0:
            report.add(owner, "startup_time", "must be >= 0")
        if vm.cost <= 0:
            report.add(owner, "cost", "must be > 0")

    prof = arch.profile
    if not (0 <= prof.p_virus <= 1):
        report.add("profile", "p_virus", "must lie in [0, 1]")
    if prof.attachment_size <= 0:
        report.add("profile", "attachment_size", "must be > 0")
    for fieldname, support, mean in (
        ("block_count_support", prof.block_count_support, prof.n_blocks),
        ("attachment_count_support", prof.attachment_count_support, prof.n_attachments),
    ):
        lo, hi = support
        if lo < 0 or hi < lo:
            report.add("profile", fieldname, "must be a range 0 <= lo <= hi")
        elif Fraction(lo + hi, 2) != mean:
            report.add("profile", fieldname,
                       f"support mean {Fraction(lo + hi, 2)} differs from declared mean {mean}")

    flow: dict[str, list[str]] = {}
    for e in arch.pipeline:
        for end, fieldname in ((e.src, "from"), (e.dst, "to")):
            if end not in declared:
                report.add(f"pipeline[{e.src} -> {e.dst}]", fieldname, f"unknown service {end!r}")
        flow.setdefault(e.src, []).append(e.dst)
    cycle = find_cycle(flow)
    if cycle:
        path = " -> ".join(cycle + cycle[:1])
        report.add(f"pipeline[{cycle[-1]} -> {cycle[0]}]", "to",
                   f"closes the cycle {path}: requests would circle without end")
    return report


def strong_cycle(services: Sequence[ServiceType]) -> list[str] | None:
    """One cycle of the services' strong requirements, each service on it
    strongly requiring the next and the last the first; None if they have
    none. The one definition of that rule: the document parser refuses such
    a document and ``validate_architecture`` reports such an architecture."""
    return find_cycle({s.name: s.strong_requires for s in services})


def find_cycle(deps: dict[str, Sequence[str]]) -> list[str] | None:
    """One cycle of the directed graph ``deps`` (node -> successors), as the
    nodes along it, the last one leading back to the first; None if the
    graph is acyclic. ``graphlib`` reads ``deps`` as node -> predecessors,
    so the cycle it reports runs against the edges, its first node repeated
    at its end."""
    try:
        graphlib.TopologicalSorter(deps).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1][:0:-1]
    return None
