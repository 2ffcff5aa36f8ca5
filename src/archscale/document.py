"""Parsing and serialization of architecture documents.

An architecture document is a single JSON file with top-level keys
``services``, ``vm_catalog``, ``profile`` and ``pipeline``.  Per-service
blocks use the field names ``provide``, ``cost.Cores``, ``cost.Memory``,
``sig`` (strong requirements) and ``weak_requires``; see docs/format.md for
the full reference.  The parser is strict: unknown keys are rejected, every
cross-reference must resolve, and strong dependencies must be acyclic.

Numbers are read into exact rationals.  JSON literals like ``2.5`` parse to
``Fraction(5, 2)``, and strings like ``"1/3"`` to the rational they name.
A number is written with ``capacity.format_rational``'s text: an integer,
else a literal when the float's text reads back as the number, else a
string ``"p/q"`` (no finite decimal form, more digits than a float keeps,
or beyond the float range), so a written document reads back exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .capacity import format_rational
from .model import (
    PART_KINDS,
    EmailProfile,
    MCLParams,
    MFKind,
    MFRule,
    PipelineEdge,
    ServiceType,
    SystemArchitecture,
    VMType,
    strong_cycle,
)


class ParseError(ValueError):
    """Malformed or unresolvable architecture document."""


class CycleError(ParseError):
    """Strong requirements form a cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("strong-dependency cycle: " + " -> ".join(cycle + cycle[:1]))


def _as_fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        # Files parse via parse_float below, so only NaN and Infinity or a
        # document built in memory reach this as a binary float.
        if not math.isfinite(value):
            raise ParseError(f"{where}: not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: not a rational number: {value!r}") from exc
    raise ParseError(f"{where}: expected a number, got {type(value).__name__}")


def _as_int(value: Any, where: str) -> int:
    frac = _as_fraction(value, where)
    if frac.denominator != 1:
        raise ParseError(f"{where}: expected an integer, got {frac}")
    return int(frac)


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string")
    return value


def _entry(block: Any, listname: str, index: int, *keys: str) -> str:
    """How errors name entry ``index`` of the list ``listname``: by the
    values of ``keys`` it holds (joined by " -> "), or by its index if it
    holds none. Refuses an entry that is not an object."""
    if not isinstance(block, dict):
        raise ParseError(f"{listname}[{index}]: expected an object")
    if not any(k in block for k in keys):
        return f"{listname}[{index}]"
    return f"{listname}[{' -> '.join(str(block.get(k, '?')) for k in keys)}]"


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


_SERVICE_KEYS = {"name", "provide", "cost", "sig", "weak_requires", "mcl", "mf_rule"}
_MCL_KEYS = {"attachments_per_request", "penalty_factor", "data_rate_by_cores", "explicit_mcl"}
_VM_KEYS = {"name", "cores", "memory", "speed_per_core", "startup_time", "cost"}
_PROFILE_KEYS = {"n_blocks", "n_attachments", "attachment_size", "p_virus",
                 "block_count_support", "attachment_count_support"}
_EDGE_KEYS = {"from", "to", "part", "when"}
_MF_NAMES = {r.value: r for r in MFKind if r is not MFKind.CUSTOM}


def _parse_mf_rule(value: Any, where: str) -> MFRule:
    if isinstance(value, str):
        if value not in _MF_NAMES:
            raise ParseError(f"{where}: unknown mf_rule {value!r} "
                             f"(expected one of {sorted(_MF_NAMES)} or a custom object)")
        return MFRule(_MF_NAMES[value])
    _check_keys(value, {"custom"}, where)
    if "custom" not in value:
        raise ParseError(f"{where}: custom rule needs a 'custom' expression")
    return MFRule(MFKind.CUSTOM, _as_str(value["custom"], f"{where}.custom"))


def _parse_service(block: Any, index: int) -> ServiceType:
    where = _entry(block, "services", index, "name")
    _check_keys(block, _SERVICE_KEYS, where)
    name = _as_str(block.get("name"), f"{where}.name")
    cost = block.get("cost", {})
    _check_keys(cost, {"Cores", "Memory"}, f"{where}.cost")
    mcl_block = block.get("mcl", {})
    _check_keys(mcl_block, _MCL_KEYS, f"{where}.mcl")
    rates_raw = mcl_block.get("data_rate_by_cores", {})
    if not isinstance(rates_raw, dict):
        raise ParseError(f"{where}.mcl.data_rate_by_cores: expected an object")
    rates = {
        _as_int(k, f"{where}.mcl.data_rate_by_cores key"): _as_fraction(v, f"{where}.mcl.data_rate_by_cores[{k}]")
        for k, v in rates_raw.items()
    }
    explicit = mcl_block.get("explicit_mcl")
    params = MCLParams(
        attachments_per_request=_as_fraction(
            mcl_block.get("attachments_per_request", 0), f"{where}.mcl.attachments_per_request"),
        penalty_factor=_as_fraction(mcl_block.get("penalty_factor", 0), f"{where}.mcl.penalty_factor"),
        data_rate_by_cores=rates,
        explicit_mcl=None if explicit is None else _as_fraction(explicit, f"{where}.mcl.explicit_mcl"),
    )
    sig = block.get("sig", [])
    weak = block.get("weak_requires", [])
    for lst, label in ((sig, "sig"), (weak, "weak_requires")):
        if not isinstance(lst, list):
            raise ParseError(f"{where}.{label}: expected a list of service names")
    return ServiceType(
        name=name,
        cores_required=_as_int(cost.get("Cores", 1), f"{where}.cost.Cores"),
        memory_required=_as_int(cost.get("Memory", 0), f"{where}.cost.Memory"),
        strong_requires=tuple(_as_str(s, f"{where}.sig[]") for s in sig),
        weak_requires=tuple(_as_str(s, f"{where}.weak_requires[]") for s in weak),
        provide_capacity=_as_int(block.get("provide", -1), f"{where}.provide"),
        mcl_params=params,
        mf_rule=_parse_mf_rule(block.get("mf_rule", "unit"), f"{where}.mf_rule"),
    )


def _parse_vm(block: Any, index: int) -> VMType:
    where = _entry(block, "vm_catalog", index, "name")
    _check_keys(block, _VM_KEYS, where)
    return VMType(
        name=_as_str(block.get("name"), f"{where}.name"),
        cores=_as_int(block.get("cores", 1), f"{where}.cores"),
        memory=_as_int(block.get("memory", 0), f"{where}.memory"),
        speed_per_core=_as_fraction(block.get("speed_per_core", 1), f"{where}.speed_per_core"),
        startup_time=_as_int(block.get("startup_time", 0), f"{where}.startup_time"),
        cost=_as_fraction(block.get("cost", 1), f"{where}.cost"),
    )


def _parse_support(value: Any, where: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected [lo, hi]")
    return (_as_int(value[0], f"{where}[0]"), _as_int(value[1], f"{where}[1]"))


def _parse_profile(block: dict) -> EmailProfile:
    _check_keys(block, _PROFILE_KEYS, "profile")
    defaults = EmailProfile()
    return EmailProfile(
        n_blocks=_as_fraction(block.get("n_blocks", defaults.n_blocks), "profile.n_blocks"),
        n_attachments=_as_fraction(block.get("n_attachments", defaults.n_attachments), "profile.n_attachments"),
        attachment_size=_as_fraction(block.get("attachment_size", defaults.attachment_size), "profile.attachment_size"),
        p_virus=_as_fraction(block.get("p_virus", defaults.p_virus), "profile.p_virus"),
        block_count_support=(_parse_support(block["block_count_support"], "profile.block_count_support")
                             if "block_count_support" in block else defaults.block_count_support),
        attachment_count_support=(_parse_support(block["attachment_count_support"], "profile.attachment_count_support")
                                  if "attachment_count_support" in block else defaults.attachment_count_support),
    )


def _parse_edge(block: Any, index: int) -> PipelineEdge:
    where = _entry(block, "pipeline", index, "from", "to")
    _check_keys(block, _EDGE_KEYS, where)
    part = _as_str(block.get("part"), f"{where}.part")
    if part not in PART_KINDS:
        raise ParseError(f"{where}.part: unknown part kind {part!r}")
    when = block.get("when")
    if when is not None and when not in ("clean", "infected"):
        raise ParseError(f"{where}.when: expected 'clean' or 'infected'")
    return PipelineEdge(
        src=_as_str(block.get("from"), f"{where}.from"),
        dst=_as_str(block.get("to"), f"{where}.to"),
        part=part,
        when=when,
    )


def parse_architecture_data(data: Any) -> SystemArchitecture:
    """Build a fully resolved architecture from already-decoded JSON data."""
    _check_keys(data, {"services", "vm_catalog", "profile", "pipeline"}, "document")
    raw_services = data.get("services", [])
    if not isinstance(raw_services, list):
        raise ParseError("services: expected a list")
    services = tuple(_parse_service(b, i) for i, b in enumerate(raw_services))

    names = [s.name for s in services]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ParseError(f"duplicate service names: {sorted(dupes)}")
    declared = set(names)

    for svc in services:
        for kind, deps in (("sig", svc.strong_requires), ("weak_requires", svc.weak_requires)):
            for dep in deps:
                if dep not in declared:
                    raise ParseError(f"services[{svc.name}].{kind}: unknown service {dep!r}")

    cycle = strong_cycle(services)
    if cycle is not None:
        raise CycleError(cycle)

    raw_vms = data.get("vm_catalog", [])
    if not isinstance(raw_vms, list):
        raise ParseError("vm_catalog: expected a list")
    vms = tuple(_parse_vm(b, i) for i, b in enumerate(raw_vms))
    vm_names = [v.name for v in vms]
    if len(set(vm_names)) != len(vm_names):
        raise ParseError("duplicate VM type names in vm_catalog")

    profile = _parse_profile(data.get("profile", {}))

    raw_edges = data.get("pipeline", [])
    if not isinstance(raw_edges, list):
        raise ParseError("pipeline: expected a list")
    edges = tuple(_parse_edge(b, i) for i, b in enumerate(raw_edges))
    for edge in edges:
        for end, label in ((edge.src, "from"), (edge.dst, "to")):
            if end not in declared:
                raise ParseError(f"pipeline[{edge.src} -> {edge.dst}].{label}: unknown service {end!r}")

    return SystemArchitecture(services=services, vm_catalog=vms, profile=profile, pipeline=edges)


def parse_architecture(text: str) -> SystemArchitecture:
    """Parse an architecture document from JSON text."""
    try:
        data = json.loads(text, parse_float=Fraction, parse_int=int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_architecture_data(data)


def load_architecture(path) -> SystemArchitecture:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_architecture(fh.read())


def _emit_number(frac: Fraction):
    """``frac`` as the JSON value written as ``format_rational``'s text: a
    number when that text is one, else the string ``"p/q"``."""
    text = format_rational(frac)
    return text if "/" in text else json.loads(text)


def architecture_to_data(arch: SystemArchitecture) -> dict:
    """Inverse of :func:`parse_architecture_data`: every number reads back
    as itself (see ``_emit_number``), so the data parses to an equal
    architecture."""
    services = []
    for svc in arch.services:
        p = svc.mcl_params
        mcl: dict[str, Any] = {
            "attachments_per_request": _emit_number(p.attachments_per_request),
            "penalty_factor": _emit_number(p.penalty_factor),
            "data_rate_by_cores": {str(k): _emit_number(v) for k, v in sorted(p.data_rate_by_cores.items())},
        }
        if p.explicit_mcl is not None:
            mcl["explicit_mcl"] = _emit_number(p.explicit_mcl)
        rule: Any = svc.mf_rule.kind.value
        if svc.mf_rule.kind is MFKind.CUSTOM:
            rule = {"custom": svc.mf_rule.expression}
        services.append({
            "name": svc.name,
            "provide": svc.provide_capacity,
            "cost": {"Cores": svc.cores_required, "Memory": svc.memory_required},
            "sig": list(svc.strong_requires),
            "weak_requires": list(svc.weak_requires),
            "mcl": mcl,
            "mf_rule": rule,
        })
    vms = [{
        "name": vm.name,
        "cores": vm.cores,
        "memory": vm.memory,
        "speed_per_core": _emit_number(vm.speed_per_core),
        "startup_time": vm.startup_time,
        "cost": _emit_number(vm.cost),
    } for vm in arch.vm_catalog]
    prof = arch.profile
    profile = {
        "n_blocks": _emit_number(prof.n_blocks),
        "n_attachments": _emit_number(prof.n_attachments),
        "attachment_size": _emit_number(prof.attachment_size),
        "p_virus": _emit_number(prof.p_virus),
        "block_count_support": list(prof.block_count_support),
        "attachment_count_support": list(prof.attachment_count_support),
    }
    pipeline = []
    for e in arch.pipeline:
        block = {"from": e.src, "to": e.dst, "part": e.part}
        if e.when is not None:
            block["when"] = e.when
        pipeline.append(block)
    return {"services": services, "vm_catalog": vms, "profile": profile, "pipeline": pipeline}


def serialize_architecture(arch: SystemArchitecture) -> str:
    return json.dumps(architecture_to_data(arch), indent=2) + "\n"
