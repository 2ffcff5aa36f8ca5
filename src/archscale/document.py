"""Parsing and serialization of architecture documents.

An architecture document is a single JSON file with top-level keys
``services``, ``vm_catalog``, ``profile`` and ``pipeline``.  Per-service
blocks use the field names ``provide``, ``cost.Cores``, ``cost.Memory``,
``sig`` (strong requirements) and ``weak_requires``; see docs/format.md for
the full reference.  The parser is strict: unknown keys are rejected, every
cross-reference must resolve, and strong dependencies must be acyclic.

Each block of the format (a service with its ``cost`` and ``mcl``, a VM
type, the profile, a pipeline edge) is one tuple of ``_Row``s: a row names a
document key, the model field it fills, how its value is read and written,
and what the key reads as when it is left out. The parser, its unknown-key
check and ``architecture_to_data`` all read the rows, so the rows are the
format's one definition.

Numbers are read into exact rationals.  JSON literals like ``2.5`` parse to
``Fraction(5, 2)``, and strings like ``"1/3"`` to the rational they name.
A number is written with ``capacity.format_rational``'s text: an integer,
else a literal when the float's text reads back as the number, else a
string ``"p/q"`` (no finite decimal form, more digits than a float keeps,
or beyond the float range), so a written document reads back exactly.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple

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


def _check_keys(block: dict, allowed: set[str] | frozenset[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


def _emit_number(frac: Fraction):
    """``frac`` as the JSON value written as ``format_rational``'s text: a
    number when that text is one, else the string ``"p/q"``."""
    text = format_rational(frac)
    return text if "/" in text else json.loads(text)


def _as_is(value: Any) -> Any:
    return value


def _as_optional_fraction(value: Any, where: str) -> Fraction | None:
    return None if value is None else _as_fraction(value, where)


def _as_names(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of service names")
    return tuple(_as_str(s, f"{where}[]") for s in value)


def _as_rates(value: Any, where: str) -> dict[int, Fraction]:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return {_as_int(k, f"{where} key"): _as_fraction(v, f"{where}[{k}]") for k, v in value.items()}


def _emit_rates(rates: dict[int, Fraction]) -> dict[str, Any]:
    return {str(k): _emit_number(v) for k, v in sorted(rates.items())}


_MF_NAMES = {r.value: r for r in MFKind if r is not MFKind.CUSTOM}


def _as_mf_rule(value: Any, where: str) -> MFRule:
    if isinstance(value, str):
        if value not in _MF_NAMES:
            raise ParseError(f"{where}: unknown mf_rule {value!r} "
                             f"(expected one of {sorted(_MF_NAMES)} or a custom object)")
        return MFRule(_MF_NAMES[value])
    _check_keys(value, {"custom"}, where)
    if "custom" not in value:
        raise ParseError(f"{where}: custom rule needs a 'custom' expression")
    return MFRule(MFKind.CUSTOM, _as_str(value["custom"], f"{where}.custom"))


def _emit_mf_rule(rule: MFRule) -> Any:
    return {"custom": rule.expression} if rule.kind is MFKind.CUSTOM else rule.kind.value


def _as_mcl(value: Any, where: str) -> MCLParams:
    return MCLParams(**_read(value, _MCL, where))


def _emit_mcl(params: MCLParams) -> dict[str, Any]:
    return _write(params, _MCL)


def _as_support(value: Any, where: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected [lo, hi]")
    return (_as_int(value[0], f"{where}[0]"), _as_int(value[1], f"{where}[1]"))


def _as_part(value: Any, where: str) -> str:
    part = _as_str(value, where)
    if part not in PART_KINDS:
        raise ParseError(f"{where}: unknown part kind {part!r}")
    return part


def _as_when(value: Any, where: str) -> str | None:
    if value is not None and value not in ("clean", "infected"):
        raise ParseError(f"{where}: expected 'clean' or 'infected'")
    return value


#: A row's default that leaves a left-out key to the model's own default.
_MODEL = object()


class _Row(NamedTuple):
    """One key of a block. ``key`` is its path in the block: ``a.b`` is key
    ``b`` of the object under key ``a``. ``read(value, where)`` turns the
    key's value into the model's ``field``, and ``write`` turns the field
    back into the value; a field that holds None is not written. A left-out
    key reads as ``default`` (None where the key must be given), or takes
    the model's default where that is ``_MODEL``."""

    key: str
    field: str
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]
    default: Any


_MCL = (
    _Row("attachments_per_request", "attachments_per_request", _as_fraction, _emit_number, _MODEL),
    _Row("penalty_factor", "penalty_factor", _as_fraction, _emit_number, _MODEL),
    _Row("data_rate_by_cores", "data_rate_by_cores", _as_rates, _emit_rates, _MODEL),
    _Row("explicit_mcl", "explicit_mcl", _as_optional_fraction, _emit_number, _MODEL),
)
_SERVICE = (
    _Row("name", "name", _as_str, _as_is, None),
    _Row("provide", "provide_capacity", _as_int, _as_is, _MODEL),
    _Row("cost.Cores", "cores_required", _as_int, _as_is, 1),
    _Row("cost.Memory", "memory_required", _as_int, _as_is, 0),
    _Row("sig", "strong_requires", _as_names, list, _MODEL),
    _Row("weak_requires", "weak_requires", _as_names, list, _MODEL),
    _Row("mcl", "mcl_params", _as_mcl, _emit_mcl, _MODEL),
    _Row("mf_rule", "mf_rule", _as_mf_rule, _emit_mf_rule, _MODEL),
)
_VM = (
    _Row("name", "name", _as_str, _as_is, None),
    _Row("cores", "cores", _as_int, _as_is, 1),
    _Row("memory", "memory", _as_int, _as_is, 0),
    _Row("speed_per_core", "speed_per_core", _as_fraction, _emit_number, 1),
    _Row("startup_time", "startup_time", _as_int, _as_is, 0),
    _Row("cost", "cost", _as_fraction, _emit_number, 1),
)
_PROFILE = (
    _Row("n_blocks", "n_blocks", _as_fraction, _emit_number, _MODEL),
    _Row("n_attachments", "n_attachments", _as_fraction, _emit_number, _MODEL),
    _Row("attachment_size", "attachment_size", _as_fraction, _emit_number, _MODEL),
    _Row("p_virus", "p_virus", _as_fraction, _emit_number, _MODEL),
    _Row("block_count_support", "block_count_support", _as_support, list, _MODEL),
    _Row("attachment_count_support", "attachment_count_support", _as_support, list, _MODEL),
)
_EDGE = (
    _Row("from", "src", _as_str, _as_is, None),
    _Row("to", "dst", _as_str, _as_is, None),
    _Row("part", "part", _as_part, _as_is, None),
    _Row("when", "when", _as_when, _as_is, _MODEL),
)


@functools.cache
def _keys(rows: tuple[_Row, ...], outer: str) -> frozenset[str]:
    """The keys that ``rows`` name in the object at path ``outer`` ("" for
    the block itself)."""
    prefix = outer + "." if outer else ""
    return frozenset(row.key[len(prefix):].partition(".")[0] for row in rows if row.key.startswith(prefix))


def _read(block: Any, rows: tuple[_Row, ...], where: str) -> dict[str, Any]:
    """The model fields that ``rows`` read from ``block``, by field name.
    Refuses a block that is not an object or holds a key no row names."""
    _check_keys(block, _keys(rows, ""), where)
    objects = {"": block}
    fields: dict[str, Any] = {}
    for row in rows:
        outer, _, key = row.key.rpartition(".")
        if outer not in objects:
            objects[outer] = block.get(outer, {})
            _check_keys(objects[outer], _keys(rows, outer), f"{where}.{outer}")
        if key in objects[outer] or row.default is not _MODEL:
            fields[row.field] = row.read(objects[outer].get(key, row.default), f"{where}.{row.key}")
    return fields


def _write(obj: Any, rows: tuple[_Row, ...]) -> dict[str, Any]:
    """The block that ``rows`` write for the model object ``obj``."""
    block: dict[str, Any] = {}
    for row in rows:
        value = getattr(obj, row.field)
        if value is not None:
            outer, _, key = row.key.rpartition(".")
            (block.setdefault(outer, {}) if outer else block)[key] = row.write(value)
    return block


def _read_list(data: dict, listname: str, model: type, rows: tuple[_Row, ...], *name_keys: str) -> tuple:
    """The entries of the list ``listname``, each read through ``rows`` into
    a ``model``; errors name an entry by its ``name_keys`` (see ``_entry``)."""
    entries = data.get(listname, [])
    if not isinstance(entries, list):
        raise ParseError(f"{listname}: expected a list")
    return tuple(model(**_read(b, rows, _entry(b, listname, i, *name_keys)))
                 for i, b in enumerate(entries))


def parse_architecture_data(data: Any) -> SystemArchitecture:
    """Build a fully resolved architecture from already-decoded JSON data."""
    _check_keys(data, {"services", "vm_catalog", "profile", "pipeline"}, "document")
    services = _read_list(data, "services", ServiceType, _SERVICE, "name")

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

    vms = _read_list(data, "vm_catalog", VMType, _VM, "name")
    vm_names = [v.name for v in vms]
    if len(set(vm_names)) != len(vm_names):
        raise ParseError("duplicate VM type names in vm_catalog")

    profile = EmailProfile(**_read(data.get("profile", {}), _PROFILE, "profile"))

    edges = _read_list(data, "pipeline", PipelineEdge, _EDGE, "from", "to")
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


def architecture_to_data(arch: SystemArchitecture) -> dict:
    """Inverse of :func:`parse_architecture_data`: every number reads back
    as itself (see ``_emit_number``), so the data parses to an equal
    architecture."""
    return {"services": [_write(svc, _SERVICE) for svc in arch.services],
            "vm_catalog": [_write(vm, _VM) for vm in arch.vm_catalog],
            "profile": _write(arch.profile, _PROFILE),
            "pipeline": [_write(edge, _EDGE) for edge in arch.pipeline]}


def serialize_architecture(arch: SystemArchitecture) -> str:
    return json.dumps(architecture_to_data(arch), indent=2) + "\n"
