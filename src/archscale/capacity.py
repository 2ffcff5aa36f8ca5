"""Capacity mathematics.

Everything that turns an architecture plus an email profile into numbers:
per-service request multiplicities (how many requests one inbound email
generates for each service), per-instance throughput limits (MCL,
requests/sec), instance counts needed to sustain a target inbound rate,
the system-wide sustainable rate of a configuration, and the synthesis of
a base configuration plus an incremental delta/scale ladder.

All arithmetic is exact rational arithmetic; ceilings never misfire at
integer boundaries.  The system MCL, the bottleneck minimum of
``count * MCL / MF``, is an integer minimum in units of ``1/D``: each
table carries one common denominator ``D`` (the lcm of the denominators of
``MCL / MF`` over the services that bound the system) and per service the
integer weight ``MCL / MF * D``, so a configuration's system MCL is
``min(count * weight) / D``, still exact.  ``ratio`` turns a number into
the integer (numerator, denominator) pair on which the scaler and the
planner decide.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import (
    INFINITE,
    EmailProfile,
    MFKind,
    Rational,
    ServiceType,
    SystemArchitecture,
)


class CapacityError(ValueError):
    """Missing or inconsistent capacity parameters."""


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def is_infinite(mcl: Rational) -> bool:
    # A Fraction compared with a float goes through Fraction.__eq__(float).
    return isinstance(mcl, float) and mcl == INFINITE


def exact(x: Rational) -> Fraction:
    """``x`` as a Fraction: a Fraction as it is, an int or float exactly."""
    return x if type(x) is Fraction else Fraction(x)


def ratio(x: Rational) -> tuple[int, int]:
    """``x`` exactly as integers ``(numerator, denominator)``, the
    denominator positive: a float by its binary value, and a number without
    ``as_integer_ratio`` as ``Fraction(x)`` reads it."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return Fraction(x).as_integer_ratio()


_ALLOWED_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _eval_profile_expression(expr: str, profile: EmailProfile) -> Fraction:
    """Evaluate a custom MF expression over the profile's fields."""
    env = {
        "n_blocks": profile.n_blocks,
        "n_attachments": profile.n_attachments,
        "attachment_size": profile.attachment_size,
        "p_virus": profile.p_virus,
    }

    def walk(node: ast.AST) -> Fraction:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_OPS:
            return _ALLOWED_OPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return Fraction(str(node.value))
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise CapacityError(f"custom MF expression references undefined profile field {node.id!r}")
            return env[node.id]
        raise CapacityError(f"unsupported construct in custom MF expression: {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise CapacityError(f"invalid custom MF expression: {expr!r}") from exc
    return walk(tree)


def multiplicative_factor(service: ServiceType, profile: EmailProfile) -> Fraction:
    """Mean number of requests one inbound email generates for ``service``."""
    kind = service.mf_rule.kind
    if kind is MFKind.UNIT:
        return Fraction(1)
    if kind is MFKind.PER_BLOCK:
        return profile.n_blocks
    if kind is MFKind.PER_ATTACHMENT:
        return profile.n_attachments
    if kind is MFKind.PER_CLEAN_ATTACHMENT:
        return profile.n_attachments * (1 - profile.p_virus)
    if kind is MFKind.EMAIL_PARTS_SUM:
        # one header + one set of links + one text body + one message per attachment
        return Fraction(3) + profile.n_attachments
    return _eval_profile_expression(service.mf_rule.expression or "", profile)


def request_size(service: ServiceType, arch: SystemArchitecture) -> Fraction:
    """Mean request payload in MB.

    Services that aggregate all email parts receive a mix of negligible
    reports and clean attachments, so their mean is the total clean-payload
    mass spread over all their requests.  Everything else scales with how
    many attachments ride along per request.
    """
    profile = arch.profile
    if service.mf_rule.kind is MFKind.EMAIL_PARTS_SUM:
        mf = multiplicative_factor(service, profile)
        clean_mass = profile.n_attachments * (1 - profile.p_virus) * profile.attachment_size
        return clean_mass / mf
    return service.mcl_params.attachments_per_request * profile.attachment_size


def service_mcl(service: ServiceType, arch: SystemArchitecture) -> Rational:
    """Per-instance throughput limit in requests/sec, possibly INFINITE.

    An explicit override wins.  A service that moves no payload and pays no
    penalty has no limit.  Otherwise ``1 / (size/rate + penalty)`` with the
    data rate looked up by the service's core count.
    """
    params = service.mcl_params
    if params.explicit_mcl is not None:
        return params.explicit_mcl
    size = request_size(service, arch)
    if size == 0 and params.penalty_factor == 0:
        return INFINITE
    if size == 0:
        return 1 / params.penalty_factor
    rate = params.data_rate_by_cores.get(service.cores_required)
    if rate is None:
        raise CapacityError(
            f"service {service.name}: no data rate for {service.cores_required} cores "
            "and no explicit_mcl override")
    return 1 / (size / rate + params.penalty_factor)


@dataclass(frozen=True)
class ServiceCapacity:
    name: str
    mf: Fraction
    request_size: Fraction  # MB
    mcl: Rational  # requests/sec, possibly INFINITE


@dataclass(frozen=True)
class CapacityTable:
    """Per-service capacity figures, in architecture service order."""

    entries: tuple[ServiceCapacity, ...]

    @cached_property
    def _ratios(self) -> tuple[Fraction | None, ...]:
        # A service with an infinite MCL, or one that receives no requests
        # (MF 0), bounds nothing.
        return tuple(None if is_infinite(e.mcl) or e.mf == 0 else exact(e.mcl) / e.mf
                     for e in self.entries)

    @cached_property
    def denominator(self) -> int:
        """D: the lcm of the denominators of MCL/MF over the bounding services."""
        return math.lcm(*(r.denominator for r in self._ratios if r is not None))

    @cached_property
    def weights(self) -> tuple[int | None, ...]:
        """Per service, MCL/MF in units of 1/D, or None if it bounds nothing."""
        d = self.denominator
        return tuple(None if r is None else r.numerator * (d // r.denominator)
                     for r in self._ratios)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, name: str) -> ServiceCapacity:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_text(self) -> str:
        """Tabular export: service, MF, request size (MB), MCL (req/s)."""
        rows = [("service", "MF", "request_size_MB", "MCL_per_sec")]
        for e in self.entries:
            mcl = "inf" if is_infinite(e.mcl) else format_rational(e.mcl)
            rows.append((e.name, format_rational(e.mf), format_rational(e.request_size), mcl))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows) + "\n"


def format_rational(x: Rational) -> str:
    """``x``'s exact text: ``inf``, an integer, else the float's text when
    it reads back as ``x``, else ``p/q`` (also beyond the float range)."""
    if x == INFINITE:
        return "inf"
    frac = Fraction(x)
    if frac.denominator == 1:
        return str(frac.numerator)
    try:
        text = str(float(frac))
        if Fraction(text) == frac:
            return text
    except OverflowError:  # beyond the float range
        pass
    return f"{frac.numerator}/{frac.denominator}"


def build_capacity_table(arch: SystemArchitecture) -> CapacityTable:
    entries = []
    for svc in arch.services:
        mf = multiplicative_factor(svc, arch.profile)
        entries.append(ServiceCapacity(
            name=svc.name,
            mf=mf,
            request_size=request_size(svc, arch),
            mcl=service_mcl(svc, arch),
        ))
    return CapacityTable(tuple(entries))


@dataclass(frozen=True)
class Configuration:
    """Instance counts per service, in the same order as arch.services."""

    counts: tuple[int, ...]

    def __add__(self, other: "Configuration") -> "Configuration":
        return Configuration(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "Configuration") -> "Configuration":
        return Configuration(tuple(a - b for a, b in zip(self.counts, other.counts)))


def instances_for_target(sys_mcl: Rational, mf: Fraction, mcl: Rational) -> int:
    """Minimum instances so that ``count * mcl / mf >= sys_mcl``, floored at 1."""
    if is_infinite(mcl):
        return 1
    if mcl <= 0:
        raise CapacityError("mcl must be positive or infinite")
    return max(1, ceil_frac(Fraction(sys_mcl) * mf / Fraction(mcl)))


def system_units(counts: tuple[int, ...], table: CapacityTable) -> int | None:
    """The system MCL of ``counts`` in units of ``1/table.denominator``:
    ``min(count * weight)`` over the bounding services, None if none bounds."""
    return min([c * w for c, w in zip(counts, table.weights) if w is not None], default=None)


def system_mcl(config: Configuration, table: CapacityTable) -> Rational:
    """Max sustainable inbound emails/sec: the bottleneck service's ratio."""
    if len(config.counts) != len(table.entries):
        raise CapacityError("configuration length does not match capacity table")
    low = system_units(config.counts, table)
    return INFINITE if low is None else Fraction(low, table.denominator)


def base_configuration(target: Rational, table: CapacityTable) -> Configuration:
    return Configuration(tuple(
        instances_for_target(target, e.mf, e.mcl) for e in table.entries))


def canonical_vector(height: int, scales: int) -> tuple[int, ...]:
    """The delta vector of ``height`` deltas stacked in ladder order, D1 to
    Dn and then D1 to Dn again, on a ladder of ``scales`` deltas: n copies
    of every delta plus one more of each of a prefix of them. A ladder
    without scales has the empty vector."""
    if not scales:
        return ()
    q, r = divmod(height, scales)
    return (q + 1,) * r + (q,) * (scales - r)


@dataclass(frozen=True)
class ScaleLadder:
    """Base configuration plus incremental deltas and their scale prefix sums.

    ``deltas[i]`` holds the extra instances that, stacked on top of base and
    all previous deltas, raise the guaranteed system rate from
    ``base_mcl + increments[i-1]`` to ``base_mcl + increments[i]``.
    Scale i is by construction the prefix sum delta 1 + ... + delta i.
    """

    base: Configuration
    base_mcl: Fraction  # guaranteed emails/sec of the base configuration
    deltas: tuple[Configuration, ...]
    scale_mcl_increments: tuple[Fraction, ...]  # guaranteed extra emails/sec per scale

    @property
    def num_scales(self) -> int:
        return len(self.deltas)

    @cached_property
    def scale_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per scale, its instance counts: the prefix sums of the deltas."""
        acc = [0] * len(self.base.counts)
        out = []
        for d in self.deltas:
            acc = [a + b for a, b in zip(acc, d.counts)]
            out.append(tuple(acc))
        return tuple(out)

    def scale(self, i: int) -> Configuration:
        """Scale i as an instance-count vector (1-based; prefix of deltas)."""
        if not 1 <= i <= self.num_scales:
            raise IndexError(f"scale index {i} out of range 1..{self.num_scales}")
        return Configuration(self.scale_counts[i - 1])

    def configuration_for(self, delta_vector: tuple[int, ...]) -> Configuration:
        """Base plus ``delta_vector[i]`` (>= 0) copies of each delta."""
        counts = self.base.counts
        for n, d in zip(delta_vector, self.deltas):
            if n:
                counts = [c + n * x for c, x in zip(counts, d.counts)]
        return Configuration(tuple(counts))

    def levels(self, table: CapacityTable) -> LadderLevels:
        """The ladder's levels under ``table``: computed on first use and
        kept for that table object until another table is asked for."""
        kept = self.__dict__.get("_levels")
        if kept is None or kept[0] is not table:
            kept = self.__dict__["_levels"] = (table, LadderLevels(self, table))
        return kept[1]

    def last_scale_covers_finite_services(self, table: CapacityTable) -> bool:
        """Whether the largest scale adds at least one instance to every
        service that bounds the system MCL: finite MCL, and requests to
        serve (keeps repeated largest-scale stacking balanced). A ladder
        without scales has no largest scale, so it covers none."""
        if not self.num_scales:
            return False
        top = self.scale(self.num_scales)
        return all(add >= 1 for add, w in zip(top.counts, table.weights) if w is not None)


class LadderLevels:
    """The demand-independent constants of a ladder under one table, in
    the table's integer units (see ``system_units``).

    Level 0 is the base and level i the base plus scale i; past the last
    level, stacks of the largest scale go under each.

    - ``first``: per level, its system units (None when nothing bounds the
      system) and the (Configuration, delta vector, system MCL) selecting
      it returns.
    - ``counts``: per level, its instance counts; ``top``: the largest
      scale's.
    - ``services``: per level, per bounding service, its units there and
      its units in the largest scale.
    - ``grown``: per bounding service the largest scale grows, its units at
      the last level and in the largest scale.
    - ``cap``: the fewest units of a bounding service the largest scale
      does not grow, which no stack of it raises; None if it grows all.

    A plain class: generating a dataclass would add ≈0.8 ms to every cold
    import.
    """

    __slots__ = ("first", "counts", "top", "services", "grown", "cap")

    def __init__(self, ladder: ScaleLadder, table: CapacityTable):
        # The selection's closed form needs capacity never to fall along its
        # order: no delta removes instances, and the largest scale grows no
        # service of negative MCL/MF. A synthesized ladder always qualifies.
        if any(c < 0 for d in ladder.deltas for c in d.counts):
            raise CapacityError("a ladder delta removes instances; deltas may only add")
        base = ladder.base.counts
        num = ladder.num_scales
        self.top = ladder.scale_counts[-1] if num else (0,) * len(base)
        self.counts = (base,) + tuple(tuple([b + s for b, s in zip(base, scale)])
                                      for scale in ladder.scale_counts)
        self.services = tuple(tuple((c * w, t * w)
                                    for c, t, w in zip(level, self.top, table.weights)
                                    if w is not None)
                              for level in self.counts)
        first = []
        for i, level in enumerate(self.counts):
            low = system_units(level, table)
            mcl = INFINITE if low is None else Fraction(low, table.denominator)
            first.append((low, (Configuration(level), canonical_vector(i, num), mcl)))
        self.first = tuple(first)
        last = self.services[-1]
        if any(t < 0 for _, t in last):
            raise CapacityError("the largest scale adds instances to a service of negative MCL/MF")
        self.grown = tuple((u, t) for u, t in last if t)
        self.cap = min([u for u, t in last if not t], default=None)


def synthesize_scale_ladder(
    base_mcl: Rational,
    increments: list[Fraction] | tuple[Fraction, ...],
    table: CapacityTable,
) -> ScaleLadder:
    """Build the delta ladder for ``base_mcl`` plus each increment.

    The cumulative requirement at level i is the per-service instance count
    for a target of ``base_mcl + increments[i]``; each delta is the
    difference between consecutive cumulative requirements.
    """
    try:
        target = Fraction(base_mcl)
    except (ValueError, OverflowError):  # NaN, infinities
        target = None
    if target is None or target < 0:
        raise CapacityError(f"base target must be a finite number at least 0, got {base_mcl!r}")
    try:
        incs = [Fraction(i) for i in increments]
    except (ValueError, OverflowError):
        raise CapacityError(
            f"scale increments must be finite numbers, got {list(increments)!r}") from None
    if any(b <= a for a, b in zip(incs, incs[1:])) or any(i <= 0 for i in incs):
        raise CapacityError("scale increments must be positive and strictly increasing")
    base = base_configuration(target, table)
    deltas = []
    prev = base
    for inc in incs:
        cum = base_configuration(target + inc, table)
        deltas.append(cum - prev)
        prev = cum
    return ScaleLadder(
        base=base,
        base_mcl=target,
        deltas=tuple(deltas),
        scale_mcl_increments=tuple(incs),
    )


def request_cost(mcl: Rational, ticks_per_second: int) -> tuple[int, int]:
    """The exact integer ``(budget, cost)`` of a service whose MCL is ``mcl``:
    each instance spends ``budget`` resource units per tick and one request
    costs ``cost``, so an instance sustains exactly ``mcl`` requests/sec
    whatever VM hosts it.

    For MCL n/d that is ``(n, ticks_per_second * d)``; a request to a
    service of infinite MCL costs nothing, ``(1, 0)``.
    """
    if is_infinite(mcl):
        return 1, 0
    n, d = ratio(mcl)
    return n, ticks_per_second * d


def ladder_to_text(ladder: ScaleLadder, table: CapacityTable) -> str:
    """Render base/delta counts per service plus the scale composition row."""
    header = ["service", "B"] + [f"D{i}" for i in range(1, ladder.num_scales + 1)]
    rows = [tuple(header)]
    for idx, entry in enumerate(table.entries):
        row = [entry.name, str(ladder.base.counts[idx])]
        row += [f"+{d.counts[idx]}" for d in ladder.deltas]
        rows.append(tuple(row))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.append("")
    for i in range(1, ladder.num_scales + 1):
        parts = " + ".join(f"D{j}" for j in range(1, i + 1))
        inc = format_rational(ladder.scale_mcl_increments[i - 1])
        lines.append(f"Scale{i} (+{inc} emails/sec) = {parts}")
    return "\n".join(lines) + "\n"
