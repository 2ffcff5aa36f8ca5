"""Adaptation policies: architecture-level (global) and per-service (local).

Both share the same trigger: scale up when the measured inbound rate plus a
safety margin K exceeds the currently guaranteed capacity by more than the
hysteresis band k, scale down in the symmetric case.

The global policy re-derives the whole target configuration from the scale
ladder; the resulting delta vector always has the shape "base, or base plus
n copies of the largest scale plus at most one further scale", so repeated
stacking only ever happens with the largest (balanced) scale. It reads the
ladder's demand-independent levels (``ScaleLadder.levels``): a demand
within the first cycle returns a precomputed result, and a larger one finds
n with one integer ceiling per bounding service, so a decision's cost does
not grow with the demand.

Every decision is exact and computes on integers: a rate, a capacity, an
MCL and the margins enter as (numerator, denominator) pairs
(``capacity.ratio``, a float by its binary value), comparisons
cross-multiply, and a ceiling is one integer floor division. ``ScalerParams``
caches K and the trigger's bands as such pairs on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .capacity import (
    CapacityTable,
    Configuration,
    ScaleLadder,
    canonical_vector,
    is_infinite,
    ratio,
)
from .model import Rational


class Policy:
    """The scaling policies: one ladder for the whole architecture, or one
    instance count per service."""

    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class ScalerParams:
    """K: safety margin (emails/s); k: hysteresis band; period in ticks."""

    K: Fraction = Fraction(20)
    k: Fraction = Fraction(10)
    monitoring_period: int = 300

    def __post_init__(self):
        for name in ("K", "k"):
            value = getattr(self, name)
            try:
                ratio(value)
            except (ValueError, OverflowError):  # NaN, infinities
                raise ValueError(f"{name} must be a finite number, got {value!r}") from None
        try:
            operator.index(self.monitoring_period)
        except TypeError:
            # Else no tick would ever equal the monitor's due tick.
            raise ValueError(
                f"monitoring_period must be an integer, got {self.monitoring_period!r}") from None
        if self.K < 0 or self.k < 0 or self.monitoring_period < 1:
            raise ValueError("require K >= 0, k >= 0, monitoring_period >= 1")

    @cached_property
    def margin(self) -> tuple[int, int]:
        """K as integers (numerator, denominator)."""
        return ratio(self.K)

    @cached_property
    def bands(self) -> tuple[int, int, int]:
        """(k - K, -(k + K)) as numerators over one positive denominator:
        the trigger scales up when inbound - capacity lies above the first
        and down when it lies below the second, as inbound + K - capacity
        lies above k or below -k."""
        kn, kd = ratio(self.k)
        Kn, Kd = self.margin
        return kn * Kd - Kn * kd, -(kn * Kd + Kn * kd), kd * Kd


class ScalingError(RuntimeError):
    """No configuration the ladder can reach covers the demand."""


class Trigger(Enum):
    UP = "up"
    DOWN = "down"
    NONE = "none"


def scaling_trigger(inbound: Rational, total_mcl: Rational, params: ScalerParams) -> Trigger:
    """UP or DOWN when inbound - total_mcl lies above or below the bands
    (see ``ScalerParams.bands``), compared exactly on integer pairs: with
    inbound a/b and capacity c/d, the gap is (a*d - c*b) / (b*d)."""
    try:
        a, b = ratio(inbound)
    except OverflowError:
        if inbound < 0:  # minus infinity
            raise ValueError("inbound rate must be >= 0") from None
        raise
    if a < 0:
        raise ValueError("inbound rate must be >= 0")
    if is_infinite(total_mcl):
        return Trigger.NONE
    c, d = ratio(total_mcl)
    up, down, den = params.bands
    gap = (a * d - c * b) * den
    scale = b * d
    if gap > up * scale:
        return Trigger.UP
    if gap < down * scale:
        return Trigger.DOWN
    return Trigger.NONE


DeltaVector = tuple[int, ...]


def delta_vector_is_canonical(vector: DeltaVector) -> bool:
    """True iff the vector is n * (all scales) + a prefix of scales: its
    entries are at least 0 and it is the ``canonical_vector`` of its sum.

    Equivalently: entries are non-increasing by index and span at most 1.
    """
    return (all(v >= 0 for v in vector)
            and tuple(vector) == canonical_vector(sum(vector), len(vector)))


def select_global_configuration(
    inbound: Rational,
    params: ScalerParams,
    ladder: ScaleLadder,
    table: CapacityTable,
) -> tuple[Configuration, DeltaVector, Rational]:
    """Pick the smallest reachable configuration covering inbound + K.

    The configurations the ladder reaches, smallest first, are the base,
    base + scale i for i = 1..n (the first cycle), then base + r stacks of
    the largest scale + scale i for r = 1, 2, ...; the first one whose
    system MCL covers the demand wins. Its delta vector is r + 1 for the
    first i deltas and r for the rest. Capacities are compared in the
    table's integer units, against the precomputed ``ScaleLadder.levels``:

    - a demand inside the first cycle returns the first level covering it;
    - past it, r is the fewest stacks under which the last level covers
      the demand: the largest ``ceil((need - A_j) / t_j)`` over the
      bounding services j the largest scale grows, with A_j service j's
      units at the last level and t_j its units in the largest scale.
      Then i is the first scale that covers the demand at r stacks.

    So a decision's cost does not grow with the demand. A bounding service
    the largest scale does not grow caps every stack
    (``ScaleLadder.last_scale_covers_finite_services``): a demand above
    that cap raises ``ScalingError``. A ladder along which capacity could
    fall raises ``CapacityError`` (see ``LadderLevels``).
    """
    a, b = ratio(inbound)
    Kn, Kd = params.margin
    d = table.denominator
    levels = ladder.levels(table)
    # The demand inbound + K is (a*Kd + Kn*b) / (b*Kd) emails/s.
    need = -(-(a * Kd + Kn * b) * d // (b * Kd))
    for low, result in levels.first:
        if low is None or low >= need:
            return result
    if levels.cap is not None and levels.cap < need:
        demand = Fraction(a * Kd + Kn * b, b * Kd)
        raise ScalingError(
            f"the largest scale adds no capacity at system MCL {Fraction(levels.cap, d)}, "
            f"below the demand {demand}: it adds no instance to a bounding service")
    r = max(1, max([-((last - need) // t) for last, t in levels.grown]))
    for i in range(1, len(levels.services)):
        low = min([u + r * t for u, t in levels.services[i]])
        if low >= need:
            break
    counts = tuple([c + r * t for c, t in zip(levels.counts[i], levels.top)])
    num = ladder.num_scales
    return Configuration(counts), canonical_vector(r * num + i, num), Fraction(low, d)


@dataclass(frozen=True)
class ReconfigurationStep:
    delta_index: int  # 0-based
    deploy: bool  # False = undeploy


def diff_reconfiguration(deployed: DeltaVector, target: DeltaVector) -> tuple[ReconfigurationStep, ...]:
    """The deploy/undeploy steps turning ``deployed`` into ``target``, in
    index order."""
    if deployed == target:
        return ()
    if len(deployed) != len(target):
        raise ValueError("delta vectors must have equal length")
    steps: list[ReconfigurationStep] = []
    for i, (have, want) in enumerate(zip(deployed, target)):
        diff = want - have
        for _ in range(abs(diff)):
            steps.append(ReconfigurationStep(i, deploy=diff > 0))
    return tuple(steps)


def local_target_instances(
    inbound: Rational,
    params: ScalerParams,
    mcl: Rational,
    base_n: int,
    deployed: int,
) -> int:
    """Per-service replica target: demand ceiling, never below the base count.

    With inbound a/b, K Kn/Kd and mcl mn/md, one integer ceiling of
    (a*Kd + Kn*b) * md / (b*Kd*mn)."""
    if is_infinite(mcl):
        raise ValueError("local scaling needs a finite positive mcl")
    try:
        mn, md = ratio(mcl)
    except OverflowError:
        if mcl < 0:  # minus infinity
            raise ValueError("local scaling needs a finite positive mcl") from None
        raise
    if mn <= 0:
        raise ValueError("local scaling needs a finite positive mcl")
    if deployed < 0 or base_n < 0:
        raise ValueError("instance counts must be >= 0")
    a, b = ratio(inbound)
    Kn, Kd = params.margin
    target = -(-(a * Kd + Kn * b) * md // (b * Kd * mn))
    return max(base_n, target)
