"""Workload specification and deterministic traffic generation.

Rates are emails per second; arrivals are realized per tick either
stochastically (Poisson counts from a seeded generator) or exactly
(deterministic rounding of the cumulative rate integral), so acceptance
runs can be reproduced bit for bit.

``draw_traffic`` is the one source of a simulation's traffic, and this is
the only module that imports NumPy: inside the functions that draw, so a
process that draws nothing (``validate``, ``ladder``, ``plan``) never does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import EmailProfile

if TYPE_CHECKING:
    import numpy as np

    from .simulator import SimConfig


class WorkloadError(ValueError):
    """Malformed workload specification or trace file."""


@dataclass(frozen=True)
class Diurnal:
    """Raised-cosine day curve between ``base`` and ``peak`` emails/sec.

    The curve starts at ``base`` when ``phase_s`` is 0 and reaches ``peak``
    half a period later.
    """

    base: float
    peak: float
    period_s: float
    phase_s: float = 0.0


@dataclass(frozen=True)
class Steps:
    """Piecewise-constant rates: list of (start tick, emails/sec), by
    strictly increasing start tick."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for (before, _), (start, _) in zip(self.points, self.points[1:]):
            if start <= before:
                raise WorkloadError(
                    f"steps start ticks must strictly increase: {start} follows {before}")


@dataclass(frozen=True)
class Trace:
    """Replay of (tick, emails/sec) rows from a CSV file, by strictly
    increasing tick."""

    path: str


@dataclass(frozen=True)
class WorkloadSpec:
    kind: Diurnal | Steps | Trace
    jitter: float = 0.0  # multiplicative noise bound, stochastic mode only

    def __post_init__(self):
        if not 0 <= self.jitter < 1:
            raise WorkloadError("jitter must lie in [0, 1)")


def _load_trace(path: str) -> tuple[tuple[int, float], ...]:
    points: list[tuple[int, float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("tick", "t"):
                    continue
                if len(row) < 2:
                    raise WorkloadError(f"{path}:{lineno}: expected 'tick,rate' rows")
                try:
                    tick, rate = int(row[0]), float(row[1])
                except ValueError as exc:
                    raise WorkloadError(f"{path}:{lineno}: malformed row {row!r}") from exc
                if not math.isfinite(rate):
                    raise WorkloadError(f"{path}:{lineno}: rate must be finite, got {rate}")
                if points and tick <= points[-1][0]:
                    raise WorkloadError(
                        f"{path}:{lineno}: trace ticks must strictly increase: "
                        f"{tick} follows {points[-1][0]}")
                points.append((tick, rate))
    except OSError as exc:
        raise WorkloadError(f"cannot read trace file {path}: {exc}") from exc
    if not points:
        raise WorkloadError(f"trace file {path} holds no rate points")
    return tuple(points)


def rate_curve(spec: WorkloadSpec, duration_ticks: int, ticks_per_second: int) -> np.ndarray:
    """Per-tick rate (emails/sec) over the whole run."""
    import numpy as np

    t = np.arange(duration_ticks, dtype=np.float64) / ticks_per_second
    kind = spec.kind
    if isinstance(kind, Diurnal):
        if not all(map(math.isfinite, (kind.base, kind.peak, kind.period_s, kind.phase_s))):
            raise WorkloadError(f"diurnal needs a finite base, peak, period and phase, got {kind}")
        if kind.base < 0 or kind.peak < kind.base or kind.period_s <= 0:
            raise WorkloadError("diurnal needs 0 <= base <= peak and period > 0")
        swing = (kind.peak - kind.base) / 2.0
        rates = kind.base + swing * (1.0 - np.cos(2.0 * math.pi * (t - kind.phase_s) / kind.period_s))
        return rates
    if isinstance(kind, (Steps, Trace)):
        points = kind.points if isinstance(kind, Steps) else _load_trace(kind.path)
        for start, rate in points:
            if not math.isfinite(rate):
                raise WorkloadError(f"steps rate at tick {start} must be finite, got {rate}")
        if any(r < 0 for _, r in points):
            raise WorkloadError("rates must be >= 0")
        rates = np.zeros(duration_ticks, dtype=np.float64)
        for i, (start, rate) in enumerate(points):
            end = points[i + 1][0] if i + 1 < len(points) else duration_ticks
            start = max(0, start)
            if start < end:
                rates[start:min(end, duration_ticks)] = rate
        return rates
    raise WorkloadError(f"unknown workload kind {kind!r}")


def generate_arrivals(
    spec: WorkloadSpec,
    seed: int,
    duration_ticks: int,
    ticks_per_second: int,
    exact: bool = False,
) -> np.ndarray:
    """Per-tick arrival counts, deterministic for a given seed and mode."""
    import numpy as np

    rates = rate_curve(spec, duration_ticks, ticks_per_second)
    per_tick = rates / ticks_per_second
    if exact:
        # The epsilon absorbs cumulative float drift (~1e-12 over 1e7 ticks)
        # so windows of a rational rate count the same total every time.
        cum = np.cumsum(per_tick)
        floors = np.floor(cum + 1e-6).astype(np.int64)
        counts = np.diff(floors, prepend=0)
        return counts
    rng = np.random.Generator(np.random.PCG64(seed))
    if spec.jitter > 0:
        noise = rng.uniform(-spec.jitter, spec.jitter, size=duration_ticks)
        per_tick = np.maximum(per_tick * (1.0 + noise), 0.0)
    return rng.poisson(per_tick).astype(np.int64)


Shape = tuple[int, int, int]  # blocks, attachments, virus mask (bit j: attachment j)


def sample_email_batch(profile: EmailProfile, rng: np.random.Generator,
                       count: int) -> tuple[list[Shape], list[int]]:
    """The distinct shapes of ``count`` emails, in order of first appearance,
    and each email's index into them. After the block and attachment counts,
    one uniform per email and attachment slot is drawn (none without slots)
    and packed into the email's int64 code, 2^16 emails at a time: the same
    uniforms as one whole-array draw, never all held at once."""
    import numpy as np

    (b_lo, b_hi), (a_lo, a_hi) = profile.block_count_support, profile.attachment_count_support
    limit = max((a for a in range(64) if b_hi.bit_length() + a.bit_length() + a <= 63), default=-1)
    if a_hi > limit:
        raise WorkloadError(f"attachment_count_support upper bound {a_hi} exceeds {limit}, the "
                            f"most whose shape codes fit in 63 bits with block_count_support "
                            f"{profile.block_count_support}")
    blocks = rng.integers(b_lo, b_hi + 1, size=count, dtype=np.int64)
    attachments = rng.integers(a_lo, a_hi + 1, size=count, dtype=np.int64)
    att_bits, slots = a_hi.bit_length(), np.arange(a_hi)
    ids: dict[int, int] = {}  # code -> shape index
    shape_of: list[int] = []
    for start in range(0, count, 1 << 16):
        atts = attachments[start:start + (1 << 16)]
        codes = (blocks[start:start + (1 << 16)] << att_bits | atts) << a_hi
        infected = rng.random((len(atts), a_hi)) < float(profile.p_virus)
        infected &= slots < atts[:, None]
        codes |= (infected << slots).sum(axis=1)
        shape_of += [ids.setdefault(c, len(ids)) for c in codes.tolist()]
    return [(c >> a_hi >> att_bits, c >> a_hi & (1 << att_bits) - 1, c & (1 << a_hi) - 1)
            for c in ids], shape_of


def draw_traffic(config: SimConfig, profile: EmailProfile) -> tuple[list[int], list[Shape], list[int]]:
    """A run's per-tick arrival counts, its email shapes and each email's
    index into them. The seed's first child draws the arrivals and its
    second the emails, so every policy sees the same traffic; within one
    compare the policies share a single draw (``simulator.compare_scope``)."""
    import numpy as np

    arrival_seed, email_seed = np.random.SeedSequence(config.seed).spawn(2)
    arrivals = generate_arrivals(config.workload, arrival_seed, config.duration,
                                 config.ticks_per_second, config.exact_arrivals)
    email_rng = np.random.Generator(np.random.PCG64(email_seed))
    shapes, shape_of = sample_email_batch(profile, email_rng, int(arrivals.sum()))
    return arrivals.tolist(), shapes, shape_of
