"""Experiment orchestration: run policies, write artifacts, compare.

An experiment spec file names the architecture, the scenario (workload,
duration, seed, scaling parameters, ladder targets) and the policies to
run.  ``run_experiment`` writes one metrics file and one scaling-event log
per policy, the capacity table, the synthesized ladder, and a comparison
report whose numbers are recomputed from the emitted metrics files so they
stay reproducible from disk alone.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .capacity import (
    CapacityTable,
    ScaleLadder,
    build_capacity_table,
    ladder_to_text,
    synthesize_scale_ladder,
)
from .document import load_architecture
from .model import SystemArchitecture
from .scaler import Policy, ScalerParams
from .workload import Diurnal, Steps, Trace, WorkloadSpec

if TYPE_CHECKING:
    from .simulator import MetricsTimeline, SimConfig


class ExperimentError(ValueError):
    """Invalid experiment specification."""


DEFAULT_INCREMENTS = (60, 150, 240, 330)


@dataclass(frozen=True)
class ExperimentSpec:
    architecture: str  # path to the architecture document
    policies: tuple[str, ...] = (Policy.GLOBAL, Policy.LOCAL)
    output: str = "out"
    duration_s: int = 7200
    ticks_per_second: int = 30
    seed: int = 42
    queue_capacity: int = 500
    exact_arrivals: bool = False
    workload: WorkloadSpec = field(default_factory=lambda: WorkloadSpec(Diurnal(60, 380, 7200)))
    monitoring_period_s: int = 10
    margin_K: float = 20
    hysteresis_k: float = 10
    base_target_mcl: float = 60
    scale_increments: tuple[float, ...] = DEFAULT_INCREMENTS

    def __post_init__(self):
        if not self.policies:
            raise ExperimentError("select at least one policy to run")
        for p in self.policies:
            if p not in (Policy.GLOBAL, Policy.LOCAL):
                raise ExperimentError(f"unknown policy {p!r}")
        if len(set(self.policies)) < len(self.policies):
            raise ExperimentError(f"a policy is selected more than once: {list(self.policies)}")
        for name, least in (("duration_s", 1), ("ticks_per_second", 1), ("queue_capacity", 1),
                            ("monitoring_period_s", 1), ("seed", 0)):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ExperimentError(
                    f"{name} must be an integer, got {getattr(self, name)!r}") from None
            if getattr(self, name) < least:
                raise ExperimentError(
                    f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("margin_K", "hysteresis_k", "base_target_mcl"):
            if not math.isfinite(getattr(self, name)):
                raise ExperimentError(f"{name} must be a finite number, got {getattr(self, name)}")
        if not all(math.isfinite(x) for x in self.scale_increments):
            raise ExperimentError(
                f"scale_increments must be finite numbers, got {list(self.scale_increments)}")
        if self.margin_K < 0 or self.hysteresis_k < 0:
            raise ExperimentError(
                f"K and k must be at least 0, got {self.margin_K} and {self.hysteresis_k}")
        if self.base_target_mcl < 0:
            raise ExperimentError(f"base_target_mcl must be at least 0, got {self.base_target_mcl}")

    def scaler_params(self) -> ScalerParams:
        return ScalerParams(
            K=Fraction(str(self.margin_K)),
            k=Fraction(str(self.hysteresis_k)),
            monitoring_period=self.monitoring_period_s * self.ticks_per_second,
        )

    def sim_config(self, policy: str) -> SimConfig:
        from .simulator import SimConfig  # here: the set-up commands never simulate

        return SimConfig(
            duration=self.duration_s * self.ticks_per_second,
            workload=self.workload,
            seed=self.seed,
            ticks_per_second=self.ticks_per_second,
            queue_capacity=self.queue_capacity,
            policy=policy,
            params=self.scaler_params(),
            exact_arrivals=self.exact_arrivals,
        )


# Workload kind -> the keys it reads besides "kind" and "jitter".
_WORKLOAD_KEYS = {"diurnal": {"base", "peak", "period_s", "phase_s"}, "steps": {"points"},
                  "trace": {"path"}}


def _parse_workload(block: dict) -> WorkloadSpec:
    if not isinstance(block, dict):
        raise ExperimentError("workload: expected an object")

    def value(key, convert, default):
        return _read("workload", block, key, convert) if key in block else default

    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _WORKLOAD_KEYS:
        raise ExperimentError(f"unknown workload kind {kind!r}")
    unknown = set(block) - _WORKLOAD_KEYS[kind] - {"kind", "jitter"}
    if unknown:
        raise ExperimentError(f"experiment {kind} workload: unknown keys {sorted(unknown)}")
    jitter = value("jitter", _number, 0.0)
    if kind == "diurnal":
        return WorkloadSpec(Diurnal(
            base=value("base", _number, 60.0),
            peak=value("peak", _number, 380.0),
            period_s=value("period_s", _number, 7200.0),
            phase_s=value("phase_s", _number, 0.0),
        ), jitter=jitter)
    if kind == "steps":
        points = value("points", _points, None)
        if not points:
            raise ExperimentError("steps workload needs a non-empty 'points' list")
        return WorkloadSpec(Steps(points), jitter=jitter)
    path = value("path", _string, "")
    if not path:
        raise ExperimentError("trace workload needs a 'path'")
    return WorkloadSpec(Trace(path), jitter=jitter)


# Scenario value checks: each returns the value or raises TypeError saying
# what it expected. JSON true/false parse as bool, a subclass of int.
def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
        raise TypeError("expected a finite number")
    return float(value)


def _numbers(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError("expected a list of numbers")
    return tuple(_number(v) for v in values)


def _points(values) -> tuple[tuple[int, float], ...]:
    if not isinstance(values, list) or not all(
            isinstance(v, list) and len(v) == 2 for v in values):
        raise TypeError("expected a list of [tick, rate] pairs")
    return tuple((_integer(t), _number(r)) for t, r in values)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _strings(values) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError("expected a list of strings")
    return tuple(values)


# Spec key -> converter; "scenario" is read below.
_SPEC_FIELDS = {"architecture": _string, "policies": _strings, "output": _string}
_SPEC_KEYS = {*_SPEC_FIELDS, "scenario"}
# Scenario key -> (ExperimentSpec field, converter). A key the file leaves
# out keeps the field's default.
_SCENARIO_FIELDS = {
    "duration_s": ("duration_s", _integer),
    "ticks_per_second": ("ticks_per_second", _integer),
    "seed": ("seed", _integer),
    "queue_capacity": ("queue_capacity", _integer),
    "exact_arrivals": ("exact_arrivals", _boolean),
    "workload": ("workload", _parse_workload),
    "monitoring_period_s": ("monitoring_period_s", _integer),
    "K": ("margin_K", _number),
    "k": ("hysteresis_k", _number),
    "base_target_mcl": ("base_target_mcl", _number),
    "scale_increments": ("scale_increments", _numbers),
}


def _read(where: str, block: dict, key: str, convert):
    """``block[key]`` converted, or an ExperimentError naming the key."""
    try:
        return convert(block[key])
    except TypeError as exc:
        raise ExperimentError(f"experiment {where} {key!r}: {exc}, got {block[key]!r}") from None


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read experiment spec {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ExperimentError("experiment spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ExperimentError(f"experiment spec: unknown keys {sorted(unknown)}")
    scenario = data.get("scenario", {})
    if not isinstance(scenario, dict):
        raise ExperimentError(f"experiment spec 'scenario': expected an object, got {scenario!r}")
    unknown = set(scenario) - _SCENARIO_FIELDS.keys()
    if unknown:
        raise ExperimentError(f"experiment scenario: unknown keys {sorted(unknown)}")
    fields = {key: _read("spec", data, key, convert)
              for key, convert in _SPEC_FIELDS.items() if key in data}
    arch_path = fields.pop("architecture", "")
    if not arch_path:
        raise ExperimentError("experiment spec needs an 'architecture' path")
    arch_path = str((path.parent / arch_path).resolve()) if not os.path.isabs(arch_path) else arch_path
    fields.update((name, _read("scenario", scenario, key, convert))
                  for key, (name, convert) in _SCENARIO_FIELDS.items() if key in scenario)
    workload = fields.get("workload")
    if workload is not None and isinstance(workload.kind, Trace):
        fields["workload"] = replace(
            workload, kind=Trace(str((path.parent / workload.kind.path).resolve())))
    return ExperimentSpec(architecture=arch_path, **fields)


@dataclass
class PolicySummary:
    policy: str
    generated: int
    completed: int
    lost_emails: int
    dropped_requests: int
    mean_latency_s: Optional[float]
    p95_interval_latency_s: Optional[float]
    peak_hour_mean_latency_s: Optional[float]
    ticks_to_target: Optional[int]
    peak_total_instances: int
    total_vm_cost: float


@dataclass
class ComparisonReport:
    peak_rate_eps: float
    peak_time_s: Optional[float]
    summaries: dict[str, PolicySummary]

    def to_json(self) -> str:
        payload = {
            "peak_rate_eps": self.peak_rate_eps,
            "peak_time_s": self.peak_time_s,
            "policies": {name: {k: v for k, v in asdict(s).items() if k != "policy"}
                         for name, s in sorted(self.summaries.items())},
        }
        if Policy.GLOBAL in self.summaries and Policy.LOCAL in self.summaries:
            g, l = self.summaries[Policy.GLOBAL], self.summaries[Policy.LOCAL]
            payload["global_vs_local"] = {
                "dropped_requests_delta": g.dropped_requests - l.dropped_requests,
                "lost_emails_delta": g.lost_emails - l.lost_emails,
                "mean_latency_delta_s": _sub(g.mean_latency_s, l.mean_latency_s),
                "peak_hour_latency_delta_s": _sub(g.peak_hour_mean_latency_s, l.peak_hour_mean_latency_s),
                "ticks_to_target_delta": _sub(g.ticks_to_target, l.ticks_to_target),
                "peak_instances_delta": g.peak_total_instances - l.peak_total_instances,
                "vm_cost_delta": g.total_vm_cost - l.total_vm_cost,
            }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"peak rate: {self.peak_rate_eps:g} emails/s"]
        cols = ["policy", "generated", "completed", "lost", "dropped", "mean_lat_s",
                "p95_lat_s", "peak_hr_lat_s", "ticks_to_target", "peak_insts", "vm_cost"]
        rows = [cols]
        for name in sorted(self.summaries):
            s = self.summaries[name]
            rows.append([
                name, str(s.generated), str(s.completed), str(s.lost_emails),
                str(s.dropped_requests),
                _fmt(s.mean_latency_s), _fmt(s.p95_interval_latency_s),
                _fmt(s.peak_hour_mean_latency_s),
                "-" if s.ticks_to_target is None else str(s.ticks_to_target),
                str(s.peak_total_instances), f"{s.total_vm_cost:.2f}",
            ])
        widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
        for r in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.4f}"


def _sub(a, b):
    if a is None or b is None:
        return None
    return a - b


def read_metrics_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def summarize_metrics_rows(
    rows: list[dict],
    policy: str,
    ticks_per_second: int,
    peak_rate: float,
    peak_time_s: Optional[float],
) -> PolicySummary:
    """Recompute a policy summary purely from emitted metrics rows."""
    generated = sum(int(r["generated"]) for r in rows)
    completed = sum(int(r["completed"]) for r in rows)
    lost = sum(int(r["lost_emails"]) for r in rows)
    dropped = sum(int(r["dropped_requests"]) for r in rows)
    lat_rows = [(float(r["mean_latency_s"]), int(r["completed"]))
                for r in rows if r["mean_latency_s"]]
    mean_lat = (sum(m * c for m, c in lat_rows) / sum(c for _, c in lat_rows)) if lat_rows else None
    p95 = None
    if lat_rows:
        values = sorted(m for m, _ in lat_rows)
        p95 = values[min(len(values) - 1, math.ceil(0.95 * len(values)) - 1)]
    peak_hour = None
    if peak_time_s is not None:
        lo, hi = peak_time_s - 1800, peak_time_s + 1800
        win = [(float(r["mean_latency_s"]), int(r["completed"]))
               for r in rows if r["mean_latency_s"] and lo <= float(r["t_s"]) < hi]
        if win:
            peak_hour = sum(m * c for m, c in win) / sum(c for _, c in win)
    ticks_to_target = None
    for r in rows:
        if float(r["capacity_eps"]) >= peak_rate:
            ticks_to_target = int(float(r["t_s"]) * ticks_per_second)
            break
    peak_insts = max((int(r["total_instances"]) for r in rows), default=0)
    vm_cost = float(rows[-1]["vm_cost_total"]) if rows else 0.0
    return PolicySummary(
        policy=policy,
        generated=generated,
        completed=completed,
        lost_emails=lost,
        dropped_requests=dropped,
        mean_latency_s=mean_lat,
        p95_interval_latency_s=p95,
        peak_hour_mean_latency_s=peak_hour,
        ticks_to_target=ticks_to_target,
        peak_total_instances=peak_insts,
        total_vm_cost=vm_cost,
    )


def _workload_peak(spec: ExperimentSpec) -> tuple[float, float]:
    """(peak rate, time of first peak in seconds) of the scenario workload."""
    from .workload import rate_curve

    ticks = spec.duration_s * spec.ticks_per_second  # at least 1
    rates = rate_curve(spec.workload, ticks, spec.ticks_per_second)
    return float(rates.max()), int(rates.argmax()) / spec.ticks_per_second


def build_reference_ladder(arch: SystemArchitecture, spec: ExperimentSpec) -> tuple[CapacityTable, ScaleLadder]:
    table = build_capacity_table(arch)
    ladder = synthesize_scale_ladder(
        Fraction(str(spec.base_target_mcl)),
        [Fraction(str(x)) for x in spec.scale_increments],
        table,
    )
    return table, ladder


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    timelines: dict[str, MetricsTimeline]
    report: ComparisonReport
    out_dir: Path


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every selected policy and write all artifacts under ``spec.output``.
    The policies share one traffic draw and one compiled pipeline (see
    ``simulator.compare_scope``)."""
    from .simulator import compare_scope, run_simulation  # here: the set-up commands never simulate

    out = Path(spec.output)
    out.mkdir(parents=True, exist_ok=True)
    arch = load_architecture(spec.architecture)
    table, ladder = build_reference_ladder(arch, spec)

    (out / "capacity_table.txt").write_text(table.to_text(), encoding="utf-8")
    (out / "ladder.txt").write_text(ladder_to_text(ladder, table), encoding="utf-8")

    peak_rate, peak_time_s = _workload_peak(spec)
    timelines: dict[str, MetricsTimeline] = {}
    summaries: dict[str, PolicySummary] = {}
    with compare_scope():
        for policy in spec.policies:
            timeline = run_simulation(arch, ladder, spec.sim_config(policy))
            timelines[policy] = timeline
            metrics_path = out / f"metrics_{policy}.csv"
            metrics_path.write_text(timeline.to_csv(), encoding="utf-8")
            (out / f"events_{policy}.csv").write_text(timeline.events_to_csv(), encoding="utf-8")
            rows = read_metrics_csv(metrics_path)
            summaries[policy] = summarize_metrics_rows(
                rows, policy, spec.ticks_per_second, peak_rate, peak_time_s)

    report = ComparisonReport(peak_rate_eps=peak_rate, peak_time_s=peak_time_s, summaries=summaries)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return ExperimentResult(spec=spec, timelines=timelines, report=report, out_dir=out)
