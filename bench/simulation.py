"""Simulation workloads: one pass is ``run_experiment`` for both policies,
artifacts included; the output checks run after the timed pass."""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from archscale import experiment
from archscale.cli import reference_architecture_path
from archscale.planner import AcquireVM
from archscale.simulator import Policy
from archscale.workload import Diurnal, Steps, WorkloadSpec

from .layers import Instrumented
from .measure import Calibration

POLICIES = (Policy.GLOBAL, Policy.LOCAL)


def diurnal_ref_spec(seed: int, out: Path) -> experiment.ExperimentSpec:
    """The reference compare up to the wave's 380 emails/s peak: the rising
    half of Diurnal(60, 380, 7200), exact arrivals, 10-s monitor, queue 500."""
    return experiment.ExperimentSpec(
        architecture=str(reference_architecture_path()), policies=POLICIES,
        output=str(out), duration_s=3600, seed=seed, queue_capacity=500,
        exact_arrivals=True, workload=WorkloadSpec(Diurnal(60, 380, 7200)),
        monitoring_period_s=10)


def surge_spec(seed: int, out: Path) -> experiment.ExperimentSpec:
    """The step surge 70 -> 300 -> 140 emails/s over 600 s, Poisson arrivals
    with 20 % rate jitter drawn from the seed. The monitors run every 5 s,
    which gives a pass 1200 decisions: enough for a p99 with ten beyond it
    from each decision's best over the passes."""
    steps = Steps(((0, 70.0), (120 * 30, 300.0), (420 * 30, 140.0)))
    return experiment.ExperimentSpec(
        architecture=str(reference_architecture_path()), policies=POLICIES,
        output=str(out), duration_s=600, seed=seed, queue_capacity=500,
        exact_arrivals=False, workload=WorkloadSpec(steps, jitter=0.2),
        monitoring_period_s=5)


@dataclass
class PassResult:
    wall_s: float
    generated: int
    counts: dict[str, dict]  # policy -> exact simulated counts and CSV digests
    problems: dict[str, list[str]]  # policy -> failed checks
    decisions_ns: array  # latency of each monitor decision, untraced passes only
    instr: Instrumented
    result: object  # ExperimentResult


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_problems(result) -> list[str]:
    """report.json must equal the summary recomputed from the written CSVs."""
    out = result.out_dir
    written = (out / "report.json").read_text(encoding="utf-8")
    peak = json.loads(written)
    spec = result.spec
    summaries = {
        p: experiment.summarize_metrics_rows(
            experiment.read_metrics_csv(out / f"metrics_{p}.csv"), p,
            spec.ticks_per_second, peak["peak_rate_eps"], peak["peak_time_s"])
        for p in spec.policies}
    recomputed = experiment.ComparisonReport(
        peak_rate_eps=peak["peak_rate_eps"], peak_time_s=peak["peak_time_s"],
        summaries=summaries)
    problems = [] if recomputed.to_json() == written else \
        ["report.json differs from the summary recomputed from the CSVs"]
    for p, s in summaries.items():
        tl = result.timelines[p]
        if (s.generated, s.completed, s.lost_emails, s.dropped_requests) != \
                (tl.generated, tl.completed, tl.lost, tl.dropped_requests):
            problems.append(f"{p}: CSV totals differ from the run's totals")
    return problems


def run_pass(spec: experiment.ExperimentSpec, traced: bool,
             calibration: Calibration | None = None) -> PassResult:
    with Instrumented(layers=traced, calibration=calibration) as instr:
        start = time.perf_counter_ns()
        instr.segments.mark(start)
        result = experiment.run_experiment(spec)
        end = time.perf_counter_ns()
        instr.segments.mark(end)
    report = _report_problems(result)
    counts, problems = {}, {}
    for p in spec.policies:
        tl = result.timelines[p]
        problems[p] = list(report)
        if tl.generated != tl.completed + tl.lost + tl.in_flight_end:
            problems[p].append(
                f"generated {tl.generated} != completed {tl.completed} + lost {tl.lost}"
                f" + in flight {tl.in_flight_end}")
        counts[p] = {
            "emails_generated": tl.generated,
            "emails_completed": tl.completed,
            "emails_lost": tl.lost,
            "requests_dropped": tl.dropped_requests,
            "scaling_events": len(tl.events),
            "orchestrations": len(tl.orchestrations),
            "peak_instances": tl.peak_total_instances,
            f"metrics_{p}.csv": _sha256(result.out_dir / f"metrics_{p}.csv"),
            f"events_{p}.csv": _sha256(result.out_dir / f"events_{p}.csv"),
        }
    return PassResult(
        wall_s=(end - start) / 1e9,
        generated=sum(result.timelines[p].generated for p in spec.policies),
        counts=counts, problems=problems, decisions_ns=instr.decisions.latencies_ns,
        instr=instr, result=result)


def per_layer(traced: PassResult) -> dict[str, float]:
    """The traced pass's layer metrics, including per-policy simulator ones."""
    instr = traced.instr
    metrics = instr.layer_metrics()
    timelines = traced.result.timelines
    tps = traced.result.spec.ticks_per_second
    events = [e for tl in timelines.values() for e in tl.events]
    triggers = metrics["scaler.trigger_calls"]
    metrics["scaler.enacted_ratio"] = (
        sum(e.action in ("deploy", "undeploy") for e in events) / triggers if triggers else 0.0)
    metrics["planner.vms_acquired"] = sum(
        isinstance(a, AcquireVM)
        for tl in timelines.values() for o in tl.orchestrations for a in o.actions)
    metrics["workload.emails"] = traced.generated
    for p, tl in timelines.items():
        self_s = instr.policy_self_seconds(p)
        rows = experiment.read_metrics_csv(traced.result.out_dir / f"metrics_{p}.csv")
        instance_ticks = sum(int(r["total_instances"]) for r in rows) * tps
        metrics.update({
            f"simulator.{p}.run_s": instr.policy_seconds(p),
            f"simulator.{p}.cpu_s": instr.run_cpu_s[p],
            f"simulator.{p}.self_s": self_s,
            f"simulator.{p}.ns_per_email": self_s * 1e9 / tl.generated,
            f"simulator.{p}.ns_per_instance_tick": self_s * 1e9 / instance_ticks,
        })
        metrics.update({f"simulator.{p}.{k}": v for k, v in traced.counts[p].items()
                        if not k.endswith(".csv")})
    return metrics
