"""A calm system: constant load below the base capacity.

Ten simulated minutes at 50 emails/s against the 60 emails/s base
configuration: no drops, no scaling, and latency close to the physical
floor of the pipeline (one tick per hop at 30 ticks per second).

Writes the metrics CSV to demos/out_steady/.
"""

from pathlib import Path

from archscale import ExperimentSpec, Steps, WorkloadSpec, run_experiment
from archscale.cli import reference_architecture_path
from archscale.experiment import read_metrics_csv

out = Path(__file__).parent / "out_steady"
spec = ExperimentSpec(
    architecture=str(reference_architecture_path()),
    policies=("global",),
    output=str(out),
    duration_s=600,
    seed=12,
    exact_arrivals=True,
    workload=WorkloadSpec(Steps(((0, 50.0),))),
)
result = run_experiment(spec)
summary = result.report.summaries["global"]

print(f"generated {summary.generated} emails, completed {summary.completed}, "
      f"lost {summary.lost_emails}, dropped requests {summary.dropped_requests}")
print(f"scaling events: {len(result.timelines['global'].events)}")
print(f"mean end-to-end latency over all emails: {summary.mean_latency_s:.4f} s")
print(f"  physical floors: {4 / 30:.4f} s on the 4-hop path without attachments, "
      f"{7 / 30:.4f} s on the 7-hop attachment path")
print(f"VM cost of the standing fleet: {summary.total_vm_cost:g}")

print("\nfirst five reporting intervals:")
print("t_s  inbound  completed  latency_s")
for row in read_metrics_csv(out / "metrics_global.csv")[:5]:
    lat = f"{float(row['mean_latency_s']):.4f}" if row["mean_latency_s"] else "-"
    print(f"{int(row['t_s']):3d}  {float(row['inbound_eps']):7.1f}  "
          f"{int(row['completed']):9d}  {lat}")
