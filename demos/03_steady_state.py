"""A calm system: constant load below the base capacity.

Ten simulated minutes at 50 emails/s against the 60 emails/s base
configuration: no drops, no scaling, and latency close to the physical
floor of the pipeline (one tick per hop at 30 ticks per second).
"""

from fractions import Fraction

from archscale import (
    SimConfig,
    Steps,
    WorkloadSpec,
    build_capacity_table,
    load_architecture,
    run_simulation,
    synthesize_scale_ladder,
)
from archscale.cli import reference_architecture_path
from archscale.simulator import Policy

arch = load_architecture(reference_architecture_path())
table = build_capacity_table(arch)
ladder = synthesize_scale_ladder(
    Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], table)

config = SimConfig(
    duration=600 * 30,
    workload=WorkloadSpec(Steps(((0, 50.0),))),
    seed=12,
    policy=Policy.GLOBAL,
    exact_arrivals=True,
)
timeline = run_simulation(arch, ladder, config)

print(f"generated {timeline.generated} emails, completed {timeline.completed}, "
      f"lost {timeline.lost}, dropped requests {timeline.dropped_requests}")
print(f"scaling events: {len(timeline.events)}")
print(f"mean end-to-end latency over all emails: {timeline.mean_latency_s:.4f} s")
print(f"  physical floors: {4 / 30:.4f} s on the 4-hop path without attachments, "
      f"{7 / 30:.4f} s on the 7-hop attachment path")
print(f"VM cost of the standing fleet: {float(timeline.total_vm_cost):g}")

print("\nfirst five reporting intervals:")
print("t_s  inbound  completed  latency_s")
tps = timeline.ticks_per_second
for row in timeline.rows[:5]:
    lat = "-" if not row.completed else f"{row.latency_ticks / row.completed / tps:.4f}"
    print(f"{row.t_s:3d}  {row.inbound_eps:7.1f}  {row.completed:9d}  {lat}")
