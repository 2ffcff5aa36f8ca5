"""Command-line experiment runner.

Subcommands: ``validate`` an architecture document, print the capacity
``ladder``, ``plan`` a placement and its orchestrations, ``simulate`` one
policy, and ``compare`` policies end to end.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .capacity import build_capacity_table, ladder_to_text, synthesize_scale_ladder
from .document import ParseError, load_architecture
from .experiment import (
    DEFAULT_INCREMENTS,
    ExperimentError,
    ExperimentSpec,
    load_experiment_spec,
    run_experiment,
)
from .model import validate_architecture
from .scaler import Policy


def reference_architecture_path() -> Path:
    return Path(__file__).parent / "data" / "reference_architecture.json"


def _add_arch(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", default=str(reference_architecture_path()),
                        help="architecture document (default: bundled reference)")


def _add_ladder_rates(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", type=_base_rate, default="60",
                        help="base target rate, emails/sec")
    parser.add_argument("--increments", type=_increments,
                        default=",".join(str(i) for i in DEFAULT_INCREMENTS),
                        help="comma-separated scale increments, emails/sec")


def _rate(text: str) -> Fraction:
    """A finite rate in emails/sec, read exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):  # nan, inf, 1/0, not a number
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _base_rate(text: str) -> Fraction:
    rate = _rate(text)
    if rate < 0:
        raise argparse.ArgumentTypeError(f"expected a number at least 0, got {text!r}")
    return rate


def _increments(text: str) -> list[Fraction]:
    return [_rate(part) for part in text.split(",") if part.strip()]


def _delta(text: str) -> dict[str, int]:
    """Comma-separated ``Service=count`` pairs, each service named once."""
    delta: dict[str, int] = {}
    for part in text.split(","):
        name, eq, count = part.partition("=")
        name = name.strip()
        if not eq or not name:
            raise argparse.ArgumentTypeError(f"expected 'Service=count', got {part!r}")
        if name in delta:
            raise argparse.ArgumentTypeError(f"{name} is given more than once")
        try:
            delta[name] = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer count for {name}, got {count!r}") from None
    return delta


def cmd_validate(args: argparse.Namespace) -> int:
    arch = load_architecture(args.arch)
    report = validate_architecture(arch)
    if report.ok:
        print(f"ok: {len(arch.services)} services, {len(arch.vm_catalog)} VM types")
        return 0
    for violation in report:
        print(f"violation: {violation}")
    return 1


def cmd_ladder(args: argparse.Namespace) -> int:
    arch = load_architecture(args.arch)
    table = build_capacity_table(arch)
    ladder = synthesize_scale_ladder(args.base, args.increments, table)
    print(table.to_text(), end="")
    print()
    print(ladder_to_text(ladder, table), end="")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from .planner import (  # here: only this command places and orchestrates
        DeploymentRegistry,
        orchestration_to_script,
        plan_placement,
        synthesize_orchestration,
        synthesize_undeployment,
    )

    arch = load_architecture(args.arch)
    delta = args.delta
    if delta is None:
        table = build_capacity_table(arch)
        ladder = synthesize_scale_ladder(args.base, args.increments, table)
        if not 1 <= args.delta_index <= ladder.num_scales:
            print(f"error: delta index must lie in 1..{ladder.num_scales}", file=sys.stderr)
            return 1
        d = ladder.deltas[args.delta_index - 1]
        delta = {s.name: c for s, c in zip(arch.services, d.counts) if c > 0}
    placement = plan_placement(delta, arch, arch.vm_catalog)
    print(f"placement cost: {float(placement.total_cost):g} "
          f"({len(placement.acquired_vms)} VMs)")
    for vm_type, idx in placement.acquired_vms:
        services = ", ".join(placement.services_on(idx))
        print(f"  vm#{idx} {vm_type.name}: {services}")
    registry = DeploymentRegistry(arch)
    base = {s.name: 1 for s in arch.services}
    registry.apply(synthesize_orchestration(plan_placement(base, arch, arch.vm_catalog), arch, registry))
    orch = synthesize_orchestration(placement, arch, registry)
    print("\ndeployment orchestration:")
    print(orchestration_to_script(orch), end="")
    print("\nundeployment orchestration:")
    print(orchestration_to_script(synthesize_undeployment(orch)), end="")
    return 0


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.spec:
        spec = load_experiment_spec(args.spec)
    else:
        spec = ExperimentSpec(architecture=str(reference_architecture_path()))
    if args.arch:
        spec = replace(spec, architecture=args.arch)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.exact_arrivals:
        spec = replace(spec, exact_arrivals=True)
    if args.out:
        spec = replace(spec, output=args.out)
    if args.policy:
        policies = (Policy.GLOBAL, Policy.LOCAL) if args.policy == "both" else (args.policy,)
        spec = replace(spec, policies=policies)
    return spec


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = run_experiment(spec)
    for policy, summary in result.report.summaries.items():
        print(f"{policy}: generated={summary.generated} completed={summary.completed} "
              f"lost={summary.lost_emails} dropped={summary.dropped_requests}")
    print(f"artifacts written to {result.out_dir}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if len(spec.policies) < 2:
        spec = replace(spec, policies=(Policy.GLOBAL, Policy.LOCAL))
    result = run_experiment(spec)
    print(result.report.to_text(), end="")
    print(f"artifacts written to {result.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archscale",
        description="Microservice pipeline capacity planning, deployment "
                    "orchestration and autoscaling simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an architecture document")
    _add_arch(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ladder", help="print the capacity table and scale ladder")
    _add_arch(p)
    _add_ladder_rates(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("plan", help="plan a placement and dump its orchestrations")
    _add_arch(p)
    p.add_argument("--delta", type=_delta, default=None,
                   help="explicit increment, e.g. 'VirusScanner=2,MessageAnalyser=1'")
    p.add_argument("--delta-index", type=int, default=1,
                   help="ladder delta to plan when --delta is not given (1-based)")
    _add_ladder_rates(p)
    p.set_defaults(func=cmd_plan)

    # A compare always runs both policies, so ``both`` is its only choice.
    for name, fn, help_text, policies in (
        ("simulate", cmd_simulate, "run the selected policy and write metrics",
         ["global", "local", "both"]),
        ("compare", cmd_compare, "run global and local policies and compare", ["both"]),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--arch", default=None, help="architecture document override")
        p.add_argument("--spec", default=None, help="experiment spec file (JSON)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--policy", choices=policies, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--exact-arrivals", action="store_true")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ExperimentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
