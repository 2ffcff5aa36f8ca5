"""Capacity-driven autoscaling for microservice pipelines.

A library for modeling a microservice email-processing system, deriving
per-service throughput limits and instance counts from first principles,
packing instances onto VMs at minimum cost, synthesizing timed deployment
orchestrations, and simulating architecture-level versus per-service
scaling policies under workload traces.

The package exports load lazily (PEP 562): ``import archscale`` imports no
submodule, and a name's module is imported when the name is first read, so
a short command compiles only the modules it uses. Each read returns the
defining module's current attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "capacity": (
        "CapacityError", "CapacityTable", "Configuration", "ScaleLadder",
        "base_configuration", "build_capacity_table", "instances_for_target",
        "ladder_to_text", "multiplicative_factor", "request_cost", "request_size",
        "service_mcl", "synthesize_scale_ladder", "system_mcl",
    ),
    "document": (
        "CycleError", "ParseError", "load_architecture", "parse_architecture",
        "serialize_architecture",
    ),
    "experiment": (
        "ComparisonReport", "ExperimentError", "ExperimentSpec", "load_experiment_spec",
        "run_experiment",
    ),
    "model": (
        "INFINITE", "EmailProfile", "MCLParams", "MFKind", "MFRule", "PipelineEdge",
        "ServiceType", "SystemArchitecture", "ValidationReport", "VMType",
        "validate_architecture",
    ),
    "planner": (
        "DeploymentRegistry", "Placement", "PlacementError", "SynthesisError",
        "TimedOrchestration", "VMState", "orchestration_to_script",
        "plan_placement", "synthesize_orchestration", "synthesize_removal",
        "synthesize_undeployment", "validate_orchestration_timing",
    ),
    "scaler": (
        "DeltaVector", "Policy", "ScalerParams", "ScalingError",
        "Trigger", "delta_vector_is_canonical", "diff_reconfiguration",
        "local_target_instances", "scaling_trigger", "select_global_configuration",
    ),
    "simulator": (
        "MetricsTimeline", "SimConfig", "SimulationError", "run_simulation",
    ),
    "workload": (
        "Diurnal", "Steps", "Trace", "WorkloadSpec", "generate_arrivals", "rate_curve",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule that nothing has imported yet
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
