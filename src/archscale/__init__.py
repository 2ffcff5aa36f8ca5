"""Capacity-driven autoscaling for microservice pipelines.

A library for modeling a microservice email-processing system, deriving
per-service throughput limits and instance counts from first principles,
packing instances onto VMs at minimum cost, synthesizing timed deployment
orchestrations, and simulating architecture-level versus per-service
scaling policies under workload traces.
"""

from .capacity import (
    CapacityError,
    CapacityTable,
    Configuration,
    ScaleLadder,
    base_configuration,
    build_capacity_table,
    instances_for_target,
    ladder_to_text,
    multiplicative_factor,
    request_cost,
    request_size,
    service_mcl,
    synthesize_scale_ladder,
    system_mcl,
)
from .document import (
    CycleError,
    ParseError,
    load_architecture,
    parse_architecture,
    serialize_architecture,
)
from .experiment import (
    ComparisonReport,
    ExperimentError,
    ExperimentSpec,
    load_experiment_spec,
    run_experiment,
)
from .model import (
    INFINITE,
    EmailProfile,
    MCLParams,
    MFKind,
    MFRule,
    PipelineEdge,
    ServiceType,
    SystemArchitecture,
    ValidationReport,
    VMType,
    validate_architecture,
)
from .planner import (
    DeploymentRegistry,
    Placement,
    PlacementError,
    SynthesisError,
    TimedOrchestration,
    VMState,
    effective_speed,
    orchestration_to_script,
    plan_placement,
    synthesize_orchestration,
    synthesize_removal,
    synthesize_undeployment,
    validate_orchestration_timing,
)
from .scaler import (
    DeltaVector,
    ReconfigurationPlan,
    ScalerParams,
    ScalingError,
    Trigger,
    delta_vector_is_canonical,
    diff_reconfiguration,
    local_target_instances,
    scaling_trigger,
    select_global_configuration,
)
from .simulator import (
    Balancer,
    MetricsTimeline,
    Policy,
    SimConfig,
    SimulationError,
    run_simulation,
)
from .workload import (
    Diurnal,
    Steps,
    Trace,
    WorkloadSpec,
    generate_arrivals,
    rate_curve,
)

__version__ = "0.1.0"
