"""Deterministic water-heater self-adaptation simulator and assurance toolkit."""

from .model import (
    AdaptationModel,
    AdaptationOption,
    EnvironmentSample,
    KnowledgeRepository,
    OperationalDomain,
    ParameterConstraint,
    SimulationFault,
    SystemConfiguration,
    UNBOUNDED_DOMAIN,
    ValidationError,
    domain_subset,
    option_satisfies_model,
)
from .taxonomy import (
    AdaptationDescriptor,
    ClassificationError,
    DYNAMIC_OBLIGATIONS,
    LifecycleMismatchError,
    OBLIGATIONS,
    TaxonomyVerdict,
    check_obligations,
    classify,
    obligations_for,
    verdict_for,
)
from .plant import (
    GuardState,
    HAZARD_DURATION,
    HAZARD_TEMP,
    PlantParams,
    PlantState,
    guard_reset,
    guard_step,
    hazard_update,
    plant_step,
)
from .controller import (
    NetControllerSpec,
    PidConfig,
    PidState,
    net_compute,
    pid_compute,
    weight_count,
    zero_spec,
)
from .spi import SpiWindow, spi_breached, spi_reset, spi_update
from .assurance import (
    AddDynamicSubtree,
    AttachEvidence,
    CaseNode,
    EvidenceItem,
    ReplaceConstraintContext,
    SafetyCase,
    StaticNodeError,
    StructuralError,
    adapt_case,
    current_constraints,
    evaluate_validity,
    load_case,
    render_text,
    save_case,
    support_map,
)
from .scenario import Scenario, Trace, load_scenario, save_scenario
from .mapek import (
    AdaptationDecision,
    AdaptationGoal,
    AdaptationTrigger,
    AdmissionPolicy,
    AdmissionReport,
    AssessmentSuite,
    GoalTracker,
    admission_test,
    assess_candidate,
    execute_adaptation,
    fail_safe,
    plan_type1,
    plan_type2,
    plan_type3,
    propose_candidate,
    spec_hash,
)
from .harness import (
    RunReport,
    SystemDescription,
    TRACE_HEADER,
    emit_trace,
    load_system,
    run_scenario,
    save_report,
    save_system,
)

__version__ = "0.1.0"
