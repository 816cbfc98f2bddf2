"""Optimal information disclosure against risk-sensitive receivers.

The package solves sender-commitment signaling problems where the
receiver's preferences may be nonlinear in the belief: an exact
hull-vertex LP for binary actions with a convex rejection region, a
grid relaxation for everything else, and an endogenous-prior variant
for signaling queue lengths to arriving customers.
"""

from .binary import (
    HullCandidates,
    StateClassification,
    ThresholdReport,
    binary_precondition_error,
    classify_states,
    compute_k01,
    hull_candidates,
    solve_binary,
    verify_threshold,
)
from .general import (
    BaselineValues,
    BenefitReport,
    GridSpec,
    baseline_values,
    benefit_check,
    default_grid_k,
    expected_region_vertices,
    full_persuasion,
    grid_vertices,
    plan_from_candidates,
    solve_general,
)
from .geometry import (
    InfeasibleProgramError,
    LinearProgram,
    LpResult,
    LpSolverError,
    solve_lp,
)
from .model import (
    ActionSpace,
    Belief,
    FormatError,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    StateSpace,
    UtilityModel,
    best_response,
    instance_from_json,
    instance_to_json,
    make_model,
    mixture_moments,
)
from .queueing import (
    QueueInstance,
    QueueSolution,
    SandwichReport,
    SimulationResult,
    gamma_closed_form,
    posterior_wait_moments,
    queue_model,
    simulate_queue,
    solve_queue,
    verify_sandwich,
)
from .scheme import (
    Signal,
    SignalingScheme,
    ValidationReport,
    sample_scheme,
    sample_scheme_batch,
    scheme_from_json,
    scheme_from_plan,
    scheme_to_json,
    scheme_value,
    validate_scheme,
)

__version__ = "0.1.0"
