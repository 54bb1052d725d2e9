"""Spectral-projected interior trajectories for periodic sphere packings."""

from .barrier import (
    BarrierEval,
    BarrierParams,
    barrier_energy,
    barrier_value,
    estimate_L,
    estimate_L_joint,
    estimate_m,
    hvp_joint,
    hvp_x,
    lipschitz_bound,
    phi,
)
from .dynamics import (
    DynamicsState,
    TrajectoryRecord,
    backtrack,
    companion_coefficients,
    companion_rate,
    jury_stable,
    lyapunov_energy,
    run_trajectory,
    select_steps,
    spit_step,
)
from .errors import (
    FeasibilityError,
    InfeasibleSlackError,
    LinearizedInfeasibleError,
    MidpointInfeasibleError,
    RunAbort,
    SingularBasisError,
    SpitError,
)
from .geometry import (
    ContactIndex,
    Contacts,
    LatticeBasis,
    PackingState,
    ShiftIndexSet,
    build_shift_set,
    cell_volume,
    contacts_within,
    gauge_project,
    min_slack,
    pair_slack,
    volume_gradient,
)
from .harness import (
    RunConfig,
    RunSummary,
    certify,
    config_from_preset,
    execute_run,
    load_config,
    load_state,
    make_testbed,
    random_feasible_state,
    save_state,
)
from .projection import (
    QPSolution,
    QuadraticProgram,
    e_project_joint,
    e_project_x,
    gs_project_once,
    solve_qp,
)
from .rigidity import (
    MotionVector,
    active_set,
    is_periodically_rigid,
    kkt_residual,
    licq_sigma_min,
    motion_operator,
    prestress_stable,
    recover_multipliers,
    stress_energy,
    trivial_motion_basis,
)
from .spectral import (
    ContactGraph,
    NudgeHistory,
    build_contact_graph,
    cheeger_check,
    fiedler,
    lift_mode,
    nudge_alpha,
    nudge_trigger,
    poincare_check,
)

__version__ = "0.1.0"
