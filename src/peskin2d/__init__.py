"""Spectral solver and certified-stability toolkit for a closed elastic
interface between two Stokes fluids with viscosity contrast."""

__version__ = "0.1.0"

from .spectral import (
    AliasingError,
    CirclePart,
    CurveDegenerateError,
    FourierCurve,
    analyze,
    arc_chord_constant,
    circle_curve,
    circle_decompose,
    derivative,
    enclosed_area,
    evaluate,
    fnorm,
    from_Y,
    geometry_diagnostics,
    synthesize,
    theta_grid,
    to_Y,
)
from .kernels import (
    SingularEvaluation,
    eval_velocity_field,
    log_convolve,
    stokeslet,
)
from .force import (
    PhysicsParams,
    SolverError,
    elastic_force,
    force_zero_linear,
    s_operator_matrix,
    solve_force,
)
from .evolution import (
    CSV_HEADER,
    SimulationState,
    StepperConfig,
    TrajectoryRecord,
    read_final_state,
    rhs_nonlinear,
    run,
    step,
    velocity_on_curve,
    write_final_state,
)
from .constants import (
    OutOfRegimeError,
    constants_chain,
    energy_certificate,
    k_threshold,
    margin,
    threshold_lower_bound,
)
from .multipliers import (
    integral_In,
    integral_S1_closed,
    integral_Sn_exact,
    integral_Sn_quadrature,
)

__all__ = [
    # spectral
    "AliasingError", "CirclePart", "CurveDegenerateError", "FourierCurve",
    "analyze", "arc_chord_constant", "circle_curve", "circle_decompose",
    "derivative", "enclosed_area", "evaluate", "fnorm", "from_Y",
    "geometry_diagnostics", "synthesize", "theta_grid", "to_Y",
    # kernels
    "SingularEvaluation", "eval_velocity_field", "log_convolve", "stokeslet",
    # force
    "PhysicsParams", "SolverError", "elastic_force", "force_zero_linear",
    "s_operator_matrix", "solve_force",
    # evolution
    "CSV_HEADER", "SimulationState", "StepperConfig", "TrajectoryRecord",
    "read_final_state", "rhs_nonlinear", "run", "step", "velocity_on_curve",
    "write_final_state",
    # constants
    "OutOfRegimeError", "constants_chain", "energy_certificate",
    "k_threshold", "margin", "threshold_lower_bound",
    # multipliers
    "integral_In", "integral_S1_closed", "integral_Sn_exact",
    "integral_Sn_quadrature",
]
