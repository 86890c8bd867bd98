"""Joint actuator/sensor placement for stochastic linear plants.

Minimizes the infinite-horizon time-averaged LQG cost over unit actuator and
sensor directions via a double-bracket gradient flow on the product of unit
spheres, with analytic zero-gain equilibrium enumeration and a Monte Carlo
validator.
"""

from .cost import (
    CostReport,
    cost_report,
    directional_derivative,
    phi,
    phi_bar,
    phi_gain_sensitivity,
)
from .equilibria import (
    BetaGamma,
    EquilibriumCandidate,
    Spectrum,
    analytic_gains_at_v1,
    analytic_minimum,
    beta_gamma_coords,
    candidate_match_distance,
    cauchy_matrix,
    classify_candidates,
    classify_stability,
    enumerate_equilibria_zero,
    hessian_matrix,
    is_equilibrium,
    xi_vector,
)
from .errors import (
    AllStartsFailed,
    CodesignError,
    DegenerateStep,
    DimensionTooLarge,
    NoStabilizingSolution,
    NonConvergence,
    NonNegativeEigenvalue,
    NotAnEquilibrium,
    NotHurwitz,
    NotSkew,
    PBHViolation,
    ProblemFormatError,
    SimulationDiverged,
    SingularBlock,
)
from .flow import (
    FlowIterate,
    FlowOptions,
    FlowTrace,
    MultiStartResult,
    OrbitGradient,
    flow_step,
    gradient,
    multi_start,
    pbh_passing_placement,
    random_placement,
    run_flow,
)
from .plant import Placement, Plant
from .riccati import (
    AdjointPair,
    ClosedLoop,
    GainPair,
    PBHReport,
    adjoint_pair,
    gain_pair,
    pbh_check,
    solve_care,
    solve_lyapunov,
)
from .simulate import SimConfig, SimResult, estimate_eta, simulate_path
from .verify import run_checks

__version__ = "0.1.0"
