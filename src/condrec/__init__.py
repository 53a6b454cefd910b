"""Iterative regularization for minimization-based conductivity identification.

A numpy/scipy library implementing projected-gradient and SQP-Newton iterative
regularization for diffusion/conductivity identification from interior power
densities (IAT), electrode voltages (EIT), or head/flux data (GWF), on top of a
P2 complete-electrode-model finite-element forward solver.
"""

__version__ = "0.1.0"

from . import conditions, core, errors, experiments, fem, functionals, solvers
from .core import ConstraintSet, State, StateSpace
from .experiments import (
    ExperimentConfig,
    Phantom,
    ReconstructionResult,
    add_noise,
    excitation_case,
    generate_synthetic,
    run_experiment,
    run_table,
)
from .fem import (
    CemSolution,
    ElectrodeConfig,
    ExcitationSet,
    Mesh,
    assemble_cem,
    disk_mesh_scale,
    gradient_field,
    load_mesh,
    perp_gradient_field,
    power_density,
    refine_mesh,
    save_mesh,
    solve_cem,
    stream_potential,
)
from .functionals import (
    CostFunctional,
    Observations,
    combined_cost,
    eliminate_sigma,
    gwf_obs,
    iat_obs,
    kv_model,
    ls_model,
    reduced_cost,
    reduced_forward,
)
from .solvers import (
    BoxFeasible,
    FeasibleSet,
    GradientConfig,
    NewtonConfig,
    SolverReport,
    alpha_a_posteriori,
    alpha_a_priori,
    armijo_step,
    newton_sqp,
    noise_budget,
    projected_gradient,
    solve_subproblem,
)
