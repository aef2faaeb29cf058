"""Conservative Hamiltonian Monte Carlo with energy-preserving proposals.

Public surface: phase-space primitives, built-in targets, the leapfrog and
energy-preserving integrators, Jacobian determinant factors, the two
samplers, the covariance tracker, and the config-driven experiment runner in
``chmc.cli``.
"""

from .diagnostics import ChainSummary, CovarianceTracker
from .integrators import (
    DmmSolverConfig,
    StepRecord,
    StepScratch,
    TrajectoryRecord,
    divided_difference_force,
    dmm_step,
    leapfrog_trajectory,
    trajectory,
)
from .jacobian import (
    JacobianAccumulator,
    JacobianMode,
    force_jacobians,
    step_jacobian,
)
from .phase import (
    MassMatrix,
    PhaseState,
    hamiltonian,
)
from .samplers import (
    IterationOutcome,
    SamplerConfig,
    StateCache,
    acceptance_probability,
    chain_rng,
    chmc_iteration,
    hmc_iteration,
    run_chain,
)
from .targets import (
    MultivariateGaussian,
    Potential,
    QuarticGeneralizedGaussian,
    quartic_target_variance,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSummary",
    "CovarianceTracker",
    "DmmSolverConfig",
    "IterationOutcome",
    "JacobianAccumulator",
    "JacobianMode",
    "MassMatrix",
    "MultivariateGaussian",
    "PhaseState",
    "Potential",
    "QuarticGeneralizedGaussian",
    "SamplerConfig",
    "StateCache",
    "StepRecord",
    "StepScratch",
    "TrajectoryRecord",
    "acceptance_probability",
    "chain_rng",
    "chmc_iteration",
    "divided_difference_force",
    "dmm_step",
    "force_jacobians",
    "hamiltonian",
    "hmc_iteration",
    "leapfrog_trajectory",
    "quartic_target_variance",
    "run_chain",
    "step_jacobian",
    "trajectory",
    "__version__",
]
