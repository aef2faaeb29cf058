"""Conservative Hamiltonian Monte Carlo with energy-preserving proposals.

Public surface: the chain API. ``run_chain`` runs one chain of a validated
``SamplerConfig`` (with its ``DmmSolverConfig`` and ``JacobianMode``) on a
``Potential``, streaming ``IterationOutcome`` records and returning a
``ChainSummary``; ``CovarianceTracker`` follows the retained draws. Two
separable targets ship, the quartic well and the standard normal, and
``chmc.cli`` runs YAML experiment specs.

``run_chain`` and ``chmc.cli`` are the one place where a chain's inputs are
checked. The step-level layers below them (``integrators``, ``jacobian``,
``phase`` and the iterations in ``samplers``) are internals: they stay
importable from their modules, trust the raw arrays and counts the chain
hands them, and may change signature without notice.
"""

from .diagnostics import ChainSummary, CovarianceTracker
from .integrators import DmmSolverConfig
from .jacobian import JacobianMode
from .phase import MassMatrix
from .samplers import IterationOutcome, SamplerConfig, run_chain
from .targets import (
    Potential,
    QuarticGeneralizedGaussian,
    StandardNormal,
    quartic_target_variance,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSummary",
    "CovarianceTracker",
    "DmmSolverConfig",
    "IterationOutcome",
    "JacobianMode",
    "MassMatrix",
    "Potential",
    "QuarticGeneralizedGaussian",
    "SamplerConfig",
    "StandardNormal",
    "quartic_target_variance",
    "run_chain",
    "__version__",
]
