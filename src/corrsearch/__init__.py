"""Correlation-factor energy decomposition and variational search toolkit."""

__version__ = "0.1.0"

from .domain import (
    DomainError,
    Density,
    ExponentialDensity,
    ExponentialMixtureDensity,
    ExternalPotential,
    SpaceSpec,
    Tabulated1DDensity,
    external_energy,
)
from .ansatz import (
    AnsatzError,
    ConditionalAnsatz,
    EstimatorError,
    FrozenOrbitalProduct,
    GaussianToy,
    PairwiseBiparametric,
    SimpleFactorized,
    pair_energy,
)
from .sampler import SamplerSettings, run_conditional_batch
from .functionals import (
    EnergyBreakdown,
    GammaEstimate,
    check_conditions,
    gamma_correlation,
    total_energy,
    weizsacker_term,
)
from .optimizer import (
    OptimizeSpec,
    inner_minimize,
    nelder_mead,
    outer_minimize,
)

__all__ = [
    "__version__",
    "DomainError",
    "Density",
    "ExponentialDensity",
    "ExponentialMixtureDensity",
    "ExternalPotential",
    "SpaceSpec",
    "Tabulated1DDensity",
    "external_energy",
    "AnsatzError",
    "ConditionalAnsatz",
    "EstimatorError",
    "FrozenOrbitalProduct",
    "GaussianToy",
    "PairwiseBiparametric",
    "SimpleFactorized",
    "check_conditions",
    "pair_energy",
    "SamplerSettings",
    "run_conditional_batch",
    "EnergyBreakdown",
    "GammaEstimate",
    "gamma_correlation",
    "total_energy",
    "weizsacker_term",
    "OptimizeSpec",
    "inner_minimize",
    "nelder_mead",
    "outer_minimize",
]
