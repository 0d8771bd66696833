"""mixent: entropy of lattice-Gaussian mixtures, the deficit
``H(Z) + h(X) - h(X+Z)``, and the closed-form bounds that sandwich it."""

from .bounds import (
    BoundReport,
    bernoulli_lower_bound,
    big_sigma_lower_bound,
    lemma1_upper_bound,
    lemma3_near_zero_term,
    lemma4_far_term,
    sandwich_report,
    theorem1_upper_bound,
)
from .distributions import (
    DiscreteLattice,
    DistributionError,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
    tail_mass,
)
from .entropy import (
    EntropyMethod,
    EntropyValue,
    McConfig,
    deficit_direct,
    deficit_via_identity,
    discrete_entropy,
    entropy_report,
    gaussian_entropy,
    mc_entropy,
    mixture_entropy,
)
from .landauer import (
    BitMemoryModel,
    ResetReport,
    rescale_to_unit_lattice,
    reset_report,
)
from .numerics import (
    QuadratureResult,
    gaussian_tail_lower,
    integrate,
    lattice_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BitMemoryModel",
    "BoundReport",
    "DiscreteLattice",
    "DistributionError",
    "EntropyMethod",
    "EntropyValue",
    "GaussianDensity",
    "McConfig",
    "MixtureDensity",
    "QuadratureResult",
    "ResetReport",
    "UniformDensity",
    "bernoulli_lower_bound",
    "big_sigma_lower_bound",
    "deficit_direct",
    "deficit_via_identity",
    "discrete_entropy",
    "entropy_report",
    "gaussian_entropy",
    "gaussian_tail_lower",
    "integrate",
    "lattice_sum",
    "lemma1_upper_bound",
    "lemma3_near_zero_term",
    "lemma4_far_term",
    "mc_entropy",
    "mixture_entropy",
    "rescale_to_unit_lattice",
    "reset_report",
    "sandwich_report",
    "tail_mass",
    "theorem1_upper_bound",
]
