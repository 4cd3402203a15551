"""Numerical Gaussian harmonic analysis on finite Hermite expansions.

Hermite basis and quadrature for the Gaussian probability measure, the
Ornstein-Uhlenbeck and Poisson-Hermite semigroups (exact spectral forms plus
independent kernel/subordination oracles), Riesz and Bessel fractional
potentials and derivatives in spectral and singular-integral form, Gaussian
Besov-Lipschitz norms, and an experiment harness that checks every identity
and boundedness property on seeded polynomial families.
"""

from .besov import (
    BesovParams,
    BesovResult,
    KDecayReport,
    ak_constant,
    besov_norm,
    besov_params,
    besov_seminorm,
    hardy_check,
    kdecay_report,
    norm_curve,
    smallest_k,
)
from .fractional import (
    bessel_derivative,
    bessel_derivative_integral,
    bessel_potential,
    bessel_potential_integral,
    c_beta,
    c_beta_k,
    riesz_derivative,
    riesz_derivative_integral,
    riesz_potential,
    riesz_potential_integral,
)
from .harness import (
    ExperimentConfig,
    TheoremReport,
    emit_report,
    gen_family,
    list_experiments,
    run_experiment,
    verify_all,
)
from .hermite import (
    GaussHermiteGrid,
    HermiteExpansion,
    MultiIndex,
    basis_matrix,
    chaos_project,
    default_grid,
    gauss_hermite_grid,
    hermite_values_1d,
    inner_product_gamma,
    l2_norm_coeffs,
    lp_norm,
    lp_norm_gamma,
    pi0,
)
from .semigroups import (
    forward_difference,
    orbit_difference,
    ou_mehler,
    ou_spectral,
    ph_kernel,
    ph_spectral,
    ph_subordination,
    time_derivative,
)
from .timequad import SubordinationRule, TimeQuadrature, log_time_rule

__version__ = "0.1.0"
