"""Gaussian fractional calculus: Riesz/Bessel potentials and derivatives.

Spectral definitions (exact on Hermite expansions), acting on the chaos order
n = |nu|:

    riesz potential      n^(-beta/2)        (constants map to 0)
    bessel potential     (1 + sqrt(n))^(-beta)
    riesz derivative     n^(beta/2)         (constants map to 0)
    bessel derivative    (1 + sqrt(n))^beta

Each also has an integral representation through the Poisson orbit
u(., t) = P_t f, which this module evaluates by quadrature as the
independent oracle for the spectral path.  Because every operator is diagonal,
the integral paths act per coefficient on the scalar multiplier integrals --
identical mathematics, with no spatial quadrature error mixed in -- and each
scalar integral is exact to rounding (timequad.end_summed_integral).

For orders beta >= 1 the derivative representations use the k-th power
(P_t - I)^k with k the smallest integer strictly greater than beta, whose
order-n multiplier (e^(-t sqrt(n)) - 1)^k is computed as an expm1 power.
The integral forms and c^k_beta take 0 < beta <= BETA_MAX.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .besov import smallest_k
from .hermite import HermiteExpansion, pi0
from .timequad import end_summed_integral

__all__ = [
    "c_beta",
    "c_beta_k",
    "riesz_potential",
    "riesz_potential_integral",
    "bessel_potential",
    "bessel_potential_integral",
    "riesz_derivative",
    "riesz_derivative_integral",
    "bessel_derivative",
    "bessel_derivative_integral",
]

# Up to here every integral form matches its closed form to 1e-13 (6.4e-15 at
# worst on a 0.05 grid of beta, orders up to 100).  Past it the potentials'
# rule aliases, x^beta e^(-x) being ever more peaked in log x: 3.2e-13 off at
# beta = 60 and 1.6e-8 at 100.
BETA_MAX = 50.0


def _derivative_integral(beta: float, k: int, root: float) -> float:
    """int_0^inf t^(-beta-1) (e^(-t root) - 1)^k dt, for k > beta > 0 and root > 0.

    In dt/t form, (t^(-beta/k) expm1(-t root))^k: a power t^(k-beta) at 0 and
    t^(-beta) at inf, with the power taken last so that nothing overflows.
    """
    return end_summed_integral(lambda t: (t ** (-beta / k) * np.expm1(-t * root)) ** k, root, k - beta, beta)


@lru_cache(maxsize=None)
def c_beta_k(beta: float, k: int) -> float:
    """c^k_beta = int_0^inf u^(-beta-1) (e^(-u) - 1)^k du, for k > beta > 0.

    The derivative integral at root 1 (_derivative_integral), cached per
    (beta, k); the integrand sign makes sign(c^k_beta) = (-1)^k.
    """
    _check_beta(beta, BETA_MAX)
    if k <= beta:
        raise ValueError(f"need k > beta (k = {k}, beta = {beta}); the integral diverges otherwise")
    return _derivative_integral(beta, k, 1.0)


def c_beta(beta: float) -> float:
    """c_beta for 0 < beta < 1 (equals Gamma(-beta), which tests cross-check)."""
    if not 0 < beta < 1:
        raise ValueError("c_beta is defined for 0 < beta < 1")
    return c_beta_k(beta, 1)


# -- spectral forms ---------------------------------------------------------------


def _check_beta(beta: float, limit: float = math.inf) -> float:
    """beta as a float, if 0 < beta <= limit (BETA_MAX for the integral forms)."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if beta > limit:
        raise ValueError(f"beta must be <= {limit:g} in the integral forms, got beta = {beta:g}")
    return float(beta)


def _spectral(f: HermiteExpansion, beta: float, multiplier) -> HermiteExpansion:
    """f with each order n scaled by multiplier(n); a multiplier past the float range is a ValueError."""
    try:
        return f.apply_order_multiplier(multiplier)
    except OverflowError:
        raise ValueError(f"beta = {beta:g} takes a spectral multiplier of f past the float range") from None


def riesz_potential(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    beta = _check_beta(beta)
    return _spectral(f, beta, lambda n: 0.0 if n == 0 else n ** (-beta / 2.0))


def bessel_potential(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    beta = _check_beta(beta)
    return _spectral(f, beta, lambda n: (1.0 + math.sqrt(n)) ** (-beta))


def riesz_derivative(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    beta = _check_beta(beta)
    return _spectral(f, beta, lambda n: 0.0 if n == 0 else n ** (beta / 2.0))


def bessel_derivative(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    beta = _check_beta(beta)
    return _spectral(f, beta, lambda n: (1.0 + math.sqrt(n)) ** beta)


# -- integral representations ------------------------------------------------------


@lru_cache(maxsize=1024)
def _order_multiplier(derivative: bool, damping: float, beta: float, n: int) -> float:
    """The order-n multiplier of an integral form, memoized per (form, beta, n).

    The orbit of order n is e^(-t root), root = damping + sqrt(n): damping
    is 0 for the Poisson orbit (Riesz) and 1 for the damped one (Bessel).  A
    potential is int_0^inf t^beta e^(-t root) dt/t / Gamma(beta), with head
    exponent beta and no tail (end_summed_integral); a derivative is
    _derivative_integral(beta, k, root) / c^k_beta, k = smallest_k(beta),
    exactly 1 at root = 1.  Family members share their orders, so the
    oracles experiment asks for each value many times.
    """
    root = damping + math.sqrt(n)
    if not derivative:
        integral = end_summed_integral(lambda t: t**beta * np.exp(-t * root), root, beta)
        return integral / math.gamma(beta)
    k = smallest_k(beta)
    return _derivative_integral(beta, k, root) / c_beta_k(beta, k)


def riesz_potential_integral(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    """Riesz potential via (1/Gamma(beta)) int_0^inf t^(beta-1) (P_t f - P_inf f) dt.

    P_inf f is the mean, so the constant part of f maps to 0 and the order-n
    part picks up the scalar integral of t^(beta-1) exp(-t sqrt(n)).  Oracle
    for riesz_potential.
    """
    _check_beta(beta, BETA_MAX)
    return pi0(f).apply_order_multiplier(lambda n: _order_multiplier(False, 0.0, beta, n))


def bessel_potential_integral(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    """Bessel potential via (1/Gamma(beta)) int_0^inf t^beta e^(-t) P_t f dt/t."""
    _check_beta(beta, BETA_MAX)
    return f.apply_order_multiplier(lambda n: _order_multiplier(False, 1.0, beta, n))


def riesz_derivative_integral(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    """Riesz derivative via (1/c^k_beta) int t^(-beta-1) (P_t - I)^k f dt, k smallest integer > beta.

    (P_t - I)^k acts per order: the order-n integrand is
    t^(-beta-1) (e^(-t sqrt(n)) - 1)^k, integrable near 0 since k > beta.
    """
    _check_beta(beta, BETA_MAX)
    return pi0(f).apply_order_multiplier(lambda n: _order_multiplier(True, 0.0, beta, n))


def bessel_derivative_integral(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    """Bessel derivative via (1/c^k_beta) int t^(-beta-1) (e^(-t) P_t - I)^k f dt.

    The damped orbit makes the order-n integrand t^(-beta-1)
    (e^(-t(1+sqrt(n))) - 1)^k; the constant part now moves too (its damped
    orbit is e^(-t)), giving multiplier 1 at n = 0 as it should.
    """
    _check_beta(beta, BETA_MAX)
    return f.apply_order_multiplier(lambda n: _order_multiplier(True, 1.0, beta, n))
