"""Gaussian fractional calculus: Riesz/Bessel potentials and derivatives.

Spectral definitions (exact on Hermite expansions), acting on the chaos order
n = |nu|:

    riesz potential      n^(-beta/2)        (constants map to 0)
    bessel potential     (1 + sqrt(n))^(-beta)
    riesz derivative     n^(beta/2)         (constants map to 0)
    bessel derivative    (1 + sqrt(n))^beta

Each also has an integral representation through the Poisson orbit
u(., t) = P_t f, which this module evaluates by honest quadrature as the
independent oracle for the spectral path.  Because every operator is diagonal,
the integral paths act per coefficient on the scalar multiplier integrals --
identical mathematics, with no spatial quadrature error mixed in.

For orders beta >= 1 the derivative representations use the k-th power
(P_t - I)^k with k the smallest integer strictly greater than beta, expanded
as a k-th forward difference of the orbit.  The difference sum is swapped for
an expm1 power once t is small enough that the alternating sum would lose all
its significant digits; both branches are the same analytic function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn

from .besov import smallest_k
from .hermite import HermiteExpansion, pi0
from .timequad import DEFAULT_STEP, TimeQuadrature, log_time_rule

__all__ = [
    "DerivativeConstants",
    "TruncationWarning",
    "c_beta",
    "c_beta_k",
    "derivative_constants",
    "riesz_potential",
    "riesz_potential_integral",
    "bessel_potential",
    "bessel_potential_integral",
    "riesz_derivative",
    "riesz_derivative_integral",
    "bessel_derivative",
    "bessel_derivative_integral",
    "forward_difference",
]

TRUNCATION_TOL = 1e-8


class TruncationWarning(UserWarning):
    """A supplied time rule truncates more than the accepted tolerance."""


def _capped_rule(head: float, tail: float | None, blowup: float) -> tuple[TimeQuadrature, float]:
    """Default rule for an integrand ~ lead t^(head-1) at 0 with a factor t^(-blowup).

    log_time_rule puts v_min near log(HEAD_TOL)/head, so a small head exponent
    sends e^v_min towards 0 and t^(-blowup) overflows there.  The window then
    starts at v_min = -700/blowup instead, and cut = e^v_min is returned so
    that the caller adds the dropped head, lead cut^head / head, in closed
    form (relative error of order cut).  cut is 0.0 when the cap does not
    bind, and the rule is then log_time_rule's own.
    """
    rule = log_time_rule(head_exponent=head, tail_exponent=tail)
    v_cap = -700.0 / blowup if blowup > 0 else -math.inf
    if rule.v_min >= v_cap:
        return rule, 0.0
    n = int(math.ceil((rule.v_max - v_cap) / DEFAULT_STEP)) + 1
    return TimeQuadrature("log_uniform", v_cap, rule.v_max, n), math.exp(v_cap)


@lru_cache(maxsize=None)
def c_beta_k(beta: float, k: int) -> float:
    """c^k_beta = int_0^inf u^(-beta-1) (e^(-u) - 1)^k du, for k > beta > 0.

    Head behaves like (-1)^k u^(k-beta-1), tail like (-1)^k u^(-beta-1); the
    rule window is sized for both (_capped_rule), and a head the window has to
    drop is added in closed form.  Values are cached per (beta, k); the
    integrand sign makes sign(c^k_beta) = (-1)^k.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if k <= beta:
        raise ValueError(f"need k > beta (k = {k}, beta = {beta}); the integral diverges otherwise")
    rule, cut = _capped_rule(k - beta, beta, beta + 1.0)
    u, w = rule.nodes_weights()
    head = (-1.0) ** k * cut ** (k - beta) / (k - beta)  # the dropped head; 0 unless capped
    return float(np.dot(w, u ** (-beta - 1.0) * np.expm1(-u) ** k)) + head


def c_beta(beta: float) -> float:
    """c_beta for 0 < beta < 1 (equals Gamma(-beta), which tests cross-check)."""
    if not 0 < beta < 1:
        raise ValueError("c_beta is defined for 0 < beta < 1")
    return c_beta_k(beta, 1)


@dataclass(frozen=True)
class DerivativeConstants:
    beta: float
    k: int
    c_beta: float | None  # only for 0 < beta < 1
    c_beta_k: float


def derivative_constants(beta: float) -> DerivativeConstants:
    _check_beta(beta)
    beta = float(beta)
    k = smallest_k(beta)
    return DerivativeConstants(
        beta=beta,
        k=k,
        c_beta=c_beta(beta) if beta < 1 else None,
        c_beta_k=c_beta_k(beta, k),
    )


# -- spectral forms ---------------------------------------------------------------


def _check_beta(beta: float):
    if beta <= 0:
        raise ValueError("beta must be > 0")


def riesz_potential(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    _check_beta(beta)
    beta = float(beta)
    return f.apply_order_multiplier(lambda n: 0.0 if n == 0 else n ** (-beta / 2.0))


def bessel_potential(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    _check_beta(beta)
    beta = float(beta)
    return f.apply_order_multiplier(lambda n: (1.0 + math.sqrt(n)) ** (-beta))


def riesz_derivative(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    _check_beta(beta)
    beta = float(beta)
    return f.apply_order_multiplier(lambda n: 0.0 if n == 0 else n ** (beta / 2.0))


def bessel_derivative(f: HermiteExpansion, beta: float) -> HermiteExpansion:
    _check_beta(beta)
    beta = float(beta)
    return f.apply_order_multiplier(lambda n: (1.0 + math.sqrt(n)) ** beta)


# -- forward differences --------------------------------------------------------


def forward_difference(g, s, k: int, t=0.0):
    """k-th order forward difference of g at t with increment s:

        sum_{j=0}^{k} C(k, j) (-1)^j g(t + (k-j) s)

    Works elementwise when g is vectorized and s (or t) is an array.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = None
    for j in range(k + 1):
        term = math.comb(k, j) * (-1.0) ** j * g(t + (k - j) * s)
        total = term if total is None else total + term
    return total


def _orbit_difference_factor(z, k: int):
    """(e^(-z) - 1)^k via the forward-difference sum of the orbit e^(-z s).

    Below z ~ (1e-5)^(1/k) the alternating sum cancels to rounding noise, so
    the expm1 power (the same function) takes over.
    """
    z = np.asarray(z, dtype=float)
    summed = forward_difference(lambda s: np.exp(-z * s), 1.0, k)
    stable = np.expm1(-z) ** k
    return np.where(z >= 1e-5 ** (1.0 / k), summed, stable)


# -- integral representations ------------------------------------------------------


def _warn_if_truncated(label: str, head_est: float, tail_est: float):
    est = abs(head_est) + abs(tail_est)
    if est > TRUNCATION_TOL:
        warnings.warn(
            f"{label}: estimated truncation error {est:.2e} exceeds {TRUNCATION_TOL:.0e} "
            "(head+tail of the supplied time rule); widen the rule window",
            TruncationWarning,
            stacklevel=4,  # the caller of the public *_integral function
        )


def _multiplier_integral(label, f, tq, const, integrand, head, lead, blowup, tail=None, tail_est=None):
    """f with each order-n coefficient scaled by int_0^inf integrand(t, n) dt / const.

    The integrand behaves like lead(n) t^(head-1) at 0, through a factor
    t^(-blowup).  A positive `tail` marks an algebraic tail t^(-tail-1);
    otherwise the integrand decays exponentially and tail_est(T) estimates
    its mass beyond T.  The default rule is sized from these exponents
    (_capped_rule; a head it has to drop is added in closed form), and a
    supplied rule that truncates more than TRUNCATION_TOL triggers a
    TruncationWarning.
    """
    rule, cut = (tq, 0.0) if tq else _capped_rule(head, tail, blowup)
    t, w = rule.nodes_weights()
    eps, big = math.exp(rule.v_min), math.exp(rule.v_max)
    tail_mass = big ** (-tail) / (tail * abs(const)) if tail else tail_est(big)
    _warn_if_truncated(label, 0.0 if cut else eps**head / (head * abs(const)), tail_mass)
    dropped = cut**head / head
    mults = {n: (float(np.dot(w, integrand(t, n))) + lead(n) * dropped) / const for n in f.orders()}
    return f.apply_order_multiplier(lambda n: mults[n])


def riesz_potential_integral(
    f: HermiteExpansion, beta: float, tq: TimeQuadrature | None = None
) -> HermiteExpansion:
    """Riesz potential via (1/Gamma(beta)) int_0^inf t^(beta-1) (P_t f - P_inf f) dt.

    P_inf f is the mean, so the constant part of f maps to 0 and the order-n
    part picks up the scalar integral of t^(beta-1) exp(-t sqrt(n)).  Oracle
    for riesz_potential.
    """
    _check_beta(beta)
    gb = gamma_fn(beta)
    return _multiplier_integral(
        "riesz_potential_integral", pi0(f), tq, gb,
        lambda t, n: t ** (beta - 1.0) * np.exp(-t * math.sqrt(n)),
        head=beta, lead=lambda n: 1.0, blowup=1.0 - beta,
        tail_est=lambda big: big ** (beta - 1.0) * math.exp(-big) / gb,
    )


def bessel_potential_integral(
    f: HermiteExpansion, beta: float, tq: TimeQuadrature | None = None
) -> HermiteExpansion:
    """Bessel potential via (1/Gamma(beta)) int_0^inf t^beta e^(-t) P_t f dt/t."""
    _check_beta(beta)
    gb = gamma_fn(beta)
    return _multiplier_integral(
        "bessel_potential_integral", f, tq, gb,
        lambda t, n: t ** (beta - 1.0) * np.exp(-t * (1.0 + math.sqrt(n))),
        head=beta, lead=lambda n: 1.0, blowup=1.0 - beta,
        tail_est=lambda big: big ** (beta - 1.0) * math.exp(-big) / gb,
    )


def riesz_derivative_integral(
    f: HermiteExpansion, beta: float, tq: TimeQuadrature | None = None, form: str = "kdiff"
) -> HermiteExpansion:
    """Riesz derivative by quadrature of its singular-integral representations.

    form "kdiff" (default, any beta > 0):
        (1/c^k_beta) int t^(-beta-1) (P_t - I)^k f dt,  k smallest integer > beta,
    with (P_t - I)^k expanded as the k-th forward difference of the orbit; the
    order-n integrand is t^(-beta-1) (e^(-t sqrt(n)) - 1)^k, integrable near 0
    since k > beta.

    form "parts" (0 < beta < 1 only):
        (1/(beta c_beta)) int t^(-beta) d/dt P_t f dt,
    the integration-by-parts variant; stated for twice-differentiable bounded
    functions, it holds per chaos order and is verified there.
    """
    _check_beta(beta)
    if form == "parts":
        if beta >= 1:
            raise ValueError("the integration-by-parts form needs 0 < beta < 1")
        return _multiplier_integral(
            "riesz_derivative_integral(parts)", f, tq, beta * c_beta(beta),
            lambda t, n: t**(-beta) * (-math.sqrt(n)) * np.exp(-t * math.sqrt(n)),
            head=1.0 - beta, lead=lambda n: -math.sqrt(n), blowup=beta, tail_est=lambda big: 0.0,
        )
    if form != "kdiff":
        raise ValueError(f"unknown form {form!r}")
    k = smallest_k(beta)
    return _multiplier_integral(
        "riesz_derivative_integral", pi0(f), tq, c_beta_k(beta, k),
        lambda t, n: t ** (-beta - 1.0) * _orbit_difference_factor(t * math.sqrt(n), k),
        head=k - beta, lead=lambda n: (-math.sqrt(n)) ** k, blowup=beta + 1.0, tail=beta,
    )


def bessel_derivative_integral(
    f: HermiteExpansion, beta: float, tq: TimeQuadrature | None = None
) -> HermiteExpansion:
    """Bessel derivative via (1/c^k_beta) int t^(-beta-1) (e^(-t) P_t - I)^k f dt.

    The damped orbit makes the order-n integrand t^(-beta-1)
    (e^(-t(1+sqrt(n))) - 1)^k; the constant part now moves too (its damped
    orbit is e^(-t)), giving multiplier 1 at n = 0 as it should.
    """
    _check_beta(beta)
    k = smallest_k(beta)
    return _multiplier_integral(
        "bessel_derivative_integral", f, tq, c_beta_k(beta, k),
        lambda t, n: t ** (-beta - 1.0) * _orbit_difference_factor(t * (1.0 + math.sqrt(n)), k),
        head=k - beta, lead=lambda n: (-1.0 - math.sqrt(n)) ** k, blowup=beta + 1.0, tail=beta,
    )
