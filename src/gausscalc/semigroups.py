"""Ornstein-Uhlenbeck and Poisson-Hermite semigroups.

The spectral forms are the canonical implementations: on a Hermite expansion
T_t multiplies the order-n coefficients by exp(-t n) and P_t by
exp(-t sqrt(n)), exactly.  The kernel / subordination forms below return
pointwise real values and exist as independent quadrature oracles for the
spectral path:

  * ou_mehler integrates f(sqrt(1-e^(-2t)) u + e^(-t) x) against gamma_d(du),
    the change-of-variable form of the Mehler kernel, on a Gauss-Hermite grid
    (exact for polynomial f).
  * ph_subordination averages T_s f(x) against the one-sided stable measure of
    order 1/2, realizing the square-root subordination of the two semigroups.
  * ph_kernel evaluates the Poisson-Hermite kernel p(t, x, y) itself, as the
    stable-measure average of Mehler kernel densities.

t = 0 is allowed in the spectral paths (identity) but rejected in the kernel
paths, where the Gaussian degenerates.
"""

from __future__ import annotations

import math

import numpy as np

from .hermite import GaussHermiteGrid, HermiteExpansion
from .timequad import SubordinationRule

__all__ = [
    "ou_spectral",
    "ou_mehler",
    "ph_spectral",
    "ph_subordination",
    "ph_kernel",
    "time_derivative",
    "orbit_difference",
]


def ou_spectral(f: HermiteExpansion, t: float) -> HermiteExpansion:
    """T_t f: order-n coefficients scaled by exp(-t n)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    t = float(t)
    return f.apply_order_multiplier(lambda n: math.exp(-t * n))


def ph_spectral(f: HermiteExpansion, t: float) -> HermiteExpansion:
    """P_t f: order-n coefficients scaled by exp(-t sqrt(n)), the k = 0 time derivative."""
    return time_derivative(f, t, 0)


def time_derivative(f: HermiteExpansion, t: float, k: int) -> HermiteExpansion:
    """k-th time derivative of the Poisson orbit, u^(k)(., t) = d^k/dt^k P_t f.

    Term-wise: multiplier (-sqrt(n))^k exp(-t sqrt(n)); the constant term dies
    for k >= 1.  t = 0 is fine on polynomial data.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    t, k = float(t), int(k)
    return f.apply_order_multiplier(lambda n: (-math.sqrt(n)) ** k * math.exp(-t * math.sqrt(n)))


def ou_mehler(f: HermiteExpansion, t: float, x, grid: GaussHermiteGrid) -> float:
    """T_t f(x) by quadrature of the change-of-variable Mehler form.

    Integrates f(c u + e^(-t) x) gamma_d(du) with c = sqrt(1 - e^(-2t)) over
    the supplied grid; exact for polynomial f once the grid degree suffices.
    Oracle for ou_spectral.
    """
    if t <= 0:
        raise ValueError("t must be > 0 (kernel degenerates at t = 0)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != f.dimension or grid.dimension != f.dimension:
        raise ValueError("dimension mismatch")
    c = math.sqrt(-math.expm1(-2.0 * t))
    pts = c * grid.nodes + math.exp(-t) * x
    return float(np.dot(grid.weights, f.evaluate_many(pts)))


def ph_subordination(
    f: HermiteExpansion,
    t: float,
    x,
    rule: SubordinationRule | None = None,
    grid: GaussHermiteGrid | None = None,
) -> float:
    """P_t f(x) through the stable-measure average of T_s f(x).

    Computes sum_j m_j T_{s_j} f(x) + tail * mean(f) over the discretized
    measure; the far tail (huge s) is exact because T_s f -> mean(f) there.
    T_s is evaluated spectrally by default; passing `grid` switches it to the
    Mehler quadrature so the whole path is kernel-based.  Oracle for
    ph_spectral.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    rule = rule or SubordinationRule()
    s, masses, tail = rule.stable_measure(t)
    if grid is not None:
        values = np.array([ou_mehler(f, sj, x, grid) for sj in s])
    else:
        g = f.chaos_values(x)
        orders = np.arange(g.size)
        values = np.exp(-np.outer(s, orders)) @ g
    return float(np.dot(masses, values) + tail * f.mean)


def _mehler_density(s: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mehler kernel of T_s as a density in y (Lebesgue), vectorized over s."""
    d = x.size
    r = np.exp(-s)
    one_m = -np.expm1(-2.0 * s)  # 1 - e^(-2s), accurate for small s
    diff2 = np.sum((y[None, :] - r[:, None] * x[None, :]) ** 2, axis=1)
    return np.exp(-diff2 / one_m) / (math.pi ** (d / 2.0) * one_m ** (d / 2.0))


def ph_kernel(t: float, x, y, rule: SubordinationRule | None = None) -> float:
    """Poisson-Hermite kernel p(t, x, y) (density against Lebesgue dy).

    Stable-measure average of Mehler densities.  This is the kernel's r-form
    integral over r in (0, 1) after the double-log substitution
    r = exp(-t^2 / 4u), u = e^v, which resolves both endpoint singularities:
    r -> 1 becomes the (double-exponentially damped) small-s end, r -> 0 the
    heavy s^(-3/2) tail.  The tail beyond the grid is added in closed form
    using that the Mehler density tends to the gamma_d density.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != y.size:
        raise ValueError("x and y must have the same dimension")
    rule = rule or SubordinationRule()
    s, masses, tail = rule.stable_measure(t)
    d = x.size
    limit_density = math.exp(-float(np.dot(y, y))) / math.pi ** (d / 2.0)
    return float(np.dot(masses, _mehler_density(s, x, y)) + tail * limit_density)


def orbit_difference(
    f: HermiteExpansion, s: float, k: int, t: float = 0.0, n: int = 0, damped: bool = False
) -> HermiteExpansion:
    """k-th forward difference, step s, of the Poisson orbit derivative u^(n).

    Returns sum_j C(k,j) (-1)^j u^(n)(., t + (k-j) s) as an expansion.  With
    damped=True the orbit is e^(-r) P_r f instead (n must be 0), which is the
    (e^(-s) P_s - I)^k combination behind the damped fractional derivative.
    """
    if s <= 0:
        raise ValueError("s must be > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if damped and n != 0:
        raise ValueError("damped orbit differences are only taken of the orbit itself")
    out = HermiteExpansion.zero(f.dimension)
    for j in range(k + 1):
        r = t + (k - j) * s
        term = time_derivative(f, r, n)
        if damped:
            term = math.exp(-r) * term
        out = out + (math.comb(k, j) * (-1.0) ** j) * term
    return out
