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
paths, where the Gaussian degenerates; the stable-measure paths take
t >= SubordinationRule().t_min() = 4.8e-7, where their rule is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .hermite import GaussHermiteGrid, HermiteExpansion
from .timequad import EXP_ZERO, SubordinationRule

__all__ = [
    "ou_spectral",
    "ou_mehler",
    "ph_spectral",
    "ph_subordination",
    "ph_kernel",
    "time_derivative",
    "forward_difference",
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


def ph_subordination(f: HermiteExpansion, t: float, x) -> float:
    """P_t f(x) through the stable-measure average of T_s f(x).

    Computes sum_j m_j T_{s_j} f(x) over the discretized measure; at the
    first atom, which carries the folded far tail, every e^(-s n), n >= 1,
    is 0, so its value is mean(f), exactly.  T_s is evaluated spectrally,
    through the chaos values of f at x.  Oracle for ph_spectral.
    """
    s, masses = SubordinationRule().stable_measure(t)
    g = f.chaos_values(x)
    rates = np.outer(s, np.arange(g.size))
    # masking the rates r >= EXP_ZERO, where exp(-r) is +0.0, skips numpy's slow underflow path
    values = np.exp(-rates, out=np.zeros_like(rates), where=rates < EXP_ZERO) @ g
    return float(np.dot(masses, values))


def _mehler_density(s: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mehler kernel of T_s as a density in y (Lebesgue): (S, Y) for s of shape (S,) and points y (Y, d)."""
    d = x.size
    r = np.exp(-s)[:, None]
    one_m = -np.expm1(-2.0 * s)[:, None]  # 1 - e^(-2s), accurate for small s
    diff2 = np.sum((y[None, :, :] - r[:, :, None] * x) ** 2, axis=2)
    return np.exp(-diff2 / one_m) / (math.pi ** (d / 2.0) * one_m ** (d / 2.0))


def ph_kernel(t: float, x, y):
    """Poisson-Hermite kernel p(t, x, y) (density against Lebesgue dy).

    y is one point (a float is returned) or a (Y, d) array of points (a (Y,)
    array is returned).  Stable-measure average of Mehler densities.  This
    is the kernel's r-form integral over r in (0, 1) after the double-log
    substitution r = exp(-t^2 / 4u), u = e^v, which resolves both endpoint
    singularities: r -> 1 becomes the (double-exponentially damped) small-s
    end, r -> 0 the heavy s^(-3/2) tail, folded into the first atom: there
    e^(-s) is 0, so the Mehler density is the gamma_d density, bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    pts = y if y.ndim == 2 else np.atleast_1d(y)[None, :]
    if pts.shape[1] != x.size:
        raise ValueError("x and y must have the same dimension")
    s, masses = SubordinationRule().stable_measure(t)
    values = masses @ _mehler_density(s, x, pts)
    return values if y.ndim == 2 else float(values[0])


def forward_difference(g, s, k: int, t=0.0):
    """k-th order forward difference of g at t with increment s:

        sum_{j=0}^{k} C(k, j) (-1)^j g(t + (k-j) s)

    Works elementwise when g is vectorized and s (or t) is an array, and on
    any g whose values support scalar multiplication and addition.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = None
    for j in range(k + 1):
        term = math.comb(k, j) * (-1.0) ** j * g(t + (k - j) * s)
        total = term if total is None else total + term
    return total


def orbit_difference(f: HermiteExpansion, s: float, k: int, t: float = 0.0, n: int = 0) -> HermiteExpansion:
    """k-th forward difference, step s, of the Poisson orbit derivative u^(n).

    Equals sum_j C(k,j) (-1)^j u^(n)(., t + (k-j) s) (forward_difference of
    the orbit), computed as one multiplier on u^(n)(., t): the order-m
    coefficients pick up (e^(-s sqrt(m)) - 1)^k, an expm1 power, which keeps
    every digit at small s where the alternating sum cancels.
    """
    if s <= 0:
        raise ValueError("s must be > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    s, k = float(s), int(k)
    return time_derivative(f, t, n).apply_order_multiplier(lambda m: math.expm1(-s * math.sqrt(m)) ** k)
