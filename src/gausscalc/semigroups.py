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

Both oracles and their spectral sides are batched over samples (f, t, x) on
one basis table (the _rows functions, the latter with the multipliers of
ou_spectral and ph_spectral); ou_mehler and ph_subordination are the
one-sample calls, with the same bits.

t = 0 is allowed in the spectral paths (identity) but rejected in the kernel
paths, where the Gaussian degenerates; the stable-measure paths take
t >= SubordinationRule().t_min() = 4.8e-7, where their rule is exact.  Every
time and step must be finite, and every order k an integer.
"""

from __future__ import annotations

import math

import numpy as np

from .hermite import GaussHermiteGrid, HermiteExpansion, _chaos_rows, _evaluate_rows
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


def _time(t, name: str = "t", positive: bool = False) -> float:
    """t as a float: finite and >= 0, or > 0 if positive (NaN is refused too)."""
    if not (0 < t < math.inf if positive else 0 <= t < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {name} = {t}")
    return float(t)


def _order(k, least: int = 0) -> int:
    """k as an int: an integer >= least (2.0 is refused, as by norm_curve)."""
    if not (isinstance(k, (int, np.integer)) and k >= least):
        raise ValueError(f"k must be an integer >= {least}, got k = {k!r}")
    return int(k)


def _ou_multiplier(t: float):
    """The order-n factor exp(-t n) of T_t."""
    t = _time(t)
    return lambda n: math.exp(-t * n)


def _orbit_multiplier(t: float, k: int = 0):
    """The order-n factor (-sqrt(n))^k exp(-t sqrt(n)) of d^k/dt^k P_t."""
    t, k = _time(t), _order(k)
    return lambda n: (-math.sqrt(n)) ** k * math.exp(-t * math.sqrt(n))


def ou_spectral(f: HermiteExpansion, t: float) -> HermiteExpansion:
    """T_t f: order-n coefficients scaled by exp(-t n)."""
    return f.apply_order_multiplier(_ou_multiplier(t))


def ph_spectral(f: HermiteExpansion, t: float) -> HermiteExpansion:
    """P_t f: order-n coefficients scaled by exp(-t sqrt(n)), the k = 0 time derivative."""
    return time_derivative(f, t, 0)


def time_derivative(f: HermiteExpansion, t: float, k: int) -> HermiteExpansion:
    """k-th time derivative of the Poisson orbit, u^(k)(., t) = d^k/dt^k P_t f.

    Term-wise: multiplier (-sqrt(n))^k exp(-t sqrt(n)); the constant term dies
    for k >= 1.  t = 0 is fine on polynomial data.  A multiplier past the
    float range is a ValueError.
    """
    try:
        return f.apply_order_multiplier(_orbit_multiplier(t, k))
    except OverflowError:
        raise ValueError(f"k = {k}, t = {t:g} take an orbit multiplier of f past the float range") from None


def _points(fs, xs) -> np.ndarray:
    """xs as a (K, d) array, one point per expansion of fs; ValueError unless each has its expansion's d."""
    xs = np.asarray(xs, dtype=float).reshape(len(fs), -1)
    for f in fs:
        if f.dimension != xs.shape[1]:
            raise ValueError(f"point has dimension {xs.shape[1]}, expansion has {f.dimension}")
    return xs


def _spectral_rows(fs, multipliers, xs) -> np.ndarray:
    """f.apply_order_multiplier(m)(x) for each sample (f, m, x), without building the expansions."""
    terms = [{nu: c * m(nu.order) for nu, c in f.coeffs.items()} for f, m in zip(fs, multipliers)]
    return _evaluate_rows(terms, _points(fs, xs)[:, None, :])[:, 0]


def ou_mehler(f: HermiteExpansion, t: float, x, grid: GaussHermiteGrid) -> float:
    """T_t f(x) by quadrature of the change-of-variable Mehler form.

    Integrates f(c u + e^(-t) x) gamma_d(du) with c = sqrt(1 - e^(-2t)) over
    the supplied grid; exact for polynomial f once the grid degree suffices.
    Oracle for ou_spectral; the one-sample call of _ou_mehler_rows.
    """
    return float(_ou_mehler_rows([f], [t], [x], grid)[0])


def _ou_mehler_rows(fs, ts, xs, grid: GaussHermiteGrid) -> np.ndarray:
    """ou_mehler for each sample (f, t, x): all their quadrature points in one evaluation, one weights dot each."""
    xs = _points(fs, xs)
    if grid.dimension != xs.shape[1]:
        raise ValueError(f"grid has dimension {grid.dimension}, points have {xs.shape[1]}")
    pts = np.empty((len(fs),) + grid.nodes.shape)
    for k, t in enumerate(ts):
        t = _time(t, positive=True)  # the kernel degenerates at t = 0
        pts[k] = math.sqrt(-math.expm1(-2.0 * t)) * grid.nodes + math.exp(-t) * xs[k]
    values = _evaluate_rows([f.coeffs for f in fs], pts)
    return np.array(list(map(grid.weights.dot, values)))


def ph_subordination(f: HermiteExpansion, t: float, x) -> float:
    """P_t f(x) through the stable-measure average of T_s f(x).

    Computes sum_j m_j T_{s_j} f(x) over the discretized measure; at the
    first atom, which carries the folded far tail, every e^(-s n), n >= 1,
    is 0, so its value is mean(f), exactly.  T_s is evaluated spectrally,
    through the chaos values of f at x.  Oracle for ph_spectral; the
    one-sample call of _ph_subordination_rows.
    """
    return float(_ph_subordination_rows([f], [t], [x])[0])


def _ph_subordination_rows(fs, ts, xs) -> np.ndarray:
    """ph_subordination for each sample (f, t, x): all their chaos values at once, a stable-measure sum each."""
    chaos = _chaos_rows(fs, _points(fs, xs))
    out = np.empty(len(fs))
    for k, (f, t) in enumerate(zip(fs, ts)):
        s, masses = SubordinationRule().stable_measure(t)
        g = chaos[k, : f.degree + 1]
        rates = np.outer(s, np.arange(g.size))
        # masking the rates r >= EXP_ZERO, where exp(-r) is +0.0, skips numpy's slow underflow path
        values = np.exp(-rates, out=np.zeros_like(rates), where=rates < EXP_ZERO) @ g
        out[k] = np.dot(masses, values)
    return out


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
    any g whose values support scalar multiplication and addition.  A scalar
    s or t must be finite.
    """
    k = _order(k, 1)
    for name, v in (("s", s), ("t", t)):
        if np.ndim(v) == 0 and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {name} = {v}")
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
    s, k = _time(s, "s", positive=True), _order(k, 1)
    return time_derivative(f, t, n).apply_order_multiplier(lambda m: math.expm1(-s * math.sqrt(m)) ** k)
