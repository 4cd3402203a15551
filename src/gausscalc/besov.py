"""Gaussian Besov-Lipschitz norms and the supporting inequality checkers.

For smoothness alpha >= 0, integrability p in [1, inf) and summability
q in [1, inf], with k the smallest integer greater than alpha, the norm is

    ||f||_p,gamma + ( int_0^inf (t^(k-alpha) ||d^k/dt^k P_t f||_p,gamma)^q dt/t )^(1/q)

and for q = inf the integral is replaced by A_k(f), the smallest constant A
with ||d^k/dt^k P_t f||_p,gamma <= A t^(alpha-k) for all t > 0.

On finite expansions the time derivative of the Poisson orbit is exact, so the
only approximations are the t-integral (log-trapezoid, window sized from the
endpoint exponents) and, for p not 2, the spatial norm.  The spatial norm uses
the coefficient norm at p = 2, exact polynomial quadrature at even integer p,
closed-form sign-split integration at odd integer p in dimension 1, and plain
Gauss-Hermite quadrature otherwise.  A norm curve over a time grid is one
batched evaluation per route: at odd p in dimension 1 the sign-split
integrals of all nodes are computed together (hermite._abs_moment_exact_1d),
with relative errors of about 1e-15 at p = 1 up to 1e-11 at p = 5 and
4e-10 at p = 7 in the worst cases found (see hermite.lp_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .hermite import (
    GaussHermiteGrid,
    HermiteExpansion,
    _abs_moment_exact_1d,
    basis_matrix,
    default_grid,
    lp_norm,
)
from .timequad import TimeQuadrature, log_time_rule

__all__ = [
    "BesovParams",
    "BesovResult",
    "KDecayReport",
    "smallest_k",
    "besov_params",
    "norm_curve",
    "besov_seminorm",
    "ak_constant",
    "besov_norm",
    "lip_alpha_norm",
    "hardy_check",
    "kdecay_report",
]

MAX_P = 8.0


def smallest_k(alpha: float) -> int:
    """Smallest integer strictly greater than alpha; smallest_k(1.0) == 2."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return math.floor(alpha) + 1


@dataclass(frozen=True)
class BesovParams:
    alpha: float
    p: float
    q: float  # math.inf marks the sup-based norm
    k: int

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1 (or inf)")
        if self.k <= self.alpha:
            raise ValueError(f"need k > alpha (k = {self.k}, alpha = {self.alpha})")


def besov_params(alpha: float, p: float, q: float, k: int | None = None) -> BesovParams:
    return BesovParams(float(alpha), float(p), float(q), smallest_k(alpha) if k is None else int(k))


@dataclass(frozen=True)
class BesovResult:
    lp_part: float
    seminorm: float | None
    ak: float | None
    total: float
    params: BesovParams

    def to_dict(self) -> dict:
        q = self.params.q
        return {
            "lp": self.lp_part,
            "semi": self.seminorm,
            "ak": self.ak,
            "total": self.total,
            "params": {
                "alpha": self.params.alpha,
                "p": self.params.p,
                "q": "inf" if math.isinf(q) else q,
                "k": self.params.k,
            },
        }


def _check_p(p: float):
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > MAX_P:
        raise ValueError(f"p = {p} beyond the supported range (p <= {MAX_P})")


def _orbit_table(items, k: int, ts) -> np.ndarray:
    """(S, T) coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)) of u^(k)(., t), one row per item."""
    orders = np.array([nu.order for nu, _ in items], dtype=float)
    base = np.array([c for _, c in items])
    roots = np.sqrt(orders)
    return (base * (-roots) ** k)[:, None] * np.exp(-np.outer(roots, ts))


def norm_curve(f: HermiteExpansion, k: int, p: float, ts, grid: GaussHermiteGrid | None = None) -> np.ndarray:
    """||u^(k)(., t)||_p,gamma for every t in ts, vectorized over the t-grid.

    The orbit derivative has coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)), so
    the whole curve is a table of exponentials applied to the basis values.
    At odd integer p in d = 1 the (T, degree+1) coefficient table goes to
    hermite._abs_moment_exact_1d in one call: sign-split closed-form
    integration for all nodes at once, each row scaled by a power of two so
    that large t (coefficients near e^(-t sqrt(n))) neither underflows nor
    returns NaN.  The other routes are the coefficient norm at p = 2 and
    quadrature on `grid` (or a default grid) otherwise.
    """
    _check_p(p)
    ts = np.asarray(ts, dtype=float)
    if not f.coeffs or (k >= 1 and f.degree == 0):
        return np.zeros(ts.shape)
    items = sorted(f.coeffs.items())
    coef_t = _orbit_table(items, k, ts)
    if p == 2:
        return np.sqrt(np.sum(coef_t**2, axis=0))
    p_int = int(round(p))
    if p == p_int and p_int % 2 == 1 and f.dimension == 1:
        rows = np.zeros((ts.size, f.degree + 1))
        rows[:, [nu[0] for nu, _ in items]] = coef_t.T
        m, e = _abs_moment_exact_1d(rows, p_int)
        return np.ldexp(m ** (1.0 / p_int), e)
    g = grid if grid is not None else default_grid(f)
    vals = basis_matrix([nu for nu, _ in items], g.nodes) @ coef_t  # (nodes, T)
    return (g.weights @ np.abs(vals) ** p) ** (1.0 / p)


def besov_seminorm(
    f: HermiteExpansion,
    params: BesovParams,
    tq: TimeQuadrature | None = None,
    grid: GaussHermiteGrid | None = None,
) -> float:
    """The q < inf seminorm: ( int (t^(k-a) ||u^(k)(., t)||_p)^q dt/t )^(1/q)."""
    if math.isinf(params.q):
        raise ValueError("use ak_constant for q = inf")
    k, a, q = params.k, params.alpha, params.q
    if not f.coeffs or f.degree == 0:
        return 0.0
    rule = tq or log_time_rule(head_exponent=(k - a) * q)
    t, w = rule.nodes_weights()
    curve = norm_curve(f, k, params.p, t, grid)
    integral = float(np.dot(w, (t ** (k - a) * curve) ** q / t))
    return integral ** (1.0 / q)


SUP_WINDOW = (math.log(1e-6), math.log(50.0))  # log-time window of every grid sup
DEFAULT_SUP_GRID = np.exp(np.linspace(*SUP_WINDOW, 200))


def _grid_sup(supremand, ts) -> float:
    """Max of a vectorized supremand over the grid ts, polished locally.

    The coarse argmax is refined on 19 log-spaced points between its two grid
    neighbours; the larger of the two maxima is returned.
    """
    vals = supremand(ts)
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    local = np.exp(np.linspace(math.log(lo), math.log(hi), 19))
    return float(max(vals.max(), supremand(local).max()))


def ak_constant(
    f: HermiteExpansion,
    alpha: float,
    p: float,
    k: int,
    tq: TimeQuadrature | None = None,
    grid: GaussHermiteGrid | None = None,
) -> float:
    """Smallest A with ||u^(k)(., t)||_p <= A t^(alpha-k): sup of t^(k-alpha) ||u^(k)||_p.

    Taken over a 200-point log grid (or the nodes of tq), then polished
    around the coarse argmax (_grid_sup).  For expansions the supremand is
    smooth and decays at both ends, so the grid sup is reliable.
    """
    if k <= alpha:
        raise ValueError("need k > alpha")
    if not f.coeffs or f.degree == 0:
        return 0.0
    ts = tq.nodes_weights()[0] if tq is not None else DEFAULT_SUP_GRID
    return _grid_sup(lambda t: t ** (k - alpha) * norm_curve(f, k, p, t, grid), ts)


def besov_norm(
    f: HermiteExpansion,
    params: BesovParams,
    tq: TimeQuadrature | None = None,
    grid: GaussHermiteGrid | None = None,
) -> BesovResult:
    """Full Besov-Lipschitz norm: L^p part plus seminorm (q < inf) or A_k (q = inf)."""
    lp_part = lp_norm(f, params.p, grid)
    if math.isinf(params.q):
        ak = ak_constant(f, params.alpha, params.p, params.k, tq, grid)
        return BesovResult(lp_part, None, ak, lp_part + ak, params)
    semi = besov_seminorm(f, params, tq, grid)
    return BesovResult(lp_part, semi, None, lp_part + semi, params)


def lip_alpha_norm(f: HermiteExpansion, alpha: float, box_half_width: float = 6.0, points_per_axis: int = 241):
    """Lipschitz-type norm: the (p, q) = (inf, inf) analogue on a compact box.

    True essential suprema over R^d are meaningless for polynomials, which are
    unbounded; this alias replaces them by suprema over [-R, R]^d and is meant
    for bounded test functions only.  Returns (sup_part, ak_part, total).
    """
    k = smallest_k(alpha)
    axes = [np.linspace(-box_half_width, box_half_width, points_per_axis)] * f.dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    sup_part = float(np.max(np.abs(f.evaluate_many(pts))))
    items = sorted(f.coeffs.items())
    if not items or f.degree == 0:
        return sup_part, 0.0, sup_part
    phi = basis_matrix([nu for nu, _ in items], pts)

    def supremand(ts):
        sup_x = np.max(np.abs(phi @ _orbit_table(items, k, ts)), axis=0)
        return ts ** (k - alpha) * sup_x

    ak = _grid_sup(supremand, DEFAULT_SUP_GRID)
    return sup_part, ak, sup_part + ak


# -- weighted averaging inequalities ----------------------------------------------


def _log_slope(y0, y1, f0, f1):
    if f0 <= 0.0 or f1 <= 0.0:
        return math.inf  # vanishing samples: treat as arbitrarily fast decay/vanish
    return math.log(f1 / f0) / math.log(y1 / y0)


def hardy_check(f, p: float, r: float, kind: str, rule: TimeQuadrature | None = None):
    """Evaluate both sides of the weighted head/tail averaging inequality.

    kind "head":  int_0^inf ( int_0^x f )^p x^(-r-1) dx  <=  (p/r)^p int (y f(y))^p y^(-r-1) dy
    kind "tail":  int_0^inf ( int_x^inf f )^p x^(r-1) dx  <=  (p/r)^p int (y f(y))^p y^(r-1) dy

    The constant belongs on the norms -- lhs^(1/p) <= (p/r) rhs_integral^(1/p)
    -- hence (p/r)^p between the p-th-power integrals; a flat p/r there is
    falsified numerically (e.g. y^2 e^-y/(1+y), p = 2, r = 1/2 exceeds it by
    0.34%).  f must be a nonnegative vectorized function on (0, inf).  Returns
    (lhs, rhs); a side whose endpoint behavior is non-integrable is reported
    as math.inf.  At p = 1 the head inequality is an exact interchange of the
    two integrals, so lhs = rhs up to quadrature error.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if r <= 0:
        raise ValueError("r must be > 0")
    if kind not in ("head", "tail"):
        raise ValueError("kind must be 'head' or 'tail'")
    rule = rule or TimeQuadrature("log_uniform", -40.0, 12.0, 5201)
    y, wy = rule.nodes_weights()
    fv = np.asarray(f(y), dtype=float)
    if np.min(fv) < -1e-12:
        raise ValueError("f must be nonnegative")
    fv = np.maximum(fv, 0.0)
    m0 = _log_slope(y[0], y[1], fv[0], fv[1])
    m_inf = -_log_slope(y[-2], y[-1], fv[-2], fv[-1])  # f ~ y^(-m_inf) at infinity

    # cumulative integrals of f along the log grid (Simpson: the trapezoid's
    # O(h^2) endpoint bias on exponential integrands is visible at 1e-6)
    inner = fv * y  # integrand of int f dy in the log variable
    v = np.log(y)
    head_piece = 0.0 if math.isinf(m0) else fv[0] * y[0] / (m0 + 1.0)
    F = head_piece + cumulative_simpson(inner, x=v, initial=0.0)
    G = cumulative_simpson(inner[::-1], x=-v[::-1], initial=0.0)[::-1]

    if kind == "head":
        lhs_exp = p * (m0 + 1.0) - r  # local exponent of the lhs integrand at 0
        if (not math.isinf(m0)) and lhs_exp <= 1e-9:
            return math.inf, math.inf
        if (not math.isinf(m_inf)) and p * (1.0 - m_inf) - r >= -1e-9:
            return math.inf, math.inf  # f decays too slowly: both tails blow up
        lhs = float(np.dot(wy, F**p * y ** (-r - 1.0)))
        # the lhs integrand decays only like x^(-r-1) once the inner integral
        # saturates, so the truncated tail must be added in closed form
        lhs += F[-1] ** p * y[-1] ** (-r) / r
        rhs = (p / r) ** p * float(np.dot(wy, (y * fv) ** p * y ** (-r - 1.0)))
        return lhs, rhs
    if (not math.isinf(m_inf)) and p * (1.0 - m_inf) + r >= -1e-9:
        return math.inf, math.inf  # both sides share the heavy-tail exponent
    lhs = float(np.dot(wy, G**p * y ** (r - 1.0)))
    lhs += G[0] ** p * y[0] ** r / r  # same saturation effect at the x -> 0 end
    rhs = (p / r) ** p * float(np.dot(wy, (y * fv) ** p * y ** (r - 1.0)))
    return lhs, rhs


@dataclass(frozen=True)
class KDecayReport:
    ts: np.ndarray
    values: np.ndarray
    non_increasing: bool
    fitted_c: float

    def rows(self):
        return list(zip(self.ts.tolist(), self.values.tolist()))


def decay_grid(points: int = 60) -> np.ndarray:
    """points log-spaced times in [0.05, 20], the default grid of kdecay_report."""
    return np.exp(np.linspace(math.log(0.05), math.log(20.0), points))


def kdecay_report(
    f: HermiteExpansion, p: float, k: int, ts=None, grid: GaussHermiteGrid | None = None
) -> KDecayReport:
    """Decay table for t -> ||u^(k)(., t)||_p with the monotonicity verdict.

    Also fits the smallest C with t^k ||u^(k)(., t)||_p <= C ||f||_p on the
    grid (the k-th derivative decay rate of the Poisson orbit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ts = np.asarray(ts, dtype=float) if ts is not None else decay_grid()
    values = norm_curve(f, k, p, ts, grid)
    non_increasing = bool(np.all(np.diff(values) <= 1e-12 * values[:-1] + 1e-300))
    fnorm = lp_norm(f, p, grid)
    fitted_c = float(np.max(ts**k * values) / fnorm) if fnorm > 0 else 0.0
    return KDecayReport(ts, values, non_increasing, fitted_c)
