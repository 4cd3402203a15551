"""Gaussian Besov-Lipschitz norms and the supporting inequality checkers.

For smoothness alpha >= 0, integrability p in [1, inf) and summability
q in [1, inf], with k the smallest integer greater than alpha, the norm is

    ||f||_p,gamma + ( int_0^inf (t^(k-alpha) ||d^k/dt^k P_t f||_p,gamma)^q dt/t )^(1/q)

and for q = inf the integral is replaced by A_k(f), the smallest constant A
with ||d^k/dt^k P_t f||_p,gamma <= A t^(alpha-k) for all t > 0.

On finite expansions the time derivative of the Poisson orbit is exact, so the
only approximations are the t-integral (log-trapezoid, window sized from the
endpoint exponents) and, for p not 2, the spatial norm.  Every curve comes
from _norm_curves, which takes any number of p: it builds the orbit table of
a time grid once and hands it to hermite._lp_norms, whose docstring lists
the spatial routes; each p keeps the bits of its one-p call.  _seminorms and
_ak_constants build on it, at one time resolution or at two, the finer of
which nests the coarser so that one curve serves both; norm_curve,
besov_seminorm and ak_constant are their one-p, one-resolution calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import HermiteExpansion, _abs_moment_exact_1d, _check_p, _lp_norms, default_grid, lp_norm
from .timequad import DEFAULT_STEP, TimeQuadrature, _clipped_rule, _split_steps

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
        _check_p(self.p)
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


def _orbit_table(items, k: int, ts) -> np.ndarray:
    """(S, T) coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)) of u^(k)(., t), one row per item."""
    orders = np.array([nu.order for nu, _ in items], dtype=float)
    base = np.array([c for _, c in items])
    roots = np.sqrt(orders)
    return (base * (-roots) ** k)[:, None] * np.exp(-np.outer(roots, ts))


def norm_curve(f: HermiteExpansion, k: int, p: float, ts) -> np.ndarray:
    """||u^(k)(., t)||_p,gamma for every t in ts, an array shaped like ts: the one-p case of _norm_curves.

    The orbit derivative has coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)),
    one column of a table per time node; hermite._lp_norms takes the norms
    of all columns at once, on the route of p, and scales each node by a
    power of two, so large t does not underflow and high degree does not
    overflow.
    """
    return _norm_curves(f, k, (p,), ts)[0, ...]


def _norm_curves(f: HermiteExpansion, k: int, ps, ts) -> np.ndarray:
    """norm_curve for every p in ps, stacked: an array shaped (len(ps),) + ts.shape.

    The orbit table is built once for all ps and goes to hermite._lp_norms
    as one table, a column per time node, in sorted support order.  The
    default_grid and _abs_moment_exact_1d handed in are hermite's own; they
    are passed through besov's bindings so that a spy on those sees the
    route of a curve.
    """
    for p in ps:
        _check_p(p)
        if p > MAX_P:
            raise ValueError(f"p = {p} beyond the supported range (p <= {MAX_P})")
    ts = np.asarray(ts, dtype=float)
    items = sorted(f.coeffs.items())
    coef_t = _orbit_table(items, k, ts.ravel())
    curves = _lp_norms(f, [nu for nu, _ in items], coef_t, ps, grid=default_grid, moments=_abs_moment_exact_1d)
    return curves.reshape((len(ps),) + ts.shape)


def besov_seminorm(f: HermiteExpansion, params: BesovParams, step: float = DEFAULT_STEP) -> float:
    """The q < inf seminorm: ( int (t^(k-a) ||u^(k)(., t)||_p)^q dt/t )^(1/q).

    The t-integral is the log-trapezoid of clipped_time_rule with head
    exponent (k - a) q, blow-up exponent 1 (the dt/t) and log step `step`.
    Where a small (k - a) q pushes the window below t = e^(-700), the rule is
    clipped there and the dropped head, where the integrand is
    ||u^(k)(., 0)||_p^q t^((k-a)q - 1), is added in closed form.  This is
    the one-p, refine = 1 case of _seminorms.
    """
    if math.isinf(params.q):
        raise ValueError("use ak_constant for q = inf")
    return _seminorms(f, params.alpha, (params.p,), params.q, params.k, step, 1)[0][0]


def _levels(refine: int) -> tuple[int, ...]:
    """The time resolutions of a refine-fold evaluation, coarse first: (1,) at refine = 1, (1, refine) otherwise."""
    return (1, refine) if refine > 1 else (1,)


def _seminorms(f: HermiteExpansion, alpha: float, ps, q: float, k: int, step: float, refine: int) -> list[list[float]]:
    """besov_seminorm for every p in ps, at the rule of step and at its refine-fold refinement.

    Returns one list per resolution, coarse first (_levels), each one value
    per p.  The refined rule keeps the coarse window and splits each of its
    n - 1 log steps into refine (timequad._clipped_rule): it has
    refine (n - 1) + 1 nodes, and every refine-th is a coarse node, bit for
    bit.  So one _norm_curves call on the refined nodes serves every p and
    both resolutions, and the coarse values, read from every refine-th node,
    are the bits of a refine = 1 call.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1 (or inf), got q = {q}")
    rules = [_clipped_rule((k - alpha) * q, 1.0, None, step, r) for r in _levels(refine)]
    curves = _norm_curves(f, k, ps, rules[-1][0])
    out = []
    for r, (t, w, head_rest, _) in zip(_levels(refine), rules):
        weight = t ** (k - alpha)
        terms = []
        for curve in curves[:, :: refine // r]:
            integral = float(np.dot(w, (weight * curve) ** q / t)) + curve[0] ** q * head_rest
            terms.append(integral ** (1.0 / q))
        out.append(terms)
    return out


SUP_POINTS = 200


def sup_grid(points: int, refine: int) -> np.ndarray:
    """The grid of every time sup: points log-spaced times in [1e-6, 50], each log step split into refine.

    It has refine (points - 1) + 1 nodes (timequad._split_steps), and every
    refine-th is a node of sup_grid(points, 1), bit for bit.
    """
    return np.exp(_split_steps(np.linspace(math.log(1e-6), math.log(50.0), points), refine))


def _polished_sup(supremand, ts, vals) -> float:
    """Max of a vectorized supremand whose values on the grid ts are vals, polished locally.

    The coarse argmax is refined on 19 log-spaced points between its two grid
    neighbours; the larger of the two maxima is returned.
    """
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    local = np.exp(np.linspace(math.log(lo), math.log(hi), 19))
    return float(max(vals.max(), supremand(local).max()))


def ak_constant(f: HermiteExpansion, alpha: float, p: float, k: int, points: int = SUP_POINTS) -> float:
    """Smallest A with ||u^(k)(., t)||_p <= A t^(alpha-k): sup of t^(k-alpha) ||u^(k)||_p.

    Taken over sup_grid(points, 1), then polished around the coarse argmax
    (_polished_sup).  For expansions the supremand is smooth and decays at
    both ends, so the grid sup is reliable.  This is the one-p, refine = 1
    case of _ak_constants.
    """
    return _ak_constants(f, alpha, (p,), k, points, 1)[0][0]


def _ak_constants(f: HermiteExpansion, alpha: float, ps, k: int, points: int, refine: int) -> list[list[float]]:
    """ak_constant for every p in ps, on sup_grid(points, 1) and on sup_grid(points, refine).

    Returns one list per resolution, coarse first (_levels), each one value
    per p.  The refined grid has refine (points - 1) + 1 nodes and nests the
    coarse one bit for bit, so one _norm_curves call on it serves every p and
    both resolutions; each p and resolution polishes its own argmax, and the
    coarse values are the bits of a refine = 1 call.
    """
    if k <= alpha:
        raise ValueError("need k > alpha")
    grids = [sup_grid(points, r) for r in _levels(refine)]
    curves = _norm_curves(f, k, ps, grids[-1])
    out = []
    for r, ts in zip(_levels(refine), grids):
        weight = ts ** (k - alpha)
        out.append([
            _polished_sup(lambda t, p=p: t ** (k - alpha) * norm_curve(f, k, p, t), ts, vals)
            for p, vals in zip(ps, weight * curves[:, :: refine // r])
        ])
    return out


def besov_norm(f: HermiteExpansion, params: BesovParams) -> BesovResult:
    """Full Besov-Lipschitz norm: L^p part plus seminorm (q < inf) or A_k (q = inf)."""
    lp_part = lp_norm(f, params.p)
    if math.isinf(params.q):
        ak = ak_constant(f, params.alpha, params.p, params.k)
        return BesovResult(lp_part, None, ak, lp_part + ak, params)
    semi = besov_seminorm(f, params)
    return BesovResult(lp_part, semi, None, lp_part + semi, params)


# -- weighted averaging inequalities ----------------------------------------------


def _log_slope(y0, y1, f0, f1):
    if f0 <= 0.0 or f1 <= 0.0:
        return math.inf  # vanishing samples: treat as arbitrarily fast decay/vanish
    return math.log(f1 / f0) / math.log(y1 / y0)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of samples y over an increasing grid x, 0 at x[0] (len(x) >= 3).

    Composite Simpson on unequal intervals: interval i gets the integral of
    the parabola through its ends and the next node for even i ("h1"), the
    previous node for odd i and the last interval ("h2"); then a running sum.
    Same arithmetic, so the same bits, as
    scipy.integrate.cumulative_simpson(y, x=x, initial=0.0).
    """

    def pieces(f, dx):  # over [x_i, x_(i+1)], the parabola through x_i, x_(i+1), x_(i+2)
        x21, x32 = dx[:-1], dx[1:]
        a = x21 / (x21 + x32)
        b = a * (x21 / x32)
        return x21 / 6 * ((3 - a) * f[:-2] + (3 + b + a) * f[1:-1] + -b * f[2:])

    dx = np.diff(x)
    h1 = pieces(y, dx)
    h2 = pieces(y[::-1], dx[::-1])[::-1]
    out = np.zeros(y.size)
    sub = out[1:]
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    return np.cumsum(out)


def hardy_check(f, p: float, r: float, kind: str):
    """Evaluate both sides of the weighted head/tail averaging inequality.

    kind "head":  int_0^inf ( int_0^x f )^p x^(-r-1) dx  <=  (p/r)^p int (y f(y))^p y^(-r-1) dy
    kind "tail":  int_0^inf ( int_x^inf f )^p x^(r-1) dx  <=  (p/r)^p int (y f(y))^p y^(r-1) dy

    The constant belongs on the norms -- lhs^(1/p) <= (p/r) rhs_integral^(1/p)
    -- hence (p/r)^p between the p-th-power integrals; a flat p/r there is
    falsified numerically (e.g. y^2 e^-y/(1+y), p = 2, r = 1/2 exceeds it by
    0.34%).  f must be a nonnegative vectorized function on (0, inf).  Returns
    (lhs, rhs); a side whose endpoint behavior is non-integrable is reported
    as math.inf.  At p = 1 the head inequality is an exact interchange of the
    two integrals, so lhs = rhs up to quadrature error.  Both sides use one
    log-trapezoid rule on [e^-40, e^12] with 5201 nodes.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if r <= 0:
        raise ValueError("r must be > 0")
    if kind not in ("head", "tail"):
        raise ValueError("kind must be 'head' or 'tail'")
    y, wy = TimeQuadrature(-40.0, 12.0, 5201).nodes_weights()
    fv = np.asarray(f(y), dtype=float)
    if np.min(fv) < -1e-12:
        raise ValueError("f must be nonnegative")
    fv = np.maximum(fv, 0.0)
    m0 = _log_slope(y[0], y[1], fv[0], fv[1])
    m_inf = -_log_slope(y[-2], y[-1], fv[-2], fv[-1])  # f ~ y^(-m_inf) at infinity

    # cumulative integrals of f along the log grid, F from 0 for "head" and G
    # to inf for "tail" (Simpson: the trapezoid's O(h^2) endpoint bias on
    # exponential integrands is visible at 1e-6)
    inner = fv * y  # integrand of int f dy in the log variable
    v = np.log(y)
    if kind == "head":
        lhs_exp = p * (m0 + 1.0) - r  # local exponent of the lhs integrand at 0
        if (not math.isinf(m0)) and lhs_exp <= 1e-9:
            return math.inf, math.inf
        if (not math.isinf(m_inf)) and p * (1.0 - m_inf) - r >= -1e-9:
            return math.inf, math.inf  # f decays too slowly: both tails blow up
        head_piece = 0.0 if math.isinf(m0) else fv[0] * y[0] / (m0 + 1.0)
        F = head_piece + _cumulative_simpson(inner, v)
        lhs = float(np.dot(wy, F**p * y ** (-r - 1.0)))
        # the lhs integrand decays only like x^(-r-1) once the inner integral
        # saturates, so the truncated tail must be added in closed form
        lhs += F[-1] ** p * y[-1] ** (-r) / r
        rhs = (p / r) ** p * float(np.dot(wy, (y * fv) ** p * y ** (-r - 1.0)))
        return lhs, rhs
    if (not math.isinf(m_inf)) and p * (1.0 - m_inf) + r >= -1e-9:
        return math.inf, math.inf  # both sides share the heavy-tail exponent
    G = _cumulative_simpson(inner[::-1], -v[::-1])[::-1]
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


def kdecay_report(f: HermiteExpansion, p: float, k: int, ts=None) -> KDecayReport:
    """Decay table for t -> ||u^(k)(., t)||_p with the monotonicity verdict.

    Also fits the smallest C with t^k ||u^(k)(., t)||_p <= C ||f||_p on the
    grid (the k-th derivative decay rate of the Poisson orbit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ts = np.asarray(ts, dtype=float) if ts is not None else decay_grid()
    return _decay_report(ts, norm_curve(f, k, p, ts), k, lp_norm(f, p))


def _decay_report(ts: np.ndarray, values: np.ndarray, k: int, fnorm: float) -> KDecayReport:
    """kdecay_report from the curve values ||u^(k)(., t)||_p on ts and fnorm = ||f||_p."""
    non_increasing = bool(np.all(np.diff(values) <= 1e-12 * values[:-1] + 1e-300))
    fitted_c = float(np.max(ts**k * values) / fnorm) if fnorm > 0 else 0.0
    return KDecayReport(ts, values, non_increasing, fitted_c)
