"""Gaussian Besov-Lipschitz norms and the supporting inequality checkers.

For smoothness alpha >= 0, integrability p in [1, inf) and summability
q in [1, inf], with k the smallest integer greater than alpha, the norm is

    ||f||_p,gamma + ( int_0^inf (t^(k-alpha) ||d^k/dt^k P_t f||_p,gamma)^q dt/t )^(1/q)

and for q = inf the integral is replaced by A_k(f), the smallest constant A
with ||d^k/dt^k P_t f||_p,gamma <= A t^(alpha-k) for all t > 0.

On finite expansions the time derivative of the Poisson orbit is exact, so the
only approximations are the t-integral (a trapezoid in a variable that is
log t above a knee and thins the nodes out below it, continued to t = 0 in
closed form, seminorm_rule, or a grid sup) and, for p not 2, the spatial
norm.  Every curve comes from _orbit_curves, which takes any number of p
and of members and hands one orbit table to hermite._lp_norms, whose
docstring lists the spatial routes; each p keeps the bits of its one-p
call, norm_curve.  _besov_terms alone evaluates the second term of the
norm, the seminorm or A_k by q, for a family of expansions, at one time
resolution or at two, the finer of which nests the coarser so that one
curve per member serves both; at p = 2 the members share orbit tables, a
chunk at a time.  Every member's terms keep the bits of a one-member call;
besov_seminorm and ak_constant are its one-member, one-p, one-resolution
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import HermiteExpansion, _abs_moment_exact_1d, _check_p, _lp_norms, default_grid, lp_norm
from .timequad import DEFAULT_STEP, X_TAIL, TimeQuadrature, _split_steps, log_time_rule

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
# The largest finite q.  A q-th power scaled by a power of two from its
# curve's maximum (_power_means) keeps its peak term above 2^-q, a normal
# float up to q = 1022, and the seminorm's peak in log t, about 1/sqrt(hq)
# wide at h = k - alpha, spans 2.9 steps of 0.02 at hq = 300 (alpha = 0.7),
# where the trapezoid's error e^(-2 pi^2 / (hq step^2)) is 1e-71.
MAX_Q = 1000.0
# The largest log of an orbit factor sqrt(n)^k (_check_orbit): e^9.8
# below the float maximum, room for a coefficient and the norms' sums.
MAX_LOG_FACTOR = 700.0


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
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got k = {self.k!r}")
        _check_p(self.p)
        _check_q(self.q)
        if self.k <= self.alpha:
            raise ValueError(f"need k > alpha (k = {self.k}, alpha = {self.alpha})")


def _check_q(q: float):
    """The one check on a summability exponent: q in [1, MAX_Q] or inf (NaN is refused too)."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1 (or inf), got q = {q}")
    if MAX_Q < q < math.inf:
        raise ValueError(f"q = {q} beyond the supported range (q <= {MAX_Q:g}, or q = inf)")


def _log_chaos_norm(degree: int, p: float) -> float:
    """A bound on log ||h_nu||_p, |nu| <= degree: (degree/2) log(p - 1) by hypercontractivity, 0 at p <= 2."""
    return 0.5 * degree * math.log(max(p, 2.0) - 1.0)


def _check_time_range(alpha: float, k: int, q: float, t_end: float, degree: int, p: float):
    """Refuse a k whose weight t^h at the last time node t_end, or whose single-chaos term, passes e^MAX_LOG_FACTOR.

    h = k - alpha.  The term of h_nu, |nu| = n <= degree, is
    ||h_nu||_p n^(alpha/2) K, where K is (Gamma(hq) q^(-hq))^(1/q), or
    (h/e)^h at q = inf; ||h_nu||_p is bounded by _log_chaos_norm.
    """
    h = k - alpha
    log_k = h * (math.log(h) - 1.0) if math.isinf(q) else (math.lgamma(h * q) - h * q * math.log(q)) / q
    log_k += _log_chaos_norm(degree, p) + 0.5 * alpha * math.log(max(degree, 1))
    if (reach := max(h * math.log(t_end), log_k)) > MAX_LOG_FACTOR:
        raise ValueError(f"k = {k} takes t^(k - alpha) or the seminorm to e^{reach:.0f}, beyond the float range")


def _power_means(w: np.ndarray, weight: np.ndarray, curves: np.ndarray, q: float) -> list:
    """(w @ (weight c)^q)^(1/q) for each row c of curves, weight c >= 0 scaled by the power of two 2^-e that brings its maximum into [1/2, 1).

    The scale is exact, so at q = 1 and 2 a value has the bits of the
    unscaled sum (barring subnormals), and the q-th powers neither overflow
    nor underflow at any q <= MAX_Q.  A row at a time: each step once over
    all rows was slower (8 rows of 867 nodes at q = 2: 59 against 44 us).
    """
    out = []
    for c in curves:
        v = weight * c
        e = math.frexp(v.max())[1]  # 0 for a zero or non-finite maximum
        np.ldexp(v, -e, out=v)
        v **= q
        out.append(math.ldexp(float(np.dot(w, v)) ** (1.0 / q), e))
    return out


def besov_params(alpha: float, p: float, q: float, k: int | None = None) -> BesovParams:
    """BesovParams with float alpha, p and q; k defaults to smallest_k(alpha).

    A given k must be an integer: 2.0 is refused, as by norm_curve.
    """
    if k is None:
        k = smallest_k(alpha)
    return BesovParams(float(alpha), float(p), float(q), int(k) if isinstance(k, np.integer) else k)


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


def _decay_rows(orders, ts) -> np.ndarray:
    """Poisson factors e^(-t sqrt(n)) in one buffer: orders.shape + (T,), the times of each order broadcast from ts (..., T)."""
    rows = np.multiply(np.sqrt(np.asarray(orders, dtype=float))[..., None], ts)
    return np.exp(np.negative(rows, out=rows), out=rows)


def _orbit_curves(f: HermiteExpansion, supports, k: int, ps, ts: np.ndarray, decay=None) -> np.ndarray:
    """(len(ps), m, n) norms of u^(k)(., t) of m members with these sorted supports, at n times each.

    ts is (m, n), a row of times per member, or (1, n) shared by them.  The
    orbit table, coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)), has a column
    per (member, time) holding the member's own support, then zero rows up
    to the longest.  decay, when given, is (orders, _decay_rows(orders, ts))
    at shared ts; without it the table takes its own exps.  hermite._lp_norms
    takes the norms of all columns on the route of each p, with f's
    dimension and degree.  Members share a table at p = 2 only, whose route
    reads the table alone: a column's norm is the row-order sum of its
    scaled squares, and trailing zero rows add exact zeros, so each member
    keeps the bits of its own call.  The default_grid and
    _abs_moment_exact_1d handed in are hermite's own, passed through besov's
    bindings so that a spy on those sees a curve's route.
    """
    m, n, rows = len(supports), ts.shape[1], max(map(len, supports))
    coef, orders = np.zeros((2, rows, m))  # a padding row is 0 at order 0
    for j, items in enumerate(supports):
        coef[: len(items), j], orders[: len(items), j] = [c for _, c in items], [nu.order for nu, _ in items]
    table = _decay_rows(orders, ts) if decay is None else decay[1][np.searchsorted(decay[0], orders)]
    table *= (coef * (-np.sqrt(orders)) ** k)[:, :, None]
    indices = [nu for nu, _ in supports[0]] if m == 1 else None
    norms = _lp_norms(f, indices, table.reshape(rows, m * n), ps, grid=default_grid, moments=_abs_moment_exact_1d)
    return norms.reshape(len(ps), m, n)


def norm_curve(f: HermiteExpansion, k: int, p: float, ts) -> np.ndarray:
    """||u^(k)(., t)||_p,gamma for every t in ts, an array shaped like ts: the one-p case of _norm_curves.

    The orbit derivative has coefficients c_nu (-sqrt(n))^k e^(-t sqrt(n)),
    one column of a table per time node; hermite._lp_norms takes the norms
    of all columns at once, on the route of p, and scales each node by a
    power of two, so large t does not underflow and high degree does not
    overflow.  Every t must be finite and >= 0.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size and not 0 <= ts.min() <= ts.max() < math.inf:  # NaN fails it too
        raise ValueError("times must be finite and >= 0")
    return _norm_curves(f, k, (p,), ts)[0, ...]


def _norm_curves(f: HermiteExpansion, k: int, ps, ts) -> np.ndarray:
    """norm_curve for every p in ps, stacked: an array shaped (len(ps),) + ts.shape, the one-member _orbit_curves."""
    ts = np.asarray(ts, dtype=float)
    _check_orbit(k, ps, f.degree)
    return _orbit_curves(f, [sorted(f.coeffs.items())], k, ps, ts.reshape(1, -1)).reshape((len(ps),) + ts.shape)


def _check_orbit(k: int, ps, degree: int, alpha: float | None = None):
    """The checks on a norm curve's order k and exponents ps, for expansions up to this degree.

    A k whose orbit factors (-sqrt(n))^k ||h_nu||_p, |nu| = n <= degree,
    leave the float range is refused; the message names alpha if given.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"k must be an integer >= 0, got k = {k!r}")
    for p in ps:
        _check_p(p)
        if p > MAX_P:
            raise ValueError(f"p = {p} beyond the supported range (p <= {MAX_P})")
    reach = 0.5 * k * math.log(degree) + _log_chaos_norm(degree, max(ps)) if degree > 1 else 0.0
    if reach > MAX_LOG_FACTOR:
        name = f"k = {k}" if alpha is None else f"alpha = {alpha} (k = {k})"
        raise ValueError(
            f"{name} takes the orbit factor sqrt(n)^k ||h_n||_p of degree n = {degree}"
            f" to e^{reach:.0f}, beyond the float range"
        )


def besov_seminorm(f: HermiteExpansion, params: BesovParams, step: float = DEFAULT_STEP) -> float:
    """The q < inf seminorm: ( int (t^(k-a) ||u^(k)(., t)||_p)^q dt/t )^(1/q).

    The t-integral is the trapezoid of seminorm_rule at step `step` (a log
    step above the rule's knee), continued to t = 0 in closed form.  This
    is the one-member, one-p, refine = 1 case of _besov_terms.
    """
    if math.isinf(params.q):
        raise ValueError("use ak_constant for q = inf")
    return _besov_terms([f], params.alpha, (params.p,), params.q, params.k, step, SUP_POINTS, 1)[0][0][0]


# The seminorm's rule.  Its integrand in dt/t is (t^h c(t))^q, h = k - alpha
# and c(t) = ||u^(k)(., t)||_p, and log_time_rule takes it for the pure power
# t^(hq) below the first node t0.  In x = q R t, R = RATE_BOUND >= |d/dt log c|,
# c(t)^q differs from c(t0)^q by at most about x0 - x, so the head's error is
# about int_0^x0 x^(hq-1) (x0 - x) dx / Gamma(hq) <= x0^(hq+1) / Gamma(hq+1)
# of the integral, and x0 = (2^-53 Gamma(hq+1))^(1/(hq+1)) holds it at 2^-53.
# At p = 2, -d/dt log c is a weighted mean of sqrt(n) over the support, so R
# covers degree 10^4; at a degree N past that the error grows like
# (sqrt(N) / R)^(hq+1) 2^-53, so no degree is refused.  Every order n >= 1
# decays like e^(-t sqrt(n)), so c^q decays at least like e^(-x) in x = q t:
# the rule stops at x = X_TAIL + 2 hq, past which the integral of x^(hq-1)
# e^(-x) holds under 1e-18 of Gamma(hq) at every hq <= 3000.  The window depends on (alpha, k, q)
# alone, never on a member, so each member keeps the bits of its own call.
# The rule's knee sits at x = SEMINORM_KNEE, log t = a = log(SEMINORM_KNEE /
# (q R)); below it the nodes thin out toward the head.  The map log t = v(s)
# = s - e^(-(s - a)) stretches the log step by v'(s) = 1 + e^(-(s - a)): on
# the strip |Im s| < pi/2 of the trapezoid's error bound it turns t = e^v(s)
# by up to e^(-(s - a)) past the |arg t| < pi/2 of a plain log rule, while
# |t| <= e^(Re s) holds.  At Re s >= a that turn gives -Re t <= |t| e^(-(Re s
# - a)) <= e^a; at Re s <= a, |t| <= e^a.  Either way an order of degree up
# to R^2, e^(-t sqrt(n)) with sqrt(n) <= R, grows by at most e^(R e^a) =
# e^(SEMINORM_KNEE / q) on the strip, and c^q by e^SEMINORM_KNEE: 4.9e8 at
# 20, against a strip error e^(-pi^2 / step) of 1e-214 at step 0.02.  Where
# c is analytic, at p = 2 and even p, the knee thus costs no digit up to far
# larger x; it no longer bounds strip growth but the resolution of the kinks
# of the odd-p curves (where real roots of u^(k)(., t) meet), which the
# wider steps below it sample more coarsely.  Worst relative error against a
# step-0.005 plain log rule (knee 0.2) over 8 members of each family, at
# (alpha, q) = (0.7, 2), (0.5, 1), (1.6, 2) and (0.4, 4): the knee at 0.2,
# its rule shifted by 0 to 3/4 of a step, against the knee at 20.
#
#   family         p = 1                p = 1.5              p = 3
#   d = 1, N = 8   0.8-1.7e-7 | 2.0e-7  2.8-4.3e-8 | 3.8e-8  0.7-4.8e-13 | 3.5e-13
#   d = 1, N = 16  0.8-1.8e-7 | 1.5e-7  2.2-2.4e-8 | 3.9e-8  1.2-3.7e-15 | 1.5e-15
#   d = 2, N = 8   1.3-2.4e-7 | 3.2e-7  2.5-3.3e-9 | 6.1e-9  1.1-1.9e-13 | 5.5e-13
#
# p = 2 and 4 stay within 4.1e-16 either way.  At p = 1 and 1.5 the knees
# 7, 10, 14 and 20 stay within twice the old rule's shift band; at 50, p = 3
# reaches 1.1e-12 in d = 2.  At alpha = 0.7, q = 2 the rule has 434 nodes at
# step 0.02 (653 at the knee 0.2, 484 at 7).
RATE_BOUND = 100.0
SEMINORM_KNEE = 20.0


def seminorm_rule(alpha: float, k: int, q: float, step: float, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w of int_0^inf g(t) dt/t for the seminorm's g = (t^(k-alpha) c(t))^q, read-only."""
    hq = (k - alpha) * q
    x0 = math.exp((math.lgamma(hq + 1.0) - 53.0 * math.log(2.0)) / (hq + 1.0))
    rate = q * RATE_BOUND
    v_min, v_max, knee = math.log(x0 / rate), math.log((X_TAIL + 2.0 * hq) / q), math.log(SEMINORM_KNEE / rate)
    return log_time_rule(v_min, v_max, knee, step, hq, None, refine)


SUP_POINTS = 200

# Bytes of one orbit table shared by a chunk of p = 2 members (_besov_terms,
# _orbit_curves), rows up to the longest support: at most 9 at degree 8 in
# d = 1, where the 399-node refined sup grid holds 18 members and the 867-node
# refined seminorm rule (alpha = 0.7, q = 2) 8.  On a 2-vCPU Xeon, 50 such
# members took 6.2 (q = inf) and 4.2 ms (q = 2) in chunks of one, and 1.9 and
# 2.4, 1.6 and 2.3, 1.5 and 2.5 ms in chunks of 9, 17 and 50; a verify-all
# pass was as fast at 2^19 bytes as at 2^20 and peaked 0.8-0.9 MiB lower.
SHARED_TABLE_BYTES = 2**19


@lru_cache(maxsize=8)  # the default verify-all pass uses 2 grids
def sup_grid(points: int, refine: int) -> np.ndarray:
    """The grid of every time sup: points log-spaced times in [1e-6, 50], each log step split into refine.

    It has refine (points - 1) + 1 nodes (timequad._split_steps), and every
    refine-th is a node of sup_grid(points, 1), bit for bit.  Cached and
    shared, so read-only.
    """
    ts = np.exp(_split_steps(np.linspace(math.log(1e-6), math.log(50.0), points), refine))
    ts.setflags(write=False)
    return ts


def _polished_sups(curves, alpha: float, k: int, grids, weight, strides, grid_curves) -> list:
    """A_k of each row of grid_curves on every grid, its grid sup polished at its argmax: a list per row, a value per grid.

    grid_curves has a curve per row on the finest grid, grids[-1], where the
    weight is t^(k-alpha); grids[g] is its every strides[g]-th node.  Each
    grid keeps the larger of its max and the max on 19 log-spaced polish
    nodes between the two grid neighbours of its argmax, where
    curves(nodes) gives each row's curve at its row of nodes, all grids in
    one call: a column's norm does not depend on the others.  One pass makes
    every (row, grid)'s nodes by np.linspace's steps, whose array-end call
    costs 12 us to a scalar one's 4, so each value keeps the bits of a
    one-row, one-grid polish; a NaN on the polish nodes gives NaN.
    """
    sups = [weight[::s] * grid_curves[:, ::s] for s in strides]
    ends = [
        [(math.log(ts[max(i - 1, 0)]), math.log(ts[min(i + 1, ts.size - 1)])) for i in sup.argmax(axis=1).tolist()]
        for ts, sup in zip(grids, sups)
    ]
    lo, hi = np.array(ends).transpose(2, 1, 0).reshape(2, -1, 1)  # (row, grid) order
    nodes = np.exp(np.concatenate([np.arange(18.0) * ((hi - lo) / 18) + lo, hi], axis=1)).reshape(len(grid_curves), -1)
    local = (nodes ** (k - alpha) * curves(nodes)).reshape(len(grid_curves), len(grids), -1).max(axis=2)
    tops = np.array([sup.max(axis=1) for sup in sups]).T
    return np.maximum(tops, local).tolist()


def ak_constant(f: HermiteExpansion, alpha: float, p: float, k: int, points: int = SUP_POINTS) -> float:
    """Smallest A with ||u^(k)(., t)||_p <= A t^(alpha-k): sup of t^(k-alpha) ||u^(k)||_p.

    Taken over sup_grid(points, 1), then polished around the coarse argmax
    (_polished_sups).  For expansions the supremand is smooth and decays at
    both ends, so the grid sup is reliable.  This is the one-member, one-p,
    refine = 1 case of _besov_terms.
    """
    return _besov_terms([f], alpha, (p,), math.inf, k, DEFAULT_STEP, points, 1)[0][0][0]


def _besov_terms(fs, alpha: float, ps, q: float, k: int, step: float, points: int, refine: int):
    """The second Besov-norm term of each member of fs for every p in ps: the seminorm at q < inf, A_k at q = inf.

    Returns one list per member, and in it one list per time resolution,
    coarse first, each one value per p: [coarse] at refine = 1, [coarse,
    refined] otherwise.  The coarse grid is seminorm_rule at step (q < inf)
    or sup_grid(points, 1) (q = inf).  The refined grid splits each coarse
    log step into refine (timequad._split_steps), so it has refine (n - 1)
    + 1 nodes where the coarse has n, and every refine-th is a coarse node,
    bit for bit.  One curve per member on the finest grid thus serves every
    p and both resolutions, and the coarse values, read from every refine-th
    node, are the bits of a refine = 1 call.  Each resolution is reduced on
    its own: by its rule's weights, w @ (t^(k-alpha) c)^q, or by the grid
    sup polished around its own argmax (_polished_sups).

    The grids, the weights t^(k-alpha) and, for a family with more members
    than distinct orders, the decay rows e^(-t sqrt(n)) of its orders are
    made once per call; the orbit tables take their rows from them, the same
    products, so each member's terms are the bits of a call for it alone.

    With every p 2 the members go in chunks of as many as fit one table of
    SHARED_TABLE_BYTES, one member a chunk of one: one _orbit_curves call
    gives a chunk's curves, reduced together (_power_means, _polished_sups),
    and at q = inf one more its polish.  At other p a column's norm depends
    on the table's rows (odd-p pieces are sized by degree, a basis product's
    blocking by the support), so each member has its own table, polished at
    q = inf by one norm_curve call per p.
    """
    _check_q(q)
    if not 0 <= alpha < k:
        raise ValueError(f"need 0 <= alpha < k, got alpha = {alpha}, k = {k}")
    degree = max(f.degree for f in fs)
    _check_orbit(k, ps, degree, alpha)
    levels = (1, refine) if refine > 1 else (1,)
    if math.isinf(q):
        rules = [(sup_grid(points, r),) for r in levels]
    else:
        rules = [seminorm_rule(alpha, k, q, step, r) for r in levels]
    grids = [rule[0] for rule in rules]
    ts = grids[-1]
    _check_time_range(alpha, k, q, ts[-1], degree, max(ps))
    weight = ts ** (k - alpha)  # every refine-th is the coarse grid's weight, bit for bit
    supports = [sorted(f.coeffs.items()) for f in fs]
    strides = [refine // r for r in levels]
    orders = sorted({nu.order for items in supports for nu, _ in items})
    decay = (orders, _decay_rows(orders, ts)) if len(fs) > len(orders) else None

    def reduce(curves, polish):
        """The terms of each row of curves, its curve on the finest grid: a list per row, a value per resolution."""
        if math.isinf(q):
            return _polished_sups(polish, alpha, k, grids, weight, strides, curves)
        return list(zip(*[_power_means(w, weight[::s], curves[:, ::s], q) for (_, w), s in zip(rules, strides)]))

    if all(p == 2 for p in ps):
        size = max(1, SHARED_TABLE_BYTES // (8 * ts.size * max(max(map(len, supports)), 1)))
        out = []
        for a in range(0, len(fs), size):  # each chunk's curves are reduced before the next chunk's are made
            chunk = supports[a : a + size]

            def curves(nodes, decay=None):
                """The chunk's curves at p = 2, (1, n) nodes shared or (m, n) a row each."""
                return _orbit_curves(fs[a], chunk, k, (2.0,), nodes, decay)[0]

            out += [[[value] * len(ps) for value in member] for member in reduce(curves(ts[None], decay), curves)]
        return out

    def terms(f, items):
        """f's terms, one list per resolution, from its curves on the finest grid."""

        def polish(nodes):
            """f's curve at each row of nodes, one norm_curve call per p."""
            return np.array([norm_curve(f, k, p, row) for p, row in zip(ps, nodes)])

        return [list(level) for level in zip(*reduce(_orbit_curves(f, [items], k, ps, ts[None], decay)[:, 0], polish))]

    return [terms(f, items) for f, items in zip(fs, supports)]


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
    log-trapezoid rule on [e^-40, e^12] with 5201 nodes.  This is the
    one-pair call of _hardy_sides.
    """
    return _hardy_sides(f, ((p, r),), kind)[0]


def _hardy_sides(f, pairs, kind: str) -> list:
    """hardy_check's (lhs, rhs) for every (p, r) in pairs, each the bits of its one-pair call.

    f's samples, its end slopes and its running integral do not depend on
    (p, r), so they are taken once; the running integral only if some pair
    converges.
    """
    for p, r in pairs:
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
    head = kind == "head"

    def diverges(p, r):
        if head:  # the lhs integrand's exponent at 0, or f decaying too slowly: both tails blow up
            return ((not math.isinf(m0)) and p * (m0 + 1.0) - r <= 1e-9) or (
                (not math.isinf(m_inf)) and p * (1.0 - m_inf) - r >= -1e-9
            )
        return (not math.isinf(m_inf)) and p * (1.0 - m_inf) + r >= -1e-9  # both sides share the heavy-tail exponent

    # cumulative integrals of f along the log grid, F from 0 for "head" and G
    # to inf for "tail" (Simpson: the trapezoid's O(h^2) endpoint bias on
    # exponential integrands is visible at 1e-6)
    inner = fv * y  # integrand of int f dy in the log variable
    v = np.log(y)
    running = None
    out = []
    for p, r in pairs:
        if diverges(p, r):
            out.append((math.inf, math.inf))
            continue
        if running is None:
            if head:
                running = (0.0 if math.isinf(m0) else fv[0] * y[0] / (m0 + 1.0)) + _cumulative_simpson(inner, v)
            else:
                running = _cumulative_simpson(inner[::-1], -v[::-1])[::-1]
            # it integrates f >= 0, but Simpson's parabolas dip below 0 where f
            # has decayed, and a negative base makes a non-integer power NaN
            running = np.maximum(running, 0.0)
        # the lhs integrand decays only like x^(-r-1) (head) or x^(r-1) (tail)
        # once the inner integral saturates, so the truncated end is added in
        # closed form
        s, end = (-r, -1) if head else (r, 0)
        weight = y ** (s - 1.0)
        lhs = float(np.dot(wy, running**p * weight))
        lhs += running[end] ** p * y[end] ** s / r
        rhs = (p / r) ** p * float(np.dot(wy, (y * fv) ** p * weight))
        out.append((lhs, rhs))
    return out


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
    grid (the k-th derivative decay rate of the Poisson orbit).  Every t
    must be finite and >= 0 (norm_curve).
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
