"""Quadrature rules for the time half-axis (0, inf).

All the singular integrals in this package (subordination, fractional operator
representations, smoothness seminorms) are computed after the substitution
t = e^v, which turns dt/t into dv, tames integrable endpoint singularities and
makes the trapezoid rule geometrically convergent for the analytic integrands
that arise here.  The seminorm, the fractional integrals and the stable
measure (SubordinationRule) take their rules from one factory,
log_time_rule, which continues the trapezoid to the infinities in closed
form and is exact to rounding.  It goes one substitution further,
log t = s - e^(-(s - knee)) (Takahasi and Mori's double-exponential idea, on
one end): above the knee its nodes are those of the log-trapezoid, and below
it, where the integrand is nearly a power of t, they thin out
double-exponentially, so the rule needs a fraction of the nodes.
TimeQuadrature, the half-weight trapezoid on a fixed window, serves
hardy_check, whose integrands are arbitrary functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

__all__ = ["TimeQuadrature", "SubordinationRule", "log_time_rule", "end_summed_integral"]

DEFAULT_STEP = 0.02


@dataclass(frozen=True)
class TimeQuadrature:
    """1-d rule for integrals over (0, inf) in the time variable.

    Trapezoid on a uniform v-grid, t = e^v in [e^v_min, e^v_max].
    """

    kind: ClassVar[str] = "log_uniform"  # perfbench/tracing.py keys calls on it
    v_min: float
    v_max: float
    n_points: int

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")
        if self.n_points < 16:
            raise ValueError("need n_points >= 16")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(t_j, w_j) with  int_0^inf g(t) dt  ~=  sum w_j g(t_j); cached and shared, so read-only."""
        return _log_uniform_rule(self.v_min, self.v_max, self.n_points)


def _split_steps(v: np.ndarray, refine: int) -> np.ndarray:
    """The points v with each step split into refine equal ones: refine (v.size - 1) + 1 points.

    Point refine i is v[i] itself, bit for bit, so a grid refined this way
    nests the grid it came from; a linspace with that many points nests it
    only at refine a power of two.  At refine = 1 this is v.
    """
    if refine == 1:
        return v
    fine = np.empty(refine * (v.size - 1) + 1)
    fine[::refine] = v
    for s in range(1, refine):
        fine[s::refine] = v[:-1] + np.diff(v) * (s / refine)
    return fine


@lru_cache(maxsize=8)  # the default verify-all pass uses one window, hardy_check's
def _log_uniform_rule(v_min: float, v_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = e^v and trapezoid weights t dv of TimeQuadrature(v_min, v_max, n_points), read-only."""
    v = np.linspace(v_min, v_max, n_points)
    dv = np.full(v.size, v[1] - v[0])
    dv[0] *= 0.5
    dv[-1] *= 0.5
    t = np.exp(v)
    w = t * dv
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _knee_offset(c: float) -> float:
    """The u with u - e^(-u) = c, to rounding: Newton from the left, where the concave map's iterates rise to it."""
    u = -math.log(-c) if c < -1.0 else c - 1.0
    while (rise := (c - u + math.exp(-u)) / (1.0 + math.exp(-u))) > 0.0 and u + rise > u:
        u += rise
    return u


def _head_run(offset: float, head: float, step: float) -> float:
    """Sum over j >= 1 of v'(s0 - j step) e^(head (v(s0 - j step) - v(s0))), offset = s0 - knee.

    With stretch = e^(-offset) and y = stretch e^x, x = j step, the term is (1 + y) e^(-head (x +
    y - stretch)), and y - stretch = y (1 - e^(-x)) keeps every exp finite.  The sum stops where
    head (y - stretch) or head x first reaches 80; stopping at 300 instead gives the same bits at
    every stretch from 1e-12 to 1e3 and head from 1e-6 to 150.
    """
    runs = min(math.log(80.0 / head + math.exp(-offset)) + offset, 80.0 / head)
    x = step * np.arange(1, math.ceil(runs / step) + 1)
    y = np.exp(x - offset)
    return math.fsum((1.0 + y) * np.exp(-head * (x - y * np.expm1(-x))))


def _tail_run(stretch: float, tail: float, step: float) -> float:
    """Sum over j >= 1 of v'(sN + j step) e^(-tail (v(sN + j step) - v(sN))), stretch = e^(-(sN - knee)).

    The term is e^(-tail c) e^(-tail j step) (1 + c e^(-j step)) e^(tail c e^(-j step)), c = stretch;
    the last factor's power series makes it the positive sum e^(-tail c) sum_m (tail c)^m / m!
    (G(tail + m) + c G(tail + m + 1)), G(r) = 1 / (e^(r step) - 1), taken to rounding.
    """
    rest, m, coef, term = 0.0, 0, 1.0, math.inf
    while term > 1e-17 * rest:
        term = coef * (1.0 / math.expm1((tail + m) * step) + stretch / math.expm1((tail + m + 1) * step))
        rest, m, coef = rest + term, m + 1, coef * tail * stretch / (m + 1)
    return rest * math.exp(-tail * stretch)


@lru_cache(maxsize=64)  # the default verify-all pass uses 34 rules
def log_time_rule(
    v_min: float, v_max: float, knee: float, step: float, head: float, tail: float | None = None, refine: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w, read-only, with  int_0^inf g(t) dt/t = sum w g(t)  to rounding for g as below.

    The trapezoid in s with full weights step v'(s), where log t = v(s) = s -
    e^(-(s - knee)): at s = s0, s0 + step, ... from v(s0) = v_min up to the
    first node at or past v_max.  Above the knee v is s to within
    e^(-(s - knee)), so the nodes are those of a trapezoid in log t; below it
    they thin out double-exponentially toward t = 0.  Below the first node g
    must be a pure power t^head to rounding, and above the last one
    t^(-tail) (a tail of None: 0).  The trapezoid's nodes beyond an end then
    add g(end) times a sum fixed by the exponent, the step and the end's
    e^(-(s - knee)) (_head_run, _tail_run), taken into that end's weight.
    With refine > 1 each step in s is split into refine equal ones
    (_split_steps), and the weights take the finer step: node refine i is
    node i of the refine = 1 rule, bit for bit.  The step must be finite and
    > 0, and the knee at most v_max.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got step = {step}")
    if not head > 0 or (tail is not None and not tail > 0):
        raise ValueError(f"end exponents must be > 0 (divergent integral otherwise), got {head}, {tail}")
    if not knee <= v_max:  # a window wholly below the knee is all thinned head; its tail sum would overflow
        raise ValueError(f"the knee must not lie above v_max, got knee = {knee}, v_max = {v_max}")
    s_min, s_max = knee + _knee_offset(v_min - knee), knee + _knee_offset(v_max - knee)
    s = _split_steps(s_min + step * np.arange(math.ceil((s_max - s_min) / step) + 1), refine)
    h = step / refine
    stretch = np.exp(knee - s)
    w = h * (1.0 + stretch)
    w[0] += h * _head_run(s[0] - knee, head, h)
    if tail is not None:
        w[-1] += h * _tail_run(stretch[-1], tail, h)
    t = np.exp(s - stretch)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


EXP_ZERO = 746.0  # exp(-x) is exactly +0.0 for x >= EXP_ZERO (it underflows past 745.13)
# Window of end_summed_integral in x = root t.  Below X_HEAD, e^(-x) and
# ((1 - e^(-x))/x)^k differ from 1 by x and k x/2, under 2^-53 for k <= 20;
# above X_TAIL, (1 - e^(-x))^k differs from 1 by k e^(-x) < 1.5e-21 k.  The
# integrands are analytic in |Im v| < pi/2, so END_STEP aliases e^(-pi^2/0.1).
# The knee sits at x = X_KNEE, below which the nodes thin out: on the strip
# |Im s| < pi/2 the map lets e^(-x) grow by at most e^X_KNEE (besov's
# seminorm_rule comment has the argument), which costs no digit.
X_HEAD, X_TAIL, X_KNEE, END_STEP = 1e-17, 48.0, 0.2, 0.1


def end_summed_integral(fn, root: float, head: float, tail: float | None = None) -> float:
    """int_0^inf fn(t) dt/t, exact to rounding, for fn ~ t^head at 0 and ~ t^(-tail) at inf (tail None: fn ~ 0).

    The log_time_rule of x = root t in [X_HEAD, x_tail] at step END_STEP, past whose ends fn is a pure
    power: x_tail = X_TAIL with a tail, and X_TAIL + 2 head without one, where fn decays like x^head
    e^(-x) and the rest is below 1e-18 of Gamma(head) (as in besov.seminorm_rule).
    """
    x_tail = X_TAIL if tail is not None else X_TAIL + 2.0 * head
    x, w = log_time_rule(math.log(X_HEAD), math.log(x_tail), math.log(X_KNEE), END_STEP, head, tail)
    return float(np.dot(w, fn(x / root)))


# The stable measure's rule in v = log u: below STABLE_V_MIN e^(-u) is 1 to rounding, so the density is
# the pure power u^(1/2); past v = 6 it is below e^(-400).
STABLE_V_MIN = -37.1


@lru_cache(maxsize=1)
def _stable_masses() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and t-independent masses, read-only, of the stable-measure rule (SubordinationRule)."""
    u, w = log_time_rule(STABLE_V_MIN, 6.0, STABLE_V_MIN, 0.1, 0.5)
    masses = w * np.exp(-u) * np.sqrt(u) / math.sqrt(math.pi)
    masses.setflags(write=False)
    return u, masses


class SubordinationRule:
    """Discretization of the one-sided stable measure of order 1/2.

    The measure mu_t(ds) = t/(2 sqrt(pi)) exp(-t^2/4s) s^(-3/2) ds turns the
    heat-type semigroup into its half-order subordinate.  In u = t^2/4s it is
    the t-independent density e^(-u) u^(1/2) / sqrt(pi) in du/u, on 427 nodes
    of log_time_rule, the nodes below the first (the heavy s^(-3/2) far
    tail) folded into its weight.  From t = t_min() on, the first node has s
    >= EXP_ZERO, where e^(-s n) = 0 for n >= 1, so the fold is exact.
    """

    def t_min(self) -> float:
        """The t from which the first node, u <= e^STABLE_V_MIN, has s = t^2/4u >= EXP_ZERO (4.8e-7)."""
        return 2.0 * math.sqrt(EXP_ZERO * math.exp(STABLE_V_MIN))

    def stable_measure(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Atoms (s_j, m_j) of the discretized mu_t, for t >= t_min(); the masses sum to 1.

        The masses do not depend on t: they are cached with the rule and shared, so read-only.
        """
        if not self.t_min() <= t < math.inf:
            raise ValueError(
                f"t must be finite and >= {self.t_min():.3g}, where the stable-measure rule is exact; got t = {t}"
            )
        u, masses = _stable_masses()
        return t * t / (4.0 * u), masses

    def mass(self, t: float) -> float:
        return float(self.stable_measure(t)[1].sum())
