"""Quadrature rules for the time half-axis (0, inf).

All the singular integrals in this package (subordination, fractional operator
representations, smoothness seminorms) are computed after the substitution
t = e^v, which turns dt/t into dv, tames integrable endpoint singularities and
makes the trapezoid rule geometrically convergent for the analytic integrands
that arise here.  Truncation at v_min / v_max is the only real error source,
so rule factories pick the window from the known endpoint exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import gammainc

__all__ = ["TimeQuadrature", "SubordinationRule", "log_time_rule", "clipped_time_rule"]

DEFAULT_STEP = 0.02
HEAD_TOL = 1e-10


@dataclass(frozen=True)
class TimeQuadrature:
    """1-d rule for integrals over (0, inf) in the time variable.

    Trapezoid on a uniform v-grid, t = e^v in [e^v_min, e^v_max].
    """

    kind: ClassVar[str] = "log_uniform"  # the only rule family; perfbench/tracing.py keys calls on it
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

    def integrate(self, fn) -> float:
        t, w = self.nodes_weights()
        return float(np.dot(w, fn(t)))


@lru_cache(maxsize=64)  # the default verify-all pass uses 30 windows
def _log_uniform_rule(v_min: float, v_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = e^v and trapezoid weights t dv of TimeQuadrature(v_min, v_max, n_points), read-only."""
    v = np.linspace(v_min, v_max, n_points)
    dv = np.full(n_points, v[1] - v[0])
    dv[0] *= 0.5
    dv[-1] *= 0.5
    t = np.exp(v)
    w = t * dv
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=8)
def _stable_atoms(v_min: float, v_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and the t-independent masses exp(-u) u^(-1/2) w / sqrt(pi) of SubordinationRule, read-only."""
    u, w = _log_uniform_rule(v_min, v_max, n_points)
    masses = np.exp(-u) / np.sqrt(u) / math.sqrt(math.pi) * w
    masses.setflags(write=False)
    return u, masses


def log_time_rule(
    head_exponent: float, tail_exponent: float | None = None, step: float = DEFAULT_STEP
) -> TimeQuadrature:
    """Log-uniform rule sized from the endpoint behavior of the integrand.

    head_exponent a > 0 means the integrand behaves like t^(a-1) dt/t ... i.e.
    the truncated head mass scales like exp(a * v_min); v_min is chosen so that
    it stays below HEAD_TOL (never above the shared baseline -16).  A positive
    tail_exponent b marks an algebraic tail t^(-b) dt/t, which needs
    v_max ~ -log(HEAD_TOL)/b instead of the default exp-decay window v_max = 7.
    """
    if head_exponent <= 0:
        raise ValueError("head_exponent must be positive (divergent integral otherwise)")
    v_min = min(-16.0, math.log(HEAD_TOL) / head_exponent - 1.0)
    v_max = 7.0
    if tail_exponent is not None:
        if tail_exponent <= 0:
            raise ValueError("tail_exponent must be positive (divergent integral otherwise)")
        v_max = max(v_max, -math.log(HEAD_TOL) / tail_exponent + 3.0)
    n = int(math.ceil((v_max - v_min) / step)) + 1
    return TimeQuadrature(v_min, v_max, max(n, 16))


def clipped_time_rule(head: float, blowup: float, tail: float | None = None, step: float = DEFAULT_STEP):
    """Nodes, weights and dropped ends for an integrand ~ t^(head-1) at 0 with a factor t^(-blowup).

    The window is log_time_rule's, clipped so that no power of t overflows:
    v_min >= -700/blowup and v_max <= 700 (a small head or algebraic tail
    exponent pushes past either).  Returns (t, w, head_rest, tail_rest): the
    masses cut^head / head of t^(head-1) over a dropped (0, cut) and
    big^(-tail) / tail of t^(-tail-1) over a dropped (big, inf), which the
    caller scales by its leading coefficients.  Each is 0.0 unless its clip
    binds, and with neither binding the rule is log_time_rule's own.
    """
    wide = log_time_rule(head_exponent=head, tail_exponent=tail, step=step)
    v_min = max(wide.v_min, -700.0 / blowup) if blowup > 0 else wide.v_min
    v_max = min(wide.v_max, 700.0)
    head_rest = math.exp(v_min) ** head / head if v_min > wide.v_min else 0.0
    tail_rest = math.exp(-v_max * tail) / tail if v_max < wide.v_max else 0.0
    rule = wide
    if (v_min, v_max) != (wide.v_min, wide.v_max):
        rule = TimeQuadrature(v_min, v_max, int(math.ceil((v_max - v_min) / step)) + 1)
    return (*rule.nodes_weights(), head_rest, tail_rest)


@dataclass(frozen=True)
class SubordinationRule(TimeQuadrature):
    """Discretization of the one-sided stable measure of order 1/2.

    The measure mu_t(ds) = t/(2 sqrt(pi)) exp(-t^2/4s) s^(-3/2) ds turns the
    heat-type semigroup into its half-order subordinate.  In the variable
    u = t^2/4s it is the t-independent weight exp(-u) u^(-1/2) du / sqrt(pi),
    which is what gets discretized (the trapezoid in v = log u of
    TimeQuadrature, with u in place of t).  The mass of the truncated piece
    u < e^v_min -- equivalently the heavy s^(-3/2) far tail of mu_t -- is kept
    in closed form (an incomplete gamma) and reported separately, because
    dropping it would cost ~2 e^(v_min/2) / sqrt(pi) in mass (2.8e-3 at the
    default v_min = -12).
    """

    v_min: float = -12.0
    v_max: float = 6.0
    n_points: int = 4096

    def tail_mass(self) -> float:
        """Stable-measure mass carried by u < e^v_min (s beyond the grid)."""
        return float(gammainc(0.5, math.exp(self.v_min)))

    def stable_measure(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Atoms (s_j, m_j) of the discretized mu_t plus the far-tail mass.

        sum(m_j) + tail is the total mass, equal to 1 up to the trapezoid
        boundary error (~1e-9 at the default resolution), uniformly in t.
        The masses do not depend on t: they are cached with the rule and
        shared, so read-only.
        """
        if t <= 0:
            raise ValueError("t must be > 0")
        u, masses = _stable_atoms(self.v_min, self.v_max, self.n_points)
        return t * t / (4.0 * u), masses, self.tail_mass()

    def mass(self, t: float) -> float:
        _, masses, tail = self.stable_measure(t)
        return float(masses.sum() + tail)
