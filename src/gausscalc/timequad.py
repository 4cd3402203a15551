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

import numpy as np
from scipy.special import gammainc

__all__ = ["TimeQuadrature", "SubordinationRule", "log_time_rule"]

DEFAULT_STEP = 0.02
HEAD_TOL = 1e-10


@dataclass(frozen=True)
class TimeQuadrature:
    """1-d rule for integrals over (0, inf) in the time variable.

    Trapezoid on a uniform v-grid, t = e^v in [e^v_min, e^v_max].  kind names
    the rule in reports; "log_uniform" is the only kind.
    """

    kind: str = "log_uniform"
    v_min: float = -16.0
    v_max: float = 7.0
    n_points: int = 1024

    def __post_init__(self):
        if self.kind != "log_uniform":
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")
        if self.n_points < 16:
            raise ValueError("need n_points >= 16")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(t_j, w_j) with  int_0^inf g(t) dt  ~=  sum w_j g(t_j)."""
        v = np.linspace(self.v_min, self.v_max, self.n_points)
        dv = np.full(self.n_points, v[1] - v[0])
        dv[0] *= 0.5
        dv[-1] *= 0.5
        t = np.exp(v)
        return t, t * dv

    def integrate(self, fn) -> float:
        t, w = self.nodes_weights()
        return float(np.dot(w, fn(t)))


def log_time_rule(
    head_exponent: float,
    tail_exponent: float | None = None,
    v_max: float = 7.0,
    step: float = DEFAULT_STEP,
    head_tol: float = HEAD_TOL,
) -> TimeQuadrature:
    """Log-uniform rule sized from the endpoint behavior of the integrand.

    head_exponent a > 0 means the integrand behaves like t^(a-1) dt/t ... i.e.
    the truncated head mass scales like exp(a * v_min); v_min is chosen so that
    it stays below head_tol (never above the shared baseline -16).  A positive
    tail_exponent b marks an algebraic tail t^(-b) dt/t, which needs
    v_max ~ -log(tol)/b instead of the default exp-decay window.
    """
    if head_exponent <= 0:
        raise ValueError("head_exponent must be positive (divergent integral otherwise)")
    v_min = min(-16.0, math.log(head_tol) / head_exponent - 1.0)
    if tail_exponent is not None:
        if tail_exponent <= 0:
            raise ValueError("tail_exponent must be positive (divergent integral otherwise)")
        v_max = max(v_max, -math.log(head_tol) / tail_exponent + 3.0)
    n = int(math.ceil((v_max - v_min) / step)) + 1
    return TimeQuadrature("log_uniform", v_min, v_max, max(n, 16))


@dataclass(frozen=True)
class SubordinationRule:
    """Discretization of the one-sided stable measure of order 1/2.

    The measure mu_t(ds) = t/(2 sqrt(pi)) exp(-t^2/4s) s^(-3/2) ds turns the
    heat-type semigroup into its half-order subordinate.  In the variable
    u = t^2/4s it is the t-independent weight exp(-u) u^(-1/2) du / sqrt(pi),
    which is what gets discretized (trapezoid in v = log u).  The mass of the
    truncated piece u < e^v_min -- equivalently the heavy s^(-3/2) far tail of
    mu_t -- is kept in closed form (an incomplete gamma) and reported
    separately, because dropping it would cost ~2 e^(v_min/2) / sqrt(pi) in
    mass (2.8e-3 at the default v_min = -12).
    """

    v_min: float = -12.0
    v_max: float = 6.0
    n_points: int = 4096

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")
        if self.n_points < 16:
            raise ValueError("need n_points >= 16")

    def u_nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        v = np.linspace(self.v_min, self.v_max, self.n_points)
        dv = np.full(self.n_points, v[1] - v[0])
        dv[0] *= 0.5
        dv[-1] *= 0.5
        u = np.exp(v)
        return u, u * dv

    def tail_mass(self) -> float:
        """Stable-measure mass carried by u < e^v_min (s beyond the grid)."""
        return float(gammainc(0.5, math.exp(self.v_min)))

    def stable_measure(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Atoms (s_j, m_j) of the discretized mu_t plus the far-tail mass.

        sum(m_j) + tail is the total mass, equal to 1 up to the trapezoid
        boundary error (~1e-9 at the default resolution), uniformly in t.
        """
        if t <= 0:
            raise ValueError("t must be > 0")
        u, w = self.u_nodes_weights()
        masses = np.exp(-u) / np.sqrt(u) / math.sqrt(math.pi) * w
        s = t * t / (4.0 * u)
        return s, masses, self.tail_mass()

    def mass(self, t: float) -> float:
        _, masses, tail = self.stable_measure(t)
        return float(masses.sum() + tail)
