"""Normalized Hermite polynomials and finite expansions under the Gaussian measure.

Everything here works with the probability measure gamma_d = exp(-|x|^2) / pi^(d/2) dx
on R^d.  The basis functions are the physicists' Hermite polynomials H_n (weight
exp(-x^2)) normalized so that

    h_nu(x) = prod_i H_{nu_i}(x_i) / sqrt(2^|nu| nu!),      <h_nu, h_mu>_gamma = delta.

Finite expansions (sparse maps multi-index -> coefficient) are the single function
representation used by the rest of the package; point samples appear only inside
quadrature loops.  All objects are immutable after construction and all operations
are pure functions, so they are safe to share across workers.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import erf

__all__ = [
    "MultiIndex",
    "HermiteExpansion",
    "GaussHermiteGrid",
    "QuadratureExactnessWarning",
    "gauss_hermite_grid",
    "hermite_eval",
    "hermite_values_1d",
    "basis_matrix",
    "inner_product_gamma",
    "lp_norm_gamma",
    "lp_norm",
    "l2_norm_coeffs",
    "chaos_project",
    "pi0",
    "default_grid",
]

MAX_NODES_PER_AXIS = 200


class QuadratureExactnessWarning(UserWarning):
    """A quadrature rule was used outside its polynomial exactness range."""


class MultiIndex(tuple):
    """Exponent tuple nu = (nu_1, ..., nu_d) of non-negative integers.

    Behaves like a plain tuple (hashable, comparable with tuples), with the
    total order |nu| cached.  |nu| is the spectral quantity: the number
    operator has eigenvalue -|nu| on h_nu, its square root has -sqrt(|nu|).
    """

    def __new__(cls, exponents):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"multi-index entries must be >= 0, got {exps}")
        self = super().__new__(cls, exps)
        self._order = sum(exps)
        return self

    @property
    def order(self) -> int:
        return self._order

    @property
    def dimension(self) -> int:
        return len(self)


def _norm_factor(n: int) -> float:
    # 1 / sqrt(2^n n!), applied once per basis function (not inside the recurrence)
    return math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))


def hermite_values_1d(xs, nmax: int) -> np.ndarray:
    """Table of normalized 1-d Hermite values, shape (len(xs), nmax+1).

    Three-term recurrence of the raw physicists' polynomials; the column for
    degree n is then rescaled by 1/sqrt(2^n n!).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    table = np.empty((xs.size, nmax + 1))
    table[:, 0] = 1.0
    if nmax >= 1:
        table[:, 1] = 2.0 * xs
    for n in range(1, nmax):
        table[:, n + 1] = 2.0 * xs * table[:, n] - 2.0 * n * table[:, n - 1]
    for n in range(nmax + 1):
        table[:, n] *= _norm_factor(n)
    return table


def basis_matrix(indices, points) -> np.ndarray:
    """phi[i, j] = h_{indices[j]}(points[i]) for an (npoints, d) array of points.

    One hermite_values_1d table per axis serves every column; each column
    starts from ones and takes its per-axis factors in axis order.
    """
    pts = np.asarray(points, dtype=float)
    indices = list(indices)
    degree = max((max(nu) for nu in indices), default=0)
    tables = [hermite_values_1d(pts[:, i], degree) for i in range(pts.shape[1])]
    phi = np.ones((pts.shape[0], len(indices)))
    for col, nu in enumerate(indices):
        for i, ni in enumerate(nu):
            phi[:, col] *= tables[i][:, ni]
    return phi


def hermite_eval(nu, x) -> float:
    """h_nu(x) for a single multi-index, independent of the table machinery."""
    nu = MultiIndex(nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != len(nu):
        raise ValueError(f"point has dimension {x.size}, index has {len(nu)}")
    out = 1.0
    for xi, ni in zip(x, nu):
        if ni == 0:
            continue
        h_prev, h = 1.0, 2.0 * xi
        for n in range(1, ni):
            h_prev, h = h, 2.0 * xi * h - 2.0 * n * h_prev
        out *= h * _norm_factor(ni)
    return out


class HermiteExpansion:
    """Finite Hermite expansion: sparse map multi-index -> real coefficient.

    Treat instances as immutable; arithmetic returns new expansions.  Zero
    coefficients are dropped on construction.
    """

    __slots__ = ("dimension", "_coeffs", "_degree")

    def __init__(self, dimension: int, coeffs=None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        clean: dict[MultiIndex, float] = {}
        for nu, c in (coeffs or {}).items():
            nu = MultiIndex(nu)
            if len(nu) != self.dimension:
                raise ValueError(f"index {tuple(nu)} has dimension {len(nu)}, expected {dimension}")
            c = float(c)
            if c != 0.0:
                clean[nu] = c
        self._coeffs = clean
        self._degree = max((nu.order for nu in clean), default=0)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def basis(cls, nu, coefficient: float = 1.0) -> "HermiteExpansion":
        nu = MultiIndex(nu)
        return cls(len(nu), {nu: coefficient})

    @classmethod
    def constant(cls, dimension: int, value: float) -> "HermiteExpansion":
        return cls(dimension, {MultiIndex((0,) * dimension): value})

    @classmethod
    def zero(cls, dimension: int) -> "HermiteExpansion":
        return cls(dimension, {})

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """Coefficient map (read-only by convention)."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._degree

    def coefficient(self, nu) -> float:
        return self._coeffs.get(MultiIndex(nu), 0.0)

    @property
    def mean(self) -> float:
        """Integral against gamma_d, i.e. the nu = 0 coefficient."""
        return self._coeffs.get(MultiIndex((0,) * self.dimension), 0.0)

    def orders(self):
        """Sorted chaos orders |nu| present with a nonzero coefficient."""
        return sorted({nu.order for nu in self._coeffs})

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        return f"HermiteExpansion(d={self.dimension}, terms={len(self._coeffs)}, degree={self.degree})"

    def __eq__(self, other):
        return (
            isinstance(other, HermiteExpansion)
            and self.dimension == other.dimension
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self._coeffs.items())))

    # -- linear algebra ----------------------------------------------------------

    def __add__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        merged = dict(self._coeffs)
        for nu, c in other._coeffs.items():
            merged[nu] = merged.get(nu, 0.0) + c
        return HermiteExpansion(self.dimension, merged)

    def __sub__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HermiteExpansion":
        s = float(scalar)
        return HermiteExpansion(self.dimension, {nu: s * c for nu, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def apply_order_multiplier(self, factor) -> "HermiteExpansion":
        """New expansion with each coefficient scaled by factor(|nu|)."""
        return HermiteExpansion(
            self.dimension, {nu: c * factor(nu.order) for nu, c in self._coeffs.items()}
        )

    # -- evaluation ----------------------------------------------------------------

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an (npoints, d) array, sharing per-axis recurrence tables."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.dimension) if self.dimension > 1 else pts.reshape(-1, 1)
        if pts.shape[1] != self.dimension:
            raise ValueError(f"points have dimension {pts.shape[1]}, expansion has {self.dimension}")
        out = np.zeros(pts.shape[0])
        phi = basis_matrix(self._coeffs, pts)
        for j, c in enumerate(self._coeffs.values()):
            out += c * phi[:, j]
        return out

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dimension:
            raise ValueError(f"point has dimension {x.size}, expansion has {self.dimension}")
        return float(self.evaluate_many(x.reshape(1, -1))[0])

    def chaos_values(self, x) -> np.ndarray:
        """Array g with g[n] = value at x of the order-n part, n = 0..degree."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        phi = basis_matrix(self._coeffs, x.reshape(1, -1))
        out = np.zeros(self.degree + 1)
        for j, (nu, c) in enumerate(self._coeffs.items()):
            out[nu.order] += c * phi[0, j]
        return out

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        items = sorted(self._coeffs.items())
        return {"d": self.dimension, "coeffs": [{"nu": list(nu), "c": c} for nu, c in items]}

    @classmethod
    def from_dict(cls, data: dict) -> "HermiteExpansion":
        return cls(data["d"], {tuple(item["nu"]): item["c"] for item in data["coeffs"]})

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "HermiteExpansion":
        return cls.from_dict(json.loads(text))


# -- Gaussian quadrature --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussHermiteGrid:
    """Tensor Gauss-Hermite rule normalized to the probability measure gamma_d.

    nodes has shape (m^d, d), built from ascending 1-d nodes so grids are
    reproducible; weights sum to 1.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    nodes_per_axis: int

    def exact_degree(self) -> int:
        """Largest per-axis polynomial degree integrated exactly."""
        return 2 * self.nodes_per_axis - 1


def gauss_hermite_grid(d: int, m: int) -> GaussHermiteGrid:
    """Build the m-point-per-axis rule for gamma_d.

    The 1-d nodes/weights come from the symmetric tridiagonal (Golub-Welsch)
    eigenproblem for the exp(-x^2) weight; weights are divided by sqrt(pi) so
    they sum to 1.  Tensorized to d dimensions: m^d nodes.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if m > MAX_NODES_PER_AXIS:
        raise ValueError(f"m = {m} exceeds the per-axis cap {MAX_NODES_PER_AXIS}")
    x1, w1 = hermgauss(m)
    w1 = w1 / math.sqrt(math.pi)
    if d == 1:
        nodes = x1.reshape(-1, 1)
        weights = w1.copy()
    else:
        nodes = np.array(list(product(x1, repeat=d)))
        weights = w1
        for _ in range(d - 1):
            weights = np.outer(weights, w1).ravel()
    return GaussHermiteGrid(d, nodes, weights, m)


def default_grid(f: HermiteExpansion) -> GaussHermiteGrid:
    """Grid sized for |f|^p at moderate p: m = 4 * degree + 8, capped per axis."""
    m = min(max(4 * f.degree + 8, 13), MAX_NODES_PER_AXIS)
    return gauss_hermite_grid(f.dimension, m)


def inner_product_gamma(f: HermiteExpansion, g: HermiteExpansion, grid: GaussHermiteGrid) -> float:
    """<f, g>_gamma by quadrature; equals sum of coefficient products on exact grids.

    Warns (QuadratureExactnessWarning) when the grid cannot integrate the
    product exactly, i.e. m < (deg f + deg g)/2 + 1.
    """
    if f.dimension != g.dimension or f.dimension != grid.dimension:
        raise ValueError("dimension mismatch between expansions and grid")
    if f.degree + g.degree > grid.exact_degree():
        warnings.warn(
            f"grid with m={grid.nodes_per_axis} is not exact for degree "
            f"{f.degree}+{g.degree}; result is approximate",
            QuadratureExactnessWarning,
            stacklevel=2,
        )
    return float(np.dot(grid.weights, f.evaluate_many(grid.nodes) * g.evaluate_many(grid.nodes)))


def l2_norm_coeffs(f: HermiteExpansion) -> float:
    """Coefficient ell^2 norm, the exact L^2(gamma_d) norm by orthonormality."""
    return math.sqrt(sum(c * c for c in f.coeffs.values()))


def lp_norm_gamma(f: HermiteExpansion, p: float, grid: GaussHermiteGrid) -> float:
    """(sum_i w_i |f(x_i)|^p)^(1/p) on the supplied grid."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if f.dimension != grid.dimension:
        raise ValueError("dimension mismatch between expansion and grid")
    vals = np.abs(f.evaluate_many(grid.nodes))
    return float(np.dot(grid.weights, vals**p) ** (1.0 / p))


@lru_cache(maxsize=None)
def _hermite_to_power(n: int) -> np.ndarray:
    """(n+1, n+1) matrix whose row j holds the monomial coefficients of h_j."""
    raw = np.zeros((n + 1, n + 1))  # physicists' H_j, integer coefficients
    raw[0, 0] = 1.0
    for j in range(n):
        raw[j + 1, 1:] = 2.0 * raw[j, :-1]
        if j >= 1:
            raw[j + 1] -= 2.0 * j * raw[j - 1]
    out = raw * np.array([_norm_factor(j) for j in range(n + 1)])[:, None]
    out.setflags(write=False)
    return out


def _real_roots_rows(c: np.ndarray) -> np.ndarray:
    """Real roots of each row's Hermite series sum_n c[t, n] h_n, ascending.

    Roots are the eigenvalues of the colleague matrix: the Jacobi matrix of
    x h_n = sqrt((n+1)/2) h_(n+1) + sqrt(n/2) h_(n-1), last row corrected by
    -sqrt(N/2) c_j / c_N.  Rows are grouped by effective degree (trailing
    coefficients <= 1e-14 of the row maximum dropped) and each group is one
    batched eigvals call.  A root is kept when |Im| <= 1e-9 (1 + |Re|) and
    |Re| <= 40 (beyond that e^(-x^2) is below e^(-1600)).  Rows with fewer
    roots are padded with +inf.
    """
    big = np.abs(c) > 1e-14 * np.max(np.abs(c), axis=1, keepdims=True)
    deg = np.where(big.any(axis=1), c.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1), 0)
    roots = np.full(c.shape, np.inf)
    for n in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == n)
        mat = np.zeros((rows.size, n, n))
        off = np.sqrt(np.arange(1, n) / 2.0)
        mat[:, np.arange(n - 1), np.arange(1, n)] = off
        mat[:, np.arange(1, n), np.arange(n - 1)] = off
        mat[:, n - 1, :] -= math.sqrt(n / 2.0) * c[rows, :n] / c[rows, n : n + 1]
        z = np.linalg.eigvals(mat)
        real = (np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))) & (np.abs(z.real) <= 40.0)
        roots[rows, :n] = np.sort(np.where(real, z.real, np.inf), axis=1)
    return roots[:, : int(np.max(np.sum(np.isfinite(roots), axis=1), initial=0))]


def _abs_moment_exact_1d(coeffs, p: int) -> tuple[np.ndarray, np.ndarray]:
    """int |g_t|^p dgamma_1 for odd integer p, for every row g_t of a (T, N+1) array.

    Row t holds the normalized Hermite coefficients of g_t.  Returns (m, e)
    with int |g_t|^p dgamma_1 = m_t 2^(p e_t), so that the norm
    m_t^(1/p) 2^(e_t) stays in range where the p-th power would underflow.
    Each row is first scaled by 2^(-e_t), which brings its largest
    |coefficient| into [1/2, 1) without rounding, so rows of tiny
    coefficients at large t keep their digits and their roots.

    |g|^p is +-g^p on each interval between real roots of g, a polynomial
    there, so each piece integrates in closed form: g^p goes to the power
    basis and int_a^b x^j e^(-x^2) dx follows the recurrence
    M_j = (a^(j-1) e^(-a^2) - b^(j-1) e^(-b^2)) / 2 + (j-1)/2 M_(j-2),
    run for all rows and intervals at once.  Every step acts on each row on
    its own, in a fixed order, so a row's value does not depend on the
    other rows.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    expo = np.frexp(np.max(np.abs(c), axis=1))[1]  # 0 for a zero row
    c = np.ldexp(c, -expo[:, None])
    basis = _hermite_to_power(c.shape[1] - 1)
    poly = c[:, :1] * basis[0]
    for j in range(1, c.shape[1]):
        poly = poly + c[:, j : j + 1] * basis[j]
    fp = poly
    for _ in range(p - 1):  # g^p by batched convolution
        prod = np.zeros((fp.shape[0], fp.shape[1] + poly.shape[1] - 1))
        for j in range(poly.shape[1]):
            prod[:, j : j + fp.shape[1]] += poly[:, j : j + 1] * fp
        fp = prod

    cuts = _real_roots_rows(c)
    lo = np.concatenate([np.full((c.shape[0], 1), -np.inf), cuts], axis=1)
    hi = np.concatenate([cuts, np.full((c.shape[0], 1), np.inf)], axis=1)
    lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
    a, b = np.where(lo_fin, lo, 0.0), np.where(hi_fin, hi, 0.0)  # no inf arithmetic below
    ea, eb = np.where(lo_fin, np.exp(-a * a), 0.0), np.where(hi_fin, np.exp(-b * b), 0.0)

    # the sign of g on each piece, read at an interior point
    x = np.where(lo_fin & hi_fin, 0.5 * (a + b), np.where(hi_fin, b - 1.0, np.where(lo_fin, a + 1.0, 0.0)))
    val = np.broadcast_to(poly[:, -1:], x.shape)
    for j in range(poly.shape[1] - 2, -1, -1):
        val = val * x + poly[:, j : j + 1]
    sign = np.where(val >= 0, 1.0, -1.0)

    m_prev, m = math.sqrt(math.pi) / 2.0 * (erf(hi) - erf(lo)), 0.5 * (ea - eb)
    piece = fp[:, :1] * m_prev
    if fp.shape[1] > 1:
        piece = piece + fp[:, 1:2] * m
    ta, tb = ea, eb  # a^(j-1) e^(-a^2), b^(j-1) e^(-b^2); a running product cannot overflow
    for j in range(2, fp.shape[1]):
        ta, tb = ta * a, tb * b
        m_prev, m = m, 0.5 * (ta - tb) + (j - 1) / 2.0 * m_prev
        piece = piece + fp[:, j : j + 1] * m
    total = np.zeros(c.shape[0])
    for i in range(piece.shape[1]):
        total = total + sign[:, i] * piece[:, i]
    return np.maximum(total, 0.0) / math.sqrt(math.pi), expo


def lp_norm(f: HermiteExpansion, p: float, grid: GaussHermiteGrid | None = None) -> float:
    """L^p(gamma_d) norm with the most accurate available route.

    p = 2 uses the coefficient norm (exact).  Even integer p uses quadrature on
    a grid exact for |f|^p = f^p.  Odd integer p in d = 1 uses closed-form
    sign-split integration (Gauss-Hermite converges poorly across the kinks of
    |f|^p): the one-row case of the batched _abs_moment_exact_1d, which
    norm_curve runs over a whole time grid.  Against a 40-digit reference on
    300 expansions of degree <= 8 per p, its worst relative error was 1.3e-15
    at p = 1, 1.1e-13 at p = 3, 1.2e-12 at p = 5 and 4.2e-12 at p = 7 (median
    about 1e-15); inputs searched for the worst case reach 1e-11 at p = 5
    and 4e-10 at p = 7.  The loss at high p is cancellation in the power
    basis of f^p.  Everything else falls back to plain quadrature on `grid`
    or a default m = 4*degree + 8 grid.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 2:
        return l2_norm_coeffs(f)
    if not f.coeffs:
        return 0.0
    p_int = int(round(p))
    if p == p_int and p_int % 2 == 0:
        m = min(max((p_int * f.degree) // 2 + 1, 2), MAX_NODES_PER_AXIS)
        g = grid if grid is not None and grid.exact_degree() >= p_int * f.degree else gauss_hermite_grid(f.dimension, m)
        return lp_norm_gamma(f, p, g)
    if p == p_int and f.dimension == 1:
        row = np.zeros(f.degree + 1)
        for nu, c in f.coeffs.items():
            row[nu[0]] = c
        m, e = _abs_moment_exact_1d(row, p_int)
        return float(np.ldexp(m[0] ** (1.0 / p_int), e[0]))
    return lp_norm_gamma(f, p, grid if grid is not None else default_grid(f))


def chaos_project(f: HermiteExpansion, n: int) -> HermiteExpansion:
    """Projection onto the order-n chaos: keep coefficients with |nu| = n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return HermiteExpansion(f.dimension, {nu: c for nu, c in f.coeffs.items() if nu.order == n})


def pi0(f: HermiteExpansion) -> HermiteExpansion:
    """Remove the mean: zero the nu = 0 coefficient, keep everything else."""
    zero = MultiIndex((0,) * f.dimension)
    return HermiteExpansion(f.dimension, {nu: c for nu, c in f.coeffs.items() if nu != zero})
