"""Normalized Hermite polynomials and finite expansions under the Gaussian measure.

Everything here works with the probability measure gamma_d = exp(-|x|^2) / pi^(d/2) dx
on R^d.  The basis functions are the physicists' Hermite polynomials H_n (weight
exp(-x^2)) normalized so that

    h_nu(x) = prod_i H_{nu_i}(x_i) / sqrt(2^|nu| nu!),      <h_nu, h_mu>_gamma = delta.

Finite expansions (sparse maps multi-index -> coefficient) are the single function
representation used by the rest of the package; point samples appear only inside
quadrature loops.  _lp_norms is the one place that picks an L^p route, for a
whole table of coefficient columns and several p; lp_norm is its one-column
call and besov's norm curves run it over a time grid.  All objects are
immutable after construction and all operations are pure functions, so they
are safe to share across workers.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial, update_wrapper
from itertools import product

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "MultiIndex",
    "HermiteExpansion",
    "GaussHermiteGrid",
    "gauss_hermite_grid",
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

# The largest m at which numpy's hermgauss weights are finite and sum to
# sqrt(pi); from m = 371 its weight normalization overflows (all weights 0,
# then NaN).
MAX_NODES_PER_AXIS = 370

# Bytes of tables that each table cache keeps alive.  Every table of the
# default and wide configs fits many times over (the largest, d = 2 at
# degree 8, is about 0.6 MB); a larger result, such as the 51 MB odd-p table
# of degree 200 at p = 5, is built for its call alone.
TABLE_CACHE_BYTES = 32 * 2**20


def _nbytes(value: tuple) -> int:
    return sum(a.nbytes for a in value if isinstance(a, np.ndarray))


class _LRUCache:
    """Least-recently-used store of hashable keys, bounded by a size function.

    Values are kept, least recently used first out, while size(value) sums
    to at most budget; a value larger than budget is not kept.  held is the
    size held now, hits and misses count lookups, and a lock guards the
    store.  None is never a value: get returns it for a missing key.  Given
    fn, a pure function of hashable arguments, the cache is its memo, and fn
    runs outside the lock.
    """

    def __init__(self, budget, size=lambda value: 1, fn=None):
        if fn is not None:
            update_wrapper(self, fn)
        self._fn, self.budget, self.size = fn, budget, size
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.held = self.hits = self.misses = 0

    def __call__(self, *args):
        value = self.get(args)
        if value is None:
            value = self._fn(*args)
            self.put(args, value)
        return value

    def get(self, key):
        with self._lock:
            value = self._store.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._store.move_to_end(key)
            return value

    def put(self, key, value):
        size = self.size(value)
        with self._lock:
            if size <= self.budget and key not in self._store:
                self._store[key] = value
                self.held += size
                while self.held > self.budget:
                    self.held -= self.size(self._store.popitem(last=False)[1])

    def cache_clear(self):
        with self._lock:
            self._store.clear()
            self.held = self.hits = self.misses = 0


# memoizes a function that returns a tuple of read-only arrays
_table_cache = partial(_LRUCache, TABLE_CACHE_BYTES, _nbytes)


class MultiIndex(tuple):
    """Exponent tuple nu = (nu_1, ..., nu_d) of non-negative integers.

    Behaves like a plain tuple (hashable, comparable with tuples), with the
    total order |nu| cached.  |nu| is the spectral quantity: the number
    operator has eigenvalue -|nu| on h_nu, its square root has -sqrt(|nu|).
    """

    def __new__(cls, exponents):
        if type(exponents) is cls:  # already validated, and immutable
            return exponents
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


def _hermite_recurrence(x: np.ndarray, nmax: int):
    """Yield h_0(x), ..., h_nmax(x) elementwise, for an array x of any shape.

    h_(n+1) = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_(n-1) keeps each value at
    the size of h_n, so the values stay finite at degree 200 and beyond.
    """
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    yield h
    for n in range(nmax):
        h_next = x * h
        h_next *= math.sqrt(2.0 / (n + 1))
        h_next -= math.sqrt(n / (n + 1)) * h_prev
        h_prev, h = h, h_next
        yield h


def hermite_values_1d(xs, nmax: int) -> np.ndarray:
    """Table of normalized 1-d Hermite values, shape xs.shape + (nmax+1,), by _hermite_recurrence."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.stack(list(_hermite_recurrence(xs, nmax)), axis=-1)


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


@_table_cache
def _basis_table(indices: tuple, grid: GaussHermiteGrid) -> tuple[np.ndarray, np.ndarray]:
    """basis_matrix(indices, grid.nodes) and its column bound max_i |phi[i, j]|, both read-only.

    Cached per index tuple, in the caller's order (so no sum over it is
    reordered), and per grid object: grids compare by identity, and
    gauss_hermite_grid hands every caller the same one.
    """
    phi = basis_matrix(indices, grid.nodes)
    bound = np.max(np.abs(phi), axis=0)
    phi.setflags(write=False)
    bound.setflags(write=False)
    return phi, bound


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
    reproducible; weights sum to 1.  A grid's nodes must not change after
    it is built: basis tables on it are cached per grid object.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=32)
def gauss_hermite_grid(d: int, m: int) -> GaussHermiteGrid:
    """Build the m-point-per-axis rule for gamma_d.

    The 1-d nodes/weights come from the symmetric tridiagonal (Golub-Welsch)
    eigenproblem for the exp(-x^2) weight; weights are divided by sqrt(pi) so
    they sum to 1.  Tensorized to d dimensions: m^d nodes.  Grids are cached
    and shared by every caller, so nodes and weights are read-only.
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
        nodes, weights = x1.reshape(-1, 1), w1
    else:
        nodes = np.array(list(product(x1, repeat=d)))
        weights = w1
        for _ in range(d - 1):
            weights = np.outer(weights, w1).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussHermiteGrid(d, nodes, weights)


def _even_integer(p: float) -> bool:
    """p is an even integer: |v|^p = v^p, a polynomial, with no |.| to take."""
    return float(p).is_integer() and p % 2 == 0


def _odd_exact(p: float, dimension: int) -> bool:
    """p is an odd integer in dimension 1: the route of _abs_moment_exact_1d, pieces between the real roots."""
    return float(p).is_integer() and p % 2 == 1 and dimension == 1


def _grid_size(degree: int, p: float) -> int:
    """Nodes per axis for |f|^p with deg f = degree.

    At even integer p, |f|^p = f^p has degree p*degree and the m-point rule
    integrates degree 2m - 1 exactly, so m = p*degree/2 + 1 is exact; an m
    beyond MAX_NODES_PER_AXIS raises ValueError rather than lose exactness.
    Any other p gets m = 4*degree + 8 (at least 13), a rule for a
    non-polynomial integrand, capped at MAX_NODES_PER_AXIS.
    """
    if _even_integer(p):
        m = max(int(p) * degree // 2 + 1, 2)
        if m > MAX_NODES_PER_AXIS:
            raise ValueError(
                f"the exact L^{p:g} norm of degree {degree} needs {m} Gauss-Hermite nodes per axis,"
                f" beyond the cap {MAX_NODES_PER_AXIS}"
            )
        return m
    return min(max(4 * degree + 8, 13), MAX_NODES_PER_AXIS)


def default_grid(f: HermiteExpansion, p: float) -> GaussHermiteGrid:
    """The shared grid for |f|^p: exact at even integer p, m = 4*degree + 8 otherwise (_grid_size)."""
    return gauss_hermite_grid(f.dimension, _grid_size(f.degree, p))


def inner_product_gamma(f: HermiteExpansion, g: HermiteExpansion) -> float:
    """<f, g>_gamma by quadrature on the smallest exact grid.

    The m-point rule integrates degree 2m - 1 exactly, so m = (deg f + deg g)//2 + 1
    nodes per axis reproduce the sum of coefficient products up to rounding.
    """
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch between expansions")
    grid = gauss_hermite_grid(f.dimension, max((f.degree + g.degree) // 2 + 1, 2))
    return float(np.dot(grid.weights, f.evaluate_many(grid.nodes) * g.evaluate_many(grid.nodes)))


def l2_norm_coeffs(f: HermiteExpansion) -> float:
    """Coefficient ell^2 norm, the exact L^2(gamma_d) norm by orthonormality."""
    return math.sqrt(sum(c * c for c in f.coeffs.values()))


def _check_p(p: float):
    """The one check on an integrability exponent: a finite p >= 1 (NaN is refused too)."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got p = {p}")


def _abs_pow(v: np.ndarray, p: float, scratch: np.ndarray | None = None, absolute: bool = False) -> np.ndarray:
    """|v|^p in scratch (v's shape, allocated if not given), or in v at p = 1; returns the one that holds it.

    Unless p is an even integer, v, which the caller owns, is first made |v|
    in place; absolute=True says it already is, so several p of one v share
    that pass.  Integer p >= 2 forms v v in scratch, then multiplies by v
    p - 2 more times: ((v v) v) ..., within p - 1 roundings of the correctly
    rounded power, and several times faster than the float power.  At even p
    the signs need no |.|: rounding to nearest is symmetric in sign, so each
    product has the bits of ((|v| |v|) |v|) ....  Any other p takes
    np.power of |v| into scratch, which leaves |v| in v for the next p.
    """
    if not (absolute or _even_integer(p)):
        np.abs(v, out=v)
    if p == 1:
        return v
    power = np.empty_like(v) if scratch is None else scratch
    if float(p).is_integer():
        np.multiply(v, v, out=power)
        for _ in range(int(p) - 2):
            power *= v
    else:
        np.power(v, p, out=power)
    return power


# Columns per block of _quadrature_norms: 400 KB of values at d = 2, degree 8
# (1600 nodes) stay in a 4 MiB L2 through |.|^p and the sum, where the whole
# (nodes, T) table, 11 MB at T = 840, streams from memory.
TIME_BLOCK = 32


def _quadrature_norms(phi: np.ndarray, bound: np.ndarray, coef: np.ndarray, ps, weights: np.ndarray) -> np.ndarray:
    """(weights @ |phi @ coef[:, t]|^p)^(1/p) for every p in ps and every column t of an (S, T) coefficient table.

    Returns a (len(ps), T) array, one row per p.  phi is the (nodes, S)
    basis table of a Gauss-Hermite grid, bound its column bound
    max_i |phi[i, j]| (both from _basis_table) and weights are the grid's
    weights: the one Gauss-Hermite |f|^p sum of the package.  Column t is
    scaled by 2^(-e_t), which brings the bound sum_j |coef[j, t]| bound[j] on
    its values into [1/2, 1) without rounding, and its norm is scaled back
    by 2^(e_t): every value is at most 1 in size, so neither the values nor
    their p-th powers overflow at high degree, and tiny columns do not
    underflow.  The columns go in blocks of TIME_BLOCK, in two buffers
    allocated once per call, so memory does not grow with T.  Each block
    forms its values V = phi @ coef once; the even p take their powers of V
    first, then one pass makes V = |V| for all the other p (_abs_pow).  Each
    p gets its own powers and weighted sum, with the bits of a call for that
    p alone.
    """
    expo = np.frexp(bound @ np.abs(coef))[1]  # 0 for a zero column
    coef = np.ldexp(coef, -expo)
    # The last block takes the remainder (TIME_BLOCK to 2 TIME_BLOCK - 1 columns):
    # OpenBLAS's gemv sums 1 to 3 columns in another order than the same
    # columns of a wider block, and numpy multiplies 1 column by gemv.
    cols = coef.shape[1]
    edges = [0, *range(TIME_BLOCK, cols - TIME_BLOCK + 1, TIME_BLOCK), cols]
    n = weights.size
    size = n * max(np.diff(edges))
    flat, scratch, out = np.empty(size), np.empty(size), np.empty((len(ps), cols))
    order = sorted(range(len(ps)), key=lambda i: not _even_integer(ps[i]))  # even p first
    evens = sum(map(_even_integer, ps))
    for a, b in zip(edges, edges[1:]):
        vals = flat[: n * (b - a)].reshape(n, b - a)  # C-contiguous, unlike a column slice
        np.matmul(phi, coef[:, a:b], out=vals)
        power = scratch[: vals.size].reshape(vals.shape)
        for j, i in enumerate(order):  # vals holds |V| after the first p that is not even
            out[i, a:b] = weights @ _abs_pow(vals, ps[i], power, absolute=j > evens)
    for row, p in zip(out, ps):
        row **= 1.0 / p
    return np.ldexp(out, expo, out=out)


def lp_norm_gamma(f: HermiteExpansion, p: float, grid: GaussHermiteGrid) -> float:
    """(sum_i w_i |f(x_i)|^p)^(1/p) on the supplied grid: the one-p, one-column call of _quadrature_norms."""
    _check_p(p)
    if f.dimension != grid.dimension:
        raise ValueError("dimension mismatch between expansion and grid")
    coef = np.fromiter(f.coeffs.values(), float, len(f.coeffs)).reshape(-1, 1)
    return float(_quadrature_norms(*_basis_table(tuple(f.coeffs), grid), coef, (p,), grid.weights)[0, 0])


def _real_roots_rows(c: np.ndarray, bound: float) -> np.ndarray:
    """Real roots in [-bound, bound] of each row's Hermite series sum_n c[t, n] h_n, ascending.

    Roots are the eigenvalues of the colleague matrix: the Jacobi matrix of
    x h_n = sqrt((n+1)/2) h_(n+1) + sqrt(n/2) h_(n-1), last row corrected by
    -sqrt(N/2) c_j / c_N, one batched eigvals call per effective degree
    (trailing coefficients <= 1e-14 of the row maximum dropped).  A root is
    kept when |Im| <= 1e-9 (1 + |Re|); missing ones are padded with bound.
    An eigenvalue is off by about eps |c_(N-1) / c_N|, large when c_N only
    just passes the trim, so each root takes one Newton step (h_j' =
    sqrt(2j) h_(j-1)) unless the step is 1 or more or g' vanishes.
    """
    big = np.abs(c) > 1e-14 * np.max(np.abs(c), axis=1, keepdims=True)
    big[:, 0] = True  # a zero row has degree 0
    deg = c.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1)
    roots = np.full(c.shape, float(bound))
    for n in set(deg.tolist()) - {0}:
        rows = np.flatnonzero(deg == n)
        off = np.sqrt(np.arange(1, n) / 2.0)
        mat = np.repeat((np.diag(off, 1) + np.diag(off, -1))[None], rows.size, axis=0)
        mat[:, n - 1, :] -= math.sqrt(n / 2.0) * c[rows, :n] / c[rows, n : n + 1]
        z = np.linalg.eigvals(mat)
        real = (np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))) & (np.abs(z.real) < bound)
        roots[rows, :n] = np.sort(np.where(real, z.real, bound), axis=1)
    roots = roots[:, : int(np.max(np.sum(roots < bound, axis=1), initial=0))]
    tab = hermite_values_1d(roots, c.shape[1] - 1)
    g = np.einsum("trj,tj->tr", tab, c)
    dg = np.einsum("trj,tj->tr", tab[..., :-1], c[:, 1:] * np.sqrt(2.0 * np.arange(1, c.shape[1])))
    step = np.divide(g, dg, out=np.zeros_like(g), where=(roots < bound) & (np.abs(g) < np.abs(dg)))
    return np.sort(np.clip(roots - step, -bound, bound), axis=1)


def _power_dot(v: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """sum_q v[..., q]^p w[q] for a positive integer p (signed at odd p), by p - 1 multiplications."""
    vp = v * v if p > 1 else v
    for _ in range(p - 2):
        vp *= v
    return np.einsum("...q,q->...", vp, w)


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_m(x), P_m'(x)) for x in (-1, 1), by (j+1) P_(j+1) = (2j+1) x P_j - j P_(j-1), m >= 1."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, m * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights summing to 2.

    Newton on P_m for the nonnegative roots (0 exactly at odd m), from
    cos(pi (i - 1/4) / (m + 1/2)), i = 1..ceil(m/2), stops after the first
    step that moves no root by more than 1e-15: convergence is quadratic, so
    what is left is rounding.  The negative roots are mirror images.  The
    weights 2 / ((1 - x^2) P_m'(x)^2) take P_m' at the final nodes.  Against
    40-digit mpmath the nodes are within 1e-16 and the weights within 1.1e-15,
    4.3e-14, 1.2e-13 and 2.2e-12 relative at m = 12, 44, 100 and 508.
    """
    x = np.cos(math.pi * (np.arange(1, (m + 1) // 2 + 1) - 0.25) / (m + 0.5))
    x[m // 2 :] = 0.0  # the middle root of odd m
    for _ in range(100):
        p, dp = _legendre(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * _legendre(m, x)[1] ** 2)
    return np.concatenate([-x[: m // 2], x[::-1]]), np.concatenate([w[: m // 2], w[::-1]])


@_table_cache
def _unit_pieces(n: int, p: int):
    """Gauss-Legendre rule on the unit pieces of [-L, L] for g^p dgamma_1, deg g = n.

    L = ceil(sqrt(p n / 2) + 8) covers the peak of |g|^p e^(-x^2) and its
    Gaussian fall-off; floor((p n + 1)/2) + 8 nodes per piece are exact for
    g^p with 16 degrees to spare for the weight.  Returns L, the rule (s, w)
    on [0, 1] (w over sqrt(pi)) and the (n+1, 2L * nodes) table of
    h_j(x) e^(-x^2/p) at the nodes in order: (row @ table)^p @ w, one piece
    at a time, is the row's signed integral of g^p dgamma_1 there.  Cached
    and shared within TABLE_CACHE_BYTES, so read-only.
    """
    half = math.ceil(math.sqrt(p * n / 2.0) + 8.0)
    s, w = _gauss_legendre((p * n + 1) // 2 + 8)
    s, w = (s + 1.0) / 2.0, w / (2.0 * math.sqrt(math.pi))
    x = (np.arange(-half, half)[:, None] + s).ravel()
    table = np.fromiter(_hermite_recurrence(x, n), np.dtype((float, x.size)), n + 1)
    table *= np.exp(-x * x / p)
    for a in (s, w, table):
        a.setflags(write=False)
    return half, s, w, table


def _abs_moment_exact_1d(coeffs, p: int) -> tuple[np.ndarray, np.ndarray]:
    """int |g_t|^p dgamma_1 for odd integer p, for every row g_t of a (T, N+1) array.

    Row t holds the normalized Hermite coefficients of g_t.  Returns (m, e)
    with int |g_t|^p dgamma_1 = m_t 2^(p e_t): each row is scaled without
    rounding by a power of two that brings its largest |coefficient| into
    [1/2, 1), then by one that does the same for its largest g e^(-x^2/p)
    at the nodes, so the p-th powers neither underflow nor overflow.

    Every weight is positive.  One shared table (_unit_pieces) gives the
    signed integrals of g^p over the unit pieces of [-L, L] for all rows in
    one contraction; their suffix sums are F(k) = int_k^L g^p dgamma_1.  Each
    real root r (_real_roots_rows) adds a Gauss-Legendre piece [r, ceil(r)]
    of its own to complete F(r).  g has one sign between consecutive cuts
    -L <= r_1 <= ... <= r_R <= L, so int |g|^p dgamma_1 is the sum of
    |F(cut_i) - F(cut_(i+1))|: no sign is read, an extra cut changes
    nothing, and no sum cancels beyond a few roundings per piece.  The
    contractions are einsum loops, not BLAS, so a row's value does not
    depend on the other rows.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    rows, n = c.shape[0], c.shape[1] - 1
    half, s, w, table = _unit_pieces(n, p)
    expo = np.frexp(np.max(np.abs(c), axis=1))[1]  # 0 for a zero row
    c = np.ldexp(c, -expo[:, None])
    vals = np.einsum("tj,jk->tk", c, table)
    scale = np.frexp(np.max(np.abs(vals), axis=1))[1]
    np.ldexp(vals, -scale[:, None], out=vals)
    tail = np.zeros((rows, 2 * half + 1))  # F at the cuts -L, ..., L
    tail[:, :-1] = np.cumsum(_power_dot(vals.reshape(rows, 2 * half, s.size), w, p)[:, ::-1], axis=1)[:, ::-1]
    r = _real_roots_rows(c, half)
    top = np.ceil(r)
    x = r[..., None] + (top - r)[..., None] * s
    g = np.zeros_like(x)
    for j, h in enumerate(_hermite_recurrence(x, n)):
        g += c[:, j, None, None] * h
    g *= np.exp(x * x * (-1.0 / p))
    np.ldexp(g, -scale[:, None, None], out=g)
    at_roots = (top - r) * _power_dot(g, w, p) + tail[np.arange(rows)[:, None], (top + half).astype(int)]
    cuts = np.concatenate([tail[:, :1], at_roots, tail[:, -1:]], axis=1)
    # a sequential sum: the padded cuts add zeros last, whatever the batch's width
    return np.cumsum(np.abs(np.diff(cuts, axis=1)), axis=1)[:, -1], expo + scale


def _lp_norms(f: HermiteExpansion, indices, coef: np.ndarray, ps, grid=None, moments=None) -> np.ndarray:
    """L^p(gamma_d) norms of the columns of an (S, T) coefficient table, for every p in ps: a (len(ps), T) array.

    Column t holds the coefficients over indices (S multi-indices in any
    order) of an expansion in f's dimension of degree at most f.degree: f
    itself, or an operator applied to it, such as a Poisson orbit derivative
    at one time node per column.  This is the one place that picks a p's
    route; lp_norm and besov's norm curves both call it.

    * p = 2: the coefficient norm, exact by orthonormality.
    * Odd integer p in d = 1 (_odd_exact): int |g|^p dgamma_1 between the
      real roots of each column, with positive-weight Gauss-Legendre pieces
      (_abs_moment_exact_1d), where Gauss-Hermite converges poorly across
      the kinks of |g|^p.  No sum cancels, so the error does not grow with p
      or degree: a search for the worst input of degree <= 8 found at most
      1.6e-15 relative for p = 1, 3, 5, 7, and degrees 16 to 40 stay within
      1e-14.  A column's value depends on f.degree, which sizes the pieces,
      and not on the other columns.
    * Every other p: Gauss-Hermite quadrature (_quadrature_norms) on the
      grid of _grid_size(f.degree, p): exact for |g|^p = g^p at even p
      (m = p*degree/2 + 1 nodes per axis, ValueError beyond
      MAX_NODES_PER_AXIS), m = 4*degree + 8 otherwise (odd p in d = 2,
      non-integer p).  The ps that share a grid share one call, so one basis
      product and one |.| pass serve them all.  BLAS may round a one-column
      product differently from a wider one, so lp_norm passes its expansion
      as one column, in its own coefficient order.

    Every route scales each column by a power of two and its norms back, so
    large t does not underflow and high degree does not overflow: p = 2
    brings a column's largest |coefficient| into [1/2, 1), the other routes
    scale in their kernels.  coef is not written.  A zero column, or an
    empty support, has norm 0.

    grid(f, p) and moments(rows, p), when given, replace the quadrature grid
    lookup and _abs_moment_exact_1d.  besov hands in its own bindings of
    default_grid and _abs_moment_exact_1d so that perfbench's route tests,
    which spy on those, see a norm curve's route; without them even p take
    gauss_hermite_grid's exact grid and the other quadrature ps
    default_grid(f, p), the calls by which those tests tell lp_norm's
    routes apart.  Both knobs and the even-p lookup serve only those spies.
    """
    norms = np.empty((len(ps), coef.shape[1]))
    on_grid = {}  # grid -> indices of the ps that take quadrature on it
    for i, p in enumerate(ps):
        if p == 2:
            expo = np.frexp(np.max(np.abs(coef), axis=0, initial=0.0))[1]  # 0 for a zero column
            squares = np.ldexp(coef, -expo)
            squares *= squares
            norms[i] = np.ldexp(np.sqrt(np.sum(squares, axis=0)), expo)
        elif _odd_exact(p, f.dimension):
            rows = np.zeros((coef.shape[1], f.degree + 1))
            rows[:, [nu[0] for nu in indices]] = coef.T
            m, e = (moments or _abs_moment_exact_1d)(rows, int(p))
            norms[i] = np.ldexp(m ** (1.0 / int(p)), e)
        elif grid is not None:
            on_grid.setdefault(grid(f, p), []).append(i)
        elif _even_integer(p):
            on_grid.setdefault(gauss_hermite_grid(f.dimension, _grid_size(f.degree, p)), []).append(i)
        else:
            on_grid.setdefault(default_grid(f, p), []).append(i)
    for g, rows in on_grid.items():
        norms[rows] = _quadrature_norms(*_basis_table(tuple(indices), g), coef, [ps[i] for i in rows], g.weights)
    return norms


def lp_norm(f: HermiteExpansion, p: float) -> float:
    """L^p(gamma_d) norm on the most accurate route: the one-column call of _lp_norms, whose docstring lists the routes.

    p = 2 takes l2_norm_coeffs directly, without building a table.
    """
    _check_p(p)
    if p == 2:
        return l2_norm_coeffs(f)
    coef = np.fromiter(f.coeffs.values(), float, len(f.coeffs)).reshape(-1, 1)
    return float(_lp_norms(f, tuple(f.coeffs), coef, (p,))[0, 0])


def chaos_project(f: HermiteExpansion, n: int) -> HermiteExpansion:
    """Projection onto the order-n chaos: keep coefficients with |nu| = n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return HermiteExpansion(f.dimension, {nu: c for nu, c in f.coeffs.items() if nu.order == n})


def pi0(f: HermiteExpansion) -> HermiteExpansion:
    """Remove the mean: zero the nu = 0 coefficient, keep everything else."""
    zero = MultiIndex((0,) * f.dimension)
    return HermiteExpansion(f.dimension, {nu: c for nu, c in f.coeffs.items() if nu != zero})
