"""Independent reference values that tests compare the package against."""

import math

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln


def hermite_eval(nu, x) -> float:
    """h_nu(x) for a single multi-index, independent of the package's tables.

    The raw recurrence H_(n+1) = 2x H_n - 2n H_(n-1), rescaled by a power of
    two at each step (H_200(30) ~ 1e355), its 2^e folded into
    1/sqrt(2^n n!).  The power of two brings the larger of the two values
    into [1/2, 1), so a value near a root (H_3 at x = 1e-309) cannot push the
    other to inf.
    """
    nu = tuple(int(n) for n in nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != len(nu):
        raise ValueError(f"point has dimension {x.size}, index has {len(nu)}")
    out = 1.0
    for xi, ni in zip(x, nu):
        if ni == 0:
            continue
        h_prev, h, e = 1.0, 2.0 * xi, 0
        for n in range(1, ni):
            h_prev, h = h, 2.0 * xi * h - 2.0 * n * h_prev
            s = math.frexp(max(abs(h), abs(h_prev)))[1]
            h, h_prev, e = math.ldexp(h, -s), math.ldexp(h_prev, -s), e + s
        out *= h * math.exp((e - 0.5 * ni) * math.log(2.0) - 0.5 * math.lgamma(ni + 1.0))
    return out


def quad_lp_norm_1d(coeffs, p: float) -> float:
    """||g||_p,gamma_1 for g = sum_n coeffs[n] h_n by adaptive quadrature.

    Independent of the package: g is evaluated with numpy's hermval, split at
    its sign changes on [-W, W] (bracketed on a 0.001 grid, refined by
    brentq), and (|g| e^(-x^2/p) / B)^p / sqrt(pi) is integrated piecewise,
    with B the largest |g| e^(-x^2/p) on that grid multiplied back after the
    root, so |g|^p does not overflow at high degree.  The integrand peaks
    no further out than sqrt(p deg / 2) and decays like e^(-2 (x - peak)^2)
    beyond it, so W = sqrt(p deg / 2) + 9 leaves out less than e^(-160)
    relative.  The coefficients are scaled by their largest magnitude
    first, so tiny expansions keep their digits, and the normalization
    1/sqrt(2^n n!) goes through lgamma, so it does not overflow at high
    degree.
    """
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(c)))
    n = np.arange(c.size)
    raw = c / scale * np.exp(-0.5 * (n * math.log(2.0) + gammaln(n + 1.0)))
    half_width = math.sqrt(p * (c.size - 1) / 2.0) + 9.0

    def g(x):
        return hermval(x, raw)

    xs = np.linspace(-half_width, half_width, int(2000 * half_width) + 1)
    vals = g(xs)
    cuts = list(xs[vals == 0.0])
    cuts += [brentq(g, xs[i], xs[i + 1], xtol=1e-16) for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    big = float(np.max(np.abs(vals) * np.exp(-xs * xs / p)))
    val, _ = quad(
        lambda x: (abs(g(x)) * math.exp(-x * x / p) / big) ** p,
        -half_width,
        half_width,
        points=sorted(cuts) or None,
        epsabs=0.0,
        epsrel=1e-13,
        limit=500,
    )
    return scale * big * (val / math.sqrt(math.pi)) ** (1.0 / p)
