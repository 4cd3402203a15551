"""Independent reference values that tests compare the package against."""

import math

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln


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
