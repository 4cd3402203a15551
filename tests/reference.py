"""Independent reference values that tests compare the package against."""

import math

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad
from scipy.optimize import brentq


def quad_lp_norm_1d(coeffs, p: float, half_width: float = 12.0) -> float:
    """||g||_p,gamma_1 for g = sum_n coeffs[n] h_n by adaptive quadrature.

    Independent of the package: g is evaluated with numpy's hermval, split at
    its sign changes on [-12, 12] (bracketed on a 0.001 grid, refined by
    brentq), and |g|^p e^(-x^2) / sqrt(pi) is integrated piecewise; the mass
    beyond |x| = 12 is below e^(-140) relative.  The coefficients are scaled
    by their largest magnitude first, so tiny expansions keep their digits.
    """
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(c)))
    raw = c / scale / np.sqrt([2.0**n * math.factorial(n) for n in range(c.size)])

    def g(x):
        return hermval(x, raw)

    xs = np.linspace(-half_width, half_width, 24001)
    vals = g(xs)
    cuts = list(xs[vals == 0.0])
    cuts += [brentq(g, xs[i], xs[i + 1], xtol=1e-16) for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    val, _ = quad(
        lambda x: abs(g(x)) ** p * math.exp(-x * x),
        -half_width,
        half_width,
        points=sorted(cuts) or None,
        epsabs=0.0,
        epsrel=1e-13,
        limit=500,
    )
    return scale * (val / math.sqrt(math.pi)) ** (1.0 / p)
