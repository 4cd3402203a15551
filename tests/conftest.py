import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad
from scipy.optimize import brentq

from gausscalc import HermiteExpansion, gauss_hermite_grid, gen_family


@pytest.fixture(scope="session")
def grid1d():
    return gauss_hermite_grid(1, 40)


@pytest.fixture(scope="session")
def grid2d():
    return gauss_hermite_grid(2, 13)


@pytest.fixture(scope="session")
def family1d():
    return gen_family(seed=7, d=1, M=20, N=8)


@pytest.fixture(scope="session")
def family2d():
    return gen_family(seed=7, d=2, M=10, N=8)


@pytest.fixture
def h(request):
    """Shorthand basis factory: h((2,)) etc."""
    return HermiteExpansion.basis


@pytest.fixture(scope="session")
def mixed1d():
    # fixed mixed expansion used across modules: orders 0, 1, 2, 4
    return HermiteExpansion(1, {(0,): 0.5, (1,): -1.0, (2,): 0.75, (4,): 0.3})


def rng(stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((1234, stream))))


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
