import math
from functools import partial

import pytest

from gausscalc import (
    HermiteExpansion,
    bessel_derivative,
    bessel_potential,
    ou_spectral,
    ph_spectral,
    riesz_derivative,
    riesz_potential,
    time_derivative,
)


@pytest.mark.parametrize(
    "mult,n,want",
    [
        (partial(ou_spectral, t=0.5), 4, math.exp(-2.0)),
        (partial(ph_spectral, t=0.5), 4, math.exp(-1.0)),
        (partial(time_derivative, t=1.0, k=1), 4, -2.0 * math.exp(-2.0)),
        (partial(time_derivative, t=1.0, k=2), 4, 4.0 * math.exp(-2.0)),
        (partial(time_derivative, t=0.3, k=0), 0, 1.0),
        (partial(riesz_potential, beta=2.0), 4, 0.25),
        (partial(riesz_potential, beta=2.0), 0, 0.0),
        (partial(bessel_potential, beta=3.0), 4, 1.0 / 27.0),
        (partial(bessel_potential, beta=3.0), 0, 1.0),
        (partial(riesz_derivative, beta=1.0), 9, 3.0),
        (partial(riesz_derivative, beta=1.0), 0, 0.0),
        (partial(bessel_derivative, beta=2.0), 4, 9.0),
    ],
)
def test_multiplier_table(mult, n, want):
    """Each operator scales the coefficient of h_n by its order-n multiplier."""
    assert abs(mult(HermiteExpansion.basis((n,))).coefficient((n,)) - want) < 1e-15


def test_poisson_deriv_kills_constants_for_positive_k():
    assert time_derivative(HermiteExpansion.constant(1, 1.0), 1.0, 3).coefficient((0,)) == 0.0


def test_apply_maps_coefficients():
    f = HermiteExpansion(1, {(0,): 1.0, (2,): 2.0})
    g = ou_spectral(f, 1.0)
    assert g.coefficient((0,)) == 1.0
    assert abs(g.coefficient((2,)) - 2.0 * math.exp(-2.0)) < 1e-15
