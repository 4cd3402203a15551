import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from gausscalc import (
    HermiteExpansion,
    TruncationWarning,
    bessel_derivative,
    bessel_derivative_integral,
    bessel_potential,
    bessel_potential_integral,
    c_beta,
    c_beta_k,
    derivative_constants,
    forward_difference,
    l2_norm_coeffs,
    log_time_rule,
    pi0,
    riesz_derivative,
    riesz_derivative_integral,
    riesz_potential,
    riesz_potential_integral,
)
from gausscalc.timequad import TimeQuadrature

H0 = HermiteExpansion.constant(1, 1.0)
H1 = HermiteExpansion.basis((1,))
H4 = HermiteExpansion.basis((4,))
H9 = HermiteExpansion.basis((9,))
MIX = HermiteExpansion(1, {(0,): 0.4, (1,): 1.0, (2,): -0.8, (4,): 0.5, (7,): -0.25})

BETAS = (0.3, 0.5, 0.9, 1.5, 2.5)


def rel_coeff_err(got, want):
    worst = 0.0
    for nu, c in want.coeffs.items():
        worst = max(worst, abs(got.coefficient(nu) - c) / abs(c))
    for nu in got.coeffs:
        assert nu in want.coeffs or abs(got.coefficient(nu)) < 1e-12
    return worst


# -- orders and constants -----------------------------------------------------------


@pytest.mark.parametrize("beta,k", [(0.3, 1), (0.5, 1), (0.99, 1), (1.0, 2), (1.5, 2), (2.5, 3), (3.0, 4)])
def test_k_rep_is_smallest_integer_strictly_greater(beta, k):
    consts = derivative_constants(beta)
    assert consts.k == k
    assert consts.k - 1 <= beta < consts.k


@pytest.mark.parametrize("beta", (0.0, -0.5))
def test_derivative_constants_reject_nonpositive(beta):
    with pytest.raises(ValueError, match="beta must be > 0"):
        derivative_constants(beta)


def test_c_half_is_minus_two_sqrt_pi():
    # int u^(-3/2)(e^-u - 1) du equals the analytically continued Gamma(-1/2)
    assert abs(c_beta(0.5) - (-2.0 * math.sqrt(math.pi))) < 1e-7


@pytest.mark.parametrize("beta", (0.1, 0.3, 0.5, 0.7, 0.9))
def test_c_beta_matches_gamma_and_is_negative(beta):
    val = c_beta(beta)
    assert val < 0.0
    assert abs(val - gamma_fn(-beta)) / abs(gamma_fn(-beta)) < 1e-9


@pytest.mark.parametrize("beta", (0.95, 0.98, 0.99, 0.999))
def test_c_beta_near_one_matches_gamma(beta):
    # k - beta below 0.1: the default window is capped and the head added in closed form
    val = c_beta_k(beta, 1)
    assert math.isfinite(val)
    assert abs(val - gamma_fn(-beta)) / abs(gamma_fn(-beta)) < 1e-9


def test_c_beta_k_reduces_to_c_beta():
    assert c_beta_k(0.4, 1) == c_beta(0.4)


@pytest.mark.parametrize("beta,k", [(0.5, 2), (1.5, 2), (1.5, 3), (2.5, 3), (2.2, 4)])
def test_c_beta_k_sign_alternates(beta, k):
    assert math.copysign(1.0, c_beta_k(beta, k)) == (-1.0) ** k


def test_c_beta_k_rejects_k_not_above_beta():
    with pytest.raises(ValueError):
        c_beta_k(1.5, 1)
    with pytest.raises(ValueError):
        c_beta(1.2)


def test_derivative_constants_bundle():
    dc = derivative_constants(0.5)
    assert dc.k == 1 and dc.c_beta == dc.c_beta_k
    dc2 = derivative_constants(1.5)
    assert dc2.k == 2 and dc2.c_beta is None and dc2.c_beta_k > 0


# -- spectral multipliers ---------------------------------------------------------------


def test_riesz_potential_examples():
    assert abs(riesz_potential(H4, 2.0).coefficient((4,)) - 0.25) < 1e-15
    assert riesz_potential(H0, 1.0).coeffs == {}
    assert riesz_potential(H1, 1.0) == H1
    with pytest.raises(ValueError):
        riesz_potential(H1, 0.0)


def test_bessel_potential_examples():
    assert abs(bessel_potential(H4, 3.0).coefficient((4,)) - 1.0 / 27.0) < 1e-15
    assert bessel_potential(H0, 5.0) == H0
    # beta -> 0+: multiplier tends to 1 for every order
    near = bessel_potential(MIX, 1e-12)
    assert l2_norm_coeffs(near - MIX) < 1e-10


def test_riesz_derivative_examples():
    assert abs(riesz_derivative(H9, 1.0).coefficient((9,)) - 3.0) < 1e-15
    assert riesz_derivative(H0, 0.5).coeffs == {}


def test_bessel_derivative_examples():
    assert abs(bessel_derivative(H4, 2.0).coefficient((4,)) - 9.0) < 1e-15
    assert bessel_derivative(H0, 2.0) == H0


@pytest.mark.parametrize("beta", BETAS)
def test_inversion_identity(beta):
    target = pi0(MIX)
    norm = l2_norm_coeffs(MIX)
    assert l2_norm_coeffs(riesz_derivative(riesz_potential(MIX, beta), beta) - target) <= 1e-12 * norm
    assert l2_norm_coeffs(riesz_potential(riesz_derivative(MIX, beta), beta) - target) <= 1e-12 * norm


@pytest.mark.parametrize("beta", BETAS)
def test_bessel_reciprocal(beta):
    assert l2_norm_coeffs(bessel_derivative(bessel_potential(MIX, beta), beta) - MIX) <= 1e-12


@settings(max_examples=20)
@given(st.floats(-5, 5, allow_nan=False), st.floats(0.2, 2.5))
def test_operators_are_linear(scalar, beta):
    lhs = riesz_derivative(scalar * MIX, beta)
    rhs = scalar * riesz_derivative(MIX, beta)
    assert l2_norm_coeffs(lhs - rhs) <= 1e-12 * max(1.0, abs(scalar))


# -- integral representations -------------------------------------------------------------


def test_riesz_potential_integral_single_chaos():
    # Gamma law: (1/Gamma(2)) int t e^(-2t) dt = 1/4
    got = riesz_potential_integral(H4, 2.0).coefficient((4,))
    assert abs(got - 0.25) < 1e-8


def test_riesz_potential_integral_kills_constants():
    assert riesz_potential_integral(H0, 1.3).coeffs == {}


def test_riesz_potential_integral_matches_spectral():
    got = riesz_potential_integral(MIX, 1.0)
    assert rel_coeff_err(got, riesz_potential(MIX, 1.0)) < 1e-8


def test_bessel_potential_integral_single_chaos():
    got = bessel_potential_integral(H4, 3.0).coefficient((4,))
    assert abs(got - 1.0 / 27.0) < 1e-9


def test_bessel_potential_integral_constant():
    got = bessel_potential_integral(H0, 0.7).coefficient((0,))
    assert abs(got - 1.0) < 1e-9


def test_bessel_potential_integral_matches_spectral():
    got = bessel_potential_integral(MIX, 0.5)
    assert rel_coeff_err(got, bessel_potential(MIX, 0.5)) < 1e-8


@pytest.mark.parametrize("n,beta,want", [(1, 0.5, 1.0), (4, 0.5, math.sqrt(2.0)), (9, 0.5, 9.0**0.25)])
def test_riesz_derivative_integral_below_one(n, beta, want):
    got = riesz_derivative_integral(HermiteExpansion.basis((n,)), beta).coefficient((n,))
    assert abs(got - want) / want < 1e-7


def test_riesz_derivative_integral_k2_example():
    got = riesz_derivative_integral(H4, 1.5).coefficient((4,))
    assert abs(got - 2.0**1.5) < 1e-6


def test_riesz_derivative_parts_form():
    got = riesz_derivative_integral(H1, 0.5, form="parts").coefficient((1,))
    assert abs(got - 1.0) < 1e-8
    with pytest.raises(ValueError):
        riesz_derivative_integral(H1, 1.5, form="parts")
    with pytest.raises(ValueError):
        riesz_derivative_integral(H1, 0.5, form="simpson")


def test_bessel_derivative_integral_examples():
    got = bessel_derivative_integral(H4, 0.5).coefficient((4,))
    assert abs(got - math.sqrt(3.0)) < 1e-7
    const = bessel_derivative_integral(H0, 0.5).coefficient((0,))
    assert abs(const - 1.0) < 1e-8
    mixed = bessel_derivative_integral(MIX, 1.25)
    assert rel_coeff_err(mixed, bessel_derivative(MIX, 1.25)) < 1e-6


@pytest.mark.parametrize("beta", BETAS)
def test_all_integral_paths_match_spectral(beta, family1d):
    for f in family1d[:4]:
        assert rel_coeff_err(riesz_potential_integral(f, beta), riesz_potential(f, beta)) < 1e-6
        assert rel_coeff_err(bessel_potential_integral(f, beta), bessel_potential(f, beta)) < 1e-6
        assert rel_coeff_err(riesz_derivative_integral(f, beta), riesz_derivative(f, beta)) < 1e-6
        assert rel_coeff_err(bessel_derivative_integral(f, beta), bessel_derivative(f, beta)) < 1e-6


def test_riesz_derivative_integral_near_integer_order():
    got = riesz_derivative_integral(H4, 0.99)
    assert all(math.isfinite(c) for c in got.coeffs.values())
    assert rel_coeff_err(got, riesz_derivative(H4, 0.99)) < 1e-6


@pytest.mark.parametrize(
    "integral,spectral,beta",
    [
        (riesz_potential_integral, riesz_potential, 0.02),
        (bessel_potential_integral, bessel_potential, 0.02),
        (lambda f, beta: riesz_derivative_integral(f, beta, form="parts"), riesz_derivative, 0.98),
        (bessel_derivative_integral, bessel_derivative, 1.99),
    ],
    ids=["riesz-potential", "bessel-potential", "riesz-parts", "bessel-derivative"],
)
def test_integral_paths_at_capped_windows(integral, spectral, beta):
    # each default window would reach t^(-1) overflow; capped, the dropped head is closed-form
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        got = integral(MIX, beta)
    assert rel_coeff_err(got, spectral(MIX, beta)) < 1e-6


def test_narrow_rule_warns():
    narrow = TimeQuadrature("log_uniform", -3.0, 2.0, 64)
    with pytest.warns(TruncationWarning):
        riesz_potential_integral(H4, 0.5, tq=narrow)
    with pytest.warns(TruncationWarning):
        riesz_derivative_integral(H4, 0.5, tq=narrow)


@pytest.mark.parametrize(
    "integral",
    [
        riesz_potential_integral,
        bessel_potential_integral,
        riesz_derivative_integral,
        bessel_derivative_integral,
        lambda f, beta, tq: riesz_derivative_integral(f, beta, tq, form="parts"),
    ],
    ids=["riesz-potential", "bessel-potential", "riesz-derivative", "bessel-derivative", "riesz-parts"],
)
def test_truncation_warning_points_at_the_caller(integral):
    narrow = TimeQuadrature("log_uniform", -3.0, 2.0, 64)
    with pytest.warns(TruncationWarning) as record:
        integral(H4, 0.5, narrow)
    assert {w.filename for w in record} == {__file__}


def test_integral_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        riesz_potential_integral(H4, -1.0)


# -- forward differences --------------------------------------------------------------------


def test_forward_difference_k1_is_increment():
    g = math.sin
    s, t = 0.3, 1.1
    assert abs(forward_difference(g, s, 1, t) - (math.sin(t + s) - math.sin(t))) < 1e-15


@settings(max_examples=40)
@given(st.floats(0.01, 3.0), st.floats(-5.0, 5.0))
def test_forward_difference_exact_on_squares(s, t):
    val = forward_difference(lambda u: u * u, s, 2, t)
    assert abs(val - 2.0 * s * s) <= 1e-12 * max(1.0, s * s, abs(t))


def test_forward_difference_rejects_k0():
    with pytest.raises(ValueError):
        forward_difference(math.exp, 0.1, 0)


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (9, 3)])
def test_semigroup_power_equals_orbit_difference(n, k):
    # (P_s - I)^k acts per order through the k-th difference of e^(-t sqrt(n))
    s = 0.45
    lam = math.sqrt(n)
    via_difference = forward_difference(lambda u: math.exp(-u * lam), s, k, 0.0)
    assert abs(via_difference - (math.exp(-s * lam) - 1.0) ** k) < 1e-13


@pytest.mark.parametrize("k", (2, 3, 4))
def test_differences_compose(k):
    # Delta_s^k(g, t) = Delta_s(Delta_s^(k-1)(g, .), t)
    g = lambda u: math.sin(0.9 * u) + 0.2 * u
    s, t = 0.37, 1.4
    inner = lambda v: forward_difference(g, s, k - 1, v)
    assert abs(forward_difference(g, s, k, t) - forward_difference(inner, s, 1, t)) < 1e-12


@pytest.mark.parametrize("k", (1, 2, 3))
def test_difference_derivative_in_step(k):
    # d/ds Delta_s^k(g, t) = k Delta_s^(k-1)(g', t+s), second-order in the
    # finite-difference step
    g, gp = (lambda u: math.exp(-1.3 * u)), (lambda u: -1.3 * math.exp(-1.3 * u))
    s, t = 0.8, 0.25
    if k == 1:
        exact = gp(t + s)
    else:
        exact = k * forward_difference(gp, s, k - 1, t + s)
    errs = []
    for h in (1e-2, 1e-3):
        fd = (forward_difference(g, s + h, k, t) - forward_difference(g, s - h, k, t)) / (2 * h)
        errs.append(abs(fd - exact))
    assert errs[0] / errs[1] > 25.0
    assert errs[1] < 1e-6


@pytest.mark.parametrize("j", (1, 2))
def test_difference_derivative_in_base(j):
    # d^j/dt^j Delta_s^k(g, t) = Delta_s^k(g^(j), t) -- exact for exponentials
    lam, s, t, k = 1.3, 0.6, 0.4, 2
    g = lambda u: math.exp(-lam * u)
    gj = lambda u: (-lam) ** j * math.exp(-lam * u)
    h = 1e-4
    if j == 1:
        fd = (forward_difference(g, s, k, t + h) - forward_difference(g, s, k, t - h)) / (2 * h)
    else:
        fd = (
            forward_difference(g, s, k, t + h)
            - 2 * forward_difference(g, s, k, t)
            + forward_difference(g, s, k, t - h)
        ) / h**2
    assert abs(fd - forward_difference(gj, s, k, t)) < 1e-6


def test_wide_custom_rule_matches_default():
    rule = log_time_rule(head_exponent=0.5, tail_exponent=0.5, step=0.01)
    got = riesz_derivative_integral(H4, 0.5, tq=rule).coefficient((4,))
    assert abs(got - math.sqrt(2.0)) < 1e-8
