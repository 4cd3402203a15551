import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gausscalc import (
    HermiteExpansion,
    forward_difference,
    gauss_hermite_grid,
    gen_family,
    l2_norm_coeffs,
    orbit_difference,
    ou_mehler,
    ou_spectral,
    ph_kernel,
    ph_spectral,
    ph_subordination,
    time_derivative,
)
from gausscalc import semigroups as sg
from gausscalc.harness import _kernel_mass
from gausscalc.timequad import SubordinationRule

H1 = HermiteExpansion.basis((1,))
H2 = HermiteExpansion.basis((2,))
H4 = HermiteExpansion.basis((4,))
ONE = HermiteExpansion.constant(1, 1.0)


def scalar_subordination_oracle(t, n, npts=100_000):
    """High-resolution log-quadrature of the subordination integral for one mode."""
    v = np.linspace(-40.0, 8.0, npts)
    u = np.exp(v)
    w = np.full(npts, v[1] - v[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    g = np.exp(-u) * np.exp(0.5 * v) * np.exp(-t * t * n / (4.0 * u)) / math.sqrt(math.pi)
    return float(g @ w)


# -- heat-type semigroup -------------------------------------------------------------


def test_ou_conserves_constants():
    assert ou_spectral(ONE, 3.7) == ONE


def test_ou_multiplier_on_h1():
    assert abs(ou_spectral(H1, math.log(2.0)).coefficient((1,)) - 0.5) < 1e-15


def test_ou_rejects_negative_time():
    with pytest.raises(ValueError):
        ou_spectral(H1, -0.1)


@settings(max_examples=25)
@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_ou_semigroup_law(t, s):
    f = HermiteExpansion(1, {(0,): 0.3, (1,): -1.1, (3,): 0.7})
    lhs = ou_spectral(ou_spectral(f, t), s)
    rhs = ou_spectral(f, t + s)
    assert l2_norm_coeffs(lhs - rhs) <= 1e-14 * l2_norm_coeffs(f)


def test_mehler_on_constant(grid1d):
    assert abs(ou_mehler(ONE, 0.8, [0.3], grid1d) - 1.0) < 1e-14


def test_mehler_h1_example(grid1d):
    want = 0.5 * math.sqrt(2.0)
    assert abs(ou_mehler(H1, math.log(2.0), [1.0], grid1d) - want) < 1e-8


def test_mehler_h2_example(grid1d):
    want = -math.exp(-2.0) / math.sqrt(2.0)  # e^-2 h_2(0)
    assert abs(ou_mehler(H2, 1.0, [0.0], grid1d) - want) < 1e-8


def test_mehler_rejects_t_zero(grid1d):
    with pytest.raises(ValueError):
        ou_mehler(H1, 0.0, [0.0], grid1d)


def test_mehler_agrees_with_spectral(family1d, grid1d):
    rng = np.random.Generator(np.random.Philox(5))
    worst = 0.0
    for i in range(40):
        f = family1d[i % len(family1d)]
        t = float(rng.uniform(0.05, 5.0))
        x = rng.uniform(-2.0, 2.0, 1)
        worst = max(worst, abs(ou_mehler(f, t, x, grid1d) - ou_spectral(f, t)(x)))
    assert worst <= 1e-8


def test_mehler_agrees_in_2d(family2d, grid2d):
    f = family2d[0]
    x = np.array([0.4, -1.2])
    assert abs(ou_mehler(f, 0.7, x, grid2d) - ou_spectral(f, 0.7)(x)) <= 1e-8


# -- square-root-subordinated semigroup ------------------------------------------------


def test_ph_multiplier_examples():
    assert abs(ph_spectral(H4, 1.0).coefficient((4,)) - math.exp(-2.0)) < 1e-15
    assert ph_spectral(ONE, 2.3) == ONE


@settings(max_examples=25)
@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_ph_semigroup_law(t, s):
    f = HermiteExpansion(1, {(1,): 1.0, (2,): -0.5, (4,): 0.25})
    lhs = ph_spectral(ph_spectral(f, t), s)
    rhs = ph_spectral(f, t + s)
    assert l2_norm_coeffs(lhs - rhs) <= 1e-14 * l2_norm_coeffs(f)


def test_subordination_h1_example():
    # scalar identity: the stable average of e^(-s) at sqrt-eigenvalue 1 is e^(-1)
    want = math.exp(-1.0) * math.sqrt(2.0)
    assert abs(scalar_subordination_oracle(1.0, 1) - math.exp(-1.0)) < 1e-9
    assert abs(ph_subordination(H1, 1.0, [1.0]) - want) < 1e-6


def test_subordination_conserves_mass():
    assert abs(ph_subordination(ONE, 0.35, [0.7]) - 1.0) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("t", [0.05, 0.7, 3.0])
def test_subordination_single_chaos_ratio(n, t):
    f = HermiteExpansion.basis((n,))
    x = [0.9]
    denom = f(x)
    got = ph_subordination(f, t, x) / denom
    assert abs(got - math.exp(-t * math.sqrt(n))) < 1e-6
    assert abs(got - scalar_subordination_oracle(t, n)) < 1e-6


def test_subordination_agrees_with_spectral(family1d):
    rng = np.random.Generator(np.random.Philox(6))
    worst = 0.0
    for i in range(40):
        f = family1d[i % len(family1d)]
        t = float(rng.uniform(0.05, 5.0))
        x = rng.uniform(-2.0, 2.0, 1)
        worst = max(worst, abs(ph_subordination(f, t, x) - ph_spectral(f, t)(x)))
    assert worst <= 1e-6


def test_subordination_skips_only_exact_zeros():
    # ph_subordination masks the rates r >= 746, where exp(-r) is exactly
    # +0.0, and keeps the bits of the unmasked form, subnormal band included
    rng = np.random.default_rng(20260809)
    rates = np.concatenate([rng.uniform(0.0, 2000.0, 10**5), np.linspace(700.0, 750.0, 50001), [0.0, 745.13, 745.14]])
    masked = np.exp(-rates, out=np.zeros_like(rates), where=rates < 746.0)
    assert np.array_equal(masked.view(np.int64), np.exp(-rates).view(np.int64))
    assert np.count_nonzero((masked > 0.0) & (masked < np.finfo(float).tiny)) > 0
    for f in gen_family(20260809, 1, 3, 8):
        for t, x in ((0.3, 0.7), (2.5, -1.1)):
            s, masses = SubordinationRule().stable_measure(t)
            g = f.chaos_values([x])
            unmasked = float(np.dot(masses, np.exp(-np.outer(s, np.arange(g.size))) @ g))
            assert ph_subordination(f, t, [x]) == unmasked


def test_subordination_rejects_t_zero():
    with pytest.raises(ValueError):
        ph_subordination(H1, 0.0, [0.0])


def test_subordination_checks_the_point_dimension(mixed1d, family2d):
    with pytest.raises(ValueError, match="point has dimension 2, expansion has 1"):
        ph_subordination(mixed1d, 0.5, [0.1, 0.2])
    with pytest.raises(ValueError, match="point has dimension 1, expansion has 2"):
        ph_subordination(family2d[0], 0.5, [0.1])


@pytest.mark.parametrize("d", (1, 2))
def test_batched_oracles_have_the_bits_of_one_sample_calls(d):
    # supports of different sizes and orders, the zero expansion and a
    # constant among them, each sample with its own t and x
    fs = 2 * [
        HermiteExpansion.zero(d),
        HermiteExpansion.constant(d, 1.3),
        *gen_family(20260809, d, 4, 8 if d == 1 else 5),
        HermiteExpansion.basis((2,) + (0,) * (d - 1)),
    ]
    rng = np.random.default_rng(d)
    ts = rng.uniform(0.05, 5.0, len(fs)).tolist()
    xs = rng.uniform(-2.0, 2.0, (len(fs), d))
    grid = gauss_hermite_grid(d, 40 if d == 1 else 28)
    rows = [
        sg._ou_mehler_rows(fs, ts, xs, grid),
        sg._spectral_rows(fs, map(sg._ou_multiplier, ts), xs),
        sg._ph_subordination_rows(fs, ts, xs),
        sg._spectral_rows(fs, map(sg._orbit_multiplier, ts), xs),
    ]
    loop = [
        [ou_mehler(f, t, x, grid), ou_spectral(f, t)(x), ph_subordination(f, t, x), ph_spectral(f, t)(x)]
        for f, t, x in zip(fs, ts, xs)
    ]
    assert np.array(rows).T.tobytes() == np.array(loop).tobytes()


# -- pointwise kernel -------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_kernel_mass(t):
    mass, err = quad(lambda y: ph_kernel(t, 0.0, y), -np.inf, np.inf, limit=200)
    assert abs(mass - 1.0) < 1e-6
    # the fixed rule of the oracles experiment's kernel-mass check
    assert abs(_kernel_mass(t) - mass) < 1e-14


def test_kernel_first_moment_matches_spectral():
    t, x = 0.8, 0.6
    val, _ = quad(lambda y: ph_kernel(t, x, y) * math.sqrt(2.0) * y, -np.inf, np.inf, limit=200)
    want = math.exp(-t) * math.sqrt(2.0) * x
    assert abs(val - want) < 1e-6


def test_kernel_positive_on_samples():
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 2)
        assert ph_kernel(1.3, x, y) > 0.0


def test_kernel_2d_value_positive():
    assert ph_kernel(0.9, [0.2, -0.4], [1.0, 0.3]) > 0.0


@pytest.mark.parametrize("x", ([0.3], [0.2, -0.4]))
def test_kernel_takes_an_array_of_points(x):
    # 37 points in one table of Mehler densities, against one point at a time
    ys = np.random.Generator(np.random.Philox(5)).uniform(-3.0, 3.0, (37, len(x)))
    got = ph_kernel(1.1, x, ys)
    assert got.shape == (37,)
    want = np.array([ph_kernel(1.1, x, y) for y in ys])
    assert np.max(np.abs(got - want) / want) < 1e-14


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ph_kernel(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ph_kernel(1.0, [0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        ph_kernel(1.0, [0.0, 0.0], np.zeros((3, 1)))


# -- orbit derivatives ---------------------------------------------------------------------


def test_time_derivative_k0_is_semigroup(mixed1d):
    assert time_derivative(mixed1d, 0.7, 0) == ph_spectral(mixed1d, 0.7)


def test_time_derivative_h1_at_zero():
    assert time_derivative(H1, 0.0, 1) == (-1.0) * H1


def test_time_derivative_order4_k2():
    got = time_derivative(H4, 1.0, 2).coefficient((4,))
    assert abs(got - 4.0 * math.exp(-2.0)) < 1e-14


def test_time_derivative_kills_constants():
    assert time_derivative(ONE, 0.5, 1).coeffs == {}


def test_derivative_matches_finite_differences(mixed1d):
    # central difference errors shrink like h^2: two decades of h give ~10^4,
    # but the h=1e-2 error is already small, so accept anything clearly O(h^2)
    x = [0.3]
    exact = time_derivative(mixed1d, 1.0, 1)(x)
    errs = []
    for h in (1e-2, 1e-3):
        fd = (ph_spectral(mixed1d, 1.0 + h)(x) - ph_spectral(mixed1d, 1.0 - h)(x)) / (2 * h)
        errs.append(abs(fd - exact))
    assert errs[0] / errs[1] > 50.0
    assert errs[1] < 1e-6


def test_second_derivative_finite_difference(mixed1d):
    x = [0.1]
    exact = time_derivative(mixed1d, 0.8, 2)(x)
    h = 1e-4
    fd = (
        ph_spectral(mixed1d, 0.8 + h)(x) - 2 * ph_spectral(mixed1d, 0.8)(x) + ph_spectral(mixed1d, 0.8 - h)(x)
    ) / h**2
    assert abs(fd - exact) < 1e-6


def test_orbit_difference_matches_explicit_sum(mixed1d):
    s, k, t = 0.4, 2, 0.3
    explicit = (
        time_derivative(mixed1d, t + 2 * s, 1)
        - 2.0 * time_derivative(mixed1d, t + s, 1)
        + time_derivative(mixed1d, t, 1)
    )
    got = orbit_difference(mixed1d, s, k, t, n=1)
    assert l2_norm_coeffs(got - explicit) < 1e-15


def test_orbit_difference_damped_realizes_damped_power(mixed1d):
    # (e^-s P_s - I)^2 on a single mode: factor (e^(-s(1+sqrt(n))) - 1)^2
    s = 0.6
    got = forward_difference(lambda r: math.exp(-r) * ph_spectral(H4, r), s, 2)
    want = (math.exp(-s * 3.0) - 1.0) ** 2
    assert abs(got.coefficient((4,)) - want) < 1e-14


@pytest.mark.parametrize("k", (1, 2, 3))
def test_orbit_difference_keeps_its_digits_at_small_steps(k):
    # the alternating sum of the orbit cancelled here: for h_4 at k = 3 it was
    # 2.7% off at s = 1e-5 and 0.0 at s = 1e-7, where the value is -8.0e-21
    f = HermiteExpansion(1, {(0,): 0.5, (1,): 0.7, (4,): 1.0, (9,): -0.3})
    for n in (0, 1):
        deriv = time_derivative(f, 0.3, n)
        for s in (1e-1, 1e-3, 1e-5, 1e-7):
            got = orbit_difference(f, s, k, 0.3, n)
            for nu, c in deriv.coeffs.items():
                want = math.expm1(-s * math.sqrt(nu.order)) ** k * c
                assert abs(got.coefficient(nu) - want) <= 1e-14 * abs(want)


def test_time_derivative_refuses_a_multiplier_past_the_float_range():
    # (-sqrt(n))^k raised a bare OverflowError at k = 1000 on degree 8; k =
    # 400 stays in range and keeps the values of the multiplier
    f = gen_family(20260809, 1, 3, 8)[0]
    with pytest.raises(ValueError, match=r"k = 1000, t = 1e-300 .* past the float range"):
        time_derivative(f, 1e-300, 1000)
    got = time_derivative(f, 0.5, 400)
    for nu, c in f.coeffs.items():
        root = math.sqrt(nu.order)
        assert got.coefficient(nu) == c * ((-root) ** 400 * math.exp(-0.5 * root))


def test_forward_difference_stays_elementwise_on_arrays():
    # only a scalar s or t is refused when not finite: an array keeps its NaN where it has one
    got = forward_difference(np.exp, np.array([0.1, math.nan]), 2)
    assert got[0] == forward_difference(np.exp, 0.1, 2) and math.isnan(got[1])


def test_orbit_difference_validation(mixed1d):
    with pytest.raises(ValueError):
        orbit_difference(mixed1d, -0.1, 1)
    with pytest.raises(ValueError):
        orbit_difference(mixed1d, 0.1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, grid: ou_spectral(f, math.nan),
        lambda f, grid: ou_spectral(f, math.inf),
        lambda f, grid: ou_mehler(f, math.nan, [0.3], grid),
        lambda f, grid: time_derivative(f, math.inf, 1),
        lambda f, grid: time_derivative(f, 0.3, 1.5),
        lambda f, grid: orbit_difference(f, math.nan, 1),
        lambda f, grid: orbit_difference(f, 0.3, 2.7),
        lambda f, grid: forward_difference(math.exp, 0.1, 1.5),
        lambda f, grid: forward_difference(math.exp, math.nan, 1),
        lambda f, grid: forward_difference(math.exp, 0.1, 1, math.inf),
        lambda f, grid: ph_subordination(f, math.inf, [0.3]),
    ],
    ids=[
        "ou_spectral-nan",
        "ou_spectral-inf",
        "ou_mehler-nan",
        "time_derivative-inf",
        "time_derivative-k1.5",
        "orbit_difference-nan",
        "orbit_difference-k2.7",
        "forward_difference-k1.5",
        "forward_difference-nan",
        "forward_difference-t-inf",
        "ph_subordination-inf",
    ],
)
def test_semigroups_refuse_nonfinite_times_and_fractional_orders(call, mixed1d, grid1d):
    # each of these returned NaN, truncated k or raised a TypeError; mixed1d
    # has a constant term, on which t = inf made e^(-inf * 0) NaN
    with pytest.raises(ValueError, match=r"must be (finite|an integer)"):
        call(mixed1d, grid1d)
