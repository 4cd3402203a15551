import math
import warnings

import numpy as np
import pytest

from gausscalc import (
    HermiteExpansion,
    ak_constant,
    besov_norm,
    besov_params,
    besov_seminorm,
    gen_family,
    hardy_check,
    kdecay_report,
    log_time_rule,
    lp_norm,
    norm_curve,
    orbit_difference,
    smallest_k,
)
from gausscalc.besov import SUP_POINTS, _cumulative_simpson
from gausscalc.hermite import TIME_BLOCK
from gausscalc.timequad import DEFAULT_STEP, TimeQuadrature

from reference import quad_lp_norm_1d

H1 = HermiteExpansion.basis((1,))
CONST = HermiteExpansion.constant(1, 2.0)
MIX = HermiteExpansion(1, {(0,): 0.2, (1,): 0.9, (3,): -0.6, (6,): 0.35})


def gamma_formula(n, alpha, p_norm_of_basis, q, k):
    """Closed form of the seminorm for a single order-n basis function.

    ||u^(k)(., t)||_p = kappa n^(k/2) e^(-t sqrt(n)) with kappa the basis norm,
    and the weighted t-integral is a Gamma integral.
    """
    a = (k - alpha) * q
    return (
        p_norm_of_basis
        * n ** (k / 2.0)
        * math.gamma(a) ** (1.0 / q)
        / (q * math.sqrt(n)) ** (k - alpha)
    )


# -- k selection -----------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,k", [(0.0, 1), (0.5, 1), (1.0, 2), (2.3, 3), (3.0, 4), (0.3, 1), (0.99, 1), (1.5, 2), (2.5, 3)]
)
def test_smallest_k(alpha, k):
    assert smallest_k(alpha) == k


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_smallest_k_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="finite"):
        smallest_k(alpha)


def test_params_validation():
    with pytest.raises(ValueError):
        besov_params(1.5, 2, 2, k=1)  # k must exceed alpha
    with pytest.raises(ValueError):
        besov_params(0.5, 0.5, 2)
    with pytest.raises(ValueError):
        besov_params(-0.1, 2, 2)
    with pytest.raises(ValueError):
        besov_params(0.5, 2, 0.5)


# -- seminorm ---------------------------------------------------------------------


def test_seminorm_of_constant_vanishes():
    assert besov_seminorm(CONST, besov_params(0.5, 2, 2)) == 0.0


def test_seminorm_h1_half_2_2():
    # single-mode Gamma integral: sqrt( int (t^(1/2) e^-t)^2 dt/t ) = 2^(-1/2)
    want = gamma_formula(1, 0.5, 1.0, 2, 1)
    assert abs(want - 1.0 / math.sqrt(2.0)) < 1e-15
    got = besov_seminorm(H1, besov_params(0.5, 2, 2))
    assert abs(got - want) / want < 1e-6


def test_seminorm_order4_alpha1_q1():
    # k = 2: 4 int t e^(-2t) dt/t = 2
    want = gamma_formula(4, 1.0, 1.0, 1, 2)
    assert abs(want - 2.0) < 1e-15
    got = besov_seminorm(HermiteExpansion.basis((4,)), besov_params(1.0, 2, 1))
    assert abs(got - want) / want < 1e-6


@pytest.mark.parametrize("alpha", (0.25, 0.5, 1.0, 1.7))
@pytest.mark.parametrize("q", (1, 2, 4))
@pytest.mark.parametrize("n", (1, 4, 9))
def test_single_chaos_closed_form(alpha, q, n):
    k = smallest_k(alpha)
    want = gamma_formula(n, alpha, 1.0, q, k)
    got = besov_seminorm(HermiteExpansion.basis((n,)), besov_params(alpha, 2, q))
    assert abs(got - want) / want < 1e-6


def test_seminorm_rejects_q_inf():
    with pytest.raises(ValueError):
        besov_seminorm(H1, besov_params(0.5, 2, math.inf))


# -- sup constant -----------------------------------------------------------------


def test_ak_of_constant_vanishes():
    assert ak_constant(CONST, 0.5, 2, 1) == 0.0


def test_ak_h1_example():
    # sup_t t^(1/2) e^-t attained at t = 1/2
    want = math.sqrt(0.5) * math.exp(-0.5)
    assert abs(ak_constant(H1, 0.5, 2, 1) - want) < 1e-5


def test_ak_scales_homogeneously():
    a = ak_constant(MIX, 0.5, 2, 1)
    b = ak_constant(3.0 * MIX, 0.5, 2, 1)
    assert abs(b - 3.0 * a) < 1e-12 * max(1.0, a)


def test_ak_requires_k_above_alpha():
    with pytest.raises(ValueError):
        ak_constant(H1, 1.5, 2, 1)


# -- full norm --------------------------------------------------------------------


def test_besov_norm_h1_total():
    res = besov_norm(H1, besov_params(0.5, 2, 2))
    assert abs(res.lp_part - 1.0) < 1e-12
    assert abs(res.total - (1.0 + 1.0 / math.sqrt(2.0))) < 1e-5
    assert res.ak is None and res.seminorm is not None


def test_besov_norm_of_zero():
    res = besov_norm(HermiteExpansion.zero(1), besov_params(0.5, 2, 2))
    assert res.total == 0.0


def test_besov_norm_q_inf_branch():
    res = besov_norm(H1, besov_params(0.5, 2, math.inf))
    assert res.seminorm is None
    assert abs(res.ak - math.sqrt(0.5) * math.exp(-0.5)) < 1e-5
    assert res.total == res.lp_part + res.ak


def test_besov_norm_homogeneous():
    r1 = besov_norm(MIX, besov_params(0.7, 2, 2)).total
    r5 = besov_norm(5.0 * MIX, besov_params(0.7, 2, 2)).total
    assert abs(r5 - 5.0 * r1) < 1e-11 * r1


def test_besov_result_serialization():
    doc = besov_norm(H1, besov_params(0.5, 2, math.inf)).to_dict()
    assert set(doc) == {"lp", "semi", "ak", "total", "params"}
    assert doc["semi"] is None and doc["params"]["q"] == "inf"
    doc2 = besov_norm(H1, besov_params(0.5, 2, 2)).to_dict()
    assert doc2["ak"] is None and doc2["params"]["q"] == 2


# -- norm curves ---------------------------------------------------------------------


def test_norm_curve_p2_matches_direct(family1d):
    ts = np.array([0.1, 0.7, 2.0])
    f = family1d[0]
    from gausscalc import time_derivative

    for k in (1, 2):
        curve = norm_curve(f, k, 2.0, ts)
        for t, v in zip(ts, curve):
            direct = lp_norm(time_derivative(f, float(t), k), 2.0)
            assert abs(v - direct) < 1e-12


def test_norm_curve_p1_and_p4(family1d):
    f = family1d[1]
    from gausscalc import time_derivative

    for p in (1.0, 3.0, 4.0):
        # large t too, where ||.||_p^p underflows while the norm does not
        ts = np.array([0.3, 1.0, 50.0, 120.0, 200.0])
        curve = norm_curve(f, 1, p, ts)
        for t, v in zip(ts, curve):
            direct = lp_norm(time_derivative(f, float(t), 1), p)
            assert abs(v - direct) / direct < 1e-10


@pytest.mark.parametrize("alpha", (0.99, 0.999, 0.9999, 1.99))
def test_seminorm_at_small_head_exponents_matches_the_gamma_integral(alpha):
    # with (k - alpha) q below about 0.033 the window started below
    # t = e^(-709): t underflowed to 0 and the seminorm was NaN
    q = 2.0
    h = (smallest_k(alpha) - alpha) * q
    for nu in ((1,), (4,), (9,), (2, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = besov_seminorm(HermiteExpansion.basis(nu), besov_params(alpha, 2.0, q))
        want = sum(nu) ** (alpha / 2.0) * (math.gamma(h) * q ** (-h)) ** (1.0 / q)
        assert abs(got - want) <= 1e-9 * want


def test_besov_norm_regression_member_is_finite():
    # member 0 of the package-default d = 1 family used to give NaN at p = 3
    f = gen_family(20260809, 1, 1, 8)[0]
    assert math.isfinite(besov_norm(f, besov_params(0.7, 3, 2)).total)


def test_norm_curve_regression_member_at_large_t():
    from gausscalc import time_derivative

    f = gen_family(20260809, 1, 1, 8)[0]
    params = besov_params(0.7, 3, 2)
    ts, _ = log_time_rule(head_exponent=(params.k - params.alpha) * params.q).nodes_weights()
    curve = norm_curve(f, params.k, params.p, ts)
    assert np.all(np.isfinite(curve))
    late = (ts >= 137.0) & (ts <= 171.0)  # the nodes that were NaN
    assert np.count_nonzero(late) >= 10
    for t, v in zip(ts[late], curve[late]):
        g = time_derivative(f, float(t), params.k)
        coeffs = [g.coefficient((n,)) for n in range(g.degree + 1)]
        ref = quad_lp_norm_1d(coeffs, params.p)
        assert abs(v - ref) / ref < 1e-10


def test_norm_curve_odd_p_roots_at_large_t():
    # at t >= 60 the scaled orbit derivative of this member is h_1 + 1e-14 h_2
    # + ..., whose colleague-matrix root came out as 0.015625 instead of about
    # 0; without a Newton polish the curve was off by up to 2.4e-4 relative
    from gausscalc import time_derivative

    f = gen_family(7, 1, 50, 8)[2]
    ts = np.exp(np.arange(-20.0, 5.0, 0.0235))
    late = ts >= 60.0
    assert np.count_nonzero(late) >= 30
    for t, v in zip(ts[late], norm_curve(f, 1, 1.0, ts)[late]):
        g = time_derivative(f, float(t), 1)
        ref = quad_lp_norm_1d([g.coefficient((n,)) for n in range(g.degree + 1)], 1.0)
        assert abs(v - ref) / ref < 1e-12


@pytest.mark.parametrize("p", (math.inf, math.nan))
def test_norm_curve_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match=f"got p = {p}"):
        norm_curve(MIX, 1, p, [0.5, 1.0])


@pytest.mark.parametrize("p", (2.0, 3.0, 4.0, 1.5))
@pytest.mark.parametrize("d", (1, 2))
def test_norm_curve_does_not_underflow_at_large_t(d, p):
    # at t = 120 and 200 the orbit derivative's coefficients are below 1e-80,
    # so their p-th powers underflow unless each time node is rescaled
    from gausscalc import time_derivative

    f = gen_family(7, d, 3, 8)[0]
    ts = np.array([50.0, 120.0, 200.0])
    curve = norm_curve(f, 1, p, ts)
    for t, v in zip(ts, curve):
        g = time_derivative(f, float(t), 1)
        s = -math.frexp(max(abs(c) for c in g.coeffs.values()))[1]  # 2^s g has top |coefficient| in [1/2, 1)
        ref = math.ldexp(lp_norm(math.ldexp(1.0, s) * g, p), -s)
        assert ref > 0.0
        assert abs(v - ref) / ref < 1e-12


@pytest.mark.parametrize("p", (4.0, 6.0))
@pytest.mark.parametrize("d", (1, 2))
def test_norm_curve_even_p_integrates_on_the_exact_grid(d, p):
    # the m = p deg/2 + 1 grid of lp_norm, and the larger 4 deg + 8 grid agrees
    from gausscalc import gauss_hermite_grid, lp_norm_gamma, time_derivative

    k = 1
    f = gen_family(7, d, 3, 8)[1]
    big = gauss_hermite_grid(d, 4 * f.degree + 8)
    ts = np.array([0.01, 0.3, 1.0, 5.0])
    for t, v in zip(ts, norm_curve(f, k, p, ts)):
        g = time_derivative(f, float(t), k)
        assert abs(v - lp_norm(g, p)) / v < 1e-14
        assert abs(v - lp_norm_gamma(g, p, big)) / v < 1e-13


@pytest.mark.parametrize(
    "nu,p", [((60,), 7.5), ((80,), 8.0), ((30, 30), 7.0), ((25, 25), 8.0)], ids=["h60", "h80", "h30,30", "h25,25"]
)
def test_norm_curve_quadrature_matches_lp_norm_at_high_degree(nu, p):
    # |h_nu|^p passes 1e308 at the outer nodes of these grids: the quadrature
    # route gave inf (d = 1) and NaN (d = 2) until it shared lp_norm's scaling
    from gausscalc import time_derivative

    f = HermiteExpansion.basis(nu)
    got, want = norm_curve(f, 0, p, [0.0])[0], lp_norm(f, p)
    assert math.isfinite(got) and abs(got - want) <= 1e-14 * want
    got, want = norm_curve(f, 1, p, [1e-9])[0], lp_norm(time_derivative(f, 1e-9, 1), p)
    assert math.isfinite(got) and abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("p", (1.0, 1.5, 3.0, 4.0))
@pytest.mark.parametrize("d", (1, 2))
def test_norm_curve_node_values_do_not_depend_on_the_blocks(d, p):
    # the quadrature route walks the time grid in blocks; each node's value
    # must not depend on the block it lands in, nor on the grid's length
    f = gen_family(20260809, d, 3, 8)[2]
    ts = np.exp(np.linspace(math.log(1e-6), math.log(50.0), 1553))
    sizes = (1, 2, 31, 32, 33, 34, 63, 64, 65, 1553)
    # single-node references only at and next to the block edges and the
    # ends of each prefix, where the blocks of the sizes below differ
    edges = {0, *range(TIME_BLOCK, ts.size, TIME_BLOCK), *sizes}
    near = np.array(sorted({i for e in edges for i in (e - 1, e, e + 1) if 0 <= i < ts.size}))
    single = np.array([norm_curve(f, 1, p, ts[i : i + 1])[0] for i in near])
    for size in sizes:
        curve = norm_curve(f, 1, p, ts[:size])
        inside = near < size
        assert np.max(np.abs(curve[near[inside]] - single[inside]) / single[inside]) < 4e-15


def test_norm_curve_quadrature_memory_does_not_grow_with_t():
    # the whole (nodes, T) value table took 79 MiB here; blocks of the time
    # grid need a few hundred kB whatever T is
    import tracemalloc

    f = gen_family(20260809, 2, 1, 8)[0]
    ts = np.exp(np.linspace(math.log(1e-6), math.log(50.0), 4000))
    tracemalloc.start()
    try:
        norm_curve(f, 1, 3.0, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("ps", [(1.0, 3.0, 4.0), (4.0, 1.0, 3.0), (3.0, 4.0), (1.5, 3.0), (2.0,)])
@pytest.mark.parametrize("d", (1, 2))
def test_several_p_give_the_bits_of_one_p_calls(d, ps):
    # one orbit table and one basis product per grid serve every p; each p
    # keeps the bits of its own public call, on every route and in any order
    from gausscalc import besov

    f = gen_family(20260809, d, 3, 8)[2]
    ts = np.exp(np.linspace(math.log(1e-3), math.log(200.0), 101))  # three blocks and a remainder
    for k in (1, 2):
        curves = besov._norm_curves(f, k, ps, ts)
        assert curves.shape == (len(ps), ts.size)
        for p, curve in zip(ps, curves):
            assert np.array_equal(curve, norm_curve(f, k, p, ts))
    alpha, k = 0.7, 1
    assert besov._besov_terms(f, alpha, ps, 2.0, k, DEFAULT_STEP, SUP_POINTS, 1) == [
        [besov_seminorm(f, besov_params(alpha, p, 2.0)) for p in ps]
    ]
    assert besov._besov_terms(f, alpha, ps, math.inf, k, DEFAULT_STEP, SUP_POINTS, 1) == [
        [ak_constant(f, alpha, p, k) for p in ps]
    ]


@pytest.mark.parametrize("q", (1.0, 2.0, math.inf))
@pytest.mark.parametrize("d", (1, 2))
def test_paired_evaluation_gives_the_coarse_bits_of_a_coarse_call(d, q):
    # the refined grid nests the coarse one, so the coarse terms of one
    # evaluation at both resolutions are the bits of a coarse-only call
    from gausscalc import besov

    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    f = gen_family(20260809, d, 3, 6)[2]
    alpha, k = 0.7, 1
    for refine in (2, 3):
        coarse, fine = besov._besov_terms(f, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)
        (alone,) = besov._besov_terms(f, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, 1)
        assert coarse == alone
        assert np.allclose(fine, coarse, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize(
    "f,p",
    [
        (MIX, 2.0),  # coefficient norm
        (MIX, 3.0),  # odd-exact pieces
        (MIX, 4.0),  # even p on the exact grid
        (MIX, 1.5),  # quadrature
        (HermiteExpansion(2, {(1, 0): 0.7, (2, 1): -0.4}), 3.0),  # quadrature in d = 2
        (HermiteExpansion.zero(1), 3.0),
        (CONST, 3.0),  # degree 0
    ],
)
def test_norm_curve_returns_the_shape_of_ts(f, p):
    ts = np.array([[0.1, 0.5], [1.0, 4.0]])
    curve = norm_curve(f, 1, p, ts)
    assert curve.shape == (2, 2)
    assert np.array_equal(curve, norm_curve(f, 1, p, ts.ravel()).reshape(2, 2))
    scalar = norm_curve(f, 1, p, 0.5)
    assert scalar.shape == ()
    assert scalar == norm_curve(f, 1, p, [0.5])[0]


def test_norm_curve_rejects_large_p():
    with pytest.raises(ValueError):
        norm_curve(MIX, 1, 9.0, np.array([1.0]))


@pytest.mark.parametrize("k", (1.5, -1, 2.0, None))
def test_norm_curve_rejects_a_k_that_is_not_an_integer_at_least_0(k):
    # a fractional k used to give NaN with a RuntimeWarning, a negative one numbers
    with pytest.raises(ValueError, match="k must be an integer >= 0"):
        norm_curve(MIX, k, 2.0, [0.1, 1.0])


def test_kdecay_report_rejects_a_fractional_k():
    with pytest.raises(ValueError, match="k must be an integer >= 0"):
        kdecay_report(MIX, 2.0, 2.5)


@pytest.mark.parametrize("ts", ([-0.1, 1.0], [0.1, math.nan], [math.inf], [[0.5], [-1e-300]]))
def test_curves_reject_times_that_are_not_finite_and_at_least_0(ts):
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        norm_curve(MIX, 1, 2.0, ts)
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        kdecay_report(MIX, 2.0, 1, np.array(ts))


@pytest.mark.parametrize("alpha", (math.nan, -0.5, 1.0, 1.5))
def test_besov_terms_reject_alpha_outside_0_to_k(alpha):
    # besov_params refuses alpha < 0; ak_constant used to return 0.4278 there and NaN at NaN
    from gausscalc import besov

    with pytest.raises(ValueError, match="need 0 <= alpha < k"):
        ak_constant(MIX, alpha, 2.0, 1)
    for q in (2.0, math.inf):
        with pytest.raises(ValueError, match="need 0 <= alpha < k"):
            besov._besov_terms(MIX, alpha, (2.0, 3.0), q, 1, DEFAULT_STEP, SUP_POINTS, 2)


# -- decay report ----------------------------------------------------------------------


def test_kdecay_h1():
    rep = kdecay_report(H1, 2.0, 1)
    assert rep.non_increasing
    assert np.allclose(rep.values, np.exp(-rep.ts), atol=1e-12)
    # fitted constant: sup of t e^-t = e^-1, located between grid points
    assert abs(rep.fitted_c - math.exp(-1.0)) < 5e-3 * math.exp(-1.0)


def test_kdecay_constant_is_zero():
    rep = kdecay_report(CONST, 2.0, 1)
    assert np.all(rep.values == 0.0)
    assert rep.fitted_c == 0.0 and rep.non_increasing


@pytest.mark.parametrize("p", (1.0, 2.0, 4.0))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_kdecay_monotone_on_seeded_mixture(p, k, family1d):
    for f in family1d[:5]:
        assert kdecay_report(f, p, k).non_increasing


def test_kdecay_rows():
    rep = kdecay_report(H1, 2.0, 1, ts=np.array([0.5, 1.0]))
    rows = rep.rows()
    assert len(rows) == 2 and rows[0][0] == 0.5


# -- forward-difference norm bound -----------------------------------------------------


@pytest.mark.parametrize("p", (1.0, 2.0, 4.0))
@pytest.mark.parametrize("k,n", [(1, 0), (2, 0), (1, 1), (3, 0)])
def test_difference_norm_bounded_by_derivative_norm(p, k, n, family1d):
    for f in family1d[:3]:
        for s in (0.1, 0.6):
            for t in (0.0, 0.4):
                lhs = lp_norm(orbit_difference(f, s, k, t, n=n), p)
                rhs = s**k * norm_curve(f, k + n, p, np.array([t]))[0]
                assert lhs <= rhs * (1.0 + 1e-9)


# -- averaging inequalities -------------------------------------------------------------


def test_hardy_equality_example():
    lhs, rhs = hardy_check(lambda y: y * np.exp(-y), 1.0, 1.0, "head")
    assert abs(lhs - 1.0) < 1e-6 and abs(rhs - 1.0) < 1e-6


def test_hardy_zero_function():
    lhs, rhs = hardy_check(lambda y: 0.0 * y, 2.0, 1.0, "head")
    assert lhs == 0.0 and rhs == 0.0


def test_hardy_tail_example():
    f = lambda y: np.exp(-y) * (y > 1.0)
    lhs, rhs = hardy_check(f, 2.0, 1.0, "tail")
    assert lhs <= rhs * (1.0 + 1e-6)


def test_hardy_divergent_head_reports_inf():
    # f ~ y at 0 with p = 1, r = 2 makes the head integrand ~ x^-1
    lhs, rhs = hardy_check(lambda y: y * np.exp(-y), 1.0, 2.0, "head")
    assert math.isinf(lhs) and math.isinf(rhs)


def test_hardy_divergent_tail_reports_inf():
    # f ~ y^-2 at infinity: (yf)^p y^(r-1) is log-divergent at p = 2, r = 2
    heavy = lambda y: y**2 / (1.0 + y**4)
    lhs, rhs = hardy_check(heavy, 2.0, 2.0, "tail")
    assert math.isinf(lhs) and math.isinf(rhs)
    lhs, rhs = hardy_check(heavy, 1.0, 0.5, "tail")  # convergent combo stays finite
    assert math.isfinite(lhs) and lhs <= rhs * (1 + 1e-6)


def test_cumulative_simpson_is_bit_identical_to_scipy():
    from scipy.integrate import cumulative_simpson

    y, _ = TimeQuadrature(-40.0, 12.0, 5201).nodes_weights()  # hardy_check's grid
    v = np.log(y)
    inner = y**3 * np.exp(-y) / (1.0 + y)
    cases = [(inner, v), (inner[::-1], -v[::-1])]  # the head and the tail integral
    rng = np.random.default_rng(20260809)
    for n in (3, 4, 5, 1000):
        cases.append((rng.normal(size=n), np.cumsum(rng.uniform(0.01, 1.0, n))))
    for samples, x in cases:
        assert np.array_equal(_cumulative_simpson(samples, x), cumulative_simpson(samples, x=x, initial=0.0))


def test_hardy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 0.5, 1.0, "head")
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 1.0, -1.0, "head")
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 1.0, 1.0, "middle")
    with pytest.raises(ValueError):
        hardy_check(lambda y: -np.ones_like(y), 1.0, 1.0, "head")


