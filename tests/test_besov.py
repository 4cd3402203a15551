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
    lp_norm,
    norm_curve,
    orbit_difference,
    smallest_k,
)
from gausscalc.besov import SUP_POINTS, _cumulative_simpson, seminorm_rule, sup_grid
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


@pytest.mark.parametrize("k", (1.5, 2.0, np.float64(2.0)))
def test_besov_params_rejects_a_k_that_is_not_an_integer(k):
    # int(k) used to turn k = 1.5 into 1 without a word; 2.0 is refused too, as by norm_curve
    with pytest.raises(ValueError, match="k must be an integer"):
        besov_params(0.5, 2, 2, k)


def test_besov_params_takes_a_numpy_integer_k_as_an_int():
    params = besov_params(0.5, 2, 2, np.int64(2))
    assert params.k == 2 and type(params.k) is int


@pytest.mark.parametrize("alpha", (math.nan, math.inf))
def test_besov_params_reject_an_alpha_that_is_not_finite(alpha):
    # BesovParams(nan, 2, 2, 1) used to be accepted
    from gausscalc.besov import BesovParams

    with pytest.raises(ValueError, match="alpha must be finite"):
        BesovParams(alpha, 2.0, 2.0, 1)
    with pytest.raises(ValueError, match="alpha must be finite"):
        besov_params(alpha, 2, 2, 1)


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


def _assert_single_chaos_seminorms(family, alpha, q, k, ps):
    """Each member's seminorm at every p in ps against gamma_formula, to 1e-13."""
    from gausscalc import besov

    for f, (got,) in zip(family, besov._besov_terms(family, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, 1)):
        for p, value in zip(ps, got):
            want = gamma_formula(f.degree, alpha, lp_norm(f, p), q, k)
            assert abs(value - want) <= 1e-13 * want, (f.coeffs, p, alpha, q, k)


ALL_P = (1.0, 1.5, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("alpha", (0.05, 0.3, 0.7, 0.99, 1.6))
@pytest.mark.parametrize("q", (1.0, 1.5, 2.0, 4.0, 8.0))
def test_single_chaos_seminorms_are_exact_to_rounding(alpha, q):
    # every p on h_1, h_2, h_3, h_(2,3) and h_(5,1), and p = 2 up to h_32; the
    # odd-p route's cost grows with the degree, so higher orders at every p are below
    for k in (smallest_k(alpha), smallest_k(alpha) + 1):
        _assert_single_chaos_seminorms([HermiteExpansion.basis((n,)) for n in (1, 2, 3)], alpha, q, k, ALL_P)
        _assert_single_chaos_seminorms([HermiteExpansion.basis((n,)) for n in range(4, 33)], alpha, q, k, (2.0,))
        _assert_single_chaos_seminorms([HermiteExpansion.basis(nu) for nu in ((2, 3), (5, 1))], alpha, q, k, ALL_P)


@pytest.mark.parametrize("alpha,q,k,orders", ((0.99, 8.0, 2, (8, 13, 32)), (0.05, 1.0, 1, (8, 13))))
def test_high_order_single_chaos_seminorms_are_exact_to_rounding_at_every_p(alpha, q, k, orders):
    _assert_single_chaos_seminorms([HermiteExpansion.basis((n,)) for n in orders], alpha, q, k, ALL_P)


@pytest.mark.parametrize("d", (1, 2))
def test_p2_q2_seminorms_are_exact_to_rounding_at_both_resolutions(d):
    # at p = q = 2 the seminorm is (Gamma(2h) sum_nu c_nu^2 n^k (2 sqrt(n))^(-2h))^(1/2), h = k - alpha
    from gausscalc import besov

    family = gen_family(20260809, d, 40, 8)
    for alpha in (0.05, 0.3, 0.5, 0.7, 0.99, 1.0, 1.3, 1.6, 1.99):
        k = smallest_k(alpha)
        h = k - alpha
        terms = besov._besov_terms(family, alpha, (2.0,), 2.0, k, DEFAULT_STEP, SUP_POINTS, 2)
        for f, member in zip(family, terms):
            total = math.fsum(
                c * c * nu.order**k * (2.0 * math.sqrt(nu.order)) ** (-2.0 * h) for nu, c in f.coeffs.items() if nu.order
            )
            want = math.sqrt(math.gamma(2.0 * h) * total)
            for (got,) in member:  # refine 1, then 2
                assert abs(got - want) <= 1e-13 * want, (alpha, f.coeffs)


def test_seminorm_rules_stay_short_as_alpha_nears_k():
    # the head edge moves with hq, h = k - alpha, so the window stays short however close alpha is to k,
    # and below the knee the nodes thin out double-exponentially: at most 455 nodes here
    from gausscalc.besov import seminorm_rule

    assert seminorm_rule(0.7, 1, 2.0, DEFAULT_STEP, 1)[0].size == 434
    for k in (1, 2, 3):
        for alpha in (*np.linspace(0.0, k - 1e-6, 101), k - 0.01, k - 1e-4):
            for q in np.linspace(1.0, 8.0, 29):
                assert seminorm_rule(float(alpha), k, float(q), DEFAULT_STEP, 1)[0].size <= 455, (alpha, k, q)


@pytest.mark.parametrize("d,degree", [(1, 8), (1, 16), (2, 8)])
def test_seminorm_knee_keeps_every_even_and_p3_route_accurate(monkeypatch, d, degree):
    # the knee at x = SEMINORM_KNEE thins the nodes of the head; against a
    # quarter-step rule with the knee at X_KNEE the even routes stay at
    # rounding and the kinked p = 3 route within 1e-12
    from gausscalc import besov
    from gausscalc.timequad import X_KNEE

    family = [f for f in gen_family(20260809, d, 8, degree) if f.degree == degree][:2]
    ps = (2.0, 3.0, 4.0)
    for alpha, q in ((0.7, 2.0), (0.4, 4.0), (1.6, 2.0)):
        k = smallest_k(alpha)
        got = np.array(besov._besov_terms(family, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, 1))[:, 0]
        with monkeypatch.context() as m:
            m.setattr(besov, "SEMINORM_KNEE", X_KNEE)
            want = np.array(besov._besov_terms(family, alpha, ps, q, k, DEFAULT_STEP / 4, SUP_POINTS, 1))[:, 0]
        err = np.abs(got - want) / want
        assert err[:, [0, 2]].max() <= 1e-15 and err[:, 1].max() <= 1e-12, (alpha, q, err)


def test_q_beyond_max_q_is_refused_and_large_q_is_finite():
    from gausscalc.besov import MAX_Q

    f = gen_family(20260809, 1, 1, 8)[0]
    for q in (MAX_Q * 1.001, 1e308, math.nan):
        with pytest.raises(ValueError, match="q"):
            besov_params(0.7, 2, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, 2.0, 3.0):  # the q-th powers of values past 1 would overflow unscaled
            assert 0 < besov_seminorm(f, besov_params(0.7, p, MAX_Q)) < math.inf


def test_besov_norm_regression_member_is_finite():
    # member 0 of the package-default d = 1 family used to give NaN at p = 3
    f = gen_family(20260809, 1, 1, 8)[0]
    assert math.isfinite(besov_norm(f, besov_params(0.7, 3, 2)).total)


def test_norm_curve_regression_member_at_large_t():
    from gausscalc import time_derivative

    f = gen_family(20260809, 1, 1, 8)[0]
    params = besov_params(0.7, 3, 2)
    # a log grid out to t = e^7 at step 0.02, with 12 nodes where the curve was NaN
    v_min = math.log(1e-10) / ((params.k - params.alpha) * params.q) - 1.0
    ts = np.exp(np.linspace(v_min, 7.0, math.ceil((7.0 - v_min) / 0.02) + 1))
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


def test_quadrature_buffers_are_per_thread():
    # each thread keeps its own pair of block buffers, so threads taking d = 2
    # quadrature curves at once, more of them than cores and switching often,
    # get the bits of sequential calls
    import sys
    import threading

    members = [f for f in gen_family(20260809, 2, 8, 8) if f.degree == 8][:4]
    ts = np.exp(np.linspace(math.log(1e-3), math.log(50.0), 1201))
    want = [norm_curve(f, 1, 3.0, ts) for f in members]
    got = [[] for _ in members]
    start = threading.Barrier(len(members))

    def run(i):
        start.wait()
        for _ in range(6):
            got[i].append(norm_curve(members[i], 1, 3.0, ts))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(members))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for curves, curve in zip(got, want):
        assert len(curves) == 6 and all(np.array_equal(c, curve) for c in curves)


def test_odd_p_curves_share_the_root_cache_across_threads():
    # threads taking odd-p curves of the same members at once, each at its own
    # p, read and fill one root cache; every curve keeps its sequential bits
    import sys
    import threading

    from gausscalc.hermite import _real_eigenvalues

    members = [f for f in gen_family(20260809, 1, 8, 8) if f.degree == 8][:2]
    ts = np.exp(np.linspace(math.log(1e-3), math.log(50.0), 400))
    ps = (1.0, 3.0, 5.0, 7.0)
    want = [[norm_curve(f, 1, p, ts) for f in members] for p in ps]
    _real_eigenvalues.cache_clear()
    got = [[] for _ in ps]
    start = threading.Barrier(len(ps))

    def run(i):
        start.wait()
        for _ in range(3):
            got[i].append([norm_curve(f, 1, ps[i], ts) for f in members])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(ps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert _real_eigenvalues.hits > 0
    for runs, curves in zip(got, want):
        assert len(runs) == 3 and all(np.array_equal(a, b) for run in runs for a, b in zip(run, curves))


def test_quadrature_buffers_held_stay_under_the_cap():
    # a thread keeps the pair of a call that fits BLOCK_BUFFER_BYTES, and a
    # larger call's pair (1600 and 6000 nodes, 63 columns) is its own
    import threading
    import tracemalloc

    from gausscalc.hermite import BLOCK_BUFFER_BYTES, _quadrature_norms

    rng = np.random.default_rng(3)
    calls = {n: (rng.standard_normal((n, 3)), np.ones(3), rng.standard_normal((3, 63)), (3.0,), np.full(n, 1.0 / n))
             for n in (1600, 6000)}
    held = {}

    def run():
        before = tracemalloc.get_traced_memory()[0]
        for n in (1600, 6000, 1600):
            _quadrature_norms(*calls[n])
            held[n] = tracemalloc.get_traced_memory()[0] - before

    tracemalloc.start()
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        tracemalloc.stop()
    pair = 2 * 8 * 1600 * 63
    assert 2 * 8 * 6000 * 63 > BLOCK_BUFFER_BYTES >= pair
    assert pair <= held[1600] < pair + 2**16 and held[6000] < pair + 2**16


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
    assert besov._besov_terms([f], alpha, ps, 2.0, k, DEFAULT_STEP, SUP_POINTS, 1) == [
        [[besov_seminorm(f, besov_params(alpha, p, 2.0)) for p in ps]]
    ]
    assert besov._besov_terms([f], alpha, ps, math.inf, k, DEFAULT_STEP, SUP_POINTS, 1) == [
        [[ak_constant(f, alpha, p, k) for p in ps]]
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
        ((coarse, fine),) = besov._besov_terms([f], alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)
        ((alone,),) = besov._besov_terms([f], alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, 1)
        assert coarse == alone
        assert np.allclose(fine, coarse, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("q", (1.0, 2.0, math.inf))
@pytest.mark.parametrize("d", (1, 2))
def test_family_terms_are_the_bits_of_one_member_calls(monkeypatch, d, q):
    # the grids, their weights and the decay rows of every order are made once
    # per call; each member's orbit table takes its own rows from them, so a
    # member's terms do not depend on the family it came in
    from gausscalc import besov

    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    top = (7,) if d == 1 else (2, 3)
    family = [
        *gen_family(20260809, d, 8, 3),
        HermiteExpansion.basis(top, -0.8),
        HermiteExpansion.constant(d, 1.5),
        HermiteExpansion.zero(d),
    ]
    alpha, k = 0.7, 1
    decay_rows, tables = besov._decay_rows, []
    monkeypatch.setattr(
        besov, "_decay_rows", lambda orders, ts: tables.append((len(orders), ts.size)) or decay_rows(orders, ts)
    )
    for refine in (1, 2):
        tables.clear()
        terms = besov._besov_terms(family, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)
        # one table, of orders 0 to 3 and the top one, serves the 11 members
        # (the A_k polish, 19 nodes per resolution, takes its own rows)
        assert [n for n, size in tables if size > 38] == [5]
        assert len(terms) == len(family)
        for f, member in zip(family, terms):
            assert member == besov._besov_terms([f], alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)[0]


def _shared_family(d):
    """13 members: mixed supports and degrees, a single chaos, a constant, zero and two equal pairs."""
    family = [
        *gen_family(20260809, d, 8, 8 if d == 1 else 4),
        HermiteExpansion.basis((7,) if d == 1 else (2, 3), -0.8),
        HermiteExpansion.constant(d, 1.5),
        HermiteExpansion.zero(d),
    ]
    return family + [family[0], 1.0 * family[2]]


@pytest.mark.parametrize("q", (1.0, 2.0, 4.0, math.inf))
@pytest.mark.parametrize("d", (1, 2))
def test_shared_p2_tables_give_the_bits_of_one_member_calls(monkeypatch, d, q):
    # at p = 2 a chunk of members shares one orbit table, each member's
    # support padded with zero rows to the longest, and at q = inf one more
    # for the polish; a member's zero rows add exact zeros, so its terms are
    # the bits of its own call, in chunks of any size, the last one a chunk
    # of one, at every q
    from gausscalc import besov

    family = _shared_family(d)
    rows = max(len(f.coeffs) for f in family)
    alpha, k = 0.7, 1
    chunks = []
    orbit_curves = besov._orbit_curves

    def spy(f, supports, *rest):
        chunks.append(len(supports))
        return orbit_curves(f, supports, *rest)

    monkeypatch.setattr(besov, "_orbit_curves", spy)
    # at q = inf each chunk takes one _orbit_curves call for its grid and one for its polish
    calls = 2 if math.isinf(q) else 1
    for refine in (1, 2):
        if math.isinf(q):
            nodes = besov.sup_grid(SUP_POINTS, refine).size
        else:
            nodes = besov.seminorm_rule(alpha, k, q, DEFAULT_STEP, refine)[0].size
        chunks.clear()
        alone = [besov._besov_terms([f], alpha, (2.0,), q, k, DEFAULT_STEP, SUP_POINTS, refine)[0] for f in family]
        assert chunks == [1] * (calls * len(family))  # a one-member p = 2 call is a chunk of one
        for size in (1, 2, 3, len(family)):  # 13 members: chunks of 2 or 3 leave a last chunk of one
            monkeypatch.setattr(besov, "SHARED_TABLE_BYTES", size * 8 * nodes * rows)
            chunks.clear()
            assert besov._besov_terms(family, alpha, (2.0,), q, k, DEFAULT_STEP, SUP_POINTS, refine) == alone
            sizes = [min(size, len(family) - a) for a in range(0, len(family), size)]
            assert chunks == [m for m in sizes for _ in range(calls)]
        chunks.clear()
        ps = (4.0, 2.0)  # with any other p each member is a chunk of one, whatever the budget
        terms = besov._besov_terms(family, alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)
        # a call per member for its curves and, at q = inf, one per p for its polish (norm_curve)
        assert chunks == [1] * (len(family) * (1 + len(ps) if math.isinf(q) else 1))
        assert terms == [besov._besov_terms([f], alpha, ps, q, k, DEFAULT_STEP, SUP_POINTS, refine)[0] for f in family]


def _power_mean(w, weight, c, q):
    """One curve's (w @ (weight c)^q)^(1/q), scaled by the power of two that brings its maximum into [1/2, 1)."""
    v = weight * c
    e = math.frexp(v.max())[1]
    np.ldexp(v, -e, out=v)
    v **= q
    return math.ldexp(float(np.dot(w, v)) ** (1.0 / q), e)


def _seminorm_loop(f, alpha, k, q, refine):
    """f's p = 2 seminorm at each resolution, from one public norm_curve on the finest rule and a one-curve reduction."""
    levels = (1, refine) if refine > 1 else (1,)
    rules = [seminorm_rule(alpha, k, q, DEFAULT_STEP, r) for r in levels]
    ts = rules[-1][0]
    weight, curve = ts ** (k - alpha), norm_curve(f, k, 2.0, ts)
    return [[_power_mean(w, weight[::s], curve[::s], q)] for (_, w), s in zip(rules, (refine, 1))]


@pytest.mark.parametrize("q", (1.0, 2.0, 4.0))
@pytest.mark.parametrize("d", (1, 2))
def test_p2_family_seminorms_equal_a_loop_of_public_curves(monkeypatch, d, q):
    # the members of a p = 2 chunk share an orbit table and one reduction of
    # its rows; in chunks of 1, 2, 3 and all 13 members, zero, constant and
    # repeated ones included, each keeps the bits of its own norm_curve
    # reduced one curve at a time
    from gausscalc import besov

    family = _shared_family(d)
    rows = max(len(f.coeffs) for f in family)
    alpha, k = 0.7, 1
    for refine in (1, 2):
        nodes = besov.seminorm_rule(alpha, k, q, DEFAULT_STEP, refine)[0].size
        want = [_seminorm_loop(f, alpha, k, q, refine) for f in family]
        for size in (1, 2, 3, len(family)):
            monkeypatch.setattr(besov, "SHARED_TABLE_BYTES", size * 8 * nodes * rows)
            assert besov._besov_terms(family, alpha, (2.0,), q, k, DEFAULT_STEP, SUP_POINTS, refine) == want


def _polish_loop(fn, alpha, k, grids, weight, strides, grid_curve):
    """One row's polished sups, a grid at a time, and its polish nodes: 19 from a scalar linspace between the argmax's neighbours."""
    out, used = [], []
    for ts, s in zip(grids, strides):
        sup = weight[::s] * grid_curve[::s]
        i = int(np.argmax(sup))
        lo, hi = math.log(ts[max(i - 1, 0)]), math.log(ts[min(i + 1, ts.size - 1)])
        used.append(np.exp(np.linspace(lo, hi, 19)))
        out.append(float(max(sup.max(), (used[-1] ** (k - alpha) * fn(used[-1])).max())))
    return out, np.concatenate(used)


@pytest.mark.parametrize("d", (1, 2))
def test_polished_sups_of_many_rows_are_the_bits_of_one_row_calls(d):
    # one pass makes every row's polish nodes; each row's nodes and values
    # are the bits of a one-row call and of a loop over its grids, also where
    # the argmax sits at the first node (zero and constant members) or the last
    from gausscalc import besov

    fns = [lambda t, f=f: norm_curve(f, 1, 2.0, t) for f in _shared_family(d)]
    fns.append(lambda t: t**2)  # its weighted sup sits at the last node
    alpha, k = 0.7, 1
    for refine in (1, 2, 3):
        levels = (1, refine) if refine > 1 else (1,)
        grids = [besov.sup_grid(SUP_POINTS, r) for r in levels]
        weight, strides = grids[-1] ** (k - alpha), [refine // r for r in levels]
        grid_curves = np.array([fn(grids[-1]) for fn in fns])
        assert np.argmax(weight * grid_curves[-1]) == weight.size - 1
        seen = []

        def curves(nodes, fns=fns, seen=seen):
            seen.append(nodes.copy())
            return np.array([fn(row) for fn, row in zip(fns, nodes)])

        sups = besov._polished_sups(curves, alpha, k, grids, weight, strides, grid_curves)
        assert len(sups) == len(fns)
        for fn, row, got, nodes in zip(fns, grid_curves, sups, seen[0]):
            one = besov._polished_sups(lambda nodes: fn(nodes), alpha, k, grids, weight, strides, row[None])
            assert one == [got]
            values, want = _polish_loop(fn, alpha, k, grids, weight, strides, row)
            assert got == values and np.array_equal(nodes, want)


@pytest.mark.parametrize("points,refine", ((SUP_POINTS, 1), (SUP_POINTS, 2), (50, 1)))
def test_polish_nodes_are_the_bits_of_scalar_linspace_at_every_argmax(points, refine):
    # the polish nodes of every row and grid come from one array pass of
    # np.linspace's steps; with a row peaking at each node of the grid in
    # turn, the first and last included, each row of nodes is the bits of
    # the scalar linspace between the logs of that node's two neighbours,
    # and a NaN polish gives NaN; on the 50-point grid two last
    # steps lo + 18 (hi - lo) / 18 miss hi by an ulp that exp keeps
    from gausscalc import besov

    ts = sup_grid(points, refine)
    seen = []

    def curves(nodes):
        seen.append(nodes.copy())
        return np.full_like(nodes, np.nan)

    sups = besov._polished_sups(curves, 0.5, 1, [ts], np.ones(ts.size), [1], np.eye(ts.size))
    assert all(math.isnan(value) for (value,) in sups)  # a NaN on the polish nodes is reported, not hidden
    for i, nodes in enumerate(seen[0]):
        lo, hi = math.log(ts[max(i - 1, 0)]), math.log(ts[min(i + 1, ts.size - 1)])
        assert np.array_equal(nodes, np.exp(np.linspace(lo, hi, 19)))


@pytest.mark.parametrize("d", (1, 2))
def test_orbit_curves_of_a_family_are_the_bits_of_one_member_calls(d):
    # at p = 2 one table of the members' own supports, each padded with
    # zero rows to the longest, zero and constant members included, gives
    # each member the bits of its own call, at times shared by the members
    # or a row of times each, and with the decay rows of its orders given
    # or made by the call
    from gausscalc import besov

    family = _shared_family(d)
    supports = [sorted(f.coeffs.items()) for f in family]
    ts = np.exp(np.linspace(math.log(1e-3), math.log(200.0), 101))
    own = ts * np.arange(1, len(family) + 1)[:, None]
    orders = sorted({nu.order for f in family for nu in f.coeffs})
    decay = (orders, besov._decay_rows(orders, ts))
    for k in (0, 1, 2):
        for times, rows in ((ts[None], None), (own, None), (ts[None], decay)):
            shared = besov._orbit_curves(family[0], supports, k, (2.0,), times, rows)
            assert shared.shape == (1, len(family), ts.size)
            for i, (f, items) in enumerate(zip(family, supports)):
                row = times[i % len(times)][None]
                assert np.array_equal(shared[0, i], besov._orbit_curves(f, [items], k, (2.0,), row)[0, 0])
                assert np.array_equal(shared[0, i], norm_curve(f, k, 2.0, row[0]))


@pytest.mark.parametrize("d", (1, 2))
def test_default_budget_shares_sup_grid_tables(d):
    # with the module budget a 399-node sup grid holds several members per
    # chunk, and the duplicated ps of one call keep their bits too
    from gausscalc import besov

    family = _shared_family(d)
    for ps in ((2.0,), (2.0, 2.0)):
        terms = besov._besov_terms(family, 0.5, ps, math.inf, 1, DEFAULT_STEP, SUP_POINTS, 2)
        assert terms == [besov._besov_terms([f], 0.5, ps, math.inf, 1, DEFAULT_STEP, SUP_POINTS, 2)[0] for f in family]
    assert besov.SHARED_TABLE_BYTES // (8 * besov.sup_grid(SUP_POINTS, 2).size * 9) == 18  # d = 1, degree 8


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


def test_curves_reject_a_k_whose_orbit_factors_leave_the_float_range():
    # sqrt(6)^k passes the float maximum near k = 792; at k = 1501 the curve was inf at p = 2 and NaN at p = 3
    for p in (2.0, 3.0):
        with pytest.raises(ValueError, match="k = 1501 takes the orbit factor sqrt"):
            norm_curve(MIX, 1501, p, [0.5, 1.0])
    assert np.all(np.isfinite(norm_curve(MIX, 600, 3.0, [0.5, 1.0])))


def test_seminorms_reject_an_explicit_k_whose_time_factor_leaves_the_float_range():
    # at k = 200 t^(k - alpha) over the time grid and the value itself, about
    # (Gamma(2h) 2^(-2h))^(1/2) = e^857 at h = 199.5, overflowed to inf with
    # RuntimeWarnings; k = 100 is in range and keeps its bits
    f = gen_family(20260809, 1, 3, 8)[2]
    with pytest.raises(ValueError, match="k = 200 takes t"):
        besov_seminorm(f, besov_params(0.5, 2, 2, 200))
    with pytest.raises(ValueError, match="k = 200 takes t"):
        ak_constant(f, 0.5, 2.0, 200)
    assert besov_seminorm(f, besov_params(0.5, 2, 2, 100)) == 1.964888872776305e155
    assert ak_constant(f, 0.5, 2.0, 100) == 3.7178219999398473e155


def test_range_checks_count_the_chaos_norm():
    # ||h_nu||_p <= (p - 1)^(|nu|/2) is what takes these past the float range:
    # A_k of h_30 at p = 8, k = 169 overflowed in a multiply, and the curve
    # at k = 410 in a matmul, while p = 2 stays finite at the same k
    h30, h300 = HermiteExpansion.basis((30,)), HermiteExpansion.basis((300,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k = 169 takes t"):
            ak_constant(h30, 0.5, 8.0, 169)
        assert ak_constant(h30, 0.5, 8.0, 160) == 3.9286926128212357e294
        with pytest.raises(ValueError, match="k = 125 takes t"):
            besov_seminorm(h300, besov_params(0.5, 7, 2, 125))
        assert math.isfinite(besov_seminorm(h300, besov_params(0.5, 2, 2, 125)))
        with pytest.raises(ValueError, match="k = 410 takes the orbit factor"):
            norm_curve(h30, 410, 8.0, [0.0, 1.0])
        assert np.all(np.isfinite(norm_curve(h30, 410, 2.0, [0.0, 1.0])))


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
            besov._besov_terms([MIX], alpha, (2.0, 3.0), q, 1, DEFAULT_STEP, SUP_POINTS, 2)


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


def test_hardy_battery_gives_the_bits_of_one_pair_calls():
    # f's samples and running integral are shared by the pairs of one call;
    # no pair's value may depend on the others, in any order, diverging or not
    from gausscalc.besov import _hardy_sides
    from gausscalc.harness import HARDY_BATTERY

    pairs = [(p, r) for p in (1.0, 2.0, 3.0) for r in (0.5, 1.0, 2.0)]
    heavy = lambda y: y**2 / (1.0 + y**4)  # the tail diverges at p = 2, r = 2
    linear = lambda y: y * np.exp(-y)  # the head diverges at p = 1, r = 2
    for fn in [fn for _, fn in HARDY_BATTERY] + [heavy, linear]:
        for kind in ("head", "tail"):
            assert _hardy_sides(fn, pairs, kind) == [hardy_check(fn, p, r, kind) for p, r in pairs]
    for fn, kind in ((heavy, "tail"), (linear, "head")):
        sides = _hardy_sides(fn, pairs[::-1], kind)
        assert sides == [hardy_check(fn, p, r, kind) for p, r in pairs[::-1]]
        assert any(math.isinf(lhs) for lhs, _ in sides) and any(math.isfinite(lhs) for lhs, _ in sides)
    with pytest.raises(ValueError, match="p must be >= 1"):
        _hardy_sides(linear, [(1.0, 1.0), (0.5, 1.0)], "head")


def test_hardy_check_is_finite_at_non_integer_p():
    # Simpson's running integral dips below 0 where f has decayed; it
    # integrates f >= 0, so it is clamped at 0 before the p-th power
    from gausscalc.harness import HARDY_BATTERY

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in (1.5, 2.5):
            for _, fn in HARDY_BATTERY:
                for kind in ("head", "tail"):
                    for r in (0.5, 1.0, 2.0):
                        lhs, rhs = hardy_check(fn, p, r, kind)
                        assert math.isfinite(lhs) and lhs >= 0.0
                        assert lhs <= rhs * (1.0 + 1e-6)


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


