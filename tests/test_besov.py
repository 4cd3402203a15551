import math

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
    hermite_eval,
    kdecay_report,
    lip_alpha_norm,
    log_time_rule,
    lp_norm,
    norm_curve,
    orbit_difference,
    smallest_k,
)

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
        # odd p also at large t, where ||.||_3^3 underflows while the norm does not
        ts = np.array([0.3, 1.0, 50.0, 120.0, 200.0] if p != 4.0 else [0.3, 1.0])
        curve = norm_curve(f, 1, p, ts)
        for t, v in zip(ts, curve):
            direct = lp_norm(time_derivative(f, float(t), 1), p)
            assert abs(v - direct) / direct < 1e-10


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


def test_norm_curve_rejects_large_p():
    with pytest.raises(ValueError):
        norm_curve(MIX, 1, 9.0, np.array([1.0]))


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


def test_hardy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 0.5, 1.0, "head")
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 1.0, -1.0, "head")
    with pytest.raises(ValueError):
        hardy_check(lambda y: y, 1.0, 1.0, "middle")
    with pytest.raises(ValueError):
        hardy_check(lambda y: -np.ones_like(y), 1.0, 1.0, "head")


# -- compact-box alias --------------------------------------------------------------------


def test_lip_alias_on_constant():
    sup, ak, total = lip_alpha_norm(CONST, 0.5)
    assert sup == 2.0 and ak == 0.0 and total == 2.0


@pytest.mark.parametrize("nu,alpha", [((3,), 0.5), ((3,), 1.3), ((1, 2), 0.5)])
def test_lip_alias_on_single_chaos(nu, alpha):
    # u^(k)(., t) = (-sqrt n)^k e^(-t sqrt n) h_nu, so the A_k part is
    # sup_box |h_nu| * n^(k/2) * max_t t^(k-a) e^(-t sqrt n), attained at t = (k-a)/sqrt(n)
    f = HermiteExpansion.basis(nu)
    n, k = sum(nu), smallest_k(alpha)
    axis = np.linspace(-4.0, 4.0, 101)
    sup_h = math.prod(max(abs(hermite_eval((m,), x)) for x in axis) for m in nu)
    sup, ak, total = lip_alpha_norm(f, alpha, box_half_width=4.0, points_per_axis=101)
    want = sup_h * n ** (k / 2.0) * ((k - alpha) / math.sqrt(n)) ** (k - alpha) * math.exp(-(k - alpha))
    assert abs(sup - sup_h) <= 1e-12 * sup_h
    assert want * (1.0 - 1e-4) <= ak <= want * (1.0 + 1e-12)
    assert total == sup + ak


def test_lip_alias_homogeneous():
    s1, a1, t1 = lip_alpha_norm(MIX, 0.5, box_half_width=4.0, points_per_axis=101)
    s3, a3, t3 = lip_alpha_norm(3.0 * MIX, 0.5, box_half_width=4.0, points_per_axis=101)
    assert abs(t3 - 3.0 * t1) < 1e-10 * t1
