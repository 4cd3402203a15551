import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from gausscalc import (
    HermiteExpansion,
    MultiIndex,
    basis_matrix,
    chaos_project,
    gauss_hermite_grid,
    gen_family,
    hermite_values_1d,
    inner_product_gamma,
    l2_norm_coeffs,
    lp_norm,
    lp_norm_gamma,
    norm_curve,
    pi0,
)
from gausscalc.hermite import (
    MAX_NODES_PER_AXIS,
    TABLE_CACHE_BYTES,
    _abs_moment_exact_1d,
    _abs_pow,
    _basis_table,
    _gauss_legendre,
    _TableCache,
    _unit_pieces,
)

from reference import hermite_eval, quad_lp_norm_1d

SQRT2 = math.sqrt(2.0)


# -- multi-indices -----------------------------------------------------------------


def test_multiindex_order_and_dimension():
    nu = MultiIndex((2, 0, 3))
    assert nu.order == 5
    assert nu.dimension == 3
    assert nu == (2, 0, 3)  # interoperable with plain tuples


def test_multiindex_of_a_multiindex_is_itself():
    nu = MultiIndex((2, 0, 3))
    assert MultiIndex(nu) is nu


def test_multiindex_rejects_negative():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=4))
def test_multiindex_order_is_sum(exps):
    assert MultiIndex(exps).order == sum(exps)


# -- quadrature grids ---------------------------------------------------------------


def test_grid_m2_is_pm_one_over_sqrt2():
    g = gauss_hermite_grid(1, 2)
    assert np.allclose(sorted(g.nodes.ravel()), [-1 / SQRT2, 1 / SQRT2], atol=1e-14)
    assert np.allclose(g.weights, [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("m", [2, 5, 17, 64])
def test_grid_weights_are_probability(m):
    g = gauss_hermite_grid(1, m)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    assert np.all(g.weights > 0)


def test_grid_2d_m3_center_weight():
    g = gauss_hermite_grid(2, 3)
    assert g.nodes.shape == (9, 2)
    i = np.argmin(np.abs(g.nodes).sum(axis=1))
    assert np.allclose(g.nodes[i], [0.0, 0.0], atol=1e-14)
    assert abs(g.weights[i] - (2.0 / 3.0) ** 2) < 1e-14


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_hermite_grid(0, 5)
    with pytest.raises(ValueError):
        gauss_hermite_grid(1, 1)
    with pytest.raises(ValueError):
        gauss_hermite_grid(1, MAX_NODES_PER_AXIS + 1)


def test_grid_is_cached_and_read_only():
    g = gauss_hermite_grid(2, 17)
    assert gauss_hermite_grid(2, 17) is g
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.weights[0] = 1.0


def test_grid_polynomial_exactness():
    # per-axis degree <= 2m-1 is integrated exactly: E[x^4] = 3/4 under gamma_1
    g = gauss_hermite_grid(1, 3)
    assert abs(np.dot(g.weights, g.nodes.ravel() ** 4) - 0.75) < 1e-13


# -- basis evaluation ----------------------------------------------------------------


def test_h0_is_one():
    assert hermite_eval((0,), 0.3) == 1.0
    assert hermite_eval((0, 0), [1.0, -2.0]) == 1.0


def test_h1_at_one_is_sqrt2():
    assert abs(hermite_eval((1,), 1.0) - SQRT2) < 1e-14


def test_h2_at_zero():
    # H_2(x) = 4x^2 - 2 normalized by sqrt(8)
    assert abs(hermite_eval((2,), 0.0) - (-1 / SQRT2)) < 1e-14


def test_tensor_eval_factorizes():
    v = hermite_eval((2, 1), [0.4, -0.9])
    assert abs(v - hermite_eval((2,), 0.4) * hermite_eval((1,), -0.9)) < 1e-14


def test_expansion_eval_examples():
    three = HermiteExpansion.constant(1, 3.0)
    assert three(0.77) == 3.0
    h1 = HermiteExpansion.basis((1,))
    assert abs(h1(1.0) - SQRT2) < 1e-14
    h12 = h1 + HermiteExpansion.basis((2,))
    assert abs(h12(0.0) - (-1 / SQRT2)) < 1e-14


def test_expansion_eval_dimension_mismatch():
    f = HermiteExpansion.basis((1, 0))
    with pytest.raises(ValueError):
        f(0.5)


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.floats(-3, 3, allow_nan=False)), min_size=1, max_size=6
    ),
    st.floats(-2.5, 2.5, allow_nan=False),
)
def test_eval_consistency_two_code_paths(terms, x):
    f = HermiteExpansion(1, {})
    for n, c in terms:
        f = f + c * HermiteExpansion.basis((n,))
    direct = sum(c * hermite_eval(nu, x) for nu, c in f.coeffs.items())
    assert abs(f(x) - direct) <= 1e-12 * (1 + abs(direct))


@pytest.mark.parametrize("d", (1, 2))
def test_basis_matrix_matches_hermite_eval(d):
    from gausscalc.harness import _indices_up_to

    idxs = _indices_up_to(d, 7)
    pts = np.random.Generator(np.random.Philox(11 + d)).uniform(-3.0, 3.0, (25, d))
    phi = basis_matrix(idxs, pts)
    assert phi.shape == (25, len(idxs))
    for i, x in enumerate(pts):
        for j, nu in enumerate(idxs):
            want = hermite_eval(nu, x)
            assert abs(phi[i, j] - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("d, m", [(1, 40), (2, 13)])
def test_basis_table_is_the_basis_matrix_read_only(d, m):
    from gausscalc.harness import _indices_up_to

    grid = gauss_hermite_grid(d, m)
    idxs = tuple(_indices_up_to(d, 6))[::-1]  # any order: the table keeps it
    phi, bound = _basis_table(idxs, grid)
    want = basis_matrix(idxs, grid.nodes)
    assert np.array_equal(phi, want)
    assert np.array_equal(bound, np.max(np.abs(want), axis=0))
    assert not phi.flags.writeable and not bound.flags.writeable
    assert _basis_table(idxs, grid)[0] is phi
    # a grid with the same nodes is another grid: tables are keyed by identity
    assert _basis_table(idxs, type(grid)(d, grid.nodes, grid.weights))[0] is not phi


def test_table_cache_is_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr("gausscalc.hermite.TABLE_CACHE_BYTES", 1000)
    cache = _TableCache(lambda n: (np.zeros(n), n))
    for n in (50, 60, 50, 40):  # 400, 480, a hit on 50, then 320 bytes
        cache(n)
    assert list(cache._store) == [(50,), (40,)]  # 60, least recently used, went out
    assert cache.nbytes == 720
    cache(200)  # 1600 bytes, more than the whole budget: not kept
    assert list(cache._store) == [(50,), (40,)] and cache.nbytes == 720
    cache.cache_clear()
    assert not cache._store and cache.nbytes == 0


def test_odd_p_tables_stay_within_the_cache_budget():
    # at degree 200 the p = 1, 3, 5 tables take 6.3, 26 and 51 MB
    _unit_pieces.cache_clear()
    h200 = HermiteExpansion.basis((200,))
    for p in (1.0, 3.0, 5.0):
        assert math.isfinite(lp_norm(h200, p))
        assert _unit_pieces.nbytes <= TABLE_CACHE_BYTES
    assert sorted(_unit_pieces._store) == [(200, 1), (200, 3)]


@pytest.mark.parametrize("x", (15.0, 25.0, 30.0))
def test_hermite_values_stay_finite_and_accurate_at_degree_200(x):
    # the raw recurrence with a 1/sqrt(2^n n!) rescale overflowed at x = 25
    # and 30 (15 and 25 non-finite entries).  h_n alone can sit near one of
    # its zeros, so each error is measured against the pair (h_n, h_(n+1)),
    # which never vanishes together
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.hermite(n, x) / mpmath.sqrt(2**n * mpmath.factorial(n))) for n in range(202)])
    got = hermite_values_1d([x], 200)[0]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref[:-1]) / np.hypot(ref[:-1], ref[1:])) < 1e-13


@pytest.mark.parametrize("x", (15.0, 25.0, 30.0, 2.225073858507203e-309))
def test_hermite_eval_does_not_overflow_at_degree_200(x):
    # H_200(30) ~ 1e355: the unscaled recurrence overflowed at x = 30; at a
    # subnormal x, H_odd ~ x made a rescaling by H_n alone send H_(n-1) to inf
    with mpmath.workdps(40):
        ref = float(mpmath.hermite(200, x) / mpmath.sqrt(2**200 * mpmath.factorial(200)))
    assert abs(hermite_eval((200,), x) - ref) / abs(ref) < 1e-12


def test_chaos_values_split_f_by_order():
    f = HermiteExpansion(2, {(0, 0): 0.3, (1, 0): -0.7, (0, 1): 0.2, (2, 1): 0.9, (0, 3): -0.4, (1, 3): 0.5})
    for x in ([0.3, -1.1], [1.7, 0.4], [-2.2, 2.5]):
        g = f.chaos_values(x)
        assert g.shape == (f.degree + 1,)
        for n in range(f.degree + 1):
            want = chaos_project(f, n)(x)
            assert abs(g[n] - want) <= 1e-12 * (1 + abs(want))
        assert abs(g.sum() - f(x)) <= 1e-12 * (1 + abs(f(x)))


# -- inner products and norms ----------------------------------------------------------


def test_orthonormality_1d():
    for n in range(9):
        for m in range(9):
            ip = inner_product_gamma(HermiteExpansion.basis((n,)), HermiteExpansion.basis((m,)))
            assert abs(ip - (1.0 if n == m else 0.0)) < 1e-12


def test_mean_pairing_with_h0(mixed1d):
    ip = inner_product_gamma(HermiteExpansion.constant(1, 1.0), mixed1d)
    assert abs(ip - mixed1d.mean) < 1e-13


def test_inner_product_sizes_its_own_exact_grid(family2d):
    # m = (deg f + deg g)//2 + 1 nodes per axis reproduce the coefficient pairing
    for f in family2d[:4]:
        for g in family2d[:4]:
            want = sum(c * g.coefficient(nu) for nu, c in f.coeffs.items())
            assert abs(inner_product_gamma(f, g) - want) <= 1e-12 * l2_norm_coeffs(f) * l2_norm_coeffs(g)
    h30 = HermiteExpansion.basis((30,))
    assert abs(inner_product_gamma(h30, h30) - 1.0) < 1e-12
    assert inner_product_gamma(HermiteExpansion.constant(1, 2.0), HermiteExpansion.constant(1, 3.0)) == pytest.approx(6.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner_product_gamma(h30, family2d[0])


def test_lp_norm_of_constant(grid1d):
    c = HermiteExpansion.constant(1, -2.5)
    for p in (1.0, 2.0, 3.7):
        assert abs(lp_norm_gamma(c, p, grid1d) - 2.5) < 1e-12


def test_h1_l2_norm_is_one(grid1d):
    assert abs(lp_norm_gamma(HermiteExpansion.basis((1,)), 2.0, grid1d) - 1.0) < 1e-12


def test_h1_l4_norm(grid1d):
    # E[(sqrt(2) x)^4] = 4 E[x^4] = 3 under gamma_1, so the norm is 3^(1/4)
    want = 3.0 ** 0.25
    assert abs(lp_norm_gamma(HermiteExpansion.basis((1,)), 4.0, grid1d) - want) < 1e-12


def test_lp_norm_gamma_does_not_underflow(grid1d):
    # (1e-200 h_1)^4 underflows; the norm 1e-200 3^(1/4) does not
    tiny = HermiteExpansion.basis((1,), 1e-200)
    assert abs(lp_norm_gamma(tiny, 4.0, grid1d) / (1e-200 * 3.0**0.25) - 1.0) < 1e-12


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.5, 2.5])
def test_abs_pow_matches_float_power(p):
    rng = np.random.Generator(np.random.Philox(3))
    v = rng.normal(size=(50, 40)) * np.exp(rng.uniform(-5.0, 5.0, size=(50, 40)))
    want = np.abs(v) ** p
    got = _abs_pow(v.copy(), p)
    if p.is_integer():
        assert np.max(np.abs(got - want) / want) < 1e-15
        product = np.abs(v)  # the reference loop ((|v| |v|) |v|) ...
        for _ in range(int(p) - 1):
            product = product * np.abs(v)
        assert np.array_equal(got, product)
        assert np.array_equal(_abs_pow(v.copy(), p, np.empty_like(v)), product)
        if p % 2 == 0:
            # no |.| at even p: negative inputs give the bits of |v|, and v is left as it was
            negative = -np.abs(v)
            assert np.array_equal(_abs_pow(negative, p), product)
            assert np.array_equal(negative, -np.abs(v))
    else:
        assert np.array_equal(got, want)
    # a v that already holds |v| skips the pass, and gives the same bits
    assert np.array_equal(_abs_pow(np.abs(v), p, np.empty_like(v), absolute=True), got)


def test_lp_norm_rejects_p_below_one(grid1d):
    with pytest.raises(ValueError):
        lp_norm_gamma(HermiteExpansion.basis((1,)), 0.5, grid1d)


def test_l2_coefficient_norm_matches_quadrature(family1d, grid1d):
    for f in family1d[:8]:
        assert abs(lp_norm_gamma(f, 2.0, grid1d) - l2_norm_coeffs(f)) < 1e-10


def test_degree_12_exact_on_m13_grid():
    # m = 13 integrates squares of degree-12 expansions exactly
    rng = np.random.Generator(np.random.Philox(17))
    f = HermiteExpansion(1, {(n,): float(c) for n, c in enumerate(rng.uniform(-1, 1, 13))})
    g = gauss_hermite_grid(1, 13)
    assert abs(lp_norm_gamma(f, 2.0, g) - l2_norm_coeffs(f)) < 1e-10


def test_exact_l1_matches_adaptive_quadrature(mixed1d):
    ref, _ = quad(lambda x: abs(mixed1d((x,))) * math.exp(-x * x) / math.sqrt(math.pi), -np.inf, np.inf, limit=400)
    assert abs(lp_norm(mixed1d, 1.0) - ref) < 1e-9


ODD_P_TOL = 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=8),
    st.floats(0.1, 1.0),
    st.booleans(),
    st.sampled_from((1, 3, 5, 7)),
)
def test_odd_p_norm_matches_split_quadrature(lower, top, negative, p):
    # random degree 1-8 (the top coefficient is at least 0.1 in size) against
    # an independent adaptive quadrature split at the real roots.  The route
    # adds positive-weight Gauss-Legendre pieces between the roots, so no sum
    # cancels and the error does not grow with p: a hypothesis search of 1500
    # inputs per p that maximised the error found at most 1.4e-15, 8.9e-16,
    # 1.6e-15 and 7.4e-16 at p = 1, 3, 5, 7 (the power-basis route it
    # replaced reached 1.1e-11 at p = 5 and 4.2e-10 at p = 7).
    coeffs = lower + [-top if negative else top]
    f = HermiteExpansion(1, {(n,): c for n, c in enumerate(coeffs)})
    ref = quad_lp_norm_1d(coeffs, p)
    assert abs(lp_norm(f, float(p)) - ref) / ref < ODD_P_TOL


@pytest.mark.parametrize("n", (16, 24, 32, 40))
def test_odd_p_norm_holds_its_accuracy_at_high_degree(n):
    # the power-basis route lost digits exponentially with degree here: up to
    # 5e-11 at degree 16, 1e-7 at 24, 5e-4 at 32 and no correct digit at 40
    for f in [HermiteExpansion.basis((n,))] + gen_family(7, 1, 60, n)[:3]:
        coeffs = [f.coefficient((j,)) for j in range(f.degree + 1)]
        for p in (1, 3, 5, 7):
            ref = quad_lp_norm_1d(coeffs, p)
            assert abs(lp_norm(f, float(p)) - ref) / ref < ODD_P_TOL


def test_grid_cap_is_a_valid_rule():
    g = gauss_hermite_grid(1, MAX_NODES_PER_AXIS)
    assert np.all(g.weights > 0) and abs(g.weights.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("n,p", [(80, 8.0), (100, 6.0)])
def test_even_p_norm_is_exact_beyond_200_nodes(n, p):
    # m = p n / 2 + 1 is 321 and 301: a grid capped at 200 nodes left these
    # 1.2e-2 and 6.5e-3 low
    f = HermiteExpansion.basis((n,))
    ref = quad_lp_norm_1d([0.0] * n + [1.0], p)
    assert abs(lp_norm(f, p) - ref) <= 1e-13 * ref
    assert abs(norm_curve(f, 0, p, [0.0])[0] - ref) <= 1e-13 * ref


def test_even_p_norm_refuses_an_inexact_grid():
    # h_100 at p = 8 needs m = 401 > MAX_NODES_PER_AXIS; the capped grid was 74% low
    f = HermiteExpansion.basis((100,))
    with pytest.raises(ValueError, match="401 Gauss-Hermite nodes"):
        lp_norm(f, 8.0)
    with pytest.raises(ValueError, match="401 Gauss-Hermite nodes"):
        norm_curve(f, 1, 8.0, [0.5])


def test_odd_p_norm_of_h200_is_finite_and_grows_with_p():
    # at degree 200 the power basis returned 9.6e12 at p = 1 (the L^1 norm of
    # an L^2-normalized function is at most 1) and NaN at p = 3
    ps = (1.0, 3.0, 5.0)
    norms = [lp_norm(HermiteExpansion.basis((200,)), p) for p in ps]
    assert all(math.isfinite(v) for v in norms)
    assert norms[0] <= norms[1] <= norms[2]
    for p, v in zip(ps, norms):
        ref = quad_lp_norm_1d([0.0] * 200 + [1.0], p)
        assert abs(v - ref) / ref < ODD_P_TOL


@pytest.mark.parametrize("m", [1, 2, 9, 12, 20, 44, 100, 508])
def test_gauss_legendre_rule_matches_mpmath(m):
    # m = 508 is the rule of the odd-p pieces at degree 200, p = 5
    x, w = _gauss_legendre(m)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.all(w > 0)
    assert abs(w.sum() - 2.0) <= 1e-15
    picks = np.arange(m // 2, m)  # the nonnegative nodes; the rest are their mirror images
    if m > 100:  # 40-digit Newton costs about 10 ms per node here: the 16 outermost and every 16th
        picks = np.union1d(picks[::16], picks[-16:])
    with mpmath.workdps(40):
        for i in picks:
            r = mpmath.mpf(float(x[i]))
            for _ in range(2):  # from a 1e-16 start, two Newton steps reach 40 digits
                p_prev, p = mpmath.mpf(1), r
                for j in range(1, m):
                    p_prev, p = p, ((2 * j + 1) * r * p - j * p_prev) / (j + 1)
                dp = m * (r * p - p_prev) / (r * r - 1)
                r -= p / dp
            assert abs(float(r - x[i])) <= 2e-16
            assert abs(float((2 / ((1 - r * r) * dp * dp) - w[i]) / w[i])) <= 1e-14 * m


def test_odd_p_rows_do_not_depend_on_each_other():
    # lp_norm (one row) and norm_curve (a whole time grid) share this kernel,
    # so a row's value must be the same bits whatever rows come with it
    rng = np.random.Generator(np.random.Philox(5))
    rows = rng.normal(size=(40, 9)) * np.exp2(rng.integers(-300, 300, size=(40, 1)))
    for p in (1, 3, 7):
        m, e = _abs_moment_exact_1d(rows, p)
        for i in range(rows.shape[0]):
            mi, ei = _abs_moment_exact_1d(rows[i], p)
            assert (mi[0], ei[0]) == (m[i], e[i])


@pytest.mark.parametrize("p", (math.inf, math.nan))
def test_norms_reject_non_finite_p(grid1d, p):
    f = HermiteExpansion.basis((1,))
    for call in (lambda: lp_norm(f, p), lambda: lp_norm_gamma(f, p, grid1d)):
        with pytest.raises(ValueError, match=f"got p = {p}"):
            call()


def test_even_p_norm_is_exact(mixed1d):
    # |f|^4 is a polynomial; compare the auto grid against an oversized one
    big = gauss_hermite_grid(1, 120)
    assert abs(lp_norm(mixed1d, 4.0) - lp_norm_gamma(mixed1d, 4.0, big)) < 1e-13


def test_noninteger_p_falls_back_to_quadrature(mixed1d):
    # |f|^2.5 has fractional-power kinks, so plain quadrature is only good to
    # ~1e-5 relative no matter the grid; compare against adaptive integration
    ref = quad(
        lambda x: abs(mixed1d((x,))) ** 2.5 * math.exp(-x * x) / math.sqrt(math.pi),
        -np.inf,
        np.inf,
        limit=400,
    )[0] ** (1 / 2.5)
    assert abs(lp_norm(mixed1d, 2.5) - ref) / ref < 5e-5


def _sliced_lp_norm_2d(f: HermiteExpansion, p: int) -> float:
    """||f||_p,gamma_2 for odd p, exact in x_1 and composite Simpson in x_2.

    On the slice x_2 = y, f is the 1-d expansion with coefficients
    sum_nu2 c_(nu1, nu2) h_nu2(y), whose |.|^p integral is the odd-p
    d = 1 route (checked against adaptive quadrature in
    test_odd_p_norm_matches_split_quadrature).  The slice integrals are
    integrated against gamma_1 over 4001 slices of [-9, 9]; doubling the
    slices moves the result by at most 3e-7 relative on gen_family(7, 2, 4, 8).
    """
    ys = np.linspace(-9.0, 9.0, 4001)
    hy = hermite_values_1d(ys, f.degree)
    rows = np.zeros((ys.size, f.degree + 1))
    for (n1, n2), c in f.coeffs.items():
        rows[:, n1] += c * hy[:, n2]
    m, e = _abs_moment_exact_1d(rows, p)
    return simpson(np.ldexp(m, p * e) * np.exp(-ys * ys) / math.sqrt(math.pi), x=ys) ** (1.0 / p)


@pytest.mark.parametrize("p,bound", [(1, 1e-2), (3, 2e-4)])
def test_odd_p_quadrature_error_in_d2(p, bound):
    # odd p in d = 2 is plain Gauss-Hermite quadrature across the kinks of
    # |f|^p; measured relative errors on these members: 5.7e-3 to 9.2e-3 at
    # p = 1, 9.2e-6 to 1.4e-4 at p = 3.  The bound pins that accuracy.
    for f in gen_family(7, 2, 4, 8)[:3]:
        ref = _sliced_lp_norm_2d(f, p)
        assert abs(lp_norm(f, float(p)) - ref) / ref < bound


# -- projections -------------------------------------------------------------------------


def test_chaos_project_filters_by_order():
    f = (
        HermiteExpansion.basis((0, 0))
        + 2.0 * HermiteExpansion.basis((1, 0))
        + HermiteExpansion.basis((1, 1))
    )
    p1 = chaos_project(f, 1)
    assert p1.coeffs == {MultiIndex((1, 0)): 2.0}
    assert chaos_project(f, 5).coeffs == {}


def test_chaos_projections_partition(mixed1d):
    total = HermiteExpansion.zero(1)
    for n in range(mixed1d.degree + 1):
        total = total + chaos_project(mixed1d, n)
    assert total == mixed1d


def test_pi0_examples():
    assert pi0(HermiteExpansion.constant(1, 5.0)).coeffs == {}
    f = HermiteExpansion.constant(1, 1.0) + HermiteExpansion.basis((1,))
    assert pi0(f) == HermiteExpansion.basis((1,))
    assert pi0(pi0(f)) == pi0(f)


def test_pi0_zero_mean(mixed1d):
    g = pi0(mixed1d)
    assert g.mean == 0.0
    assert abs(inner_product_gamma(HermiteExpansion.constant(1, 1.0), g)) < 1e-12


# -- serialization -------------------------------------------------------------------------


def test_json_round_trip(mixed1d):
    text = mixed1d.to_json()
    back = HermiteExpansion.from_json(text)
    assert back == mixed1d
    doc = json.loads(text)
    assert doc["d"] == 1
    assert {"nu", "c"} == set(doc["coeffs"][0])


def test_arithmetic_is_coefficientwise():
    f = HermiteExpansion(1, {(0,): 1.0, (2,): -2.0})
    g = HermiteExpansion(1, {(2,): 2.0, (3,): 0.5})
    assert (f + g).coeffs == {MultiIndex((0,)): 1.0, MultiIndex((3,)): 0.5}
    assert (2.0 * f).coefficient((2,)) == -4.0
