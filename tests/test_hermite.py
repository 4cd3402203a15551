import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gausscalc import (
    HermiteExpansion,
    MultiIndex,
    QuadratureExactnessWarning,
    basis_matrix,
    chaos_project,
    gauss_hermite_grid,
    hermite_eval,
    inner_product_gamma,
    l2_norm_coeffs,
    lp_norm,
    lp_norm_gamma,
    pi0,
)

from reference import quad_lp_norm_1d

SQRT2 = math.sqrt(2.0)


# -- multi-indices -----------------------------------------------------------------


def test_multiindex_order_and_dimension():
    nu = MultiIndex((2, 0, 3))
    assert nu.order == 5
    assert nu.dimension == 3
    assert nu == (2, 0, 3)  # interoperable with plain tuples


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
        gauss_hermite_grid(1, 201)


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


def test_orthonormality_1d(grid1d):
    for n in range(9):
        for m in range(9):
            ip = inner_product_gamma(
                HermiteExpansion.basis((n,)), HermiteExpansion.basis((m,)), grid1d
            )
            assert abs(ip - (1.0 if n == m else 0.0)) < 1e-12


def test_mean_pairing_with_h0(grid1d, mixed1d):
    ip = inner_product_gamma(HermiteExpansion.constant(1, 1.0), mixed1d, grid1d)
    assert abs(ip - mixed1d.mean) < 1e-13


def test_inexact_grid_warns():
    f = HermiteExpansion.basis((8,))
    small = gauss_hermite_grid(1, 4)
    with pytest.warns(QuadratureExactnessWarning):
        inner_product_gamma(f, f, small)


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


ODD_P_TOL = {1: 1e-11, 3: 1e-11, 5: 1e-10, 7: 3e-9}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=8),
    st.floats(0.1, 1.0),
    st.booleans(),
    st.sampled_from((1, 3, 5, 7)),
)
def test_odd_p_norm_matches_split_quadrature(lower, top, negative, p):
    # random degree 1-8 (the top coefficient is at least 0.1 in size) against
    # an independent adaptive quadrature split at the real roots.  The bound
    # grows with p because the route integrates f^p in the power basis, whose
    # cancellation grows like a p-th power: a hypothesis search that maximised
    # the error found up to 1.2e-15, 2.9e-13, 1.1e-11 and 4.2e-10 at
    # p = 1, 3, 5, 7.
    coeffs = lower + [-top if negative else top]
    f = HermiteExpansion(1, {(n,): c for n, c in enumerate(coeffs)})
    ref = quad_lp_norm_1d(coeffs, p)
    assert abs(lp_norm(f, float(p)) - ref) / ref < ODD_P_TOL[p]


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


def test_pi0_zero_mean(mixed1d, grid1d):
    g = pi0(mixed1d)
    assert g.mean == 0.0
    assert abs(inner_product_gamma(HermiteExpansion.constant(1, 1.0), g, grid1d)) < 1e-12


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
