"""Acceptance suite: every advertised guarantee at desk scale, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Scale: dimensions 1 and 2, degree <= 8, 50-member seeded
families; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gausscalc import (
    HermiteExpansion,
    ak_constant,
    basis_matrix,
    bessel_derivative,
    bessel_derivative_integral,
    bessel_potential,
    bessel_potential_integral,
    besov_params,
    besov_seminorm,
    c_beta,
    gauss_hermite_grid,
    gen_family,
    hardy_check,
    kdecay_report,
    l2_norm_coeffs,
    lp_norm,
    norm_curve,
    orbit_difference,
    ou_mehler,
    ou_spectral,
    ph_kernel,
    ph_spectral,
    ph_subordination,
    pi0,
    riesz_derivative,
    riesz_derivative_integral,
    riesz_potential,
    riesz_potential_integral,
    smallest_k,
    verify_all,
)
from gausscalc.harness import HARDY_BATTERY, ExperimentConfig, _indices_up_to

SEED = 20260809
BETAS = (0.3, 0.5, 0.9, 1.5, 2.5)


def report(num: int, name: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num} [{mark}] {name}{suffix}")
    return ok


def gram_matrix(d: int, degree: int, m: int) -> np.ndarray:
    grid = gauss_hermite_grid(d, m)
    phi = basis_matrix(_indices_up_to(d, degree), grid.nodes)
    return phi.T @ (grid.weights[:, None] * phi)


def test_criterion_1_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        g = gram_matrix(d, 8, 9)  # m = 9 is exact for degree 8 + 8
        worst = max(worst, float(np.max(np.abs(g - np.eye(g.shape[0])))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(1, "orthonormality of the basis (d <= 2, degree <= 8)", ok,
                  f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_semigroup_oracles():
    worst_mehler = worst_sub = 0.0
    for d in (1, 2):
        family = gen_family(SEED + d, d, 25, 8)
        grid = gauss_hermite_grid(d, 40)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((SEED, d))))
        for i in range(50):
            f = family[i % len(family)]
            t = float(rng.uniform(0.05, 5.0))
            x = rng.uniform(-2.0, 2.0, d)
            worst_mehler = max(worst_mehler, abs(ou_mehler(f, t, x, grid) - ou_spectral(f, t)(x)))
            worst_sub = max(worst_sub, abs(ph_subordination(f, t, x) - ph_spectral(f, t)(x)))
    worst_mass = 0.0
    for t in (0.5, 1.0, 2.0):
        mass, _ = quad(lambda y, tt=t: ph_kernel(tt, 0.0, y), -np.inf, np.inf, limit=200)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = worst_mehler <= 1e-8 and worst_sub <= 1e-6 and worst_mass <= 1e-6
    assert report(2, "kernel/subordination oracles vs spectral forms", ok,
                  f"mehler {worst_mehler:.1e}, subord {worst_sub:.1e}, mass {worst_mass:.1e}")


def _worst_rel(got: HermiteExpansion, want: HermiteExpansion) -> float:
    worst = 0.0
    for nu, c in want.coeffs.items():
        worst = max(worst, abs(got.coefficient(nu) - c) / abs(c))
    return worst


def test_criterion_3_operator_representations():
    family = gen_family(SEED, 1, 10, 8)
    pairs = [
        (riesz_potential, riesz_potential_integral),
        (bessel_potential, bessel_potential_integral),
        (riesz_derivative, riesz_derivative_integral),
        (bessel_derivative, bessel_derivative_integral),
    ]
    worst = 0.0
    for beta in BETAS:
        for op, integral_op in pairs:
            for f in family:
                worst = max(worst, _worst_rel(integral_op(f, beta), op(f, beta)))
    c_err = abs(c_beta(0.5) + 2.0 * math.sqrt(math.pi))
    ok = worst <= 1e-6 and c_err <= 1e-7
    assert report(3, "singular-integral representations of all four operators", ok,
                  f"worst rel {worst:.1e}, c(1/2) err {c_err:.1e}")


def test_criterion_4_inversion():
    family = gen_family(SEED, 1, 50, 8)
    worst = 0.0
    for beta in BETAS:
        for f in family:
            target = pi0(f)
            norm = l2_norm_coeffs(f)
            worst = max(
                worst,
                l2_norm_coeffs(riesz_derivative(riesz_potential(f, beta), beta) - target) / norm,
                l2_norm_coeffs(riesz_potential(riesz_derivative(f, beta), beta) - target) / norm,
            )
    ok = worst <= 1e-12
    assert report(4, "derivative and potential invert each other (both orders)", ok,
                  f"worst scaled error {worst:.1e}")


def test_criterion_5_derivative_norm_decay():
    family = gen_family(SEED, 1, 50, 8)
    ts60 = np.exp(np.linspace(math.log(0.05), math.log(20.0), 60))
    ts120 = np.exp(np.linspace(math.log(0.05), math.log(20.0), 120))
    all_monotone = True
    worst_drift = 0.0
    for p in (1.0, 2.0, 4.0):
        for k in (1, 2, 3):
            for f in family:
                rep = kdecay_report(f, p, k, ts60)
                all_monotone = all_monotone and rep.non_increasing and math.isfinite(rep.fitted_c)
                rep2 = kdecay_report(f, p, k, ts120)
                if rep.fitted_c > 0:
                    worst_drift = max(worst_drift, abs(rep2.fitted_c - rep.fitted_c) / rep.fitted_c)
    ok = all_monotone and worst_drift < 0.01
    assert report(5, "orbit-derivative norms decay monotonically with stable constant", ok,
                  f"monotone={all_monotone}, C drift {worst_drift:.2%}")


def test_criterion_6_difference_norm_bound():
    family = gen_family(SEED, 1, 10, 8)
    worst = 0.0
    for f in family[:5]:
        for s in (0.1, 0.5, 1.0):
            for t in (0.0, 0.3):
                for k in (1, 2, 3):
                    for n in (0, 1):
                        for p in (1.0, 2.0, 4.0):
                            lhs = lp_norm(orbit_difference(f, s, k, t, n=n), p)
                            rhs = s**k * norm_curve(f, k + n, p, np.array([t]))[0]
                            if rhs > 0:
                                worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-9
    assert report(6, "k-th differences bounded by k-th derivative norms", ok,
                  f"worst lhs/rhs {worst:.12f}")


def test_criterion_7_besov_closed_forms():
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.7):
        k = smallest_k(alpha)
        for q in (1, 2, 4):
            for n in (1, 4, 9):
                a = (k - alpha) * q
                want = n ** (k / 2.0) * math.gamma(a) ** (1.0 / q) / (q * math.sqrt(n)) ** (k - alpha)
                got = besov_seminorm(HermiteExpansion.basis((n,)), besov_params(alpha, 2, q))
                worst = max(worst, abs(got - want) / want)
    h1 = HermiteExpansion.basis((1,))
    semi = besov_seminorm(h1, besov_params(0.5, 2, 2))
    ak = ak_constant(h1, 0.5, 2, 1)
    total = lp_norm(h1, 2.0) + semi
    # faithful closed forms for the first basis function at (alpha, p, q) = (1/2, 2, 2):
    # seminorm 2^(-1/2) (so total 1 + 2^(-1/2)), sup constant sqrt(1/2) e^(-1/2)
    total_err = abs(total - (1.0 + 1.0 / math.sqrt(2.0)))
    ak_err = abs(ak - math.sqrt(0.5) * math.exp(-0.5))
    ok = worst <= 1e-6 and total_err <= 1e-5 and ak_err <= 1e-5
    assert report(7, "single-mode norms match the closed Gamma formulas", ok,
                  f"worst rel {worst:.1e}, h1 total err {total_err:.1e}")


def test_criterion_8_hardy_battery():
    assert len(HARDY_BATTERY) == 20
    worst_excess = -math.inf
    eq_dev = 0.0
    for _, fn in HARDY_BATTERY:
        for p in (1.0, 2.0):
            for r in (0.5, 1.0, 2.0):
                for kind in ("head", "tail"):
                    lhs, rhs = hardy_check(fn, p, r, kind)
                    assert math.isfinite(rhs), "battery functions are integrable for all combos"
                    worst_excess = max(worst_excess, lhs / rhs - 1.0)
                    if p == 1.0 and kind == "head":
                        eq_dev = max(eq_dev, abs(lhs - rhs) / rhs)
    ok = worst_excess <= 1e-6 and eq_dev <= 1e-6
    assert report(8, "averaging inequalities over the 20-function battery", ok,
                  f"worst lhs/rhs-1 {worst_excess:.1e}, p=1 equality dev {eq_dev:.1e}")


def test_criterion_9_boundedness_experiments():
    start = time.perf_counter()
    reports = verify_all(ExperimentConfig(seed=SEED))
    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in reports)
    ratios_finite = all(
        math.isfinite(row["ratio"]) for r in reports for row in r.ratios
    )
    ok = all_passed and ratios_finite and elapsed < 120.0
    failing = [r.experiment for r in reports if not r.passed]
    assert report(9, "boundedness ratios finite, grid-stable, scale-invariant", ok,
                  f"{len(reports)} experiments in {elapsed:.1f}s" + (f", failing: {failing}" if failing else ""))
