"""Fractional potentials and derivatives, spectral and integral form.

Four diagonal operators: two smoothing (potentials) and two roughening
(derivatives), in plain and resolvent-damped variants.  Each has a
singular-integral representation through the subordinated semigroup orbit;
the integral path is honest quadrature and doubles as the oracle for the
spectral multipliers.
"""

import math

from gausscalc import (
    HermiteExpansion,
    bessel_derivative,
    bessel_derivative_integral,
    bessel_potential,
    c_beta,
    c_beta_k,
    forward_difference,
    l2_norm_coeffs,
    pi0,
    riesz_derivative,
    riesz_derivative_integral,
    riesz_potential,
    riesz_potential_integral,
)

h4 = HermiteExpansion.basis((4,))
beta = 0.5

print("multipliers on the order-4 mode (sqrt eigenvalue 2):")
print("  potential      :", riesz_potential(h4, beta).coefficient((4,)), "= 2^-0.5")
print("  damped potential:", bessel_potential(h4, beta).coefficient((4,)), "= 3^-0.5")
print("  derivative     :", riesz_derivative(h4, beta).coefficient((4,)), "= 2^0.5")
print("  damped deriv   :", bessel_derivative(h4, beta).coefficient((4,)), "= 3^0.5")

# integral representations: Gamma-type integrals of the orbit, evaluated by
# log-substituted trapezoid rules with endpoint-adapted windows
print("potential, integral path :", riesz_potential_integral(h4, beta).coefficient((4,)))
print("derivative, integral path:", riesz_derivative_integral(h4, beta).coefficient((4,)))
print("damped derivative        :", bessel_derivative_integral(h4, beta).coefficient((4,)))

# normalizing constants: c_beta equals the analytic continuation Gamma(-beta)
print("c(1/2) =", c_beta(0.5), " vs -2 sqrt(pi) =", -2 * math.sqrt(math.pi))
print("c^2 for beta = 1.5 (k = 2, the smallest integer above beta):", c_beta_k(1.5, 2))
print("sign pattern of c^k:", [math.copysign(1, c_beta_k(0.6, k)) for k in (1, 2, 3)])

# orders above 1 go through k-th forward differences of the orbit
print("difference of squares is exact:", forward_difference(lambda u: u * u, 0.3, 2, 5.0), "= 2 s^2 =", 2 * 0.3**2)
mixed = HermiteExpansion(1, {(0,): 0.4, (1,): 1.0, (3,): -0.7, (6,): 0.2})
spectral = riesz_derivative(mixed, 1.5)
integral = riesz_derivative_integral(mixed, 1.5)
print("k=2 path worst coefficient error:",
      max(abs(integral.coefficient(nu) - c) for nu, c in spectral.coeffs.items()))

# derivative and potential invert each other on the mean-free part
roundtrip = riesz_derivative(riesz_potential(mixed, beta), beta)
print("inversion error:", l2_norm_coeffs(roundtrip - pi0(mixed)))
