"""The two semigroups and their independent oracles.

The heat-type (Ornstein-Uhlenbeck) semigroup acts on the order-n chaos by
exp(-t n); its square-root subordinate acts by exp(-t sqrt(n)).  Both have
integral forms -- the Mehler kernel and the one-sided stable average -- which
this script evaluates side by side with the exact spectral forms.
"""

import math

import numpy as np
from scipy.integrate import quad

from gausscalc import (
    HermiteExpansion,
    SubordinationRule,
    gauss_hermite_grid,
    ou_mehler,
    ou_spectral,
    ph_kernel,
    ph_spectral,
    ph_subordination,
    time_derivative,
)

f = HermiteExpansion(1, {(0,): 0.3, (1,): 1.0, (2,): -0.4, (4,): 0.2})
grid = gauss_hermite_grid(1, 40)
t, x = 0.8, np.array([0.6])

spectral = ou_spectral(f, t)(x)
kernel = ou_mehler(f, t, x, grid)
print(f"heat semigroup at t={t}: spectral {spectral:.12f}, kernel {kernel:.12f}")

spectral_p = ph_spectral(f, t)(x)
subordinated = ph_subordination(f, t, x)
print(f"subordinated semigroup:  spectral {spectral_p:.12f}, stable-average {subordinated:.12f}")

# the subordination rule discretizes the one-sided stable measure of order
# 1/2; its mass is 1 for every t (the far tail is folded into the first atom)
rule = SubordinationRule()
for tt in (0.01, 0.5, 5.0):
    print(f"stable measure mass at t={tt}: {rule.mass(tt):.10f}")

# the pointwise kernel integrates to 1 in y and reproduces the eigenvalues
mass, _ = quad(lambda y: ph_kernel(1.0, 0.0, y), -np.inf, np.inf)
print("kernel mass:", mass)
first, _ = quad(lambda y: ph_kernel(1.0, 0.7, y) * math.sqrt(2) * y, -np.inf, np.inf)
print("kernel first moment vs e^-1 h1(0.7):", first, math.exp(-1) * math.sqrt(2) * 0.7)

# time derivatives of the subordinated orbit are exact multiplier algebra;
# compare against a central difference
k = 1
exact = time_derivative(f, t, k)(x)
h = 1e-4
fd = (ph_spectral(f, t + h)(x) - ph_spectral(f, t - h)(x)) / (2 * h)
print("d/dt orbit: exact", exact, " finite-difference", fd)
