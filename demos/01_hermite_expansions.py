"""Working with Hermite expansions under the Gaussian measure.

Everything in this package represents a function as a finite expansion in the
orthonormal Hermite basis of L^2(gamma_d).  This script builds a few
expansions, checks the basis normalization by quadrature, and shows the
projection operators.
"""

import numpy as np

from gausscalc import (
    HermiteExpansion,
    chaos_project,
    gauss_hermite_grid,
    inner_product_gamma,
    lp_norm,
    lp_norm_gamma,
    pi0,
)

# the m-point rule integrates polynomials of degree <= 2m-1 exactly; weights
# are normalized so they sum to 1 (gamma_d is a probability measure)
grid = gauss_hermite_grid(d=1, m=20)
print("weights sum to", grid.weights.sum())

h1 = HermiteExpansion.basis((1,))
h2 = HermiteExpansion.basis((2,))
print("h1(1) =", h1(1.0), " (sqrt 2)")
# inner products size their own exact grid: m = (deg f + deg g)//2 + 1 nodes
print("<h1, h1> =", inner_product_gamma(h1, h1))
print("<h1, h2> =", inner_product_gamma(h1, h2))

# a mixed expansion: arithmetic is coefficient-wise, evaluation is vectorized
f = 0.5 * HermiteExpansion.constant(1, 1.0) + h1 - 0.25 * h2
xs = np.linspace(-2, 2, 5).reshape(-1, 1)
print("f on a few points:", f.evaluate_many(xs))

# L^p norms: p = 2 comes from the coefficients, p = 4 from exact quadrature,
# p = 1 from positive-weight pieces between the real roots (d = 1)
for p in (1.0, 2.0, 4.0):
    print(f"||f||_{p:g} =", lp_norm(f, p))
print("||f||_2 by plain quadrature:", lp_norm_gamma(f, 2.0, grid))

# chaos projections split f by total degree; removing the mean is the
# degree-0 projection's complement
print("degree-1 part:", chaos_project(f, 1).coeffs)
print("mean of f:", f.mean, " mean after pi0:", pi0(f).mean)

# expansions serialize to a small JSON document
print("serialized:", f.to_json())
