"""Gamma-radonifying norms: exact Hilbert-Schmidt values, Monte Carlo
estimates, and the smoothing / embedding bounds.

On a Hilbert codomain the gamma norm of a finite-rank operator is its
Hilbert-Schmidt norm, which gives an oracle for the Gaussian Monte Carlo
estimator; on L^p codomains only the estimator is available and the
closed-form bounds take over.
"""

import numpy as np

from mildito import gamma
from mildito.gamma import (
    CoefficientMap,
    FiniteRankGammaOperator,
    HrCodomain,
    LpCodomain,
    embedding_bound,
    gamma_norm_exact,
    gamma_norm_mc,
    gaussian_abs_moment,
    hilbert_inner_form,
    ideal_property_gap,
    bilinear_sum,
    random_rotation,
    smoothing_gamma_bound,
)

rng = np.random.default_rng(7)

# exact vs Monte Carlo on a random operator into H = L^2
cols = rng.standard_normal((12, 6)) / np.arange(1, 13)[:, None]
op = FiniteRankGammaOperator(cols, HrCodomain(0.0))
exact = gamma_norm_exact(op)
est, se = gamma_norm_mc(op, 20_000, seed=1)
print(f"gamma norm, Hilbert codomain: exact {exact:.5f}, "
      f"MC {est:.5f} +- {se:.5f}  ({abs(est - exact) / se:.2f} stderr off)")

# the same operator pushed onto the grid and measured in L^4: MC only
grid_cols = gamma.fractional_power_operator(-0.5, 12, LpCodomain(4.0)).columns
lp_op = FiniteRankGammaOperator(grid_cols, LpCodomain(4.0))
est4, se4 = gamma_norm_mc(lp_op, 20_000, seed=2)
print(f"gamma(H, L^4) norm of (-A)^-1/2 (12 modes): {est4:.5f} +- {se4:.5f}")

# Gaussian absolute moments come from the Gamma function, not sampling
print("\n(E|N|^p)^(1/p):", {p: round(gaussian_abs_moment(p), 5)
                            for p in (2.0, 4.0, 6.0)})

# smoothing bound: MC estimate against the closed-form ceiling
print("\nsmoothing bound for (-A)^-r into L^p, 50 modes:")
for r, p in ((0.3, 2.0), (0.3, 4.0), (0.5, 4.0)):
    res = smoothing_gamma_bound(r, p, n_modes=50, samples=20_000, seed=3)
    print(f"  r={r}, p={p}: MC {res['mc_estimate']:.4f} <= "
          f"bound {res['bound']:.4f}  "
          f"ok={res['mc_estimate'] <= res['bound'] + 3.0 * res['stderr']}")

# embedding of H_{-eps} into the V_beta scale
res = embedding_bound(0.05, -0.35, 4.0, n_modes=50, samples=20_000, seed=4)
print(f"\nembedding H_-0.05 -> V_-0.35 (p=4): MC {res['mc_estimate']:.4f} <= "
      f"bound {res['bound']:.4f}")

# ideal property ||ABC|| <= ||A|| ||B|| ||C|| on a random triple
mid = FiniteRankGammaOperator(rng.standard_normal((8, 5)), HrCodomain(0.5))
left = CoefficientMap(rng.standard_normal((8, 8)))
lhs, rhs, _ = ideal_property_gap(left, mid, random_rotation(5, seed=5))
print(f"\nideal property: ||ABC|| = {lhs:.4f} <= {rhs:.4f} = ||A|| ||B|| ||C||")

# trace-type bilinear sums are basis invariant
beta = hilbert_inner_form(HrCodomain(0.0), 8)
a1 = FiniteRankGammaOperator(rng.standard_normal((8, 5)), HrCodomain(0.0))
total = bilinear_sum(beta, a1, a1)
rot = random_rotation(5, seed=6)
turned = bilinear_sum(
    beta, FiniteRankGammaOperator(a1.columns @ rot, HrCodomain(0.0)),
    FiniteRankGammaOperator(a1.columns @ rot, HrCodomain(0.0)))
print(f"bilinear sum (= squared HS norm) {total[0]:.6f}; "
      f"after a shared rotation {turned[0]:.6f}")
