"""Pathwise verification of the mild Ito formula.

For a mild process, phi(X_bar_tau) decomposes into the initial value,
the time integral of the extended Kolmogorov operator, and a stochastic
integral.  Discretized consistently, the residual of that identity is
exactly zero for linear test functions and shrinks like sqrt(dt) for
quadratic ones; the script shows both, plus the standard Ito formula as
the identity-family special case.
"""

import numpy as np

from mildito import (
    TimeGrid,
    heat_family,
    ito_residual,
    nemytskii_drift_spec,
    ou_spec,
    self_convergence_orders,
    standard_ito_residual,
    wiener_sample,
)
from mildito.testfunctions import (
    coordinate_functional,
    squared_norm,
    time_functional,
)

fam = heat_family(0.0, 0.1)
grid = TimeGrid(0.0, 0.1, 200)
spec = ou_spec(fam, 16, 16)
w = wiener_sample(grid, 16, seed=5, path_index=0)

# linear functionals telescope exactly through the discrete identity
res = ito_residual(coordinate_functional((1, 2, 3)), spec, grid, w)
print(f"linear phi residual (one OU path): {np.max(np.abs(res)):.2e}")

# quadratic functionals leave a mean-zero O(sqrt(dt)) remainder
res = ito_residual(squared_norm(), spec, grid, w)
print(f"squared-norm residual (one OU path): {float(res[0]):.2e}")

# RMS self-convergence under coupled grid refinement
print("\nself-convergence of the RMS residual, phi = ||.||^2:")
for label, proc in (("ou", spec),
                    ("tanh drift", nemytskii_drift_spec(np.tanh, fam, 16, 16, 128))):
    rms, order = self_convergence_orders(squared_norm(), proc, 0.0, 0.1,
                                         (100, 200, 400), 500, seed=6)
    print(f"  {label}: rms at M_t=100/200/400 = "
          f"{rms[0]:.5f}/{rms[1]:.5f}/{rms[2]:.5f}, fitted order {order:.3f}")

# standard Ito formula: identity family, time-dependent test function
grid1 = TimeGrid(0.0, 1.0, 100)
w1 = wiener_sample(grid1, 1, seed=7, path_index=0)
res = standard_ito_residual(time_functional(), None, lambda t, x: np.eye(1),
                            grid1, w1, 1)
print(f"\nstandard formula, phi(t,x) = t: residual {float(res[0]):.2e}")
res = standard_ito_residual(coordinate_functional((1,)),
                            lambda t, x: -x, lambda t, x: np.eye(1),
                            grid1, w1, 1)
print(f"standard formula, phi = <x,e1>, scalar OU: residual {float(res[0]):.2e}")
