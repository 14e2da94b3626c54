"""mildito: a numerical laboratory for mild stochastic calculus.

Concrete spectral spaces over (0,1), gamma-radonifying operator
numerics, Nemytskii composition operators, simulation of mild Ito
processes, and Monte Carlo verification of the mild Ito / Dynkin
formulas and the weak terminal-value estimate.
"""

__version__ = "0.1.0"

from .spectral import (                                          # noqa: F401
    EvolutionFamily,
    FractionalIndex,
    GridFunction,
    SineBasisVector,
    analyze,
    apply_fractional,
    apply_semigroup,
    basis_vector,
    eigenfunction_value,
    eigenvalue,
    heat_family,
    hr_norm,
    identity_family,
    lp_norm,
    synthesize,
)
from .gamma import (                                             # noqa: F401
    BilinearForm,
    FiniteRankGammaOperator,
    HrCodomain,
    HypothesisError,
    LpCodomain,
    UnsupportedCodomainError,
    VrCodomain,
    bilinear_sum,
    embedding_bound,
    gamma_norm_exact,
    gamma_norm_mc,
    gaussian_abs_moment,
    ideal_compose,
    iota_embedding,
    multiplication_operator,
    smoothing_gamma_bound,
)
from .nemytskii import (                                         # noqa: F401
    DiffusionCoefficient,
    NemytskiiOperator,
    ScalarField,
    diffusion_apply,
    diffusion_derivative,
    get_field,
    holder_bound_iii,
    lipschitz_bound_iv,
    lipschitz_bound_v,
    nemytskii_apply,
    nemytskii_derivative,
)
from .process import (                                           # noqa: F401
    BlowUpError,
    MildItoProcessSpec,
    SamplePath,
    TimeGrid,
    WienerPath,
    integrability_report,
    mild_sum_states,
    nemytskii_drift_spec,
    ou_spec,
    regularize,
    simulate,
    state_diffusion_spec,
    wiener_sample,
)
from .calculus import (                                          # noqa: F401
    DynkinResult,
    StoppingRule,
    WeakEstimateResult,
    dynkin_gap,
    ito_residual,
    kolmogorov_apply,
    martingale_check,
    self_convergence_orders,
    standard_ito_residual,
    stopping_sample,
    weak_estimate_gap,
)
from .testfunctions import (                                     # noqa: F401
    TestFunction,
    coordinate_functional,
    integral_functional,
    smoothed_norm,
    squared_norm,
    time_functional,
)
