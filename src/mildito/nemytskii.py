"""Nemytskii composition operators and the multiplication-type diffusion.

The composition operator F(v) = f o v acts pointwise on grid
representatives; its Frechet derivatives are again pointwise,
F^(m)(v)(u_1..u_m) = f^(m)(v) u_1 ... u_m.  The registry ships scalar
fields with closed-form derivatives to third order together with the
exact sup and Lipschitz constants that feed the Holder/Lipschitz bound
checks (the hypotheses require globally bounded derivatives, so the
constants must be real bounds, not samples).

The diffusion coefficient composes three pieces: the field applied to
the state, pointwise multiplication, and the smoothing embedding into
the V_beta scale; its value at v is the finite-rank operator with
columns b(v) . sqrt(2) sin(k pi x) projected onto the sine modes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gamma import (
    FiniteRankGammaOperator,
    HypothesisError,
    SOBOLEV_SAFETY,
    VrCodomain,
    estimate_sobolev_constant,
    gaussian_series_bound,
)
from .spectral import DEFAULT_RESOLUTION, GridFunction, lp_norm, sine_matrix

__all__ = [
    "ScalarField",
    "NemytskiiOperator",
    "DiffusionCoefficient",
    "get_field",
    "FIELD_NAMES",
    "nemytskii_apply",
    "nemytskii_derivative",
    "holder_bound_iii",
    "lipschitz_bound_iv",
    "lipschitz_bound_v",
    "diffusion_apply",
    "diffusion_derivative",
    "diffusion_norm_bound",
    "diffusion_lipschitz_bound",
]

@dataclass(frozen=True)
class ScalarField:
    """Smooth f: R -> R with derivatives and their exact global constants.

    ``derivatives[m]`` evaluates f^(m); ``sup_norms[m]`` bounds |f^(m)|
    globally; ``lipschitz[m]`` is a global Lipschitz constant of f^(m).
    """

    name: str
    derivatives: tuple
    sup_norms: tuple
    lipschitz: tuple

    @property
    def order(self) -> int:
        return len(self.derivatives) - 1


def _tanh_d2(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _tanh_d3(x):
    t = np.tanh(x)
    return -2.0 * (1.0 - t * t) * (1.0 - 3.0 * t * t)


def _rational(x):
    return x / (1.0 + x * x)


def _rational_d1(x):
    x2 = x * x
    return (1.0 - x2) / (1.0 + x2) ** 2


def _rational_d2(x):
    x2 = x * x
    return 2.0 * x * (x2 - 3.0) / (1.0 + x2) ** 3


def _rational_d3(x):
    x2 = x * x
    return -6.0 * (x2 * x2 - 6.0 * x2 + 1.0) / (1.0 + x2) ** 4


def _rational_d4(x):
    x2 = x * x
    return 24.0 * x * (x2 * x2 - 10.0 * x2 + 5.0) / (1.0 + x2) ** 5


# exact constants: tanh'' peaks at t^2 = 1/3, tanh'''' at t^2 = (15-sqrt(105))/30,
# rational'' at x^2 = 3 - 2 sqrt(2), rational'''' at x = 2 - sqrt(3) (u = x^2 is a root
# of (u - 1)(u^2 - 14u + 1), where d^5 = 0), pinned as the float a bounded minimization
# of |rational''''| on [0.05, 1] returns: one ulp below _rational_d4(2 - sqrt(3)).
_TANH_SUP2 = 4.0 / (3.0 * math.sqrt(3.0))
_T2 = (15.0 - math.sqrt(105.0)) / 30.0
_TANH_LIP3 = 8.0 * math.sqrt(_T2) * (1.0 - _T2) * (2.0 - 3.0 * _T2)
_RATIONAL_SUP2 = 1.0 / (12.0 - 8.0 * math.sqrt(2.0))
_RATIONAL_LIP3 = 19.492785792574942

_REGISTRY = {
    "sin": ScalarField(
        "sin",
        (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
    ),
    "tanh": ScalarField(
        "tanh",
        (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, _tanh_d2, _tanh_d3),
        (1.0, 1.0, _TANH_SUP2, 2.0),
        (1.0, _TANH_SUP2, 2.0, _TANH_LIP3),
    ),
    "rational": ScalarField(
        "rational",
        (_rational, _rational_d1, _rational_d2, _rational_d3),
        (0.5, 1.0, _RATIONAL_SUP2, 6.0),
        (1.0, _RATIONAL_SUP2, 6.0, _RATIONAL_LIP3),
    ),
}

FIELD_NAMES = tuple(sorted(_REGISTRY))


def get_field(name: str) -> ScalarField:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown field {name!r}; registry has {FIELD_NAMES}") from None


@dataclass(frozen=True)
class NemytskiiOperator:
    """F(v) = f o v between L^q and L^p with the standing assumption q > n p."""

    field: ScalarField
    p: float
    q: float

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise HypothesisError(
                f"composition hypothesis: requires 1 <= p < inf, got p={self.p}")
        if not self.field.order * self.p < self.q < math.inf:
            raise HypothesisError(f"composition hypothesis: requires q in (n p, inf): "
                                  f"q={self.q}, n p={self.field.order * self.p}")


def nemytskii_apply(op: NemytskiiOperator, v: GridFunction) -> GridFunction:
    """Pointwise composition f(v(x_j))."""
    return GridFunction(op.field.derivatives[0](v.values))


def nemytskii_derivative(op: NemytskiiOperator, m: int, v: GridFunction,
                         *directions: GridFunction) -> GridFunction:
    """m-th derivative F^(m)(v)(u_1..u_m) = f^(m)(v) u_1 ... u_m pointwise."""
    if m > op.field.order:
        raise ValueError(f"derivative order {m} exceeds field order {op.field.order}")
    if len(directions) != m:
        raise ValueError(f"expected {m} directions, got {len(directions)}")
    out = op.field.derivatives[m](v.values)
    for u in directions:
        out = out * u.values
    return GridFunction(out)


def holder_bound_iii(op: NemytskiiOperator, m: int, r: float) -> float:
    """Constant sup|f^(m)| lambda(O)^{1/p - m/r} = sup|f^(m)| on O = (0,1)."""
    if m < 1 or m > op.field.order:
        raise ValueError(f"derivative order {m} outside 1..{op.field.order}")
    if r < m * op.p:
        raise ValueError(f"requires r >= m p = {m * op.p}, got r={r}")
    return op.field.sup_norms[m]


def _sup_quotient(op, m, v, w, samples, s):
    """Sampled sup of ||(F^(m)(v) - F^(m)(w))(u_1..u_m)||_p / prod ||u_i||_s."""
    diff = op.field.derivatives[m](v.values) - op.field.derivatives[m](w.values)
    lhs = 0.0
    for directions in samples:
        num = lp_norm(GridFunction(diff * math.prod(u.values for u in directions)), op.p)
        den = math.prod(lp_norm(u, s) for u in directions)
        if den > 0:
            lhs = max(lhs, num / den)
    return lhs


def lipschitz_bound_iv(op: NemytskiiOperator, m: int, r: float, s: float,
                       v: GridFunction, w: GridFunction,
                       samples: list[tuple[GridFunction, ...]]) -> tuple[float, float]:
    """Sampled sup quotient against Lip(f^(m)) lambda^{1/p-1/r-m/s} ||v-w||_r."""
    if m < 1 or m > op.field.order:
        raise ValueError(f"derivative order {m} outside 1..{op.field.order}")
    if 1.0 / r + m / s > 1.0 / op.p + 1e-12:
        raise ValueError(
            f"requires 1/r + m/s <= 1/p: 1/{r} + {m}/{s} > 1/{op.p}"
        )
    lhs = _sup_quotient(op, m, v, w, samples, s)
    rhs = op.field.lipschitz[m] * lp_norm(GridFunction(v.values - w.values), r)
    return lhs, rhs


def lipschitz_bound_v(op: NemytskiiOperator, m: int, r: float,
                      v: GridFunction, w: GridFunction,
                      samples: list[tuple[GridFunction, ...]]) -> tuple[float, float]:
    """Item-(v) variant: directions measured in L^r, exponent 1/p - (m+1)/r."""
    if r < (m + 1) * op.p:
        raise ValueError(f"requires r >= (m+1) p = {(m + 1) * op.p}, got r={r}")
    lhs = _sup_quotient(op, m, v, w, samples, r)
    rhs = op.field.lipschitz[m] * lp_norm(GridFunction(v.values - w.values), r)
    return lhs, rhs


# ---------------------------------------------------------------------------
# diffusion coefficient B(v) u = iota( M(b o v) u )
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffusionCoefficient:
    """B(v) u = b(v) . u as a continuous map from L^p into gamma(H, V_beta).

    Hypotheses: finite beta < -1/4 and max{n/(2(|beta|-1/4)), 2n} < p < inf
    with n the field order; delta parametrizes the split between the
    multiplication step (into H_{-eps}, eps = n/(2 p delta)) and the
    embedding step (H_{-eps} -> V_beta).  The default delta = n/(n+1)
    mirrors the choice that removes delta from the final statement.
    """

    field: ScalarField
    p: float
    beta: float
    delta: float | None = None
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        n = self.field.order
        if not -math.inf < self.beta < -0.25:
            raise HypothesisError(
                f"diffusion hypothesis: requires finite beta < -1/4, got beta={self.beta}")
        floor = max(n / (2.0 * (abs(self.beta) - 0.25)), 2.0 * n)
        if not floor < self.p < math.inf:
            raise HypothesisError(f"diffusion hypothesis: requires max{{n/(2(|beta|-1/4)), "
                                  f"2n}} = {floor:.6g} < p < inf, got p={self.p}")
        if self.delta is None:
            object.__setattr__(self, "delta", n / (n + 1.0))
        if not floor / self.p < self.delta < 1.0:
            raise HypothesisError(f"diffusion hypothesis: requires delta in "
                                  f"({floor / self.p:.6g}, 1), got delta={self.delta}")

    @property
    def epsilon(self) -> float:
        """Intermediate smoothness n/(2 p delta); beta + epsilon < -1/4 holds."""
        return self.field.order / (2.0 * self.p * self.delta)

    @property
    def codomain(self) -> VrCodomain:
        return VrCodomain(self.beta, self.p, self.resolution)


def _diffusion_columns(coef: DiffusionCoefficient, multiplier: np.ndarray,
                       n_modes: int, k_modes: int) -> np.ndarray:
    """Sine-mode projections of multiplier . sqrt(2) sin(k pi x), all k <= K."""
    mat_n = sine_matrix(coef.resolution, n_modes)
    mat_k = mat_n if k_modes == n_modes else sine_matrix(coef.resolution, k_modes)
    return mat_n.T @ (multiplier[:, None] * mat_k) / coef.resolution


def diffusion_apply(coef: DiffusionCoefficient, v: GridFunction,
                    n_modes: int = 64, k_modes: int = 64) -> FiniteRankGammaOperator:
    """B(v) as a finite-rank gamma operator into V_beta."""
    if v.resolution != coef.resolution:
        raise ValueError(
            f"grid resolution {v.resolution} differs from coefficient "
            f"resolution {coef.resolution}"
        )
    bv = coef.field.derivatives[0](v.values)
    cols = _diffusion_columns(coef, bv, n_modes, k_modes)
    return FiniteRankGammaOperator(cols, coef.codomain)


def diffusion_derivative(coef: DiffusionCoefficient, k: int, v: GridFunction,
                         *directions: GridFunction, n_modes: int = 64,
                         k_modes: int = 64) -> FiniteRankGammaOperator:
    """B^(k)(v)(v_1..v_k): multiplier b^(k)(v) v_1 ... v_k, embedded as B(v)."""
    if k > coef.field.order:
        raise ValueError(f"derivative order {k} exceeds field order {coef.field.order}")
    if len(directions) != k:
        raise ValueError(f"expected {k} directions, got {len(directions)}")
    mult = coef.field.derivatives[k](v.values)
    for u in directions:
        mult = mult * u.values
    cols = _diffusion_columns(coef, mult, n_modes, k_modes)
    return FiniteRankGammaOperator(cols, coef.codomain)


def _diffusion_constant(coef: DiffusionCoefficient, n_modes: int) -> float:
    """Gaussian moment x embedding tail x (safety-widened) Sobolev constant."""
    q = 2.0 * coef.p * coef.delta / (coef.p * coef.delta - 2.0 * coef.field.order)
    sobolev = SOBOLEV_SAFETY * estimate_sobolev_constant(q, coef.epsilon)
    return gaussian_series_bound(coef.p, 4.0 * (coef.beta + coef.epsilon), n_modes) * sobolev


def diffusion_norm_bound(coef: DiffusionCoefficient, k: int,
                         n_modes: int = 64) -> float:
    """Item-(iv) style bound on sup_v ||B^(k)(v)||: Gaussian moment x
    embedding tail x (safety-widened) Sobolev constant x sup|b^(k)|."""
    if k > coef.field.order:
        raise ValueError(f"derivative order {k} exceeds field order {coef.field.order}")
    return _diffusion_constant(coef, n_modes) * coef.field.sup_norms[k]


def diffusion_lipschitz_bound(coef: DiffusionCoefficient, k: int,
                              n_modes: int = 64) -> tuple[float, float]:
    """Item-(v) style bound constant and the admissible direction exponent r.

    Returns (bound, r_min) where the sampled quotient
    ||B^(k)(v)-B^(k)(w)|| / ||v-w||_{L^r} is checked against bound for
    r >= r_min = p delta / (n - k delta).
    """
    if not 1 <= k <= coef.field.order:
        raise ValueError(f"derivative order {k} outside 1..{coef.field.order}")
    n = coef.field.order
    r_min = coef.p * coef.delta / (n - k * coef.delta)
    bound = _diffusion_constant(coef, n_modes) * coef.field.lipschitz[k]
    return bound, r_min
