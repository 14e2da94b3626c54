"""Gamma-radonifying operator calculus on the concrete spectral spaces.

A finite-rank operator from the truncated noise space into one of the
codomains is stored column by column (the images of the noise basis
vectors).  On Hilbert codomains the gamma norm is the Hilbert-Schmidt
norm and is computed exactly; on the L^p codomains it has no closed
form and is estimated by the Gaussian second-moment Monte Carlo
(E || sum_k g_k column_k ||^2)^(1/2), which is precisely the quantity the
norm is defined by.  Estimators are chunked and counter-keyed so the
result depends only on (seed, sample count), never on scheduling.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .spectral import (
    DEFAULT_RESOLUTION,
    GridFunction,
    SineBasisVector,
    eigenvalues,
    grid_lp_norms,
    sine_matrix,
)

__all__ = [
    "HrCodomain",
    "LpCodomain",
    "VrCodomain",
    "FiniteRankGammaOperator",
    "CoefficientMap",
    "PointwiseMultiplier",
    "BilinearForm",
    "UnsupportedCodomainError",
    "HypothesisError",
    "gaussian_abs_moment",
    "element_norms",
    "gamma_norm_exact",
    "gamma_norm_mc",
    "ideal_compose",
    "ideal_property_gap",
    "bilinear_sum",
    "hilbert_inner_form",
    "fractional_power_operator",
    "gaussian_series_bound",
    "check_smoothing",
    "smoothing_gamma_bound",
    "iota_embedding",
    "embedding_bound",
    "apply_embedding",
    "check_multiplication",
    "multiplication_operator",
    "MultiplicationOperator",
    "estimate_sobolev_constant",
    "SOBOLEV_SAFETY",
    "random_rotation",
    "MC_CHUNK",
]

# Safety factor applied to sampled Sobolev-constant estimates (a finite
# maximization can only under-estimate the sup).
SOBOLEV_SAFETY = 2.0

# Fixed Monte Carlo chunk size; part of the determinism contract.
MC_CHUNK = 4096


class UnsupportedCodomainError(ValueError):
    """Raised when an exact norm is requested on a non-Hilbert codomain."""


class HypothesisError(ValueError):
    """A hypothesis of one of the operator bounds is violated."""


@dataclass(frozen=True)
class HrCodomain:
    """Hilbert scale space H_r; elements stored as sine coefficients."""

    r: float = 0.0


@dataclass(frozen=True)
class LpCodomain:
    """L^p(0,1) realized on the midpoint grid; elements stored as grid values."""

    p: float = 2.0
    resolution: int = DEFAULT_RESOLUTION


@dataclass(frozen=True)
class VrCodomain:
    """Interpolation space V_r of the Laplacian on L^p; coefficients stored."""

    r: float
    p: float
    resolution: int = DEFAULT_RESOLUTION


Codomain = Union[HrCodomain, LpCodomain, VrCodomain]


def element_norms(codomain: Codomain, elements: np.ndarray) -> np.ndarray:
    """Codomain norms of a batch of elements with trailing representation axis."""
    elements = np.asarray(elements, dtype=float)
    if isinstance(codomain, HrCodomain):
        w = eigenvalues(elements.shape[-1]) ** (2.0 * codomain.r)
        return np.sqrt(np.einsum("...n,n->...", elements ** 2, w))
    if isinstance(codomain, LpCodomain):
        return grid_lp_norms(elements, codomain.p)
    if isinstance(codomain, VrCodomain):
        n_modes = elements.shape[-1]
        weighted = elements * eigenvalues(n_modes) ** codomain.r
        grid = weighted @ sine_matrix(codomain.resolution, n_modes).T
        return grid_lp_norms(grid, codomain.p)
    raise TypeError(f"unknown codomain {codomain!r}")


@dataclass(frozen=True)
class FiniteRankGammaOperator:
    """Truncated operator from the noise space, stored as codomain columns.

    ``columns[:, k]`` is the image of the k-th orthonormal basis vector of
    the (possibly re-normalized) domain; its representation follows the
    codomain: sine coefficients for H_r / V_r, grid values for L^p.
    """

    columns: np.ndarray
    codomain: Codomain

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] < 1:
            raise ValueError("columns must be a (representation, K) matrix with K >= 1")
        if not np.all(np.isfinite(cols)):
            raise ValueError("columns must be finite")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def noise_truncation(self) -> int:
        return self.columns.shape[1]

    def weight(self, w: np.ndarray) -> np.ndarray:
        """Image sum_k w_k column_k of a noise vector (batched over leading axes)."""
        return np.asarray(w, dtype=float) @ self.columns.T

    def scaled(self, c: float) -> "FiniteRankGammaOperator":
        return FiniteRankGammaOperator(c * self.columns, self.codomain)


def gamma_norm_exact(op: FiniteRankGammaOperator) -> float:
    """Hilbert-Schmidt norm (sum_k ||column_k||_{H_r}^2)^(1/2).

    Only valid on Hilbert codomains, where it equals the gamma norm.
    """
    if not isinstance(op.codomain, HrCodomain):
        raise UnsupportedCodomainError(
            f"exact gamma norms require an H_r codomain, got {op.codomain!r}"
        )
    return float(np.sqrt(np.sum(element_norms(op.codomain, op.columns.T) ** 2)))


def _mc_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2 ** 64 - 1), chunk_index]))


def gamma_norm_mc(op: FiniteRankGammaOperator, samples: int,
                  seed: int = 0) -> tuple[float, float]:
    """Monte Carlo gamma norm (E ||sum_k g_k column_k||^2)^(1/2) and its stderr.

    Independent standard normals g_k per draw; the standard error of the
    estimate is propagated from the sample variance of the squared norm
    by the delta method.  Chunked with fixed boundaries so the result is
    a function of (op, samples, seed) only.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 Monte Carlo samples, got {samples}")
    k = op.noise_truncation

    def chunk_sums(chunk):
        size = min(MC_CHUNK, samples - chunk * MC_CHUNK)
        g = _mc_rng(seed, chunk).standard_normal((size, k))
        q = element_norms(op.codomain, g @ op.columns.T) ** 2
        return float(np.sum(q)), float(np.sum(q * q))

    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    parts = [chunk_sums(chunk) for chunk in range(n_chunks)]
    total = sum(part[0] for part in parts)
    total_sq = sum(part[1] for part in parts)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    estimate = math.sqrt(mean)
    stderr = 0.0 if estimate == 0.0 else math.sqrt(var / samples) / (2.0 * estimate)
    return estimate, stderr


def gamma_norm(op: FiniteRankGammaOperator, samples: int = 10_000,
               seed: int = 0) -> tuple[float, float]:
    """Exact norm when available, Monte Carlo (estimate, stderr) otherwise."""
    if isinstance(op.codomain, HrCodomain):
        return gamma_norm_exact(op), 0.0
    return gamma_norm_mc(op, samples, seed)


# ---------------------------------------------------------------------------
# ideal property  ||A B C||_gamma <= ||A|| ||B||_gamma ||C||
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientMap:
    """Bounded map acting on sine coefficients within one Hilbert scale."""

    matrix: np.ndarray

    def operator_norm(self, codomain: Codomain) -> float:
        if not isinstance(codomain, HrCodomain):
            raise UnsupportedCodomainError(
                "coefficient maps carry exact operator norms on H_r codomains only"
            )
        # operator norm in H_r of a coefficient matrix M is ||D M D^{-1}||_2
        d = eigenvalues(self.matrix.shape[0]) ** codomain.r
        return float(np.linalg.norm((self.matrix * d[:, None]) / d[None, :], 2))

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        return self.matrix @ columns


@dataclass(frozen=True)
class PointwiseMultiplier:
    """Multiplication by a fixed grid function; L^p -> L^p norm is sup |m|."""

    values: np.ndarray

    def operator_norm(self, codomain: Codomain) -> float:
        if not isinstance(codomain, LpCodomain):
            raise UnsupportedCodomainError(
                "pointwise multipliers act on grid (L^p) codomains only"
            )
        return float(np.max(np.abs(self.values)))

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        return np.asarray(self.values)[:, None] * columns


BoundedMap = Union[CoefficientMap, PointwiseMultiplier, None]


def _left_norm(left: BoundedMap, codomain: Codomain) -> float:
    return 1.0 if left is None else left.operator_norm(codomain)


def ideal_compose(left: BoundedMap, mid: FiniteRankGammaOperator,
                  right: np.ndarray | None, *, check: bool = True,
                  samples: int = 10_000, seed: int = 0) -> FiniteRankGammaOperator:
    """Compose A (bounded) after mid (gamma) after C (noise change).

    ``right`` is a (K, K') matrix mapping the new noise basis into the old
    one.  With ``check`` the composed gamma norm is asserted against
    ||A|| ||B||_gamma ||C|| (exact on Hilbert codomains, 3-stderr slack on
    Monte Carlo ones).
    """
    cols = mid.columns if right is None else mid.columns @ np.asarray(right, dtype=float)
    cols = cols if left is None else left.apply_columns(cols)
    composed = FiniteRankGammaOperator(cols, mid.codomain)
    if check:
        lhs, rhs, slack = ideal_property_gap(left, mid, right, samples=samples, seed=seed)
        if lhs > rhs + slack:
            raise HypothesisError(
                f"ideal property violated: ||ABC||={lhs:.6g} > bound {rhs:.6g}"
            )
    return composed


def ideal_property_gap(left: BoundedMap, mid: FiniteRankGammaOperator,
                       right: np.ndarray | None, *, samples: int = 10_000,
                       seed: int = 0) -> tuple[float, float, float]:
    """(lhs, rhs, slack) for the inequality ||ABC||_gamma <= ||A|| ||B||_gamma ||C||."""
    composed = ideal_compose(left, mid, right, check=False)
    right_norm = 1.0 if right is None else float(np.linalg.norm(np.asarray(right), 2))
    if isinstance(mid.codomain, HrCodomain):
        lhs = gamma_norm_exact(composed)
        rhs = _left_norm(left, mid.codomain) * gamma_norm_exact(mid) * right_norm
        return lhs, rhs, 1e-10 * max(rhs, 1.0)
    lhs, se_l = gamma_norm_mc(composed, samples, seed)
    mid_norm, se_m = gamma_norm_mc(mid, samples, seed)
    rhs = _left_norm(left, mid.codomain) * mid_norm * right_norm
    slack = 3.0 * (se_l + _left_norm(left, mid.codomain) * se_m * right_norm)
    return lhs, rhs, slack


# ---------------------------------------------------------------------------
# bilinear sums  sum_k beta(A1 u_k, A2 u_k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear map on a codomain with a declared operator-norm bound."""

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    declared_norm: float

    def __call__(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.evaluator(v1, v2), dtype=float))


def hilbert_inner_form(codomain: HrCodomain, n_modes: int) -> BilinearForm:
    """The H_r inner product as a BilinearForm with norm 1."""
    w = eigenvalues(n_modes) ** (2.0 * codomain.r)
    return BilinearForm(lambda a, b: np.array([np.sum(w * a * b)]), 1.0)


def bilinear_sum(beta: BilinearForm, a1: FiniteRankGammaOperator,
                 a2: FiniteRankGammaOperator, *, check: bool = True,
                 samples: int = 10_000, seed: int = 0) -> np.ndarray:
    """sum_{k<=K} beta(column1_k, column2_k), with the norm-bound check paired."""
    if a1.noise_truncation != a2.noise_truncation:
        raise ValueError(
            f"noise truncations differ: {a1.noise_truncation} vs {a2.noise_truncation}"
        )
    if a1.codomain != a2.codomain:
        raise ValueError("operators must share a codomain")
    total = sum(beta(a1.columns[:, k], a2.columns[:, k])
                for k in range(a1.noise_truncation))
    if check:
        n1, s1 = gamma_norm(a1, samples, seed)
        n2, s2 = gamma_norm(a2, samples, seed + 1)
        bound = beta.declared_norm * (n1 + 3 * s1) * (n2 + 3 * s2)
        if float(np.linalg.norm(total)) > bound + 1e-10 * max(bound, 1.0):
            raise HypothesisError(
                f"bilinear sum bound violated: {np.linalg.norm(total):.6g} > {bound:.6g}"
            )
    return total


# ---------------------------------------------------------------------------
# the concrete operators of the smoothing / embedding / multiplication bounds
# ---------------------------------------------------------------------------


def gaussian_abs_moment(p: float) -> float:
    """(E |N(0,1)|^p)^(1/p) via the closed form 2^{p/2} Gamma((p+1)/2)/sqrt(pi)."""
    if p <= 0:
        raise ValueError(f"moment order must be positive, got {p}")
    from scipy.special import gammaln  # deferred: scipy.special costs ~0.2 s to import
    log_moment = 0.5 * p * math.log(2.0) + gammaln((p + 1) / 2.0) - 0.5 * math.log(math.pi)
    if math.isinf(log_moment):
        # gammaln overflows beyond p ~ 5e305; there Stirling's sqrt(p/e) agrees to rounding
        return math.sqrt(p / math.e)
    return math.exp(log_moment / p)


def fractional_power_operator(exponent: float, n_modes: int,
                              codomain: Codomain) -> FiniteRankGammaOperator:
    """Truncated (-A)^exponent as a gamma operator from H into the codomain."""
    diag = eigenvalues(n_modes) ** exponent
    if isinstance(codomain, LpCodomain):
        cols = sine_matrix(codomain.resolution, n_modes) * diag[None, :]
    else:
        cols = np.diag(diag)
    return FiniteRankGammaOperator(cols, codomain)


def gaussian_series_bound(p: float, exponent: float, n_modes: int) -> float:
    """(E|N|^p)^{1/p} (sum_{n<=N} n^exponent)^{1/2}: smoothing, embedding, diffusion."""
    n = np.arange(1, n_modes + 1, dtype=float)
    return gaussian_abs_moment(p) * math.sqrt(float(np.sum(n ** exponent)))


def _against_bound(op: FiniteRankGammaOperator, bound: float, samples: int, seed: int):
    """Monte Carlo gamma norm of op next to a closed-form bound; the verdict is
    the report row's, mc_estimate <= bound + 3 stderr."""
    estimate, stderr = gamma_norm_mc(op, samples, seed)
    return {"mc_estimate": estimate, "stderr": stderr, "bound": bound}


def _check_gaussian_moment(p: float, hypothesis: str) -> None:
    """L^p-valued gamma bounds need a finite p >= 2 (type 2, finite E|N|^p)."""
    if not 2 <= p < math.inf:
        raise HypothesisError(f"{hypothesis} hypothesis: requires 2 <= p < inf, got p={p}")


def check_smoothing(r: float, p: float) -> None:
    """Hypotheses of the smoothing bound."""
    if not 0.25 < r < math.inf:
        raise HypothesisError(f"smoothing hypothesis: requires finite r > 1/4, got r={r}")
    _check_gaussian_moment(p, "smoothing")


def smoothing_gamma_bound(r: float, p: float, n_modes: int = 50,
                          samples: int = 10_000, seed: int = 0,
                          resolution: int = DEFAULT_RESOLUTION) -> dict:
    """Monte Carlo gamma(H, L^p) norm of truncated (-A)^{-r} against its bound.

    The bound is (E|N|^p)^{1/p} (sum_{n<=N} n^{-4r})^{1/2}; the hypothesis
    r > 1/4 keeps the untruncated sum finite (``check_smoothing``).
    """
    check_smoothing(r, p)
    op = fractional_power_operator(-r, n_modes, LpCodomain(p, resolution))
    return _against_bound(op, gaussian_series_bound(p, -4.0 * r, n_modes), samples, seed)


def iota_embedding(eps: float, beta: float, p: float,
                   n_modes: int = 50,
                   resolution: int = DEFAULT_RESOLUTION) -> FiniteRankGammaOperator:
    """Truncated identity embedding of H_{-eps} into V_beta as a gamma operator.

    Columns are the images of the H_{-eps} orthonormal basis rho_n^eps e_n,
    so column_n = rho_n^eps e_n in sine coefficients with codomain V_beta.
    """
    if not 0 <= eps < math.inf:
        raise HypothesisError(f"embedding hypothesis: requires finite eps >= 0, got eps={eps}")
    if not -math.inf < beta + eps < -0.25:
        raise HypothesisError(f"embedding hypothesis: requires beta + eps < -1/4 with "
                              f"beta finite, got beta={beta}, eps={eps}")
    _check_gaussian_moment(p, "embedding")
    cols = np.diag(eigenvalues(n_modes) ** eps)
    return FiniteRankGammaOperator(cols, VrCodomain(beta, p, resolution))


def apply_embedding(op: FiniteRankGammaOperator, v: SineBasisVector,
                    eps: float) -> SineBasisVector:
    """Apply the embedding to v given in sine coefficients; returns v itself.

    The coefficients of v in the re-normalized domain basis are
    c_n rho_n^{-eps}, so weighting the columns reproduces c exactly.
    """
    w = v.coeffs * eigenvalues(v.truncation) ** (-eps)
    return SineBasisVector(op.weight(w))


def embedding_bound(eps: float, beta: float, p: float, n_modes: int = 50,
                    samples: int = 10_000, seed: int = 0,
                    resolution: int = DEFAULT_RESOLUTION) -> dict:
    """MC gamma(H_{-eps}, V_beta) norm of iota against its closed-form bound."""
    op = iota_embedding(eps, beta, p, n_modes, resolution)
    return _against_bound(op, gaussian_series_bound(p, 4.0 * (beta + eps), n_modes),
                          samples, seed)


# ---------------------------------------------------------------------------
# multiplication operator  B(v) u = v . u  from H into H_beta
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def estimate_sobolev_constant(lebesgue_exponent: float, smoothness: float,
                              n_modes: int = 64,
                              resolution: int = DEFAULT_RESOLUTION,
                              samples: int = 10_000, seed: int = 2024) -> float:
    """Sampled lower estimate of sup_w ||w||_{L^q} / ||w||_{H_r}.

    Maximizes the ratio over `samples` random truncated vectors plus the
    coordinate directions.  A finite maximization under-estimates the
    sup; callers widen by SOBOLEV_SAFETY for inequality checks.
    """
    rng = _mc_rng(seed, 0)
    mat = sine_matrix(resolution, n_modes)
    rho = eigenvalues(n_modes)
    coeffs = rng.standard_normal((samples, n_modes))
    coeffs = np.vstack([coeffs, np.eye(n_modes)])
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero coefficient times an overflowed rho^(2r) (inf * 0) counts as 0
        hr = np.sqrt(np.nansum(rho ** (2.0 * smoothness) * coeffs ** 2, axis=1))
    grids = coeffs @ mat.T
    lq = grid_lp_norms(grids, lebesgue_exponent)
    return float(np.max(lq / hr))


@dataclass(frozen=True)
class MultiplicationOperator:
    """u -> v . u from H into H_beta, computed through the grid."""

    multiplier: GridFunction
    smoothness: float
    exponent: float
    bound: float

    def apply(self, u: SineBasisVector, n_modes: int | None = None) -> SineBasisVector:
        n_out = u.truncation if n_modes is None else n_modes
        grid_u = sine_matrix(self.multiplier.resolution, u.truncation) @ u.coeffs
        product = self.multiplier.values * grid_u
        mat = sine_matrix(self.multiplier.resolution, n_out)
        return SineBasisVector(mat.T @ product / self.multiplier.resolution)


def check_multiplication(beta: float, p: float) -> None:
    """Hypotheses of the multiplication operator (d = 1)."""
    if not 2 < p < math.inf:
        raise HypothesisError(f"multiplication hypothesis: requires 2 < p < inf, got p={p}")
    if not -math.inf < beta <= -1.0 / (2.0 * p):
        raise HypothesisError(f"multiplication hypothesis: requires finite beta <= "
                              f"-1/(2p), got beta={beta}, -1/(2p)={-1.0 / (2.0 * p)}")


def multiplication_operator(v: GridFunction, beta: float, p: float) -> MultiplicationOperator:
    """The multiplication operator (B v) u = v . u in L(H, H_beta).

    Hypotheses: ``check_multiplication``.  The attached bound is
    SOBOLEV_SAFETY x estimated Sobolev constant x ||v||_{L^p}, against
    which ||(Bv) u||_{H_beta} <= bound ||u||_H is checked downstream.
    """
    check_multiplication(beta, p)
    q = 2.0 * p / (p - 2.0)
    constant = SOBOLEV_SAFETY * estimate_sobolev_constant(q, -beta)
    v_norm = grid_lp_norms(v.values, p)
    return MultiplicationOperator(v, beta, p, constant * float(v_norm))


def random_rotation(k: int, seed: int = 0) -> np.ndarray:
    """Deterministic random K x K rotation (QR with sign fix)."""
    g = _mc_rng(seed, 1).standard_normal((k, k))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))[None, :]
