"""Spectral function spaces over (0,1) built on the Dirichlet sine basis.

Everything downstream works with two concrete representations:

* coefficient sequences in the eigenbasis ``sqrt(2) sin(n pi x)`` of the
  Dirichlet Laplacian (elements of L2 and of the fractional smoothness
  scale ``H_r``), and
* pointwise values on the uniform midpoint grid ``x_j = (j - 1/2)/J``
  (representatives of ``L^p(0,1)``).

Fractional powers, the heat semigroup and two-parameter evolution
families all act diagonally on the coefficients, so the whole operator
calculus reduces to per-mode multipliers.  Smoothness exponents live in
the norms, never in the stored data.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalIndex",
    "SineBasisVector",
    "GridFunction",
    "EvolutionFamily",
    "eigenvalue",
    "eigenvalues",
    "eigenfunction_value",
    "sine_matrix",
    "midpoints",
    "basis_vector",
    "synthesize",
    "analyze",
    "grid_lp_norms",
    "lp_norm",
    "hr_norm",
    "apply_fractional",
    "apply_semigroup",
    "heat_family",
    "identity_family",
    "DEFAULT_RESOLUTION",
]

# Midpoint-rule grid resolution; spectrally accurate for trigonometric
# integrands as long as mode numbers stay below J.
DEFAULT_RESOLUTION = 256

#: Smoothness exponents are plain floats; the scale parameter enters the
#: norms and multipliers, not the data.
FractionalIndex = float


def eigenvalue(n: int) -> float:
    """Eigenvalue pi^2 n^2 of the negative Dirichlet Laplacian on (0,1)."""
    if n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n}")
    return np.pi ** 2 * n * n


def eigenvalues(n_modes: int) -> np.ndarray:
    """Vector (pi^2 1^2, ..., pi^2 n_modes^2)."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    n = np.arange(1, n_modes + 1, dtype=float)
    return np.pi ** 2 * n * n


def eigenfunction_value(n: int, x: float) -> float:
    """Value sqrt(2) sin(n pi x) of the n-th eigenfunction at x in [0,1]."""
    if n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    return np.sqrt(2.0) * np.sin(n * np.pi * x)


@functools.lru_cache(maxsize=32)
def midpoints(resolution: int) -> np.ndarray:
    """Midpoint grid ((j - 1/2)/J)_{j=1..J}."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    x = (np.arange(resolution, dtype=float) + 0.5) / resolution
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=32)
def sine_matrix(resolution: int, n_modes: int) -> np.ndarray:
    """(J, N) matrix of eigenfunction values sqrt(2) sin(n pi x_j)."""
    x = midpoints(resolution)
    n = np.arange(1, n_modes + 1, dtype=float)
    mat = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))
    mat.flags.writeable = False
    return mat


def _frozen_1d(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{what} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SineBasisVector:
    """Function represented by coefficients c_1..c_N in the sine eigenbasis."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_1d(self.coeffs, "coeffs"))

    @property
    def truncation(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class GridFunction:
    """Pointwise values on the uniform midpoint grid of (0,1)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_1d(self.values, "values"))

    @property
    def resolution(self) -> int:
        return self.values.size


def basis_vector(n: int, n_modes: int) -> SineBasisVector:
    """The n-th coordinate vector e_n on a truncation of n_modes modes."""
    if not 1 <= n <= n_modes:
        raise ValueError(f"need 1 <= n <= n_modes, got n={n}, n_modes={n_modes}")
    c = np.zeros(n_modes)
    c[n - 1] = 1.0
    return SineBasisVector(c)


def synthesize(v: SineBasisVector, resolution: int = DEFAULT_RESOLUTION) -> GridFunction:
    """Evaluate the basis expansion on the midpoint grid."""
    return GridFunction(sine_matrix(resolution, v.truncation) @ v.coeffs)


def analyze(g: GridFunction, n_modes: int) -> SineBasisVector:
    """Project grid values onto the first n_modes eigenfunctions.

    Uses the midpoint rule c_n = (1/J) sum_j g_j sqrt(2) sin(n pi x_j),
    which is exact on trigonometric polynomials with mode numbers below
    the grid resolution; analyze(synthesize(v)) == v for N < J.
    """
    mat = sine_matrix(g.resolution, n_modes)
    return SineBasisVector(mat.T @ g.values / g.resolution)


def grid_lp_norms(values: np.ndarray, p: float):
    """L^p(0,1) norms ((1/J) sum_j |v_j|^p)^(1/p) along the last (grid) axis.

    A norm whose mean of p-th powers over- or underflows is recomputed from
    the values scaled by their largest modulus; the others keep their bits.
    """
    a = np.abs(values)
    with np.errstate(over="ignore"):
        powers = np.mean(a ** p, axis=-1)
    in_range = (powers >= np.finfo(float).tiny) & (powers < np.inf)
    if in_range.all():
        return powers ** (1.0 / p)
    top = np.max(a, axis=-1, keepdims=True)
    scaled = np.mean((a / np.where(top > 0, top, 1.0)) ** p, axis=-1) ** (1.0 / p)
    return np.where(in_range, powers ** (1.0 / p), top[..., 0] * scaled)


def lp_norm(g: GridFunction, p: float) -> float:
    """L^p(0,1) norm ((1/J) sum |g_j|^p)^(1/p) of a grid function."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(grid_lp_norms(g.values, p))


def hr_norm(v: SineBasisVector, r: FractionalIndex = 0.0) -> float:
    """Fractional Sobolev norm ||(-A)^r v||_{L^2} = (sum rho_n^{2r} c_n^2)^(1/2)."""
    rho = eigenvalues(v.truncation)
    return float(np.sqrt(np.sum(rho ** (2.0 * r) * v.coeffs ** 2)))


def apply_fractional(r: FractionalIndex, v: SineBasisVector) -> SineBasisVector:
    """Diagonal action of (-A)^r: c_n -> rho_n^r c_n."""
    return SineBasisVector(eigenvalues(v.truncation) ** r * v.coeffs)


def apply_semigroup(t: float, v: SineBasisVector) -> SineBasisVector:
    """Heat semigroup e^{tA}: c_n -> e^{-rho_n t} c_n, t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return SineBasisVector(np.exp(-eigenvalues(v.truncation) * t) * v.coeffs)


HEAT = "heat_semigroup"
IDENTITY = "identity"


@dataclass(frozen=True)
class EvolutionFamily:
    """Two-parameter family S_{s,t} with S_{t2,t3} S_{t1,t2} = S_{t1,t3}.

    Two kinds ship: the heat semigroup S_{s,t} = e^{(t-s)A} of the
    Dirichlet Laplacian, and the identity family.  Both act diagonally;
    ``multipliers`` returns the per-mode factors, ``noise_multipliers``
    the root-mean-square average of the factor over [s,t] used to
    propagate a Wiener increment with exact per-mode variance.
    """

    kind: str
    start: float = 0.0
    terminal: float = 1.0

    def __post_init__(self):
        if self.kind not in (HEAT, IDENTITY):
            raise ValueError(f"unknown evolution family kind {self.kind!r}")
        if not self.terminal > self.start:
            raise ValueError("terminal time must exceed start time")

    def multipliers(self, s: float, t: float, n_modes: int) -> np.ndarray:
        """Diagonal factors of S_{s,t} on the first n_modes modes (s <= t)."""
        if t < s:
            raise ValueError(f"need s <= t, got s={s}, t={t}")
        if self.kind == IDENTITY or t == s:
            return np.ones(n_modes)
        return np.exp(-eigenvalues(n_modes) * (t - s))

    def noise_multipliers(self, s: float, t: float, n_modes: int) -> np.ndarray:
        """RMS average sqrt((1/(t-s)) int_s^t mult(u,t)^2 du) of the kernel.

        For the heat family this is sqrt((1 - e^{-2 rho dt})/(2 rho dt));
        it tends to 1 as dt -> 0 and equals 1 for the identity family.
        """
        if t <= s:
            raise ValueError(f"need s < t, got s={s}, t={t}")
        if self.kind == IDENTITY:
            return np.ones(n_modes)
        a = 2.0 * eigenvalues(n_modes) * (t - s)
        return np.sqrt(-np.expm1(-a) / a)

    def apply(self, s: float, t: float, v: SineBasisVector) -> SineBasisVector:
        """Apply S_{s,t} to v; requires start <= s < t <= terminal."""
        if not (self.start <= s < t <= self.terminal):
            raise ValueError(
                f"need start <= s < t <= terminal, got s={s}, t={t} on "
                f"[{self.start}, {self.terminal}]"
            )
        return SineBasisVector(self.multipliers(s, t, v.truncation) * v.coeffs)


def heat_family(start: float = 0.0, terminal: float = 1.0) -> EvolutionFamily:
    return EvolutionFamily(HEAT, start, terminal)


def identity_family(start: float = 0.0, terminal: float = 1.0) -> EvolutionFamily:
    return EvolutionFamily(IDENTITY, start, terminal)
