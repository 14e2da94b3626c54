"""Simulation of mild Ito processes on the truncated sine modes.

A process is determined by an evolution family S, an initial value, a
mild drift Y and a mild diffusion Z; its states are advanced by the
exponential update

    X_{m+1} = S_{t_m, t_{m+1}} (X_m + Y(t_m, X_m) dt) + R_m Z(t_m, X_m) dW_m

where R_m carries the root-mean-square average of the semigroup kernel
over the step, so each mode of the noise increment enters with the exact
variance of the mild stochastic integral over [t_m, t_{m+1}] (for the
identity family R_m = Id and this is the plain left-point Euler update).
Drift and diffusion are evaluated at the left endpoint, which realizes
their predictability.

``march`` is the one implementation of this update.  The single-path
simulator, the Monte Carlo ensemble engine and the standard Ito residual
all consume its per-step (node, state, drift, diffusion, increment)
tuples.  Drift/diffusion callables follow a batched convention: the
state argument is a (paths, modes) matrix.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spectral import (
    EvolutionFamily,
    SineBasisVector,
    eigenvalues,
    sine_matrix,
)

__all__ = [
    "TimeGrid",
    "WienerPath",
    "MildItoProcessSpec",
    "SamplePath",
    "BlowUpError",
    "wiener_sample",
    "wiener_block",
    "keyed_increments",
    "fill_pool",
    "usable_cores",
    "path_rng",
    "simulate",
    "mild_sum_states",
    "regularize",
    "integrability_report",
    "ou_spec",
    "nemytskii_drift_spec",
    "state_diffusion_spec",
    "StepKernels",
    "step_kernels",
    "apply_columns",
    "march",
]

# Steps per window: ``keyed_increments`` refills its buffer and a batched
# ``march`` scans for blow-up once per window.
WINDOW = 32


class BlowUpError(RuntimeError):
    """A simulated state became non-finite."""

    def __init__(self, step: int, path_index: int | None = None):
        self.step = step
        self.path_index = path_index
        where = f"step {step}" if path_index is None else \
            f"step {step}, path {path_index}"
        super().__init__(f"non-finite state at {where}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 = tau_0 < ... < tau_M = T."""

    start: float
    terminal: float
    steps: int

    def __post_init__(self):
        if not self.terminal > self.start:
            raise ValueError("terminal time must exceed start time")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return (self.terminal - self.start) / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.terminal, self.steps + 1)


@dataclass(frozen=True)
class WienerPath:
    """Increments dW[j, k] ~ N(0, dt) of the truncated cylindrical process."""

    increments: np.ndarray
    seed: int
    path_index: int

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2:
            raise ValueError("increments must have shape (steps, modes)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("increments must be finite")
        object.__setattr__(self, "increments", arr)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Independent per-path substream keyed by (seed, path_index).

    SFC64 under SeedSequence keying: deterministic in the key, streams
    are independent, and results cannot depend on worker scheduling
    because every path draws its increments from its own stream, in step
    order.
    """
    ss = np.random.SeedSequence(entropy=seed & (2 ** 64 - 1),
                                spawn_key=(path_index,))
    return np.random.Generator(np.random.SFC64(ss))


def wiener_block(grid: TimeGrid, k_modes: int, seed: int, path_index: int) -> np.ndarray:
    """The (steps, K) increment block of one path, drawn in one fixed order."""
    if k_modes < 1:
        raise ValueError("need at least one noise mode")
    g = path_rng(seed, path_index)
    return g.standard_normal((grid.steps, k_modes)) * np.sqrt(grid.dt)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _slices(workers: int | None, count: int) -> int:
    cores = usable_cores()
    return max(1, min(cores if workers is None else workers, count, cores))


@contextmanager
def fill_pool(workers: int | None, count: int):
    """Threads for ``keyed_increments`` over at most ``count`` paths per call.

    Yields a pool of S - 1 threads for S = min(workers, count, usable
    cores), workers defaulting to the usable cores, or None when S = 1;
    the threads are joined on exit, also on error.
    """
    threads = _slices(workers, count) - 1
    if threads < 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool


def keyed_increments(grid: TimeGrid, k_modes: int, seed: int, first_path: int,
                     count: int, workers: int | None = None, pool=None):
    """Each step's (count, K) increments of paths (seed, first_path + i), in step order.

    Every path keeps its generator and draws WINDOW steps at a time into a
    path-major (count, WINDOW, K) buffer.  Successive draws from one stream
    give the normals of ``wiener_block`` in the same order, so each path's
    increments keep their bits.  With a ``pool`` (see ``fill_pool``) each
    window is filled in S = min(workers, count, usable cores) contiguous
    path slices: the calling thread fills the first, pool threads the
    rest, each drawing and scaling only its own paths' rows.  A window is
    yielded once every slice is done; a yielded view is overwritten at the
    next refill.
    """
    draws = [path_rng(seed, first_path + i).standard_normal for i in range(count)]
    buf = np.empty((count, min(WINDOW, grid.steps), k_modes))
    # row views and draw methods are made once per chunk, not per window:
    # the Python run between two draws holds the interpreter lock
    rows = list(buf)
    scale = math.sqrt(grid.dt)
    slices = 1 if pool is None else _slices(workers, count)
    edges = [count * s // slices for s in range(slices + 1)]

    def fill(lo, hi, width):
        for draw, out in zip(draws[lo:hi], rows[lo:hi]):
            draw(out=out if width == len(out) else out[:width])
        buf[lo:hi, :width] *= scale

    for lo in range(0, grid.steps, WINDOW):
        width = min(WINDOW, grid.steps - lo)
        helpers = [pool.submit(fill, a, b, width)
                   for a, b in zip(edges[1:-1], edges[2:])]
        fill(edges[0], edges[1], width)
        for done in helpers:
            done.result()
        yield from buf[:, :width].transpose(1, 0, 2)


def wiener_sample(grid: TimeGrid, k_modes: int, seed: int, path_index: int = 0) -> WienerPath:
    return WienerPath(wiener_block(grid, k_modes, seed, path_index), seed, path_index)


@dataclass(frozen=True)
class MildItoProcessSpec:
    """Evolution family, initial value, mild drift and mild diffusion.

    drift(t, X) -> (P, N) for X of shape (P, N), or None when zero.
    diffusion(t, X) -> (N, K), or (P, N, K) when ``state_dependent``
    is set; None means zero diffusion.  For state-independent diffusion
    the engine passes X = None.

    ``diffusion_diagonal`` declares that the diffusion columns are the
    scaled first K coordinate vectors (entries on the diagonal); ``march``
    then skips the per-step column product.  It must describe the same
    operator as ``diffusion``.
    """

    family: EvolutionFamily
    initial: SineBasisVector
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    n_modes: int = 64
    k_modes: int = 64
    state_dependent: bool = False
    label: str = "process"
    diffusion_diagonal: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.initial.truncation != self.n_modes:
            raise ValueError(
                f"initial value has {self.initial.truncation} modes, spec says "
                f"{self.n_modes}"
            )


@dataclass
class SamplePath:
    """States per node, optionally with the regularized companion filled."""

    grid: TimeGrid
    states: np.ndarray                       # (steps + 1, N)
    regularized: np.ndarray | None = None    # (steps + 1, N)


@dataclass(frozen=True)
class StepKernels:
    """Precomputed diagonal kernels of one (family, grid, N) combination.

    step[m]    multipliers of S_{tau_m, tau_{m+1}}
    rms[m]     RMS-averaged noise multipliers over [tau_m, tau_{m+1}]
    to_T[m]    multipliers of S_{tau_m, T}      (ones at m = steps)
    noise_T[m] to_T[m+1] * rms[m]: exact-variance propagation of dW_m to T
    """

    step: np.ndarray
    rms: np.ndarray
    to_T: np.ndarray
    noise_T: np.ndarray


def step_kernels(family: EvolutionFamily, grid: TimeGrid, n_modes: int) -> StepKernels:
    nodes = grid.nodes()
    steps = grid.steps
    step = np.empty((steps, n_modes))
    rms = np.empty((steps, n_modes))
    to_T = np.empty((steps + 1, n_modes))
    for m in range(steps):
        step[m] = family.multipliers(nodes[m], nodes[m + 1], n_modes)
        rms[m] = family.noise_multipliers(nodes[m], nodes[m + 1], n_modes)
        to_T[m] = family.multipliers(nodes[m], nodes[-1], n_modes)
    to_T[steps] = 1.0
    noise_T = to_T[1:] * rms
    return StepKernels(step, rms, to_T, noise_T)


def apply_columns(z, dw):
    """Apply columns to increments: (N,K)x(P,K)->(P,N) or (P,N,K)x(P,K)->(P,N)."""
    if z.ndim == 2:
        return dw @ z.T
    return np.einsum("pnk,pk->pn", z, dw)


def _coefficients(spec: MildItoProcessSpec, t: float, x: np.ndarray):
    """Drift and diffusion at the left endpoint (t, x); None where zero."""
    y = None if spec.drift is None else np.asarray(spec.drift(t, x))
    z = None if spec.diffusion is None else np.asarray(
        spec.diffusion(t, x if spec.state_dependent else None))
    return y, z


def march(spec: MildItoProcessSpec, grid: TimeGrid, kern: StepKernels,
          dW, n_paths: int, first_path: int):
    """Advance n_paths paths driven by dW, which yields each step's (P, K)
    increments in step order.

    Yields (m, x, y, z, dw) at each node m < steps before stepping from
    it: the (P, N) state, updated in place once resumed, the coefficients
    read there and the increments of step m; the last yield is
    (steps, x, None, None, None).  A non-finite state raises BlowUpError,
    scanned at every step for a single path and once per WINDOW steps for
    a batch.
    """
    # a diagonal diffusion drives the first c modes without a column product
    diag, c = spec.diffusion_diagonal, min(spec.n_modes, spec.k_modes)
    window = 1 if n_paths == 1 else WINDOW
    nodes = grid.nodes()
    dt = grid.dt
    dW = iter(dW)
    x = np.broadcast_to(spec.initial.coeffs, (n_paths, spec.n_modes)).copy()
    for m in range(grid.steps):
        dw = next(dW)
        y, z = _coefficients(spec, nodes[m], x)
        yield m, x, y, z, dw
        if y is None:
            x *= kern.step[m]
        else:
            x = kern.step[m] * (x + y * dt)
        if diag is not None:
            x[:, :c] += dw[:, :c] * (kern.rms[m][:c] * diag[:c])
        elif z is not None:
            x += kern.rms[m] * apply_columns(z, dw)
        # the scan only decides where an error is reported; values are unaffected
        if (m % window == window - 1 or m == grid.steps - 1) and not np.all(np.isfinite(x)):
            bad = int(np.nonzero(~np.all(np.isfinite(x), axis=-1))[0][0])
            raise BlowUpError(m + 1, first_path + bad)
    yield grid.steps, x, None, None, None


def simulate(spec: MildItoProcessSpec, grid: TimeGrid, w: WienerPath) -> SamplePath:
    """March one path with the exponential variance-exact update."""
    if w.increments.shape != (grid.steps, spec.k_modes):
        raise ValueError(
            f"increments shaped {w.increments.shape}, expected "
            f"{(grid.steps, spec.k_modes)}"
        )
    kern = step_kernels(spec.family, grid, spec.n_modes)
    states = np.empty((grid.steps + 1, spec.n_modes))
    for m, x, *_ in march(spec, grid, kern, w.increments[:, None, :], 1, w.path_index):
        states[m] = x[0]
    return SamplePath(grid, states)


def mild_sum_states(spec: MildItoProcessSpec, grid: TimeGrid, w: WienerPath) -> np.ndarray:
    """Literal discretized mild representation, for the recursion-sum check.

    X_m = S_{t0,tau_m} X_0 + sum_{j<m} S_{tau_j,tau_m} Y_j dt
        + sum_{j<m} S_{tau_{j+1},tau_m} R_j Z_j dW_j,
    with Y_j, Z_j read along the recursive path.  O(steps^2); test sizes.
    """
    path = simulate(spec, grid, w)
    nodes = grid.nodes()
    dt = grid.dt
    n = spec.n_modes
    out = np.empty_like(path.states)
    out[0] = spec.initial.coeffs
    drift_terms = []
    noise_terms = []
    for j in range(grid.steps):
        y, z = _coefficients(spec, nodes[j], path.states[j][None, :])
        drift_terms.append(np.zeros(n) if y is None else y[0] * dt)
        if z is not None:
            rms = spec.family.noise_multipliers(nodes[j], nodes[j + 1], n)
            noise_terms.append(rms * apply_columns(z, w.increments[j:j + 1])[0])
        else:
            noise_terms.append(np.zeros(n))
    for m in range(1, grid.steps + 1):
        acc = spec.family.multipliers(nodes[0], nodes[m], n) * spec.initial.coeffs
        for j in range(m):
            acc = acc + spec.family.multipliers(nodes[j], nodes[m], n) * drift_terms[j]
            acc = acc + spec.family.multipliers(nodes[j + 1], nodes[m], n) * noise_terms[j]
        out[m] = acc
    return out


def regularize(spec: MildItoProcessSpec, path: SamplePath) -> SamplePath:
    """Fill the companion X_bar_t = S_{t,T} X_t; the terminal node is X_T itself."""
    kern = step_kernels(spec.family, path.grid, spec.n_modes)
    path.regularized = kern.to_T * path.states
    return path


@dataclass(frozen=True)
class IntegrabilityReport:
    """Quadrature values of the defining integrability quantities."""

    drift_integral: float
    diffusion_integral: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.drift_integral) and np.isfinite(self.diffusion_integral))


def integrability_report(spec: MildItoProcessSpec, grid: TimeGrid, path: SamplePath,
                         smoothness: float = 0.0) -> IntegrabilityReport:
    """int ||S_{s,T} Y_s|| ds and int ||S_{s,T} Z_s||_gamma^2 ds along one path.

    The drift integrand is evaluated at the left endpoints; the squared
    diffusion kernel is integrated exactly within each step (consistent
    with the noise propagation of the scheme).  Norms are taken in the
    H_smoothness scale.
    """
    kern = step_kernels(spec.family, grid, spec.n_modes)
    nodes = grid.nodes()
    dt = grid.dt
    weights = eigenvalues(spec.n_modes) ** (2.0 * smoothness)
    drift_total = 0.0
    diff_total = 0.0
    for m in range(grid.steps):
        y, z = _coefficients(spec, nodes[m], path.states[m][None, :])
        if y is not None:
            drift_total += np.sqrt(np.sum(weights * (kern.to_T[m] * y[0]) ** 2)) * dt
        if z is not None:
            cols = z if z.ndim == 2 else z[0]
            propagated = kern.noise_T[m][:, None] * cols
            diff_total += float(np.sum(weights[:, None] * propagated ** 2)) * dt
    return IntegrabilityReport(float(drift_total), float(diff_total))


# ---------------------------------------------------------------------------
# shipped process constructors
# ---------------------------------------------------------------------------


def _identity_columns(n_modes: int, k_modes: int, scale: float = 1.0) -> np.ndarray:
    cols = np.zeros((n_modes, k_modes))
    np.fill_diagonal(cols, scale)
    return cols


def _additive_spec(family, drift, n_modes, k_modes, initial, scale, label):
    """Additive truncated-identity noise scaled by ``scale``, declared diagonal."""
    if initial is None:
        initial = SineBasisVector(np.zeros(n_modes))
    cols = _identity_columns(n_modes, k_modes, scale)
    return MildItoProcessSpec(
        family, initial, drift, lambda t, x: cols, n_modes, k_modes,
        state_dependent=False, label=label,
        diffusion_diagonal=np.full(k_modes, scale),
    )


def ou_spec(family: EvolutionFamily, n_modes: int = 32, k_modes: int = 32,
            initial: SineBasisVector | None = None,
            diffusion_scale: float = 1.0) -> MildItoProcessSpec:
    """Ornstein-Uhlenbeck type process: zero drift, truncated-identity noise."""
    return _additive_spec(family, None, n_modes, k_modes, initial, diffusion_scale, "ou")


def nemytskii_drift_spec(field_eval: Callable, family: EvolutionFamily,
                         n_modes: int = 32, k_modes: int = 32,
                         resolution: int = 128,
                         initial: SineBasisVector | None = None,
                         diffusion_scale: float = 1.0,
                         label: str = "nemytskii_drift") -> MildItoProcessSpec:
    """Semilinear process: drift is the composition field applied pointwise."""
    mat = sine_matrix(resolution, n_modes)

    def drift(t, x):
        return field_eval(x @ mat.T) @ mat / resolution

    return _additive_spec(family, drift, n_modes, k_modes, initial, diffusion_scale, label)


def state_diffusion_spec(field_eval: Callable, family: EvolutionFamily,
                         n_modes: int = 12, k_modes: int = 12,
                         resolution: int = 96,
                         initial: SineBasisVector | None = None,
                         label: str = "state_diffusion") -> MildItoProcessSpec:
    """Multiplicative noise Z(t, X) u = b(X) . u, columns per path."""
    if initial is None:
        initial = SineBasisVector(np.zeros(n_modes))
    mat_n = sine_matrix(resolution, n_modes)
    mat_k = mat_n if k_modes == n_modes else sine_matrix(resolution, k_modes)

    def diffusion(t, x):
        bv = field_eval(x @ mat_n.T)                       # (P, J)
        return np.einsum("jn,pj,jk->pnk", mat_n, bv, mat_k) / resolution

    return MildItoProcessSpec(
        family, initial, None, diffusion, n_modes, k_modes,
        state_dependent=True, label=label,
    )
