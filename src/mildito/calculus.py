"""Mild Ito calculus: Kolmogorov operator, residuals, Dynkin and weak checks.

The extended Kolmogorov operator applied to the (state, drift, diffusion)
triple of a mild process is

    L phi (x, y, z) = phi'(S x) S y + 1/2 sum_k phi''(S x)(S z_k, S z_k),

with S = S_{s,T}.  ``kolmogorov_apply`` evaluates it pointwise exactly.
The integral drivers quadrature it along simulated paths: the drift part
at the left endpoints, the quadratic part with the diffusion columns
propagated by the per-step RMS-averaged kernel (which integrates the
squared kernel exactly within each step and matches the noise
propagation of the simulation scheme, so the discrete expectation
identities are exact for quadratic test functions).  The discrete
stochastic integral uses the same propagated columns that drove the
path, so it telescopes exactly for linear test functions.

All drivers run in fixed-size chunks of independently keyed paths,
marched one after another on the calling thread and reduced in chunk
order; results depend on (seed, paths) only, never on workers.  Within
a chunk each path's keyed stream is drawn window by window
(``process.keyed_increments``), so a chunk holds paths x 32 x K doubles
of increments, not its whole steps x paths x K block; the normals and
their order are those of a single draw per path.  ``workers`` (default:
the usable cores) only splits each window's draw over that many
threads; drift, diffusion, test-function and BLAS calls all stay on the
calling thread.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gamma import FiniteRankGammaOperator, HypothesisError
from .process import (
    MildItoProcessSpec,
    SamplePath,
    TimeGrid,
    WienerPath,
    apply_columns,
    fill_pool,
    keyed_increments,
    march,
    step_kernels,
)
from .spectral import EvolutionFamily, SineBasisVector, identity_family
from .testfunctions import TestFunction, TimeTestFunction

__all__ = [
    "StoppingRule",
    "EnsembleStats",
    "kolmogorov_apply",
    "run_ensemble",
    "ito_residual",
    "residual_rms",
    "self_convergence_orders",
    "coarsen_increments",
    "dynkin_gap",
    "DynkinResult",
    "martingale_check",
    "weak_estimate_gap",
    "WeakEstimateResult",
    "standard_ito_residual",
    "stopping_sample",
    "CHUNK_SIZE",
]

# Fixed path-chunk size; part of the determinism contract.
CHUNK_SIZE = 2048


@dataclass(frozen=True)
class StoppingRule:
    """Terminal time or first passage of ||X_bar|| over a level."""

    kind: str = "terminal"
    level: float = math.inf

    def __post_init__(self):
        if self.kind not in ("terminal", "hitting"):
            raise ValueError(f"unknown stopping rule kind {self.kind!r}")


def stopping_sample(rule: StoppingRule, path: SamplePath) -> int:
    """Grid index of the realized stopping time along one path."""
    if rule.kind == "terminal":
        return path.grid.steps
    if path.regularized is None:
        raise ValueError("hitting rules need the regularized path; call regularize first")
    norms = np.sqrt(np.sum(path.regularized ** 2, axis=-1))
    hits = np.nonzero(norms >= rule.level)[0]
    return int(hits[0]) if hits.size else path.grid.steps


def kolmogorov_apply(family: EvolutionFamily, s: float, terminal: float,
                     phi: TestFunction, x: SineBasisVector, y: SineBasisVector,
                     z: FiniteRankGammaOperator | np.ndarray | None) -> np.ndarray:
    """Pointwise extended Kolmogorov operator (L^S_{s,T} phi)(x, y, z)."""
    if s >= terminal:
        raise ValueError(f"need s < T, got s={s}, T={terminal}")
    mult = family.multipliers(s, terminal, x.truncation)
    sx = (mult * x.coeffs)[None, :]
    out = np.asarray(phi.d1(sx, (mult * y.coeffs)[None, :]))[0]
    if z is not None:
        cols = z.columns if isinstance(z, FiniteRankGammaOperator) else np.asarray(z)
        out = out + 0.5 * np.ravel(phi.d2_trace(sx, mult[:, None] * cols))
    return out


@dataclass
class EnsembleStats:
    """Chunk-reduced sums of the per-path functionals of one ensemble run."""

    n_paths: int
    output_dim: int
    sums: dict

    def mean(self, key: str) -> np.ndarray:
        return self.sums["s_" + key] / self.n_paths

    def stderr(self, key: str) -> np.ndarray:
        mean = self.mean(key)
        var = self.sums["ss_" + key] / self.n_paths - mean ** 2
        var = np.maximum(var, 0.0) * self.n_paths / max(self.n_paths - 1, 1)
        return np.sqrt(var / self.n_paths)

    def residual_rms(self) -> float:
        """Root mean squared euclidean norm of the pathwise residual."""
        return math.sqrt(max(float(self.sums["s_res2"]) / self.n_paths, 0.0))


def _chunk_stats(phi, spec, grid, kern, dW, n_paths, first_path, rule,
                 collect_stoch, collect_weak, growth, start_index):
    # dW yields the increments of each step in turn, shape (P, K)
    m_dim = phi.output_dim
    dt = grid.dt

    kol = np.zeros((n_paths, m_dim))
    stoch = np.zeros((n_paths, m_dim))
    phi0 = np.zeros((n_paths, m_dim))
    lphi = np.zeros(n_paths) if collect_weak else None
    y_int = np.zeros(n_paths) if collect_weak else None
    z2_int = np.zeros(n_paths) if collect_weak else None

    hitting = rule is not None and rule.kind == "hitting"
    if hitting and start_index:
        raise ValueError("hitting rules are supported from the start node only")
    active = np.ones(n_paths, dtype=bool)
    phi_stop = np.zeros((n_paths, m_dim))

    # a diagonal diffusion drives the first c = min(N, K) modes only
    diag, c = spec.diffusion_diagonal, min(spec.n_modes, spec.k_modes)
    stoch_buf = np.zeros((n_paths, spec.n_modes)) if (collect_stoch and diag is not None) else None

    for m, x, y, z, dw in march(spec, grid, kern, dW, n_paths, first_path):
        if m == grid.steps:
            break
        need_xbar = (hitting or m == start_index or y is not None
                     or (collect_stoch and m >= start_index)
                     or (z is not None and not phi.constant_d2))
        xbar = kern.to_T[m] * x if need_xbar else None
        if hitting:
            hit = active & (np.sqrt(np.sum(xbar ** 2, axis=-1)) >= rule.level)
            if hit.any():
                phi_stop[hit] = np.asarray(phi.value(xbar[hit]))
                active &= ~hit
        if m == start_index:
            phi0[:] = np.asarray(phi.value(xbar))

        if m >= start_index:
            integrand = np.zeros((1, m_dim))
            if y is not None:
                integrand = integrand + np.asarray(phi.d1(xbar, kern.to_T[m] * y))
            if z is not None:
                g_cols = kern.noise_T[m][:, None] * z     # (N, K) or (P, N, K)
                trace = 0.5 * np.asarray(phi.d2_trace(xbar if need_xbar else x, g_cols))
                integrand = integrand + trace.reshape((-1, m_dim))
                if collect_stoch:
                    if diag is not None:
                        stoch_buf[:, :c] = dw[:, :c] * (kern.noise_T[m][:c] * diag[:c])
                        incr = stoch_buf
                    else:
                        incr = apply_columns(g_cols, dw)
                    s_add = np.asarray(phi.d1(xbar, incr))
                    stoch += s_add if not hitting else s_add * active[:, None]
                if collect_weak:
                    if g_cols.ndim == 2:
                        z2_int += float(np.sum(g_cols ** 2)) * dt
                    else:
                        z2_int += np.sum(g_cols ** 2, axis=(1, 2)) * dt
            add = integrand * dt
            kol += add if not hitting else add * active[:, None]
            if collect_weak:
                lphi += np.sqrt(np.sum(np.broadcast_to(
                    integrand, (n_paths, m_dim)) ** 2, axis=-1)) * dt
                if y is not None:
                    y_int += np.sqrt(np.sum((kern.to_T[m] * y) ** 2, axis=-1)) * dt

    terminal_phi = np.asarray(phi.value(x))
    if hitting:
        phi_stop[active] = terminal_phi[active]
    else:
        phi_stop = terminal_phi

    rhs = phi0 + kol
    gap = phi_stop - rhs
    res = gap - stoch

    sums = {}
    for key, arr in (("phi_stop", phi_stop), ("phi0", phi0), ("kol", kol),
                     ("stoch", stoch), ("rhs", rhs), ("gap", gap), ("res", res)):
        sums["s_" + key] = arr.sum(axis=0)
        sums["ss_" + key] = (arr ** 2).sum(axis=0)
    sums["s_res2"] = float(np.sum(res ** 2))
    if collect_weak:
        for key, arr in (("lphi", lphi), ("y_int", y_int), ("z2_int", z2_int)):
            sums["s_" + key] = float(np.sum(arr))
            sums["ss_" + key] = float(np.sum(arr ** 2))
        # overflow to inf is the signal the moment hypothesis fails
        with np.errstate(over="ignore"):
            sums["s_mom_y"] = float(np.sum(y_int ** growth))
            sums["s_mom_z"] = float(np.sum(z2_int ** (growth / 2.0)))
        sums["ss_mom_y"] = sums["ss_mom_z"] = 0.0
    return sums


def run_ensemble(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid, *,
                 n_paths: int | None = None, seed: int = 0,
                 increments: np.ndarray | None = None,
                 rule: StoppingRule | None = None, workers: int | None = None,
                 collect_stoch: bool = False, collect_weak: bool = False,
                 start_index: int = 0) -> EnsembleStats:
    """Chunked Monte Carlo sweep accumulating the mild-formula functionals.

    Either ``n_paths`` (paths keyed (seed, index)) or an explicit
    ``increments`` block of shape (paths, steps, K) must be given.
    Chunks march in order on the calling thread; keyed runs draw their
    normals on up to ``workers`` threads (default: the usable cores).
    """
    if (n_paths is None) == (increments is None):
        raise ValueError("give exactly one of n_paths or increments")
    total = n_paths if increments is None else increments.shape[0]
    if total < 1:
        raise ValueError("need at least one path")
    if increments is not None and increments.shape[1:] != (grid.steps, spec.k_modes):
        raise ValueError(f"increments shaped {increments.shape}, expected "
                         f"(paths, {grid.steps}, {spec.k_modes})")
    kern = step_kernels(spec.family, grid, spec.n_modes)
    growth = phi.growth_exponent
    partials = []
    # explicit blocks draw nothing, so they start no threads
    with fill_pool(workers if increments is None else 1, min(CHUNK_SIZE, total)) as pool:
        for start in range(0, total, CHUNK_SIZE):
            count = min(CHUNK_SIZE, total - start)
            if increments is None:
                dw = keyed_increments(grid, spec.k_modes, seed, start, count,
                                      workers, pool)
            else:
                # explicit blocks arrive path-major; a step-major view iterates by step
                dw = increments[start:start + count].transpose(1, 0, 2)
            partials.append(_chunk_stats(phi, spec, grid, kern, dw, count, start, rule,
                                         collect_stoch, collect_weak, growth,
                                         start_index))

    sums = partials[0]
    for part in partials[1:]:
        for key in part:
            sums[key] = sums[key] + part[key]
    return EnsembleStats(total, phi.output_dim, sums)


def ito_residual(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
                 w: WienerPath, start_index: int = 0) -> np.ndarray:
    """Pathwise residual of the terminal-time mild Ito formula.

    phi(X_T) - phi(S_{t0,T} X_0) - int L phi ds - int phi'(S X) S Z dW
    along one path, discretized consistently with the driving scheme.
    """
    stats = run_ensemble(phi, spec, grid, increments=w.increments[None],
                         collect_stoch=True, start_index=start_index)
    return stats.sums["s_res"]


def residual_rms(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid, *,
                 n_paths: int | None = None, seed: int = 0,
                 increments: np.ndarray | None = None,
                 workers: int | None = None) -> float:
    """RMS over paths of the euclidean residual norm."""
    stats = run_ensemble(phi, spec, grid, n_paths=n_paths, seed=seed,
                         increments=increments, collect_stoch=True, workers=workers)
    return stats.residual_rms()


def coarsen_increments(block: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate Wiener increments onto a grid coarser by ``factor``."""
    n_paths, steps, k = block.shape
    if steps % factor:
        raise ValueError(f"{steps} steps do not split into groups of {factor}")
    return block.reshape(n_paths, steps // factor, factor, k).sum(axis=2)


def self_convergence_orders(phi: TestFunction, spec: MildItoProcessSpec,
                            start: float, terminal: float, step_counts,
                            n_paths: int, seed: int = 0,
                            workers: int | None = None) -> tuple[list[float], float]:
    """RMS residuals on nested grids driven by one coupled set of paths.

    Increments are drawn on the finest grid and pairwise-summed onto the
    coarser ones.  Returns the per-grid RMS values and the fitted
    convergence order (negated log-log slope against the step count).
    """
    counts = sorted(step_counts)
    finest = counts[-1]
    fine_grid = TimeGrid(start, terminal, finest)
    block = np.empty((n_paths, finest, spec.k_modes))
    with fill_pool(workers, n_paths) as pool:
        for m, dw in enumerate(keyed_increments(fine_grid, spec.k_modes, seed, 0,
                                                n_paths, workers, pool)):
            block[:, m] = dw
    rms = []
    for steps in counts:
        grid = TimeGrid(start, terminal, steps)
        # built inside the call, so each coarsened block is freed before the next
        rms.append(residual_rms(phi, spec, grid, increments=(
            block if steps == finest else coarsen_increments(block, finest // steps))))
    slope = np.polyfit(np.log(np.asarray(counts, float)), np.log(rms), 1)[0]
    return rms, float(-slope)


@dataclass(frozen=True)
class DynkinResult:
    lhs: np.ndarray
    rhs: np.ndarray
    stderr_lhs: np.ndarray
    stderr_rhs: np.ndarray
    gap: np.ndarray
    stderr_gap: np.ndarray


def dynkin_gap(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
               rule: StoppingRule | None = None, *, paths: int, seed: int = 0,
               workers: int | None = None) -> DynkinResult:
    """Monte Carlo estimates of both sides of the mild Dynkin formula.

    lhs = E phi(X_bar_tau), rhs = E[phi(S_{t0,T} X_0) + int_{t0}^tau L phi ds],
    over shared paths; the gap is then the sample mean of the discrete
    stochastic integral plus mean-zero discretization fluctuations.
    """
    if paths < 2:
        raise ValueError(f"need at least 2 paths, got {paths}")
    stats = run_ensemble(phi, spec, grid, n_paths=paths, seed=seed, rule=rule,
                         workers=workers)
    return DynkinResult(
        lhs=stats.mean("phi_stop"), rhs=stats.mean("rhs"),
        stderr_lhs=stats.stderr("phi_stop"), stderr_rhs=stats.stderr("rhs"),
        gap=stats.mean("gap"), stderr_gap=stats.stderr("gap"),
    )


def martingale_check(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
                     *, paths: int, seed: int = 0,
                     workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and stderr of the discrete stochastic integral."""
    stats = run_ensemble(phi, spec, grid, n_paths=paths, seed=seed,
                         collect_stoch=True, workers=workers)
    return stats.mean("stoch"), stats.stderr("stoch")


@dataclass(frozen=True)
class WeakEstimateResult:
    slack: float
    lhs_norm: float
    rhs: float
    stderr: float
    moments: dict


def weak_estimate_gap(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
                      *, paths: int, seed: int = 0,
                      workers: int | None = None) -> WeakEstimateResult:
    """Slack of ||E phi(X_T)|| <= ||phi(S X_0)|| + int E ||L phi|| ds.

    The polynomial-growth hypothesis is certified numerically first: the
    p-th moments of the defining integrals must come out finite.
    """
    stats = run_ensemble(phi, spec, grid, n_paths=paths, seed=seed,
                         collect_weak=True, workers=workers)
    p = phi.growth_exponent
    kern = step_kernels(spec.family, grid, spec.n_modes)
    initial_term = float(np.sum((kern.to_T[0] * spec.initial.coeffs) ** 2)) ** 0.5
    with np.errstate(over="ignore"):
        moments = {
            "initial": float(np.float64(initial_term) ** np.float64(p)),
            "drift": stats.sums["s_mom_y"] / stats.n_paths,
            "diffusion": stats.sums["s_mom_z"] / stats.n_paths,
        }
    if not all(np.isfinite(v) for v in moments.values()):
        raise HypothesisError(
            f"polynomial-growth moment condition violated: {moments}"
        )
    lhs_vec = stats.mean("phi_stop")
    lhs_norm = float(np.linalg.norm(lhs_vec))
    se_lhs = float(np.linalg.norm(stats.stderr("phi_stop")))
    phi0_norm = float(np.linalg.norm(stats.mean("phi0")))
    rhs = phi0_norm + float(stats.mean("lphi"))
    se_rhs = float(stats.stderr("lphi"))
    return WeakEstimateResult(
        slack=rhs - lhs_norm, lhs_norm=lhs_norm, rhs=rhs,
        stderr=se_lhs + se_rhs, moments=moments,
    )


def standard_ito_residual(phi: TimeTestFunction, drift, diffusion, grid: TimeGrid,
                          w: WienerPath, n_modes: int,
                          increments: np.ndarray | None = None,
                          initial: np.ndarray | None = None) -> np.ndarray:
    """Pathwise residual of the standard Ito formula (identity family).

    The process is the plain Euler sum X_{m+1} = X_m + Y dt + Z dW with
    time-dependent test function: residual = phi(T, X_T) - phi(t0, X_0)
    - int [d_t phi + d_x phi Y] ds - 1/2 int trace ds - int d_x phi Z dW.
    Pass ``increments`` of shape (paths, steps, K) to batch paths;
    otherwise the single WienerPath drives one path.
    """
    block = w.increments[None] if increments is None else increments
    n_paths, _, k_modes = block.shape
    family = identity_family(grid.start, grid.terminal)
    x0 = np.zeros(n_modes) if initial is None else initial
    # state_dependent: the diffusion receives the state, as drift does
    spec = MildItoProcessSpec(family, SineBasisVector(x0), drift, diffusion,
                              n_modes, k_modes, state_dependent=True)
    nodes = grid.nodes()
    dt = grid.dt
    for m, x, y, z, dw in march(spec, grid, step_kernels(family, grid, n_modes),
                                block.transpose(1, 0, 2), n_paths, 0):
        t = nodes[m]
        if m == 0:
            res = -np.asarray(phi.value(t, x))
        if m == grid.steps:
            break
        res = res - np.asarray(phi.time_derivative(t, x)) * dt
        if y is not None:
            res = res - np.asarray(phi.d1(t, x, y)) * dt
        if z is not None:
            res = res - 0.5 * np.asarray(phi.d2_trace(t, x, z)).reshape((-1, phi.output_dim)) * dt
            res = res - np.asarray(phi.d1(t, x, apply_columns(z, dw)))
    res = res + np.asarray(phi.value(nodes[-1], x))
    return res[0] if increments is None and n_paths == 1 else res
