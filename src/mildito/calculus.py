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
their order are those of a single draw per path.  No function here
holds a whole block.  ``workers`` (default: the usable cores) only
splits each window's draw over that many threads; drift, diffusion,
test-function and BLAS calls all stay on the calling thread.

One chunk driver is the one march loop.  It marches nested grids from
one feed, the coarser ones on sums of the fine increments in lockstep
(the coupled levels of multilevel Monte Carlo), and gives every request
(test function, stopping rule, collectors, start index) its own
accumulator; values every request reads at a step (the propagated state,
drift and noise columns, the noise increment) are formed once.
``run_requests`` is its one-grid case, ``self_convergence_orders`` its
nested-grid case.  ``run_ensemble``, ``dynkin_gap``, ``martingale_check``
and ``weak_estimate_gap`` are one request of ``run_requests``, and
``EnsemblePlan`` groups checks declared ahead so that each ensemble
marches once.  A request's sums are built by the same operations, and
reduced in the same chunk order, whatever shares its march, so they keep
their bits.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

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
from .testfunctions import TestFunction

__all__ = [
    "StoppingRule",
    "EnsembleStats",
    "EnsembleRequest",
    "EnsemblePlan",
    "kolmogorov_apply",
    "run_requests",
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
        out = out + 0.5 * np.ravel(phi.trace(sx, mult[:, None] * cols))
    return out


@dataclass
class EnsembleStats:
    """Chunk-reduced sums of the per-path functionals of one ensemble run."""

    n_paths: int
    sums: dict

    def mean(self, key: str) -> np.ndarray:
        return self.sums["s_" + key] / self.n_paths

    def stderr(self, key: str) -> np.ndarray:
        """Standard error of the mean, from the unbiased sample variance:
        every check's tolerance reads it, and it needs at least 2 paths."""
        n = self.n_paths
        if n < 2:
            raise ValueError(f"a standard error needs at least 2 paths, got {n}")
        mean = self.mean(key)
        var = self.sums["ss_" + key] / n - mean ** 2
        var = np.maximum(var, 0.0) * n / (n - 1)
        return np.sqrt(var / n)

    def residual_rms(self) -> float:
        """Root mean squared euclidean norm of the pathwise residual."""
        return math.sqrt(max(float(self.sums["s_res2"]) / self.n_paths, 0.0))


@dataclass(frozen=True)
class EnsembleRequest:
    """One consumer of a march: test function, stopping rule, collectors and
    the grid index the formula starts from."""

    phi: TestFunction
    rule: StoppingRule | None = None
    collect_stoch: bool = False
    collect_weak: bool = False
    start_index: int = 0

    def __post_init__(self):
        if self.rule is not None and self.rule.kind == "hitting" and self.start_index:
            raise ValueError("hitting rules are supported from the start node only")


class _Step:
    """Values of one step that every request reads: each is formed at most once."""

    def __init__(self, spec, kern, dt, stoch_buf, m, x, y, z, dw):
        self.spec, self.kern, self.dt, self.stoch_buf = spec, kern, dt, stoch_buf
        self.m, self.x, self.y, self.z, self.dw = m, x, y, z, dw

    @cached_property
    def xbar(self):
        return self.kern.to_T[self.m] * self.x

    @cached_property
    def xbar_norm(self):
        return np.sqrt(np.sum(self.xbar ** 2, axis=-1))

    @cached_property
    def ybar(self):
        return self.kern.to_T[self.m] * self.y

    @cached_property
    def g_cols(self):
        return self.kern.noise_T[self.m][:, None] * self.z    # (N, K) or (P, N, K)

    @cached_property
    def incr(self):
        """The propagated noise increment S_{m,T} R_m Z dW_m."""
        diag = self.spec.diffusion_diagonal
        if diag is None:
            return apply_columns(self.g_cols, self.dw)
        # a diagonal diffusion drives the first c = min(N, K) modes only
        c = min(self.spec.n_modes, self.spec.k_modes)
        self.stoch_buf[:, :c] = self.dw[:, :c] * (self.kern.noise_T[self.m][:c] * diag[:c])
        return self.stoch_buf

    @cached_property
    def y_norm_dt(self):
        return np.sqrt(np.sum(self.ybar ** 2, axis=-1)) * self.dt

    @cached_property
    def z2_dt(self):
        g_cols = self.g_cols
        if g_cols.ndim == 2:
            return float(np.sum(g_cols ** 2)) * self.dt
        return np.sum(g_cols ** 2, axis=(1, 2)) * self.dt


class _Accumulator:
    """One request's per-path functionals over one chunk."""

    def __init__(self, req, n_paths):
        self.req = req
        m_dim = req.phi.output_dim
        self.kol = np.zeros((n_paths, m_dim))
        self.stoch = np.zeros((n_paths, m_dim))
        self.phi0 = np.zeros((n_paths, m_dim))
        self.lphi = np.zeros(n_paths) if req.collect_weak else None
        self.y_int = np.zeros(n_paths) if req.collect_weak else None
        self.z2_int = np.zeros(n_paths) if req.collect_weak else None
        self.hitting = req.rule is not None and req.rule.kind == "hitting"
        self.active = np.ones(n_paths, dtype=bool)
        self.phi_stop = np.zeros((n_paths, m_dim))

    def step(self, s: _Step):
        req, phi = self.req, self.req.phi
        m, y, z, dt = s.m, s.y, s.z, s.dt
        m_dim, start, hitting = phi.output_dim, req.start_index, self.hitting
        if hitting:
            hit = self.active & (s.xbar_norm >= req.rule.level)
            if hit.any():
                self.phi_stop[hit] = np.asarray(phi.value(s.xbar[hit]))
                self.active &= ~hit
        if m == start:
            self.phi0[:] = np.asarray(phi.value(s.xbar))
        if m < start:
            return

        integrand = np.zeros((1, m_dim))
        if y is not None:
            integrand = integrand + np.asarray(phi.d1(s.xbar, s.ybar))
        if z is not None:
            # a constant phi'' ignores the base point: no state to propagate
            base = s.x if phi.constant_d2 else s.xbar
            trace = 0.5 * np.asarray(phi.trace(base, s.g_cols))
            integrand = integrand + trace.reshape((-1, m_dim))
            if req.collect_stoch:
                s_add = np.asarray(phi.d1(s.xbar, s.incr))
                self.stoch += s_add if not hitting else s_add * self.active[:, None]
            if req.collect_weak:
                self.z2_int += s.z2_dt
        add = integrand * dt
        self.kol += add if not hitting else add * self.active[:, None]
        if req.collect_weak:
            n_paths = self.kol.shape[0]
            self.lphi += np.sqrt(np.sum(np.broadcast_to(
                integrand, (n_paths, m_dim)) ** 2, axis=-1)) * dt
            if y is not None:
                self.y_int += s.y_norm_dt

    def finish(self, x):
        """The chunk's sums, given the terminal states."""
        req = self.req
        terminal_phi = np.asarray(req.phi.value(x))
        if self.hitting:
            phi_stop = self.phi_stop
            phi_stop[self.active] = terminal_phi[self.active]
        else:
            phi_stop = terminal_phi

        rhs = self.phi0 + self.kol
        gap = phi_stop - rhs
        res = gap - self.stoch

        sums = {}
        for key, arr in (("phi_stop", phi_stop), ("phi0", self.phi0), ("kol", self.kol),
                         ("stoch", self.stoch), ("rhs", rhs), ("gap", gap), ("res", res)):
            sums["s_" + key] = arr.sum(axis=0)
            sums["ss_" + key] = (arr ** 2).sum(axis=0)
        sums["s_res2"] = float(np.sum(res ** 2))
        if req.collect_weak:
            for key, arr in (("lphi", self.lphi), ("y_int", self.y_int),
                             ("z2_int", self.z2_int)):
                sums["s_" + key] = float(np.sum(arr))
                sums["ss_" + key] = float(np.sum(arr ** 2))
            growth = req.phi.growth_exponent
            # overflow to inf is the signal the moment hypothesis fails
            with np.errstate(over="ignore"):
                sums["s_mom_y"] = float(np.sum(self.y_int ** growth))
                sums["s_mom_z"] = float(np.sum(self.z2_int ** (growth / 2.0)))
            sums["ss_mom_y"] = sums["ss_mom_z"] = 0.0
        return sums


def _chunk_stats(requests, spec, grid, kern, dW, n_paths, first_path):
    """Generator marching one chunk: pauses after each step, returns the sums.

    dW yields the increments of each step in turn, shape (P, K).
    ``_march_grids`` steps several in lockstep.
    """
    accs = [_Accumulator(req, n_paths) for req in requests]
    stoch_buf = (np.zeros((n_paths, spec.n_modes))
                 if spec.diffusion_diagonal is not None
                 and any(r.collect_stoch for r in requests) else None)
    for m, x, y, z, dw in march(spec, grid, kern, dW, n_paths, first_path):
        if m == grid.steps:
            break
        # every request reads step m before march resumes and updates x in place
        step = _Step(spec, kern, grid.dt, stoch_buf, m, x, y, z, dw)
        for acc in accs:
            acc.step(step)
        yield
    return [acc.finish(x) for acc in accs]


def _march_grids(requests, spec, grids, n_paths, seed, increments, workers):
    """March nested grids (finest last) chunk by chunk from one feed.

    The feed is the finest grid's increments: windows of the paths keyed
    (seed, index), or an explicit (paths, steps, K) block.  A grid coarser
    by a factor f steps on the sum of each f consecutive fine increments
    (``_summed_onto``) as soon as the last of them arrives, so the grids
    march in lockstep and no block is held.  As each chunk finishes, every
    request's sums on every grid are added to the previous chunks', so they
    are reduced in chunk order.  Returns, per grid, one EnsembleStats per
    request.
    """
    if (n_paths is None) == (increments is None):
        raise ValueError("give exactly one of n_paths or increments")
    total = n_paths if increments is None else increments.shape[0]
    if total < 1:
        raise ValueError("need at least one path")
    fine = grids[-1]
    if increments is not None and increments.shape[1:] != (fine.steps, spec.k_modes):
        raise ValueError(f"increments shaped {increments.shape}, expected "
                         f"(paths, {fine.steps}, {spec.k_modes})")
    kerns = [step_kernels(spec.family, grid, spec.n_modes) for grid in grids]
    totals = None
    # explicit blocks draw nothing, so they start no threads
    with fill_pool(workers if increments is None else 1, min(CHUNK_SIZE, total)) as pool:
        for first in range(0, total, CHUNK_SIZE):
            count = min(CHUNK_SIZE, total - first)
            if increments is None:
                feed = keyed_increments(fine, spec.k_modes, seed, first, count,
                                        workers, pool)
            else:
                # explicit blocks arrive path-major; a step-major view iterates by step
                feed = increments[first:first + count].transpose(1, 0, 2)
            levels = [(fine.steps // grid.steps, deque()) for grid in grids[:-1]]
            # a coarse grid pops one completed sum per step; a lone grid reads the feed
            feeds = [map(deque.popleft, repeat(queue)) for _, queue in levels]
            feeds.append(_summed_onto(feed, levels) if levels else feed)
            chunks = [_chunk_stats(requests, spec, grid, kern, dw, count, first)
                      for grid, kern, dw in zip(grids, kerns, feeds)]
            for j in range(fine.steps):
                next(chunks[-1])
                for (factor, _), chunk in zip(levels, chunks):
                    if j % factor == factor - 1:
                        next(chunk)
            parts = []
            for chunk in chunks:
                try:    # each chunk is at its last step: resuming it returns the sums
                    next(chunk)
                except StopIteration as done:
                    parts.append(done.value)
            totals = parts if totals is None else [
                [{key: acc[key] + part[key] for key in acc} for acc, part in zip(*pair)]
                for pair in zip(totals, parts)]
    return [[EnsembleStats(total, sums) for sums in grid_sums] for grid_sums in totals]


def run_requests(spec: MildItoProcessSpec, grid: TimeGrid, requests, *,
                 n_paths: int | None = None, seed: int = 0,
                 increments: np.ndarray | None = None,
                 workers: int | None = None) -> list[EnsembleStats]:
    """March one ensemble once and accumulate every request on it.

    Either ``n_paths`` (paths keyed (seed, index)) or an explicit
    ``increments`` block of shape (paths, steps, K) must be given.
    Chunks march in order on the calling thread; keyed runs draw their
    normals on up to ``workers`` threads (default: the usable cores).
    This is the chunk driver on one grid.  Each request's sums are formed
    with the same operations, and reduced in the same chunk order, as when
    it runs alone, so they keep its bits.
    """
    return _march_grids(requests, spec, [grid], n_paths, seed, increments, workers)[0]


def run_ensemble(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid, *,
                 n_paths: int | None = None, seed: int = 0,
                 increments: np.ndarray | None = None,
                 rule: StoppingRule | None = None, workers: int | None = None,
                 collect_stoch: bool = False, collect_weak: bool = False,
                 start_index: int = 0) -> EnsembleStats:
    """Chunked Monte Carlo sweep accumulating the mild-formula functionals:
    ``run_requests`` with one request."""
    request = EnsembleRequest(phi, rule, collect_stoch, collect_weak, start_index)
    return run_requests(spec, grid, [request], n_paths=n_paths, seed=seed,
                        increments=increments, workers=workers)[0]


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


def _summed_onto(rows, levels):
    """Pass the fine ``rows`` through, first adding each into the coarse sums.

    ``levels`` holds (factor, queue) pairs: every ``factor`` consecutive
    rows are summed into a new array, appended to the queue once its last
    row is drawn.  The sum is ((a0 + a1) + a2) + ..., the order of
    ``coarsen_increments``, so each coarse increment keeps its bits.
    """
    sums = [None] * len(levels)
    for j, dw in enumerate(rows):
        for i, (factor, queue) in enumerate(levels):
            if j % factor == 0:
                sums[i] = dw.copy()
            else:
                sums[i] += dw
            if j % factor == factor - 1:
                queue.append(sums[i])
        yield dw


def self_convergence_orders(phi: TestFunction, spec: MildItoProcessSpec,
                            start: float, terminal: float, step_counts,
                            n_paths: int, seed: int = 0,
                            workers: int | None = None) -> tuple[list[float], float]:
    """RMS residuals on nested grids driven by one coupled set of paths.

    The step counts must hold at least two distinct positive values, each
    dividing the finest.  The grids march in lockstep through the chunk
    driver of ``run_requests``: each chunk of keyed paths draws its
    increments window by window on the finest grid, and a grid coarser by
    a factor f steps on the sums of f consecutive fine increments, formed
    as in ``coarsen_increments``, so no increment block is ever held.
    Returns the per-grid RMS values in ascending step count and the fitted
    convergence order (negated log-log slope against the step count).
    """
    counts = sorted(step_counts)
    if (len(set(counts)) < 2 or counts[0] < 1
            or any(counts[-1] % steps for steps in counts)):
        raise ValueError(f"step counts {tuple(step_counts)} do not nest: need at least "
                         "two distinct positive counts, each dividing the finest")
    grids = [TimeGrid(start, terminal, steps) for steps in counts]
    per_grid = _march_grids([EnsembleRequest(phi, collect_stoch=True)], spec, grids,
                            n_paths, seed, None, workers)
    rms = [stats.residual_rms() for stats, in per_grid]
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


def _dynkin_result(stats: EnsembleStats) -> DynkinResult:
    return DynkinResult(
        lhs=stats.mean("phi_stop"), rhs=stats.mean("rhs"),
        stderr_lhs=stats.stderr("phi_stop"), stderr_rhs=stats.stderr("rhs"),
        gap=stats.mean("gap"), stderr_gap=stats.stderr("gap"),
    )


def dynkin_gap(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
               rule: StoppingRule | None = None, *, paths: int, seed: int = 0,
               workers: int | None = None) -> DynkinResult:
    """Monte Carlo estimates of both sides of the mild Dynkin formula.

    lhs = E phi(X_bar_tau), rhs = E[phi(S_{t0,T} X_0) + int_{t0}^tau L phi ds],
    over shared paths; the gap is then the sample mean of the discrete
    stochastic integral plus mean-zero discretization fluctuations.
    """
    return _dynkin_result(run_ensemble(phi, spec, grid, n_paths=paths, seed=seed,
                                       rule=rule, workers=workers))


def _martingale_result(stats: EnsembleStats) -> tuple[np.ndarray, np.ndarray]:
    return stats.mean("stoch"), stats.stderr("stoch")


def martingale_check(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
                     *, paths: int, seed: int = 0,
                     workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and stderr of the discrete stochastic integral."""
    return _martingale_result(run_ensemble(phi, spec, grid, n_paths=paths, seed=seed,
                                           collect_stoch=True, workers=workers))


@dataclass(frozen=True)
class WeakEstimateResult:
    slack: float
    lhs_norm: float
    rhs: float
    stderr: float
    moments: dict


def _weak_result(stats: EnsembleStats, phi: TestFunction, spec: MildItoProcessSpec,
                 grid: TimeGrid) -> WeakEstimateResult:
    p = phi.growth_exponent
    to_T = spec.family.multipliers(grid.start, grid.terminal, spec.n_modes)
    initial_term = float(np.sum((to_T * spec.initial.coeffs) ** 2)) ** 0.5
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


def weak_estimate_gap(phi: TestFunction, spec: MildItoProcessSpec, grid: TimeGrid,
                      *, paths: int, seed: int = 0,
                      workers: int | None = None) -> WeakEstimateResult:
    """Slack of ||E phi(X_T)|| <= ||phi(S X_0)|| + int E ||L phi|| ds.

    The polynomial-growth hypothesis is certified numerically first: the
    p-th moments of the defining integrals must come out finite.
    """
    stats = run_ensemble(phi, spec, grid, n_paths=paths, seed=seed,
                         collect_weak=True, workers=workers)
    return _weak_result(stats, phi, spec, grid)


class EnsemblePlan:
    """Keyed ensemble checks collected before any of them runs.

    ``dynkin_gap``, ``martingale_check`` and ``weak_estimate_gap`` take the
    arguments of the functions of those names, except ``workers``, which is
    the plan's.  Each returns a pending result: calling it gives the result.
    Checks on the same (spec, grid, seed, paths) form one group, keyed by
    the spec object, so a caller builds each spec once.  A group is one
    ``run_requests`` call, made with every request it holds when the first
    of its results is read; every result keeps the bits of its check run alone.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers
        self._groups = {}

    def add(self, spec: MildItoProcessSpec, grid: TimeGrid, request: EnsembleRequest,
            finish, *, paths: int, seed: int = 0):
        """Pending ``finish(stats)`` of ``request`` on the keyed ensemble."""
        # the group holds the spec, so its id is not reused while the plan lives
        group = self._groups.setdefault((id(spec), grid, seed, paths),
                                        {"spec": spec, "requests": [], "stats": None})
        if group["stats"] is not None:
            raise RuntimeError("this ensemble has already been marched")
        index = len(group["requests"])
        group["requests"].append(request)

        def result():
            if group["stats"] is None:
                group["stats"] = run_requests(spec, grid, group["requests"],
                                              n_paths=paths, seed=seed,
                                              workers=self.workers)
            return finish(group["stats"][index])

        return result

    def dynkin_gap(self, phi, spec, grid, rule=None, *, paths, seed=0):
        return self.add(spec, grid, EnsembleRequest(phi, rule), _dynkin_result,
                        paths=paths, seed=seed)

    def martingale_check(self, phi, spec, grid, *, paths, seed=0):
        return self.add(spec, grid, EnsembleRequest(phi, collect_stoch=True),
                        _martingale_result, paths=paths, seed=seed)

    def weak_estimate_gap(self, phi, spec, grid, *, paths, seed=0):
        return self.add(spec, grid, EnsembleRequest(phi, collect_weak=True),
                        lambda stats: _weak_result(stats, phi, spec, grid),
                        paths=paths, seed=seed)


def standard_ito_residual(phi: TestFunction, drift, diffusion, grid: TimeGrid,
                          w: WienerPath, n_modes: int,
                          increments: np.ndarray | None = None,
                          initial: np.ndarray | None = None) -> np.ndarray:
    """Pathwise residual of the standard Ito formula (identity family).

    The process is the plain Euler sum X_{m+1} = X_m + Y dt + Z dW, and phi's
    maps get the node time as ``t``: residual = phi(T, X_T) - phi(t0, X_0)
    - int [d_t phi + d_x phi Y] ds - 1/2 int trace ds - int d_x phi Z dW,
    where d_t phi = 0 if ``time_derivative`` is None.  Pass ``increments``
    of shape (paths, steps, K) to batch paths; otherwise the single
    WienerPath drives one path.
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
            res = -np.asarray(phi.value(x, t=t))
        if m == grid.steps:
            break
        if phi.time_derivative is not None:
            res = res - np.asarray(phi.time_derivative(x, t=t)) * dt
        if y is not None:
            res = res - np.asarray(phi.d1(x, y, t=t)) * dt
        if z is not None:
            res = res - 0.5 * np.asarray(phi.trace(x, z, t=t)).reshape((-1, phi.output_dim)) * dt
            res = res - np.asarray(phi.d1(x, apply_columns(z, dw), t=t))
    res = res + np.asarray(phi.value(x, t=nodes[-1]))
    return res[0] if increments is None and n_paths == 1 else res
