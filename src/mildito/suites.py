"""Verification suites: each check compares a computed quantity against
its oracle or bound and yields one report row.

Row semantics follow the report contract: a row passes iff its lhs, rhs and
violation (two-sided |lhs - rhs|, or one-sided overshoot for bound checks) are
finite and the violation is within the tolerance.  Wall times are recorded on
the rows but excluded from the machine-readable report so reruns are byte-stable.

The ensemble checks of the simulate, dynkin and weak suites are declared
on one ``calculus.EnsemblePlan`` per ``run_suite`` call before any of them
runs, and their rows are deferred; the specs they share are built once
per call (``_Run``).  So every keyed (spec, grid, seed, paths) ensemble
marches once, also across suites, and the rows are then emitted in
declaration order.  A row computed at once is timed by its own
computation; a deferred row by its declaration and its finish, and the
first row to read a group's results also carries that group's march.
"""

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import calculus, gamma, nemytskii, process, testfunctions
from .spectral import (
    GridFunction,
    SineBasisVector,
    basis_vector,
    eigenvalues,
    grid_lp_norms,
    heat_family,
    hr_norm,
    sine_matrix,
)

__all__ = ["ReportRow", "run_suite", "SUITES", "EMBEDDING_P"]


@dataclass(frozen=True)
class ReportRow:
    suite: str
    check_id: str
    lhs: float
    rhs: float
    stderr: float
    tolerance: float
    verdict: str
    wall_time: float


class _Rows:
    """Collector stamping suite name and wall time on each row.

    A row pushed at once is timed from the previous entry.  ``later``
    defers rows on pending ensemble results until ``rows`` is called;
    they are timed by their declaration plus their own finish, which
    includes the march when theirs is the first result read from a group.
    """

    def __init__(self, suite):
        self.suite = suite
        self._entries = []
        self._t = time.perf_counter()

    def _push(self, check_id, lhs, rhs, stderr, tolerance, violation):
        now = time.perf_counter()
        finite = all(map(math.isfinite, (lhs, rhs, violation)))
        self._entries.append(ReportRow(
            self.suite, check_id, float(lhs), float(rhs), float(stderr),
            float(tolerance), "pass" if finite and abs(violation) <= tolerance else "fail",
            now - self._t,
        ))
        self._t = now

    def match(self, check_id, lhs, rhs, tolerance, stderr=0.0):
        """Two-sided check |lhs - rhs| <= tolerance."""
        self._push(check_id, lhs, rhs, stderr, tolerance, lhs - rhs)

    def bound(self, check_id, lhs, rhs, tolerance=0.0, stderr=0.0):
        """One-sided check lhs <= rhs + tolerance."""
        self._push(check_id, lhs, rhs, stderr, tolerance, max(lhs - rhs, 0.0))

    def floor(self, check_id, lhs, rhs, tolerance=0.0, stderr=0.0):
        """One-sided check lhs >= rhs - tolerance."""
        self._push(check_id, lhs, rhs, stderr, tolerance, max(rhs - lhs, 0.0))

    def later(self, emit, *pending):
        """Push ``emit(*results)``'s rows here once the pending results are read."""
        now = time.perf_counter()
        self._entries.append((emit, pending, now - self._t))
        self._t = now

    def rows(self):
        """Every row in declaration order; deferred ones are computed now."""
        entries, self._entries = self._entries, []
        for entry in entries:
            if isinstance(entry, ReportRow):
                self._entries.append(entry)
            else:
                emit, pending, declared = entry
                self._t = time.perf_counter() - declared
                emit(*(result() for result in pending))
        return self._entries


class _Run:
    """One ``run_suite`` call: its ensemble plan and the specs its suites share.

    Each shared spec is built once, so the checks on it across suites fall
    into one plan group and share its march.
    """

    def __init__(self, cfg):
        self.plan = calculus.EnsemblePlan(cfg.workers)
        self._cfg = cfg

    @cached_property
    def ou(self):
        return _ou(self._cfg)

    @cached_property
    def frozen(self):
        """A deterministic process: no drift, no diffusion."""
        x0 = SineBasisVector(np.ones(8) / np.arange(1, 9))
        return process.MildItoProcessSpec(_family(self._cfg), x0, None, None, 8, 8)

    @cached_property
    def shipped(self):
        return _shipped_configs(self._cfg, self.ou)


def _worst(worst, x):
    """``max(worst, x)``, except that a NaN on either side is kept, not dropped."""
    return math.nan if math.isnan(worst) or math.isnan(x) else max(worst, x)


def _random_grid_functions(rng, count, resolution, n_modes=16, scale=1.0):
    mat = sine_matrix(resolution, n_modes)
    coeffs = rng.standard_normal((count, n_modes)) * scale / np.arange(1, n_modes + 1)
    return [GridFunction(row) for row in coeffs @ mat.T]


# ---------------------------------------------------------------------------
# gamma suite
# ---------------------------------------------------------------------------

# L^p exponent of the V_beta codomain in the embedding-bound rows
EMBEDDING_P = 4.0


def gamma_suite(cfg, run):
    out = _Rows("gamma")
    rng = gamma._mc_rng(cfg.seed, 101)

    # MC estimator against the exact Hilbert-Schmidt value, 20 random operators
    for i in range(20):
        n, k = int(rng.integers(4, 24)), int(rng.integers(2, 16))
        r = float(rng.choice([0.0, 0.25, -0.25]))
        cols = rng.standard_normal((n, k)) / np.arange(1, n + 1)[:, None]
        op = gamma.FiniteRankGammaOperator(cols, gamma.HrCodomain(r))
        exact = gamma.gamma_norm_exact(op)
        est, se = gamma.gamma_norm_mc(op, 10_000, seed=cfg.seed + i)
        out.match(f"mc_vs_exact/{i:02d}", est, exact, 3.0 * se + 1e-12, se)

    # ideal property, 100 exact triples
    worst = 0.0
    for i in range(100):
        n, k = int(rng.integers(4, 16)), int(rng.integers(2, 12))
        mid = gamma.FiniteRankGammaOperator(
            rng.standard_normal((n, k)), gamma.HrCodomain(float(rng.choice([0.0, 0.5]))))
        left = gamma.CoefficientMap(rng.standard_normal((n, n)))
        right = gamma.random_rotation(k, seed=cfg.seed + i)
        lhs, rhs, slack = gamma.ideal_property_gap(left, mid, right)
        worst = _worst(worst, lhs - rhs)
    out.bound("ideal_property_exact/max_violation", worst, 0.0, 1e-10)

    # ideal property with MC norms on L^p codomains, multiplier left factor
    worst = 0.0
    for i in range(20):
        n, k = int(rng.integers(4, 12)), int(rng.integers(2, 8))
        codomain = gamma.LpCodomain(4.0, 128)
        cols = sine_matrix(128, n) @ rng.standard_normal((n, k))
        mid = gamma.FiniteRankGammaOperator(cols, codomain)
        left = gamma.PointwiseMultiplier(1.0 + 0.5 * np.sin(
            np.linspace(0, 3, 128) + float(rng.standard_normal())))
        right = gamma.random_rotation(k, seed=cfg.seed + 300 + i)
        lhs, rhs, slack = gamma.ideal_property_gap(
            left, mid, right, samples=4000, seed=cfg.seed + i)
        worst = _worst(worst, lhs - (rhs + slack))
    out.bound("ideal_property_mc/max_violation", worst, 0.0, 1e-10)

    # bilinear sum bound and rotation invariance, 100 instances
    worst_bound, worst_rot = 0.0, 0.0
    for i in range(100):
        n, k = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        codomain = gamma.HrCodomain(0.0)
        a1 = gamma.FiniteRankGammaOperator(rng.standard_normal((n, k)), codomain)
        a2 = gamma.FiniteRankGammaOperator(rng.standard_normal((n, k)), codomain)
        beta = gamma.hilbert_inner_form(codomain, n)
        total = gamma.bilinear_sum(beta, a1, a2, check=False)
        bound = gamma.gamma_norm_exact(a1) * gamma.gamma_norm_exact(a2)
        worst_bound = _worst(worst_bound, float(np.linalg.norm(total)) - bound)
        rot = gamma.random_rotation(k, seed=cfg.seed + 500 + i)
        total_rot = gamma.bilinear_sum(
            beta,
            gamma.FiniteRankGammaOperator(a1.columns @ rot, codomain),
            gamma.FiniteRankGammaOperator(a2.columns @ rot, codomain),
            check=False)
        worst_rot = _worst(worst_rot, float(np.linalg.norm(total_rot - total)))
    out.bound("bilinear_bound/max_violation", worst_bound, 0.0, 1e-10)
    out.bound("bilinear_rotation_invariance", worst_rot, 0.0, 1e-10)

    # smoothing bound at the pinned (r, p) grid plus the configured pair
    pairs = [(0.3, 2.0), (0.3, 4.0), (0.5, 2.0), (0.5, 4.0), (cfg.r, cfg.p)]
    for j, (r, p) in enumerate(pairs):
        res = gamma.smoothing_gamma_bound(r, p, n_modes=50, samples=10_000,
                                          seed=cfg.seed + j)
        out.bound(f"smoothing_bound/r={r:g},p={p:g}", res["mc_estimate"],
                  res["bound"], 3.0 * res["stderr"], res["stderr"])

    # embedding bound at the pinned pairs plus the configured one
    for j, (eps, beta_) in enumerate([(0.0, -0.5), (0.05, -0.35), (cfg.eps, cfg.beta)]):
        res = gamma.embedding_bound(eps, beta_, EMBEDDING_P, n_modes=50,
                                    samples=10_000, seed=cfg.seed + 40 + j)
        out.bound(f"embedding_bound/eps={eps:g},beta={beta_:g}", res["mc_estimate"],
                  res["bound"], 3.0 * res["stderr"], res["stderr"])

    # the embedding acts as the identity on coefficients
    iota = gamma.iota_embedding(0.1, -0.4, 4.0, n_modes=12)
    v = SineBasisVector(rng.standard_normal(12))
    err = float(np.max(np.abs(gamma.apply_embedding(iota, v, 0.1).coeffs - v.coeffs)))
    out.bound("embedding_identity_action", err, 0.0, 1e-10)

    # multiplication operator bound on sampled pairs
    worst = 0.0
    for v in _random_grid_functions(rng, 10, cfg.J):
        mult = gamma.multiplication_operator(v, cfg.beta, cfg.p)
        for _ in range(10):
            u = SineBasisVector(rng.standard_normal(24) / np.arange(1, 25))
            image = mult.apply(u, n_modes=64)
            worst = _worst(worst, hr_norm(image, cfg.beta) - mult.bound * hr_norm(u))
    out.bound("multiplication_bound/max_violation", worst, 0.0, 1e-10)
    return out


# ---------------------------------------------------------------------------
# nemytskii suite
# ---------------------------------------------------------------------------


def _fd_error(op, m, v, directions, step=1e-4):
    """Relative error of F^(m) against a central difference of F^(m-1)."""
    u, rest = directions[0], directions[1:]
    if m == 1:
        left = nemytskii.nemytskii_apply(op, GridFunction(v.values + step * u.values))
        right = nemytskii.nemytskii_apply(op, GridFunction(v.values - step * u.values))
    else:
        left = nemytskii.nemytskii_derivative(
            op, m - 1, GridFunction(v.values + step * u.values), *rest)
        right = nemytskii.nemytskii_derivative(
            op, m - 1, GridFunction(v.values - step * u.values), *rest)
    fd = (left.values - right.values) / (2 * step)
    exact = nemytskii.nemytskii_derivative(op, m, v, *directions).values
    scale = max(float(np.max(np.abs(exact))), 1e-12)
    return float(np.max(np.abs(fd - exact))) / scale


def nemytskii_suite(cfg, run):
    out = _Rows("nemytskii")
    rng = gamma._mc_rng(cfg.seed, 202)
    fields = [nemytskii.get_field(name) for name in nemytskii.FIELD_NAMES]

    # declared constants hold on dense samples
    xs = np.linspace(-10.0, 10.0, 10_001)
    pairs = rng.uniform(-10, 10, size=(10_000, 2))
    worst = 0.0
    for f in fields:
        for m in range(f.order + 1):
            vals = f.derivatives[m](xs)
            worst = _worst(worst, float(np.max(np.abs(vals))) - f.sup_norms[m])
            gaps = np.abs(f.derivatives[m](pairs[:, 0]) - f.derivatives[m](pairs[:, 1]))
            ratio = gaps / np.abs(pairs[:, 0] - pairs[:, 1])
            worst = _worst(worst, float(np.max(ratio)) - f.lipschitz[m])
    out.bound("declared_constants/max_violation", worst, 0.0, 1e-9)

    for f in fields:
        op = nemytskii.NemytskiiOperator(f, cfg.p, cfg.q)
        v = _random_grid_functions(rng, 1, cfg.J)[0]
        us = _random_grid_functions(rng, 2, cfg.J)
        for m in (1, 2):
            err = _fd_error(op, m, v, tuple(us[:m]))
            out.match(f"fd_derivative/{f.name}/m={m}", err, 0.0, 1e-5)

        # item (iii): sampled quotients never exceed the constant
        for m in (1, 2):
            r = max(cfg.q, (m + 1) * cfg.p)
            const = nemytskii.holder_bound_iii(op, m, r)
            worst = 0.0
            for _ in range(100):
                vv = _random_grid_functions(rng, 1, cfg.J)[0]
                uu = _random_grid_functions(rng, m, cfg.J, scale=2.0)
                num = nemytskii.nemytskii_derivative(op, m, vv, *uu)
                num_norm = grid_lp_norms(num.values, cfg.p)
                den = math.prod(grid_lp_norms(u.values, r) for u in uu)
                if den > 0:
                    worst = _worst(worst, num_norm / den - const)
            out.bound(f"holder_iii/{f.name}/m={m}", worst, 0.0, 1e-10)

        # items (iv) and (v) on sampled pairs
        for m in (1, 2):
            v1, v2 = _random_grid_functions(rng, 2, cfg.J, scale=2.0)
            r = 2.0 * max(cfg.q, (m + 1) * cfg.p)
            s = m * r
            samples = [tuple(_random_grid_functions(rng, m, cfg.J))
                       for _ in range(100)]
            lhs, rhs = nemytskii.lipschitz_bound_iv(op, m, r, s, v1, v2, samples)
            out.bound(f"lipschitz_iv/{f.name}/m={m}", lhs, rhs, 1e-10 * max(rhs, 1.0))
            lhs, rhs = nemytskii.lipschitz_bound_v(op, m, r, v1, v2, samples)
            out.bound(f"lipschitz_v/{f.name}/m={m}", lhs, rhs, 1e-10 * max(rhs, 1.0))

    # diffusion coefficient: FD consistency and the (iv)/(v) bound checks
    coef = nemytskii.DiffusionCoefficient(
        nemytskii.get_field(cfg.field), cfg.p, cfg.beta, cfg.delta,
        resolution=cfg.J)
    v, w, direction = _random_grid_functions(rng, 3, coef.resolution)
    n_modes, k_modes = 24, 24

    def fd_gap(step):
        plus = nemytskii.diffusion_apply(
            coef, GridFunction(v.values + step * direction.values), n_modes, k_modes)
        base = nemytskii.diffusion_apply(coef, v, n_modes, k_modes)
        deriv = nemytskii.diffusion_derivative(coef, 1, v, direction,
                                               n_modes=n_modes, k_modes=k_modes)
        diff = gamma.FiniteRankGammaOperator(
            (plus.columns - base.columns - step * deriv.columns) / step, coef.codomain)
        return gamma.gamma_norm_mc(diff, 2000, seed=cfg.seed)[0]

    e1, e2 = fd_gap(2e-2), fd_gap(1e-2)
    out.bound("diffusion_fd_order", e2, 0.75 * e1, 1e-12)

    for k in (0, 1):
        bound = nemytskii.diffusion_norm_bound(coef, k, n_modes)
        worst, worst_se = 0.0, 0.0
        for i in range(5):
            vv = _random_grid_functions(rng, 1, coef.resolution, scale=2.0)[0]
            dirs = _random_grid_functions(rng, k, coef.resolution)
            op = (nemytskii.diffusion_apply(coef, vv, n_modes, k_modes) if k == 0 else
                  nemytskii.diffusion_derivative(coef, k, vv, *dirs,
                                                 n_modes=n_modes, k_modes=k_modes))
            est, se = gamma.gamma_norm_mc(op, 4000, seed=cfg.seed + i)
            denom = math.prod(grid_lp_norms(d.values, cfg.p) for d in dirs)
            worst = _worst(worst, est - bound * max(denom, 1e-300))
            worst_se = _worst(worst_se, se)
        out.bound(f"diffusion_bound_iv/k={k}", worst, 0.0, 3.0 * worst_se, worst_se)

    bound, r_min = nemytskii.diffusion_lipschitz_bound(coef, 1, n_modes)
    op_v = nemytskii.diffusion_derivative(coef, 1, v, direction,
                                          n_modes=n_modes, k_modes=k_modes)
    op_w = nemytskii.diffusion_derivative(coef, 1, w, direction,
                                          n_modes=n_modes, k_modes=k_modes)
    diff = gamma.FiniteRankGammaOperator(op_v.columns - op_w.columns, coef.codomain)
    est, se = gamma.gamma_norm_mc(diff, 4000, seed=cfg.seed)
    r = max(r_min, cfg.p)
    vw = grid_lp_norms(v.values - w.values, r)
    dirn = grid_lp_norms(direction.values, cfg.p)
    out.bound("diffusion_lipschitz_v/k=1", est, bound * vw * dirn, 3.0 * se, se)
    return out


# ---------------------------------------------------------------------------
# simulate / ito / dynkin / weak suites
# ---------------------------------------------------------------------------


def _family(cfg):
    return heat_family(cfg.t0, cfg.T)


def _grid(cfg):
    return process.TimeGrid(cfg.t0, cfg.T, cfg.M_t)


def _ou(cfg, n=None, k=None):
    n = n or min(cfg.N, 32)
    k = k or min(cfg.K, 32)
    return process.ou_spec(_family(cfg), n, k)


def _ou_closed_form(spec, horizon):
    """E ||X_T||^2 of an OU spec from zero; only min(N, K) modes carry noise."""
    rho = eigenvalues(min(spec.n_modes, spec.k_modes))
    return float(np.sum((1.0 - np.exp(-2.0 * rho * horizon)) / (2.0 * rho)))


def simulate_suite(cfg, run):
    out = _Rows("simulate")
    grid = _grid(cfg)
    k_modes = min(cfg.K, 32)

    # Wiener increment moments over many paths
    block = np.stack([process.wiener_block(grid, k_modes, cfg.seed, i)
                      for i in range(200)])
    mean = float(np.mean(block))
    var = float(np.var(block))
    n_samples = block.size
    out.match("wiener_mean", mean, 0.0, 3.0 * math.sqrt(grid.dt / n_samples),
              math.sqrt(grid.dt / n_samples))
    out.match("wiener_variance", var, grid.dt,
              3.0 * grid.dt * math.sqrt(2.0 / n_samples),
              grid.dt * math.sqrt(2.0 / n_samples))

    # determinism: identical (seed, path_index) gives bit-identical blocks
    again = process.wiener_block(grid, k_modes, cfg.seed, 7)
    out.bound("wiener_determinism", float(np.max(np.abs(block[7] - again))), 0.0, 0.0)

    # recursion equals the literal discretized mild sum
    small = process.TimeGrid(cfg.t0, cfg.T, 40)
    spec = process.nemytskii_drift_spec(np.tanh, _family(cfg), 12, 12, 96)
    w = process.wiener_sample(small, 12, cfg.seed, 3)
    path = process.simulate(spec, small, w)
    literal = process.mild_sum_states(spec, small, w)
    out.bound("recursion_vs_sum", float(np.max(np.abs(path.states - literal))),
              0.0, 1e-10)

    # deterministic flow: Y = Z = 0 reproduces the semigroup orbit exactly
    x0 = basis_vector(1, 8)
    flow_spec = process.MildItoProcessSpec(_family(cfg), x0, None, None, 8, 8)
    flow = process.simulate(flow_spec, small, process.wiener_sample(small, 8, 0, 0))
    expected = np.exp(-eigenvalues(8)[None, :]
                      * (small.nodes() - cfg.t0)[:, None]) * x0.coeffs[None, :]
    out.bound("deterministic_flow", float(np.max(np.abs(flow.states - expected))),
              0.0, 1e-12)

    # OU Ito isometry against the closed form
    spec = run.ou
    closed = _ou_closed_form(spec, cfg.T - cfg.t0)

    def second_moment(res):
        se = float(res.stderr_lhs[0])
        out.match("ou_second_moment", float(res.lhs[0]), closed, 3.0 * se, se)

    out.later(second_moment, run.plan.dynkin_gap(
        testfunctions.squared_norm(), spec, grid, paths=min(cfg.paths, 40_000),
        seed=cfg.seed))

    # integrability report against its closed form
    fine = process.TimeGrid(cfg.t0, cfg.T, 1000)
    path = process.simulate(spec, fine, process.wiener_sample(fine, spec.k_modes,
                                                              cfg.seed, 0))
    report = process.integrability_report(spec, fine, path)
    out.match("integrability_diffusion", report.diffusion_integral, closed,
              1e-3 * closed)
    out.match("integrability_drift", report.drift_integral, 0.0, 1e-12)
    return out


def _shipped_configs(cfg, ou=None):
    """(phi, spec, grid, paths) tuples every expectation check runs over.

    Each spec is built once (``ou`` is used for the OU entries when
    given), so entries on the same process hold the same spec object.
    The state-dependent diffusion runs on at most 50 steps, the others
    on the configured grid.
    """
    fam = _family(cfg)
    field = nemytskii.get_field(cfg.field)
    field_eval = field.derivatives[0]
    ou = ou or _ou(cfg)
    drift = process.nemytskii_drift_spec(field_eval, fam, 16, 16, 128,
                                         label=f"{cfg.field}_drift")
    # multiplicative noise needs a state the field does not annihilate
    bumps = SineBasisVector(0.8 / np.arange(1, 11))
    grid = _grid(cfg)
    return [
        (testfunctions.squared_norm(), ou, grid, min(cfg.paths, 20_000)),
        (testfunctions.coordinate_functional((1, 2)), ou, grid, min(cfg.paths, 20_000)),
        (testfunctions.squared_norm(), drift, grid, 4000),
        (testfunctions.integral_functional(field), drift, grid, 4000),
        (testfunctions.smoothed_norm(),
         process.state_diffusion_spec(field_eval, fam, 10, 10, 80, initial=bumps),
         process.TimeGrid(cfg.t0, cfg.T, min(cfg.M_t, 50)), 2000),
    ]


def ito_suite(cfg, run):
    out = _Rows("ito")
    grid = process.TimeGrid(cfg.t0, cfg.T, min(cfg.M_t, 100))
    fam = _family(cfg)

    # deterministic configurations: constant path, any test function
    det = run.frozen
    w = process.wiener_sample(grid, 8, cfg.seed, 0)
    for phi in (testfunctions.squared_norm(), testfunctions.smoothed_norm(),
                testfunctions.coordinate_functional((1,))):
        res = calculus.ito_residual(phi, det, grid, w)
        out.bound(f"deterministic/{phi.name}", float(np.max(np.abs(res))), 0.0, 1e-10)

    # linear test functions: exact for any drift and diffusion
    lin = testfunctions.coordinate_functional((1, 3))
    for spec, tag in [(_ou(cfg, 8, 8), "ou"),
                      (process.nemytskii_drift_spec(np.tanh, fam, 8, 8, 64),
                       "nemytskii")]:
        w = process.wiener_sample(grid, 8, cfg.seed, 1)
        res = calculus.ito_residual(lin, spec, grid, w)
        out.bound(f"linear_phi/{tag}", float(np.max(np.abs(res))), 0.0, 1e-10)

    # deterministic drift with a linear functional (Z = 0 arm)
    drift_only = process.MildItoProcessSpec(
        fam, det.initial, lambda t, x: -np.asarray(x), None, 8, 8)
    res = calculus.ito_residual(lin, drift_only, grid,
                                process.wiener_sample(grid, 8, cfg.seed, 2))
    out.bound("linear_phi/drift_only", float(np.max(np.abs(res))), 0.0, 1e-10)

    # standard Ito formula exact cases
    w1 = process.wiener_sample(grid, 4, cfg.seed, 5)
    res = calculus.standard_ito_residual(
        testfunctions.time_functional(), None, lambda t, x: np.eye(4), grid, w1, 4)
    out.bound("standard/time_functional", float(np.max(np.abs(res))), 0.0, 1e-12)
    res = calculus.standard_ito_residual(
        lin, lambda t, x: -x, lambda t, x: np.eye(8),
        grid, process.wiener_sample(grid, 8, cfg.seed, 6), 8)
    out.bound("standard/linear_phi", float(np.max(np.abs(res))), 0.0, 1e-10)

    # self-convergence of the quadratic residual
    phi = testfunctions.squared_norm()
    for spec, tag in [(run.ou, "ou"),
                      (process.nemytskii_drift_spec(np.tanh, fam, 16, 16, 128),
                       "nemytskii")]:
        _, order = calculus.self_convergence_orders(
            phi, spec, cfg.t0, cfg.T, (100, 200, 400), 1000, seed=cfg.seed,
            workers=cfg.workers)
        out.floor(f"self_convergence/{tag}", order, 0.4)
    return out


def dynkin_suite(cfg, run):
    out = _Rows("dynkin")
    plan = run.plan
    grid = _grid(cfg)
    phi = testfunctions.squared_norm()

    # deterministic process: both sides coincide exactly
    out.later(lambda res: out.bound("deterministic_equality",
                                    float(np.max(np.abs(res.gap))), 0.0, 1e-10),
              plan.dynkin_gap(phi, run.frozen, grid, paths=2, seed=cfg.seed))

    # OU second moment against the closed form, both sides
    spec = run.ou
    closed = _ou_closed_form(spec, cfg.T - cfg.t0)

    def ou_rows(res):
        se_l = float(res.stderr_lhs[0])
        out.match("ou_lhs_vs_closed_form", float(res.lhs[0]), closed,
                  max(3.0 * se_l, 0.01 * closed), se_l)
        se_r = float(res.stderr_rhs[0])
        out.match("ou_rhs_vs_closed_form", float(res.rhs[0]), closed,
                  max(3.0 * se_r, 0.01 * closed), se_r)
        out.match("ou_gap", float(res.gap[0]), 0.0, 3.0 * float(res.stderr_gap[0]),
                  float(res.stderr_gap[0]))

    out.later(ou_rows, plan.dynkin_gap(phi, spec, grid, paths=cfg.paths, seed=cfg.seed))

    # infinite hitting level degenerates to the terminal rule
    out.later(lambda lim, term: out.bound(
        "hitting_inf_degenerate",
        abs(float(lim.lhs[0] - term.lhs[0])) + abs(float(lim.rhs[0] - term.rhs[0])),
        0.0, 0.0),
        plan.dynkin_gap(phi, spec, grid, calculus.StoppingRule("hitting", math.inf),
                        paths=2000, seed=cfg.seed),
        plan.dynkin_gap(phi, spec, grid, paths=2000, seed=cfg.seed))

    # finite hitting level, widened tolerance for the node-discretized time
    out.later(lambda hit: out.match("hitting_gap", float(hit.gap[0]), 0.0,
                                    5.0 * float(hit.stderr_gap[0]),
                                    float(hit.stderr_gap[0])),
              plan.dynkin_gap(phi, spec, grid, calculus.StoppingRule("hitting", 0.3),
                              paths=min(cfg.paths, 20_000), seed=cfg.seed))

    # the configured test function and stopping rule
    phi_cfg = testfunctions.shipped_test_function(cfg.phi)
    rule_cfg = (None if cfg.stopping == "terminal"
                else calculus.StoppingRule("hitting", cfg.level))
    widen = 5.0 if cfg.stopping == "hitting" else 3.0
    out.later(lambda res: out.match(f"configured_gap/{cfg.phi}/{cfg.stopping}",
                                    float(np.max(np.abs(res.gap))), 0.0,
                                    widen * float(np.max(res.stderr_gap)),
                                    float(np.max(res.stderr_gap))),
              plan.dynkin_gap(phi_cfg, spec, grid, rule_cfg,
                              paths=min(cfg.paths, 20_000), seed=cfg.seed))

    # martingale property on every shipped configuration
    def martingale_row(check_id, result):
        mean, se = result
        viol = float(np.max(np.abs(mean) - 3.0 * se))
        out.bound(check_id, viol, 0.0, 0.0, float(np.max(se)))

    for i, (phi_i, spec_i, grid_i, paths_i) in enumerate(run.shipped):
        out.later(partial(martingale_row, f"martingale/{i}_{spec_i.label}_{phi_i.name}"),
                  plan.martingale_check(phi_i, spec_i, grid_i, paths=paths_i,
                                        seed=cfg.seed))
    return out


def weak_suite(cfg, run):
    out = _Rows("weak")
    plan = run.plan
    grid = _grid(cfg)

    # deterministic case: equality
    out.later(lambda res: out.match("deterministic_equality", res.slack, 0.0, 1e-10),
              plan.weak_estimate_gap(testfunctions.squared_norm(), run.frozen, grid,
                                     paths=2, seed=cfg.seed))

    # the configured test function on the reference process
    phi_cfg = testfunctions.shipped_test_function(cfg.phi)
    out.later(lambda res: out.floor(f"configured_slack/{cfg.phi}", res.slack, 0.0,
                                    3.0 * res.stderr, res.stderr),
              plan.weak_estimate_gap(phi_cfg, run.ou, grid,
                                     paths=min(cfg.paths, 20_000), seed=cfg.seed))

    # slack is nonnegative within Monte Carlo resolution on shipped configs
    def slack_rows(tag, res):
        out.floor(f"slack/{tag}", res.slack, 0.0, 3.0 * res.stderr, res.stderr)
        moment_ok = 0.0 if all(np.isfinite(v) for v in res.moments.values()) else 1.0
        out.match(f"moment_hypothesis/{tag}", moment_ok, 0.0, 0.0)

    for i, (phi_i, spec_i, grid_i, paths_i) in enumerate(run.shipped):
        out.later(partial(slack_rows, f"{i}_{spec_i.label}_{phi_i.name}"),
                  plan.weak_estimate_gap(phi_i, spec_i, grid_i, paths=paths_i,
                                         seed=cfg.seed))
    return out


SUITES = {
    "gamma": gamma_suite,
    "nemytskii": nemytskii_suite,
    "simulate": simulate_suite,
    "ito": ito_suite,
    "dynkin": dynkin_suite,
    "weak": weak_suite,
}


def run_suite(name, cfg):
    """The rows of one suite, or of every suite for ``"all"``, in suite order.

    Every suite declares its checks first, so the plan knows each
    ensemble's requests before it marches: under ``"all"`` the OU checks
    of the simulate, dynkin and weak suites share one march.
    """
    run = _Run(cfg)
    names = ("gamma", "nemytskii", "simulate", "ito", "dynkin", "weak") \
        if name == "all" else (name,)
    collected = [SUITES[key](cfg, run) for key in names]
    return [row for out in collected for row in out.rows()]
