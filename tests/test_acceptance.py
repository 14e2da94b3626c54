"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
``-rA``); tolerances are the stated ones, nothing is deferred.  Run

    pytest tests/test_acceptance.py -s -v
"""

import math
import time

import numpy as np

from mildito import calculus, gamma, nemytskii, process, testfunctions
from mildito.cli import ExperimentConfig, main
from mildito.spectral import (
    GridFunction,
    SineBasisVector,
    eigenvalues,
    heat_family,
    sine_matrix,
)
from mildito.suites import _shipped_configs


def report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def closed_ou_variance(n_modes, horizon):
    rho = eigenvalues(n_modes)
    return float(np.sum((1.0 - np.exp(-2.0 * rho * horizon)) / (2.0 * rho)))


def test_criterion_1_ou_second_moment_dynkin():
    spec = process.ou_spec(heat_family(0.0, 0.1), 32, 32)
    grid = process.TimeGrid(0.0, 0.1, 400)
    started = time.perf_counter()
    res = calculus.dynkin_gap(testfunctions.squared_norm(), spec, grid,
                              paths=100_000, seed=2024)
    elapsed = time.perf_counter() - started
    closed = closed_ou_variance(32, 0.1)
    tol_lhs = max(3.0 * float(res.stderr_lhs[0]), 0.01 * closed)
    tol_rhs = max(3.0 * float(res.stderr_rhs[0]), 0.01 * closed)
    ok = (abs(float(res.lhs[0]) - closed) <= tol_lhs
          and abs(float(res.rhs[0]) - closed) <= tol_rhs
          and elapsed <= 60.0)
    report(1, "OU second moment (Dynkin)", ok,
           f"lhs={res.lhs[0]:.6f} rhs={res.rhs[0]:.6f} closed={closed:.6f} "
           f"runtime={elapsed:.1f}s")


def test_criterion_2_pathwise_residuals():
    fam = heat_family(0.0, 0.1)
    grid = process.TimeGrid(0.0, 0.1, 100)
    worst_exact = 0.0

    # deterministic (Z = 0): constant paths, every shipped test function
    x0 = SineBasisVector(1.0 / np.arange(1.0, 17.0))
    frozen = process.MildItoProcessSpec(fam, x0, None, None, 16, 16)
    w = process.wiener_sample(grid, 16, 1, 0)
    for phi in (testfunctions.squared_norm(), testfunctions.smoothed_norm(),
                testfunctions.coordinate_functional((1, 2)),
                testfunctions.integral_functional(nemytskii.get_field("tanh"), 64)):
        res = calculus.ito_residual(phi, frozen, grid, w)
        worst_exact = max(worst_exact, float(np.max(np.abs(res))))

    # Z = 0 with drift, and Z != 0, both with linear test functions
    lin = testfunctions.coordinate_functional((1, 2))
    drifted = process.MildItoProcessSpec(fam, x0, lambda t, x: np.tanh(x),
                                         None, 16, 16)
    for spec in (drifted, process.ou_spec(fam, 16, 16),
                 process.nemytskii_drift_spec(np.tanh, fam, 16, 16, 128)):
        res = calculus.ito_residual(lin, spec, grid,
                                    process.wiener_sample(grid, 16, 2, 0))
        worst_exact = max(worst_exact, float(np.max(np.abs(res))))

    # self-convergence of the quadratic residual on OU and tanh drift
    phi = testfunctions.squared_norm()
    orders = {}
    for label, spec in (("ou", process.ou_spec(fam, 32, 32)),
                        ("tanh", process.nemytskii_drift_spec(
                            np.tanh, fam, 32, 32, 128))):
        rms, order = calculus.self_convergence_orders(
            phi, spec, 0.0, 0.1, (100, 200, 400), 1000, seed=7)
        orders[label] = order
    ok = worst_exact <= 1e-10 and all(o >= 0.4 for o in orders.values())
    report(2, "pathwise mild Ito residual", ok,
           f"max exact residual={worst_exact:.2e} orders={orders}")


def test_criterion_3_martingale_property():
    cfg = ExperimentConfig(N=16, K=16, M_t=100, paths=8000, seed=11)
    details = []
    ok = True
    for phi, spec, grid, paths in _shipped_configs(cfg):
        mean, se = calculus.martingale_check(phi, spec, grid, paths=paths,
                                             seed=cfg.seed)
        ok = ok and bool(np.all(np.abs(mean) <= 3.0 * se))
        details.append(f"{spec.label}/{phi.name}:{np.max(np.abs(mean / np.maximum(se, 1e-300))):.2f}se")
    report(3, "martingale property on shipped configurations", ok,
           " ".join(details))


def test_criterion_4_gamma_mc_consistency():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n, k = int(rng.integers(4, 32)), int(rng.integers(2, 24))
        cols = rng.standard_normal((n, k)) / np.arange(1, n + 1)[:, None]
        op = gamma.FiniteRankGammaOperator(
            cols, gamma.HrCodomain(float(rng.choice([0.0, 0.5, -0.5]))))
        est, se = gamma.gamma_norm_mc(op, 10_000, seed=600 + i)
        worst = max(worst, abs(est - gamma.gamma_norm_exact(op)) / (3.0 * se))
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed <= 10.0
    report(4, "gamma-norm MC vs exact (20 operators)", ok,
           f"worst |err|/3se={worst:.3f} runtime={elapsed:.1f}s")


def test_criterion_5_smoothing_bound():
    results = {}
    ok = True
    for i, (r, p) in enumerate([(0.3, 2.0), (0.3, 4.0), (0.5, 2.0), (0.5, 4.0)]):
        res = gamma.smoothing_gamma_bound(r, p, n_modes=50, samples=10_000,
                                          seed=500 + i)
        ok = ok and res["mc_estimate"] <= res["bound"] + 3.0 * res["stderr"]
        results[(r, p)] = f"{res['mc_estimate']:.4f}<={res['bound']:.4f}"
    report(5, "smoothing gamma bound", ok, str(results))


def test_criterion_6_embedding_bound():
    ok = True
    details = {}
    for i, (eps, beta) in enumerate([(0.0, -0.5), (0.05, -0.35)]):
        res = gamma.embedding_bound(eps, beta, 4.0, n_modes=50, samples=10_000,
                                    seed=700 + i)
        ok = ok and res["mc_estimate"] <= res["bound"] + 3.0 * res["stderr"]
        details[(eps, beta)] = f"{res['mc_estimate']:.4f}<={res['bound']:.4f}"
    report(6, "embedding iota bound", ok, str(details))


def test_criterion_7_ideal_and_bilinear():
    rng = np.random.default_rng(770)
    worst_ideal = 0.0
    for i in range(100):
        n, k = int(rng.integers(3, 14)), int(rng.integers(2, 10))
        mid = gamma.FiniteRankGammaOperator(
            rng.standard_normal((n, k)),
            gamma.HrCodomain(float(rng.choice([0.0, 0.5]))))
        left = gamma.CoefficientMap(rng.standard_normal((n, n)))
        rot = gamma.random_rotation(k, seed=800 + i)
        lhs, rhs, _ = gamma.ideal_property_gap(left, mid, rot)
        worst_ideal = max(worst_ideal, lhs - rhs)

    worst_bilinear, worst_rot = 0.0, 0.0
    for i in range(100):
        n, k = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        codomain = gamma.HrCodomain(0.0)
        a1 = gamma.FiniteRankGammaOperator(rng.standard_normal((n, k)), codomain)
        a2 = gamma.FiniteRankGammaOperator(rng.standard_normal((n, k)), codomain)
        beta = gamma.hilbert_inner_form(codomain, n)
        total = gamma.bilinear_sum(beta, a1, a2, check=False)
        bound = gamma.gamma_norm_exact(a1) * gamma.gamma_norm_exact(a2)
        worst_bilinear = max(worst_bilinear, float(np.linalg.norm(total)) - bound)
        rot = gamma.random_rotation(k, seed=900 + i)
        turned = gamma.bilinear_sum(
            beta,
            gamma.FiniteRankGammaOperator(a1.columns @ rot, codomain),
            gamma.FiniteRankGammaOperator(a2.columns @ rot, codomain),
            check=False)
        worst_rot = max(worst_rot, float(np.linalg.norm(turned - total)))
    ok = worst_ideal <= 1e-10 and worst_bilinear <= 1e-10 and worst_rot <= 1e-10
    report(7, "ideal property and bilinear sum (100 instances each)", ok,
           f"ideal={worst_ideal:.2e} bilinear={worst_bilinear:.2e} "
           f"rotation={worst_rot:.2e}")


def test_criterion_8_nemytskii_bounds():
    rng = np.random.default_rng(880)
    mat = sine_matrix(256, 12)

    def draw(scale=1.0):
        return GridFunction(
            mat @ (rng.standard_normal(12) * scale / np.arange(1, 13)))

    worst_fd = 0.0
    worst_violation = 0.0
    for name in nemytskii.FIELD_NAMES:
        op = nemytskii.NemytskiiOperator(nemytskii.get_field(name), 2.0, 8.0)
        # derivative vs central finite difference, m = 1 and 2
        eps = 1e-4
        v = draw()
        u1, u2 = draw(), draw()
        for m in (1, 2):
            if m == 1:
                hi = nemytskii.nemytskii_apply(op, GridFunction(v.values + eps * u1.values))
                lo = nemytskii.nemytskii_apply(op, GridFunction(v.values - eps * u1.values))
            else:
                hi = nemytskii.nemytskii_derivative(
                    op, 1, GridFunction(v.values + eps * u1.values), u2)
                lo = nemytskii.nemytskii_derivative(
                    op, 1, GridFunction(v.values - eps * u1.values), u2)
            fd = (hi.values - lo.values) / (2 * eps)
            dirs = (u1,) if m == 1 else (u1, u2)
            exact = nemytskii.nemytskii_derivative(op, m, v, *dirs).values
            scale = max(float(np.max(np.abs(exact))), 1e-12)
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - exact))) / scale)

        # items (iii)-(v) on 100 samples each with the analytic constants
        for m in (1, 2):
            r = 4.0 * m
            const = nemytskii.holder_bound_iii(op, m, r)
            for _ in range(100):
                vv = draw(2.0)
                dirs = tuple(draw() for _ in range(m))
                num = np.mean(np.abs(
                    nemytskii.nemytskii_derivative(op, m, vv, *dirs).values
                ) ** 2.0) ** 0.5
                den = math.prod(np.mean(np.abs(u.values) ** r) ** (1 / r)
                                for u in dirs)
                if den > 0:
                    worst_violation = max(worst_violation, num / den - const)
            v1, v2 = draw(2.0), draw(2.0)
            samples = [tuple(draw() for _ in range(m)) for _ in range(100)]
            big_r = 4.0 * (m + 1)
            lhs, rhs = nemytskii.lipschitz_bound_iv(op, m, big_r, m * big_r,
                                                    v1, v2, samples)
            worst_violation = max(worst_violation, lhs - rhs)
            lhs, rhs = nemytskii.lipschitz_bound_v(op, m, big_r, v1, v2, samples)
            worst_violation = max(worst_violation, lhs - rhs)
    ok = worst_fd <= 1e-5 and worst_violation <= 1e-10
    report(8, "Nemytskii derivatives and bounds", ok,
           f"worst FD rel err={worst_fd:.2e} worst bound violation={worst_violation:.2e}")


def test_criterion_9_diffusion_coefficient():
    rng = np.random.default_rng(990)
    coef = nemytskii.DiffusionCoefficient(nemytskii.get_field("tanh"),
                                          10.0, -0.5, None, 128)
    mat = sine_matrix(128, 12)

    def draw(scale=1.0):
        return GridFunction(
            mat @ (rng.standard_normal(12) * scale / np.arange(1, 13)))

    v, w, direction = draw(), draw(), draw()

    def fd_gap(step):
        plus = nemytskii.diffusion_apply(
            coef, GridFunction(v.values + step * direction.values), 16, 16)
        base = nemytskii.diffusion_apply(coef, v, 16, 16)
        deriv = nemytskii.diffusion_derivative(coef, 1, v, direction,
                                               n_modes=16, k_modes=16)
        diff = gamma.FiniteRankGammaOperator(
            (plus.columns - base.columns - step * deriv.columns) / step,
            coef.codomain)
        return gamma.gamma_norm_mc(diff, 2000, seed=33)[0]

    e1, e2 = fd_gap(2e-2), fd_gap(1e-2)
    fd_ok = e2 <= 0.75 * e1

    bound_ok = True
    for k in (0, 1, 2):
        bound = nemytskii.diffusion_norm_bound(coef, k, 16)
        for tag in range(5):
            vv = draw(3.0)
            dirs = tuple(draw() for _ in range(k))
            op = (nemytskii.diffusion_apply(coef, vv, 16, 16) if k == 0 else
                  nemytskii.diffusion_derivative(coef, k, vv, *dirs,
                                                 n_modes=16, k_modes=16))
            est, se = gamma.gamma_norm_mc(op, 4000, seed=40 + tag)
            denom = math.prod(np.mean(np.abs(d.values) ** coef.p) ** (1 / coef.p)
                              for d in dirs)
            bound_ok = bound_ok and est <= bound * max(denom, 1e-300) + 3.0 * se

    lip_bound, r_min = nemytskii.diffusion_lipschitz_bound(coef, 1, 16)
    op_v = nemytskii.diffusion_derivative(coef, 1, v, direction,
                                          n_modes=16, k_modes=16)
    op_w = nemytskii.diffusion_derivative(coef, 1, w, direction,
                                          n_modes=16, k_modes=16)
    diff = gamma.FiniteRankGammaOperator(op_v.columns - op_w.columns, coef.codomain)
    est, se = gamma.gamma_norm_mc(diff, 4000, seed=50)
    r = max(r_min, coef.p)
    rhs = (lip_bound
           * np.mean(np.abs(v.values - w.values) ** r) ** (1 / r)
           * np.mean(np.abs(direction.values) ** coef.p) ** (1 / coef.p))
    lip_ok = est <= rhs + 3.0 * se
    ok = fd_ok and bound_ok and lip_ok
    report(9, "diffusion coefficient B", ok,
           f"fd ratio={e2 / e1:.3f} bounds={'ok' if bound_ok else 'violated'} "
           f"lipschitz={'ok' if lip_ok else 'violated'}")


def test_criterion_10_weak_terminal_estimate():
    cfg = ExperimentConfig(N=16, K=16, M_t=100, paths=8000, seed=21)
    fam = heat_family(cfg.t0, cfg.T)
    x0 = SineBasisVector(1.0 / np.arange(1.0, 9.0))
    frozen = process.MildItoProcessSpec(fam, x0, None, None, 8, 8)
    grid = process.TimeGrid(cfg.t0, cfg.T, cfg.M_t)
    exact = calculus.weak_estimate_gap(testfunctions.squared_norm(), frozen, grid,
                                       paths=2, seed=0)
    ok = abs(exact.slack) <= 1e-10
    details = [f"deterministic={exact.slack:.2e}"]
    for phi, spec, grid_i, paths in _shipped_configs(cfg):
        res = calculus.weak_estimate_gap(phi, spec, grid_i, paths=paths,
                                         seed=cfg.seed)
        ok = ok and res.slack >= -3.0 * res.stderr
        details.append(f"{spec.label}/{phi.name}:{res.slack:.2e}")
    report(10, "weak terminal-value estimate", ok, " ".join(details))


def test_criterion_11_report_determinism(tmp_path):
    args = ["dynkin", "--N", "12", "--K", "12", "--M_t", "40", "--paths", "3000",
            "--seed", "5"]
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        code = main(args + ["--workers", workers, "--out", str(out)])
        assert code == 0
        outs.append((out / "report.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(11, "byte-identical report.csv across worker counts", ok,
           f"{len(outs[0])} bytes")
