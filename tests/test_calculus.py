import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mildito import calculus, process
from mildito.calculus import (
    EnsembleRequest,
    StoppingRule,
    dynkin_gap,
    ito_residual,
    kolmogorov_apply,
    martingale_check,
    run_ensemble,
    run_requests,
    self_convergence_orders,
    standard_ito_residual,
    stopping_sample,
    weak_estimate_gap,
)
from mildito.cli import ExperimentConfig
from mildito.gamma import FiniteRankGammaOperator, HrCodomain, HypothesisError
from mildito.nemytskii import get_field
from mildito.process import MildItoProcessSpec, TimeGrid, ou_spec, wiener_sample
from mildito.suites import run_suite
from mildito.spectral import (
    SineBasisVector,
    basis_vector,
    eigenvalues,
    heat_family,
    identity_family,
)
from mildito.testfunctions import (
    TEST_FUNCTION_NAMES,
    coordinate_functional,
    integral_functional,
    shipped_test_function,
    smoothed_norm,
    squared_norm,
    time_functional,
)


def closed_ou_variance(n_modes, horizon):
    rho = eigenvalues(n_modes)
    return float(np.sum((1.0 - np.exp(-2.0 * rho * horizon)) / (2.0 * rho)))


def heat(horizon=0.1):
    return heat_family(0.0, horizon)


class TestTestFunctions:
    """Derivative maps must match central finite differences of the values."""

    @pytest.fixture(params=["coordinate", "squared", "smoothed", "integral"])
    def phi(self, request):
        from mildito.nemytskii import get_field
        return {
            "coordinate": coordinate_functional((1, 3)),
            "squared": squared_norm(),
            "smoothed": smoothed_norm(),
            "integral": integral_functional(get_field("tanh"), 64),
        }[request.param]

    def test_first_derivative(self, phi):
        r = np.random.default_rng(5)
        x = r.standard_normal((3, 6))
        v = r.standard_normal((3, 6))
        h = 1e-5
        fd = (phi.value(x + h * v) - phi.value(x - h * v)) / (2 * h)
        got = phi.d1(x, v)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_second_derivative(self, phi):
        r = np.random.default_rng(6)
        x, a, b = r.standard_normal((3, 4, 6))
        h = 1e-5
        fd = (phi.d1(x + h * b, a) - phi.d1(x - h * b, a)) / (2 * h)
        np.testing.assert_allclose(phi.d2(x, a, b), fd, rtol=1e-6, atol=1e-6)

    def test_trace_matches_column_loop(self, phi):
        r = np.random.default_rng(7)
        x = r.standard_normal((5, 6))
        cols = r.standard_normal((6, 4))
        loop = sum(phi.d2(x, np.broadcast_to(cols[:, k], x.shape),
                          np.broadcast_to(cols[:, k], x.shape)) for k in range(4))
        got = np.broadcast_to(phi.trace(x, cols), loop.shape)
        np.testing.assert_allclose(got, loop, rtol=1e-12, atol=1e-12)
        batch_cols = r.standard_normal((5, 6, 4))
        loop = sum(phi.d2(x, batch_cols[..., k], batch_cols[..., k])
                   for k in range(4))
        got = np.broadcast_to(phi.trace(x, batch_cols), loop.shape)
        np.testing.assert_allclose(got, loop, rtol=1e-12, atol=1e-12)

    def test_growth_bound_on_samples(self, phi):
        r = np.random.default_rng(8)
        x = 5.0 * r.standard_normal((200, 6))
        norms = np.linalg.norm(np.atleast_2d(phi.value(x)), axis=-1)
        allowed = phi.growth_constant * (
            1.0 + np.linalg.norm(x, axis=-1) ** phi.growth_exponent)
        assert np.all(norms <= allowed + 1e-12)

    def test_registry_builds_every_named_function(self):
        built = [shipped_test_function(name).name for name in TEST_FUNCTION_NAMES]
        assert built == ["coordinate(1,)", "squared_norm", "smoothed_norm",
                         "integral_sin", "integral_tanh", "integral_rational"]
        with pytest.raises(KeyError, match="registry has"):
            shipped_test_function("integral_cos")


class TestKolmogorovApply:
    def test_linear_phi_drops_trace(self):
        fam = heat()
        phi = coordinate_functional((1,))
        x = basis_vector(1, 6)
        y = SineBasisVector(np.arange(1.0, 7.0))
        z = FiniteRankGammaOperator(np.eye(6), HrCodomain(0.0))
        got = kolmogorov_apply(fam, 0.02, 0.1, phi, x, y, z)
        mult = np.exp(-eigenvalues(6) * 0.08)
        assert got[0] == pytest.approx(mult[0] * 1.0)

    def test_squared_norm_trace_oracle(self):
        fam = heat()
        phi = squared_norm()
        zero = SineBasisVector(np.zeros(6))
        z = FiniteRankGammaOperator(np.eye(6), HrCodomain(0.0))
        got = kolmogorov_apply(fam, 0.03, 0.1, phi, zero, zero, z)
        expected = np.sum(np.exp(-2.0 * eigenvalues(6) * 0.07))
        assert got[0] == pytest.approx(expected)

    def test_zero_diffusion_reduces_to_drift(self):
        fam = heat()
        phi = squared_norm()
        x = basis_vector(1, 4)
        y = basis_vector(1, 4)
        got = kolmogorov_apply(fam, 0.0, 0.1, phi, x, y, None)
        mult = np.exp(-eigenvalues(4) * 0.1)
        assert got[0] == pytest.approx(2.0 * mult[0] ** 2)

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            kolmogorov_apply(heat(), 0.1, 0.1, squared_norm(),
                             basis_vector(1, 3), basis_vector(1, 3), None)

    def test_linear_in_drift(self):
        fam = heat()
        phi = smoothed_norm()
        r = np.random.default_rng(9)
        x = SineBasisVector(r.standard_normal(5))
        y1 = SineBasisVector(r.standard_normal(5))
        y2 = SineBasisVector(r.standard_normal(5))
        both = SineBasisVector(y1.coeffs + 2.0 * y2.coeffs)
        got = kolmogorov_apply(fam, 0.0, 0.1, phi, x, both, None)
        split = (kolmogorov_apply(fam, 0.0, 0.1, phi, x, y1, None)
                 + 2.0 * kolmogorov_apply(fam, 0.0, 0.1, phi, x, y2, None))
        np.testing.assert_allclose(got, split, rtol=1e-12)

    def test_quadratic_in_diffusion(self):
        fam = heat()
        phi = squared_norm()
        r = np.random.default_rng(10)
        x = SineBasisVector(r.standard_normal(5))
        zero = SineBasisVector(np.zeros(5))
        z = FiniteRankGammaOperator(r.standard_normal((5, 3)), HrCodomain(0.0))
        base = kolmogorov_apply(fam, 0.0, 0.1, phi, x, zero, z)
        scaled = kolmogorov_apply(fam, 0.0, 0.1, phi, x, zero, z.scaled(3.0))
        assert scaled[0] == pytest.approx(9.0 * base[0], rel=1e-12)


class TestItoResidual:
    def test_constant_path_any_phi(self):
        # Y = Z = 0: the regularized path is constant, residual vanishes
        fam = heat()
        x0 = SineBasisVector(1.0 / np.arange(1.0, 9.0))
        spec = MildItoProcessSpec(fam, x0, None, None, 8, 8)
        grid = TimeGrid(0.0, 0.1, 60)
        w = wiener_sample(grid, 8, 3, 0)
        for phi in (squared_norm(), smoothed_norm(), coordinate_functional((2,))):
            res = ito_residual(phi, spec, grid, w)
            assert np.max(np.abs(res)) < 1e-10

    def test_linear_phi_exact(self):
        fam = heat()
        spec = process.nemytskii_drift_spec(np.tanh, fam, 8, 8, 64)
        grid = TimeGrid(0.0, 0.1, 60)
        w = wiener_sample(grid, 8, 4, 1)
        res = ito_residual(coordinate_functional((1, 2)), spec, grid, w)
        assert np.max(np.abs(res)) < 1e-10

    def test_identity_family_constant_diffusion(self):
        fam = identity_family(0.0, 1.0)
        spec = ou_spec(fam, 5, 5)
        grid = TimeGrid(0.0, 1.0, 40)
        w = wiener_sample(grid, 5, 5, 2)
        res = ito_residual(coordinate_functional((1,)), spec, grid, w)
        assert np.max(np.abs(res)) < 1e-10

    def test_restart_parameter(self):
        # restarting at an interior node removes the early contributions
        fam = heat()
        spec = ou_spec(fam, 6, 6)
        grid = TimeGrid(0.0, 0.1, 50)
        w = wiener_sample(grid, 6, 6, 3)
        res = ito_residual(coordinate_functional((1,)), spec, grid, w,
                           start_index=20)
        assert np.max(np.abs(res)) < 1e-10

    def test_quadratic_residual_shrinks_with_dt(self):
        fam = heat()
        spec = ou_spec(fam, 8, 8)
        rms, order = self_convergence_orders(
            squared_norm(), spec, 0.0, 0.1, (50, 100, 200), 300, seed=17)
        assert rms[0] > rms[1] > rms[2]
        assert order >= 0.3


def _coarsened_block_orders(phi, spec, counts, n_paths, seed):
    """Self-convergence from a materialised fine block: the lockstep oracle."""
    finest = counts[-1]
    fine = TimeGrid(0.0, 0.1, finest)
    block = np.stack([process.wiener_block(fine, spec.k_modes, seed, i)
                      for i in range(n_paths)])
    rms = [calculus.residual_rms(phi, spec, TimeGrid(0.0, 0.1, steps), increments=(
        block if steps == finest else calculus.coarsen_increments(block, finest // steps)))
        for steps in counts]
    slope = np.polyfit(np.log(np.asarray(counts, float)), np.log(rms), 1)[0]
    return rms, float(-slope)


SELF_CONVERGENCE_SPECS = {
    "ou": lambda: ou_spec(heat(), 32, 32),
    "tanh": lambda: process.nemytskii_drift_spec(np.tanh, heat(), 16, 16, 128),
    "ou_k_lt_n": lambda: ou_spec(heat(), 8, 5),
}


class TestSelfConvergence:
    """The nested grids march in lockstep from one windowed keyed stream."""

    @pytest.mark.parametrize("name, counts, paths", [
        ("ou", (100, 200, 400), 1000),
        # 1, 2 and 3 chunks; 40 steps end in a partial window, 20 fit in one
        *[(name, counts, paths)
          for name, counts in (("ou", (10, 20, 40)), ("tanh", (5, 10, 20)),
                               ("ou_k_lt_n", (10, 20, 40)))
          for paths in (1000, 2050, 4500)],
        # factor 3: a coarse step's fine increments straddle a window edge
        ("ou_k_lt_n", (20, 60), 2050),
    ])
    def test_keeps_the_bits_of_the_coarsened_block(self, name, counts, paths):
        spec = SELF_CONVERGENCE_SPECS[name]()
        rms, order = _coarsened_block_orders(squared_norm(), spec, counts, paths, 7)
        want = [r.hex() for r in rms] + [order.hex()]
        for workers in (1, 2):
            rms, order = self_convergence_orders(squared_norm(), spec, 0.0, 0.1, counts,
                                                 paths, seed=7, workers=workers)
            assert [r.hex() for r in rms] + [order.hex()] == want, workers

    def test_holds_no_increment_block(self):
        # the 1000 x 400 x 32 fine block alone would take 97.7 MiB
        spec = ou_spec(heat(), 32, 32)
        tracemalloc.start()
        try:
            self_convergence_orders(squared_norm(), spec, 0.0, 0.1, (100, 200, 400),
                                    1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    @pytest.mark.parametrize("counts", [(100, 300, 400), (400,), (100, 100)])
    def test_rejects_step_counts_that_do_not_nest(self, counts):
        with pytest.raises(ValueError, match="each dividing the finest"):
            self_convergence_orders(squared_norm(), ou_spec(heat(), 4, 4), 0.0, 0.1,
                                    counts, 8)


class TestStandardIto:
    def test_pure_time_integral(self):
        grid = TimeGrid(0.0, 1.0, 33)
        w = wiener_sample(grid, 4, 0, 0)
        res = standard_ito_residual(time_functional(), None,
                                    lambda t, x: np.eye(4), grid, w, 4)
        assert np.max(np.abs(res)) < 1e-12

    def test_linear_functional(self):
        grid = TimeGrid(0.0, 1.0, 50)
        w = wiener_sample(grid, 6, 1, 0)
        res = standard_ito_residual(
            coordinate_functional((1,)), lambda t, x: -x,
            lambda t, x: np.eye(6), grid, w, 6)
        assert np.max(np.abs(res)) < 1e-10

    @pytest.mark.parametrize("diffusion", [
        lambda t, x: 0.5 * np.eye(6),
        lambda t, x: 0.4 * np.cos(x)[:, :, None] * np.eye(6),
    ], ids=["constant", "state"])
    @pytest.mark.parametrize("phi", [
        coordinate_functional((1, 3)), squared_norm(), smoothed_norm(),
        integral_functional(get_field("tanh"))], ids=lambda phi: phi.name)
    def test_identity_family_matches_mild_engine(self, phi, diffusion):
        """With S = Id the mild residual is the standard one, on one TestFunction."""
        grid = TimeGrid(0.0, 0.5, 50)
        w = wiener_sample(grid, 6, 3, 0)
        x0 = 0.8 / np.arange(1.0, 7.0)

        def drift(t, x):
            return -x + 0.3 * np.tanh(x)

        spec = MildItoProcessSpec(identity_family(0.0, 0.5), SineBasisVector(x0),
                                  drift, diffusion, 6, 6, state_dependent=True)
        mild = ito_residual(phi, spec, grid, w)
        standard = standard_ito_residual(phi, drift, diffusion, grid, w, 6, initial=x0)
        scale = max(1.0, float(np.max(np.abs(phi.value(x0[None])))))
        np.testing.assert_allclose(standard, mild, rtol=0.0, atol=1e-12 * scale)

    def test_scalar_ou_self_convergence(self):
        phi = squared_norm()
        fine = TimeGrid(0.0, 1.0, 200)
        block = np.stack([process.wiener_block(fine, 1, 23, i) for i in range(500)])
        rms = []
        for steps in (50, 100, 200):
            grid = TimeGrid(0.0, 1.0, steps)
            dw = block if steps == 200 else calculus.coarsen_increments(
                block, 200 // steps)
            res = standard_ito_residual(phi, lambda t, x: -x,
                                        lambda t, x: np.eye(1), grid,
                                        wiener_sample(grid, 1, 23, 0), 1,
                                        increments=dw)
            rms.append(float(np.sqrt(np.mean(res ** 2))))
        orders = np.diff(np.log(rms)) / np.log(0.5)
        assert np.mean(orders) >= 0.4


class TestStopping:
    def make_path(self):
        fam = heat()
        spec = ou_spec(fam, 6, 6)
        grid = TimeGrid(0.0, 0.1, 30)
        path = process.simulate(spec, grid, wiener_sample(grid, 6, 2, 0))
        return spec, process.regularize(spec, path)

    def test_terminal(self):
        _, path = self.make_path()
        assert stopping_sample(StoppingRule("terminal"), path) == 30

    def test_zero_level_hits_immediately(self):
        _, path = self.make_path()
        assert stopping_sample(StoppingRule("hitting", 0.0), path) == 0

    def test_infinite_level_never_hits(self):
        _, path = self.make_path()
        assert stopping_sample(StoppingRule("hitting", np.inf), path) == 30

    def test_requires_regularized(self):
        fam = heat()
        spec = ou_spec(fam, 6, 6)
        grid = TimeGrid(0.0, 0.1, 30)
        bare = process.simulate(spec, grid, wiener_sample(grid, 6, 2, 0))
        with pytest.raises(ValueError):
            stopping_sample(StoppingRule("hitting", 1.0), bare)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StoppingRule("sometimes")


class TestDynkin:
    def test_deterministic_process_exact(self):
        fam = heat()
        x0 = SineBasisVector(1.0 / np.arange(1.0, 7.0))
        spec = MildItoProcessSpec(fam, x0, None, None, 6, 6)
        grid = TimeGrid(0.0, 0.1, 40)
        res = dynkin_gap(squared_norm(), spec, grid, paths=2, seed=0)
        assert abs(res.gap[0]) < 1e-10

    def test_drifted_deterministic_linear_phi_exact(self):
        fam = heat()
        x0 = SineBasisVector(1.0 / np.arange(1.0, 7.0))
        spec = MildItoProcessSpec(fam, x0, lambda t, x: np.tanh(x), None, 6, 6)
        grid = TimeGrid(0.0, 0.1, 40)
        res = dynkin_gap(coordinate_functional((1, 2)), spec, grid, paths=2, seed=0)
        assert np.max(np.abs(res.gap)) < 1e-10

    def test_ou_second_moment(self):
        spec = ou_spec(heat(), 12, 12)
        grid = TimeGrid(0.0, 0.1, 80)
        res = dynkin_gap(squared_norm(), spec, grid, paths=8000, seed=1)
        closed = closed_ou_variance(12, 0.1)
        assert abs(res.lhs[0] - closed) <= 3.0 * res.stderr_lhs[0]
        assert res.rhs[0] == pytest.approx(closed, rel=1e-12)
        assert abs(res.gap[0]) <= 3.0 * res.stderr_gap[0]

    def test_infinite_hitting_level_degenerates(self):
        spec = ou_spec(heat(), 8, 8)
        grid = TimeGrid(0.0, 0.1, 40)
        lim = dynkin_gap(squared_norm(), spec, grid,
                         StoppingRule("hitting", np.inf), paths=500, seed=2)
        term = dynkin_gap(squared_norm(), spec, grid, paths=500, seed=2)
        assert lim.lhs[0] == term.lhs[0]
        assert lim.rhs[0] == term.rhs[0]

    def test_hitting_rule_within_widened_tolerance(self):
        spec = ou_spec(heat(), 8, 8)
        grid = TimeGrid(0.0, 0.1, 80)
        res = dynkin_gap(squared_norm(), spec, grid,
                         StoppingRule("hitting", 0.25), paths=8000, seed=3)
        assert abs(res.gap[0]) <= 5.0 * res.stderr_gap[0]

    def test_path_count_precondition(self):
        with pytest.raises(ValueError):
            dynkin_gap(squared_norm(), ou_spec(heat(), 4, 4),
                       TimeGrid(0.0, 0.1, 10), paths=1)


class TestStandardError:
    """A standard error needs two paths, whichever entry point reports it."""

    ONE_PATH = {
        "martingale_check": lambda *args: martingale_check(*args, paths=1),
        "weak_estimate_gap": lambda *args: weak_estimate_gap(*args, paths=1),
        "plan_dynkin_gap": lambda *args: calculus.EnsemblePlan(1).dynkin_gap(
            *args, paths=1)(),
    }

    @pytest.mark.parametrize("entry", sorted(ONE_PATH))
    def test_one_path_is_rejected(self, entry):
        args = (squared_norm(), ou_spec(heat(), 4, 4), TimeGrid(0.0, 0.1, 10))
        with pytest.raises(ValueError, match="needs at least 2 paths, got 1"):
            self.ONE_PATH[entry](*args)

    def test_one_path_residuals_read_no_stderr(self):
        spec, grid = ou_spec(heat(), 4, 4), TimeGrid(0.0, 0.1, 10)
        w = wiener_sample(grid, 4, 0, 0)
        assert ito_residual(squared_norm(), spec, grid, w).shape == (1,)
        assert math.isfinite(calculus.residual_rms(squared_norm(), spec, grid,
                                                   n_paths=1))


class TestMartingale:
    def test_ou_squared_norm(self):
        spec = ou_spec(heat(), 10, 10)
        grid = TimeGrid(0.0, 0.1, 60)
        mean, se = martingale_check(squared_norm(), spec, grid, paths=6000, seed=4)
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_state_dependent_diffusion(self):
        x0 = SineBasisVector(0.7 / np.arange(1.0, 9.0))
        spec = process.state_diffusion_spec(np.tanh, heat(), 8, 8, 64, initial=x0)
        grid = TimeGrid(0.0, 0.1, 30)
        mean, se = martingale_check(smoothed_norm(), spec, grid, paths=2000, seed=5)
        assert np.all(np.abs(mean) <= 3.0 * se)


class TestWeakEstimate:
    def test_deterministic_equality(self):
        fam = heat()
        x0 = SineBasisVector(1.0 / np.arange(1.0, 7.0))
        spec = MildItoProcessSpec(fam, x0, None, None, 6, 6)
        grid = TimeGrid(0.0, 0.1, 40)
        res = weak_estimate_gap(squared_norm(), spec, grid, paths=2, seed=0)
        assert res.slack == pytest.approx(0.0, abs=1e-10)

    def test_ou_equality_within_noise(self):
        spec = ou_spec(heat(), 10, 10)
        grid = TimeGrid(0.0, 0.1, 60)
        res = weak_estimate_gap(squared_norm(), spec, grid, paths=6000, seed=6)
        assert res.slack >= -3.0 * res.stderr
        assert abs(res.slack) <= 4.0 * max(res.stderr, 1e-12)

    def test_nonlinear_drift_slack(self):
        spec = process.nemytskii_drift_spec(np.tanh, heat(), 10, 10, 64)
        grid = TimeGrid(0.0, 0.1, 60)
        res = weak_estimate_gap(coordinate_functional((1,)), spec, grid,
                                paths=6000, seed=7)
        assert res.slack >= -3.0 * res.stderr
        assert all(np.isfinite(v) for v in res.moments.values())

    def test_moment_overflow_raises(self):
        # an absurd growth exponent overflows the sampled moments, which is
        # exactly the hypothesis-violation path
        import dataclasses
        phi = dataclasses.replace(squared_norm(), growth_exponent=100_000.0)
        spec = process.ou_spec(heat_family(0.0, 0.3), 6, 6, diffusion_scale=5.0)
        grid = TimeGrid(0.0, 0.3, 20)
        with pytest.raises(HypothesisError):
            weak_estimate_gap(phi, spec, grid, paths=50, seed=8)


class TestDeterminism:
    def test_worker_count_does_not_change_sums(self):
        spec = process.nemytskii_drift_spec(np.tanh, heat(), 8, 8, 64)
        grid = TimeGrid(0.0, 0.1, 30)
        phi = squared_norm()
        a = run_ensemble(phi, spec, grid, n_paths=5000, seed=9,
                         collect_stoch=True, collect_weak=True, workers=1)
        b = run_ensemble(phi, spec, grid, n_paths=5000, seed=9,
                         collect_stoch=True, collect_weak=True, workers=4)
        for key in a.sums:
            np.testing.assert_array_equal(a.sums[key], b.sums[key])

    def test_gap_identity(self):
        spec = ou_spec(heat(), 6, 6)
        grid = TimeGrid(0.0, 0.1, 25)
        stats = run_ensemble(squared_norm(), spec, grid, n_paths=50, seed=10,
                             collect_stoch=True)
        lhs = stats.sums["s_gap"]
        rhs = stats.sums["s_phi_stop"] - stats.sums["s_phi0"] - stats.sums["s_kol"]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestEngineAgreement:
    @pytest.mark.parametrize("n, k", [(2, 8), (8, 8), (8, 2)])
    @pytest.mark.parametrize("make", ["ou", "nemytskii_drift", "state_diffusion"])
    def test_ensemble_matches_simulate(self, make, n, k):
        fam = heat()
        x0 = SineBasisVector(0.8 / np.arange(1, n + 1))
        if make == "ou":
            spec = ou_spec(fam, n, k, initial=x0, diffusion_scale=1.5)
        elif make == "nemytskii_drift":
            spec = process.nemytskii_drift_spec(np.tanh, fam, n, k, 64, initial=x0)
        else:
            spec = process.state_diffusion_spec(np.tanh, fam, n, k, 64, initial=x0)
        grid = TimeGrid(0.0, 0.1, 40)
        paths = [wiener_sample(grid, k, 12, i) for i in range(3)]
        # the coordinate functional over all modes makes phi_stop the terminal state
        phi = coordinate_functional(tuple(range(1, n + 1)))
        stats = run_ensemble(phi, spec, grid,
                             increments=np.stack([w.increments for w in paths]))
        terminal = sum(process.simulate(spec, grid, w).states[-1] for w in paths)
        np.testing.assert_allclose(stats.sums["s_phi_stop"], terminal, rtol=0, atol=1e-12)


class TestIncrementWindows:
    """Keyed increments are drawn window by window, never as a whole block."""

    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 70])
    @pytest.mark.parametrize("make", ["ou", "state_diffusion"])
    def test_keyed_matches_explicit_block(self, make, steps):
        fam = heat()
        if make == "ou":
            spec = ou_spec(fam, 6, 4)
            phi = squared_norm()
        else:
            x0 = SineBasisVector(0.6 / np.arange(1.0, 6.0))
            spec = process.state_diffusion_spec(np.tanh, fam, 5, 3, 16, initial=x0)
            phi = smoothed_norm()
        grid = TimeGrid(0.0, 0.1, steps)
        block = np.stack([process.wiener_block(grid, spec.k_modes, 7, i)
                          for i in range(2050)])
        explicit = run_ensemble(phi, spec, grid, increments=block, collect_stoch=True)
        for workers in (1, 2, 3):
            # 2050 paths: one full chunk, then a chunk of two
            keyed = run_ensemble(phi, spec, grid, n_paths=2050, seed=7,
                                 collect_stoch=True, workers=workers)
            assert keyed.sums.keys() == explicit.sums.keys()
            for key in keyed.sums:
                assert np.array_equal(keyed.sums[key], explicit.sums[key]), (workers, key)

    def test_explicit_block_must_match_the_grid(self):
        spec = ou_spec(heat(), 6, 4)
        block = np.zeros((3, 9, 4))
        with pytest.raises(ValueError, match="increments shaped"):
            run_ensemble(squared_norm(), spec, TimeGrid(0.0, 0.1, 10), increments=block)

    def test_chunk_never_holds_its_whole_block(self):
        # one 2048-path chunk of 128 steps at K = 32 has a 64 MiB increment block
        spec = ou_spec(heat(), 32, 32)
        grid = TimeGrid(0.0, 0.1, 128)
        tracemalloc.start()
        try:
            run_ensemble(squared_norm(), spec, grid, n_paths=2048, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestFillThreads:
    """Pool threads only draw normals; every step runs on the calling thread."""

    def test_callables_run_on_the_calling_thread(self):
        seen = set()

        def recorded(fn):
            def call(*args):
                seen.add(threading.get_ident())
                return fn(*args)
            return call

        base = process.nemytskii_drift_spec(np.tanh, heat(), 6, 6, 16)
        spec = dataclasses.replace(base, drift=recorded(base.drift),
                                   diffusion=recorded(base.diffusion))
        base_phi = smoothed_norm()
        phi = dataclasses.replace(base_phi, value=recorded(base_phi.value),
                                  d1=recorded(base_phi.d1),
                                  trace=recorded(base_phi.trace))
        # 2050 paths: two chunks
        run_ensemble(phi, spec, TimeGrid(0.0, 0.1, 6), n_paths=2050, seed=4,
                     workers=2, collect_stoch=True, collect_weak=True)
        assert seen == {threading.get_ident()}

    def test_no_pool_thread_outlives_the_run(self):
        before = threading.active_count()
        run_ensemble(squared_norm(), ou_spec(heat(), 4, 4), TimeGrid(0.0, 0.1, 40),
                     n_paths=50, seed=1, workers=3)
        assert threading.active_count() == before
        spec = MildItoProcessSpec(heat(), SineBasisVector(np.zeros(4)),
                                  lambda t, x: np.full_like(x, np.inf), None, 4, 4)
        with pytest.raises(process.BlowUpError), np.errstate(invalid="ignore"):
            run_ensemble(squared_norm(), spec, TimeGrid(0.0, 0.1, 40), n_paths=50,
                         seed=1, workers=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("paths", [1, 3, 8])
    def test_threads_stay_under_the_cap(self, monkeypatch, paths):
        # a broken cap could start at most paths - 1 extra threads here
        cap = min(paths, process.usable_cores())
        before = threading.active_count()
        idents, peak, lock = set(), [before], threading.Lock()
        keyed = process.path_rng

        class Recorded:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, **kwargs):
                with lock:
                    idents.add(threading.get_ident())
                    peak[0] = max(peak[0], threading.active_count())
                return self.gen.standard_normal(**kwargs)

        monkeypatch.setattr(process, "path_rng", lambda seed, i: Recorded(keyed(seed, i)))
        run_ensemble(squared_norm(), ou_spec(heat(), 4, 4), TimeGrid(0.0, 0.1, 70),
                     n_paths=paths, seed=2, workers=10 ** 6)
        assert idents and len(idents) <= cap
        assert peak[0] - before <= cap - 1


class TestGroupedMarch:
    """Requests sharing one march keep the bits of their one-request runs."""

    @pytest.mark.parametrize("steps", [1, 33])
    @pytest.mark.parametrize("make", ["ou", "nemytskii_drift", "state_diffusion"])
    def test_group_matches_one_request_runs(self, make, steps):
        fam = heat()
        x0 = SineBasisVector(0.6 / np.arange(1.0, 7.0))
        if make == "ou":
            spec = ou_spec(fam, 6, 4)     # K < N
        elif make == "nemytskii_drift":
            spec = process.nemytskii_drift_spec(np.tanh, fam, 6, 6, 32, initial=x0)
        else:
            spec = process.state_diffusion_spec(np.tanh, fam, 6, 4, 16, initial=x0)
        grid = TimeGrid(0.0, 0.1, steps)
        phis = [squared_norm(), integral_functional(get_field("tanh"), 32),
                coordinate_functional((1, 2))]
        rules = [None, StoppingRule("hitting", 0.3), StoppingRule("hitting", math.inf)]
        requests = [EnsembleRequest(phi, rule, collect_stoch=True, collect_weak=True)
                    for phi in phis for rule in rules]
        requests += [EnsembleRequest(phis[0]),
                     EnsembleRequest(phis[1], collect_stoch=True, collect_weak=True,
                                     start_index=steps // 2 or 1)]
        # 2050 paths: one full chunk, then a chunk of two
        grouped = run_requests(spec, grid, requests, n_paths=2050, seed=6, workers=2)
        assert len(grouped) == len(requests)
        for req, stats in zip(requests, grouped):
            alone = run_ensemble(req.phi, spec, grid, n_paths=2050, seed=6, rule=req.rule,
                                 collect_stoch=req.collect_stoch,
                                 collect_weak=req.collect_weak,
                                 start_index=req.start_index, workers=1)
            assert stats.sums.keys() == alone.sums.keys()
            for key in alone.sums:
                assert np.array_equal(stats.sums[key], alone.sums[key]), (req, key)

    def test_hitting_rules_start_at_the_first_node(self):
        with pytest.raises(ValueError, match="start node"):
            EnsembleRequest(squared_norm(), StoppingRule("hitting", 1.0), start_index=2)


class TestCheckPlan:
    """The suites declare their ensemble checks before any runs."""

    @pytest.fixture(scope="class")
    def suite_all(self):
        """``run_suite("all")`` at --paths 64 --M_t 8, with every keyed chunk march
        recorded as (spec, grid, seed, first path, paths), and every march on
        sums of a keyed stream (the self-convergence grids) as (spec, steps,
        first path, paths)."""
        marches, lockstep = [], []
        keyed, march = calculus.keyed_increments, calculus.march

        class Keyed:
            """A keyed draw, tagged with its seed."""

            def __init__(self, draws, seed):
                self.draws, self.seed = draws, seed

            def __iter__(self):
                return self.draws

        def recorded_keyed(grid, k_modes, seed, first_path, count, *args):
            return Keyed(keyed(grid, k_modes, seed, first_path, count, *args), seed)

        def recorded_march(spec, grid, kern, dW, n_paths, first_path):
            # keyed draws arrive tagged, explicit blocks as arrays, and the
            # self-convergence grids' sums of a keyed draw as other iterables
            if isinstance(dW, Keyed):
                marches.append((spec.label, spec.n_modes, spec.k_modes,
                                spec.initial.coeffs.tobytes(), grid, dW.seed,
                                first_path, n_paths))
            elif not isinstance(dW, np.ndarray):
                lockstep.append((spec.label, grid.steps, first_path, n_paths))
            return march(spec, grid, kern, dW, n_paths, first_path)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calculus, "keyed_increments", recorded_keyed)
            mp.setattr(calculus, "march", recorded_march)
            start = time.perf_counter()
            rows = run_suite("all", ExperimentConfig(paths=64, M_t=8, seed=1))
            wall = time.perf_counter() - start
        return rows, marches, lockstep, wall

    def test_one_march_per_keyed_ensemble(self, suite_all):
        rows, marches, _, _ = suite_all
        assert all(row.verdict == "pass" for row in rows)
        assert len(marches) == len(set(marches))
        # OU at 64 and at 2000 paths, the deterministic process, the drift
        # (two chunks of 4000 paths) and the state-dependent diffusion
        assert len({m[:-2] + (m[-2] + m[-1],) for m in marches if m[-2] == 0}) == 5
        assert len(marches) == 6

    def test_self_convergence_grids_march_on_one_stream(self, suite_all):
        # OU and tanh drift, each on 100, 200 and 400 steps: one 1000-path chunk
        _, _, lockstep, _ = suite_all
        assert sorted(lockstep) == sorted(
            (label, steps, 0, 1000) for label in ("ou", "nemytskii_drift")
            for steps in (100, 200, 400))

    def test_row_timings_cover_the_run(self, suite_all):
        rows, _, _, wall = suite_all
        timings = [row.wall_time for row in rows]
        assert min(timings) >= 0.0
        assert abs(sum(timings) - wall) <= 0.1 * wall

    def test_every_ensemble_takes_the_configured_workers(self, monkeypatch):
        seen = []
        pool = calculus.fill_pool

        def recorded(workers, count):
            seen.append(workers)
            return pool(workers, count)

        monkeypatch.setattr(calculus, "fill_pool", recorded)
        rows = run_suite("dynkin", ExperimentConfig(paths=64, M_t=8, workers=1))
        assert rows and seen
        assert set(seen) == {1}
