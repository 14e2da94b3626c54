import sys

import numpy as np
import pytest

from mildito.process import (
    BlowUpError,
    MildItoProcessSpec,
    TimeGrid,
    fill_pool,
    integrability_report,
    keyed_increments,
    mild_sum_states,
    nemytskii_drift_spec,
    ou_spec,
    regularize,
    simulate,
    state_diffusion_spec,
    wiener_block,
    wiener_sample,
)
from mildito.spectral import (
    SineBasisVector,
    basis_vector,
    eigenvalues,
    heat_family,
    identity_family,
)


def closed_ou_variance(n_modes, horizon):
    rho = eigenvalues(n_modes)
    return float(np.sum((1.0 - np.exp(-2.0 * rho * horizon)) / (2.0 * rho)))


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(0.5, 1.5, 4)
        np.testing.assert_allclose(grid.nodes(), [0.5, 0.75, 1.0, 1.25, 1.5])
        assert grid.dt == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)


class TestWiener:
    def test_moments(self):
        grid = TimeGrid(0.0, 0.2, 40)
        block = np.stack([wiener_block(grid, 8, 77, i) for i in range(400)])
        n = block.size
        assert abs(np.mean(block)) <= 3.0 * np.sqrt(grid.dt / n)
        assert abs(np.var(block) - grid.dt) <= 3.0 * grid.dt * np.sqrt(2.0 / n)

    def test_bit_identical_reruns(self):
        grid = TimeGrid(0.0, 0.2, 40)
        a = wiener_block(grid, 8, 123, 5)
        b = wiener_block(grid, 8, 123, 5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        grid = TimeGrid(0.0, 0.2, 40)
        a = wiener_block(grid, 8, 123, 5)
        c = wiener_block(grid, 8, 123, 6)
        assert np.max(np.abs(a - c)) > 0.0

    @pytest.mark.parametrize("steps", [5, 32, 70])
    def test_windowed_draws_match_whole_blocks(self, steps):
        # each path's stream is drawn one window at a time; its normals
        # and their order are those of a single whole-block draw
        grid = TimeGrid(0.0, 0.2, steps)
        windowed = np.array([dw.copy() for dw in keyed_increments(grid, 3, 41, 10, 4)])
        assert windowed.shape == (steps, 4, 3)
        for i in range(4):
            np.testing.assert_array_equal(windowed[:, i], wiener_block(grid, 3, 41, 10 + i))

    @pytest.mark.parametrize("steps", [1, 31, 32, 33])
    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_threaded_fill_matches_whole_blocks(self, workers, count, steps):
        # pool threads fill and scale their own paths' rows of each window
        grid = TimeGrid(0.0, 0.2, steps)
        with fill_pool(workers, count) as pool:
            windowed = np.array([dw.copy() for dw in
                                 keyed_increments(grid, 3, 41, 10, count, workers, pool)])
        assert windowed.shape == (steps, count, 3)
        for i in range(count):
            assert np.array_equal(windowed[:, i], wiener_block(grid, 3, 41, 10 + i))

    def test_threaded_fill_under_frequent_switches(self):
        # threads share one window buffer; a row written by the wrong slice
        # or read before its slice is done would change the normals
        grid = TimeGrid(0.0, 0.2, 70)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fill_pool(8, 9) as pool:
                windowed = np.array([dw.copy() for dw in
                                     keyed_increments(grid, 5, 3, 0, 9, 8, pool)])
        finally:
            sys.setswitchinterval(interval)
        for i in range(9):
            assert np.array_equal(windowed[:, i], wiener_block(grid, 5, 3, i))

    def test_shape_and_validation(self):
        grid = TimeGrid(0.0, 0.2, 7)
        w = wiener_sample(grid, 3, 0, 0)
        assert w.increments.shape == (7, 3)
        with pytest.raises(ValueError):
            wiener_block(grid, 0, 0, 0)


class TestSimulate:
    def test_deterministic_flow(self):
        fam = heat_family(0.0, 0.5)
        x0 = basis_vector(1, 6)
        spec = MildItoProcessSpec(fam, x0, None, None, 6, 6)
        grid = TimeGrid(0.0, 0.5, 20)
        path = simulate(spec, grid, wiener_sample(grid, 6, 0, 0))
        expected = np.exp(-np.outer(grid.nodes(), eigenvalues(6))) * x0.coeffs
        np.testing.assert_allclose(path.states, expected, atol=1e-13)

    def test_identity_family_telescopes(self):
        fam = identity_family(0.0, 1.0)
        spec = ou_spec(fam, 5, 5)
        grid = TimeGrid(0.0, 1.0, 30)
        w = wiener_sample(grid, 5, 9, 0)
        path = simulate(spec, grid, w)
        np.testing.assert_allclose(path.states[-1], w.increments.sum(axis=0),
                                   atol=1e-12)

    def test_ou_ito_isometry(self):
        # oracle: E ||X_T||^2 = sum (1 - e^{-2 rho T})/(2 rho)
        fam = heat_family(0.0, 0.1)
        spec = ou_spec(fam, 8, 8)
        grid = TimeGrid(0.0, 0.1, 100)
        sq = np.empty(3000)
        for i in range(sq.size):
            path = simulate(spec, grid, wiener_sample(grid, 8, 31, i))
            sq[i] = float(np.sum(path.states[-1] ** 2))
        closed = closed_ou_variance(8, 0.1)
        stderr = float(np.std(sq, ddof=1)) / np.sqrt(sq.size)
        assert abs(np.mean(sq) - closed) <= 3.0 * stderr

    def test_shape_mismatch(self):
        fam = heat_family(0.0, 0.1)
        spec = ou_spec(fam, 4, 4)
        grid = TimeGrid(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            simulate(spec, grid, wiener_sample(TimeGrid(0.0, 0.1, 11), 4, 0, 0))

    def test_blow_up_detected(self):
        fam = heat_family(0.0, 1.0)
        x0 = basis_vector(1, 3)
        exploding = MildItoProcessSpec(
            fam, x0, lambda t, x: np.full_like(x, np.inf), None, 3, 3)
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(BlowUpError) as err:
            simulate(exploding, grid, wiener_sample(grid, 3, 0, 4))
        assert err.value.step == 1
        assert err.value.path_index == 4


class TestRecursionVsSum:
    def test_drift_and_constant_diffusion(self):
        fam = heat_family(0.0, 0.3)
        spec = nemytskii_drift_spec(np.tanh, fam, 10, 10, 64)
        grid = TimeGrid(0.0, 0.3, 25)
        w = wiener_sample(grid, 10, 5, 1)
        path = simulate(spec, grid, w)
        literal = mild_sum_states(spec, grid, w)
        assert np.max(np.abs(path.states - literal)) < 1e-10

    def test_state_dependent_diffusion(self):
        fam = heat_family(0.0, 0.2)
        x0 = SineBasisVector(0.5 / np.arange(1, 9))
        spec = state_diffusion_spec(np.tanh, fam, 8, 8, 64, initial=x0)
        grid = TimeGrid(0.0, 0.2, 20)
        w = wiener_sample(grid, 8, 6, 2)
        path = simulate(spec, grid, w)
        literal = mild_sum_states(spec, grid, w)
        assert np.max(np.abs(path.states - literal)) < 1e-10

    def test_identity_family(self):
        fam = identity_family(0.0, 1.0)
        spec = ou_spec(fam, 4, 4)
        grid = TimeGrid(0.0, 1.0, 15)
        w = wiener_sample(grid, 4, 7, 3)
        path = simulate(spec, grid, w)
        literal = mild_sum_states(spec, grid, w)
        assert np.max(np.abs(path.states - literal)) < 1e-12


class TestRegularize:
    def test_identity_family_fixes_nothing(self):
        fam = identity_family(0.0, 1.0)
        spec = ou_spec(fam, 4, 4)
        grid = TimeGrid(0.0, 1.0, 10)
        path = regularize(spec, simulate(spec, grid, wiener_sample(grid, 4, 1, 0)))
        np.testing.assert_array_equal(path.regularized, path.states)

    def test_terminal_node_is_state(self):
        fam = heat_family(0.0, 0.2)
        spec = ou_spec(fam, 6, 6)
        grid = TimeGrid(0.0, 0.2, 12)
        path = regularize(spec, simulate(spec, grid, wiener_sample(grid, 6, 2, 0)))
        np.testing.assert_array_equal(path.regularized[-1], path.states[-1])

    def test_deterministic_path_is_constant(self):
        fam = heat_family(0.0, 0.2)
        x0 = basis_vector(2, 5)
        spec = MildItoProcessSpec(fam, x0, None, None, 5, 5)
        grid = TimeGrid(0.0, 0.2, 12)
        path = regularize(spec, simulate(spec, grid, wiener_sample(grid, 5, 3, 0)))
        target = np.exp(-eigenvalues(5) * 0.2) * x0.coeffs
        np.testing.assert_allclose(path.regularized,
                                   np.tile(target, (13, 1)), atol=1e-13)


class TestIntegrabilityReport:
    def test_zero_process(self):
        fam = heat_family(0.0, 0.2)
        spec = MildItoProcessSpec(fam, basis_vector(1, 4), None, None, 4, 4)
        grid = TimeGrid(0.0, 0.2, 10)
        path = simulate(spec, grid, wiener_sample(grid, 4, 0, 0))
        report = integrability_report(spec, grid, path)
        assert report.drift_integral == 0.0
        assert report.diffusion_integral == 0.0
        assert report.finite

    def test_ou_closed_form(self):
        fam = heat_family(0.0, 0.1)
        spec = ou_spec(fam, 12, 12)
        grid = TimeGrid(0.0, 0.1, 1000)
        path = simulate(spec, grid, wiener_sample(grid, 12, 8, 0))
        report = integrability_report(spec, grid, path)
        closed = closed_ou_variance(12, 0.1)
        assert abs(report.diffusion_integral - closed) <= 1e-3 * closed

    def test_monotone_in_horizon(self):
        values = []
        for horizon in (0.05, 0.1, 0.2):
            fam = heat_family(0.0, horizon)
            spec = ou_spec(fam, 6, 6)
            grid = TimeGrid(0.0, horizon, 200)
            path = simulate(spec, grid, wiener_sample(grid, 6, 4, 0))
            values.append(integrability_report(spec, grid, path).diffusion_integral)
        assert values[0] <= values[1] <= values[2]


class TestAdapters:
    def test_lifted_spec_simulates_like_native(self):
        fam = heat_family(0.0, 0.2)
        cols = np.eye(5)
        native = ou_spec(fam, 5, 5)
        lifted = MildItoProcessSpec(
            fam, SineBasisVector(np.zeros(5)), None,
            lambda t, x: cols, 5, 5)
        grid = TimeGrid(0.0, 0.2, 15)
        w = wiener_sample(grid, 5, 9, 0)
        a = simulate(native, grid, w)
        b = simulate(lifted, grid, w)
        np.testing.assert_allclose(a.states, b.states, atol=1e-14)

    def test_initial_truncation_checked(self):
        fam = heat_family(0.0, 0.2)
        with pytest.raises(ValueError):
            MildItoProcessSpec(fam, basis_vector(1, 4), None, None, 8, 8)


class TestStability:
    def test_bounded_coefficients_do_not_blow_up(self):
        fam = heat_family(0.0, 0.5)
        spec = nemytskii_drift_spec(np.tanh, fam, 12, 12, 64)
        grid = TimeGrid(0.0, 0.5, 100)
        for i in range(10):
            path = simulate(spec, grid, wiener_sample(grid, 12, 13, i))
            assert np.all(np.isfinite(path.states))
            # discrete Gronwall envelope: ||X_m|| <= (||X_0|| + T sup|Y|) + noise;
            # with tanh drift sup|Y| <= 1 in L2, so a loose ceiling suffices
            assert np.max(np.sqrt(np.sum(path.states ** 2, axis=1))) < 50.0
