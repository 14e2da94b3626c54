import numpy as np
import pytest
from scipy.integrate import quad

from mildito.spectral import (
    GridFunction,
    SineBasisVector,
    analyze,
    apply_fractional,
    apply_semigroup,
    basis_vector,
    eigenfunction_value,
    eigenvalue,
    grid_lp_norms,
    heat_family,
    hr_norm,
    identity_family,
    lp_norm,
    synthesize,
)


def rng(tag=0):
    return np.random.default_rng(900 + tag)


def random_vector(n_modes, tag=0, scale=1.0):
    return SineBasisVector(rng(tag).standard_normal(n_modes) * scale)


class TestEigendata:
    def test_first_eigenvalue(self):
        assert eigenvalue(1) == pytest.approx(np.pi ** 2)

    def test_second_eigenvalue(self):
        assert eigenvalue(2) == pytest.approx(4 * np.pi ** 2)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue(0)
        with pytest.raises(ValueError):
            eigenvalue(-3)

    def test_eigenfunction_midpoint(self):
        assert eigenfunction_value(1, 0.5) == pytest.approx(np.sqrt(2.0))

    def test_eigenfunction_boundary(self):
        assert eigenfunction_value(1, 0.0) == 0.0

    def test_eigenfunction_quarter(self):
        assert eigenfunction_value(2, 0.25) == pytest.approx(np.sqrt(2.0))

    def test_eigenfunction_domain(self):
        with pytest.raises(ValueError):
            eigenfunction_value(1, 1.5)


class TestSynthesizeAnalyze:
    def test_first_mode_small_grid(self):
        g = synthesize(basis_vector(1, 1), 4)
        expected = np.sqrt(2.0) * np.sin(np.pi * np.array([1, 3, 5, 7]) / 8.0)
        np.testing.assert_allclose(g.values, expected, rtol=1e-14)

    def test_zero_vector(self):
        g = synthesize(SineBasisVector(np.zeros(5)), 32)
        assert np.all(g.values == 0.0)

    def test_linearity(self):
        e1, e2 = basis_vector(1, 2), basis_vector(2, 2)
        both = SineBasisVector(e1.coeffs + e2.coeffs)
        np.testing.assert_allclose(
            synthesize(both, 64).values,
            synthesize(e1, 64).values + synthesize(e2, 64).values, atol=1e-14)

    def test_projection_of_first_mode(self):
        # oracle: (2/J) sum sin(n pi x_j) sin(m pi x_j) is exactly delta_nm
        # for n + m < 2J (midpoint-rule trigonometric quadrature)
        c = analyze(synthesize(basis_vector(1, 8), 256), 8).coeffs
        assert abs(c[0] - 1.0) < 1e-10
        assert np.max(np.abs(c[1:])) < 1e-10

    def test_analyze_zero(self):
        c = analyze(GridFunction(np.zeros(64)), 8).coeffs
        assert np.all(c == 0.0)

    def test_round_trip_identity(self):
        for tag in range(5):
            v = random_vector(16, tag)
            back = analyze(synthesize(v, 64), 16)
            assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-10


class TestNorms:
    def test_constant_function_any_p(self):
        g = GridFunction(np.ones(50))
        for p in (1.0, 2.0, 3.5, 7.0):
            assert lp_norm(g, p) == pytest.approx(1.0)

    def test_first_mode_l2(self):
        assert lp_norm(synthesize(basis_vector(1, 4), 256), 2) == pytest.approx(
            1.0, abs=1e-10)

    def test_first_mode_l4_closed_form(self):
        # oracle: int_0^1 4 sin^4(pi x) dx = 3/2 by direct quadrature
        oracle, _ = quad(lambda x: 4.0 * np.sin(np.pi * x) ** 4, 0.0, 1.0)
        assert oracle == pytest.approx(1.5, abs=1e-12)
        got = lp_norm(synthesize(basis_vector(1, 4), 256), 4)
        assert got == pytest.approx(oracle ** 0.25, abs=1e-10)

    @pytest.mark.parametrize("scale, p", [(3.0, 1000.0), (0.3, 1000.0), (3.0, np.inf),
                                          (1e-200, 4.0), (1e200, 4.0)])
    def test_lp_norm_outside_float_range_of_powers(self, scale, p):
        # |g|^p over- or underflows here; the norm is homogeneous, so
        # ||scale g||_p = scale ||g||_p with ||g||_p computed in range
        g = synthesize(random_vector(8, 5), 64).values
        g = g / np.max(np.abs(g))
        unit = np.max(np.abs(g)) if np.isinf(p) else np.mean(np.abs(g) ** p) ** (1.0 / p)
        assert lp_norm(GridFunction(scale * g), p) == pytest.approx(scale * unit, rel=1e-12)

    def test_batched_norms_keep_rowwise_values(self):
        rows = np.vstack([np.full(16, 1e-200), np.linspace(-2.0, 2.0, 16), np.zeros(16)])
        norms = grid_lp_norms(rows, 6.0)
        direct = np.mean(np.abs(rows) ** 6.0, axis=-1) ** (1.0 / 6.0)
        assert direct[0] == 0.0                      # (1e-200)^6 underflows
        assert norms[0] == pytest.approx(1e-200, rel=1e-12)
        assert norms[1] == direct[1]                 # in range: the direct bits
        assert norms[2] == 0.0

    def test_lp_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(GridFunction(np.ones(8)), 0.5)

    def test_hr_norm_single_mode(self):
        for n in (1, 3, 5):
            for r in (-0.5, 0.0, 0.7, 1.0):
                assert hr_norm(basis_vector(n, 6), r) == pytest.approx(
                    (np.pi ** 2 * n * n) ** r)

    def test_hr_norm_r_zero_is_euclidean(self):
        v = random_vector(12, 1)
        assert hr_norm(v, 0.0) == pytest.approx(float(np.linalg.norm(v.coeffs)))

    def test_hr_norm_two_modes(self):
        # (rho_1 + rho_2)^(1/2) = pi sqrt(5) at r = 1/2
        v = SineBasisVector([1.0, 1.0])
        assert hr_norm(v, 0.5) == pytest.approx(np.pi * np.sqrt(5.0))

    def test_parseval(self):
        for tag in range(5):
            v = random_vector(16, tag)
            left = lp_norm(synthesize(v, 64), 2)
            right = hr_norm(v, 0.0)
            assert abs(left - right) <= 1e-9 * right

    def test_monotone_scale(self):
        # rho_n >= pi^2 > 1 makes the scale monotone in r
        for tag in range(5):
            v = random_vector(10, tag)
            assert hr_norm(v, 0.2) <= hr_norm(v, 0.8)
            assert hr_norm(v, -1.0) <= hr_norm(v, -0.3)


class TestOperators:
    def test_fractional_zero_is_identity(self):
        v = random_vector(9, 2)
        np.testing.assert_array_equal(apply_fractional(0.0, v).coeffs, v.coeffs)

    def test_fractional_inverse(self):
        v = random_vector(9, 3)
        back = apply_fractional(-0.6, apply_fractional(0.6, v))
        assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-12

    def test_fractional_first_mode(self):
        out = apply_fractional(-1.0, basis_vector(1, 3))
        assert out.coeffs[0] == pytest.approx(np.pi ** -2)

    def test_semigroup_zero_time(self):
        v = random_vector(9, 4)
        np.testing.assert_array_equal(apply_semigroup(0.0, v).coeffs, v.coeffs)

    def test_semigroup_contraction(self):
        v = random_vector(9, 5)
        for t in (0.001, 0.1, 2.0):
            assert hr_norm(apply_semigroup(t, v)) <= hr_norm(v)

    def test_semigroup_law(self):
        v = random_vector(9, 6)
        one = apply_semigroup(0.3, apply_semigroup(0.2, v))
        two = apply_semigroup(0.5, v)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12

    def test_semigroup_negative_time(self):
        with pytest.raises(ValueError):
            apply_semigroup(-0.1, basis_vector(1, 2))

    def test_multipliers_in_unit_interval(self):
        fam = heat_family(0.0, 1.0)
        # strict positivity is checked while rho_n t stays representable;
        # beyond exp(-745) the multiplier underflows to exactly 0.0
        for t in (0.0, 1e-6, 1e-3, 0.05):
            m = fam.multipliers(0.0, t, 32)
            assert np.all(m > 0.0) and np.all(m <= 1.0)
        m = fam.multipliers(0.0, 1.0, 32)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestEvolutionFamily:
    def test_identity_kind(self):
        fam = identity_family(0.0, 1.0)
        v = random_vector(7, 7)
        np.testing.assert_array_equal(fam.apply(0.1, 0.9, v).coeffs, v.coeffs)

    def test_heat_first_mode(self):
        fam = heat_family(0.0, 1.0)
        out = fam.apply(0.0, 1.0, basis_vector(1, 2))
        assert out.coeffs[0] == pytest.approx(np.exp(-np.pi ** 2))

    def test_order_precondition(self):
        fam = heat_family(0.0, 1.0)
        with pytest.raises(ValueError):
            fam.apply(0.5, 0.5, basis_vector(1, 2))
        with pytest.raises(ValueError):
            fam.apply(0.7, 0.2, basis_vector(1, 2))

    def test_composition_law(self):
        fam = heat_family(0.0, 1.0)
        r = rng(8)
        for _ in range(200):
            t1, t2, t3 = np.sort(r.uniform(0.0, 1.0, 3))
            if t1 == t2 or t2 == t3:
                continue
            v = SineBasisVector(r.standard_normal(16))
            two = fam.apply(t2, t3, fam.apply(t1, t2, v))
            one = fam.apply(t1, t3, v)
            err = np.linalg.norm(two.coeffs - one.coeffs)
            assert err <= 1e-12 * np.linalg.norm(v.coeffs)

    def test_noise_multiplier_limits(self):
        fam = heat_family(0.0, 1.0)
        # RMS average of the kernel: 1 in the dt -> 0 limit, below 1 always
        m = fam.noise_multipliers(0.0, 1e-12, 8)
        np.testing.assert_allclose(m, 1.0, atol=1e-9)
        m = fam.noise_multipliers(0.0, 0.5, 8)
        assert np.all(m < 1.0) and np.all(m > 0.0)
        # exact value: sqrt((1 - e^{-2 rho dt})/(2 rho dt))
        rho1 = np.pi ** 2
        expected = np.sqrt((1 - np.exp(-2 * rho1 * 0.5)) / (2 * rho1 * 0.5))
        assert m[0] == pytest.approx(expected, rel=1e-12)


class TestInvariants:
    def test_coefficients_must_be_finite(self):
        with pytest.raises(ValueError):
            SineBasisVector([1.0, np.nan])
        with pytest.raises(ValueError):
            GridFunction([np.inf])

    def test_vectors_are_immutable(self):
        v = random_vector(4, 9)
        with pytest.raises(ValueError):
            v.coeffs[0] = 7.0
