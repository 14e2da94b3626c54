import math

import numpy as np
import pytest

from mildito import nemytskii
from mildito.gamma import (
    FiniteRankGammaOperator,
    HypothesisError,
    gamma_norm_mc,
    iota_embedding,
)
from mildito.nemytskii import (
    DiffusionCoefficient,
    NemytskiiOperator,
    diffusion_apply,
    diffusion_derivative,
    diffusion_lipschitz_bound,
    diffusion_norm_bound,
    get_field,
    holder_bound_iii,
    lipschitz_bound_iv,
    lipschitz_bound_v,
    nemytskii_apply,
    nemytskii_derivative,
)
from mildito.spectral import GridFunction, lp_norm, sine_matrix


def rng(tag=0):
    return np.random.default_rng(2600 + tag)


def random_grid(tag=0, resolution=256, n_modes=12, scale=1.0):
    coeffs = rng(tag).standard_normal(n_modes) * scale / np.arange(1, n_modes + 1)
    return GridFunction(sine_matrix(resolution, n_modes) @ coeffs)


def sin_op(p=2.0, q=8.0):
    return NemytskiiOperator(get_field("sin"), p, q)


def tanh_op(p=2.0, q=8.0):
    return NemytskiiOperator(get_field("tanh"), p, q)


class TestRegistryConstants:
    """Dense-grid maxima are the oracle for every declared constant."""

    @pytest.mark.parametrize("name", ["sin", "tanh", "rational"])
    def test_sup_norms_are_tight_bounds(self, name):
        f = get_field(name)
        xs = np.linspace(-30.0, 30.0, 400_001)
        for m in range(f.order + 1):
            dense_max = float(np.max(np.abs(f.derivatives[m](xs))))
            assert dense_max <= f.sup_norms[m] + 1e-12
            assert f.sup_norms[m] <= dense_max + 1e-4

    @pytest.mark.parametrize("name", ["sin", "tanh", "rational"])
    def test_lipschitz_constants_bound_next_derivative(self, name):
        # Lip(f^(m)) is attained as sup |f^(m+1)|; difference quotients
        # sampled across [-10, 10] must stay below the declared constant
        f = get_field(name)
        pts = rng(1).uniform(-10, 10, size=(20_000, 2))
        for m in range(f.order + 1):
            quot = np.abs(f.derivatives[m](pts[:, 0]) - f.derivatives[m](pts[:, 1]))
            quot /= np.abs(pts[:, 0] - pts[:, 1])
            assert float(np.max(quot)) <= f.lipschitz[m] + 1e-12

    def test_tanh_second_derivative_peak(self):
        assert get_field("tanh").sup_norms[2] == pytest.approx(4.0 / (3 * math.sqrt(3)))

    def test_rational_constants(self):
        f = get_field("rational")
        assert f.sup_norms[0] == 0.5
        assert f.sup_norms[2] == pytest.approx(1.0 / (12.0 - 8.0 * math.sqrt(2.0)))
        assert f.sup_norms[3] == 6.0

    def test_rational_lip3_pinned_to_its_minimization(self):
        # the literal is the float this bounded minimization returns, bit for
        # bit; it sits within 4e-16 (relative) of |rational''''| at 2 - sqrt(3)
        from scipy.optimize import minimize_scalar
        lip3 = get_field("rational").lipschitz[3]
        found = -minimize_scalar(
            lambda x: -abs(nemytskii._rational_d4(x)), bounds=(0.05, 1.0),
            method="bounded", options={"xatol": 1e-12}).fun
        assert lip3 == float(found)
        closed = abs(nemytskii._rational_d4(2.0 - math.sqrt(3.0)))
        assert abs(lip3 - closed) <= 4e-16 * closed

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        xs = np.linspace(-3, 3, 41)
        for name in ("sin", "tanh", "rational"):
            f = get_field(name)
            for m in range(f.order):
                fd = (f.derivatives[m](xs + h) - f.derivatives[m](xs - h)) / (2 * h)
                np.testing.assert_allclose(fd, f.derivatives[m + 1](xs),
                                           atol=1e-7, rtol=1e-6)


class TestApply:
    def test_tanh_of_zero(self):
        out = nemytskii_apply(tanh_op(), GridFunction(np.zeros(32)))
        assert np.all(out.values == 0.0)

    def test_sin_of_constant(self):
        out = nemytskii_apply(sin_op(), GridFunction(np.full(32, np.pi / 2)))
        np.testing.assert_allclose(out.values, 1.0)

    def test_image_norm_bounded_by_sup(self):
        op = tanh_op(p=3.0, q=12.0)
        for tag in range(5):
            v = random_grid(tag, scale=4.0)
            assert lp_norm(nemytskii_apply(op, v), 3.0) <= 1.0 + 1e-12

    def test_restriction_commutes(self):
        # applying f then subsampling equals subsampling then applying f
        op = tanh_op()
        v = random_grid(3, resolution=256)
        full = nemytskii_apply(op, v).values[::4]
        sub = nemytskii_apply(op, GridFunction(v.values[::4])).values
        np.testing.assert_array_equal(full, sub)

    def test_exponent_hypothesis(self):
        with pytest.raises(HypothesisError):
            NemytskiiOperator(get_field("tanh"), 2.0, 6.0)   # q = n p exactly

    @pytest.mark.parametrize("p, q", [(2.0, math.inf), (math.inf, math.inf),
                                      (math.nan, 40.0), (0.5, 40.0)])
    def test_open_interval_is_finite(self, p, q):
        with pytest.raises(HypothesisError, match="^composition hypothesis: requires"):
            NemytskiiOperator(get_field("tanh"), p, q)


class TestDerivatives:
    def test_sin_first_derivative_formula(self):
        op = sin_op()
        v, u = random_grid(4), random_grid(5)
        out = nemytskii_derivative(op, 1, v, u)
        np.testing.assert_allclose(out.values, np.cos(v.values) * u.values)

    def test_zero_direction(self):
        op = sin_op()
        out = nemytskii_derivative(op, 1, random_grid(6), GridFunction(np.zeros(256)))
        assert np.all(out.values == 0.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            nemytskii_derivative(sin_op(), 4, random_grid(7),
                                 *(random_grid(i) for i in range(4)))

    @pytest.mark.parametrize("name", ["sin", "tanh", "rational"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_finite_difference_consistency(self, name, m):
        op = NemytskiiOperator(get_field(name), 2.0, 8.0)
        v = random_grid(8)
        dirs = tuple(random_grid(9 + i) for i in range(m))
        u = dirs[0]
        eps = 1e-4
        if m == 1:
            hi = nemytskii_apply(op, GridFunction(v.values + eps * u.values))
            lo = nemytskii_apply(op, GridFunction(v.values - eps * u.values))
        else:
            hi = nemytskii_derivative(op, 1, GridFunction(v.values + eps * u.values),
                                      dirs[1])
            lo = nemytskii_derivative(op, 1, GridFunction(v.values - eps * u.values),
                                      dirs[1])
        fd = (hi.values - lo.values) / (2 * eps)
        exact = nemytskii_derivative(op, m, v, *dirs).values
        scale = max(float(np.max(np.abs(exact))), 1e-12)
        assert float(np.max(np.abs(fd - exact))) / scale <= 1e-5


class TestHolderBound:
    def test_sin_first_order_constant(self):
        assert holder_bound_iii(sin_op(), 1, 4.0) == pytest.approx(1.0)

    def test_tanh_second_order_constant(self):
        # sup |tanh''| = 4/(3 sqrt 3), the measure factor is 1
        assert holder_bound_iii(tanh_op(), 2, 8.0) == pytest.approx(
            4.0 / (3.0 * math.sqrt(3.0)))

    def test_exponent_precondition(self):
        with pytest.raises(ValueError):
            holder_bound_iii(sin_op(), 2, 3.0)

    def test_quotients_stay_below_constant(self):
        op = tanh_op(p=2.0, q=8.0)
        for m in (1, 2):
            r = 4.0 * m
            const = holder_bound_iii(op, m, r)
            for tag in range(100):
                v = random_grid(tag, scale=2.0)
                dirs = tuple(random_grid(50 + tag + i) for i in range(m))
                num = lp_norm(nemytskii_derivative(op, m, v, *dirs), 2.0)
                den = math.prod(lp_norm(u, r) for u in dirs)
                assert num <= const * den + 1e-10


class TestLipschitzBounds:
    def test_equal_arguments_vanish(self):
        v = random_grid(20)
        samples = [(random_grid(21),)]
        lhs, rhs = lipschitz_bound_iv(sin_op(), 1, 8.0, 8.0, v, v, samples)
        assert lhs == 0.0 and rhs == 0.0

    def test_sin_inequality_on_draws(self):
        op = sin_op(p=2.0, q=8.0)
        for tag in range(20):
            v, w = random_grid(30 + tag, scale=2.0), random_grid(60 + tag, scale=2.0)
            samples = [(random_grid(90 + tag + i),) for i in range(5)]
            lhs, rhs = lipschitz_bound_iv(op, 1, 8.0, 8.0, v, w, samples)
            assert lhs <= rhs + 1e-10

    def test_difference_scaling(self):
        op = sin_op()
        v, w = random_grid(22), random_grid(23)
        w2 = GridFunction(v.values + 2.0 * (w.values - v.values))
        samples = [(random_grid(24),)]
        _, rhs1 = lipschitz_bound_iv(op, 1, 8.0, 8.0, v, w, samples)
        _, rhs2 = lipschitz_bound_iv(op, 1, 8.0, 8.0, v, w2, samples)
        assert rhs2 == pytest.approx(2.0 * rhs1)

    def test_exponent_precondition(self):
        with pytest.raises(ValueError):
            lipschitz_bound_iv(sin_op(), 1, 3.0, 3.0, random_grid(0), random_grid(1),
                               [(random_grid(2),)])

    def test_item_v_variant(self):
        op = tanh_op(p=2.0, q=8.0)
        v, w = random_grid(25, scale=2.0), random_grid(26, scale=2.0)
        samples = [tuple(random_grid(70 + i + 2 * j) for i in range(2))
                   for j in range(10)]
        lhs, rhs = lipschitz_bound_v(op, 2, 12.0, v, w, samples)
        assert lhs <= rhs + 1e-10
        with pytest.raises(ValueError):
            lipschitz_bound_v(op, 2, 5.0, v, w, samples)

    def test_sequential_continuity_of_top_derivative(self):
        # sampled-sequence version of operator-norm continuity of F^(n)
        op = tanh_op(p=2.0, q=8.0)
        v = random_grid(27)
        u = random_grid(28)
        gaps = []
        for step in (0.1, 0.01, 0.001):
            v_near = GridFunction(v.values + step * u.values)
            samples = [tuple(random_grid(80 + i + j) for i in range(3))
                       for j in range(20)]
            lhs, _ = lipschitz_bound_v(op, 3, 16.0, v_near, v, samples)
            gaps.append(lhs)
        assert gaps[2] <= gaps[1] <= gaps[0] + 1e-12


def make_coef(field="tanh", p=10.0, beta=-0.5, delta=None, resolution=128):
    return DiffusionCoefficient(get_field(field), p, beta, delta, resolution)


class TestDiffusionCoefficient:
    def test_hypotheses(self):
        with pytest.raises(HypothesisError):
            make_coef(beta=-0.2)
        with pytest.raises(HypothesisError):
            make_coef(p=5.0)
        with pytest.raises(HypothesisError):
            make_coef(delta=0.99999 * 6.0 / 10.0)

    @pytest.mark.parametrize("kwargs", [{"beta": -math.inf}, {"beta": math.nan},
                                        {"p": math.inf}, {"delta": math.nan}])
    def test_non_finite_exponents_rejected(self, kwargs):
        with pytest.raises(HypothesisError, match="^diffusion hypothesis: requires"):
            make_coef(**kwargs)

    def test_default_delta_and_epsilon(self):
        coef = make_coef()
        assert coef.delta == pytest.approx(0.75)
        assert coef.epsilon == pytest.approx(3.0 / (2.0 * 10.0 * 0.75))
        assert coef.beta + coef.epsilon < -0.25

    def test_unit_multiplier_reduces_to_embedding(self):
        # b == 1 makes the columns the eigenfunction projections, i.e. the
        # truncated identity of the embedding
        unit = nemytskii.ScalarField("unit", (lambda x: np.ones_like(x),),
                                     (1.0,), (0.0,))
        coef = DiffusionCoefficient(unit, 10.0, -0.5, 0.75, 128)
        assert coef.epsilon == 0.0
        op = diffusion_apply(coef, GridFunction(np.ones(128)), 16, 16)
        np.testing.assert_allclose(op.columns, np.eye(16), atol=1e-12)
        iota = iota_embedding(0.0, coef.beta, coef.p, n_modes=16, resolution=128)
        a, _ = gamma_norm_mc(op, 1000, seed=5)
        b, _ = gamma_norm_mc(iota, 1000, seed=5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_state_annihilates(self):
        coef = make_coef("sin")
        op = diffusion_apply(coef, GridFunction(np.zeros(128)), 12, 12)
        assert np.max(np.abs(op.columns)) < 1e-15

    def test_first_derivative_multiplier(self):
        coef = make_coef("sin")
        v = random_grid(31, resolution=128)
        d = random_grid(32, resolution=128)
        op = diffusion_derivative(coef, 1, v, d, n_modes=12, k_modes=12)
        mat = sine_matrix(128, 12)
        expected = mat.T @ ((np.cos(v.values) * d.values)[:, None] * mat) / 128
        np.testing.assert_allclose(op.columns, expected, atol=1e-12)

    def test_finite_difference_order(self):
        coef = make_coef()
        v = random_grid(33, resolution=128)
        d = random_grid(34, resolution=128)

        def gap(step):
            plus = diffusion_apply(coef, GridFunction(v.values + step * d.values),
                                   12, 12)
            base = diffusion_apply(coef, v, 12, 12)
            deriv = diffusion_derivative(coef, 1, v, d, n_modes=12, k_modes=12)
            diff = FiniteRankGammaOperator(
                (plus.columns - base.columns - step * deriv.columns) / step,
                coef.codomain)
            return gamma_norm_mc(diff, 2000, seed=9)[0]

        e1, e2 = gap(2e-2), gap(1e-2)
        assert e2 <= 0.75 * e1

    def test_norm_bound_item_iv(self):
        coef = make_coef()
        for k in (0, 1, 2):
            bound = diffusion_norm_bound(coef, k, n_modes=16)
            for tag in range(3):
                v = random_grid(40 + tag, resolution=128, scale=3.0)
                dirs = tuple(random_grid(60 + tag + i, resolution=128)
                             for i in range(k))
                op = (diffusion_apply(coef, v, 16, 16) if k == 0 else
                      diffusion_derivative(coef, k, v, *dirs, n_modes=16, k_modes=16))
                est, se = gamma_norm_mc(op, 4000, seed=tag)
                denom = math.prod(lp_norm(u, coef.p) for u in dirs)
                assert est <= bound * max(denom, 1e-300) + 3.0 * se

    def test_lipschitz_bound_item_v(self):
        coef = make_coef()
        bound, r_min = diffusion_lipschitz_bound(coef, 1, n_modes=16)
        assert r_min == pytest.approx(10.0 * 0.75 / (3.0 - 0.75))
        v, w = random_grid(44, resolution=128), random_grid(45, resolution=128)
        d = random_grid(46, resolution=128)
        op_v = diffusion_derivative(coef, 1, v, d, n_modes=16, k_modes=16)
        op_w = diffusion_derivative(coef, 1, w, d, n_modes=16, k_modes=16)
        diff = FiniteRankGammaOperator(op_v.columns - op_w.columns, coef.codomain)
        est, se = gamma_norm_mc(diff, 4000, seed=11)
        r = max(r_min, coef.p)
        rhs = bound * lp_norm(GridFunction(v.values - w.values), r) * lp_norm(d, coef.p)
        assert est <= rhs + 3.0 * se

    def test_resolution_mismatch(self):
        coef = make_coef()
        with pytest.raises(ValueError):
            diffusion_apply(coef, GridFunction(np.ones(64)), 8, 8)
